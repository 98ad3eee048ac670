//! The seeding phase: live migration from primary to replica shell
//! (§3.2 step ②–③, with §7.2's multithreaded optimisations).
//!
//! Seeding is iterative pre-copy: a full-memory pass, then rounds that
//! resend whatever the guest dirtied during the previous round, until the
//! dirty set drops below the configured threshold or the iteration cap
//! forces the final stop-and-copy. The bounds live in
//! [`ReplicationConfig`](crate::config::ReplicationConfig)
//! (`max_migration_iterations`, `migration_dirty_threshold`).
//!
//! Strategy differences are behind
//! [`ReplicationStrategy`](crate::pipeline::ReplicationStrategy): HERE
//! pays a one-time thread-pool setup, and its per-vCPU migrator threads
//! feed the problematic-page tracker so cross-thread pages are resent in
//! the stop-and-copy; Remus does neither.

use here_sim_core::time::SimDuration;
use here_telemetry::span::{SpanDraft, Track};

use crate::error::CoreResult;
use crate::report::{IterationStats, MigrationOutcome};
use crate::session::{Session, SessionPhase};
use crate::transfer::{collect_chunked, ProblematicTracker};

/// Records one migration iteration as a primary-track span (the round's
/// virtual interval ends at the session clock).
fn record_iteration_span(
    session: &mut Session,
    iteration: u64,
    pages: u64,
    phase: &'static str,
    duration: SimDuration,
) {
    let end = session.clock.as_nanos();
    let start = end.saturating_sub(duration.as_nanos());
    session.spans.push(
        SpanDraft::new(phase, "migration", Track::Primary, start)
            .lasting(duration.as_nanos())
            .attr_u64("iteration", iteration)
            .attr_u64("pages", pages),
    );
}

/// Runs the seeding migration to completion, leaving the session in the
/// replicating phase with the replica an exact copy of the primary.
pub(crate) fn seed(session: &mut Session) -> CoreResult<MigrationOutcome> {
    session.enter_phase(SessionPhase::Seeding);
    let costs = session.cfg.costs;
    let max_iterations = session.cfg.max_migration_iterations;
    let dirty_threshold = session.cfg.migration_dirty_threshold;
    let strategy = session.strategy;
    let mut iterations = Vec::new();
    let mut pages_sent = 0u64;
    let mut tracker = ProblematicTracker::new();
    let started = session.clock;

    // Thread-pool and per-vCPU PML setup (zero for Remus); the VM keeps
    // running.
    session.advance(strategy.migration_setup(&costs), false)?;

    // Iteration 0: every page of the VM goes over.
    let total_pages = session.primary.vm(session.pvm)?.memory().num_pages();
    let round = costs.migration_round(total_pages, session.threads);
    // Content snapshot first (what iteration 0 sends), then the guest
    // keeps dirtying during the copy.
    let full_delta: here_vmstate::MemoryDelta = session
        .primary
        .vm(session.pvm)?
        .memory()
        .touched_iter()
        .collect();
    session.advance(round, false)?;
    session.install_delta(&full_delta, 0)?;
    pages_sent += total_pages;
    let at_nanos = session.clock.as_nanos();
    session
        .telemetry
        .on_migration_iteration(0, total_pages, "full_copy", at_nanos);
    record_iteration_span(session, 0, total_pages, "full_copy", round);
    iterations.push(IterationStats {
        index: 0,
        pages: total_pages,
        duration: round,
        problematic_new: 0,
    });

    // Iterative pre-copy.
    let mut iter = 1u32;
    loop {
        let snapshot = session.take_dirty_snapshot()?;
        let dirty_count = snapshot.count();
        if dirty_count <= dirty_threshold || iter >= max_iterations {
            // Final stop-and-copy: pause, send remaining dirty pages
            // plus the problematic resend list, plus vCPU/device state.
            session.primary.vm_mut(session.pvm)?.pause()?;
            let mut final_delta = {
                let vm = session.primary.vm(session.pvm)?;
                collect_chunked(vm.memory(), &snapshot, session.threads)
            };
            let problematic = tracker.resend_list();
            let problematic_resent = problematic.len() as u64;
            let resend = session.pages_to_delta(&problematic)?;
            final_delta.merge(resend);
            let downtime = costs.migration_round(final_delta.len() as u64, session.threads)
                + costs.checkpoint_const;
            session.ship_checkpoint(&final_delta, 0)?;
            pages_sent += final_delta.len() as u64;
            session.clock += downtime;
            session.primary.vm_mut(session.pvm)?.resume()?;
            let at_nanos = session.clock.as_nanos();
            session.telemetry.on_migration_iteration(
                iter as u64,
                final_delta.len() as u64,
                "stop_and_copy",
                at_nanos,
            );
            record_iteration_span(
                session,
                iter as u64,
                final_delta.len() as u64,
                "stop_and_copy",
                downtime,
            );
            iterations.push(IterationStats {
                index: iter,
                pages: final_delta.len() as u64,
                duration: downtime,
                problematic_new: 0,
            });
            session.enter_phase(SessionPhase::Replicating);
            return Ok(MigrationOutcome {
                iterations,
                total: session.clock.saturating_duration_since(started),
                downtime,
                pages_sent,
                problematic_resent,
            });
        }

        // Copy this round's dirty set while the guest keeps running.
        let delta = {
            let vm = session.primary.vm(session.pvm)?;
            collect_chunked(vm.memory(), &snapshot, session.threads)
        };
        let before = tracker.len();
        strategy.track_problematic(&mut tracker, &delta);
        let problematic_new = (tracker.len() - before) as u64;
        let round = costs.migration_round(dirty_count, session.threads);
        session.advance(round, false)?;
        session.install_delta(&delta, iter)?;
        pages_sent += dirty_count;
        let at_nanos = session.clock.as_nanos();
        session
            .telemetry
            .on_migration_iteration(iter as u64, dirty_count, "pre_copy", at_nanos);
        record_iteration_span(session, iter as u64, dirty_count, "pre_copy", round);
        iterations.push(IterationStats {
            index: iter,
            pages: dirty_count,
            duration: round,
            problematic_new,
        });
        iter += 1;
    }
}
