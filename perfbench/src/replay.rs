//! The layer-by-layer replay driver behind the traced run.
//!
//! It rebuilds one workload's replicated stack from public APIs and
//! replays the epochs of an untraced `Scenario::run` of the same seed, in
//! the session's order: guest advance → dirty snapshot → harvest → encode
//! → vCPU translate → per-replica apply → ack → shadow commit → period
//! decision → telemetry. The epoch schedule (pause instants, which
//! replicas acked, which epochs aborted) comes from that run's report, so
//! the guest sees the same virtual-time slices and the same random stream
//! and dirties the same pages. Every call into a layer is wrapped in a
//! [`Tracer`] span; with the tracer off the same driver measures what the
//! spans cost.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use bytes::Bytes;
use here_core::dataplane::{
    encode_pages_round, translate_vcpus_parallel, CheckpointPools, EncodePlan, EpochShadow,
    PayloadMode, SegmentRestorer, PARALLEL_ENCODE_MIN_PAGES,
};
use here_core::transfer::{collect_chunked, collect_chunked_into, ProblematicTracker};
use here_core::{
    CheckpointRecord, CommitLedger, HereStrategy, PeriodManager, ReplicationConfig,
    ReplicationStrategy, RunReport, SessionTelemetry, Stage, StageEvent, StageTrace,
};
use here_hypervisor::host::Hypervisor;
use here_hypervisor::vcpu::{KvmVcpuState, VcpuStateBlob, XenVcpuState};
use here_hypervisor::vm::{VmConfig, VmId};
use here_hypervisor::{HypervisorKind, KvmHypervisor, VcpuId, XenHypervisor};
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};
use here_telemetry::span::{SpanDraft, SpanId, SpanRecorder, Track};
use here_vmstate::translate::StateTranslator;
use here_vmstate::wire::{encode_record_into, Record, StreamEncoder, VERSION_V3};
use here_vmstate::{reconcile, CpuStateCir, MemoryDelta};
use here_workloads::idle::IdleGuest;
use here_workloads::traits::Workload;

use crate::trace::{Open, Span, Tracer};
use crate::workloads::Kind;

/// Host memory of each simulated server, as the session sizes it.
const HOST_MEMORY: ByteSize = ByteSize::from_gib(192);

/// Largest guest advance slice, as the session slices it.
const MAX_SLICE: SimDuration = SimDuration::from_millis(250);

/// Number of vCPUs of every benchmark VM.
const VCPUS: u32 = 4;

/// Every layer the driver attributes wall time to, with the metric that
/// reports its total self time.
pub const LAYERS: [(&str, &str); 8] = [
    ("workloads", "layer.workloads_ms"),
    ("hypervisor", "layer.hypervisor_ms"),
    ("transfer", "layer.transfer_ms"),
    ("dataplane", "layer.dataplane_ms"),
    ("period", "layer.period_ms"),
    ("failover", "layer.failover_ms"),
    ("telemetry", "layer.telemetry_ms"),
    ("migrate", "layer.migrate_ms"),
];

/// One epoch of the replayed run, taken from the untraced report.
#[derive(Debug, Clone)]
struct EpochPlan {
    seq: u64,
    paused_at: SimTime,
    end: SimTime,
    events: Vec<StageEvent>,
    record: Option<CheckpointRecord>,
    acks: Vec<(u32, SimTime)>,
}

fn plan_epochs(report: &RunReport) -> Vec<EpochPlan> {
    let mut by_seq: BTreeMap<u64, Vec<StageEvent>> = BTreeMap::new();
    for e in &report.stage_events {
        by_seq.entry(e.seq).or_default().push(*e);
    }
    let mut acks: HashMap<u64, Vec<(u32, SimTime)>> = HashMap::new();
    for trail in &report.replica_acks {
        for c in &trail.acks {
            acks.entry(c.seq).or_default().push((trail.replica, c.at));
        }
    }
    by_seq
        .into_iter()
        .map(|(seq, events)| {
            let paused_at = events
                .iter()
                .find(|e| e.stage == Stage::Pause)
                .map_or(SimTime::ZERO, |e| e.at);
            let end = events
                .iter()
                .map(|e| e.at + e.duration)
                .max()
                .unwrap_or(paused_at);
            let mut epoch_acks = acks.remove(&seq).unwrap_or_default();
            epoch_acks.sort_by_key(|&(replica, at)| (at, replica));
            EpochPlan {
                seq,
                paused_at,
                end,
                record: report.checkpoints.iter().find(|c| c.seq == seq).copied(),
                events,
                acks: epoch_acks,
            }
        })
        .collect()
}

/// Counts gathered while replaying (identical on every replay of a seed
/// unless noted).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Guest page writes logged by the dirty tracker.
    pub writes: u64,
    /// Dirty pages the snapshots returned.
    pub dirty_pages: u64,
    /// Pages the continuous-phase harvests collected.
    pub harvested_pages: u64,
    /// Pages every harvest collected, seeding included.
    pub collected_pages: u64,
    /// Pages handed to the encoder.
    pub encoded_pages: u64,
    /// Page-record bytes the encoder produced.
    pub encode_bytes: u64,
    /// Pages installed on replicas by the apply path, summed over replicas.
    pub applied_pages: u64,
    /// Segments a replica refused to decode or install.
    pub apply_errors: u64,
    /// Pages the seeding migration moved.
    pub migrated_pages: u64,
    /// Epochs the ledger committed.
    pub commits: u64,
    /// Telemetry hook and span-recorder calls.
    pub telemetry_events: u64,
    /// Epochs replayed.
    pub epochs: u64,
    /// Encode-buffer pool checkouts served from the pool / allocated.
    pub pool_hits: u64,
    /// See `pool_hits`.
    pub pool_misses: u64,
    /// Work-stealing steals over the whole replay.
    pub steals: u64,
    /// Lane busy time over lane-round capacity, summed over pool rounds
    /// (host nanoseconds; varies run to run).
    pub lane_busy: u64,
    /// See `lane_busy`.
    pub lane_capacity: u64,
}

/// What one replay measured.
#[derive(Debug)]
pub struct Replay {
    /// Wall time from stack creation to the last epoch.
    pub wall_nanos: u64,
    /// The recorded spans (empty with tracing off).
    pub spans: Vec<Span>,
    /// Counts, see [`Counts`].
    pub counts: Counts,
    /// Every replica's memory equals the primary's at the end.
    pub replicas_match: bool,
    /// No per-epoch consistency check failed.
    pub epochs_consistent: bool,
}

impl Replay {
    /// Every replica decoded every segment and equalled the primary after
    /// each epoch and at the end.
    pub fn consistent(&self) -> bool {
        self.replicas_match && self.epochs_consistent && self.counts.apply_errors == 0
    }
}

struct Member {
    host: Box<dyn Hypervisor>,
    vm: VmId,
    version: u16,
    shadow: EpochShadow,
    backlog: MemoryDelta,
}

struct Driver {
    tracer: Tracer,
    cfg: ReplicationConfig,
    threads: u32,
    lanes: u32,
    primary: Box<dyn Hypervisor>,
    pvm: VmId,
    members: Vec<Member>,
    translator: StateTranslator,
    pools: CheckpointPools,
    workload: Box<dyn Workload>,
    idle: IdleGuest,
    started: bool,
    rng: SimRng,
    clock: SimTime,
    workload_base: SimTime,
    debt: SimDuration,
    telemetry: SessionTelemetry,
    recorder: SpanRecorder,
    stage_trace: StageTrace,
    epoch_span: Option<SpanId>,
    lane_walls: Vec<u64>,
    ledger: CommitLedger,
    period: PeriodManager,
    pool_rounds: u64,
    counts: Counts,
    consistent: bool,
}

/// Replays `report`'s run of `kind` at `seed`, recording spans when
/// `trace` is set.
pub fn replay(kind: Kind, seed: u64, report: &RunReport, trace: bool) -> Replay {
    let epochs = plan_epochs(report);
    let (memory_mib, workload) = kind.guest();
    let cfg = kind.config();
    let start = Instant::now();
    let mut tracer = Tracer::new(trace);
    let create = tracer.open("create", Some("hypervisor"), 0);
    let mut driver = Driver::new(tracer, cfg, kind.name(), memory_mib, workload, seed);
    driver.tracer.close(create);
    driver.seed_replicas();
    let replication_start = driver.clock;
    driver.started = true;
    driver.workload_base = replication_start;
    for epoch in &epochs {
        driver.epoch(epoch, replication_start);
    }
    let wall_nanos = start.elapsed().as_nanos() as u64;
    driver.finish(wall_nanos)
}

impl Driver {
    fn new(
        tracer: Tracer,
        cfg: ReplicationConfig,
        name: &str,
        memory_mib: u64,
        workload: Box<dyn Workload>,
        seed: u64,
    ) -> Driver {
        // HERE's replica families: KVM for the canonical secondary and
        // every even index, Xen in between.
        let replicas = cfg.topology.replicas.max(1);
        let mut primary: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(HOST_MEMORY));
        let hosts: Vec<Box<dyn Hypervisor>> = (0..replicas)
            .map(|i| -> Box<dyn Hypervisor> {
                if i % 2 == 0 {
                    Box::new(KvmHypervisor::new(HOST_MEMORY))
                } else {
                    Box::new(XenHypervisor::new(HOST_MEMORY))
                }
            })
            .collect();
        let mut cpuid = primary.default_cpuid();
        for host in &hosts {
            cpuid = reconcile(&cpuid, &host.default_cpuid()).cpuid;
        }
        let vm_cfg = VmConfig::new(name, ByteSize::from_mib(memory_mib), VCPUS)
            .expect("benchmark VM config is valid")
            .with_cpuid(cpuid);
        let pvm = primary.create_vm(vm_cfg.clone()).expect("primary VM");
        let members = hosts
            .into_iter()
            .enumerate()
            .map(|(i, mut host)| {
                let vm = host.create_shell(vm_cfg.clone()).expect("replica shell");
                Member {
                    host,
                    vm,
                    version: cfg.negotiated_wire_version(i),
                    shadow: EpochShadow::default(),
                    backlog: MemoryDelta::new(),
                }
            })
            .collect();
        primary
            .vm_mut(pvm)
            .expect("primary VM")
            .dirty_mut()
            .enable_logging();
        let threads = cfg.effective_threads(VCPUS);
        Driver {
            tracer,
            threads,
            lanes: cfg.effective_encode_lanes(threads),
            primary,
            pvm,
            members,
            translator: StateTranslator::new(HypervisorKind::Xen, HypervisorKind::Kvm)
                .expect("Xen to KVM translator"),
            pools: CheckpointPools::new(),
            workload,
            idle: IdleGuest::new(),
            started: false,
            rng: SimRng::seed_from(seed).fork("workload"),
            clock: SimTime::ZERO,
            workload_base: SimTime::ZERO,
            debt: SimDuration::ZERO,
            telemetry: SessionTelemetry::new(cfg.period),
            recorder: SpanRecorder::new(),
            stage_trace: StageTrace::new(),
            epoch_span: None,
            lane_walls: Vec::new(),
            ledger: CommitLedger::with_quorum(replicas, cfg.topology.effective_quorum()),
            period: PeriodManager::new(cfg.period),
            pool_rounds: 0,
            counts: Counts::default(),
            consistent: true,
            cfg,
        }
    }

    fn open(&mut self, name: &'static str, layer: &'static str, epoch: u64) -> Open {
        self.tracer.open(name, Some(layer), epoch)
    }

    fn close(&mut self, open: Open) {
        self.tracer.close(open);
    }

    /// Runs the guest for `dt`, sliced and debited exactly as the session
    /// does, so the random stream and the dirty set match.
    fn advance(&mut self, dt: SimDuration, epoch: u64) {
        let end = self.clock + dt;
        while self.clock < end {
            let slice = (end - self.clock).clamp(SimDuration::ZERO, MAX_SLICE);
            let lost = self.debt.clamp(SimDuration::ZERO, slice);
            self.debt -= lost;
            let effective = slice - lost;
            if !effective.is_zero() {
                let span = self.open("advance", "workloads", epoch);
                let vm = self.primary.vm_mut(self.pvm).expect("primary VM");
                if self.started {
                    let now =
                        SimTime::ZERO + self.clock.saturating_duration_since(self.workload_base);
                    self.workload.advance(now, effective, vm, &mut self.rng);
                } else {
                    self.idle.advance(self.clock, effective, vm, &mut self.rng);
                }
                self.close(span);
            }
            self.clock += slice;
        }
    }

    fn snapshot(&mut self, epoch: u64) -> here_hypervisor::dirty::DirtyBitmap {
        let span = self.open("snapshot", "hypervisor", epoch);
        let snapshot = self.primary.snapshot_dirty(self.pvm).expect("primary VM");
        self.close(span);
        self.counts.dirty_pages += snapshot.count();
        snapshot
    }

    fn install_all(&mut self, delta: &MemoryDelta, epoch: u64) {
        let span = self.open("install", "migrate", epoch);
        for member in &mut self.members {
            let memory = member
                .host
                .vm_mut(member.vm)
                .expect("replica VM")
                .memory_mut();
            for &(page, rec) in delta.entries() {
                memory.install_page(page, rec).expect("in-range page");
            }
        }
        self.close(span);
    }

    /// The seeding migration: full copy, pre-copy rounds, stop-and-copy.
    fn seed_replicas(&mut self) {
        let root = self.tracer.open("seed", None, 0);
        let costs = self.cfg.costs;
        self.advance(HereStrategy.migration_setup(&costs), 0);

        let span = self.open("full_copy", "migrate", 0);
        let full: MemoryDelta = {
            let memory = self.primary.vm(self.pvm).expect("primary VM").memory();
            memory.touched_iter().collect()
        };
        self.close(span);
        let total_pages = self
            .primary
            .vm(self.pvm)
            .expect("primary VM")
            .memory()
            .num_pages();
        self.advance(costs.migration_round(total_pages, self.threads), 0);
        self.install_all(&full, 0);
        self.counts.migrated_pages += total_pages;
        self.note_iteration(0, total_pages, "full_copy");

        let mut tracker = ProblematicTracker::new();
        let mut iter = 1u32;
        loop {
            let snapshot = self.snapshot(0);
            let dirty = snapshot.count();
            let span = self.open("harvest", "transfer", 0);
            let mut delta = {
                let vm = self.primary.vm(self.pvm).expect("primary VM");
                collect_chunked(vm.memory(), &snapshot, self.threads)
            };
            self.close(span);
            self.counts.collected_pages += delta.len() as u64;
            if dirty <= self.cfg.migration_dirty_threshold
                || iter >= self.cfg.max_migration_iterations
            {
                self.primary
                    .vm_mut(self.pvm)
                    .expect("primary VM")
                    .pause()
                    .expect("pause");
                let span = self.open("resend", "migrate", 0);
                let memory = self.primary.vm(self.pvm).expect("primary VM").memory();
                let mut resend = MemoryDelta::new();
                for page in tracker.resend_list() {
                    resend.push(page, memory.page(page).expect("in-range page"));
                }
                delta.merge(resend);
                self.close(span);
                let applied: Vec<u32> = (0..self.members.len() as u32).collect();
                self.ship(&delta, 0, &applied, false);
                self.counts.migrated_pages += delta.len() as u64;
                let downtime = costs.migration_round(delta.len() as u64, self.threads)
                    + costs.checkpoint_const;
                self.clock += downtime;
                self.primary
                    .vm_mut(self.pvm)
                    .expect("primary VM")
                    .resume()
                    .expect("resume");
                self.note_iteration(u64::from(iter), delta.len() as u64, "stop_and_copy");
                break;
            }
            HereStrategy.track_problematic(&mut tracker, &delta);
            self.advance(costs.migration_round(dirty, self.threads), 0);
            self.install_all(&delta, 0);
            self.counts.migrated_pages += dirty;
            self.note_iteration(u64::from(iter), dirty, "pre_copy");
            iter += 1;
        }
        self.tracer.close(root);
    }

    fn note_iteration(&mut self, iteration: u64, pages: u64, phase: &'static str) {
        let span = self.open("record", "telemetry", 0);
        let at = self.clock.as_nanos();
        self.telemetry
            .on_migration_iteration(iteration, pages, phase, at);
        self.recorder.push(
            SpanDraft::new(phase, "migration", Track::Primary, at)
                .attr_u64("iteration", iteration)
                .attr_u64("pages", pages),
        );
        self.counts.telemetry_events += 2;
        self.close(span);
    }

    /// Encodes `delta` (pages, vCPU state, trailer) once and installs it
    /// on every replica in `applied`; the rest park it as backlog unless
    /// the epoch `aborted`. Epochs (not the seeding stop-and-copy) then
    /// verify each applied replica against the primary, and the stream's
    /// buffers go back to the pool.
    fn ship(&mut self, delta: &MemoryDelta, seq: u64, applied: &[u32], aborted: bool) {
        let version = self.members[0].version;
        debug_assert!(self.members.iter().all(|m| m.version == version));
        let v3 = version >= VERSION_V3;
        let mode = if v3 {
            PayloadMode::Columnar {
                base_epoch: self.pools.shadow.epoch(),
            }
        } else {
            PayloadMode::Metadata
        };
        let lanes = if delta.len() < PARALLEL_ENCODE_MIN_PAGES {
            1
        } else {
            self.lanes
        };
        let plan = EncodePlan {
            lanes,
            mode,
            chunk_pages: self.cfg.encode_chunk_pages,
            window: self.cfg.overlap_channel_depth,
        };

        let span = self.open("encode", "dataplane", seq);
        let mut head =
            StreamEncoder::with_buffer_versioned(self.pools.buffers.checkout(64), version);
        head.push(&Record::CheckpointBegin { seq });
        let head = head.finish();
        let mut pages: Vec<Bytes> = Vec::new();
        let (walls, _) = encode_pages_round(
            delta,
            &plan,
            &mut self.pools.buffers,
            &self.pools.lanes,
            |_, segment| pages.push(segment),
        );
        self.close(span);
        self.counts.encoded_pages += delta.len() as u64;
        self.counts.encode_bytes += pages.iter().map(|s| s.len() as u64).sum::<u64>();
        self.lane_walls = walls;
        let totals = self.pools.lanes.totals();
        if totals.rounds > self.pool_rounds {
            self.pool_rounds = totals.rounds;
            let last = self.pools.lanes.last_round();
            self.counts.lane_busy += last.per_lane.iter().map(|l| l.busy_nanos).sum::<u64>();
            self.counts.lane_capacity += last.round_wall_nanos * last.per_lane.len() as u64;
        }

        let span = self.open("translate", "dataplane", seq);
        let blobs: Vec<VcpuStateBlob> = (0..VCPUS)
            .map(|i| {
                self.primary
                    .get_vcpu_state(self.pvm, VcpuId::new(i))
                    .expect("primary vCPU")
            })
            .collect();
        let cirs = translate_vcpus_parallel(&blobs, Some(&self.translator), self.lanes)
            .expect("Xen vCPU state translates");
        self.close(span);

        let span = self.open("encode", "dataplane", seq);
        let mut tail = self.pools.buffers.checkout(256);
        for (index, cir) in cirs.iter().enumerate() {
            encode_record_into(
                &Record::VcpuState {
                    index: index as u32,
                    cir: cir.clone(),
                },
                &mut tail,
            );
        }
        for dev in self.primary.vm(self.pvm).expect("primary VM").devices() {
            encode_record_into(&Record::Device(dev.identity.clone()), &mut tail);
        }
        encode_record_into(
            &Record::CheckpointEnd {
                seq,
                pages_total: delta.len() as u64,
            },
            &mut tail,
        );
        let tail = tail.freeze();
        self.close(span);

        for index in 0..self.members.len() {
            if applied.contains(&(index as u32)) {
                self.apply(index, &pages, &cirs, seq);
            } else if !aborted {
                let span = self.open("backlog", "dataplane", seq);
                self.members[index].backlog.merge(delta.clone());
                self.close(span);
            }
        }

        // Every benchmark scenario verifies consistency after each
        // epoch's transfer (not after the seeding stop-and-copy).
        if seq > 0 {
            let span = self.open("verify", "hypervisor", seq);
            let primary = self.primary.vm(self.pvm).expect("primary VM").memory();
            for &index in applied {
                let member = &self.members[index as usize];
                let replica = member.host.vm(member.vm).expect("replica VM").memory();
                self.consistent &= primary.content_equals(replica);
            }
            self.close(span);
        }

        let span = self.open("recycle", "dataplane", seq);
        self.pools.buffers.recycle(head);
        for segment in pages {
            self.pools.buffers.recycle(segment);
        }
        self.pools.buffers.recycle(tail);
        self.close(span);
    }

    /// One replica's apply: backlog catch-up first, then every page
    /// segment through the incremental restorer, then vCPU state.
    fn apply(&mut self, index: usize, pages: &[Bytes], cirs: &[CpuStateCir], seq: u64) {
        let span = self.open("apply", "dataplane", seq);
        let base = self.pools.shadow.epoch();
        let member = &mut self.members[index];
        let backlog = std::mem::take(&mut member.backlog);
        if !backlog.is_empty() && member.version >= VERSION_V3 {
            member.shadow.rebase(&backlog, base);
        }
        let kind = member.host.kind();
        let vm = member.host.vm_mut(member.vm).expect("replica VM");
        for &(page, rec) in backlog.entries() {
            vm.memory_mut()
                .install_page(page, rec)
                .expect("in-range page");
        }
        let mut restorer = SegmentRestorer::new_versioned(vm.memory_mut(), false, member.version);
        for segment in pages {
            if restorer.accept(segment).is_err() {
                self.counts.apply_errors += 1;
            }
        }
        self.counts.applied_pages += restorer.installed() + backlog.len() as u64;
        for (i, cir) in cirs.iter().enumerate() {
            let blob = match kind {
                HypervisorKind::Xen => {
                    VcpuStateBlob::Xen(XenVcpuState::from_arch(&cir.regs, cir.online))
                }
                HypervisorKind::Kvm => {
                    VcpuStateBlob::Kvm(KvmVcpuState::from_arch(&cir.regs, cir.online))
                }
            };
            member
                .host
                .set_vcpu_state(member.vm, VcpuId::new(i as u32), blob)
                .expect("native vCPU state loads");
        }
        self.close(span);
    }

    /// Feeds one stage event to the telemetry bundle, the span recorder
    /// and the stage trace, as the session's stage recorder does.
    fn record_stage(&mut self, event: &StageEvent) {
        let span = self.open("record", "telemetry", event.seq);
        self.telemetry.on_stage_event(event);
        let start = event.at.as_nanos();
        if event.stage == Stage::Pause {
            self.epoch_span = Some(
                self.recorder
                    .open(SpanDraft::new("epoch", "epoch", Track::Primary, start).epoch(event.seq)),
            );
        }
        let mut draft = SpanDraft::new(event.stage.label(), "stage", Track::Primary, start)
            .lasting(event.duration.as_nanos())
            .epoch(event.seq)
            .attr_u64("pages", event.pages)
            .attr_u64("bytes", event.bytes);
        if let Some(parent) = self.epoch_span {
            draft = draft.child_of(parent);
        }
        let stage_span = self.recorder.push(draft);
        self.counts.telemetry_events += 3;
        match event.stage {
            Stage::Translate => {
                for (lane, wall) in std::mem::take(&mut self.lane_walls).into_iter().enumerate() {
                    self.telemetry
                        .on_encode_lane(event.seq, lane as u64, wall, start);
                    self.recorder.push(
                        SpanDraft::new(
                            "encode_lane",
                            "lane",
                            Track::PrimaryLane(lane as u32),
                            start,
                        )
                        .lasting(event.duration.as_nanos())
                        .epoch(event.seq)
                        .child_of(stage_span)
                        .attr_u64("lane", lane as u64),
                    );
                    self.counts.telemetry_events += 2;
                }
            }
            Stage::Transfer => {
                for index in 0..self.members.len() as u32 {
                    self.recorder.push(
                        SpanDraft::new("decode_restore", "wire", Track::Replica(index), start)
                            .lasting(event.duration.as_nanos())
                            .epoch(event.seq),
                    );
                    self.counts.telemetry_events += 1;
                }
            }
            Stage::Resume => {
                if let Some(root) = self.epoch_span.take() {
                    self.recorder.close(root, start);
                }
            }
            _ => {}
        }
        self.stage_trace.record(*event);
        self.close(span);
    }

    fn events_of(plan: &EpochPlan, stage: Stage) -> Option<StageEvent> {
        plan.events.iter().find(|e| e.stage == stage).copied()
    }

    /// One epoch: run the guest up to the pause, then the checkpoint.
    fn epoch(&mut self, plan: &EpochPlan, base: SimTime) {
        let seq = plan.seq;
        let root = self.tracer.open("epoch", None, seq);
        let paused_at = base + plan.paused_at.saturating_duration_since(SimTime::ZERO);
        self.advance(paused_at.saturating_duration_since(self.clock), seq);
        self.counts.epochs += 1;

        self.primary
            .vm_mut(self.pvm)
            .expect("primary VM")
            .pause()
            .expect("pause");
        if let Some(e) = Self::events_of(plan, Stage::Pause) {
            self.record_stage(&e);
        }
        let snapshot = self.snapshot(seq);
        let span = self.open("harvest", "transfer", seq);
        let mut delta = std::mem::take(&mut self.pools.delta);
        {
            let vm = self.primary.vm(self.pvm).expect("primary VM");
            collect_chunked_into(
                vm.memory(),
                &snapshot,
                self.threads,
                &mut self.pools.collect,
                &mut delta,
            );
        }
        self.close(span);
        self.counts.harvested_pages += delta.len() as u64;
        self.counts.collected_pages += delta.len() as u64;
        if let Some(e) = Self::events_of(plan, Stage::Harvest) {
            self.record_stage(&e);
        }

        let committed = plan.record.is_some();
        let applied: Vec<u32> = plan.acks.iter().map(|&(replica, _)| replica).collect();
        self.ship(&delta, seq, &applied, !committed);
        for stage in [Stage::Translate, Stage::Transfer] {
            if let Some(e) = Self::events_of(plan, stage) {
                self.record_stage(&e);
            }
        }

        if let Some(record) = plan.record {
            let span = self.open("ack", "failover", seq);
            for &(replica, at) in &plan.acks {
                if self.ledger.ack(replica, seq, at) {
                    self.counts.commits += 1;
                }
            }
            self.close(span);
            if self.members[0].version >= VERSION_V3 {
                let span = self.open("shadow_commit", "dataplane", seq);
                self.pools.shadow.commit(&delta, seq);
                for &replica in &applied {
                    self.members[replica as usize].shadow.commit(&delta, seq);
                }
                self.close(span);
            }
            if let Some(e) = Self::events_of(plan, Stage::Ack) {
                self.record_stage(&e);
            }
            self.resume();
            if let Some(e) = Self::events_of(plan, Stage::Resume) {
                self.record_stage(&e);
            }
            let span = self.open("decide", "period", seq);
            let mut decision = self.period.on_checkpoint(record.pause);
            decision.dirty_pages = record.dirty_pages;
            self.close(span);
            let span = self.open("record", "telemetry", seq);
            let at = record.paused_at.as_nanos();
            self.telemetry.on_checkpoint(&record, &decision, at);
            self.telemetry.on_pool_stats(
                self.pools.buffers.hits(),
                self.pools.buffers.misses(),
                self.pools.buffers.pooled() as u64,
                at,
            );
            self.counts.telemetry_events += 2;
            self.close(span);
        } else {
            // The transfer missed its quorum: the harvested pages go back
            // into the dirty bitmap and ride the next epoch.
            let span = self.open("redirty", "hypervisor", seq);
            let vm = self.primary.vm_mut(self.pvm).expect("primary VM");
            for &(page, _) in delta.entries() {
                vm.dirty_mut().bitmap_mut().mark(page);
            }
            self.close(span);
            self.resume();
            let span = self.open("record", "telemetry", seq);
            if let Some(root) = self.epoch_span.take() {
                self.recorder.close(root, plan.end.as_nanos());
            }
            self.telemetry
                .on_epoch_abort(seq, self.cfg.retry.max_attempts, plan.end.as_nanos());
            self.counts.telemetry_events += 2;
            self.close(span);
        }
        self.pools.delta = delta;
        self.clock = base + plan.end.saturating_duration_since(SimTime::ZERO);
        self.tracer.close(root);
    }

    fn resume(&mut self) {
        self.primary
            .vm_mut(self.pvm)
            .expect("primary VM")
            .resume()
            .expect("resume");
        self.debt += self.cfg.costs.pause_disturbance;
    }

    fn finish(mut self, wall_nanos: u64) -> Replay {
        let vm = self.primary.vm(self.pvm).expect("primary VM");
        self.counts.writes = (0..vm.dirty().vcpu_count())
            .filter_map(|i| vm.dirty().ring(i))
            .map(|r| r.total_logged())
            .sum();
        let primary = vm.memory();
        let replicas_match = self.members.iter().all(|m| {
            let replica = m.host.vm(m.vm).expect("replica VM");
            primary.content_equals(replica.memory())
                && vm
                    .vcpus()
                    .iter()
                    .zip(replica.vcpus())
                    .all(|(p, r)| p.regs.digest() == r.regs.digest())
        });
        self.counts.pool_hits = self.pools.buffers.hits();
        self.counts.pool_misses = self.pools.buffers.misses();
        self.counts.steals = self.pools.lanes.totals().steals;
        Replay {
            wall_nanos,
            spans: self.tracer.into_spans(),
            counts: self.counts,
            replicas_match,
            epochs_consistent: self.consistent,
        }
    }
}
