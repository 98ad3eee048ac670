//! The live replication session: shared mutable state, its lifecycle FSM,
//! and the data-plane primitives the pipeline stages call.
//!
//! A [`Session`] owns the primary host, the protected VM and its
//! [`ReplicaSet`], the links, the workload, and all run accounting. It
//! moves through
//! [`SessionPhase`]s — created → seeding → replicating →
//! (failed-over) → completed — and every transition is asserted, so the
//! seeding code cannot run twice and nothing checkpoints before the seed.
//!
//! The phase *drivers* live elsewhere: [`crate::migrate`] runs the seeding
//! migration, [`crate::checkpoint`] runs the continuous phase through the
//! staged pipeline of [`crate::pipeline`].

use here_hypervisor::arch::Gpr;
use here_hypervisor::fault::HostHealth;
use here_hypervisor::host::Hypervisor;
use here_hypervisor::kind::HypervisorKind;
use here_hypervisor::memory::PageVersion;
use here_hypervisor::vcpu::{KvmVcpuState, VcpuStateBlob, XenVcpuState};
use here_hypervisor::vm::{VmConfig, VmId};
use here_hypervisor::{PageId, VcpuId, XenHypervisor, PAGE_SIZE};
use here_sim_core::metrics::{Histogram, TimeSeries};
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};
use here_simnet::link::Link;
use here_telemetry::health::HealthObservation;
use here_telemetry::span::{SpanDraft, SpanId, SpanRecorder, Track};
use here_vmstate::translate::StateTranslator;
use here_vmstate::wire::{
    encode_record_into, Record, ScatterStream, StreamDecoder, StreamEncoder, VERSION, VERSION_V3,
};
use here_vmstate::{reconcile, MemoryDelta};
use here_workloads::idle::IdleGuest;
use here_workloads::traits::Workload;

use crate::chaos::{ChaosState, FaultPlan, TransferFault};
use crate::config::ReplicationConfig;
use crate::dataplane::{
    encode_pages_round, install_staged, stage_page_record, translate_vcpus_parallel,
    CheckpointPools, EncodePlan, PayloadMode,
};
use crate::devmgr::DeviceManager;
use crate::error::{CoreError, CoreResult};
use crate::failover::{detection_time_with_loss, CommitLedger, FailoverRecord};
use crate::period::{PeriodDecision, PeriodManager};
use crate::pipeline::ReplicationStrategy;
use crate::postmortem::{IncidentSnapshot, SERIES_TAIL_LINES};
use crate::report::CheckpointRecord;
use crate::telemetry::SessionTelemetry;
use crate::topology::{make_replica_hosts, Replica, ReplicaSet};
use crate::trace::{Stage, StageEvent, StageTrace};

/// Host memory given to each simulated server (the testbed's 192 GB).
pub(crate) const HOST_MEMORY: ByteSize = ByteSize::from_gib(192);

/// Fixed client-side stack overhead added to every packet's latency.
pub(crate) const CLIENT_STACK_OVERHEAD: SimDuration = SimDuration::from_micros(38);

/// Largest workload advance slice; bounds phase-change and emission
/// timestamp granularity.
pub(crate) const MAX_SLICE: SimDuration = SimDuration::from_millis(250);

/// Where a replication session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionPhase {
    /// Hosts and VMs exist; nothing has been copied.
    Created,
    /// The seeding migration is in flight.
    Seeding,
    /// Continuous checkpointing protects the VM.
    Replicating,
    /// The primary died; service continues on the activated replica.
    FailedOver,
    /// The run is over; the report has been (or is being) assembled.
    Completed,
}

impl SessionPhase {
    /// Legal lifecycle edges.
    fn may_enter(self, next: SessionPhase) -> bool {
        use SessionPhase::*;
        matches!(
            (self, next),
            (Created, Seeding)
                | (Seeding, Replicating)
                | (Replicating, FailedOver)
                | (Replicating, Completed)
                | (FailedOver, Completed)
        )
    }
}

/// Everything needed to construct a [`Session`], bundled so the builder
/// hand-off stays readable.
pub(crate) struct SessionSetup {
    pub(crate) name: String,
    pub(crate) memory: ByteSize,
    pub(crate) vcpus: u32,
    pub(crate) cfg: ReplicationConfig,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) seed: u64,
    pub(crate) load_during_seed: bool,
    pub(crate) verify_consistency: bool,
    pub(crate) chaos: Option<FaultPlan>,
}

/// One epoch's encoded checkpoint, in every wire version the replica set
/// negotiated. A homogeneous set carries exactly one stream; a mixed
/// v2/v3 set carries both, encoded from the same delta, and each replica
/// decodes the stream matching its negotiated version.
#[derive(Debug, Default)]
pub(crate) struct EpochStreams {
    /// Legacy v2 stream (present when any replica negotiated v2).
    pub(crate) v2: Option<ScatterStream>,
    /// Columnar epoch-delta v3 stream (present when any replica
    /// negotiated v3).
    pub(crate) v3: Option<ScatterStream>,
    /// Bytes of the v3 stream's page records (meta + payload columns,
    /// framing included) — the wire-cost model's page-equivalent input.
    pub(crate) v3_page_bytes: u64,
}

impl EpochStreams {
    /// The stream a replica that negotiated `version` decodes.
    pub(crate) fn for_version(&self, version: u16) -> &ScatterStream {
        let stream = if version >= VERSION_V3 {
            self.v3.as_ref().or(self.v2.as_ref())
        } else {
            self.v2.as_ref()
        };
        stream.expect("epoch encoded no stream for a negotiated version")
    }

    /// The stream whose size the stage trace reports: the newest format
    /// on the wire this epoch.
    pub(crate) fn canonical(&self) -> &ScatterStream {
        self.v3
            .as_ref()
            .or(self.v2.as_ref())
            .expect("epoch encoded no stream")
    }

    /// Consumes the bundle, yielding every encoded stream.
    pub(crate) fn into_streams(self) -> impl Iterator<Item = ScatterStream> {
        [self.v2, self.v3].into_iter().flatten()
    }
}

/// Everything mutable during a replicated run.
pub(crate) struct Session {
    pub(crate) name: String,
    pub(crate) phase: SessionPhase,
    pub(crate) clock: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) primary: Box<dyn Hypervisor>,
    /// The N-replica topology; replica 0 is the canonical secondary.
    pub(crate) replicas: ReplicaSet,
    pub(crate) pvm: VmId,
    /// Encode-side translator (primary native → common format); each
    /// replica carries its own failover translator.
    pub(crate) translator: Option<StateTranslator>,
    pub(crate) cfg: ReplicationConfig,
    pub(crate) strategy: &'static dyn ReplicationStrategy,
    pub(crate) threads: u32,
    pub(crate) period: PeriodManager,
    pub(crate) devmgr: DeviceManager,
    pub(crate) client_link: Link,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) idle_filler: IdleGuest,
    pub(crate) workload_started: bool,
    pub(crate) load_during_seed: bool,
    pub(crate) workload_now_base: SimTime,
    pub(crate) measure_base: SimTime,
    pub(crate) buffering: bool,
    pub(crate) verify_consistency: bool,
    pub(crate) consistency_checks: u64,
    pub(crate) pools: CheckpointPools,
    /// The fault-injection plane; `None` keeps every hook a fast no-op.
    pub(crate) chaos: Option<ChaosState>,
    // accounting
    pub(crate) seq: u64,
    /// Fully-acked epochs; failover activation reads its tail.
    pub(crate) ledger: CommitLedger,
    pub(crate) ops_committed: f64,
    pub(crate) ops_uncommitted: f64,
    pub(crate) disturbance_debt: SimDuration,
    pub(crate) cpu_work: SimDuration,
    pub(crate) max_ckpt_pages: u64,
    pub(crate) checkpoints: Vec<CheckpointRecord>,
    pub(crate) trace: StageTrace,
    pub(crate) spans: SpanRecorder,
    /// Open epoch-root span, from `Pause` until `Resume` closes it.
    pub(crate) epoch_span: Option<SpanId>,
    /// Wall nanoseconds per encode lane from the most recent
    /// [`Session::encode_checkpoint`], drained into lane spans when the
    /// Translate stage is recorded.
    pub(crate) pending_lane_walls: Vec<u64>,
    /// Wire time the most recent Transfer hid under the encode window
    /// (encode/transfer overlap), drained into a `wire_overlap` child
    /// span when the Transfer stage is recorded. Zero when the overlap
    /// knob is off, so the default span tree is untouched.
    pub(crate) pending_overlap_credit: SimDuration,
    /// Lane-pool rounds already reported to telemetry, so each
    /// checkpoint emits at most one `encode_pool` flight event.
    pub(crate) pool_rounds_seen: u64,
    pub(crate) period_decisions: Vec<PeriodDecision>,
    pub(crate) period_series: TimeSeries,
    pub(crate) degradation_series: TimeSeries,
    pub(crate) latencies: Histogram,
    pub(crate) telemetry: SessionTelemetry,
    /// The first armed postmortem capture, if any fired; drained into
    /// [`RunReport::incident`](crate::report::RunReport::incident).
    pub(crate) incident: Option<IncidentSnapshot>,
}

impl Session {
    /// Builds the full replicated stack: a Xen primary, the configured
    /// [`ReplicaSet`] (replica 0 is the strategy's canonical secondary,
    /// with translators for heterogeneous members), the protected VM
    /// booted with the CPUID contract reconciled across *every* host
    /// (§5.3), and one never-run replica shell per replica.
    pub(crate) fn new(setup: SessionSetup) -> CoreResult<Session> {
        let SessionSetup {
            name,
            memory,
            vcpus,
            cfg,
            workload,
            seed,
            load_during_seed,
            verify_consistency,
            chaos,
        } = setup;
        let strategy = crate::pipeline::runtime(cfg.strategy);

        // Hosts: HERE pairs Xen with KVM/kvmtool; Remus pairs Xen with Xen.
        // Beyond replica 0 the topology alternates families (HERE) or
        // stays homogeneous (Remus).
        let mut primary: Box<dyn Hypervisor> = Box::new(XenHypervisor::new(HOST_MEMORY));
        let hosts = make_replica_hosts(strategy, HOST_MEMORY, cfg.topology.replicas.max(1))?;
        // The encode side always translates to the common format keyed by
        // the canonical secondary; each replica re-encodes natively.
        let translator = hosts[0].1;

        // Platform reconciliation (§5.3): the VM boots with the
        // intersection of *every* host's CPUID policy, so it can resume
        // anywhere in the set.
        let mut cpuid = primary.default_cpuid();
        for (host, _) in &hosts {
            cpuid = reconcile(&cpuid, &host.default_cpuid()).cpuid;
        }
        let vm_cfg = VmConfig::new(name.clone(), memory, vcpus)
            .map_err(CoreError::Hypervisor)?
            .with_cpuid(cpuid);
        let pvm = primary.create_vm(vm_cfg.clone())?;
        let mut members = Vec::with_capacity(hosts.len());
        for (index, (mut host, failover_translator)) in hosts.into_iter().enumerate() {
            let vm = host.create_shell(vm_cfg.clone())?;
            let mut member = Replica::new(index as u32, host, vm, failover_translator);
            // Per-session version negotiation: each replica speaks
            // min(session offer, its capability). The default offer is v2,
            // so existing sessions negotiate exactly the legacy format.
            member.wire_version = cfg.negotiated_wire_version(index);
            members.push(member);
        }
        let replicas = ReplicaSet::from_replicas(members);
        primary.vm_mut(pvm)?.dirty_mut().enable_logging();

        let threads = cfg.effective_threads(vcpus);
        let period = PeriodManager::new(cfg.period);
        Ok(Session {
            name,
            phase: SessionPhase::Created,
            clock: SimTime::ZERO,
            rng: SimRng::seed_from(seed).fork("workload"),
            primary,
            replicas,
            pvm,
            translator,
            threads,
            period,
            devmgr: DeviceManager::new(),
            client_link: Link::ethernet_10g(),
            workload,
            idle_filler: IdleGuest::new(),
            workload_started: false,
            load_during_seed,
            workload_now_base: SimTime::ZERO,
            measure_base: SimTime::ZERO,
            buffering: false,
            verify_consistency,
            consistency_checks: 0,
            pools: CheckpointPools::new(),
            chaos: chaos.map(ChaosState::new),
            seq: 0,
            ledger: CommitLedger::with_quorum(
                cfg.topology.replicas.max(1),
                cfg.topology.effective_quorum(),
            ),
            ops_committed: 0.0,
            ops_uncommitted: 0.0,
            disturbance_debt: SimDuration::ZERO,
            cpu_work: SimDuration::ZERO,
            max_ckpt_pages: 0,
            checkpoints: Vec::new(),
            trace: StageTrace::new(),
            spans: SpanRecorder::new(),
            epoch_span: None,
            pending_lane_walls: Vec::new(),
            pending_overlap_credit: SimDuration::ZERO,
            pool_rounds_seen: 0,
            period_decisions: Vec::new(),
            period_series: TimeSeries::new("period_secs"),
            degradation_series: TimeSeries::new("degradation_pct"),
            latencies: Histogram::new(),
            telemetry: {
                let telemetry = if cfg.health_plane {
                    SessionTelemetry::with_health_plane(
                        cfg.period,
                        cfg.topology.replicas.max(1),
                        cfg.topology.effective_quorum(),
                        cfg.topology.stale_epoch_lag,
                    )
                } else {
                    SessionTelemetry::new(cfg.period)
                };
                match cfg.flight_recorder_capacity {
                    Some(capacity) => telemetry.with_flight_capacity(capacity),
                    None => telemetry,
                }
            },
            incident: None,
            cfg,
            strategy,
        })
    }

    /// Moves the session to `next`, asserting the edge is legal.
    pub(crate) fn enter_phase(&mut self, next: SessionPhase) {
        assert!(
            self.phase.may_enter(next),
            "invalid session transition {:?} -> {:?}",
            self.phase,
            next
        );
        self.phase = next;
    }

    /// Converts an absolute instant to report time (relative to the
    /// measurement start).
    pub(crate) fn rel(&self, t: SimTime) -> SimTime {
        SimTime::ZERO + t.saturating_duration_since(self.measure_base)
    }

    /// Stashes the wire time the upcoming Transfer record hid under the
    /// encode window; drained into a `wire_overlap` child span by
    /// [`Session::record_stage`].
    pub(crate) fn note_overlap_credit(&mut self, credit: SimDuration) {
        self.pending_overlap_credit = credit;
    }

    /// Appends one stage event at absolute instant `at`. `wall` carries
    /// the host nanoseconds the stage's real work took, where the stage
    /// does real work (see [`StageEvent::wall_nanos`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_stage(
        &mut self,
        seq: u64,
        stage: Stage,
        at: SimTime,
        duration: SimDuration,
        wall: Option<u64>,
        pages: u64,
        bytes: u64,
    ) {
        let at = self.rel(at);
        let event = StageEvent {
            seq,
            stage,
            at,
            duration,
            wall_nanos: wall,
            pages,
            bytes,
        };
        self.telemetry.on_stage_event(&event);
        self.record_stage_span(&event);
        self.trace.record(event);
    }

    /// Emits the span-tree view of one stage event: the `Pause` stage
    /// opens the epoch root, each stage becomes a child span, `Translate`
    /// drains the stashed per-lane encode walls into lane child spans,
    /// `Transfer` adds the replica-side apply span (linked across the
    /// simulated wire by epoch id, not by parent), and `Resume` closes
    /// the root.
    fn record_stage_span(&mut self, event: &StageEvent) {
        let start = event.at.as_nanos();
        let end = start + event.duration.as_nanos();
        if event.stage == Stage::Pause {
            let root = self.spans.open(
                SpanDraft::new("epoch", "epoch", Track::Primary, start)
                    .epoch(event.seq)
                    .attr_u64("seq", event.seq),
            );
            self.epoch_span = Some(root);
        }
        let mut draft = SpanDraft::new(event.stage.label(), "stage", Track::Primary, start)
            .lasting(event.duration.as_nanos())
            .epoch(event.seq)
            .attr_u64("pages", event.pages)
            .attr_u64("bytes", event.bytes);
        if let Some(parent) = self.epoch_span {
            draft = draft.child_of(parent);
        }
        if let Some(wall) = event.wall_nanos {
            draft = draft.wall(wall);
        }
        let stage_span = self.spans.push(draft);
        match event.stage {
            Stage::Translate => {
                // Each lane worked inside the Translate window; its share
                // of virtual time is the stage interval, its measured time
                // the stashed wall probe.
                let walls = std::mem::take(&mut self.pending_lane_walls);
                for (lane, wall) in walls.into_iter().enumerate() {
                    self.spans.push(
                        SpanDraft::new(
                            "encode_lane",
                            "lane",
                            Track::PrimaryLane(lane as u32),
                            start,
                        )
                        .lasting(event.duration.as_nanos())
                        .epoch(event.seq)
                        .child_of(stage_span)
                        .wall(wall)
                        .attr_u64("lane", lane as u64),
                    );
                }
            }
            Stage::Transfer => {
                // Wire time hidden under the encode window by the
                // streamed overlap channel: recorded as a child of the
                // (shortened) Transfer stage so the span tree shows what
                // the pause no longer pays. Only emitted when the
                // overlap knob produced a credit — the default tree (and
                // its fingerprint) is unchanged.
                let credit = std::mem::take(&mut self.pending_overlap_credit);
                if credit > SimDuration::ZERO {
                    self.spans.push(
                        SpanDraft::new("wire_overlap", "overlap", Track::Primary, start)
                            .lasting(credit.as_nanos())
                            .epoch(event.seq)
                            .child_of(stage_span),
                    );
                }
                // Each replica decodes and installs its copy of the stream
                // inside the Transfer window, on its own host and track:
                // linked by epoch id, not by parent.
                for index in 0..self.replicas.len() as u32 {
                    let mut replica =
                        SpanDraft::new("decode_restore", "wire", Track::Replica(index), start)
                            .lasting(event.duration.as_nanos())
                            .epoch(event.seq)
                            .attr_u64("pages", event.pages)
                            .attr_u64("bytes", event.bytes);
                    if index > 0 {
                        replica = replica.attr_u64("replica", u64::from(index));
                    }
                    if let Some(wall) = event.wall_nanos {
                        replica = replica.wall(wall);
                    }
                    self.spans.push(replica);
                }
            }
            Stage::Resume => {
                if let Some(root) = self.epoch_span.take() {
                    self.spans.close(root, end);
                }
            }
            _ => {}
        }
    }

    /// Advances the protected VM (and virtual time) by `dt`, slicing for
    /// emission timestamps and phase changes. Returns early if the
    /// workload completes and `stop_done` is set.
    ///
    /// # Errors
    ///
    /// A hypervisor error if the primary VM is gone while there is guest
    /// time to run.
    pub(crate) fn advance(&mut self, dt: SimDuration, stop_done: bool) -> CoreResult<()> {
        let end = self.clock + dt;
        while self.clock < end {
            let slice = (end - self.clock).clamp(SimDuration::ZERO, MAX_SLICE);
            // Apply pending guest-side disturbance: the workload loses this
            // much effective CPU time after each pause (§8.6).
            let lost = self.disturbance_debt.clamp(SimDuration::ZERO, slice);
            self.disturbance_debt -= lost;
            let effective = slice - lost;
            let slice_start = self.clock;
            let in_seed = !self.workload_started;
            let progress = if effective.is_zero() {
                here_workloads::traits::Progress::default()
            } else {
                let vm = self.primary.vm_mut(self.pvm)?;
                if in_seed && !self.load_during_seed {
                    // The benchmark has not started yet; an idle guest
                    // supplies the background dirtying the seed copies.
                    self.idle_filler
                        .advance(slice_start, effective, vm, &mut self.rng)
                } else {
                    let wnow = SimTime::ZERO
                        + slice_start.saturating_duration_since(self.workload_now_base);
                    self.workload.advance(wnow, effective, vm, &mut self.rng)
                }
            };
            self.ops_uncommitted += progress.ops;
            for emission in progress.emissions {
                let at = slice_start + emission.offset;
                if self.buffering {
                    self.devmgr.buffer_outgoing(emission.size, at);
                } else {
                    let latency =
                        self.client_link.transfer_time(emission.size) * 2 + CLIENT_STACK_OVERHEAD;
                    self.latencies.observe(latency.as_secs_f64());
                }
            }
            self.clock += slice;
            self.tick_vcpus(slice);
            if stop_done && self.workload.is_done() {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Advances guest CPU state so checkpoints carry evolving registers.
    fn tick_vcpus(&mut self, dt: SimDuration) {
        let Ok(vm) = self.primary.vm_mut(self.pvm) else {
            return;
        };
        let cycles = dt.as_nanos().saturating_mul(21) / 10; // 2.1 GHz
        let ops_bits = self.ops_uncommitted as u64;
        for vcpu in vm.vcpus_mut() {
            vcpu.regs.tsc = vcpu.regs.tsc.wrapping_add(cycles);
            vcpu.regs.rip = 0xffff_ffff_8100_0000 + (vcpu.regs.tsc % 0x1_0000);
            vcpu.regs.set_gpr(Gpr::Rax, ops_bits);
        }
    }

    /// Snapshot-and-clear the primary's dirty bitmap, returning the
    /// snapshot; the harvest also drains the PML rings so they do not grow
    /// without bound. Delegates to the hypervisor's harvest primitive.
    ///
    /// # Errors
    ///
    /// A hypervisor error if the primary VM is gone.
    pub(crate) fn take_dirty_snapshot(
        &mut self,
    ) -> CoreResult<here_hypervisor::dirty::DirtyBitmap> {
        Ok(self.primary.snapshot_dirty(self.pvm)?)
    }

    /// Encodes a checkpoint stream: the delta, every vCPU's state
    /// (translated to the common format for heterogeneous pairs), and the
    /// device identities. This is the *send side* of the data plane — real
    /// bytes are produced and checksummed.
    ///
    /// The delta goes through one [`encode_pages_round`] built from the
    /// config: pool lanes frame its page records into pooled buffers, and
    /// the frozen segments are spliced scatter-gather style into the returned
    /// [`ScatterStream`] — no concatenation, no re-sort. vCPU translation
    /// fans out across the same lanes. Buffers come back to the pool via
    /// [`Session::recycle_stream`] once the transfer lands.
    pub(crate) fn encode_checkpoint(
        &mut self,
        delta: &MemoryDelta,
        seq: u64,
    ) -> CoreResult<EpochStreams> {
        let need_v3 = self.wire_v3_active();
        let need_v2 = self.replicas.iter().any(|r| r.wire_version() < VERSION_V3);
        let mut streams = EpochStreams::default();
        if need_v3 {
            // The v3 stream is canonical when present: its encode drives
            // the lane telemetry and span walls.
            let (stream, page_bytes) =
                self.encode_checkpoint_stream(delta, seq, VERSION_V3, true)?;
            streams.v3 = Some(stream);
            streams.v3_page_bytes = page_bytes;
        }
        if need_v2 {
            let (stream, _) = self.encode_checkpoint_stream(delta, seq, VERSION, !need_v3)?;
            streams.v2 = Some(stream);
        }
        Ok(streams)
    }

    /// True when any replica negotiated wire v3 this session — the gate
    /// for every delta-base shadow bookkeeping path, so an all-v2 session
    /// does no extra work.
    pub(crate) fn wire_v3_active(&self) -> bool {
        self.replicas.iter().any(|r| r.wire_version() >= VERSION_V3)
    }

    /// Encodes one epoch stream in `version`. Returns the stream and the
    /// byte count of its page records (the lanes' output, excluding the
    /// head/tail segments). `canonical` gates lane telemetry so a mixed
    /// set's double-encode reports each lane exactly once.
    fn encode_checkpoint_stream(
        &mut self,
        delta: &MemoryDelta,
        seq: u64,
        version: u16,
        canonical: bool,
    ) -> CoreResult<(ScatterStream, u64)> {
        let lanes = self.cfg.effective_encode_lanes(self.threads);
        let mode = if version >= VERSION_V3 {
            // Delta records name the committed epoch both sides hold: the
            // primary's shadow advances only at quorum commit, so an
            // aborted epoch re-encodes against the same base.
            PayloadMode::Columnar {
                base_epoch: self.pools.shadow.epoch(),
            }
        } else {
            PayloadMode::Metadata
        };

        // Head segment: preamble + begin record.
        let mut head =
            StreamEncoder::with_buffer_versioned(self.pools.buffers.checkout(64), version);
        head.push(&Record::CheckpointBegin { seq });
        let mut stream = ScatterStream::from(head.finish());

        // Page lanes, encoded concurrently into pooled buffers. Chunk
        // framing and the streamed window are opt-in: with both knobs off
        // this is the legacy shard path, byte-identical to prior releases.
        let at_nanos = self.rel(self.clock).as_nanos();
        let plan = EncodePlan {
            lanes,
            mode,
            chunk_pages: self.cfg.encode_chunk_pages,
            window: self.cfg.overlap_channel_depth,
        };
        let mut page_bytes = 0u64;
        let (lane_walls, _stats) = encode_pages_round(
            delta,
            &plan,
            &mut self.pools.buffers,
            &self.pools.lanes,
            |_, segment| {
                page_bytes += segment.len() as u64;
                stream.push(segment)
            },
        );
        if canonical {
            for (lane, &wall) in lane_walls.iter().enumerate() {
                self.telemetry
                    .on_encode_lane(seq, lane as u64, wall, at_nanos);
            }
            self.pending_lane_walls = lane_walls;
        }

        // Tail segment: vCPU state (capture serial, translate parallel),
        // device identities, and the cross-check trailer.
        let vcpu_count = self.primary.vm(self.pvm)?.vcpus().len() as u32;
        let mut blobs = Vec::with_capacity(vcpu_count as usize);
        for i in 0..vcpu_count {
            blobs.push(self.primary.get_vcpu_state(self.pvm, VcpuId::new(i))?);
        }
        let cirs = translate_vcpus_parallel(&blobs, self.translator.as_ref(), lanes)?;
        let mut tail = self.pools.buffers.checkout(256);
        for (index, cir) in cirs.into_iter().enumerate() {
            encode_record_into(
                &Record::VcpuState {
                    index: index as u32,
                    cir,
                },
                &mut tail,
            );
        }
        for dev in self.primary.vm(self.pvm)?.devices() {
            encode_record_into(&Record::Device(dev.identity.clone()), &mut tail);
        }
        encode_record_into(
            &Record::CheckpointEnd {
                seq,
                pages_total: delta.len() as u64,
            },
            &mut tail,
        );
        stream.push(tail.freeze());
        Ok((stream, page_bytes))
    }

    /// Decodes a checkpoint stream and installs it on one replica — the
    /// *receive side*: pages land in that replica's memory, vCPU state is
    /// re-encoded in its host's native format, and the page count is
    /// cross-checked against the stream trailer.
    ///
    /// The apply is **two-phase**: the whole stream is decoded and
    /// validated into the replica's own staging buffer first (frame
    /// checksums, trailer cross-check, trailer presence), and only then
    /// installed. A torn, truncated or corrupted stream therefore can
    /// never leave a partial epoch on the replica — the previous committed
    /// epoch stays authoritative, which is the invariant the epoch-abort
    /// path and failover activation rely on.
    ///
    /// A successful apply first drains the replica's catch-up backlog
    /// (pages it missed while its link misbehaved), then installs the
    /// staged epoch, so the newest version always wins on overlap.
    pub(crate) fn apply_checkpoint(
        &mut self,
        stream: ScatterStream,
        seq: u64,
        replica: u32,
    ) -> CoreResult<()> {
        // Phase 1: decode + validate, touching nothing of the replica.
        let member = self.replicas.get_mut(replica);
        let mut staged = std::mem::take(&mut member.pools.apply);
        staged.clear();
        let mut vcpus: Vec<(u32, VcpuStateBlob)> = Vec::new();
        let validated = Self::decode_checkpoint(stream, member, seq, &mut staged, &mut vcpus);
        let rebase_to = match validated {
            Ok(rebase_to) => rebase_to,
            Err(e) => {
                staged.clear();
                self.replicas.get_mut(replica).pools.apply = staged;
                return Err(e);
            }
        };

        // Phase 2: install the fully validated epoch — backlog first, so
        // the staged (newer) versions win on overlap.
        let member = self.replicas.get_mut(replica);
        let backlog = std::mem::take(&mut member.backlog);
        if let Some(base) = rebase_to {
            // Backlog catch-up under v3: the parked pages *are* the
            // committed epochs this replica missed, so folding them into
            // the shadow reconstructs the stream's delta base exactly.
            member.pools.shadow.rebase(&backlog, base);
        }
        let memory = member.host.vm_mut(member.vm)?.memory_mut();
        install_staged(memory, backlog.entries())?;
        install_staged(memory, &staged)?;
        for (index, blob) in vcpus {
            member
                .host
                .set_vcpu_state(member.vm, VcpuId::new(index), blob)?;
        }
        staged.clear();
        member.pools.apply = staged;
        Ok(())
    }

    /// Phase 1 of [`Session::apply_checkpoint`]: decodes `stream` into the
    /// staging buffers, validating every frame and the trailer cross-check,
    /// without touching `member`'s memory.
    ///
    /// The decoder is pinned to the replica's negotiated version — a
    /// stream in any other version is a protocol violation
    /// ([`WireError::StaleVersion`](here_vmstate::WireError::StaleVersion)).
    /// Columnar records must name the replica's shadow epoch as their
    /// delta base; a newer base is accepted only when the replica holds
    /// the missed epochs as parked backlog, and the accepted base comes
    /// back as `Ok(Some(base))` so the caller can fold the backlog into
    /// its shadow before installing.
    fn decode_checkpoint(
        stream: ScatterStream,
        member: &Replica,
        seq: u64,
        staged: &mut Vec<(PageId, PageVersion)>,
        vcpus: &mut Vec<(u32, VcpuStateBlob)>,
    ) -> CoreResult<Option<u64>> {
        let delta_base = member.pools.shadow.epoch();
        let may_rebase = !member.backlog.is_empty();
        let memory = member.host.vm(member.vm)?.memory();
        let mut dec = StreamDecoder::new_negotiated(stream, member.wire_version)?;
        let mut pages_seen = 0u64;
        let mut saw_trailer = false;
        let mut rebase_to: Option<u64> = None;
        while let Some(record) = dec.next_record()? {
            if let Record::PageColumns(batch) = &record {
                let base = rebase_to.unwrap_or(delta_base);
                if batch.base_epoch() != base {
                    if may_rebase && rebase_to.is_none() && batch.base_epoch() > delta_base {
                        rebase_to = Some(batch.base_epoch());
                    } else {
                        batch.check_base(base)?;
                    }
                }
            }
            pages_seen += stage_page_record(&record, memory, false, staged)?;
            match record {
                Record::VcpuState { index, cir } => {
                    let blob = match member.kind() {
                        HypervisorKind::Xen => {
                            VcpuStateBlob::Xen(XenVcpuState::from_arch(&cir.regs, cir.online))
                        }
                        HypervisorKind::Kvm => {
                            VcpuStateBlob::Kvm(KvmVcpuState::from_arch(&cir.regs, cir.online))
                        }
                    };
                    vcpus.push((index, blob));
                }
                Record::CheckpointEnd { pages_total, .. } => {
                    if pages_total != pages_seen {
                        return Err(CoreError::InvalidScenario(format!(
                            "checkpoint {seq}: {pages_seen} pages received, header says {pages_total}"
                        )));
                    }
                    saw_trailer = true;
                }
                // Page records were staged above. Device identities are
                // checked on failover, where the device manager builds the
                // replica's own device set.
                _ => {}
            }
        }
        if !saw_trailer {
            // A stream that ends cleanly on a record boundary but without
            // its trailer is torn — reject it like any truncated frame.
            return Err(CoreError::Wire(here_vmstate::WireError::Truncated));
        }
        Ok(rebase_to)
    }

    /// Ships a delta plus vCPU/device state through the wire codec and
    /// installs it on **every** replica (encode once + apply per replica —
    /// the seeding migration's stop-and-copy uses this; the continuous
    /// phase splits it across the Translate and Transfer stages).
    pub(crate) fn ship_checkpoint(&mut self, delta: &MemoryDelta, seq: u64) -> CoreResult<()> {
        let streams = self.encode_checkpoint(delta, seq)?;
        for replica in 0..self.replicas.len() as u32 {
            let version = self.replicas.get(replica).wire_version();
            self.apply_checkpoint(streams.for_version(version).clone(), seq, replica)?;
        }
        self.recycle_streams(streams);
        Ok(())
    }

    /// Returns a consumed stream's segment allocations to the buffer pool.
    /// Call after the receive side has decoded its clone: the refcount on
    /// each segment is back to one, so `try_into_mut` reclaims the full
    /// allocations for the next checkpoint's encode lanes.
    pub(crate) fn recycle_stream(&mut self, stream: ScatterStream) {
        for segment in stream.into_segments() {
            self.pools.buffers.recycle(segment);
        }
    }

    /// Recycles every stream of an epoch's [`EpochStreams`] bundle.
    pub(crate) fn recycle_streams(&mut self, streams: EpochStreams) {
        for stream in streams.into_streams() {
            self.recycle_stream(stream);
        }
    }

    /// Runs the commit side effects once the ledger declared epoch `seq`
    /// committed (a quorum of replicas fully applied it): releases
    /// buffered output at the commit instant and records client
    /// latencies. The ledger entry itself is appended by
    /// [`CommitLedger::ack`] as the quorum-th ack lands.
    pub(crate) fn on_epoch_committed(&mut self, _seq: u64) {
        for released in self.devmgr.on_commit(self.clock) {
            let latency = released.buffering_delay()
                + self.client_link.transfer_time(released.packet.size) * 2
                + CLIENT_STACK_OVERHEAD;
            self.latencies.observe(latency.as_secs_f64());
        }
        self.ops_committed += self.ops_uncommitted;
        self.ops_uncommitted = 0.0;
        self.telemetry.on_packet_stats(
            self.devmgr.packets_buffered(),
            self.devmgr.packets_released(),
            self.devmgr.packets_discarded(),
        );
    }

    /// Queues the pages of epoch `seq`'s delta as catch-up backlog for a
    /// replica whose transfer failed this epoch: they are installed
    /// (oldest first, newest version winning) on its next successful
    /// apply, so a slow replica converges asynchronously instead of
    /// blocking the quorum.
    pub(crate) fn note_replica_backlog(&mut self, replica: u32, delta: &MemoryDelta) {
        self.replicas.get_mut(replica).backlog.merge(delta.clone());
    }

    /// Re-evaluates every replica's staleness after epoch `seq`'s acks
    /// landed: a replica trailing the newest acked epoch by more than the
    /// configured lag bound is declared stale (once, on the flight
    /// recorder); it is cleared when it catches back up. Single-replica
    /// topologies have no lag by construction and skip the scan.
    pub(crate) fn update_staleness(&mut self, seq: u64) {
        if self.replicas.len() < 2 {
            return;
        }
        let bound = self.cfg.topology.stale_epoch_lag;
        let at_nanos = self.rel(self.clock).as_nanos();
        for index in 0..self.replicas.len() as u32 {
            let lag = self.ledger.lag_of(index, seq);
            let member = self.replicas.get_mut(index);
            if lag > bound {
                if !member.stale {
                    member.stale = true;
                    self.telemetry.on_replica_stale(index, lag, at_nanos);
                }
            } else {
                member.stale = false;
            }
        }
    }

    /// One committed epoch's health-plane tick (no-op unless the config
    /// armed [`ReplicationConfig::health_plane`]): gathers each replica's
    /// ack mark, lag and backlog depth from the ledger and replica set,
    /// hands them to the telemetry bundle's series/health/alert pipeline,
    /// and lays a zero-width controller span for every alert edge so
    /// alerts land in the Chrome trace next to the epochs that caused
    /// them.
    pub(crate) fn health_tick(&mut self, record: &CheckpointRecord, at_nanos: u64) {
        if !self.cfg.health_plane {
            return;
        }
        let seq = record.seq;
        let replica_count = self.replicas.len() as u32;
        let mut observations = Vec::with_capacity(replica_count as usize);
        for index in 0..replica_count {
            observations.push(HealthObservation {
                replica: index,
                ack_mark: self.ledger.last_acked(index).unwrap_or(0),
                lag_epochs: self.ledger.lag_of(index, seq),
                backlog_pages: self.replicas.get(index).backlog_pages(),
                retries: 0, // filled in by the telemetry bundle's accounting
            });
        }
        let events = self.telemetry.on_health_tick(
            seq,
            at_nanos,
            record.degradation,
            record.period.as_nanos(),
            record.pause.as_nanos(),
            &observations,
        );
        let firing = events
            .iter()
            .find(|e| e.state.label() == "firing")
            .map(|e| (e.rule, e.detail.clone()));
        for event in events {
            self.spans.push(
                SpanDraft::new(event.rule, "alert", Track::Controller, at_nanos)
                    .epoch(seq)
                    .attr_str("state", event.state.label())
                    .attr_str("severity", event.severity.label()),
            );
        }
        if let Some((rule, detail)) = firing {
            self.capture_incident("alert", seq, at_nanos, format!("{rule}: {detail}"));
        }
    }

    /// Freezes the postmortem [`IncidentSnapshot`] if capture is armed and
    /// no earlier trigger beat this one: the trailing flight-recorder
    /// window, the ledger and per-replica ack trails, the trigger epoch's
    /// span subtree, health transitions and the windowed-series tail — all
    /// read-only, so arming capture never perturbs the run.
    pub(crate) fn capture_incident(
        &mut self,
        trigger: &'static str,
        epoch: u64,
        at_nanos: u64,
        detail: String,
    ) {
        if !self.cfg.postmortem_capture || self.incident.is_some() {
            return;
        }
        let snap = self.telemetry.snapshot();
        let (transitions, series_tail, active_alerts, alert_log_jsonl) = match snap.health {
            Some(h) => {
                let tail_start = h
                    .series_jsonl
                    .lines()
                    .count()
                    .saturating_sub(SERIES_TAIL_LINES);
                let tail = h
                    .series_jsonl
                    .lines()
                    .skip(tail_start)
                    .map(|l| format!("{l}\n"))
                    .collect::<String>();
                let transitions = h
                    .transitions
                    .iter()
                    .map(|t| {
                        format!(
                            "r{}:{}->{}@{}",
                            t.replica,
                            t.from.label(),
                            t.to.label(),
                            t.epoch
                        )
                    })
                    .collect();
                (transitions, tail, h.active_alerts, h.alert_log_jsonl)
            }
            None => (Vec::new(), String::new(), Vec::new(), String::new()),
        };
        let spans = self
            .spans
            .spans()
            .iter()
            .filter(|s| s.epoch == Some(epoch) || s.category == "failover")
            .map(|s| {
                format!(
                    "{}|{}|{}:{}|{}|{}|{}",
                    s.name,
                    s.category,
                    s.track.pid(),
                    s.track.tid(),
                    s.epoch.map(|e| e.to_string()).unwrap_or_default(),
                    s.start_nanos,
                    s.duration_nanos
                )
            })
            .collect();
        self.incident = Some(IncidentSnapshot {
            trigger: trigger.to_string(),
            epoch,
            at_nanos,
            detail,
            flight_json: crate::postmortem::normalize_flight_dump(&snap.flight_recorder_json),
            commits: self.ledger.entries().to_vec(),
            acks: self
                .ledger
                .ack_trails()
                .iter()
                .enumerate()
                .map(|(i, acks)| crate::failover::ReplicaAcks {
                    replica: i as u32,
                    acks: acks.clone(),
                })
                .collect(),
            spans,
            transitions,
            series_tail,
            active_alerts,
            alert_log_jsonl,
        });
    }

    /// Mutable access to the activated replica's host hypervisor (valid
    /// only after failover latched one).
    pub(crate) fn active_replica_host_mut(&mut self) -> &mut dyn Hypervisor {
        self.replicas.active_mut().host.as_mut()
    }

    /// Verifies that replica `replica` is an exact copy of the paused
    /// primary: every page version identical, every vCPU architecturally
    /// equal.
    pub(crate) fn assert_replica_matches_primary(&self, seq: u64, replica: u32) -> CoreResult<()> {
        let primary = self.primary.vm(self.pvm)?;
        let member = self.replicas.get(replica);
        let rvm = member.host.vm(member.vm)?;
        if !primary.memory().content_equals(rvm.memory()) {
            let diff = primary.memory().diff(rvm.memory(), 4);
            return Err(CoreError::InvalidScenario(format!(
                "checkpoint {seq}: replica {replica} memory diverged at frames {diff:?}"
            )));
        }
        for (p, r) in primary.vcpus().iter().zip(rvm.vcpus()) {
            if p.regs.digest() != r.regs.digest() {
                return Err(CoreError::InvalidScenario(format!(
                    "checkpoint {seq}: replica {replica} vCPU {} state diverged",
                    p.id.index()
                )));
            }
        }
        Ok(())
    }

    /// Reads the current content of `pages` from the primary as a delta.
    pub(crate) fn pages_to_delta(&self, pages: &[PageId]) -> CoreResult<MemoryDelta> {
        let vm = self.primary.vm(self.pvm)?;
        let mut delta = MemoryDelta::new();
        for &p in pages {
            delta.push(p, vm.memory().page(p)?);
        }
        Ok(delta)
    }

    /// Installs a pre-copy round's delta directly into every replica's
    /// memory.
    pub(crate) fn install_delta(&mut self, delta: &MemoryDelta, _iter: u32) -> CoreResult<()> {
        for member in self.replicas.iter_mut() {
            install_staged(member.host.vm_mut(member.vm)?.memory_mut(), delta.entries())?;
        }
        Ok(())
    }

    /// Checks the fault plane for a primary-host fault scheduled at the
    /// entry of `stage` of epoch `seq`; if one fires, the primary goes
    /// down and the epoch loop receives
    /// [`CoreError::InjectedPrimaryFault`] to turn into a failover.
    pub(crate) fn chaos_primary_fault(&mut self, seq: u64, stage: Stage) -> CoreResult<()> {
        let Some(chaos) = self.chaos.as_mut() else {
            return Ok(());
        };
        let Some(outcome) = chaos.primary_fault(seq, stage) else {
            return Ok(());
        };
        self.primary.inject_dos(outcome);
        Err(CoreError::InjectedPrimaryFault {
            seq,
            stage,
            outcome,
        })
    }

    /// Asks the fault plane what happens to transfer attempt `attempt` of
    /// epoch `seq` toward replica `replica`, recording any injected fault
    /// on the flight recorder.
    pub(crate) fn chaos_transfer_fault(
        &mut self,
        seq: u64,
        replica: u32,
        attempt: u32,
    ) -> Option<TransferFault> {
        let fault = self.chaos.as_mut()?.transfer_fault(seq, replica, attempt)?;
        let at_nanos = self.rel(self.clock).as_nanos();
        let message = if replica == 0 {
            format!("checkpoint {seq} transfer attempt {attempt}")
        } else {
            format!("checkpoint {seq} transfer attempt {attempt} replica {replica}")
        };
        self.telemetry
            .on_fault(fault.reason(), false, message, at_nanos);
        Some(fault)
    }

    /// Records one failed-and-retried transfer attempt: counters, a
    /// flight-recorder retry event, and a zero-width controller span.
    pub(crate) fn note_transfer_retry(
        &mut self,
        seq: u64,
        replica: u32,
        attempt: u32,
        reason: &'static str,
        backoff: SimDuration,
    ) {
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.stats.transfer_retries += 1;
        }
        let at_nanos = self.rel(self.clock).as_nanos();
        self.telemetry.on_transfer_retry(
            seq,
            replica,
            attempt,
            reason,
            backoff.as_nanos(),
            at_nanos,
        );
        self.spans.push(
            SpanDraft::new("transfer_retry", "fault", Track::Controller, at_nanos)
                .epoch(seq)
                .attr_u64("attempt", attempt as u64)
                .attr_str("reason", reason),
        );
    }

    /// Records a transfer that succeeded after `failed_attempts` failures.
    pub(crate) fn note_transfer_recovery(&mut self, seq: u64, failed_attempts: u32) {
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.stats.transfer_recoveries += 1;
        }
        self.telemetry.on_transfer_recovery(seq, failed_attempts);
    }

    /// Aborts epoch `seq` after its transfer exhausted the retry budget:
    /// the partially transferred checkpoint is already discarded, so this
    /// re-marks the harvested pages dirty (they must ride the next epoch —
    /// without this the replica would diverge forever), resumes the VM,
    /// closes the epoch span, and records the abort. Nothing commits: the
    /// buffered output and uncommitted ops carry over to the next
    /// successful epoch, and the previous committed epoch stays
    /// authoritative on the replica.
    pub(crate) fn abort_epoch(&mut self, seq: u64, attempts: u32) -> CoreResult<()> {
        {
            // The harvested delta is still pooled (it is recycled, not
            // cleared, after Translate): every page it names was wiped
            // from the primary's dirty bitmap at Harvest but never reached
            // the replica.
            let vm = self.primary.vm_mut(self.pvm)?;
            for &(page, _) in self.pools.delta.entries() {
                vm.dirty_mut().bitmap_mut().mark(page);
            }
        }
        self.primary.vm_mut(self.pvm)?.resume()?;
        self.disturbance_debt += self.cfg.costs.pause_disturbance;
        let at_nanos = self.rel(self.clock).as_nanos();
        if let Some(root) = self.epoch_span.take() {
            self.spans.close(root, at_nanos);
        }
        self.spans.push(
            SpanDraft::new("epoch_abort", "fault", Track::Controller, at_nanos)
                .epoch(seq)
                .attr_u64("attempts", attempts as u64),
        );
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.stats.epochs_aborted += 1;
        }
        self.telemetry.on_epoch_abort(seq, attempts, at_nanos);
        self.capture_incident(
            "epoch_abort",
            seq,
            at_nanos,
            format!("epoch {seq} aborted after {attempts} transfer attempts"),
        );
        Ok(())
    }

    /// Handles a primary-host failure: detect, discard, pick the replica
    /// with the most recent committed state, switch devices, activate.
    pub(crate) fn failover(&mut self, failed_at: SimTime) -> CoreResult<FailoverRecord> {
        self.enter_phase(SessionPhase::FailedOver);
        // A failure mid-epoch leaves the epoch root span open; close it at
        // the failure instant — the epoch never completed.
        if let Some(root) = self.epoch_span.take() {
            self.spans.close(root, self.rel(failed_at).as_nanos());
        }
        let post_health = self.primary.health();
        debug_assert_ne!(post_health, HostHealth::Healthy);
        let lost_heartbeats = self
            .chaos
            .as_ref()
            .map_or(0, |c| c.heartbeat_loss_periods());
        let detected_at =
            detection_time_with_loss(&self.cfg.heartbeat, failed_at, post_health, lost_heartbeats);
        self.clock = detected_at;

        // Everything since the last commit is rolled back.
        let ops_lost = self.ops_uncommitted;
        self.ops_uncommitted = 0.0;

        // Activate the replica holding the freshest *committed* state —
        // the ledger tracks per-replica acks, so a stale or partitioned
        // replica can never win over one that kept up. The set's
        // activation latch asserts at most one replica ever activates.
        let best = self.ledger.best_replica();
        self.replicas.activate(best);
        let (switch, activation, family_kind) = {
            let member = self.replicas.active_mut();
            let translator = member.translator;
            let vm = member.host.vm_mut(member.vm)?;
            let switch = self.devmgr.switch_devices(vm, translator.as_ref());
            let activation = member.host.activation_latency()
                + self.cfg.costs.device_switch
                + self.cfg.costs.state_load;
            (switch, activation, member.host.kind())
        };
        self.clock += activation;
        {
            let member = self.replicas.active_mut();
            member.host.vm_mut(member.vm)?.activate()?;
        }
        let record = FailoverRecord {
            failed_at: self.rel(failed_at),
            detected_at: self.rel(detected_at),
            resumed_at: self.rel(self.clock),
            // Activation provably uses the last *fully-acked* epoch: the
            // ledger is appended only at Ack, so an in-flight or aborted
            // epoch (whose seq is already bumped) can never appear here.
            resumed_from_checkpoint: self.ledger.last_committed().unwrap_or(0),
            activated_replica: best,
            packets_lost: switch.packets_discarded,
            ops_lost,
            devices_switched: switch.devices_switched,
        };
        self.telemetry.on_failover(&record);
        let family = match family_kind {
            HypervisorKind::Xen => "xen",
            HypervisorKind::Kvm => "kvm",
        };
        self.telemetry.on_device_switch(
            switch.devices_switched,
            switch.packets_discarded,
            family,
            record.detected_at.as_nanos(),
        );
        self.record_failover_spans(&record, switch.devices_switched, family);
        self.telemetry.on_packet_stats(
            self.devmgr.packets_buffered(),
            self.devmgr.packets_released(),
            self.devmgr.packets_discarded(),
        );
        self.capture_incident(
            "failover",
            self.seq,
            record.resumed_at.as_nanos(),
            format!(
                "primary failed; replica {best} activated from checkpoint {}",
                record.resumed_from_checkpoint
            ),
        );
        Ok(record)
    }

    /// Emits the failover span tree on the controller track: a root span
    /// covering fail → resume, with `detect` and `switch_and_activate`
    /// children splitting the outage at the detection instant.
    fn record_failover_spans(
        &mut self,
        record: &FailoverRecord,
        devices_switched: usize,
        family: &'static str,
    ) {
        let failed = record.failed_at.as_nanos();
        let detected = record.detected_at.as_nanos();
        let resumed = record.resumed_at.as_nanos();
        let root = self.spans.push(
            SpanDraft::new("failover", "failover", Track::Controller, failed)
                .lasting(resumed.saturating_sub(failed))
                .attr_u64("resumed_from_checkpoint", record.resumed_from_checkpoint)
                .attr_u64("packets_lost", record.packets_lost as u64)
                .attr_f64("ops_lost", record.ops_lost),
        );
        self.spans.push(
            SpanDraft::new("detect", "failover", Track::Controller, failed)
                .lasting(detected.saturating_sub(failed))
                .child_of(root),
        );
        self.spans.push(
            SpanDraft::new(
                "switch_and_activate",
                "failover",
                Track::Controller,
                detected,
            )
            .lasting(resumed.saturating_sub(detected))
            .child_of(root)
            .attr_u64("devices_switched", devices_switched as u64)
            .attr_str("new_family", family),
        );
    }

    /// Closes the session and assembles the final [`RunReport`]
    /// (throughput, resource accounting, and the collected stage trace).
    pub(crate) fn finish(
        mut self,
        migration: crate::report::MigrationOutcome,
        failover: Option<FailoverRecord>,
        replication_start: SimTime,
    ) -> crate::report::RunReport {
        self.enter_phase(SessionPhase::Completed);
        let elapsed = self.clock.saturating_duration_since(replication_start);
        let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        let bitmap_bytes = self
            .primary
            .vm(self.pvm)
            .map(|vm| vm.memory().num_pages() / 8)
            .unwrap_or(0);
        // The staging buffer holds full page payloads for the round in
        // flight, windowed at 256 MiB (the engine recycles chunk buffers).
        let staging_pages = self.max_ckpt_pages.min(65_536);
        let rss = ByteSize::from_mib(self.cfg.costs.rss_base_mib)
            + ByteSize::from_bytes(staging_pages * PAGE_SIZE)
            + ByteSize::from_bytes(bitmap_bytes)
            + self.devmgr.io().high_watermark();
        let cpu_core_pct = self.cpu_work.as_secs_f64() / secs * 100.0;
        let ops_completed = self.ops_committed + self.ops_uncommitted;
        // An armed run that reached the end without any trigger still
        // captures — an explicit end-of-run "request" snapshot — so the
        // bundle workflow works on healthy runs too.
        if self.incident.is_none() {
            let at_nanos = self.rel(self.clock).as_nanos();
            self.capture_incident(
                "request",
                self.seq,
                at_nanos,
                "explicit end-of-run capture (no trigger fired)".to_string(),
            );
        }
        let incident = self.incident.take();
        let wire_versions = self.replicas.iter().map(Replica::wire_version).collect();
        let (commits, replica_acks) = self.ledger.into_parts();
        crate::report::RunReport {
            name: self.name,
            elapsed,
            ops_completed,
            throughput_ops_per_sec: ops_completed / secs,
            migration: Some(migration),
            checkpoints: self.checkpoints,
            stage_events: self.trace.into_events(),
            period_decisions: self.period_decisions,
            period_series: self.period_series,
            degradation_series: self.degradation_series,
            packet_latencies: self.latencies,
            failover,
            resources: crate::report::ResourceUsage { cpu_core_pct, rss },
            consistency_checks: self.consistency_checks,
            commits,
            replica_acks,
            chaos: self.chaos.map(|c| c.stats),
            telemetry: Some(self.telemetry.snapshot()),
            spans: self.spans.into_spans(),
            incident,
            wire_versions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::error::HvError;
    use here_workloads::memstress::MemStress;

    #[test]
    fn advance_without_a_primary_vm_is_an_error() {
        let mut s = Session::new(SessionSetup {
            name: "advance".into(),
            memory: ByteSize::from_mib(16),
            vcpus: 2,
            cfg: ReplicationConfig::fixed_period(SimDuration::from_secs(1)),
            workload: Box::new(MemStress::with_percent(30).with_rate(20_000)),
            seed: 1,
            load_during_seed: true,
            verify_consistency: false,
            chaos: None,
        })
        .unwrap();
        // A reboot loses every VM on the host, the protected one included.
        s.primary.reboot();
        assert!(matches!(
            s.advance(SimDuration::from_millis(50), false),
            Err(CoreError::Hypervisor(HvError::NoSuchVm(_)))
        ));
    }
}
