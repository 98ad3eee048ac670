//! The three benchmark workloads. Each is a fully specified replicated
//! scenario whose only free input is the seed: it feeds `Scenario::seed`
//! (the guest's random stream) and, on `ycsb-fanout`, the fault plan.

use here_core::{
    FanoutMode, FaultKind, FaultPlan, ReplicationConfig, Scenario, ScenarioBuilder, TopologyConfig,
};
use here_sim_core::time::SimDuration;
use here_workloads::sockperf::{Sockperf, SockperfLoad};
use here_workloads::spec::{SpecBenchmark, SpecKernel};
use here_workloads::traits::Workload;
use here_workloads::ycsb::{Ycsb, YcsbMix, YcsbSpec};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SPEC lbm sweep on a 768 MiB guest, fixed 3 s period, one KVM
    /// replica, wire v2.
    LbmSweep,
    /// YCSB-A on a 60,000-record store, dynamic period, three replicas
    /// at quorum 2, wire v3, streamed encode, transfer-only fault plan.
    YcsbFanout,
    /// Sockperf load b, fixed 100 ms period, one replica, wire v2.
    SockperfFine,
}

/// Every workload, in the order the all-workloads mode runs them.
pub const ALL: [Kind; 3] = [Kind::LbmSweep, Kind::YcsbFanout, Kind::SockperfFine];

/// Records loaded into `ycsb-fanout`'s store: `YcsbSpec::small`'s mix
/// and operation count on a fifth of its records. At 300,000 records the
/// four epoch shadows' random inserts miss the last-level cache, and a
/// run's wall time swings by a third with the host's memory contention;
/// at 60,000 the shadow commit still dominates the run but a run takes
/// about a second and stays steady.
const YCSB_RECORDS: u64 = 60_000;
/// Guest memory of `lbm-sweep`. The lbm kernel sweeps its 1700 MiB
/// profile footprint capped at the guest's size, so on this guest it
/// sweeps all 196,608 pages. On lbm's own 1828 MiB guest an epoch's page
/// versions, delta and frames no longer fit the last-level cache, and a
/// run's wall time swung by a third with the host's memory traffic.
const LBM_GUEST_MIB: u64 = 768;
/// Streamed-encode chunk size on `ycsb-fanout` (pages per record).
const YCSB_CHUNK_PAGES: u32 = 512;
/// Streamed-encode window depth on `ycsb-fanout` (chunks in flight).
const YCSB_WINDOW: u32 = 4;

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LbmSweep => "lbm-sweep",
            Kind::YcsbFanout => "ycsb-fanout",
            Kind::SockperfFine => "sockperf-fine",
        }
    }

    /// The fixed virtual length of one measured run.
    pub fn virtual_length(self) -> SimDuration {
        match self {
            Kind::LbmSweep => SimDuration::from_secs(60),
            Kind::YcsbFanout => SimDuration::from_secs(20),
            Kind::SockperfFine => SimDuration::from_secs(60),
        }
    }

    /// Whether the workload emits client packets (so client latency is
    /// defined).
    pub fn emits_packets(self) -> bool {
        self == Kind::SockperfFine
    }

    /// Epochs the fault plan forces to abort.
    pub fn expected_aborts(self) -> u64 {
        u64::from(self == Kind::YcsbFanout)
    }

    /// The replication configuration.
    pub fn config(self) -> ReplicationConfig {
        match self {
            Kind::LbmSweep => ReplicationConfig::fixed_period(SimDuration::from_secs(3)),
            Kind::YcsbFanout => ReplicationConfig::dynamic(0.30, SimDuration::from_secs(5))
                .with_topology(TopologyConfig {
                    replicas: 3,
                    quorum: 2,
                    fanout: FanoutMode::Star,
                    stale_epoch_lag: TopologyConfig::single().stale_epoch_lag,
                })
                .with_wire_v3()
                .with_encode_chunk_pages(YCSB_CHUNK_PAGES)
                .with_overlap_channel_depth(YCSB_WINDOW),
            Kind::SockperfFine => ReplicationConfig::fixed_period(SimDuration::from_millis(100)),
        }
    }

    /// The fault plan armed on this workload, if any. `ycsb-fanout`'s plan
    /// has a fixed shape (transfer faults only, never the primary); the
    /// seed drives its corruption salts.
    pub fn fault_plan(self, seed: u64) -> Option<FaultPlan> {
        match self {
            Kind::YcsbFanout => Some(
                FaultPlan::new(seed)
                    // Replica 2 is partitioned for the whole retry budget
                    // of epochs 4–7: it parks a backlog and catches up.
                    .with_partition_span(4..=7, &[2], 4)
                    // Replicas 0 and 1 both lose every attempt of epoch
                    // 11: quorum 2 is out of reach, so the epoch aborts.
                    .with_event_on(11, 0, FaultKind::Drop { attempts: 4 })
                    .with_event_on(11, 1, FaultKind::Drop { attempts: 4 })
                    // One corrupted frame, rejected by the wire checksums
                    // and retried once.
                    .with_event_on(15, 1, FaultKind::Corrupt { attempts: 1 }),
            ),
            Kind::LbmSweep | Kind::SockperfFine => None,
        }
    }

    /// Guest memory in MiB and the workload itself. Building the YCSB
    /// driver loads its key-value store, so this is part of set-up.
    pub fn guest(self) -> (u64, Box<dyn Workload>) {
        match self {
            Kind::LbmSweep => (LBM_GUEST_MIB, Box::new(SpecKernel::new(SpecBenchmark::Lbm))),
            Kind::YcsbFanout => {
                let spec = YcsbSpec {
                    records: YCSB_RECORDS,
                    ..YcsbSpec::small(YcsbMix::A)
                };
                let driver = Ycsb::new(spec).expect("valid YCSB spec");
                let pages = driver.required_pages() * here_hypervisor::PAGE_SIZE;
                (pages.div_ceil(1024 * 1024) + 64, Box::new(driver))
            }
            Kind::SockperfFine => (512, Box::new(Sockperf::new(SockperfLoad::B))),
        }
    }

    /// The scenario builder for one run of `length` virtual time, with
    /// per-commit consistency verification on.
    pub fn builder(self, seed: u64, length: SimDuration) -> ScenarioBuilder {
        let (memory_mib, workload) = self.guest();
        let mut builder = Scenario::builder()
            .name(self.name())
            .vm_memory_mib(memory_mib)
            .vcpus(4)
            .workload(workload)
            .config(self.config())
            .duration(length)
            .seed(seed)
            .verify_consistency();
        if let Some(plan) = self.fault_plan(seed) {
            builder = builder.chaos(plan);
        }
        builder
    }

    /// The scenario of one measured run.
    pub fn scenario(self, seed: u64) -> Scenario {
        self.builder(seed, self.virtual_length())
            .build()
            .expect("benchmark scenarios are valid")
    }
}
