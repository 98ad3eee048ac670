//! The workload abstraction: guest applications that dirty memory, complete
//! operations, and emit network traffic.
//!
//! A [`Workload`] is advanced over slices of *virtual* time while its VM is
//! running; it mutates guest memory through the VM's normal write path (so
//! dirty-page tracking sees exactly what a real guest would produce),
//! reports application-level progress (the paper's throughput metrics), and
//! emits outgoing packets (which replication buffers until commit).

use std::fmt;

use here_hypervisor::vm::Vm;
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_sim_core::time::{SimDuration, SimTime};

/// An outgoing packet emitted during an advance slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emission {
    /// Offset of the emission within the slice.
    pub offset: SimDuration,
    /// Payload size.
    pub size: ByteSize,
}

/// Progress made by a workload over one advance slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Progress {
    /// Application operations completed (fractional: slices rarely align
    /// with operation boundaries).
    pub ops: f64,
    /// Outgoing packets emitted during the slice, in time order.
    pub emissions: Vec<Emission>,
}

impl Progress {
    /// Progress with `ops` operations and no emissions.
    pub fn ops_only(ops: f64) -> Self {
        Progress {
            ops,
            emissions: Vec::new(),
        }
    }

    /// Merges another slice's progress into this one.
    pub fn merge(&mut self, other: Progress) {
        self.ops += other.ops;
        self.emissions.extend(other.emissions);
    }
}

/// A guest application driven in virtual time.
///
/// # Contract
///
/// The replication engine only calls [`Workload::advance`] while the VM is
/// [`Running`](here_hypervisor::vm::RunState::Running); implementations may
/// therefore treat guest-write failures as bugs.
pub trait Workload: fmt::Debug {
    /// Short name for reports ("memstress-30", "ycsb-a", ...).
    fn name(&self) -> &str;

    /// Runs the workload for `dt` of virtual time starting at `now`,
    /// applying page writes to `vm` and returning progress.
    fn advance(&mut self, now: SimTime, dt: SimDuration, vm: &mut Vm, rng: &mut SimRng)
        -> Progress;

    /// `true` once the workload has completed a bounded run (e.g. YCSB's
    /// 4 M operations). Unbounded workloads always return `false`.
    fn is_done(&self) -> bool {
        false
    }

    /// Restarts the workload from its initial state, keeping warmed caches
    /// (stores stay loaded, phase schedules replay). The engine calls this
    /// when a warmup phase ends so measurement starts on a fresh run.
    fn reset(&mut self) {}
}

/// Writes `count` pages sequentially starting at `start` (wrapping within
/// `[base, base + len)`), attributing writes round-robin across vCPUs in
/// blocks of 64 cursor positions: cursor `c` writes as vCPU
/// `(c / 64) % vcpus`. Returns the next cursor position. The engine-facing
/// workloads use this for sweep-style dirtying (memstress, lbm, stencil
/// kernels, the KV store and the YCSB GC sweep).
///
/// The number of *distinct* pages marked is capped at `len` — extra laps
/// would re-dirty the same pages without changing the dirty set, so they
/// are skipped for speed, which keeps replica consistency intact (the final
/// page versions are what get transferred).
///
/// The sweep is issued as one [`Vm::guest_write_run`] per maximal run of
/// consecutive frames with one writer: a run ends at every 64-cursor
/// boundary (the vCPU changes there) and at the region's wrap point. The
/// resulting memory and dirty-tracking state is bit-for-bit that of one
/// [`Vm::guest_write`] per page in cursor order.
///
/// # Panics
///
/// Panics if `len` is zero or the region exceeds the VM's address space.
pub fn write_sweep(vm: &mut Vm, base: u64, len: u64, start: u64, count: u64, vcpus: u32) -> u64 {
    assert!(len > 0, "sweep region must be non-empty");
    let end = start + count.min(len);
    let mut cursor = start;
    while cursor < end {
        let offset = cursor % len;
        let run_end = end.min((cursor / 64 + 1) * 64).min(cursor + (len - offset));
        let vcpu = here_hypervisor::VcpuId::new(((cursor / 64) % vcpus as u64) as u32);
        let lo = base + offset;
        vm.guest_write_run(lo, lo + (run_end - cursor), vcpu)
            .expect("workload advances only while the VM runs");
        cursor = run_end;
    }
    (start + count) % len
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::cpuid::CpuidPolicy;
    use here_hypervisor::host::Hypervisor;
    use here_hypervisor::vm::VmConfig;
    use here_hypervisor::XenHypervisor;

    fn test_vm() -> (XenHypervisor, here_hypervisor::VmId) {
        let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
        let cfg = VmConfig::new("w", ByteSize::from_mib(1), 4)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        let id = xen.create_vm(cfg).unwrap();
        (xen, id)
    }

    #[test]
    fn progress_merge_accumulates() {
        let mut a = Progress::ops_only(2.5);
        a.merge(Progress {
            ops: 1.5,
            emissions: vec![Emission {
                offset: SimDuration::from_millis(1),
                size: ByteSize::from_bytes(64),
            }],
        });
        assert_eq!(a.ops, 4.0);
        assert_eq!(a.emissions.len(), 1);
    }

    #[test]
    fn sweep_wraps_and_caps_distinct_pages() {
        let (mut xen, id) = test_vm();
        xen.shadow_op_enable_logdirty(id).unwrap();
        let vm = xen.vm_mut(id).unwrap();
        // Region of 16 pages; write 40 pages worth: all 16 distinct frames
        // dirty, cursor ends at (0 + 40) % 16 = 8.
        let next = write_sweep(vm, 4, 16, 0, 40, 4);
        assert_eq!(next, 8);
        assert_eq!(vm.dirty().bitmap().count(), 16);
        // All dirty frames are within the region.
        assert!(vm
            .dirty()
            .bitmap()
            .peek()
            .iter()
            .all(|p| (4..20).contains(&p.frame())));
    }

    #[test]
    fn sweep_attributes_writes_across_vcpus() {
        let (mut xen, id) = test_vm();
        xen.shadow_op_enable_logdirty(id).unwrap();
        let vm = xen.vm_mut(id).unwrap();
        write_sweep(vm, 0, 256, 0, 256, 4);
        let used: Vec<usize> = (0..4)
            .filter(|&i| !vm.dirty().ring(i).unwrap().is_empty())
            .collect();
        assert_eq!(used.len(), 4, "all four vCPUs should have logged writes");
    }
}
