//! Differential test of the batched sweep: `write_sweep` issues one range
//! write per run of frames, and must leave exactly the VM state of the
//! per-page loop below — page versions and writers, the touched count, the
//! dirty bitmap, and every PML ring's entries, overflow flag and lifetime
//! log count.

use here_hypervisor::cpuid::CpuidPolicy;
use here_hypervisor::host::Hypervisor;
use here_hypervisor::vm::{Vm, VmConfig};
use here_hypervisor::{PageId, VcpuId, XenHypervisor};
use here_sim_core::rate::ByteSize;
use here_workloads::traits::write_sweep;
use proptest::prelude::*;

/// Guest size in pages (32 MiB): room for regions longer than
/// `512 × 8` frames, so rings overflow part-way through a sweep.
const GUEST_PAGES: u64 = 8192;

/// One `guest_write` per cursor position, in cursor order: the semantics
/// `write_sweep` must reproduce.
fn reference_sweep(vm: &mut Vm, base: u64, len: u64, start: u64, count: u64, vcpus: u32) -> u64 {
    for cursor in start..start + count.min(len) {
        let frame = base + cursor % len;
        let vcpu = VcpuId::new(((cursor / 64) % vcpus as u64) as u32);
        vm.guest_write(PageId::new(frame), vcpu).unwrap();
    }
    (start + count) % len
}

fn guest(vm_vcpus: u32, logging: bool) -> Vm {
    let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
    let cfg = VmConfig::new("sweep", ByteSize::from_bytes(GUEST_PAGES * 4096), vm_vcpus)
        .unwrap()
        .with_cpuid(CpuidPolicy::xen_default());
    let id = xen.create_vm(cfg).unwrap();
    let mut vm = xen.vm(id).unwrap().clone();
    if logging {
        vm.dirty_mut().enable_logging();
    }
    vm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Chains up to four sweeps over one region, each resuming from the
    /// previous cursor, so later sweeps re-dirty bits and append to rings
    /// the earlier ones already filled.
    #[test]
    fn batched_sweep_matches_per_page_writes(
        (len, base_seed, start_seed) in (1u64..6000, 0u64..GUEST_PAGES, any::<u64>()),
        counts in proptest::collection::vec(0u64..12_000, 1..5),
        (vcpus, vm_vcpus, logging) in (1u32..=8, 1u32..=8, any::<bool>()),
    ) {
        let base = base_seed % (GUEST_PAGES - len + 1);
        let mut cursor = start_seed % len;
        let mut batched = guest(vm_vcpus, logging);
        let mut reference = batched.clone();
        for count in counts {
            let next = write_sweep(&mut batched, base, len, cursor, count, vcpus);
            let expected = reference_sweep(&mut reference, base, len, cursor, count, vcpus);
            prop_assert_eq!(next, expected);
            prop_assert!(batched.memory() == reference.memory(), "memory diverged: {:?}",
                batched.memory().diff(reference.memory(), 4));
            prop_assert_eq!(
                batched.memory().touched_pages(),
                reference.memory().touched_pages()
            );
            prop_assert!(batched.dirty() == reference.dirty(), "dirty tracking diverged");
            cursor = next;
        }
    }
}

/// The fixed cases the random ones may miss: a cursor that wraps in the
/// middle of a 64-cursor block, a region smaller than one block, and a
/// start cursor beyond the region (workloads pass their last cursor back).
#[test]
fn batched_sweep_matches_at_block_and_wrap_edges() {
    for (base, len, start, count, vcpus) in [
        (0, 100, 90, 100, 3),
        (7, 10, 3, 25, 2),
        (64, 128, 127, 2, 4),
        (5, 4096, 4000, 4096, 1),
        (0, 300, 1000, 299, 5),
        (1, 1, 0, 9, 8),
    ] {
        let mut batched = guest(4, true);
        let mut reference = batched.clone();
        let next = write_sweep(&mut batched, base, len, start, count, vcpus);
        let expected = reference_sweep(&mut reference, base, len, start, count, vcpus);
        assert_eq!(next, expected, "sweep {base}+{len} from {start}");
        assert!(batched.memory() == reference.memory());
        assert!(batched.dirty() == reference.dirty());
    }
}
