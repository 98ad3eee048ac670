//! Criterion benches for guest-side dirtying on an lbm-sized guest
//! (768 MiB, 196,608 pages, 4 vCPUs, dirty logging on): one full
//! `write_sweep`, which issues a range write per 64-page run, beside the
//! same number of scattered single-page `guest_write`s.

use criterion::{criterion_group, criterion_main, Criterion};
use here_hypervisor::cpuid::CpuidPolicy;
use here_hypervisor::host::Hypervisor;
use here_hypervisor::vm::{Vm, VmConfig};
use here_hypervisor::{PageId, VcpuId, XenHypervisor};
use here_sim_core::rate::ByteSize;
use here_sim_core::rng::SimRng;
use here_workloads::traits::write_sweep;

const VCPUS: u32 = 4;

fn lbm_guest() -> Vm {
    let mut xen = XenHypervisor::new(ByteSize::from_gib(12));
    let cfg = VmConfig::new("lbm", ByteSize::from_mib(768), VCPUS)
        .unwrap()
        .with_cpuid(CpuidPolicy::xen_default());
    let id = xen.create_vm(cfg).unwrap();
    let mut vm = xen.vm(id).unwrap().clone();
    vm.dirty_mut().enable_logging();
    vm
}

fn bench(c: &mut Criterion) {
    let mut vm = lbm_guest();
    let pages = vm.memory().num_pages();
    let mut g = c.benchmark_group("guest_dirty");
    g.sample_size(10);

    let mut cursor = 0;
    g.bench_function("write_sweep_full", |b| {
        b.iter(|| {
            cursor = write_sweep(&mut vm, 0, pages, cursor, pages, VCPUS);
            cursor
        })
    });

    let mut rng = SimRng::seed_from(7);
    let frames: Vec<PageId> = (0..pages).map(|_| PageId::new(rng.below(pages))).collect();
    g.bench_function("guest_write_scattered", |b| {
        b.iter(|| {
            for (i, &frame) in frames.iter().enumerate() {
                let vcpu = VcpuId::new((i as u32 / 64) % VCPUS);
                vm.guest_write(frame, vcpu).unwrap();
            }
            vm.dirty().bitmap().count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
