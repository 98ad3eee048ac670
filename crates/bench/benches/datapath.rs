//! Criterion benches for the executed checkpoint data plane: the
//! allocation-free dirty-bitmap scan, the chunk-ordered parallel collect,
//! the per-lane materialized encode, and the full
//! harvest→translate→encode→decode→restore sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use here_bench::experiments::datapath::run_datapath;
use here_bench::Scale;
use here_core::dataplane::{encode_pages_round, BufferPool, EncodePlan, LanePool, PayloadMode};
use here_core::transfer::{collect_chunked_into, CollectScratch};
use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::GuestMemory;
use here_hypervisor::{PageId, VcpuId};
use here_sim_core::rate::ByteSize;
use here_vmstate::MemoryDelta;

const PAGES: u64 = 8_192;

fn fixture() -> (GuestMemory, DirtyBitmap) {
    let mut memory = GuestMemory::new(ByteSize::from_mib(128)).unwrap();
    let mut dirty = DirtyBitmap::new(memory.num_pages());
    for i in 0..PAGES {
        let frame = PageId::new(i * 3);
        memory
            .write_page(frame, VcpuId::new((i % 4) as u32))
            .unwrap();
        dirty.mark(frame);
    }
    (memory, dirty)
}

fn bench(c: &mut Criterion) {
    let (memory, dirty) = fixture();
    let mut g = c.benchmark_group("datapath");
    g.sample_size(10);

    // Satellite: the iterator-based bitmap scan (no Vec<PageId> per call).
    g.bench_function("bitmap_scan_iter", |b| {
        b.iter(|| dirty.iter().map(|p| p.frame()).sum::<u64>())
    });
    g.bench_function("bitmap_scan_alloc", |b| {
        b.iter(|| dirty.peek().iter().map(|p| p.frame()).sum::<u64>())
    });

    for workers in [1u32, 4] {
        let mut scratch = CollectScratch::new();
        let mut delta = MemoryDelta::new();
        g.bench_function(format!("collect_w{workers}"), |b| {
            b.iter(|| {
                delta.clear();
                collect_chunked_into(&memory, &dirty, workers, &mut scratch, &mut delta);
                delta.len()
            })
        });
    }

    for lanes in [1u32, 4] {
        let mut scratch = CollectScratch::new();
        let mut delta = MemoryDelta::new();
        collect_chunked_into(&memory, &dirty, 1, &mut scratch, &mut delta);
        let mut pool = BufferPool::new();
        let lane_pool = LanePool::new();
        let plan = EncodePlan {
            lanes,
            mode: PayloadMode::Materialized,
            chunk_pages: None,
            window: None,
        };
        g.bench_function(format!("encode_materialized_l{lanes}"), |b| {
            b.iter(|| {
                let mut segs = Vec::new();
                encode_pages_round(&delta, &plan, &mut pool, &lane_pool, |_, seg| {
                    segs.push(seg)
                });
                let total: usize = segs.iter().map(|s| s.len()).sum();
                for seg in segs {
                    pool.recycle(seg);
                }
                total
            })
        });
    }

    g.bench_function("full_sweep_quick", |b| {
        b.iter(|| run_datapath(Scale::Quick))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
