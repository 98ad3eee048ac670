//! The multithreaded replication data plane (§7.2).
//!
//! One genuinely concurrent collection path serves both of the paper's
//! schemes:
//!
//! 1. **Continuous checkpointing** — guest memory is split into 2 MiB
//!    chunks, assigned round-robin to worker threads; during each
//!    checkpoint every worker scans the shared dirty bitmap over its own
//!    chunks and copies the pages it owns ([`collect_chunked`]).
//! 2. **Seeding** — each pre-copy round collects its dirty set the same
//!    way, and attributes every page to the migrator thread of the vCPU
//!    that last wrote it (the page's `last_writer`). Pages sent by
//!    *different* threads across rounds are "problematic" (possible
//!    cross-vCPU write races) and are tracked by [`ProblematicTracker`]
//!    for mandatory resend in the final stop-and-copy.
//!
//! The worker threads are real (`std::thread::scope`); only the *reported
//! durations* come from the calibrated [`CostModel`], keeping results
//! host-independent.
//!
//! [`CostModel`]: crate::config::CostModel

use std::collections::HashMap;

use here_hypervisor::dirty::DirtyBitmap;
use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::PageId;
use here_vmstate::MemoryDelta;

/// HERE's chunk size: 2 MiB (§7.2).
pub const CHUNK_BYTES: u64 = 2 * 1024 * 1024;
/// Pages per chunk.
pub const PAGES_PER_CHUNK: u64 = CHUNK_BYTES / here_hypervisor::PAGE_SIZE;

/// Reusable per-lane scratch buffers for [`collect_chunked_into`], so the
/// steady-state checkpoint loop performs no heap allocation once the lanes
/// have warmed up.
#[derive(Debug, Default)]
pub struct CollectScratch {
    lanes: Vec<Vec<(PageId, PageVersion)>>,
}

impl CollectScratch {
    /// Empty scratch; lane buffers grow on first use and are kept after.
    pub fn new() -> Self {
        CollectScratch::default()
    }
}

/// Scans `dirty` over `memory` with `workers` round-robin chunk workers and
/// returns the combined delta (ascending frame order).
///
/// Every chunk belongs to exactly one worker, so workers write disjoint
/// outputs and need no synchronisation — the same property the paper
/// relies on for its round-robin region assignment.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn collect_chunked(memory: &GuestMemory, dirty: &DirtyBitmap, workers: u32) -> MemoryDelta {
    let mut scratch = CollectScratch::new();
    let mut out = MemoryDelta::new();
    collect_chunked_into(memory, dirty, workers, &mut scratch, &mut out);
    out
}

/// Allocation-reusing variant of [`collect_chunked`]: lane buffers live in
/// `scratch` and the merged result replaces the contents of `out`, both
/// keeping their allocations across checkpoints.
///
/// Lane outputs are *chunk-ordered by construction* (each lane visits
/// chunks `lane, lane + stride, …` ascending, and pages within a chunk
/// ascend), so the merge is a k-way splice that walks chunks in order and
/// copies each chunk's run from its owning lane — `O(pages + chunks)`,
/// no comparison sort.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn collect_chunked_into(
    memory: &GuestMemory,
    dirty: &DirtyBitmap,
    workers: u32,
    scratch: &mut CollectScratch,
    out: &mut MemoryDelta,
) {
    assert!(workers >= 1, "at least one transfer worker is required");
    out.clear();
    let num_pages = memory.num_pages();
    let num_chunks = num_pages.div_ceil(PAGES_PER_CHUNK);
    let workers = if num_chunks <= 1 {
        1
    } else {
        workers.min(num_chunks as u32)
    };
    if workers == 1 {
        // One lane visiting every chunk is simply an ascending full scan.
        out.reserve(dirty.count() as usize);
        for page in dirty.iter() {
            let rec = memory
                .page(page)
                .expect("dirty bitmap only marks in-range pages");
            out.push(page, rec);
        }
        return;
    }

    if scratch.lanes.len() < workers as usize {
        scratch.lanes.resize_with(workers as usize, Vec::new);
    }
    let lanes = &mut scratch.lanes[..workers as usize];
    std::thread::scope(|s| {
        for (lane, buf) in lanes.iter_mut().enumerate() {
            s.spawn(move || {
                buf.clear();
                let mut chunk = lane as u64;
                while chunk < num_chunks {
                    let lo = chunk * PAGES_PER_CHUNK;
                    for page in dirty.iter_range(lo, lo + PAGES_PER_CHUNK) {
                        let rec = memory
                            .page(page)
                            .expect("dirty bitmap only marks in-range pages");
                        buf.push((page, rec));
                    }
                    chunk += workers as u64;
                }
            });
        }
    });

    // k-way chunk-ordered splice: chunk c's run sits at the front of the
    // unconsumed part of lane c % workers, already sorted.
    out.reserve(lanes.iter().map(Vec::len).sum());
    let mut cursors = vec![0usize; lanes.len()];
    for chunk in 0..num_chunks {
        let lane = (chunk % workers as u64) as usize;
        let buf = &lanes[lane];
        let cur = &mut cursors[lane];
        while *cur < buf.len() && buf[*cur].0.frame() / PAGES_PER_CHUNK == chunk {
            let (page, rec) = buf[*cur];
            out.push(page, rec);
            *cur += 1;
        }
    }
    debug_assert!(
        cursors.iter().zip(lanes.iter()).all(|(c, l)| *c == l.len()),
        "chunk-ordered merge must consume every lane entry"
    );
}

/// Tracks pages sent by more than one seeding thread across migration
/// rounds — the paper's "problematic" pages (§7.2, scheme 1), which may
/// have been modified by multiple vCPUs mid-copy and must be resent during
/// the final stop-and-copy.
#[derive(Debug, Default)]
pub struct ProblematicTracker {
    last_sender: HashMap<u64, u16>,
    problematic: HashMap<u64, ()>,
}

impl ProblematicTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ProblematicTracker::default()
    }

    /// Records that seeding thread `sender` transferred `page` this round.
    /// A page previously transferred by a *different* thread becomes
    /// problematic.
    pub fn record(&mut self, page: PageId, sender: u16) {
        match self.last_sender.insert(page.frame(), sender) {
            Some(prev) if prev != sender => {
                self.problematic.insert(page.frame(), ());
            }
            _ => {}
        }
    }

    /// Records a whole per-thread delta.
    pub fn record_delta(&mut self, delta: &MemoryDelta, sender: u16) {
        for &(page, _) in delta.entries() {
            self.record(page, sender);
        }
    }

    /// Number of problematic pages so far.
    pub fn len(&self) -> usize {
        self.problematic.len()
    }

    /// `true` if no page is problematic.
    pub fn is_empty(&self) -> bool {
        self.problematic.is_empty()
    }

    /// The problematic pages, ascending — the resend list for the final
    /// stop-and-copy.
    pub fn resend_list(&self) -> Vec<PageId> {
        let mut v: Vec<u64> = self.problematic.keys().copied().collect();
        v.sort_unstable();
        v.into_iter().map(PageId::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use here_hypervisor::memory::PageVersion;
    use here_hypervisor::VcpuId;
    use here_sim_core::rate::ByteSize;

    fn memory_with_dirty(frames: &[u64]) -> (GuestMemory, DirtyBitmap) {
        let mut mem = GuestMemory::new(ByteSize::from_mib(32)).unwrap(); // 8192 pages
        let mut bm = DirtyBitmap::new(mem.num_pages());
        for &f in frames {
            mem.write_page(PageId::new(f), VcpuId::new(0)).unwrap();
            bm.mark(PageId::new(f));
        }
        (mem, bm)
    }

    #[test]
    fn chunked_collection_matches_single_threaded() {
        let frames: Vec<u64> = (0..8192).step_by(7).collect();
        let (mem, bm) = memory_with_dirty(&frames);
        let single = collect_chunked(&mem, &bm, 1);
        for workers in [2, 3, 4, 8] {
            let multi = collect_chunked(&mem, &bm, workers);
            assert_eq!(multi, single, "workers={workers}");
        }
        assert_eq!(single.len(), frames.len());
    }

    #[test]
    fn chunked_collection_carries_correct_versions() {
        let (mut mem, mut bm) = memory_with_dirty(&[10, 600, 4000]);
        mem.write_page(PageId::new(600), VcpuId::new(2)).unwrap();
        bm.mark(PageId::new(600));
        let delta = collect_chunked(&mem, &bm, 4);
        let v600 = delta
            .entries()
            .iter()
            .find(|&&(p, _)| p.frame() == 600)
            .unwrap()
            .1;
        assert_eq!(
            v600,
            PageVersion {
                version: 2,
                last_writer: 2
            }
        );
    }

    #[test]
    fn empty_bitmap_collects_nothing() {
        let (mem, _) = memory_with_dirty(&[]);
        let bm = DirtyBitmap::new(mem.num_pages());
        assert!(collect_chunked(&mem, &bm, 4).is_empty());
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let mut mem = GuestMemory::new(ByteSize::from_mib(4)).unwrap(); // 2 chunks
        let mut bm = DirtyBitmap::new(mem.num_pages());
        mem.write_page(PageId::new(5), VcpuId::new(0)).unwrap();
        bm.mark(PageId::new(5));
        let delta = collect_chunked(&mem, &bm, 64);
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn pooled_collection_reuses_buffers_and_matches() {
        let frames: Vec<u64> = (0..8192).step_by(5).collect();
        let (mem, bm) = memory_with_dirty(&frames);
        let reference = collect_chunked(&mem, &bm, 1);
        let mut scratch = CollectScratch::new();
        let mut out = MemoryDelta::new();
        for workers in [2u32, 4, 8] {
            collect_chunked_into(&mem, &bm, workers, &mut scratch, &mut out);
            assert_eq!(out, reference, "workers={workers}");
        }
        // Steady state: a second round at the same width must not grow the
        // lane buffers.
        collect_chunked_into(&mem, &bm, 4, &mut scratch, &mut out);
        let caps: Vec<usize> = scratch.lanes.iter().map(Vec::capacity).collect();
        collect_chunked_into(&mem, &bm, 4, &mut scratch, &mut out);
        let caps_after: Vec<usize> = scratch.lanes.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "lane buffers must be reused, not regrown");
        assert_eq!(out, reference);
    }

    #[test]
    fn problematic_tracker_flags_cross_thread_pages() {
        let mut t = ProblematicTracker::new();
        t.record(PageId::new(7), 0);
        t.record(PageId::new(7), 0); // same thread again: fine
        assert!(t.is_empty());
        t.record(PageId::new(7), 1); // a different vCPU sent it: problematic
        t.record(PageId::new(9), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.resend_list(), vec![PageId::new(7)]);
    }

    #[test]
    fn problematic_tracker_via_deltas() {
        let (mem, _) = memory_with_dirty(&[1, 2]);
        let delta_of = |frames: &[u64]| -> MemoryDelta {
            frames
                .iter()
                .map(|&f| (PageId::new(f), mem.page(PageId::new(f)).unwrap()))
                .collect()
        };
        let d0 = delta_of(&[1, 2]);
        let d1 = delta_of(&[2]);
        let mut t = ProblematicTracker::new();
        t.record_delta(&d0, 0);
        t.record_delta(&d1, 1);
        assert_eq!(t.resend_list(), vec![PageId::new(2)]);
    }
}
