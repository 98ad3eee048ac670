//! Dirty page tracking: shadow-paging bitmap and per-vCPU PML rings.
//!
//! The paper's state manager (§7.2) extends Xen with *per-vCPU* dirty
//! tracking built on Intel Page Modification Logging, so that each migrator
//! thread can harvest its own vCPU's dirty pages "without having to
//! interrupt other vCPUs". This module provides both mechanisms:
//!
//! - [`DirtyBitmap`] — the classic global log-dirty bitmap that Xen's shadow
//!   paging maintains (used by the Remus baseline and as the PML overflow
//!   fallback);
//! - [`PmlRing`] — a fixed-capacity per-vCPU ring of dirtied frames, with an
//!   overflow ("full") flag that forces a bitmap resync, mirroring PML's
//!   512-entry hardware buffer semantics.

use serde::{Deserialize, Serialize};

use crate::memory::PageId;

/// Capacity of a hardware PML buffer (512 entries of 8 bytes = one page).
pub const PML_HW_CAPACITY: usize = 512;

/// A global dirty-page bitmap, as maintained by shadow paging or harvested
/// from PML buffers.
///
/// # Examples
///
/// ```
/// use here_hypervisor::dirty::DirtyBitmap;
/// use here_hypervisor::memory::PageId;
///
/// let mut bm = DirtyBitmap::new(1024);
/// bm.mark(PageId::new(3));
/// bm.mark(PageId::new(3)); // idempotent
/// assert_eq!(bm.count(), 1);
/// assert_eq!(bm.drain(), vec![PageId::new(3)]);
/// assert_eq!(bm.count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyBitmap {
    words: Vec<u64>,
    num_pages: u64,
    count: u64,
}

impl DirtyBitmap {
    /// Creates a clean bitmap covering `num_pages` frames.
    pub fn new(num_pages: u64) -> Self {
        let words = vec![0u64; num_pages.div_ceil(64) as usize];
        DirtyBitmap {
            words,
            num_pages,
            count: 0,
        }
    }

    /// Number of frames covered.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Marks `page` dirty. Out-of-range frames are ignored (matching the
    /// hardware, which cannot log frames outside the guest's address space).
    pub fn mark(&mut self, page: PageId) {
        let frame = page.frame();
        if frame >= self.num_pages {
            return;
        }
        let (w, b) = (frame / 64, frame % 64);
        let word = &mut self.words[w as usize];
        if *word & (1 << b) == 0 {
            *word |= 1 << b;
            self.count += 1;
        }
    }

    /// Marks every frame of `[lo, hi)` dirty, one masked word at a time —
    /// the range form of [`mark`](DirtyBitmap::mark) behind sequential
    /// guest sweeps. `hi` is clamped to the covered range, and `count`
    /// grows only by the bits that were clean, so the result is exactly
    /// that of marking each frame in turn.
    pub fn mark_run(&mut self, lo: u64, hi: u64) {
        let hi = hi.min(self.num_pages);
        if lo >= hi {
            return;
        }
        for wi in lo / 64..hi.div_ceil(64) {
            let word = &mut self.words[wi as usize];
            let mask = range_mask(wi, lo, hi);
            self.count += (mask & !*word).count_ones() as u64;
            *word |= mask;
        }
    }

    /// `true` if `page` is marked dirty.
    pub fn is_dirty(&self, page: PageId) -> bool {
        let frame = page.frame();
        if frame >= self.num_pages {
            return false;
        }
        self.words[(frame / 64) as usize] & (1 << (frame % 64)) != 0
    }

    /// Number of dirty frames.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no frame is dirty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns all dirty frames in ascending order and clears the bitmap —
    /// the "read and clear" hypercall the migration code uses.
    pub fn drain(&mut self) -> Vec<PageId> {
        let pages = self.peek();
        self.clear();
        pages
    }

    /// Like [`drain`](DirtyBitmap::drain), but fills a caller-owned buffer
    /// so the steady-state checkpoint loop reuses one allocation across
    /// rounds.
    pub fn drain_into(&mut self, out: &mut Vec<PageId>) {
        self.peek_into(out);
        self.clear();
    }

    /// Returns all dirty frames in ascending order without clearing.
    pub fn peek(&self) -> Vec<PageId> {
        let mut pages = Vec::with_capacity(self.count as usize);
        self.peek_into(&mut pages);
        pages
    }

    /// Like [`peek`](DirtyBitmap::peek), into a caller-owned buffer
    /// (cleared first, allocation kept).
    pub fn peek_into(&self, out: &mut Vec<PageId>) {
        out.clear();
        out.reserve(self.count as usize);
        out.extend(self.iter());
    }

    /// Allocation-free iterator over all dirty frames, ascending.
    pub fn iter(&self) -> DirtyPagesIter<'_> {
        self.iter_range(0, self.num_pages)
    }

    /// Allocation-free iterator over dirty frames in `[lo, hi)`, ascending.
    /// `hi` is clamped to the covered range.
    pub fn iter_range(&self, lo: u64, hi: u64) -> DirtyPagesIter<'_> {
        DirtyPagesIter::new(&self.words, lo, hi.min(self.num_pages))
    }

    /// Number of dirty frames in `[lo, hi)`, by word popcounts — no
    /// per-page work, used to size per-lane buffers before a scan.
    pub fn count_in_range(&self, lo: u64, hi: u64) -> u64 {
        let hi = hi.min(self.num_pages);
        if lo >= hi {
            return 0;
        }
        let (wlo, whi) = (lo / 64, hi.div_ceil(64));
        (wlo..whi)
            .map(|wi| masked_word(&self.words, wi, lo, hi).count_ones() as u64)
            .sum()
    }

    /// Dirty frames whose number satisfies `frame % stride == lane`; used by
    /// HERE's round-robin chunk assignment tests.
    pub fn peek_lane(&self, stride: u64, lane: u64, pages_per_chunk: u64) -> Vec<PageId> {
        assert!(
            stride > 0 && pages_per_chunk > 0,
            "stride and chunk size must be positive"
        );
        self.peek()
            .into_iter()
            .filter(|p| (p.frame() / pages_per_chunk) % stride == lane)
            .collect()
    }

    /// Dirty frames in the half-open range `[lo, hi)`, ascending. This is
    /// the primitive HERE's chunk workers scan with: each worker reads only
    /// its own chunks' words, so concurrent workers never contend.
    /// Hot paths should prefer [`iter_range`](DirtyBitmap::iter_range) or
    /// [`pages_in_range_into`](DirtyBitmap::pages_in_range_into), which do
    /// not allocate.
    pub fn pages_in_range(&self, lo: u64, hi: u64) -> Vec<PageId> {
        self.iter_range(lo, hi).collect()
    }

    /// Like [`pages_in_range`](DirtyBitmap::pages_in_range), appending into
    /// a caller-owned buffer (not cleared — lanes accumulate runs of
    /// consecutive chunks into one buffer).
    pub fn pages_in_range_into(&self, lo: u64, hi: u64, out: &mut Vec<PageId>) {
        out.extend(self.iter_range(lo, hi));
    }

    /// Clears every dirty bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Merges every dirty bit of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two bitmaps cover a different number of frames.
    pub fn union_with(&mut self, other: &DirtyBitmap) {
        assert_eq!(
            self.num_pages, other.num_pages,
            "bitmap union requires equal coverage"
        );
        let mut count = 0;
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
            count += a.count_ones() as u64;
        }
        self.count = count;
    }
}

/// The bits of word `wi` whose frames fall inside `[lo, hi)`.
#[inline]
fn range_mask(wi: u64, lo: u64, hi: u64) -> u64 {
    let mut mask = !0u64;
    let base = wi * 64;
    if base < lo {
        mask &= !0u64 << (lo - base);
    }
    if base + 64 > hi {
        let keep = hi.saturating_sub(base);
        mask &= if keep >= 64 { !0 } else { (1u64 << keep) - 1 };
    }
    mask
}

/// Loads word `wi` of `words`, masking off bits outside `[lo, hi)`.
#[inline]
fn masked_word(words: &[u64], wi: u64, lo: u64, hi: u64) -> u64 {
    words[wi as usize] & range_mask(wi, lo, hi)
}

/// Allocation-free iterator over the dirty frames of a [`DirtyBitmap`]
/// range, created by [`DirtyBitmap::iter`] / [`DirtyBitmap::iter_range`].
///
/// Walks one 64-bit word at a time, peeling set bits with
/// `trailing_zeros`, so iterating N dirty pages over a W-word range costs
/// O(W + N) with zero heap traffic — the scan primitive behind the
/// steady-state checkpoint loop.
#[derive(Debug, Clone)]
pub struct DirtyPagesIter<'a> {
    words: &'a [u64],
    lo: u64,
    hi: u64,
    word_index: u64,
    end_word: u64,
    current: u64,
}

impl<'a> DirtyPagesIter<'a> {
    fn new(words: &'a [u64], lo: u64, hi: u64) -> Self {
        let (wlo, whi) = if lo < hi {
            (lo / 64, hi.div_ceil(64))
        } else {
            (0, 0)
        };
        let current = if wlo < whi {
            masked_word(words, wlo, lo, hi)
        } else {
            0
        };
        DirtyPagesIter {
            words,
            lo,
            hi,
            word_index: wlo,
            end_word: whi,
            current,
        }
    }
}

impl Iterator for DirtyPagesIter<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                return Some(PageId::new(self.word_index * 64 + bit));
            }
            self.word_index += 1;
            if self.word_index >= self.end_word {
                return None;
            }
            self.current = masked_word(self.words, self.word_index, self.lo, self.hi);
        }
    }
}

/// One vCPU's Page Modification Logging buffer.
///
/// The hardware appends the guest-physical address of each newly dirtied
/// page; when the buffer fills, a VM exit lets software harvest it. We model
/// an overflow flag instead of the exit: once full, subsequent writes set
/// [`PmlRing::overflowed`] and the harvester must fall back to a bitmap
/// resync for correctness.
///
/// # Examples
///
/// ```
/// use here_hypervisor::dirty::PmlRing;
/// use here_hypervisor::memory::PageId;
///
/// let mut ring = PmlRing::with_capacity(2);
/// ring.log(PageId::new(1));
/// ring.log(PageId::new(2));
/// ring.log(PageId::new(3)); // overflow
/// assert!(ring.overflowed());
/// assert_eq!(ring.harvest().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmlRing {
    entries: Vec<PageId>,
    capacity: usize,
    overflowed: bool,
    total_logged: u64,
}

impl PmlRing {
    /// Creates a ring with the hardware capacity ([`PML_HW_CAPACITY`]).
    pub fn new() -> Self {
        PmlRing::with_capacity(PML_HW_CAPACITY)
    }

    /// Creates a ring holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "PML capacity must be positive");
        PmlRing {
            entries: Vec::with_capacity(capacity.min(PML_HW_CAPACITY * 16)),
            capacity,
            overflowed: false,
            total_logged: 0,
        }
    }

    /// Logs a dirtied frame. Duplicate frames are recorded as the hardware
    /// records them (no dedup).
    pub fn log(&mut self, page: PageId) {
        self.total_logged += 1;
        if self.entries.len() >= self.capacity {
            self.overflowed = true;
            return;
        }
        self.entries.push(page);
    }

    /// Logs every frame of `[lo, hi)` in ascending order, exactly as
    /// `hi - lo` calls to [`log`](PmlRing::log) would: every attempt
    /// counts towards [`total_logged`](PmlRing::total_logged), the frames
    /// that fit are buffered in order, and the rest set the overflow flag.
    pub fn log_run(&mut self, lo: u64, hi: u64) {
        let n = hi.saturating_sub(lo);
        self.total_logged += n;
        let room = (self.capacity - self.entries.len()) as u64;
        if n > room {
            self.overflowed = true;
        }
        self.entries.extend((lo..lo + n.min(room)).map(PageId::new));
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` once at least one log was dropped for lack of space.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Lifetime count of log attempts (including dropped ones).
    pub fn total_logged(&self) -> u64 {
        self.total_logged
    }

    /// Takes the buffered entries and resets the ring (including the
    /// overflow flag). The caller must resync from the global bitmap if
    /// [`PmlRing::overflowed`] was set before harvesting.
    pub fn harvest(&mut self) -> Vec<PageId> {
        self.overflowed = false;
        std::mem::take(&mut self.entries)
    }

    /// Discards the buffered entries and resets the overflow flag, keeping
    /// the buffer's allocation — for callers that drop the ring's contents
    /// (the bitmap already holds every frame) rather than consume them.
    pub fn clear(&mut self) {
        self.overflowed = false;
        self.entries.clear();
    }
}

impl Default for PmlRing {
    fn default() -> Self {
        PmlRing::new()
    }
}

/// Combined per-VM dirty tracking state: one global bitmap plus one PML ring
/// per vCPU, as built by the paper's modified Xen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyTracker {
    bitmap: DirtyBitmap,
    rings: Vec<PmlRing>,
    logging_enabled: bool,
}

impl DirtyTracker {
    /// Creates tracking state for `num_pages` frames and `vcpus` vCPUs.
    ///
    /// # Panics
    ///
    /// Panics if `vcpus` is zero.
    pub fn new(num_pages: u64, vcpus: usize) -> Self {
        assert!(vcpus > 0, "a VM needs at least one vCPU");
        DirtyTracker {
            bitmap: DirtyBitmap::new(num_pages),
            rings: (0..vcpus).map(|_| PmlRing::new()).collect(),
            logging_enabled: false,
        }
    }

    /// Turns dirty logging on (the `XEN_DOMCTL_SHADOW_OP_ENABLE_LOGDIRTY`
    /// moment). Clears any stale state.
    pub fn enable_logging(&mut self) {
        self.logging_enabled = true;
        self.clear();
    }

    /// Clears the bitmap and empties every ring, keeping their buffers.
    pub(crate) fn clear(&mut self) {
        self.bitmap.clear();
        for ring in &mut self.rings {
            ring.clear();
        }
    }

    /// Turns dirty logging off.
    pub fn disable_logging(&mut self) {
        self.logging_enabled = false;
    }

    /// `true` while dirty logging is active.
    pub fn logging_enabled(&self) -> bool {
        self.logging_enabled
    }

    /// Records a write by `vcpu_index` to `page` into both mechanisms.
    /// A no-op while logging is disabled.
    pub fn record_write(&mut self, page: PageId, vcpu_index: usize) {
        if !self.logging_enabled {
            return;
        }
        self.bitmap.mark(page);
        if let Some(ring) = self.rings.get_mut(vcpu_index) {
            ring.log(page);
        }
    }

    /// Records writes by `vcpu_index` to every frame of `[lo, hi)`, in
    /// ascending order, into both mechanisms — the same state as
    /// [`record_write`](DirtyTracker::record_write) per frame. A no-op
    /// while logging is disabled.
    pub fn record_run(&mut self, lo: u64, hi: u64, vcpu_index: usize) {
        if !self.logging_enabled {
            return;
        }
        self.bitmap.mark_run(lo, hi);
        if let Some(ring) = self.rings.get_mut(vcpu_index) {
            ring.log_run(lo, hi);
        }
    }

    /// The global bitmap.
    pub fn bitmap(&self) -> &DirtyBitmap {
        &self.bitmap
    }

    /// Mutable access to the global bitmap (the migration code's
    /// read-and-clear path).
    pub fn bitmap_mut(&mut self) -> &mut DirtyBitmap {
        &mut self.bitmap
    }

    /// The PML ring of `vcpu_index`, if it exists.
    pub fn ring(&self, vcpu_index: usize) -> Option<&PmlRing> {
        self.rings.get(vcpu_index)
    }

    /// Harvests the PML ring of `vcpu_index`: returns `(pages, overflowed)`.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu_index` is out of range.
    pub fn harvest_ring(&mut self, vcpu_index: usize) -> (Vec<PageId>, bool) {
        let ring = &mut self.rings[vcpu_index];
        let overflowed = ring.overflowed();
        (ring.harvest(), overflowed)
    }

    /// Number of vCPU rings.
    pub fn vcpu_count(&self) -> usize {
        self.rings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_mark_and_drain() {
        let mut bm = DirtyBitmap::new(256);
        for f in [0u64, 63, 64, 255] {
            bm.mark(PageId::new(f));
        }
        assert_eq!(bm.count(), 4);
        assert!(bm.is_dirty(PageId::new(63)));
        let drained = bm.drain();
        assert_eq!(
            drained,
            vec![0, 63, 64, 255]
                .into_iter()
                .map(PageId::new)
                .collect::<Vec<_>>()
        );
        assert!(bm.is_empty());
    }

    #[test]
    fn bitmap_ignores_out_of_range() {
        let mut bm = DirtyBitmap::new(10);
        bm.mark(PageId::new(100));
        assert_eq!(bm.count(), 0);
        assert!(!bm.is_dirty(PageId::new(100)));
    }

    #[test]
    fn bitmap_union() {
        let mut a = DirtyBitmap::new(128);
        let mut b = DirtyBitmap::new(128);
        a.mark(PageId::new(1));
        b.mark(PageId::new(1));
        b.mark(PageId::new(2));
        a.union_with(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn bitmap_lane_partition_is_disjoint_and_complete() {
        let mut bm = DirtyBitmap::new(4096);
        for f in (0..4096).step_by(3) {
            bm.mark(PageId::new(f));
        }
        let stride = 4;
        let pages_per_chunk = 512 / 4; // 2 MiB chunks of 4 KiB pages = 512; use small here
        let mut seen = Vec::new();
        for lane in 0..stride {
            seen.extend(bm.peek_lane(stride, lane, pages_per_chunk));
        }
        seen.sort();
        assert_eq!(seen, bm.peek());
    }

    #[test]
    fn iterator_matches_peek_and_ranges() {
        let mut bm = DirtyBitmap::new(1000);
        for f in [0u64, 1, 62, 63, 64, 65, 127, 128, 500, 999] {
            bm.mark(PageId::new(f));
        }
        assert_eq!(bm.iter().collect::<Vec<_>>(), bm.peek());
        for (lo, hi) in [
            (0, 1000),
            (0, 0),
            (63, 65),
            (64, 128),
            (1, 999),
            (900, 2000),
        ] {
            let via_iter: Vec<_> = bm.iter_range(lo, hi).collect();
            let expected: Vec<_> = bm
                .peek()
                .into_iter()
                .filter(|p| {
                    let f = p.frame();
                    f >= lo && f < hi.min(1000)
                })
                .collect();
            assert_eq!(via_iter, expected, "range [{lo}, {hi})");
            assert_eq!(bm.count_in_range(lo, hi), via_iter.len() as u64);
        }
    }

    #[test]
    fn drain_into_reuses_allocation() {
        let mut bm = DirtyBitmap::new(256);
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        for round in 0..3 {
            bm.mark(PageId::new(round));
            bm.mark(PageId::new(round + 100));
            bm.drain_into(&mut buf);
            assert_eq!(buf, vec![PageId::new(round), PageId::new(round + 100)]);
            assert!(bm.is_empty());
            assert_eq!(buf.capacity(), cap, "round {round} reallocated");
        }
    }

    #[test]
    fn pages_in_range_into_appends_across_chunks() {
        let mut bm = DirtyBitmap::new(512);
        for f in [10u64, 200, 300, 450] {
            bm.mark(PageId::new(f));
        }
        let mut out = Vec::new();
        bm.pages_in_range_into(0, 256, &mut out);
        bm.pages_in_range_into(256, 512, &mut out);
        assert_eq!(out, bm.peek());
    }

    #[test]
    fn pml_ring_overflow_semantics() {
        let mut ring = PmlRing::with_capacity(3);
        for f in 0..5 {
            ring.log(PageId::new(f));
        }
        assert!(ring.overflowed());
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_logged(), 5);
        let pages = ring.harvest();
        assert_eq!(pages.len(), 3);
        assert!(!ring.overflowed());
        assert!(ring.is_empty());
    }

    /// Marks `[lo, hi)` one frame at a time — the reference for
    /// [`DirtyBitmap::mark_run`].
    fn mark_each(bm: &mut DirtyBitmap, lo: u64, hi: u64) {
        for f in lo..hi {
            bm.mark(PageId::new(f));
        }
    }

    fn popcount(bm: &DirtyBitmap) -> u64 {
        bm.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    #[test]
    fn mark_run_matches_per_frame_marks() {
        let ranges = [
            (5, 5),     // lo == hi
            (9, 3),     // inverted: empty
            (17, 18),   // a single bit
            (60, 70),   // straddles one word boundary
            (0, 64),    // exactly one word
            (1, 200),   // several words, unaligned both ends
            (150, 900), // hi past num_pages: clamped
            (300, 400), // lo past num_pages: nothing
        ];
        for (lo, hi) in ranges {
            let mut run = DirtyBitmap::new(257);
            let mut each = run.clone();
            run.mark_run(lo, hi);
            mark_each(&mut each, lo, hi);
            assert_eq!(run, each, "range [{lo}, {hi})");
            assert_eq!(run.count(), popcount(&run), "range [{lo}, {hi})");
        }
    }

    #[test]
    fn mark_run_counts_only_newly_dirty_bits() {
        let mut bm = DirtyBitmap::new(300);
        for f in [3u64, 63, 64, 100, 299] {
            bm.mark(PageId::new(f));
        }
        let mut each = bm.clone();
        bm.mark_run(50, 120);
        mark_each(&mut each, 50, 120);
        assert_eq!(bm, each);
        // The 70 frames of the run (63, 64 and 100 were already dirty and
        // count once) plus the two dirty frames outside it.
        assert_eq!(bm.count(), 70 + 2);
        assert_eq!(bm.count(), popcount(&bm));
        bm.mark_run(0, 300);
        assert_eq!(bm.count(), 300);
        assert_eq!(bm.count(), popcount(&bm));
    }

    #[test]
    fn log_run_overflowing_mid_run_keeps_the_first_frames() {
        let mut run = PmlRing::with_capacity(8);
        let mut each = run.clone();
        for ring in [&mut run, &mut each] {
            ring.log(PageId::new(1000));
            ring.log(PageId::new(1001));
        }
        // Room for 6 more; the run offers 10.
        run.log_run(20, 30);
        for f in 20..30 {
            each.log(PageId::new(f));
        }
        assert_eq!(run, each);
        assert!(run.overflowed());
        assert_eq!(run.len(), 8);
        assert_eq!(run.total_logged(), 12);
        let kept = run.harvest();
        assert_eq!(kept[2..], (20..26).map(PageId::new).collect::<Vec<_>>()[..]);
        // A full ring drops a whole run but still counts it.
        let mut full = PmlRing::with_capacity(2);
        full.log_run(0, 2);
        assert!(!full.overflowed());
        full.log_run(5, 9);
        assert!(full.overflowed());
        assert_eq!(full.len(), 2);
        assert_eq!(full.total_logged(), 6);
        // An empty run changes nothing.
        let mut quiet = PmlRing::with_capacity(1);
        quiet.log_run(4, 4);
        quiet.log_run(4, 1);
        assert_eq!(quiet, PmlRing::with_capacity(1));
    }

    #[test]
    fn clear_empties_the_ring_and_keeps_its_buffer() {
        let mut ring = PmlRing::with_capacity(4);
        ring.log_run(0, 6);
        let cap = ring.entries.capacity();
        ring.clear();
        assert!(ring.is_empty());
        assert!(!ring.overflowed());
        assert_eq!(ring.total_logged(), 6);
        assert_eq!(ring.entries.capacity(), cap);
    }

    #[test]
    fn tracker_routes_writes_to_both_mechanisms() {
        let mut t = DirtyTracker::new(1024, 2);
        t.record_write(PageId::new(10), 0); // logging disabled: dropped
        assert_eq!(t.bitmap().count(), 0);
        t.enable_logging();
        t.record_write(PageId::new(10), 0);
        t.record_write(PageId::new(20), 1);
        assert_eq!(t.bitmap().count(), 2);
        assert_eq!(t.ring(0).unwrap().len(), 1);
        assert_eq!(t.ring(1).unwrap().len(), 1);
        let (pages, overflow) = t.harvest_ring(0);
        assert_eq!(pages, vec![PageId::new(10)]);
        assert!(!overflow);
    }

    #[test]
    fn tracker_enable_clears_stale_state() {
        let mut t = DirtyTracker::new(64, 1);
        t.enable_logging();
        t.record_write(PageId::new(1), 0);
        t.enable_logging();
        assert_eq!(t.bitmap().count(), 0);
        assert!(t.ring(0).unwrap().is_empty());
        assert!(t.rings[0].entries.capacity() > 0, "ring buffer was dropped");
    }
}
