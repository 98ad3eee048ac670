//! Sparse, versioned guest physical memory.
//!
//! Replication cost in the paper is a function of *which 4 KiB pages are
//! dirty*, not of their payloads, so guest memory stores an 8-byte version
//! record per page instead of 4 KiB of bytes (see DESIGN.md, substitution
//! table). A page's byte content is derived deterministically from
//! `(frame, version)` by [`GuestMemory::materialize`], which lets the state
//! translator and wire codec be tested against full 4 KiB images while a
//! 20 GiB guest costs ~40 MiB of host memory.

use serde::{Deserialize, Serialize};

use here_sim_core::rate::ByteSize;

use crate::error::{HvError, HvResult};
use crate::vcpu::VcpuId;

/// Logical guest page size in bytes (x86 small page).
pub const PAGE_SIZE: u64 = 4096;

/// A guest physical frame number.
///
/// # Examples
///
/// ```
/// use here_hypervisor::memory::{PageId, PAGE_SIZE};
///
/// let p = PageId::new(3);
/// assert_eq!(p.guest_phys_addr(), 3 * PAGE_SIZE);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PageId(u64);

impl PageId {
    /// Creates the id of frame number `frame`.
    pub const fn new(frame: u64) -> Self {
        PageId(frame)
    }

    /// The frame number.
    pub const fn frame(self) -> u64 {
        self.0
    }

    /// The guest-physical address of the first byte of the page.
    pub const fn guest_phys_addr(self) -> u64 {
        self.0 * PAGE_SIZE
    }
}

impl From<u64> for PageId {
    fn from(frame: u64) -> Self {
        PageId(frame)
    }
}

/// Per-page record: the content version and the last writing vCPU.
///
/// Version 0 means "never written" (an all-zeroes page, as delivered by a
/// freshly ballooned guest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PageVersion {
    /// Monotonic per-page write counter; 0 = pristine zero page.
    pub version: u32,
    /// The vCPU that performed the most recent write (0 if pristine).
    pub last_writer: u16,
}

/// The guest physical address space of one VM.
///
/// # Examples
///
/// ```
/// use here_hypervisor::memory::{GuestMemory, PageId};
/// use here_hypervisor::vcpu::VcpuId;
/// use here_sim_core::rate::ByteSize;
///
/// let mut mem = GuestMemory::new(ByteSize::from_mib(4)).unwrap();
/// assert_eq!(mem.num_pages(), 1024);
/// mem.write_page(PageId::new(7), VcpuId::new(0)).unwrap();
/// assert_eq!(mem.page(PageId::new(7)).unwrap().version, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GuestMemory {
    pages: Vec<PageVersion>,
    size: ByteSize,
    touched: u64,
}

impl GuestMemory {
    /// Allocates a guest address space of `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidConfig`] if `size` is zero or not a
    /// multiple of [`PAGE_SIZE`].
    pub fn new(size: ByteSize) -> HvResult<Self> {
        let bytes = size.as_bytes();
        if bytes == 0 || !bytes.is_multiple_of(PAGE_SIZE) {
            return Err(HvError::InvalidConfig(format!(
                "guest memory size {bytes} must be a positive multiple of {PAGE_SIZE}"
            )));
        }
        let num_pages = bytes / PAGE_SIZE;
        Ok(GuestMemory {
            pages: vec![PageVersion::default(); num_pages as usize],
            size,
            touched: 0,
        })
    }

    /// Total memory size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// Number of guest pages.
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of pages written at least once.
    pub fn touched_pages(&self) -> u64 {
        self.touched
    }

    /// The version record of `page`.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn page(&self, page: PageId) -> HvResult<PageVersion> {
        self.pages
            .get(page.frame() as usize)
            .copied()
            .ok_or(HvError::PageOutOfRange {
                page: page.frame(),
                limit: self.num_pages(),
            })
    }

    /// Records a guest write to `page` by `vcpu`, bumping its version.
    ///
    /// Returns the new version record.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn write_page(&mut self, page: PageId, vcpu: VcpuId) -> HvResult<PageVersion> {
        let limit = self.num_pages();
        let rec = self
            .pages
            .get_mut(page.frame() as usize)
            .ok_or(HvError::PageOutOfRange {
                page: page.frame(),
                limit,
            })?;
        if bump_version(rec, vcpu) {
            self.touched += 1;
        }
        Ok(*rec)
    }

    /// Records a guest write by `vcpu` to every frame of `[lo, hi)` — the
    /// range form of [`GuestMemory::write_page`] behind sequential sweeps,
    /// leaving exactly the state the per-page writes would. An empty range
    /// is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if the range reaches beyond the
    /// address space; no page is written then.
    pub fn write_run(&mut self, lo: u64, hi: u64, vcpu: VcpuId) -> HvResult<()> {
        if lo >= hi {
            return Ok(());
        }
        let limit = self.num_pages();
        if hi > limit {
            return Err(HvError::PageOutOfRange {
                page: lo.max(limit),
                limit,
            });
        }
        let fresh = self.pages[lo as usize..hi as usize]
            .iter_mut()
            .map(|rec| bump_version(rec, vcpu) as u64)
            .sum::<u64>();
        self.touched += fresh;
        Ok(())
    }

    /// Installs a page version received from a replication stream.
    ///
    /// Unlike [`GuestMemory::write_page`], this does not bump the version —
    /// it makes the local page identical to the sender's.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn install_page(&mut self, page: PageId, incoming: PageVersion) -> HvResult<()> {
        let limit = self.num_pages();
        let rec = self
            .pages
            .get_mut(page.frame() as usize)
            .ok_or(HvError::PageOutOfRange {
                page: page.frame(),
                limit,
            })?;
        if rec.version == 0 && incoming.version != 0 {
            self.touched += 1;
        } else if rec.version != 0 && incoming.version == 0 {
            self.touched -= 1;
        }
        *rec = incoming;
        Ok(())
    }

    /// Iterates over all `(page, version)` pairs with a non-zero version.
    pub fn touched_iter(&self) -> impl Iterator<Item = (PageId, PageVersion)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.version != 0)
            .map(|(i, rec)| (PageId::new(i as u64), *rec))
    }

    /// Materialises the full 4 KiB byte image of `page`.
    ///
    /// The bytes are a pure function of `(frame, version)`, so a page
    /// installed on the replica with the same version materialises to the
    /// identical image — this is how byte-exactness is asserted in tests
    /// without storing payloads.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::PageOutOfRange`] if `page` is beyond the address
    /// space.
    pub fn materialize(&self, page: PageId) -> HvResult<Box<[u8; PAGE_SIZE as usize]>> {
        let rec = self.page(page)?;
        Ok(materialize_content(page, rec))
    }

    /// `true` when every page of `self` matches `other` (same versions).
    pub fn content_equals(&self, other: &GuestMemory) -> bool {
        self.pages == other.pages
    }

    /// Returns the frames at which `self` and `other` differ (for test
    /// diagnostics). Capped at `max` entries.
    pub fn diff(&self, other: &GuestMemory, max: usize) -> Vec<PageId> {
        self.pages
            .iter()
            .zip(other.pages.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| PageId::new(i as u64))
            .take(max)
            .collect()
    }
}

/// Applies one guest write by `vcpu` to `rec`; returns `true` when the
/// page had never been written. Versions wrap past `u32::MAX` to 1, never
/// to the pristine 0.
#[inline]
fn bump_version(rec: &mut PageVersion, vcpu: VcpuId) -> bool {
    let fresh = rec.version == 0;
    rec.version = rec.version.wrapping_add(1).max(1);
    rec.last_writer = vcpu.index() as u16;
    fresh
}

/// Deterministically expands a page record into its 4 KiB byte image.
///
/// Version 0 is the all-zeroes page.
pub fn materialize_content(page: PageId, rec: PageVersion) -> Box<[u8; PAGE_SIZE as usize]> {
    let mut buf = Box::new([0u8; PAGE_SIZE as usize]);
    materialize_content_into(page, rec, &mut buf);
    buf
}

/// Allocation-free variant of [`materialize_content`]: expands the page
/// image into a caller-owned buffer.
pub fn materialize_content_into(
    page: PageId,
    rec: PageVersion,
    buf: &mut [u8; PAGE_SIZE as usize],
) {
    if rec.version == 0 {
        buf.fill(0);
        return;
    }
    let mut state = splitmix(
        page.frame()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(rec.version as u64)
            .wrapping_add((rec.last_writer as u64) << 32),
    );
    for chunk in buf.chunks_exact_mut(8) {
        state = splitmix(state);
        chunk.copy_from_slice(&state.to_le_bytes());
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_mib(mib: u64) -> GuestMemory {
        GuestMemory::new(ByteSize::from_mib(mib)).unwrap()
    }

    #[test]
    fn sizes_and_page_counts() {
        let mem = mem_mib(16);
        assert_eq!(mem.num_pages(), 4096);
        assert_eq!(mem.size(), ByteSize::from_mib(16));
        assert_eq!(mem.touched_pages(), 0);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(GuestMemory::new(ByteSize::ZERO).is_err());
        assert!(GuestMemory::new(ByteSize::from_bytes(4097)).is_err());
    }

    #[test]
    fn writes_bump_versions_and_record_writer() {
        let mut mem = mem_mib(1);
        let p = PageId::new(5);
        mem.write_page(p, VcpuId::new(2)).unwrap();
        mem.write_page(p, VcpuId::new(3)).unwrap();
        let rec = mem.page(p).unwrap();
        assert_eq!(rec.version, 2);
        assert_eq!(rec.last_writer, 3);
        assert_eq!(mem.touched_pages(), 1);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut mem = mem_mib(1);
        let bad = PageId::new(mem.num_pages());
        assert!(matches!(
            mem.write_page(bad, VcpuId::new(0)),
            Err(HvError::PageOutOfRange { .. })
        ));
        assert!(mem.page(bad).is_err());
        assert!(mem.materialize(bad).is_err());
    }

    #[test]
    fn write_run_matches_per_page_writes() {
        let mut run = mem_mib(1);
        let mut each = mem_mib(1);
        for mem in [&mut run, &mut each] {
            mem.write_page(PageId::new(12), VcpuId::new(1)).unwrap();
        }
        run.write_run(10, 40, VcpuId::new(3)).unwrap();
        for f in 10..40 {
            each.write_page(PageId::new(f), VcpuId::new(3)).unwrap();
        }
        assert_eq!(run, each);
        assert_eq!(run.touched_pages(), 30);
        assert_eq!(run.page(PageId::new(12)).unwrap().version, 2);
        // Empty and inverted ranges write nothing.
        run.write_run(50, 50, VcpuId::new(0)).unwrap();
        run.write_run(60, 55, VcpuId::new(0)).unwrap();
        assert_eq!(run, each);
    }

    #[test]
    fn write_run_out_of_range_leaves_memory_untouched() {
        let mut mem = mem_mib(1);
        let limit = mem.num_pages();
        let before = mem.clone();
        assert_eq!(
            mem.write_run(limit - 4, limit + 1, VcpuId::new(0)),
            Err(HvError::PageOutOfRange { page: limit, limit })
        );
        assert_eq!(mem, before);
        // The whole range may lie beyond the address space.
        assert!(mem.write_run(limit + 2, limit + 9, VcpuId::new(0)).is_err());
        assert_eq!(mem, before);
        mem.write_run(limit - 4, limit, VcpuId::new(0)).unwrap();
        assert_eq!(mem.touched_pages(), 4);
    }

    #[test]
    fn version_wrap_skips_the_pristine_zero() {
        let mut mem = mem_mib(1);
        let worn = PageVersion {
            version: u32::MAX,
            last_writer: 0,
        };
        for f in [3u64, 4] {
            mem.install_page(PageId::new(f), worn).unwrap();
        }
        mem.write_run(3, 5, VcpuId::new(2)).unwrap();
        for f in [3u64, 4] {
            let rec = mem.page(PageId::new(f)).unwrap();
            assert_eq!((rec.version, rec.last_writer), (1, 2));
        }
        assert_eq!(mem.touched_pages(), 2, "a wrapped page is not new");
        mem.install_page(PageId::new(3), worn).unwrap();
        assert_eq!(
            mem.write_page(PageId::new(3), VcpuId::new(1))
                .unwrap()
                .version,
            1
        );
    }

    #[test]
    fn install_makes_replicas_identical() {
        let mut primary = mem_mib(1);
        let mut replica = mem_mib(1);
        for f in [1u64, 9, 200] {
            primary.write_page(PageId::new(f), VcpuId::new(0)).unwrap();
        }
        for (page, rec) in primary.touched_iter().collect::<Vec<_>>() {
            replica.install_page(page, rec).unwrap();
        }
        assert!(primary.content_equals(&replica));
        assert_eq!(replica.touched_pages(), 3);
        assert!(primary.diff(&replica, 10).is_empty());
    }

    #[test]
    fn materialization_is_deterministic_and_version_sensitive() {
        let mut mem = mem_mib(1);
        let p = PageId::new(3);
        let zero = mem.materialize(p).unwrap();
        assert!(zero.iter().all(|&b| b == 0));
        mem.write_page(p, VcpuId::new(1)).unwrap();
        let v1a = mem.materialize(p).unwrap();
        let v1b = mem.materialize(p).unwrap();
        assert_eq!(v1a, v1b);
        mem.write_page(p, VcpuId::new(1)).unwrap();
        let v2 = mem.materialize(p).unwrap();
        assert_ne!(v1a, v2);
    }

    #[test]
    fn diff_reports_divergent_frames() {
        let mut a = mem_mib(1);
        let b = mem_mib(1);
        a.write_page(PageId::new(4), VcpuId::new(0)).unwrap();
        a.write_page(PageId::new(8), VcpuId::new(0)).unwrap();
        let d = a.diff(&b, 10);
        assert_eq!(d, vec![PageId::new(4), PageId::new(8)]);
        assert_eq!(a.diff(&b, 1).len(), 1);
    }

    #[test]
    fn touched_iter_lists_only_written_pages() {
        let mut mem = mem_mib(1);
        mem.write_page(PageId::new(0), VcpuId::new(0)).unwrap();
        mem.write_page(PageId::new(255), VcpuId::new(1)).unwrap();
        let touched: Vec<u64> = mem.touched_iter().map(|(p, _)| p.frame()).collect();
        assert_eq!(touched, vec![0, 255]);
    }
}
