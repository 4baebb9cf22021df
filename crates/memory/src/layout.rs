//! Machine memory layout: where the preserved structures live.
//!
//! Quick reload works because three kinds of state sit at *known,
//! re-reservable* places in machine memory (paper §4.2–4.3):
//!
//! 1. the **VMM image region** (text/data/heap) at the bottom of memory —
//!    the new executable is copied over the old one,
//! 2. the **P2M-mapping tables**, 8 bytes per guest page (2 MB per GB),
//! 3. the **execution-state slots**, 16 KB per suspended domain.
//!
//! [`MemoryLayout`] computes the placement and footprint of those regions
//! for a given machine/domain configuration, and emits the ordered
//! reservation list a fresh VMM instance must replay before its allocator
//! serves anything else.

use std::fmt;

use crate::frame::{frames_for_bytes, FrameRange, Mfn, PAGE_SIZE};
use crate::p2m::BYTES_PER_ENTRY;

/// Why a region is reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionPurpose {
    /// The hypervisor's own text, data and heap.
    VmmImage,
    /// A domain's P2M-mapping table.
    P2mTable {
        /// Owning domain (caller-chosen id).
        domain: u32,
    },
    /// A domain's saved execution state.
    ExecState {
        /// Owning domain.
        domain: u32,
    },
}

impl fmt::Display for RegionPurpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionPurpose::VmmImage => write!(f, "vmm-image"),
            RegionPurpose::P2mTable { domain } => write!(f, "p2m[dom{domain}]"),
            RegionPurpose::ExecState { domain } => write!(f, "exec[dom{domain}]"),
        }
    }
}

/// One reserved region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// What lives here.
    pub purpose: RegionPurpose,
    /// The frames it occupies.
    pub frames: FrameRange,
}

impl Region {
    /// Bytes covered.
    pub fn bytes(&self) -> u64 {
        self.frames.bytes()
    }
}

/// The preserved-region layout for one host configuration.
///
/// # Examples
///
/// ```
/// use rh_memory::layout::MemoryLayout;
///
/// // A 12 GiB host with three 1 GiB domains.
/// let layout = MemoryLayout::plan(64 << 20, &[(1, 1 << 30), (2, 1 << 30), (3, 1 << 30)], 16 * 1024);
/// // Three P2M tables of 2 MiB each plus three 16 KiB exec slots.
/// assert_eq!(layout.p2m_bytes(), 3 * 2 * 1024 * 1024);
/// assert_eq!(layout.exec_state_bytes(), 3 * 16 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    regions: Vec<Region>,
}

impl MemoryLayout {
    /// Plans the layout: the VMM image of `vmm_bytes` at frame 0, then
    /// each domain's P2M table and execution-state slot packed above it.
    /// `domains` is `(id, pseudo-physical bytes)`.
    pub fn plan(vmm_bytes: u64, domains: &[(u32, u64)], exec_state_bytes: u64) -> Self {
        let mut regions = Vec::new();
        let mut cursor = 0u64;
        let mut push = |purpose: RegionPurpose, bytes: u64, cursor: &mut u64| {
            let count = frames_for_bytes(bytes).max(1);
            regions.push(Region {
                purpose,
                frames: FrameRange::new(Mfn(*cursor), count),
            });
            *cursor += count;
        };
        push(RegionPurpose::VmmImage, vmm_bytes, &mut cursor);
        for &(id, mem_bytes) in domains {
            let pages = mem_bytes / PAGE_SIZE;
            push(
                RegionPurpose::P2mTable { domain: id },
                pages * BYTES_PER_ENTRY,
                &mut cursor,
            );
            push(
                RegionPurpose::ExecState { domain: id },
                exec_state_bytes,
                &mut cursor,
            );
        }
        MemoryLayout { regions }
    }

    /// The regions in reservation order (VMM image first, then per-domain
    /// metadata) — the order quick reload must replay.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes across all regions.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes()).sum()
    }

    /// Bytes of P2M tables.
    pub fn p2m_bytes(&self) -> u64 {
        self.purpose_bytes(|p| matches!(p, RegionPurpose::P2mTable { .. }))
    }

    /// Bytes of execution-state slots.
    pub fn exec_state_bytes(&self) -> u64 {
        self.purpose_bytes(|p| matches!(p, RegionPurpose::ExecState { .. }))
    }

    fn purpose_bytes(&self, f: impl Fn(&RegionPurpose) -> bool) -> u64 {
        self.regions
            .iter()
            .filter(|r| f(&r.purpose))
            .map(|r| r.bytes())
            .sum()
    }

    /// Checks that no two regions overlap and everything fits below
    /// `total_frames`.
    pub fn check(&self, total_frames: u64) -> Result<(), String> {
        let mut sorted: Vec<&Region> = self.regions.iter().collect();
        sorted.sort_by_key(|r| r.frames.start);
        for w in sorted.windows(2) {
            if w[0].frames.overlaps(&w[1].frames) {
                return Err(format!(
                    "regions {} and {} overlap",
                    w[0].purpose, w[1].purpose
                ));
            }
        }
        if let Some(last) = sorted.last() {
            if last.frames.end().0 > total_frames {
                return Err(format!("layout exceeds machine memory at {}", last.purpose));
            }
        }
        Ok(())
    }
}

impl fmt::Display for MemoryLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.regions {
            writeln!(
                f,
                "{:<14} {:>10} bytes at {}",
                r.purpose.to_string(),
                r.bytes(),
                r.frames
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAMES_PER_GIB;

    #[test]
    fn paper_configuration_footprint() {
        // 11 × 1 GiB domains: 22 MiB of P2M tables + 176 KiB of exec state
        // (the paper's §4.1/§4.2 numbers), preserved across quick reload.
        let domains: Vec<(u32, u64)> = (1..=11).map(|i| (i, 1u64 << 30)).collect();
        let layout = MemoryLayout::plan(64 << 20, &domains, 16 * 1024);
        assert_eq!(layout.p2m_bytes(), 22 * 1024 * 1024);
        assert_eq!(layout.exec_state_bytes(), 11 * 16 * 1024);
        layout.check(12 * FRAMES_PER_GIB).unwrap();
        // 1 (vmm) + 2 per domain.
        assert_eq!(layout.regions().len(), 23);
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let layout = MemoryLayout::plan(1 << 20, &[(1, 1 << 30), (2, 2 << 30)], 16 * 1024);
        layout.check(4 * FRAMES_PER_GIB).unwrap();
        let regions = layout.regions();
        assert_eq!(regions[0].purpose, RegionPurpose::VmmImage);
        for w in regions.windows(2) {
            assert_eq!(w[0].frames.end(), w[1].frames.start, "densely packed");
        }
    }

    #[test]
    fn layout_overflow_is_detected() {
        let layout = MemoryLayout::plan(1 << 30, &[(1, 1 << 30)], 16 * 1024);
        assert!(layout.check(1000).is_err());
    }

    #[test]
    fn tiny_regions_round_up_to_a_frame() {
        let layout = MemoryLayout::plan(100, &[(1, PAGE_SIZE)], 10);
        for r in layout.regions() {
            assert!(r.frames.count >= 1);
        }
        // 16 KiB exec slot spec of 10 bytes still occupies one frame.
        assert_eq!(layout.exec_state_bytes(), PAGE_SIZE);
    }

    #[test]
    fn display_lists_every_region() {
        let layout = MemoryLayout::plan(1 << 20, &[(7, 1 << 30)], 16 * 1024);
        let s = layout.to_string();
        assert!(s.contains("vmm-image"));
        assert!(s.contains("p2m[dom7]"));
        assert!(s.contains("exec[dom7]"));
    }
}
