//! Frame numbers and frame ranges.
//!
//! Following Xen's terminology (paper §4.1):
//!
//! * **Machine memory** is the physical RAM of the host, addressed by
//!   *machine frame numbers* ([`Mfn`]), numbered consecutively from 0.
//! * **Pseudo-physical memory** is the contiguous physical memory illusion
//!   given to each domain, addressed by *physical frame numbers* ([`Pfn`]),
//!   also numbered from 0 per domain.
//!
//! The P2M-mapping table (see [`crate::p2m`]) records the Pfn→Mfn mapping
//! that lets a rebooted VMM re-reserve exactly the frames a frozen domain
//! owns.

use std::fmt;
use std::ops::Add;

/// Size of one page frame in bytes (4 KiB, as on x86).
pub const PAGE_SIZE: u64 = 4096;

/// Number of frames in one GiB.
pub const FRAMES_PER_GIB: u64 = (1 << 30) / PAGE_SIZE;

/// Converts a byte count to the number of frames needed to hold it
/// (rounding up).
pub const fn frames_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// Converts a frame count to bytes.
const fn bytes_for_frames(frames: u64) -> u64 {
    frames * PAGE_SIZE
}

/// A machine frame number: an index into the host's physical RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mfn(pub u64);

/// A pseudo-physical frame number: an index into one domain's contiguous
/// physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl fmt::Display for Mfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mfn:{:#x}", self.0)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

impl Add<u64> for Mfn {
    type Output = Mfn;
    fn add(self, rhs: u64) -> Mfn {
        Mfn(self.0 + rhs)
    }
}

impl Add<u64> for Pfn {
    type Output = Pfn;
    fn add(self, rhs: u64) -> Pfn {
        Pfn(self.0 + rhs)
    }
}

/// A contiguous run of machine frames `[start, start + count)`.
///
/// The allocator hands out extents rather than individual frames so that an
/// 11 GiB domain is described by a handful of ranges instead of millions of
/// entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRange {
    /// First frame of the run.
    pub start: Mfn,
    /// Number of frames in the run (always > 0 for ranges built with
    /// [`FrameRange::new`]).
    pub count: u64,
}

impl FrameRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(start: Mfn, count: u64) -> Self {
        assert!(count > 0, "FrameRange must be non-empty");
        FrameRange { start, count }
    }

    /// One past the last frame.
    pub fn end(&self) -> Mfn {
        Mfn(self.start.0 + self.count)
    }

    /// Bytes covered by this range.
    pub fn bytes(&self) -> u64 {
        bytes_for_frames(self.count)
    }

    /// True if `mfn` falls inside the range.
    pub fn contains(&self, mfn: Mfn) -> bool {
        mfn >= self.start && mfn < self.end()
    }

    /// True if the two ranges share any frame.
    pub fn overlaps(&self, other: &FrameRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Iterates over every frame in the range.
    pub fn iter(&self) -> impl Iterator<Item = Mfn> {
        let s = self.start.0;
        (s..s + self.count).map(Mfn)
    }
}

impl fmt::Display for FrameRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end())
    }
}

/// Total frames covered by a slice of ranges.
pub fn total_frames(ranges: &[FrameRange]) -> u64 {
    ranges.iter().map(|r| r.count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(frames_for_bytes(0), 0);
        assert_eq!(frames_for_bytes(1), 1);
        assert_eq!(frames_for_bytes(PAGE_SIZE), 1);
        assert_eq!(frames_for_bytes(PAGE_SIZE + 1), 2);
        assert_eq!(bytes_for_frames(FRAMES_PER_GIB), 1 << 30);
        assert_eq!(FRAMES_PER_GIB, 262_144);
    }

    #[test]
    fn range_geometry() {
        let r = FrameRange::new(Mfn(100), 50);
        assert_eq!(r.end(), Mfn(150));
        assert_eq!(r.bytes(), 50 * PAGE_SIZE);
        assert!(r.contains(Mfn(100)));
        assert!(r.contains(Mfn(149)));
        assert!(!r.contains(Mfn(150)));
        assert!(!r.contains(Mfn(99)));
    }

    #[test]
    fn range_overlap() {
        let a = FrameRange::new(Mfn(0), 10);
        let b = FrameRange::new(Mfn(9), 10);
        let c = FrameRange::new(Mfn(10), 10);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn range_iteration() {
        let r = FrameRange::new(Mfn(5), 3);
        let v: Vec<Mfn> = r.iter().collect();
        assert_eq!(v, vec![Mfn(5), Mfn(6), Mfn(7)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = FrameRange::new(Mfn(0), 0);
    }

    #[test]
    fn total_frames_sums() {
        let ranges = [FrameRange::new(Mfn(0), 10), FrameRange::new(Mfn(100), 5)];
        assert_eq!(total_frames(&ranges), 15);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Mfn(16).to_string(), "mfn:0x10");
        assert_eq!(Pfn(16).to_string(), "pfn:0x10");
        assert_eq!(FrameRange::new(Mfn(0), 2).to_string(), "[mfn:0x0..mfn:0x2)");
    }
}
