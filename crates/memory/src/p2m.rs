//! The P2M-mapping table (paper §4.1).
//!
//! For each domain, the VMM records the mapping from pseudo-physical frame
//! numbers (PFN) to machine frame numbers (MFN). The table is the anchor of
//! the warm-VM reboot: it is placed in memory preserved across the quick
//! reload, and the new VMM instance replays it to re-reserve every frame a
//! frozen domain owns before its own allocator can touch them.
//!
//! The paper gives the table's size as **2 MB per 1 GB of pseudo-physical
//! memory** — 8 bytes per 4 KiB page — which [`P2mTable::size_bytes`]
//! reproduces. Entries are added when frames are allocated to a domain and
//! removed when frames are deallocated (e.g. by ballooning), and the table
//! stays correct even when total pseudo-physical memory exceeds machine
//! memory thanks to ballooning.

use std::collections::BTreeMap;
use std::fmt;

use crate::frame::{FrameRange, Mfn, Pfn};

/// Bytes per table entry (one 64-bit MFN per page).
pub const BYTES_PER_ENTRY: u64 = 8;

/// Errors from P2M table manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P2mError {
    /// The PFN range `[start, start+count)` overlaps an existing mapping.
    PfnOverlap(Pfn, u64),
    /// The requested unmap range is not fully mapped.
    NotMapped(Pfn, u64),
}

impl fmt::Display for P2mError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P2mError::PfnOverlap(p, c) => {
                write!(f, "pfn range [{p}, +{c}) overlaps existing mapping")
            }
            P2mError::NotMapped(p, c) => write!(f, "pfn range [{p}, +{c}) is not fully mapped"),
        }
    }
}

impl std::error::Error for P2mError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    mfn_start: u64,
    count: u64,
}

/// One domain's PFN→MFN mapping, stored as range-compressed extents.
///
/// # Examples
///
/// ```
/// use rh_memory::frame::{FrameRange, Mfn, Pfn, FRAMES_PER_GIB};
/// use rh_memory::p2m::P2mTable;
///
/// let mut p2m = P2mTable::new();
/// p2m.map(Pfn(0), FrameRange::new(Mfn(0x1000), FRAMES_PER_GIB))?;
/// assert_eq!(p2m.lookup(Pfn(5)), Some(Mfn(0x1005)));
/// // 2 MB of table per 1 GB of pseudo-physical memory (paper §4.1).
/// assert_eq!(p2m.size_bytes(), 2 * 1024 * 1024);
/// # Ok::<(), rh_memory::p2m::P2mError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct P2mTable {
    extents: BTreeMap<u64, Extent>,
    total: u64,
    /// Monotonic mutation counter (bumped by `map`/`unmap`/`clear`/
    /// `corrupt_extent`); bookkeeping only, excluded from equality.
    epoch: u64,
}

/// Equality compares the mapping itself, not the mutation history: two
/// tables describing the same PFN→MFN function are equal regardless of how
/// they got there.
impl PartialEq for P2mTable {
    fn eq(&self, other: &Self) -> bool {
        self.extents == other.extents && self.total == other.total
    }
}

impl Eq for P2mTable {}

impl P2mTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        P2mTable::default()
    }

    /// The mutation epoch: increments on every call that changes the
    /// mapping ([`map`](Self::map), [`unmap`](Self::unmap),
    /// [`unmap_top`](Self::unmap_top), [`clear`](Self::clear),
    /// [`corrupt_extent`](Self::corrupt_extent)). An unchanged epoch
    /// guarantees an unchanged PFN→MFN function — what tells an
    /// incremental snapshot chain it still describes this mapping (see
    /// [`FrameContents::unchanged_since`](crate::contents::FrameContents::unchanged_since)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total mapped pages.
    pub fn total_pages(&self) -> u64 {
        self.total
    }

    /// True if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The memory footprint of the table itself (8 bytes per page).
    pub fn size_bytes(&self) -> u64 {
        self.total * BYTES_PER_ENTRY
    }

    /// Number of stored extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// One past the highest mapped PFN, or 0 if empty.
    pub fn pfn_limit(&self) -> u64 {
        self.extents
            .iter()
            .next_back()
            .map(|(&s, e)| s + e.count)
            .unwrap_or(0)
    }

    /// Maps the machine range `frames` at consecutive PFNs starting at
    /// `pfn_start`. Mapping an empty range is a no-op.
    ///
    /// # Errors
    ///
    /// [`P2mError::PfnOverlap`] if any PFN in the target range is mapped.
    pub fn map(&mut self, pfn_start: Pfn, frames: FrameRange) -> Result<(), P2mError> {
        if frames.count == 0 {
            // A zero-count extent must never enter the map: it would shadow
            // `lookup` of PFNs covered by a lower-keyed neighbour (the
            // BTreeMap range-scan stops at the empty extent's key).
            return Ok(());
        }
        let lo = pfn_start.0;
        let hi = lo + frames.count;
        let overlapping = self
            .extents
            .range(..hi)
            .next_back()
            .is_some_and(|(&s, e)| s + e.count > lo);
        if overlapping {
            return Err(P2mError::PfnOverlap(pfn_start, frames.count));
        }
        self.extents.insert(
            lo,
            Extent {
                mfn_start: frames.start.0,
                count: frames.count,
            },
        );
        self.total += frames.count;
        self.epoch += 1;
        Ok(())
    }

    /// Maps several machine ranges at consecutive PFNs starting at
    /// `pfn_start`, in order.
    ///
    /// # Errors
    ///
    /// Propagates [`P2mError::PfnOverlap`]; mappings made before the error
    /// remain (callers treat this as fatal).
    pub fn map_contiguous(
        &mut self,
        pfn_start: Pfn,
        ranges: &[FrameRange],
    ) -> Result<(), P2mError> {
        let mut pfn = pfn_start.0;
        for r in ranges {
            self.map(Pfn(pfn), *r)?;
            pfn += r.count;
        }
        Ok(())
    }

    /// Looks up the machine frame behind a pseudo-physical frame.
    pub fn lookup(&self, pfn: Pfn) -> Option<Mfn> {
        let (&start, ext) = self.extents.range(..=pfn.0).next_back()?;
        if pfn.0 < start + ext.count {
            Some(Mfn(ext.mfn_start + (pfn.0 - start)))
        } else {
            None
        }
    }

    /// Unmaps `[pfn_start, pfn_start + count)`, returning the released
    /// machine ranges (in ascending PFN order). Splits extents as needed.
    ///
    /// # Errors
    ///
    /// [`P2mError::NotMapped`] if the range is not fully mapped; the table
    /// is unchanged on error.
    pub fn unmap(&mut self, pfn_start: Pfn, count: u64) -> Result<Vec<FrameRange>, P2mError> {
        let lo = pfn_start.0;
        let hi = lo + count;
        // Verify full coverage first (atomicity).
        let mut covered = lo;
        while covered < hi {
            match self.extents.range(..=covered).next_back() {
                Some((&s, e)) if covered < s + e.count => covered = s + e.count,
                _ => return Err(P2mError::NotMapped(pfn_start, count)),
            }
        }
        // Remove, splitting boundary extents.
        let keys: Vec<u64> = self
            .extents
            .range(..hi)
            .filter(|(&s, e)| s + e.count > lo)
            .map(|(&s, _)| s)
            .collect();
        let mut released = Vec::new();
        for s in keys {
            let Some(ext) = self.extents.remove(&s) else {
                continue; // unreachable: keys were collected from this map above
            };
            let e_end = s + ext.count;
            let cut_lo = lo.max(s);
            let cut_hi = hi.min(e_end);
            if s < cut_lo {
                self.extents.insert(
                    s,
                    Extent {
                        mfn_start: ext.mfn_start,
                        count: cut_lo - s,
                    },
                );
            }
            if cut_hi < e_end {
                self.extents.insert(
                    cut_hi,
                    Extent {
                        mfn_start: ext.mfn_start + (cut_hi - s),
                        count: e_end - cut_hi,
                    },
                );
            }
            released.push(FrameRange::new(
                Mfn(ext.mfn_start + (cut_lo - s)),
                cut_hi - cut_lo,
            ));
            self.total -= cut_hi - cut_lo;
        }
        self.epoch += 1;
        Ok(released)
    }

    /// Unmaps the `count` highest-numbered pages (the balloon driver's
    /// release path), returning the released machine ranges.
    ///
    /// # Errors
    ///
    /// [`P2mError::NotMapped`] if fewer than `count` pages are mapped.
    pub fn unmap_top(&mut self, count: u64) -> Result<Vec<FrameRange>, P2mError> {
        if count > self.total {
            return Err(P2mError::NotMapped(Pfn(0), count));
        }
        let mut remaining = count;
        let mut released = Vec::new();
        // `count <= self.total` was checked above, so the map cannot run dry
        // before `remaining` does; the loop form keeps that panic-free.
        while remaining > 0 {
            let Some((&s, ext)) = self.extents.iter().next_back() else {
                break;
            };
            let take = ext.count.min(remaining);
            let ext = *ext;
            self.extents.remove(&s);
            if take < ext.count {
                self.extents.insert(
                    s,
                    Extent {
                        mfn_start: ext.mfn_start,
                        count: ext.count - take,
                    },
                );
            }
            released.push(FrameRange::new(
                Mfn(ext.mfn_start + (ext.count - take)),
                take,
            ));
            self.total -= take;
            remaining -= take;
        }
        self.epoch += 1;
        Ok(released)
    }

    /// Resolves the pseudo-physical range `[pfn_start, pfn_start + count)`
    /// into its backing machine ranges, in ascending PFN order, or `None`
    /// if the range is not fully mapped.
    pub fn resolve_range(&self, pfn_start: Pfn, count: u64) -> Option<Vec<FrameRange>> {
        let lo = pfn_start.0;
        let hi = lo + count;
        let mut out = Vec::new();
        let mut cursor = lo;
        while cursor < hi {
            let (&s, ext) = self.extents.range(..=cursor).next_back()?;
            if cursor >= s + ext.count {
                return None;
            }
            let cut_hi = hi.min(s + ext.count);
            out.push(FrameRange::new(
                Mfn(ext.mfn_start + (cursor - s)),
                cut_hi - cursor,
            ));
            cursor = cut_hi;
        }
        Some(out)
    }

    /// All machine ranges referenced by the table, in ascending PFN order.
    ///
    /// This is what quick reload replays through
    /// [`MachineMemory::reserve_exact`](crate::machine::MachineMemory::reserve_exact).
    pub fn machine_ranges(&self) -> Vec<FrameRange> {
        self.extents
            .values()
            .map(|e| FrameRange::new(Mfn(e.mfn_start), e.count))
            .collect()
    }

    /// Iterates `(pfn, machine range)` extents in ascending PFN order.
    pub fn iter_extents(&self) -> impl Iterator<Item = (Pfn, FrameRange)> + '_ {
        self.extents
            .iter()
            .map(|(&s, e)| (Pfn(s), FrameRange::new(Mfn(e.mfn_start), e.count)))
    }

    /// Iterates every `(pfn, mfn)` pair. O(total pages); prefer
    /// [`iter_extents`](Self::iter_extents) in hot paths.
    pub fn iter_pages(&self) -> impl Iterator<Item = (Pfn, Mfn)> + '_ {
        self.extents
            .iter()
            .flat_map(|(&s, e)| (0..e.count).map(move |i| (Pfn(s + i), Mfn(e.mfn_start + i))))
    }

    /// Clears the table.
    pub fn clear(&mut self) {
        self.extents.clear();
        self.total = 0;
        self.epoch += 1;
    }

    /// Fault injection: XORs the machine base of the `nth` extent
    /// (`nth` is reduced modulo the extent count) — the model of a stray
    /// write landing in the preserved table. A zero mask is forced to 1 so
    /// the entry always actually changes. Returns whether an extent existed
    /// to corrupt.
    pub fn corrupt_extent(&mut self, nth: usize, xor: u64) -> bool {
        if self.extents.is_empty() {
            return false;
        }
        let idx = nth % self.extents.len();
        let key = match self.extents.keys().nth(idx) {
            Some(&k) => k,
            None => return false,
        };
        if let Some(ext) = self.extents.get_mut(&key) {
            ext.mfn_start ^= if xor == 0 { 1 } else { xor };
            self.epoch += 1;
        }
        true
    }

    /// Checks that no two extents overlap in machine space (a corrupted
    /// table would let two PFNs alias one frame).
    pub fn check_machine_disjoint(&self) -> Result<(), String> {
        let mut ranges = self.machine_ranges();
        ranges.sort_by_key(|r| r.start);
        for w in ranges.windows(2) {
            if w[0].overlaps(&w[1]) {
                return Err(format!("machine ranges {} and {} overlap", w[0], w[1]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAMES_PER_GIB;

    fn fr(start: u64, count: u64) -> FrameRange {
        FrameRange::new(Mfn(start), count)
    }

    #[test]
    fn map_and_lookup() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(1000, 10)).unwrap();
        t.map(Pfn(10), fr(5000, 10)).unwrap();
        assert_eq!(t.lookup(Pfn(0)), Some(Mfn(1000)));
        assert_eq!(t.lookup(Pfn(9)), Some(Mfn(1009)));
        assert_eq!(t.lookup(Pfn(10)), Some(Mfn(5000)));
        assert_eq!(t.lookup(Pfn(19)), Some(Mfn(5009)));
        assert_eq!(t.lookup(Pfn(20)), None);
        assert_eq!(t.total_pages(), 20);
        assert_eq!(t.pfn_limit(), 20);
    }

    #[test]
    fn size_matches_paper_two_mb_per_gib() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(0, FRAMES_PER_GIB)).unwrap();
        assert_eq!(t.size_bytes(), 2 * 1024 * 1024);
        let mut t11 = P2mTable::new();
        t11.map(Pfn(0), fr(0, 11 * FRAMES_PER_GIB)).unwrap();
        assert_eq!(t11.size_bytes(), 22 * 1024 * 1024);
    }

    #[test]
    fn pfn_overlap_rejected() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(0, 10)).unwrap();
        assert!(matches!(
            t.map(Pfn(5), fr(100, 10)),
            Err(P2mError::PfnOverlap(_, _))
        ));
        assert!(matches!(
            t.map(Pfn(0), fr(100, 1)),
            Err(P2mError::PfnOverlap(_, _))
        ));
        // Adjacent is fine.
        t.map(Pfn(10), fr(100, 10)).unwrap();
    }

    #[test]
    fn map_contiguous_spans_fragmented_allocation() {
        let mut t = P2mTable::new();
        t.map_contiguous(Pfn(0), &[fr(0, 100), fr(500, 50)])
            .unwrap();
        assert_eq!(t.lookup(Pfn(99)), Some(Mfn(99)));
        assert_eq!(t.lookup(Pfn(100)), Some(Mfn(500)));
        assert_eq!(t.lookup(Pfn(149)), Some(Mfn(549)));
        assert_eq!(t.total_pages(), 150);
    }

    #[test]
    fn unmap_whole_extent() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(1000, 10)).unwrap();
        let released = t.unmap(Pfn(0), 10).unwrap();
        assert_eq!(released, vec![fr(1000, 10)]);
        assert!(t.is_empty());
    }

    #[test]
    fn unmap_splits_extent() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(1000, 100)).unwrap();
        let released = t.unmap(Pfn(40), 20).unwrap();
        assert_eq!(released, vec![fr(1040, 20)]);
        assert_eq!(t.lookup(Pfn(39)), Some(Mfn(1039)));
        assert_eq!(t.lookup(Pfn(40)), None);
        assert_eq!(t.lookup(Pfn(59)), None);
        assert_eq!(t.lookup(Pfn(60)), Some(Mfn(1060)));
        assert_eq!(t.total_pages(), 80);
        assert_eq!(t.extent_count(), 2);
    }

    #[test]
    fn unmap_unmapped_range_fails_atomically() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(0, 10)).unwrap();
        let err = t.unmap(Pfn(5), 10).unwrap_err();
        assert!(matches!(err, P2mError::NotMapped(_, _)));
        assert_eq!(t.total_pages(), 10, "table unchanged on error");
    }

    #[test]
    fn unmap_top_releases_highest_pages() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(0, 100)).unwrap();
        t.map(Pfn(100), fr(500, 100)).unwrap();
        let released = t.unmap_top(150).unwrap();
        // 100 from the top extent, 50 from the top of the bottom extent.
        assert_eq!(released, vec![fr(500, 100), fr(50, 50)]);
        assert_eq!(t.total_pages(), 50);
        assert_eq!(t.pfn_limit(), 50);
        assert!(t.unmap_top(100).is_err());
    }

    #[test]
    fn machine_ranges_round_trip() {
        let mut t = P2mTable::new();
        t.map_contiguous(Pfn(0), &[fr(10, 5), fr(100, 7)]).unwrap();
        assert_eq!(t.machine_ranges(), vec![fr(10, 5), fr(100, 7)]);
        t.check_machine_disjoint().unwrap();
    }

    #[test]
    fn machine_overlap_detected() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(0, 10)).unwrap();
        // A buggy caller maps the same machine frames at another PFN.
        t.map(Pfn(100), fr(5, 10)).unwrap();
        assert!(t.check_machine_disjoint().is_err());
    }

    #[test]
    fn iter_pages_covers_everything() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(50, 3)).unwrap();
        let pages: Vec<(Pfn, Mfn)> = t.iter_pages().collect();
        assert_eq!(
            pages,
            vec![(Pfn(0), Mfn(50)), (Pfn(1), Mfn(51)), (Pfn(2), Mfn(52))]
        );
    }

    #[test]
    fn resolve_range_spans_extents() {
        let mut t = P2mTable::new();
        t.map_contiguous(Pfn(0), &[fr(100, 10), fr(500, 10)])
            .unwrap();
        assert_eq!(
            t.resolve_range(Pfn(5), 10).unwrap(),
            vec![fr(105, 5), fr(500, 5)]
        );
        assert_eq!(
            t.resolve_range(Pfn(0), 20).unwrap(),
            vec![fr(100, 10), fr(500, 10)]
        );
        assert!(t.resolve_range(Pfn(15), 10).is_none(), "partially unmapped");
        assert!(t.resolve_range(Pfn(30), 1).is_none());
    }

    #[test]
    fn clear_empties_table() {
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(0, 10)).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.extent_count(), 0);
    }

    #[test]
    fn map_contiguous_overlap_fails_but_keeps_earlier_mappings() {
        let mut t = P2mTable::new();
        t.map(Pfn(10), fr(900, 5)).unwrap();
        // Second range of the batch collides with the pre-existing extent;
        // the first range stays mapped (documented fatal-error semantics).
        let err = t.map_contiguous(Pfn(0), &[fr(100, 10), fr(200, 10)]);
        assert!(matches!(err, Err(P2mError::PfnOverlap(_, _))));
        assert_eq!(t.lookup(Pfn(0)), Some(Mfn(100)));
        assert_eq!(t.lookup(Pfn(9)), Some(Mfn(109)));
        assert_eq!(t.lookup(Pfn(10)), Some(Mfn(900)));
        assert_eq!(t.total_pages(), 15);
    }

    #[test]
    fn remap_of_frozen_pfn_rejected_and_table_intact() {
        // Warm-reboot scenario: the table survives the VMM generation
        // change, so a replayed mapping must not clobber the frozen one.
        let mut t = P2mTable::new();
        t.map(Pfn(0), fr(4000, 8)).unwrap();
        let before: Vec<(Pfn, FrameRange)> = t.iter_extents().collect();
        assert!(matches!(
            t.map(Pfn(3), fr(7000, 2)),
            Err(P2mError::PfnOverlap(_, _))
        ));
        let after: Vec<(Pfn, FrameRange)> = t.iter_extents().collect();
        assert_eq!(before, after, "failed remap must not disturb the table");
        assert_eq!(t.lookup(Pfn(3)), Some(Mfn(4003)));
    }

    #[test]
    fn empty_range_mapping_is_a_noop() {
        // FrameRange::new rejects count == 0, but the fields are public so
        // an empty range can still arrive via a struct literal or count
        // arithmetic; map() must treat it as a no-op.
        let empty = |start: u64| FrameRange {
            start: Mfn(start),
            count: 0,
        };
        let mut t = P2mTable::new();
        t.map(Pfn(5), empty(1000)).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.extent_count(), 0);
        // Regression: a zero-count extent used to shadow lookups of PFNs
        // covered by a lower-keyed extent that spans its key.
        t.map(Pfn(5), empty(2000)).unwrap();
        t.map(Pfn(3), fr(3000, 4)).unwrap();
        assert_eq!(t.lookup(Pfn(5)), Some(Mfn(3002)));
        assert_eq!(t.total_pages(), 4);
        t.check_machine_disjoint().unwrap();
    }
}
