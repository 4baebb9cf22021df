//! Saved memory images — the **saved-VM reboot** baseline's data path.
//!
//! Xen's classic `xm save` walks a domain's memory and writes the whole
//! image to a disk file; `xm restore` reads it back into freshly allocated
//! frames (paper §3.1 calls this the ACPI-S4 "hibernation" analogue). The
//! paper's point is that this is *memory-size-proportional* and slow; the
//! warm-VM reboot never touches the image at all.
//!
//! [`MemoryImage`] captures a domain's logical (pseudo-physical) contents
//! extent-wise, and restores them onto a *different* machine-frame mapping
//! with bit-identical logical contents — verified via
//! [`logical_digest`]. Captures are canonical, so comparing two of them
//! is the O(extents) preservation check every memory-preserving reboot
//! runs at resume. [`ImageStore`] models the on-disk save files.

use std::collections::BTreeMap;
use std::fmt;

use rh_memory::contents::{DigestBuilder, FrameContents};
use rh_memory::frame::{FrameRange, Mfn, Pfn, PAGE_SIZE};
use rh_memory::p2m::P2mTable;

/// A pattern run in pseudo-physical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogicalRun {
    pfn: u64,
    count: u64,
    salt: u64,
    base: u64,
}

/// Error returned when a restore target does not match the image geometry:
/// it maps a different number of pages, or the same number at different
/// PFNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreMismatch {
    /// Pages in the image.
    pub image_pages: u64,
    /// Pages mapped in the target P2M table.
    pub target_pages: u64,
}

impl fmt::Display for RestoreMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.target_pages == self.image_pages {
            write!(
                f,
                "restore target maps its {} pages at other PFNs than the image",
                self.target_pages
            )
        } else {
            write!(
                f,
                "restore target has {} pages but image holds {}",
                self.target_pages, self.image_pages
            )
        }
    }
}

impl std::error::Error for RestoreMismatch {}

/// The mapped PFN extents of `p2m` as `(start, count)`, ascending, with
/// PFN-adjacent extents merged.
fn mapped_extents(p2m: &P2mTable) -> Vec<(u64, u64)> {
    let mut extents: Vec<(u64, u64)> = Vec::new();
    for (pfn, mrange) in p2m.iter_extents() {
        match extents.last_mut() {
            Some((start, count)) if *start + *count == pfn.0 => *count += mrange.count,
            _ => extents.push((pfn.0, mrange.count)),
        }
    }
    extents
}

/// A captured domain memory image, addressed by PFN.
///
/// A capture is canonical: it records the mapped PFN extents, the pattern
/// runs (adjacent runs merged when PFN, salt and base all continue) and
/// the explicit writes, so it does not depend on which machine frames
/// back the domain or how they are fragmented. Equal captures therefore
/// describe equal logical views, and so have equal
/// [`digest`](Self::digest)s. The converse does not hold — an explicit
/// write can store the value a pattern already held — so a caller that
/// finds two captures unequal settles the question with the digests.
///
/// # Examples
///
/// ```
/// use rh_memory::{FrameContents, MachineMemory, P2mTable, Pfn};
/// use rh_storage::image::{logical_digest, MemoryImage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ram = MachineMemory::new(1 << 16);
/// let mut mem = FrameContents::new();
/// let frames = ram.allocate(1024)?;
/// let mut p2m = P2mTable::new();
/// p2m.map_contiguous(Pfn(0), &frames)?;
/// for r in &frames { mem.fill_pattern(*r, 0xAB); }
///
/// let image = MemoryImage::capture(&p2m, &mem);
/// let before = logical_digest(&p2m, &mem);
/// assert_eq!(image.digest(), before);
///
/// // Restore onto different machine frames.
/// let frames2 = ram.allocate(1024)?;
/// let mut p2m2 = P2mTable::new();
/// p2m2.map_contiguous(Pfn(0), &frames2)?;
/// image.restore(&p2m2, &mut mem)?;
/// assert_eq!(logical_digest(&p2m2, &mem), before);
/// assert_eq!(MemoryImage::capture(&p2m2, &mem), image);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryImage {
    /// Mapped PFN extents `(start, count)`, as [`mapped_extents`] returns.
    extents: Vec<(u64, u64)>,
    runs: Vec<LogicalRun>,
    /// `(pfn, value)` in ascending PFN order.
    writes: Vec<(u64, u64)>,
}

impl MemoryImage {
    /// Captures the logical contents of the domain described by `p2m`.
    ///
    /// O(P2M extents + pattern runs + explicit writes): no frame is read
    /// one by one.
    pub fn capture(p2m: &P2mTable, contents: &FrameContents) -> MemoryImage {
        let mut runs: Vec<LogicalRun> = Vec::new();
        let mut writes = Vec::new();
        for (pfn, mrange) in p2m.iter_extents() {
            for (sub, salt, base) in contents.pattern_runs(mrange) {
                let run = LogicalRun {
                    pfn: pfn.0 + (sub.start.0 - mrange.start.0),
                    count: sub.count,
                    salt,
                    base,
                };
                match runs.last_mut() {
                    Some(last)
                        if last.pfn + last.count == run.pfn
                            && last.salt == run.salt
                            && last.base + last.count == run.base =>
                    {
                        last.count += run.count
                    }
                    _ => runs.push(run),
                }
            }
            // Extents come in PFN order and writes in MFN order within
            // one, so `writes` stays sorted by PFN.
            for (mfn, value) in contents.explicit_in(mrange) {
                writes.push((pfn.0 + (mfn.0 - mrange.start.0), value));
            }
        }
        MemoryImage {
            extents: mapped_extents(p2m),
            runs,
            writes,
        }
    }

    /// Pages the image describes.
    pub fn pages(&self) -> u64 {
        self.extents.iter().map(|&(_, count)| count).sum()
    }

    /// Bytes this image occupies on disk (the whole memory image, as Xen's
    /// unoptimized save writes it).
    pub fn size_bytes(&self) -> u64 {
        self.pages() * PAGE_SIZE
    }

    /// The [`logical_digest`] of the domain this image was captured from,
    /// computed from the image alone.
    pub fn digest(&self) -> u64 {
        let mut d = DigestBuilder::new();
        let mut runs = self.runs.iter().peekable();
        let mut writes = self.writes.iter().peekable();
        for &(start, count) in &self.extents {
            let end = start + count;
            let mut pfn = start;
            while pfn < end {
                if let Some(&&(at, value)) = writes.peek() {
                    if at == pfn {
                        d.add(pfn, Some(value));
                        writes.next();
                        pfn += 1;
                        continue;
                    }
                }
                while runs.next_if(|r| r.pfn + r.count <= pfn).is_some() {}
                // Every write is at a mapped PFN at or after `pfn`.
                let next_write = writes.peek().map_or(end, |&&(at, _)| at.min(end));
                match runs.peek() {
                    Some(r) if r.pfn <= pfn => {
                        let to = next_write.min(r.pfn + r.count);
                        d.add_pattern_run(pfn, r.salt, r.base + (pfn - r.pfn), to - pfn);
                        pfn = to;
                    }
                    next => {
                        let to = next.map_or(next_write, |r| r.pfn.min(next_write));
                        d.add_absent_run(pfn, to - pfn);
                        pfn = to;
                    }
                }
            }
        }
        d.finish()
    }

    /// Writes the image's logical contents into the machine frames of the
    /// (possibly different) mapping `target`.
    ///
    /// # Errors
    ///
    /// [`RestoreMismatch`] if the target does not map exactly the image's
    /// PFNs; nothing is written then.
    pub fn restore(
        &self,
        target: &P2mTable,
        contents: &mut FrameContents,
    ) -> Result<(), RestoreMismatch> {
        if mapped_extents(target) != self.extents {
            return Err(RestoreMismatch {
                image_pages: self.pages(),
                target_pages: target.total_pages(),
            });
        }
        // Scrub the target frames first so unwritten pages read None.
        for mrange in target.machine_ranges() {
            contents.scrub(mrange);
        }
        for run in &self.runs {
            let machine = target
                .resolve_range(Pfn(run.pfn), run.count)
                // lint:allow(unwrap-panic): the target maps exactly the image's PFNs (checked above)
                .expect("the target maps exactly the image's PFNs");
            let mut offset = 0;
            for sub in machine {
                contents.fill_pattern_with_base(sub, run.salt, run.base + offset);
                offset += sub.count;
            }
        }
        for &(pfn, value) in &self.writes {
            let mfn = target
                .lookup(Pfn(pfn))
                // lint:allow(unwrap-panic): the target maps exactly the image's PFNs (checked above)
                .expect("the target maps exactly the image's PFNs");
            contents.write(mfn, value);
        }
        Ok(())
    }
}

/// Granularity of dirty-extent accounting for incremental saves, in
/// pages (64 pages = 256 KiB with 4 KiB pages — the unit a background
/// delta snapshot reads, diffs and writes).
const SNAPSHOT_EXTENT_PAGES: u64 = 64;

/// Bytes of `p2m`'s mapped memory that may have changed since
/// `since_epoch` of `contents`, rounded up to whole 64-page snapshot
/// extents (256 KiB).
///
/// Sound but conservative, exactly like
/// [`FrameContents::unchanged_since`] per extent: an extent only counts
/// as clean when every mutation since `since_epoch` is on record and
/// none intersected it. Once the dirty log has wrapped past the
/// observation, *everything* counts dirty — an incremental save then
/// degenerates to a full one rather than silently losing writes.
pub fn dirty_extent_bytes(p2m: &P2mTable, contents: &FrameContents, since_epoch: u64) -> u64 {
    let mut dirty_pages = 0u64;
    for mrange in p2m.machine_ranges() {
        let mut off = 0;
        while off < mrange.count {
            let n = SNAPSHOT_EXTENT_PAGES.min(mrange.count - off);
            let sub = FrameRange::new(Mfn(mrange.start.0 + off), n);
            if !contents.unchanged_since(since_epoch, &[sub]) {
                dirty_pages += n;
            }
            off += n;
        }
    }
    dirty_pages * PAGE_SIZE
}

/// The on-disk state of one domain under the incremental strategy: a
/// consolidated [`MemoryImage`] (base plus every delta already applied)
/// and the byte ledger of what each write actually cost.
///
/// The simulation keeps the *consolidated* image rather than replaying
/// a chain at restore time — what the strategy buys is smaller
/// *writes*, and that is what the ledger records; restore reads the
/// consolidated size either way (COW extents share the base file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaChain {
    image: MemoryImage,
    delta_bytes: Vec<u64>,
    contents_epoch: u64,
    p2m_epoch: u64,
}

impl DeltaChain {
    /// Starts a chain from a full base snapshot taken at the given
    /// contents/P2M epochs.
    pub fn new(image: MemoryImage, contents_epoch: u64, p2m_epoch: u64) -> DeltaChain {
        DeltaChain {
            image,
            delta_bytes: Vec::new(),
            contents_epoch,
            p2m_epoch,
        }
    }

    /// Records one delta: `image` is the new consolidated state, `bytes`
    /// what the snapshot actually wrote (dirty extents only).
    pub fn record_delta(
        &mut self,
        image: MemoryImage,
        bytes: u64,
        contents_epoch: u64,
        p2m_epoch: u64,
    ) {
        self.image = image;
        self.delta_bytes.push(bytes);
        self.contents_epoch = contents_epoch;
        self.p2m_epoch = p2m_epoch;
    }

    /// Advances the chain's epochs without a write (a tick that found
    /// zero dirty extents: the consolidated image is provably current).
    pub fn mark_current(&mut self, contents_epoch: u64, p2m_epoch: u64) {
        self.contents_epoch = contents_epoch;
        self.p2m_epoch = p2m_epoch;
    }

    /// The consolidated image (base + all recorded deltas).
    pub fn image(&self) -> &MemoryImage {
        &self.image
    }

    /// Contents epoch the consolidated image is current as of.
    pub fn contents_epoch(&self) -> u64 {
        self.contents_epoch
    }

    /// P2M epoch the consolidated image is current as of.
    pub fn p2m_epoch(&self) -> u64 {
        self.p2m_epoch
    }

    /// Bytes each recorded delta wrote, in order.
    #[cfg(test)]
    fn delta_bytes(&self) -> &[u64] {
        &self.delta_bytes
    }

    /// Number of deltas recorded on top of the base.
    pub fn len(&self) -> usize {
        self.delta_bytes.len()
    }

    /// True when no delta has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.delta_bytes.is_empty()
    }
}

/// Digest of a domain's memory in pseudo-physical page order.
///
/// Two mappings with identical logical contents produce equal digests even
/// when their machine frames differ — this is the invariant every reboot
/// strategy is checked against.
///
/// This is the extent-walking fast path: instead of two B-tree probes per
/// page ([`logical_digest_paged`], the reference implementation), it merges
/// each P2M extent's pattern runs and explicit writes in one pass and mixes
/// whole runs via [`DigestBuilder::add_pattern_run`] /
/// [`DigestBuilder::add_absent_run`]. The digest value is identical —
/// `corebench digest/*` measures the difference (roughly an order of
/// magnitude on pattern-dominated memory, see `PERFORMANCE.md`).
pub fn logical_digest(p2m: &P2mTable, contents: &FrameContents) -> u64 {
    let mut d = DigestBuilder::new();
    for (pfn, mrange) in p2m.iter_extents() {
        let lo = mrange.start.0;
        let hi = mrange.end().0;
        let pfn0 = pfn.0;
        let runs = contents.pattern_runs(mrange);
        let mut writes = contents.explicit_in(mrange).into_iter().peekable();
        let mut cursor = lo;
        for (sub, salt, base) in runs {
            if sub.start.0 > cursor {
                digest_span(&mut d, &mut writes, pfn0, lo, cursor, sub.start.0, None);
            }
            digest_span(
                &mut d,
                &mut writes,
                pfn0,
                lo,
                sub.start.0,
                sub.end().0,
                Some((salt, base)),
            );
            cursor = sub.end().0;
        }
        if cursor < hi {
            digest_span(&mut d, &mut writes, pfn0, lo, cursor, hi, None);
        }
    }
    d.finish()
}

/// Mixes machine frames `[from, to)` of one P2M extent into `d`, splitting
/// around explicit writes (which override any pattern). `pat` carries the
/// covering pattern's `(salt, logical base at from)`, or `None` for a
/// scrubbed gap. `writes` must be positioned at the first unconsumed write
/// with `mfn >= from`.
fn digest_span(
    d: &mut DigestBuilder,
    writes: &mut std::iter::Peekable<std::vec::IntoIter<(rh_memory::frame::Mfn, u64)>>,
    pfn0: u64,
    lo: u64,
    mut from: u64,
    to: u64,
    pat: Option<(u64, u64)>,
) {
    let mut pat = pat;
    while from < to {
        let next_write = writes
            .peek()
            .map(|&(m, v)| (m.0, v))
            .filter(|&(m, _)| m < to);
        let seg_end = next_write.map_or(to, |(m, _)| m);
        if seg_end > from {
            let n = seg_end - from;
            let key0 = pfn0 + (from - lo);
            match &mut pat {
                Some((salt, base)) => {
                    d.add_pattern_run(key0, *salt, *base, n);
                    *base += n;
                }
                None => d.add_absent_run(key0, n),
            }
            from = seg_end;
        }
        if let Some((m, v)) = next_write {
            d.add(pfn0 + (m - lo), Some(v));
            writes.next();
            from = m + 1;
            if let Some((_, base)) = &mut pat {
                *base += 1;
            }
        }
    }
}

/// The per-page reference implementation of [`logical_digest`]: one
/// [`FrameContents::read`] per mapped page.
///
/// O(pages × log frames) and therefore slow on real domain sizes; kept as
/// the executable specification the extent-walking fast path is proven
/// against (see the `digest_fast_path_matches_paged_reference` tests).
pub fn logical_digest_paged(p2m: &P2mTable, contents: &FrameContents) -> u64 {
    let mut d = DigestBuilder::new();
    for (pfn, mfn) in p2m.iter_pages() {
        d.add(pfn.0, contents.read(mfn));
    }
    d.finish()
}

/// The save files on disk, keyed by a caller-chosen domain identifier.
///
/// Holds the memory image plus the small execution-state record that a
/// suspend writes alongside it (16 KB in the paper, §4.2).
#[derive(Debug, Clone, Default)]
pub struct ImageStore {
    images: BTreeMap<u32, (MemoryImage, u64)>,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Stores an image and its execution-state size, replacing any previous
    /// image for `key`.
    #[cfg(test)]
    fn put(&mut self, key: u32, image: MemoryImage, exec_state_bytes: u64) {
        self.images.insert(key, (image, exec_state_bytes));
    }

    /// Retrieves the image for `key`.
    pub fn get(&self, key: u32) -> Option<&MemoryImage> {
        self.images.get(&key).map(|(i, _)| i)
    }

    /// Removes and returns the image for `key` (a restore consumes the
    /// file).
    pub fn take(&mut self, key: u32) -> Option<(MemoryImage, u64)> {
        self.images.remove(&key)
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True if no images are stored.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Total bytes occupied on disk (images + execution states).
    pub fn total_bytes(&self) -> u64 {
        self.images
            .values()
            .map(|(i, ex)| i.size_bytes() + ex)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_memory::frame::{FrameRange, Mfn};
    use rh_memory::machine::MachineMemory;

    fn mapped_domain(
        ram: &mut MachineMemory,
        mem: &mut FrameContents,
        pages: u64,
        salt: u64,
    ) -> P2mTable {
        let frames = ram.allocate(pages).unwrap();
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &frames).unwrap();
        for r in &frames {
            mem.fill_pattern(*r, salt);
        }
        p2m
    }

    #[test]
    fn capture_restore_round_trip_same_mapping() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 512, 0xFEED);
        let before = logical_digest(&p2m, &mem);
        let image = MemoryImage::capture(&p2m, &mem);
        assert_eq!(image.pages(), 512);
        assert_eq!(image.size_bytes(), 512 * PAGE_SIZE);
        // Scrub (hardware reset) then restore onto the same mapping.
        mem.scrub_all();
        assert_ne!(logical_digest(&p2m, &mem), before);
        image.restore(&p2m, &mut mem).unwrap();
        assert_eq!(logical_digest(&p2m, &mem), before);
    }

    #[test]
    fn restore_onto_different_frames_preserves_logical_view() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 300, 0xCAFE);
        // Make it interesting: explicit dirty pages on top of the pattern.
        let dirty_mfn = p2m.lookup(Pfn(123)).unwrap();
        mem.write(dirty_mfn, 0x1234_5678);
        let before = logical_digest(&p2m, &mem);
        let image = MemoryImage::capture(&p2m, &mem);

        // New allocation lands elsewhere and fragmented.
        let hole = ram.allocate(57).unwrap(); // shift subsequent allocations
        let frames2 = ram.allocate(300).unwrap();
        ram.release(&hole).unwrap();
        let mut p2m2 = P2mTable::new();
        p2m2.map_contiguous(Pfn(0), &frames2).unwrap();
        assert_ne!(p2m.machine_ranges(), p2m2.machine_ranges());

        image.restore(&p2m2, &mut mem).unwrap();
        assert_eq!(logical_digest(&p2m2, &mem), before);
        assert_eq!(mem.read(p2m2.lookup(Pfn(123)).unwrap()), Some(0x1234_5678));
    }

    #[test]
    fn restore_rejects_mismatched_geometry() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 100, 1);
        let image = MemoryImage::capture(&p2m, &mem);
        let frames2 = ram.allocate(50).unwrap();
        let mut small = P2mTable::new();
        small.map_contiguous(Pfn(0), &frames2).unwrap();
        let err = image.restore(&small, &mut mem).unwrap_err();
        assert_eq!(err.image_pages, 100);
        assert_eq!(err.target_pages, 50);
    }

    #[test]
    fn restore_rejects_a_target_with_the_same_pages_at_other_pfns() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        // Source: PFNs 0–9 and 20–29.
        let mut holed = P2mTable::new();
        holed
            .map_contiguous(Pfn(0), &ram.allocate(10).unwrap())
            .unwrap();
        holed
            .map_contiguous(Pfn(20), &ram.allocate(10).unwrap())
            .unwrap();
        for r in holed.machine_ranges() {
            mem.fill_pattern(r, 4);
        }
        let image = MemoryImage::capture(&holed, &mem);
        // Target: the same 20 pages at PFNs 0–19.
        let frames = ram.allocate(20).unwrap();
        let mut dense = P2mTable::new();
        dense.map_contiguous(Pfn(0), &frames).unwrap();
        mem.fill_pattern(frames[0], 8);
        let before = logical_digest(&dense, &mem);
        let err = image.restore(&dense, &mut mem).unwrap_err();
        assert_eq!((err.image_pages, err.target_pages), (20, 20));
        assert_eq!(
            err.to_string(),
            "restore target maps its 20 pages at other PFNs than the image"
        );
        assert_eq!(logical_digest(&dense, &mem), before, "target untouched");
    }

    #[test]
    fn scrubbed_pages_stay_scrubbed_after_restore() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let frames = ram.allocate(100).unwrap();
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &frames).unwrap();
        // Only half the domain has content; the rest is uninitialized.
        mem.fill_pattern(FrameRange::new(frames[0].start, 50), 9);
        let before = logical_digest(&p2m, &mem);
        let image = MemoryImage::capture(&p2m, &mem);
        // Restore to fresh frames pre-filled with garbage: restore must
        // scrub what the image does not cover.
        let frames2 = ram.allocate(100).unwrap();
        let mut p2m2 = P2mTable::new();
        p2m2.map_contiguous(Pfn(0), &frames2).unwrap();
        for r in &frames2 {
            mem.fill_pattern(*r, 0xBAD);
        }
        image.restore(&p2m2, &mut mem).unwrap();
        assert_eq!(logical_digest(&p2m2, &mem), before);
        assert_eq!(mem.read(p2m2.lookup(Pfn(75)).unwrap()), None);
    }

    #[test]
    fn image_store_lifecycle() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 64, 2);
        let image = MemoryImage::capture(&p2m, &mem);
        let mut store = ImageStore::new();
        assert!(store.is_empty());
        store.put(3, image.clone(), 16 * 1024);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 64 * PAGE_SIZE + 16 * 1024);
        assert_eq!(store.get(3), Some(&image));
        let (taken, exec) = store.take(3).unwrap();
        assert_eq!(taken, image);
        assert_eq!(exec, 16 * 1024);
        assert!(store.take(3).is_none());
    }

    #[test]
    fn digest_differs_for_different_contents() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m_a = mapped_domain(&mut ram, &mut mem, 64, 111);
        let p2m_b = mapped_domain(&mut ram, &mut mem, 64, 222);
        assert_ne!(logical_digest(&p2m_a, &mem), logical_digest(&p2m_b, &mem));
    }

    #[test]
    fn capture_is_pure() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 128, 5);
        let d0 = logical_digest(&p2m, &mem);
        let _image = MemoryImage::capture(&p2m, &mem);
        assert_eq!(logical_digest(&p2m, &mem), d0);
    }

    #[test]
    fn digest_fast_path_matches_paged_reference() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 300, 0xABCD);
        // Punch holes, overlay writes (including at span boundaries), and
        // leave scrubbed gaps — every digest_span shape at once.
        mem.scrub(FrameRange::new(p2m.lookup(Pfn(40)).unwrap(), 25));
        mem.write(p2m.lookup(Pfn(0)).unwrap(), 1); // first frame of extent
        mem.write(p2m.lookup(Pfn(39)).unwrap(), 2); // last before gap
        mem.write(p2m.lookup(Pfn(40)).unwrap(), 3); // first inside gap
        mem.write(p2m.lookup(Pfn(64)).unwrap(), 4); // last inside gap
        mem.write(p2m.lookup(Pfn(65)).unwrap(), 5); // first after gap
        mem.write(p2m.lookup(Pfn(299)).unwrap(), 6); // final frame
        assert_eq!(logical_digest(&p2m, &mem), logical_digest_paged(&p2m, &mem));
    }

    #[test]
    fn digest_fast_path_matches_paged_reference_property() {
        use rh_sim::testkit::{check, Config, Gen};

        check(
            "digest_fast_path_matches_paged_reference_property",
            &Config::default(),
            |g: &mut Gen| {
                let mut ram = MachineMemory::new(1 << 14);
                let mut mem = FrameContents::new();
                let mut p2m = P2mTable::new();
                // Fragmented allocation: several small grabs.
                let mut pfn = 0u64;
                for _ in 0..g.usize_in(1, 6) {
                    let pages = g.u64_in(1, 500);
                    let frames = ram
                        .allocate(pages)
                        .map_err(|e| format!("allocation failed: {e}"))?;
                    p2m.map_contiguous(Pfn(pfn), &frames)
                        .map_err(|e| format!("map failed: {e}"))?;
                    pfn += pages;
                }
                let total = p2m.total_pages();
                // Random mutation soup over the mapped frames.
                for _ in 0..g.usize_in(0, 30) {
                    let at = g.u64_in(0, total - 1);
                    let len = g.u64_in(1, total - at);
                    let Some(ranges) = p2m.resolve_range(Pfn(at), len) else {
                        return Err("resolve_range failed on mapped span".into());
                    };
                    match g.u32_in(0, 3) {
                        0 => {
                            for r in ranges {
                                mem.fill_pattern_with_base(r, g.any_u64(), g.u64_in(0, 1000));
                            }
                        }
                        1 => {
                            for r in ranges {
                                mem.scrub(r);
                            }
                        }
                        _ => {
                            let Some(mfn) = p2m.lookup(Pfn(at)) else {
                                return Err("lookup failed on mapped pfn".into());
                            };
                            mem.write(mfn, g.any_u64());
                        }
                    }
                }
                let fast = logical_digest(&p2m, &mem);
                let slow = logical_digest_paged(&p2m, &mem);
                if fast != slow {
                    return Err(format!("digest divergence: fast={fast:#x} slow={slow:#x}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn dirty_extent_bytes_counts_only_touched_extents() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 4 * SNAPSHOT_EXTENT_PAGES, 0xD1);
        let epoch = mem.epoch();
        assert_eq!(dirty_extent_bytes(&p2m, &mem, epoch), 0);

        // One write dirties exactly its covering 64-page extent.
        mem.write(p2m.lookup(Pfn(3)).unwrap(), 9);
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            SNAPSHOT_EXTENT_PAGES * PAGE_SIZE
        );

        // A second write in the same extent adds nothing; one in another
        // extent adds one more extent.
        mem.write(p2m.lookup(Pfn(5)).unwrap(), 9);
        mem.write(p2m.lookup(Pfn(3 * SNAPSHOT_EXTENT_PAGES)).unwrap(), 9);
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            2 * SNAPSHOT_EXTENT_PAGES * PAGE_SIZE
        );

        // Mutations outside the domain leave it clean.
        let epoch2 = mem.epoch();
        mem.write(Mfn(1 << 20), 1);
        assert_eq!(dirty_extent_bytes(&p2m, &mem, epoch2), 0);
    }

    #[test]
    fn dirty_extent_bytes_goes_conservative_after_log_wrap() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 2 * SNAPSHOT_EXTENT_PAGES, 0xD2);
        let epoch = mem.epoch();
        // Churn far away until the dirty log forgets the observation.
        for i in 0..4096 {
            mem.write(Mfn((1 << 20) + i), i);
        }
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            2 * SNAPSHOT_EXTENT_PAGES * PAGE_SIZE
        );
    }

    #[test]
    fn dirty_extent_bytes_rounds_trailing_partial_extent() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        // 1.5 extents: the tail extent is only half-sized.
        let pages = SNAPSHOT_EXTENT_PAGES + SNAPSHOT_EXTENT_PAGES / 2;
        let p2m = mapped_domain(&mut ram, &mut mem, pages, 0xD3);
        let epoch = mem.epoch();
        mem.write(p2m.lookup(Pfn(pages - 1)).unwrap(), 7);
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            (SNAPSHOT_EXTENT_PAGES / 2) * PAGE_SIZE
        );
    }

    #[test]
    fn delta_chain_ledger() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 256, 0xDC);
        let base = MemoryImage::capture(&p2m, &mem);
        let mut chain = DeltaChain::new(base.clone(), mem.epoch(), 1);
        assert!(chain.is_empty());
        assert_eq!(chain.image(), &base);

        mem.write(p2m.lookup(Pfn(0)).unwrap(), 3);
        let updated = MemoryImage::capture(&p2m, &mem);
        chain.record_delta(updated.clone(), 64 * PAGE_SIZE, mem.epoch(), 1);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.delta_bytes(), &[64 * PAGE_SIZE]);
        assert_eq!(chain.image(), &updated);
        assert_eq!(chain.contents_epoch(), mem.epoch());

        // A zero-dirty tick advances the epochs without a write.
        mem.write(Mfn(1 << 20), 1);
        chain.mark_current(mem.epoch(), 1);
        assert_eq!(chain.contents_epoch(), mem.epoch());
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn mfn_type_is_exercised() {
        // Silence the "unused import" trap: Mfn round-trip via lookup.
        let mut ram = MachineMemory::new(256);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 16, 3);
        let mfn: Mfn = p2m.lookup(Pfn(0)).unwrap();
        assert!(mem.read(mfn).is_some());
    }
}
