//! Frame content modelling.
//!
//! The simulator cannot (and need not) store 12 GiB of real bytes. Instead,
//! every frame carries a deterministic 64-bit *content signature*:
//!
//! * explicitly written frames store their signature in a sparse map,
//! * bulk-initialized regions (a freshly booted guest, a restored image)
//!   store a *pattern extent* — a `(salt, base)` pair from which each
//!   frame's signature is derived via [`splitmix64`].
//!
//! The warm-VM reboot's central claim — *the memory image of every domain
//! survives the VMM reboot untouched* — becomes a checkable invariant: a
//! domain's memory (in pseudo-physical page order) reads the same after
//! resume as at freeze. `rh-storage`'s memory images check it from the
//! pattern extents and explicit writes, without a per-frame walk.

use std::collections::{BTreeMap, VecDeque};

use rh_sim::rng::splitmix64;

use crate::frame::{FrameRange, Mfn};

/// Marker mixed into digests for unreadable (scrubbed) frames.
const ABSENT: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// How many dirty ranges [`FrameContents`] remembers for
/// [`unchanged_since`](FrameContents::unchanged_since). Mutation bursts
/// longer than this window force a conservative "changed" answer.
pub const DIRTY_WINDOW: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PatternExt {
    count: u64,
    salt: u64,
    /// Logical index of the first frame in the extent; preserved across
    /// splits so values never change when an extent is divided.
    base: u64,
}

/// Sparse content signatures for machine memory.
///
/// # Examples
///
/// ```
/// use rh_memory::contents::FrameContents;
/// use rh_memory::frame::{FrameRange, Mfn};
///
/// let mut mem = FrameContents::new();
/// mem.fill_pattern(FrameRange::new(Mfn(0), 100), 42);
/// let before = mem.read(Mfn(7));
/// mem.write(Mfn(7), 1234);
/// assert_eq!(mem.read(Mfn(7)), Some(1234));
/// assert_ne!(mem.read(Mfn(7)), before);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameContents {
    explicit: BTreeMap<u64, u64>,
    patterns: BTreeMap<u64, PatternExt>,
    /// Monotonic mutation counter; bumped once per mutating call.
    epoch: u64,
    /// The last [`DIRTY_WINDOW`] mutations as `(epoch, range)`; `None`
    /// means "everything" (a [`scrub_all`](Self::scrub_all)).
    dirty: VecDeque<(u64, Option<FrameRange>)>,
}

impl FrameContents {
    /// Creates empty (all-scrubbed) contents.
    pub fn new() -> Self {
        FrameContents::default()
    }

    /// Records one mutation affecting `range` (`None` = all frames).
    fn mark_dirty(&mut self, range: Option<FrameRange>) {
        self.epoch += 1;
        if self.dirty.len() == DIRTY_WINDOW {
            self.dirty.pop_front();
        }
        self.dirty.push_back((self.epoch, range));
    }

    /// The mutation epoch: increments on every mutating call (`write`,
    /// `fill_pattern*`, `scrub`, `scrub_all`, `corrupt`). Equal epochs
    /// guarantee identical contents; see
    /// [`unchanged_since`](Self::unchanged_since) for the range-scoped
    /// variant that tolerates unrelated mutations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if no frame inside any of `ranges` can have changed since the
    /// observed `epoch`.
    ///
    /// Sound but conservative: a `true` answer is a guarantee (every
    /// mutation since `epoch` is on record and none intersected `ranges`);
    /// a `false` answer means "changed, or too many mutations ago to
    /// know" — the dirty log only spans the last [`DIRTY_WINDOW`]
    /// mutations, and once it has wrapped, an epoch at the evicted edge
    /// (exactly the oldest retained entry) also answers `false`. The
    /// incremental save strategy uses it to count only the extents a
    /// guest dirtied since its last snapshot
    /// (`rh_storage::image::dirty_extent_bytes`).
    ///
    /// # Examples
    ///
    /// ```
    /// use rh_memory::contents::FrameContents;
    /// use rh_memory::frame::{FrameRange, Mfn};
    ///
    /// let mut mem = FrameContents::new();
    /// mem.fill_pattern(FrameRange::new(Mfn(0), 100), 1);
    /// let epoch = mem.epoch();
    /// let mine = [FrameRange::new(Mfn(0), 100)];
    ///
    /// // A write elsewhere does not disturb the observed range...
    /// mem.write(Mfn(5000), 7);
    /// assert!(mem.unchanged_since(epoch, &mine));
    ///
    /// // ...but one inside it does.
    /// mem.write(Mfn(50), 7);
    /// assert!(!mem.unchanged_since(epoch, &mine));
    /// ```
    pub fn unchanged_since(&self, epoch: u64, ranges: &[FrameRange]) -> bool {
        if epoch == self.epoch {
            return true;
        }
        if epoch > self.epoch {
            return false; // stamp from a different instance: never claim clean
        }
        // Every epoch in (epoch, self.epoch] must still be on record. Once
        // the log has wrapped (window full, older entries evicted), an
        // observation at exactly the oldest retained epoch sits on the
        // evicted edge: we can no longer distinguish "observed right after
        // that write" from "observed before churn whose record is gone", so
        // the probe epoch must be strictly inside the retained span.
        let wrapped = self.dirty.len() >= DIRTY_WINDOW;
        match self.dirty.front() {
            Some(&(oldest, _)) if !wrapped && oldest <= epoch + 1 => {}
            Some(&(oldest, _)) if wrapped && oldest < epoch => {}
            _ => return false,
        }
        self.dirty
            .iter()
            .filter(|&&(e, _)| e > epoch)
            .all(|(_, dirtied)| match dirtied {
                None => false,
                Some(d) => !ranges.iter().any(|r| r.overlaps(d)),
            })
    }

    /// Writes a signature to one frame.
    pub fn write(&mut self, mfn: Mfn, value: u64) {
        self.explicit.insert(mfn.0, value);
        self.mark_dirty(Some(FrameRange::new(mfn, 1)));
    }

    /// Reads a frame's signature: an explicit write wins, then any covering
    /// pattern extent; `None` means the frame is scrubbed/uninitialized.
    pub fn read(&self, mfn: Mfn) -> Option<u64> {
        if let Some(&v) = self.explicit.get(&mfn.0) {
            return Some(v);
        }
        let (&start, ext) = self.patterns.range(..=mfn.0).next_back()?;
        if mfn.0 < start + ext.count {
            Some(splitmix64(ext.salt ^ (ext.base + (mfn.0 - start))))
        } else {
            None
        }
    }

    /// Bulk-initializes `range` with a pattern derived from `salt`.
    ///
    /// Clears any previous explicit writes and pattern extents in the range.
    pub fn fill_pattern(&mut self, range: FrameRange, salt: u64) {
        self.fill_pattern_with_base(range, salt, 0)
    }

    /// Like [`fill_pattern`](Self::fill_pattern) with a custom logical base
    /// index — used when restoring a saved image onto *different* machine
    /// frames so the pseudo-physical view is byte-identical.
    pub fn fill_pattern_with_base(&mut self, range: FrameRange, salt: u64, base: u64) {
        self.scrub_unlogged(range);
        self.patterns.insert(
            range.start.0,
            PatternExt {
                count: range.count,
                salt,
                base,
            },
        );
        self.mark_dirty(Some(range));
    }

    /// Erases the contents of `range` (explicit writes and patterns).
    pub fn scrub(&mut self, range: FrameRange) {
        self.scrub_unlogged(range);
        self.mark_dirty(Some(range));
    }

    /// [`scrub`](Self::scrub) without the epoch bump — for compound
    /// mutations that log one dirty entry for the whole operation.
    fn scrub_unlogged(&mut self, range: FrameRange) {
        let lo = range.start.0;
        let hi = range.end().0;
        // Remove explicit entries.
        let keys: Vec<u64> = self.explicit.range(lo..hi).map(|(&k, _)| k).collect();
        for k in keys {
            self.explicit.remove(&k);
        }
        // Split/truncate overlapping pattern extents.
        let overlapping: Vec<u64> = self
            .patterns
            .range(..hi)
            .filter(|(&s, e)| s + e.count > lo)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let Some(ext) = self.patterns.remove(&s) else {
                continue; // unreachable: keys were collected from this map above
            };
            let e_end = s + ext.count;
            if s < lo {
                self.patterns.insert(
                    s,
                    PatternExt {
                        count: lo - s,
                        salt: ext.salt,
                        base: ext.base,
                    },
                );
            }
            if e_end > hi {
                self.patterns.insert(
                    hi,
                    PatternExt {
                        count: e_end - hi,
                        salt: ext.salt,
                        base: ext.base + (hi - s),
                    },
                );
            }
        }
    }

    /// Erases everything — the model of a hardware reset's power-on
    /// self-test wiping RAM.
    pub fn scrub_all(&mut self) {
        self.explicit.clear();
        self.patterns.clear();
        self.mark_dirty(None);
    }

    /// Number of explicitly written frames.
    pub fn written_frames(&self) -> usize {
        self.explicit.len()
    }

    /// The pattern runs intersecting `range`, clipped to it, as
    /// `(sub-range, salt, logical base of the sub-range)` triples in
    /// ascending order. Used to capture a domain's memory image without a
    /// per-page walk.
    pub fn pattern_runs(&self, range: FrameRange) -> Vec<(FrameRange, u64, u64)> {
        let lo = range.start.0;
        let hi = range.end().0;
        self.patterns
            .range(..hi)
            .filter(|(&s, e)| s + e.count > lo)
            .map(|(&s, e)| {
                let cut_lo = lo.max(s);
                let cut_hi = hi.min(s + e.count);
                (
                    FrameRange::new(Mfn(cut_lo), cut_hi - cut_lo),
                    e.salt,
                    e.base + (cut_lo - s),
                )
            })
            .collect()
    }

    /// The explicitly written frames inside `range`, in ascending order.
    pub fn explicit_in(&self, range: FrameRange) -> Vec<(Mfn, u64)> {
        self.explicit
            .range(range.start.0..range.end().0)
            .map(|(&k, &v)| (Mfn(k), v))
            .collect()
    }

    /// Number of pattern extents.
    pub fn pattern_extents(&self) -> usize {
        self.patterns.len()
    }

    /// Fault injection: XORs one frame's signature in place (a scrubbed
    /// frame becomes an explicit `xor` value). Any digest covering the
    /// frame changes. Returns whether the frame held a value before.
    pub fn corrupt(&mut self, mfn: Mfn, xor: u64) -> bool {
        let mask = if xor == 0 { 1 } else { xor };
        match self.read(mfn) {
            Some(v) => {
                self.write(mfn, v ^ mask);
                true
            }
            None => {
                self.write(mfn, mask);
                false
            }
        }
    }
}

/// Incrementally combines `(logical key, signature)` pairs into an
/// order-sensitive digest.
///
/// Keys are *logical* (e.g. PFN within a domain), not machine frame numbers,
/// so a digest is stable across image relocation — the saved-VM baseline
/// restores to different machine frames yet must produce the same digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestBuilder {
    acc: u64,
    count: u64,
}

impl DigestBuilder {
    /// Creates an empty digest.
    pub fn new() -> Self {
        DigestBuilder::default()
    }

    /// Mixes in one frame. `None` values (scrubbed frames) are distinct
    /// from every real signature.
    pub fn add(&mut self, key: u64, value: Option<u64>) {
        let v = value.unwrap_or(ABSENT);
        self.acc = splitmix64(self.acc ^ splitmix64(key) ^ v);
        self.count += 1;
    }

    /// Mixes in `count` consecutive frames of one pattern run, starting at
    /// logical key `key0` with logical pattern index `base0`.
    ///
    /// Exactly equivalent to — and the batched fast path for — calling
    /// [`add`](Self::add) per frame with the value a pattern extent
    /// produces, but without the two B-tree probes
    /// [`FrameContents::read`] pays per frame. This is what makes the
    /// extent-walking `logical_digest` in `rh-storage` fast.
    ///
    /// # Examples
    ///
    /// ```
    /// use rh_memory::contents::{DigestBuilder, FrameContents};
    /// use rh_memory::frame::{FrameRange, Mfn};
    ///
    /// let mut mem = FrameContents::new();
    /// mem.fill_pattern(FrameRange::new(Mfn(0), 8), 42);
    ///
    /// let mut per_frame = DigestBuilder::new();
    /// for i in 0..8 {
    ///     per_frame.add(i, mem.read(Mfn(i)));
    /// }
    /// let mut batched = DigestBuilder::new();
    /// batched.add_pattern_run(0, 42, 0, 8);
    /// assert_eq!(per_frame.finish(), batched.finish());
    /// ```
    pub fn add_pattern_run(&mut self, key0: u64, salt: u64, base0: u64, count: u64) {
        let mut acc = self.acc;
        for i in 0..count {
            acc = splitmix64(acc ^ splitmix64(key0 + i) ^ splitmix64(salt ^ (base0 + i)));
        }
        self.acc = acc;
        self.count += count;
    }

    /// Mixes in `count` consecutive scrubbed (absent) frames starting at
    /// logical key `key0` — the batched equivalent of calling
    /// [`add`](Self::add) with `None` per frame.
    ///
    /// # Examples
    ///
    /// ```
    /// use rh_memory::contents::DigestBuilder;
    ///
    /// let mut per_frame = DigestBuilder::new();
    /// for i in 10..14 {
    ///     per_frame.add(i, None);
    /// }
    /// let mut batched = DigestBuilder::new();
    /// batched.add_absent_run(10, 4);
    /// assert_eq!(per_frame.finish(), batched.finish());
    /// ```
    pub fn add_absent_run(&mut self, key0: u64, count: u64) {
        let mut acc = self.acc;
        for i in 0..count {
            acc = splitmix64(acc ^ splitmix64(key0 + i) ^ ABSENT);
        }
        self.acc = acc;
        self.count += count;
    }

    /// Finalizes to a digest value incorporating the frame count.
    pub fn finish(&self) -> u64 {
        splitmix64(self.acc ^ self.count)
    }

    /// Number of frames mixed in.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, count: u64) -> FrameRange {
        FrameRange::new(Mfn(start), count)
    }

    #[test]
    fn unwritten_frames_read_none() {
        let mem = FrameContents::new();
        assert_eq!(mem.read(Mfn(0)), None);
    }

    #[test]
    fn explicit_write_read_round_trip() {
        let mut mem = FrameContents::new();
        mem.write(Mfn(10), 77);
        assert_eq!(mem.read(Mfn(10)), Some(77));
        assert_eq!(mem.read(Mfn(11)), None);
        assert_eq!(mem.written_frames(), 1);
    }

    #[test]
    fn pattern_fill_is_deterministic_and_varied() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(100, 50), 7);
        let a = mem.read(Mfn(100)).unwrap();
        let b = mem.read(Mfn(101)).unwrap();
        assert_ne!(a, b);
        // Same salt, same frame => same value in a fresh instance.
        let mut mem2 = FrameContents::new();
        mem2.fill_pattern(r(100, 50), 7);
        assert_eq!(mem2.read(Mfn(100)), Some(a));
        // Out of range.
        assert_eq!(mem.read(Mfn(99)), None);
        assert_eq!(mem.read(Mfn(150)), None);
    }

    #[test]
    fn explicit_write_overrides_pattern() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 10), 1);
        let original = mem.read(Mfn(5)).unwrap();
        mem.write(Mfn(5), original ^ 1);
        assert_eq!(mem.read(Mfn(5)), Some(original ^ 1));
    }

    #[test]
    fn scrub_erases_range_only() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 100), 3);
        mem.write(Mfn(50), 42);
        let keep_low = mem.read(Mfn(39));
        let keep_high = mem.read(Mfn(60));
        mem.scrub(r(40, 20));
        assert_eq!(mem.read(Mfn(45)), None);
        assert_eq!(mem.read(Mfn(50)), None, "explicit write scrubbed too");
        assert_eq!(mem.read(Mfn(39)), keep_low, "below range untouched");
        assert_eq!(
            mem.read(Mfn(60)),
            keep_high,
            "above range keeps value after split"
        );
    }

    #[test]
    fn scrub_all_erases_everything() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 10), 1);
        mem.write(Mfn(100), 5);
        mem.scrub_all();
        assert_eq!(mem.read(Mfn(0)), None);
        assert_eq!(mem.read(Mfn(100)), None);
        assert_eq!(mem.pattern_extents(), 0);
    }

    #[test]
    fn split_preserves_values() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 100), 9);
        let vals: Vec<Option<u64>> = (0..100).map(|i| mem.read(Mfn(i))).collect();
        mem.scrub(r(30, 10));
        for (i, v) in vals.iter().enumerate() {
            let i = i as u64;
            if (30..40).contains(&i) {
                assert_eq!(mem.read(Mfn(i)), None);
            } else {
                assert_eq!(mem.read(Mfn(i)), *v, "frame {i} changed across split");
            }
        }
    }

    #[test]
    fn refill_overwrites_previous_pattern() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 10), 1);
        let old = mem.read(Mfn(3));
        mem.fill_pattern(r(0, 10), 2);
        assert_ne!(mem.read(Mfn(3)), old);
        assert_eq!(mem.pattern_extents(), 1);
    }

    #[test]
    fn base_offset_relocation_matches() {
        // Restoring a pattern to different machine frames with matching
        // logical bases must produce identical logical digests.
        let mut a = FrameContents::new();
        a.fill_pattern(r(0, 64), 5);
        let mut b = FrameContents::new();
        b.fill_pattern_with_base(r(1000, 64), 5, 0);
        let mut da = DigestBuilder::new();
        let mut db = DigestBuilder::new();
        for i in 0..64 {
            da.add(i, a.read(Mfn(i)));
            db.add(i, b.read(Mfn(1000 + i)));
        }
        assert_eq!(da.finish(), db.finish());
    }

    #[test]
    fn digest_detects_any_change() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 32), 8);
        let digest = |m: &FrameContents| {
            let mut d = DigestBuilder::new();
            for i in 0..32 {
                d.add(i, m.read(Mfn(i)));
            }
            d.finish()
        };
        let before = digest(&mem);
        let mut changed = mem.clone();
        changed.write(Mfn(13), 0);
        assert_ne!(digest(&changed), before);
        let mut scrubbed = mem.clone();
        scrubbed.scrub(r(13, 1));
        assert_ne!(digest(&scrubbed), before);
        assert_eq!(digest(&mem), before, "digest is pure");
    }

    #[test]
    fn pattern_runs_clip_to_range() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(10, 20), 3); // frames [10, 30)
        mem.fill_pattern(r(40, 10), 4); // frames [40, 50)
        let runs = mem.pattern_runs(r(15, 30)); // query [15, 45)
        assert_eq!(runs.len(), 2);
        let (r0, salt0, base0) = runs[0];
        assert_eq!((r0, salt0, base0), (r(15, 15), 3, 5));
        let (r1, salt1, base1) = runs[1];
        assert_eq!((r1, salt1, base1), (r(40, 5), 4, 0));
        // Reconstructing from the clipped run gives identical values.
        let mut copy = FrameContents::new();
        copy.fill_pattern_with_base(r0, salt0, base0);
        for i in 15..30 {
            assert_eq!(copy.read(Mfn(i)), mem.read(Mfn(i)), "frame {i}");
        }
    }

    #[test]
    fn explicit_in_returns_sorted_entries() {
        let mut mem = FrameContents::new();
        mem.write(Mfn(5), 50);
        mem.write(Mfn(2), 20);
        mem.write(Mfn(99), 990);
        let got = mem.explicit_in(r(0, 10));
        assert_eq!(got, vec![(Mfn(2), 20), (Mfn(5), 50)]);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut mem = FrameContents::new();
        assert_eq!(mem.epoch(), 0);
        mem.write(Mfn(0), 1);
        mem.fill_pattern(r(10, 5), 2);
        mem.fill_pattern_with_base(r(20, 5), 2, 7);
        mem.scrub(r(10, 2));
        mem.corrupt(Mfn(0), 3);
        mem.scrub_all();
        assert_eq!(mem.epoch(), 6);
    }

    #[test]
    fn unchanged_since_tracks_range_overlap() {
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 100), 1);
        let epoch = mem.epoch();
        let mine = [r(0, 50), r(80, 20)];
        assert!(mem.unchanged_since(epoch, &mine), "no mutation yet");
        mem.write(Mfn(60), 9); // in the [50, 80) hole
        assert!(mem.unchanged_since(epoch, &mine), "hole write is invisible");
        mem.fill_pattern(r(200, 10), 2);
        assert!(mem.unchanged_since(epoch, &mine), "distant fill invisible");
        mem.write(Mfn(85), 1);
        assert!(!mem.unchanged_since(epoch, &mine), "overlap detected");
    }

    #[test]
    fn unchanged_since_is_conservative() {
        let mut mem = FrameContents::new();
        let epoch = mem.epoch();
        // scrub_all dirties everything.
        mem.scrub_all();
        assert!(!mem.unchanged_since(epoch, &[r(0, 1)]));
        // A future epoch (stamp from another instance) is never clean.
        assert!(!mem.unchanged_since(mem.epoch() + 10, &[r(0, 1)]));
        // Overflowing the dirty window forgets history: conservative "no".
        let mut mem = FrameContents::new();
        let epoch = mem.epoch();
        for i in 0..(super::DIRTY_WINDOW as u64 + 1) {
            mem.write(Mfn(1_000_000 + i), i);
        }
        assert!(
            !mem.unchanged_since(epoch, &[r(0, 1)]),
            "history loss must fail closed"
        );
        // Inside the window the same distant writes are provably harmless.
        assert!(mem.unchanged_since(mem.epoch() - 3, &[r(0, 1)]));
    }

    #[test]
    fn unchanged_since_evicted_edge_is_conservative() {
        // Wrap the window so the oldest entries have been evicted, then
        // probe the exact boundary epoch. The entry at `oldest` records
        // the write that *created* that epoch; with everything before it
        // gone, an observation stamped `oldest` cannot be distinguished
        // from one predating unrecorded churn — it must answer false.
        let mut mem = FrameContents::new();
        for i in 0..(super::DIRTY_WINDOW as u64 + 8) {
            mem.write(Mfn(1_000_000 + i), i);
        }
        let oldest = mem.epoch() - (super::DIRTY_WINDOW as u64 - 1);
        let far_away = [r(0, 100)]; // overlaps none of the writes above
                                    // One inside the retained span is still provably clean...
        assert!(mem.unchanged_since(oldest + 1, &far_away));
        // ...but the evicted edge itself fails closed,
        assert!(!mem.unchanged_since(oldest, &far_away));
        // as does anything older.
        assert!(!mem.unchanged_since(oldest - 1, &far_away));
        // A log that never wrapped has no evicted edge: epoch 0 (before
        // the first write) is still answerable from a complete record.
        let mut small = FrameContents::new();
        let epoch = small.epoch();
        small.write(Mfn(1_000_000), 1);
        assert!(small.unchanged_since(epoch, &far_away));
    }

    #[test]
    fn corrupt_always_dirties_the_frame() {
        // Dirty-extent accounting must never miss fault injection:
        // corrupt() goes through write(), so the dirty log always records
        // the frame.
        let mut mem = FrameContents::new();
        mem.fill_pattern(r(0, 10), 5);
        let epoch = mem.epoch();
        mem.corrupt(Mfn(3), 0xFF);
        assert!(!mem.unchanged_since(epoch, &[r(0, 10)]));
    }

    #[test]
    fn batched_runs_match_per_frame_digest() {
        let mut mem = FrameContents::new();
        mem.fill_pattern_with_base(r(100, 40), 9, 17);
        let mut per_frame = DigestBuilder::new();
        for i in 0..60 {
            per_frame.add(i, mem.read(Mfn(100 + i)));
        }
        // Frames [100,140) carry the pattern; [140,160) are scrubbed.
        let mut batched = DigestBuilder::new();
        batched.add_pattern_run(0, 9, 17, 40);
        batched.add_absent_run(40, 20);
        assert_eq!(per_frame.finish(), batched.finish());
        assert_eq!(per_frame.count(), batched.count());
    }

    #[test]
    fn digest_distinguishes_counts_and_order() {
        let mut a = DigestBuilder::new();
        a.add(0, Some(1));
        let mut b = DigestBuilder::new();
        b.add(0, Some(1));
        b.add(1, None);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(a.count(), 1);
        assert_eq!(b.count(), 2);

        let mut c = DigestBuilder::new();
        c.add(0, Some(1));
        c.add(1, Some(2));
        let mut d = DigestBuilder::new();
        d.add(1, Some(2));
        d.add(0, Some(1));
        assert_ne!(c.finish(), d.finish(), "order matters");
    }
}
