//! Ballooning (Waldspurger, OSDI '02 — the paper's reference 27).
//!
//! A balloon driver lets the VMM reclaim machine frames from a domain
//! without the domain noticing more than reduced free memory: inflating the
//! balloon unmaps pseudo-physical pages (releasing their machine frames),
//! deflating maps fresh frames back in.
//!
//! The paper notes (§4.1) that the P2M-mapping table "can maintain the
//! mapping properly" even when total pseudo-physical memory exceeds machine
//! memory due to ballooning — the property tests in this module and in the
//! VMM crate pin that behaviour down.

use std::fmt;

use crate::frame::Pfn;
use crate::machine::{MachineMemory, MemoryError};
use crate::p2m::{P2mError, P2mTable};

/// Errors from balloon operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalloonError {
    /// The underlying machine allocator failed.
    Memory(MemoryError),
    /// The P2M table rejected the operation.
    P2m(P2mError),
    /// The domain does not have enough mapped pages to inflate by the
    /// requested amount.
    TooLarge {
        /// Pages requested.
        requested: u64,
        /// Pages currently mapped.
        mapped: u64,
    },
    /// The controller is frozen (a warm reboot holds the domain's image):
    /// resize requests are rejected until [`BalloonController::thaw`].
    Frozen,
}

impl fmt::Display for BalloonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalloonError::Memory(e) => write!(f, "balloon: {e}"),
            BalloonError::P2m(e) => write!(f, "balloon: {e}"),
            BalloonError::TooLarge { requested, mapped } => write!(
                f,
                "balloon inflate of {requested} pages exceeds mapped {mapped}"
            ),
            BalloonError::Frozen => {
                write!(
                    f,
                    "balloon: domain image frozen by an in-flight warm reboot"
                )
            }
        }
    }
}

impl std::error::Error for BalloonError {}

impl From<MemoryError> for BalloonError {
    fn from(e: MemoryError) -> Self {
        BalloonError::Memory(e)
    }
}

impl From<P2mError> for BalloonError {
    fn from(e: P2mError) -> Self {
        BalloonError::P2m(e)
    }
}

/// Per-domain balloon state: how many pages are currently ballooned out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Balloon {
    inflated_pages: u64,
}

impl Balloon {
    /// A deflated balloon.
    pub fn new() -> Self {
        Balloon::default()
    }

    /// Pages currently surrendered to the VMM.
    pub fn inflated_pages(&self) -> u64 {
        self.inflated_pages
    }

    /// Inflates by `pages`: unmaps the domain's highest PFNs and returns
    /// their machine frames to the allocator.
    ///
    /// # Errors
    ///
    /// [`BalloonError::TooLarge`] if the domain has fewer mapped pages;
    /// propagates allocator/P2M failures.
    fn inflate(
        &mut self,
        p2m: &mut P2mTable,
        ram: &mut MachineMemory,
        pages: u64,
    ) -> Result<(), BalloonError> {
        if pages > p2m.total_pages() {
            return Err(BalloonError::TooLarge {
                requested: pages,
                mapped: p2m.total_pages(),
            });
        }
        let released = p2m.unmap_top(pages)?;
        ram.release(&released)?;
        self.inflated_pages += pages;
        Ok(())
    }

    /// Deflates by `pages`: allocates fresh machine frames and maps them at
    /// the domain's current PFN limit. Deflating more than was inflated is
    /// allowed (it grows the domain) — callers enforce policy.
    ///
    /// # Errors
    ///
    /// Propagates allocator/P2M failures (e.g. machine memory exhausted).
    fn deflate(
        &mut self,
        p2m: &mut P2mTable,
        ram: &mut MachineMemory,
        pages: u64,
    ) -> Result<(), BalloonError> {
        let ranges = ram.allocate(pages)?;
        let pfn = Pfn(p2m.pfn_limit());
        if let Err(e) = p2m.map_contiguous(pfn, &ranges) {
            // Roll back the allocation; mapping at a fresh PFN limit cannot
            // overlap, but keep the path safe anyway.
            let _ = ram.release(&ranges);
            return Err(e.into());
        }
        self.inflated_pages = self.inflated_pages.saturating_sub(pages);
        Ok(())
    }
}

/// Policy layer over [`Balloon`]: guest-cooperative resize targets,
/// reclaim-under-pressure for the host, and deflate-on-demand with
/// bounded latency (the pieces the serverless cell in `rh-cell` and the
/// `rh-lint balloon` model exercise).
///
/// Mechanism stays in [`Balloon`]; the controller adds the three rules an
/// overcommitted host needs:
///
/// * **Floor** — reclaim never shrinks the domain below `min_resident`
///   pages, so a squeezed microVM keeps a viable working set.
/// * **Freeze fence** — while a warm reboot holds the domain's frozen
///   image ([`freeze`](Self::freeze)), reclaim refuses (returns 0) and
///   explicit resizes error with [`BalloonError::Frozen`]. This is the
///   mechanism-level half of invariant **I8** (a frozen frame is never
///   balloon-reclaimed while a warm reboot is in flight); the protocol
///   half is proved by `rh-lint balloon`.
/// * **Partial deflate** — [`deflate_on_demand`](Self::deflate_on_demand)
///   maps at most what the machine allocator can supply right now instead
///   of failing outright, so the latency a blocked guest pays is bounded
///   by the pages actually moved. Frames come from
///   [`MachineMemory::allocate`], whose owner scrubs them before reuse —
///   the digest-validation ordering itself (invariant **I9**) is checked
///   by the `rh-lint balloon` model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalloonController {
    balloon: Balloon,
    min_resident: u64,
    frozen: bool,
    reclaimed_pages: u64,
    deflated_pages: u64,
}

impl BalloonController {
    /// A thawed controller that will never reclaim the domain below
    /// `min_resident` resident pages.
    pub fn new(min_resident: u64) -> Self {
        BalloonController {
            balloon: Balloon::new(),
            min_resident,
            frozen: false,
            reclaimed_pages: 0,
            deflated_pages: 0,
        }
    }

    /// The reclaim floor, in pages.
    pub fn min_resident(&self) -> u64 {
        self.min_resident
    }

    /// Pages currently surrendered to the VMM.
    pub fn inflated_pages(&self) -> u64 {
        self.balloon.inflated_pages()
    }

    /// Total pages ever taken by [`reclaim_under_pressure`](Self::reclaim_under_pressure).
    pub fn reclaimed_pages(&self) -> u64 {
        self.reclaimed_pages
    }

    /// Total pages ever mapped by [`deflate_on_demand`](Self::deflate_on_demand).
    pub fn deflated_pages(&self) -> u64 {
        self.deflated_pages
    }

    /// True while a warm reboot holds the domain's image frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Fences the balloon for the duration of a warm reboot: the frozen
    /// image's frames must stay exactly where the P2M table says they are.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Lifts the warm-reboot fence.
    pub fn thaw(&mut self) {
        self.frozen = false;
    }

    /// Guest-cooperative resize: converges the domain toward `target`
    /// resident pages (shrinks via inflate, grows via deflate) and returns
    /// the signed page delta actually applied. A shrink target below the
    /// floor is clamped to `min_resident`; a grow takes at most what the
    /// allocator can supply (like [`deflate_on_demand`](Self::deflate_on_demand)).
    ///
    /// # Errors
    ///
    /// [`BalloonError::Frozen`] while fenced; propagates allocator/P2M
    /// failures.
    pub fn set_target(
        &mut self,
        p2m: &mut P2mTable,
        ram: &mut MachineMemory,
        target: u64,
    ) -> Result<i64, BalloonError> {
        if self.frozen {
            return Err(BalloonError::Frozen);
        }
        let resident = p2m.total_pages();
        if target < resident {
            let take = resident - target.max(self.min_resident);
            self.balloon.inflate(p2m, ram, take)?;
            Ok(-(take as i64))
        } else {
            let want = target - resident;
            let take = want.min(ram.free_frames());
            if take > 0 {
                self.balloon.deflate(p2m, ram, take)?;
            }
            Ok(take as i64)
        }
    }

    /// Host-side reclaim: inflates by up to `want` pages, never below the
    /// floor and never while frozen, returning the pages actually freed.
    /// Policy refusals (frozen, at the floor) are `Ok(0)`, not errors —
    /// the host treats them as "this domain has nothing to give" and
    /// moves on to the next candidate.
    ///
    /// # Errors
    ///
    /// Propagates allocator/P2M failures only.
    pub fn reclaim_under_pressure(
        &mut self,
        p2m: &mut P2mTable,
        ram: &mut MachineMemory,
        want: u64,
    ) -> Result<u64, BalloonError> {
        if self.frozen {
            return Ok(0);
        }
        let spare = p2m.total_pages().saturating_sub(self.min_resident);
        let take = want.min(spare);
        if take == 0 {
            return Ok(0);
        }
        self.balloon.inflate(p2m, ram, take)?;
        self.reclaimed_pages += take;
        Ok(take)
    }

    /// Guest-demand deflate with bounded latency: maps up to `pages`
    /// fresh frames, taking at most what the allocator holds free right
    /// now, and returns the pages actually mapped. The caller charges
    /// latency proportional to the return value — a short supply means a
    /// short (partial) deflate, never an unbounded stall.
    ///
    /// # Errors
    ///
    /// [`BalloonError::Frozen`] while fenced; propagates allocator/P2M
    /// failures.
    pub fn deflate_on_demand(
        &mut self,
        p2m: &mut P2mTable,
        ram: &mut MachineMemory,
        pages: u64,
    ) -> Result<u64, BalloonError> {
        if self.frozen {
            return Err(BalloonError::Frozen);
        }
        let take = pages.min(ram.free_frames());
        if take == 0 {
            return Ok(0);
        }
        self.balloon.deflate(p2m, ram, take)?;
        self.deflated_pages += take;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameRange, Mfn};

    fn setup(total: u64, domain: u64) -> (P2mTable, MachineMemory, Balloon) {
        let mut ram = MachineMemory::new(total);
        let ranges = ram.allocate(domain).unwrap();
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &ranges).unwrap();
        (p2m, ram, Balloon::new())
    }

    #[test]
    fn inflate_returns_frames_to_allocator() {
        let (mut p2m, mut ram, mut b) = setup(1000, 500);
        assert_eq!(ram.free_frames(), 500);
        b.inflate(&mut p2m, &mut ram, 200).unwrap();
        assert_eq!(ram.free_frames(), 700);
        assert_eq!(p2m.total_pages(), 300);
        assert_eq!(b.inflated_pages(), 200);
    }

    #[test]
    fn deflate_grows_domain_back() {
        let (mut p2m, mut ram, mut b) = setup(1000, 500);
        b.inflate(&mut p2m, &mut ram, 200).unwrap();
        b.deflate(&mut p2m, &mut ram, 200).unwrap();
        assert_eq!(p2m.total_pages(), 500);
        assert_eq!(ram.free_frames(), 500);
        assert_eq!(b.inflated_pages(), 0);
        p2m.check_machine_disjoint().unwrap();
    }

    #[test]
    fn inflate_more_than_mapped_rejected() {
        let (mut p2m, mut ram, mut b) = setup(1000, 100);
        let err = b.inflate(&mut p2m, &mut ram, 200).unwrap_err();
        assert!(matches!(err, BalloonError::TooLarge { .. }));
        assert_eq!(p2m.total_pages(), 100);
    }

    #[test]
    fn deflate_fails_when_machine_memory_exhausted() {
        let (mut p2m, mut ram, mut b) = setup(500, 500);
        // All machine memory belongs to the domain already.
        let err = b.deflate(&mut p2m, &mut ram, 10).unwrap_err();
        assert!(matches!(err, BalloonError::Memory(_)));
    }

    #[test]
    fn pseudo_physical_can_exceed_machine_memory() {
        // Two domains, each 400 pages of pseudo-physical memory, on a
        // 600-page machine: ballooning makes it fit (paper §4.1).
        let mut ram = MachineMemory::new(600);
        let r1 = ram.allocate(400).unwrap();
        let mut p2m1 = P2mTable::new();
        p2m1.map_contiguous(Pfn(0), &r1).unwrap();
        let mut b1 = Balloon::new();
        // Domain 1 balloons down to 200 resident pages...
        b1.inflate(&mut p2m1, &mut ram, 200).unwrap();
        // ...so domain 2's 400 pages fit.
        let r2 = ram.allocate(400).unwrap();
        let mut p2m2 = P2mTable::new();
        p2m2.map_contiguous(Pfn(0), &r2).unwrap();
        // Pseudo-physical total (400 + 400) exceeds machine total (600);
        // the tables stay disjoint and correct.
        let mut all = p2m1.machine_ranges();
        all.extend(p2m2.machine_ranges());
        all.sort_by_key(|r| r.start);
        for w in all.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
        assert_eq!(p2m1.total_pages() + p2m2.total_pages(), 600);
    }

    #[test]
    fn repeated_inflate_deflate_keeps_table_consistent() {
        let (mut p2m, mut ram, mut b) = setup(1000, 600);
        for step in 1..=10u64 {
            b.inflate(&mut p2m, &mut ram, step * 10).unwrap();
            b.deflate(&mut p2m, &mut ram, step * 10).unwrap();
            p2m.check_machine_disjoint().unwrap();
            ram.check_invariants().unwrap();
        }
        assert_eq!(p2m.total_pages(), 600);
        // Every PFN still resolves.
        for pfn in 0..600 {
            assert!(p2m.lookup(Pfn(pfn)).is_some(), "pfn {pfn} lost");
        }
    }

    #[test]
    fn error_display_covers_variants() {
        let e1 = BalloonError::TooLarge {
            requested: 5,
            mapped: 2,
        };
        assert!(e1.to_string().contains("exceeds"));
        let e2: BalloonError = P2mError::NotMapped(Pfn(0), 1).into();
        assert!(e2.to_string().contains("balloon"));
        let e3: BalloonError = MemoryError::AlreadyAllocated(FrameRange::new(Mfn(0), 1)).into();
        assert!(e3.to_string().contains("allocated"));
        assert!(BalloonError::Frozen.to_string().contains("frozen"));
    }

    fn controller_setup(
        total: u64,
        domain: u64,
        floor: u64,
    ) -> (P2mTable, MachineMemory, BalloonController) {
        let (p2m, ram, _) = setup(total, domain);
        (p2m, ram, BalloonController::new(floor))
    }

    #[test]
    fn reclaim_respects_the_floor() {
        let (mut p2m, mut ram, mut c) = controller_setup(1000, 500, 100);
        let got = c
            .reclaim_under_pressure(&mut p2m, &mut ram, 10_000)
            .unwrap();
        assert_eq!(got, 400, "only down to the floor");
        assert_eq!(p2m.total_pages(), 100);
        assert_eq!(c.reclaimed_pages(), 400);
        // At the floor there is nothing left to give.
        assert_eq!(c.reclaim_under_pressure(&mut p2m, &mut ram, 1).unwrap(), 0);
    }

    #[test]
    fn frozen_controller_refuses_reclaim_and_rejects_resizes() {
        let (mut p2m, mut ram, mut c) = controller_setup(1000, 500, 100);
        c.freeze();
        assert!(c.is_frozen());
        // The I8 fence: a frozen image gives up nothing, silently.
        assert_eq!(c.reclaim_under_pressure(&mut p2m, &mut ram, 50).unwrap(), 0);
        assert_eq!(p2m.total_pages(), 500);
        // Explicit resizes are caller bugs while frozen.
        assert_eq!(
            c.set_target(&mut p2m, &mut ram, 300).unwrap_err(),
            BalloonError::Frozen
        );
        assert_eq!(
            c.deflate_on_demand(&mut p2m, &mut ram, 10).unwrap_err(),
            BalloonError::Frozen
        );
        c.thaw();
        assert_eq!(
            c.reclaim_under_pressure(&mut p2m, &mut ram, 50).unwrap(),
            50
        );
    }

    #[test]
    fn set_target_converges_both_directions() {
        let (mut p2m, mut ram, mut c) = controller_setup(1000, 500, 100);
        assert_eq!(c.set_target(&mut p2m, &mut ram, 200).unwrap(), -300);
        assert_eq!(p2m.total_pages(), 200);
        assert_eq!(c.inflated_pages(), 300);
        assert_eq!(c.set_target(&mut p2m, &mut ram, 450).unwrap(), 250);
        assert_eq!(p2m.total_pages(), 450);
        // A target below the floor clamps at the floor.
        assert_eq!(c.set_target(&mut p2m, &mut ram, 0).unwrap(), -350);
        assert_eq!(p2m.total_pages(), 100);
        p2m.check_machine_disjoint().unwrap();
        ram.check_invariants().unwrap();
    }

    #[test]
    fn deflate_on_demand_is_partial_when_memory_is_short() {
        // 600-frame machine, 500 mapped: after reclaiming 200 only the
        // freed frames plus the original 100 spare are available, and a
        // competing 250-frame allocation leaves 50.
        let (mut p2m, mut ram, mut c) = controller_setup(600, 500, 100);
        c.reclaim_under_pressure(&mut p2m, &mut ram, 200).unwrap();
        let competing = ram.allocate(250).unwrap();
        let got = c.deflate_on_demand(&mut p2m, &mut ram, 200).unwrap();
        assert_eq!(got, 50, "bounded by free frames, not an error");
        assert_eq!(c.deflated_pages(), 50);
        assert_eq!(ram.free_frames(), 0);
        // Nothing free at all: a zero-page deflate, still not an error.
        assert_eq!(c.deflate_on_demand(&mut p2m, &mut ram, 10).unwrap(), 0);
        ram.release(&competing).unwrap();
        p2m.check_machine_disjoint().unwrap();
    }
}
