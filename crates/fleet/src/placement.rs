//! Pluggable placement algorithms.
//!
//! Every arrival (and every evacuation migration) asks the active
//! [`PlacementAlgorithm`] for a host. The query carries everything a
//! policy may read — occupancy, phases, campaign position, the replica
//! peer's host — and the decision reports how many hosts the policy
//! *scanned*, which the simulation turns into the modeled
//! `placement.latency` timer (a central store's lookup cost is probe
//! count, not wall clock — wall clock would poison determinism).
//!
//! Each policy answers twice over: [`PlacementAlgorithm::choose`] scans
//! the query's per-host slices and is the reference;
//! [`PlacementAlgorithm::choose_indexed`] reaches the same decision, with
//! the same `scanned`, from the store's [`FreeSlots`] bitsets, reading at
//! most `capacity × ⌈hosts/64⌉` words per pass instead of probing every
//! host. The simulation calls only the indexed form.
//!
//! Three policies ship:
//!
//! * [`FirstFit`] — lowest-index serving host with a free slot. Packs the
//!   fleet prefix dense, which is exactly what makes rolling campaigns
//!   hurt: the early waves take down *full* hosts.
//! * `BestFitBinPack` — classic bin packing (fullest host that still
//!   fits). Minimizes fragmentation, maximizes the campaign's pain for
//!   the same reason.
//! * `RejuvAntiAffinity` — rejuvenation-aware spreading: least-loaded
//!   host, avoiding hosts the campaign is about to take down, and keeping
//!   replica pairs far enough apart in campaign order that no wave ever
//!   holds both halves of a pair.

use rh_cluster::driver::HostPhase;

use crate::store::FreeSlots;

/// Everything a placement policy may inspect for one decision.
#[derive(Debug, Clone, Copy)]
pub struct PlacementQuery<'a> {
    /// Slots consumed per host (including migration reservations).
    pub used: &'a [u32],
    /// Per-host slot capacity.
    pub capacity: u32,
    /// Campaign-visible host phases; only `Serving` hosts accept VMs.
    pub phases: &'a [HostPhase],
    /// Per-host campaign completion (completed hosts won't reboot again).
    pub completed: &'a [bool],
    /// Lowest host index still pending in the campaign (0 when idle).
    pub cursor: u32,
    /// Width of the imminent-rejuvenation window starting at `cursor`;
    /// zero when no campaign is configured or it has finished.
    pub window: u32,
    /// The replica peer's host, when placing the second half of a pair.
    pub peer_host: Option<u32>,
    /// Minimum index distance anti-affinity keeps between replica hosts
    /// (two campaign waves), so no wave holds both.
    pub pair_spacing: u32,
}

impl PlacementQuery<'_> {
    fn fits(&self, h: usize) -> bool {
        self.phases[h] == HostPhase::Serving && self.used[h] < self.capacity
    }

    /// True when `h` sits in the campaign's imminent window and has not
    /// already been rejuvenated.
    fn imminent(&self, h: usize) -> bool {
        let h32 = h as u32;
        self.window > 0
            && !self.completed[h]
            && h32 >= self.cursor
            && h32 < self.cursor.saturating_add(self.window)
    }
}

/// One placement decision plus its probe cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The chosen host, or `None` when no host can take the VM.
    pub host: Option<u32>,
    /// Hosts probed to reach the decision (the placement-latency model).
    pub scanned: u32,
}

/// A pluggable placement policy. Implementations must be deterministic
/// functions of the query (and, for `choose_indexed`, the index) alone.
pub trait PlacementAlgorithm: std::fmt::Debug + Send + Sync {
    /// The policy's stable display name.
    fn name(&self) -> &'static str;
    /// Chooses a host for one VM by scanning the query's slices (the
    /// reference decision).
    fn choose(&self, q: &PlacementQuery<'_>) -> Decision;
    /// Returns exactly [`choose`](Self::choose)'s decision, `scanned`
    /// included, reading occupancy and phases from `free`, the index of
    /// the store whose `used` and phases `q` carries.
    fn choose_indexed(&self, q: &PlacementQuery<'_>, free: &FreeSlots) -> Decision;
}

/// Hosts `[lo, hi)`, as they fall in index word `w` (hosts `64w..64w+64`).
fn range_mask(w: usize, lo: u64, hi: u64) -> u64 {
    let base = w as u64 * 64;
    let (start, end) = (lo.max(base), hi.min(base + 64));
    if start >= end {
        return 0;
    }
    (u64::MAX >> (64 - (end - start))) << (start - base)
}

/// The host at bit `bit` of index word `w`.
fn host_of(w: usize, bit: u32) -> u32 {
    w as u32 * 64 + bit
}

/// The lowest host set in one level's bitset.
fn lowest(level: &[u64]) -> Option<u32> {
    level
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .map(|(w, bits)| host_of(w, bits.trailing_zeros()))
}

/// Lowest-index serving host with a free slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementAlgorithm for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn choose(&self, q: &PlacementQuery<'_>) -> Decision {
        let mut scanned = 0;
        for h in 0..q.used.len() {
            scanned += 1;
            if q.fits(h) {
                return Decision {
                    host: Some(h as u32),
                    scanned,
                };
            }
        }
        Decision {
            host: None,
            scanned,
        }
    }

    fn choose_indexed(&self, q: &PlacementQuery<'_>, free: &FreeSlots) -> Decision {
        let host = free.levels().filter_map(lowest).min();
        Decision {
            host,
            scanned: host.map_or(q.used.len() as u32, |h| h + 1),
        }
    }
}

/// Fullest serving host that still fits (ties to the lowest index).
#[derive(Debug, Clone, Copy, Default)]
struct BestFitBinPack;

impl PlacementAlgorithm for BestFitBinPack {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn choose(&self, q: &PlacementQuery<'_>) -> Decision {
        let mut best: Option<(u32, u32)> = None; // (used, host)
        for h in 0..q.used.len() {
            if !q.fits(h) {
                continue;
            }
            let candidate = (q.used[h], h as u32);
            best = Some(match best {
                Some((u, bh)) if u >= candidate.0 => (u, bh),
                _ => candidate,
            });
        }
        Decision {
            host: best.map(|(_, h)| h),
            scanned: q.used.len() as u32,
        }
    }

    fn choose_indexed(&self, q: &PlacementQuery<'_>, free: &FreeSlots) -> Decision {
        Decision {
            host: free.levels().rev().find_map(lowest),
            scanned: q.used.len() as u32,
        }
    }
}

/// Rejuvenation-aware spreading: the least-loaded serving host outside
/// the campaign's imminent window, with replica pairs held
/// [`pair_spacing`](PlacementQuery::pair_spacing) apart in campaign
/// order. Falls back to ignoring the window (but never the pair rule)
/// when the window would otherwise reject every host.
#[derive(Debug, Clone, Copy, Default)]
struct RejuvAntiAffinity;

impl RejuvAntiAffinity {
    fn scan(&self, q: &PlacementQuery<'_>, respect_window: bool) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None; // (used, host)
        for h in 0..q.used.len() {
            if !q.fits(h) || (respect_window && q.imminent(h)) {
                continue;
            }
            if let Some(p) = q.peer_host {
                let dist = (h as u32).abs_diff(p);
                if dist < q.pair_spacing.max(1) {
                    continue;
                }
            }
            let candidate = (q.used[h], h as u32);
            best = Some(match best {
                Some((u, bh)) if u <= candidate.0 => (u, bh),
                _ => candidate,
            });
        }
        best.map(|(_, h)| h)
    }

    /// [`scan`](Self::scan) over the index: the lowest host of the lowest
    /// level once the peer-spacing range and (when respected) the
    /// not-yet-completed hosts of the imminent window are masked out.
    fn search(
        &self,
        q: &PlacementQuery<'_>,
        free: &FreeSlots,
        respect_window: bool,
    ) -> Option<u32> {
        let (peer_lo, peer_hi) = q.peer_host.map_or((0, 0), |p| {
            let s = u64::from(q.pair_spacing.max(1));
            (u64::from(p).saturating_sub(s - 1), u64::from(p) + s)
        });
        let (win_lo, win_hi) = if respect_window && q.window > 0 {
            (
                u64::from(q.cursor),
                u64::from(q.cursor.saturating_add(q.window)),
            )
        } else {
            (0, 0)
        };
        free.levels().find_map(|level| {
            level.iter().enumerate().find_map(|(w, &bits)| {
                let mut allowed = bits & !range_mask(w, peer_lo, peer_hi);
                let mut in_window = allowed & range_mask(w, win_lo, win_hi);
                while in_window != 0 {
                    let bit = in_window.trailing_zeros();
                    if !q.completed[host_of(w, bit) as usize] {
                        allowed &= !(1u64 << bit);
                    }
                    in_window &= in_window - 1;
                }
                (allowed != 0).then(|| host_of(w, allowed.trailing_zeros()))
            })
        })
    }
}

impl PlacementAlgorithm for RejuvAntiAffinity {
    fn name(&self) -> &'static str {
        "anti-affinity"
    }

    fn choose(&self, q: &PlacementQuery<'_>) -> Decision {
        let hosts = q.used.len() as u32;
        match self.scan(q, true) {
            Some(h) => Decision {
                host: Some(h),
                scanned: hosts,
            },
            None => Decision {
                host: self.scan(q, false),
                scanned: hosts * 2,
            },
        }
    }

    fn choose_indexed(&self, q: &PlacementQuery<'_>, free: &FreeSlots) -> Decision {
        let hosts = q.used.len() as u32;
        match self.search(q, free, true) {
            Some(h) => Decision {
                host: Some(h),
                scanned: hosts,
            },
            None => Decision {
                host: self.search(q, free, false),
                scanned: hosts * 2,
            },
        }
    }
}

/// Selector for the shipped policies (config files, CLI flags, sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// [`FirstFit`].
    FirstFit,
    /// Best-fit bin packing (`BestFitBinPack`).
    BestFit,
    /// Rejuvenation-aware spreading (`RejuvAntiAffinity`).
    AntiAffinity,
}

impl PlacementKind {
    /// Every shipped policy, in sweep order.
    pub const ALL: [PlacementKind; 3] = [
        PlacementKind::FirstFit,
        PlacementKind::BestFit,
        PlacementKind::AntiAffinity,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn PlacementAlgorithm> {
        match self {
            PlacementKind::FirstFit => Box::new(FirstFit),
            PlacementKind::BestFit => Box::new(BestFitBinPack),
            PlacementKind::AntiAffinity => Box::new(RejuvAntiAffinity),
        }
    }

    /// The policy's display name (matches [`PlacementAlgorithm::name`]).
    pub fn name(self) -> &'static str {
        match self {
            PlacementKind::FirstFit => "first-fit",
            PlacementKind::BestFit => "best-fit",
            PlacementKind::AntiAffinity => "anti-affinity",
        }
    }
}

impl std::fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query<'a>(
        used: &'a [u32],
        phases: &'a [HostPhase],
        completed: &'a [bool],
    ) -> PlacementQuery<'a> {
        PlacementQuery {
            used,
            capacity: 4,
            phases,
            completed,
            cursor: 0,
            window: 0,
            peer_host: None,
            pair_spacing: 1,
        }
    }

    #[test]
    fn first_fit_packs_the_prefix() {
        let phases = vec![HostPhase::Serving; 3];
        let completed = vec![false; 3];
        let q = query(&[3, 0, 0], &phases, &completed);
        assert_eq!(FirstFit.choose(&q).host, Some(0));
        let q = query(&[4, 2, 0], &phases, &completed);
        let d = FirstFit.choose(&q);
        assert_eq!(d.host, Some(1));
        assert_eq!(d.scanned, 2, "stopped at the first fit");
    }

    #[test]
    fn best_fit_prefers_the_fullest_host_that_fits() {
        let phases = vec![HostPhase::Serving; 4];
        let completed = vec![false; 4];
        let q = query(&[1, 3, 4, 2], &phases, &completed);
        assert_eq!(BestFitBinPack.choose(&q).host, Some(1), "3 < 4 slots wins");
    }

    #[test]
    fn anti_affinity_spreads_to_the_least_loaded() {
        let phases = vec![HostPhase::Serving; 4];
        let completed = vec![false; 4];
        let q = query(&[1, 3, 0, 2], &phases, &completed);
        assert_eq!(RejuvAntiAffinity.choose(&q).host, Some(2));
    }

    #[test]
    fn all_policies_skip_down_and_full_hosts() {
        let phases = [
            HostPhase::Rebooting,
            HostPhase::Serving,
            HostPhase::Recovering,
            HostPhase::Serving,
        ];
        let completed = vec![false; 4];
        let q = query(&[0, 4, 0, 1], &phases, &completed);
        for kind in PlacementKind::ALL {
            let d = kind.build().choose(&q);
            assert_eq!(d.host, Some(3), "{kind}: only host 3 is serving + free");
        }
        // Nothing fits at all.
        let q = query(&[0, 4, 0, 4], &phases, &completed);
        for kind in PlacementKind::ALL {
            assert_eq!(kind.build().choose(&q).host, None, "{kind}");
        }
    }

    #[test]
    fn anti_affinity_avoids_the_imminent_window() {
        let phases = vec![HostPhase::Serving; 6];
        let completed = [true, false, false, false, false, false];
        let mut q = query(&[0, 0, 0, 1, 1, 1], &phases, &completed);
        q.cursor = 1;
        q.window = 2;
        // Hosts 1, 2 are next in line; host 0 already completed, so the
        // window does not taint it.
        assert_eq!(RejuvAntiAffinity.choose(&q).host, Some(0));
    }

    #[test]
    fn anti_affinity_window_falls_back_rather_than_rejecting() {
        let phases = vec![HostPhase::Serving; 2];
        let completed = vec![false; 2];
        let mut q = query(&[1, 1], &phases, &completed);
        q.cursor = 0;
        q.window = 2; // the whole fleet is "imminent"
        let d = RejuvAntiAffinity.choose(&q);
        assert_eq!(d.host, Some(0), "fallback ignores the window");
        assert!(d.scanned > 2, "fallback costs a second scan");
    }

    #[test]
    fn anti_affinity_keeps_pairs_apart() {
        let phases = vec![HostPhase::Serving; 8];
        let completed = vec![false; 8];
        let used = [0u32, 0, 0, 0, 0, 0, 0, 1];
        let mut q = query(&used, &phases, &completed);
        q.peer_host = Some(0);
        q.pair_spacing = 4;
        let d = RejuvAntiAffinity.choose(&q);
        let h = d.host.expect("a distant host exists");
        assert!(h >= 4, "host {h} violates the spacing rule");
        // First-fit happily co-locates the pair — the contrast under test.
        assert_eq!(FirstFit.choose(&q).host, Some(0));
    }

    #[test]
    fn decisions_are_deterministic() {
        let phases = vec![HostPhase::Serving; 16];
        let completed = vec![false; 16];
        let used: Vec<u32> = (0..16).map(|i| (i * 7) % 5).collect();
        let q = query(&used, &phases, &completed);
        for kind in PlacementKind::ALL {
            let a = kind.build().choose(&q);
            let b = kind.build().choose(&q);
            assert_eq!(a, b, "{kind}");
        }
    }
}
