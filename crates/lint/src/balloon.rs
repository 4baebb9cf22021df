//! A static model checker for the balloon / warm-reboot protocol.
//!
//! The serverless cell (DESIGN.md §17) runs two memory actors against the
//! same machine frames: the **warm reboot** freezes a domain's image in
//! place and trusts the preserved P2M table to find every frame exactly
//! where it was, while the **balloon** moves frames between domains and a
//! shared free pool under overcommit pressure. Two hazards follow, and
//! this module walks every interleaving of both actors through the
//! generic engine in [`crate::explore`] to prove they cannot occur:
//!
//! * **I8 frozen-frames-fenced** — a frozen frame is never reclaimed by
//!   the balloon while a warm reboot is in flight. A reclaim that races
//!   the in-flight reboot tears the frozen image: the reboot's
//!   re-reservation would find the frame re-owned by the pool.
//! * **I9 validated-before-map** — deflate never maps a frame whose
//!   digest was not validated. Reclaimed frames enter the pool *stale*
//!   (they still carry the old owner's bytes); only the scrub step's
//!   digest validation makes them mappable. Mapping a stale frame leaks
//!   one domain's memory into another.
//!
//! The correct model fences reclaim on frozen domains
//! (mechanism: [`rh_memory::BalloonController::reclaim_under_pressure`]
//! returns 0 while frozen) and deflates only from the scrubbed pool. With
//! [`BalloonConfig::buggy_reclaim`] the fence is dropped and exploration
//! must produce the I8 counterexample; with
//! [`BalloonConfig::buggy_deflate`] the scrub gate is dropped and I9's
//! counterexample appears.
//!
//! **Scaling** (DESIGN.md §14): domains are configured identically, so by
//! default the visited set is quotiented under domain permutation and
//! partial-order reduction prunes commuting domain-local events; pass
//! [`crate::explore::Options`] with `reduce: false` for the raw
//! enumeration. Reduced and raw must agree on pass/fail and the violated
//! invariant — tested below on every small config.

use std::fmt;

use crate::explore::{self, Model, Options as ExploreOptions, Run};

/// Model scale and fault injection.
#[derive(Debug, Clone)]
pub struct BalloonConfig {
    /// Number of identically-configured domains whose events interleave.
    pub domains: u32,
    /// Pages per domain (small: state space, not memory size, is under
    /// test). Every domain starts fully resident.
    pub pages: u32,
    /// Drop the freeze fence: reclaim fires against a domain whose warm
    /// reboot is in flight — deliberately wrong; the exploration must
    /// find the I8 counterexample.
    pub buggy_reclaim: bool,
    /// Drop the scrub gate: deflate maps a stale (unvalidated) pool frame
    /// when one exists — deliberately wrong; the exploration must find
    /// the I9 counterexample.
    pub buggy_deflate: bool,
}

impl Default for BalloonConfig {
    fn default() -> Self {
        BalloonConfig {
            domains: 3,
            pages: 3,
            buggy_reclaim: false,
            buggy_deflate: false,
        }
    }
}

/// One balloon/reboot event. `u32` payloads are 0-based domain indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A warm reboot begins: the domain's image freezes in place.
    WarmStart(u32),
    /// The in-flight warm reboot completes: frames re-reserved from the
    /// preserved P2M table, image thawed.
    WarmEnd(u32),
    /// The balloon reclaims one page from the domain into the free pool
    /// (the frame arrives *stale* — it still carries the old bytes).
    Reclaim(u32),
    /// One stale pool frame is scrubbed and its digest validated, making
    /// it mappable.
    Scrub,
    /// The guest demands a page back (a deflate request is queued).
    Demand(u32),
    /// Deflate maps one pool frame into the demanding domain.
    DeflateMap(u32),
}

impl Event {
    fn domain(self) -> Option<u32> {
        match self {
            Event::WarmStart(d)
            | Event::WarmEnd(d)
            | Event::Reclaim(d)
            | Event::Demand(d)
            | Event::DeflateMap(d) => Some(d),
            Event::Scrub => None,
        }
    }

    /// Events whose guards and effects are confined to one domain — the
    /// free pool is untouched.
    fn is_domain_local(self) -> bool {
        matches!(
            self,
            Event::WarmStart(..) | Event::WarmEnd(..) | Event::Demand(..)
        )
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::WarmStart(d) => write!(f, "dom{}: warm reboot begins, image frozen", d + 1),
            Event::WarmEnd(d) => {
                write!(f, "dom{}: warm reboot completes, image thawed", d + 1)
            }
            Event::Reclaim(d) => write!(f, "dom{}: balloon reclaims a page", d + 1),
            Event::Scrub => write!(f, "pool: stale frame scrubbed, digest validated"),
            Event::Demand(d) => write!(f, "dom{}: guest demands a page back", d + 1),
            Event::DeflateMap(d) => write!(f, "dom{}: deflate maps a pool frame", d + 1),
        }
    }
}

/// Maps a model-event path onto typed observability events for rendering.
pub fn to_obs_trace(events: &[Event]) -> Vec<rh_obs::Event> {
    events
        .iter()
        .map(|e| rh_obs::Event::note("balloon", e.to_string()))
        .collect()
}

/// One domain of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dom {
    /// Pages currently resident (1..=pages).
    resident: u32,
    /// A warm reboot holds the image frozen.
    frozen: bool,
    /// The warm reboot has completed (each domain reboots once).
    rebooted: bool,
    /// A deflate request is outstanding (at most one).
    pending: bool,
    /// I8's predicate: a reclaim tore the frozen image.
    image_torn: bool,
    /// I9's predicate: deflate mapped an unvalidated frame.
    tainted: bool,
}

/// The full model state between events.
#[derive(Debug, Clone)]
struct ModelState {
    doms: Vec<Dom>,
    /// Reclaimed frames not yet scrubbed (old bytes intact).
    free_stale: u32,
    /// Scrubbed, digest-validated frames ready to map.
    free_clean: u32,
}

impl ModelState {
    fn init(cfg: &BalloonConfig) -> ModelState {
        ModelState {
            doms: vec![
                Dom {
                    resident: cfg.pages,
                    frozen: false,
                    rebooted: false,
                    pending: false,
                    image_torn: false,
                    tainted: false,
                };
                cfg.domains as usize
            ],
            free_stale: 0,
            free_clean: 0,
        }
    }

    fn enabled_events(&self, cfg: &BalloonConfig) -> Vec<Event> {
        let mut out = Vec::new();
        for (i, dom) in self.doms.iter().enumerate() {
            let d = i as u32;
            if !dom.frozen && !dom.rebooted {
                out.push(Event::WarmStart(d));
            }
            if dom.frozen {
                out.push(Event::WarmEnd(d));
            }
            // The fence: reclaim never targets a frozen image — unless
            // the bug drops the fence.
            if dom.resident > 1 && (!dom.frozen || cfg.buggy_reclaim) {
                out.push(Event::Reclaim(d));
            }
            if !dom.pending && dom.resident < cfg.pages && !dom.frozen {
                out.push(Event::Demand(d));
            }
            // The gate: deflate maps scrubbed frames only — unless the
            // bug lets a stale frame through.
            if dom.pending && (self.free_clean > 0 || (cfg.buggy_deflate && self.free_stale > 0)) {
                out.push(Event::DeflateMap(d));
            }
        }
        if self.free_stale > 0 {
            out.push(Event::Scrub);
        }
        out
    }

    fn apply(&mut self, cfg: &BalloonConfig, event: Event) -> Result<(), String> {
        let fail = |what: &str| format!("{event}: {what} (guard should have rejected this)");
        match event {
            Event::WarmStart(d) => {
                let dom = &mut self.doms[d as usize];
                if dom.frozen || dom.rebooted {
                    return Err(fail("domain cannot start a warm reboot"));
                }
                dom.frozen = true;
            }
            Event::WarmEnd(d) => {
                let dom = &mut self.doms[d as usize];
                if !dom.frozen {
                    return Err(fail("no warm reboot in flight"));
                }
                dom.frozen = false;
                dom.rebooted = true;
            }
            Event::Reclaim(d) => {
                let dom = &mut self.doms[d as usize];
                if dom.resident <= 1 {
                    return Err(fail("nothing above the floor to reclaim"));
                }
                if dom.frozen && !cfg.buggy_reclaim {
                    return Err(fail("image frozen"));
                }
                // The hazard I8 exists to forbid: pulling a frame out
                // from under the in-flight reboot's preserved mapping.
                if dom.frozen {
                    dom.image_torn = true;
                }
                dom.resident -= 1;
                self.free_stale += 1;
            }
            Event::Scrub => {
                if self.free_stale == 0 {
                    return Err(fail("no stale frame to scrub"));
                }
                self.free_stale -= 1;
                self.free_clean += 1;
            }
            Event::Demand(d) => {
                let dom = &mut self.doms[d as usize];
                if dom.pending || dom.resident >= cfg.pages || dom.frozen {
                    return Err(fail("no deflate demand possible"));
                }
                dom.pending = true;
            }
            Event::DeflateMap(d) => {
                let dom = &mut self.doms[d as usize];
                if !dom.pending {
                    return Err(fail("no outstanding demand"));
                }
                if self.free_clean > 0 {
                    self.free_clean -= 1;
                } else if cfg.buggy_deflate && self.free_stale > 0 {
                    // The hazard I9 exists to forbid: the mapped frame
                    // still carries the old owner's bytes.
                    self.free_stale -= 1;
                    dom.tainted = true;
                } else {
                    return Err(fail("no mappable frame"));
                }
                dom.resident += 1;
                dom.pending = false;
            }
        }
        Ok(())
    }

    fn check_invariants(&self) -> Result<(), (String, String)> {
        for (i, dom) in self.doms.iter().enumerate() {
            if dom.image_torn {
                return Err((
                    "I8 frozen-frames-fenced".to_string(),
                    format!(
                        "dom{}'s frozen image lost a frame to balloon reclaim \
                         while its warm reboot was in flight",
                        i + 1
                    ),
                ));
            }
            if dom.tainted {
                return Err((
                    "I9 validated-before-map".to_string(),
                    format!(
                        "dom{} was handed a deflate frame whose digest was \
                         never validated (stale pool frame mapped)",
                        i + 1
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Every domain has completed its warm reboot and no deflate demand
    /// is left hanging: the cell survived a full rejuvenation round under
    /// balloon pressure.
    fn is_complete(&self) -> bool {
        self.doms.iter().all(|d| d.rebooted && !d.pending)
    }

    /// One `u64` byte per domain (3 bits of resident count + 5 flags),
    /// sorted under symmetry; the two pool counters lead the encoding.
    fn encode(&self, symmetry: bool) -> Vec<u64> {
        let mut doms: Vec<u64> = self
            .doms
            .iter()
            .map(|d| {
                u64::from(d.resident)
                    | u64::from(d.frozen) << 3
                    | u64::from(d.rebooted) << 4
                    | u64::from(d.pending) << 5
                    | u64::from(d.image_torn) << 6
                    | u64::from(d.tainted) << 7
            })
            .collect();
        if symmetry {
            // All domains are configured identically: quotient the
            // visited set under domain permutation.
            doms.sort_unstable();
        }
        let mut enc = vec![u64::from(self.free_stale), u64::from(self.free_clean)];
        enc.extend(doms);
        enc
    }
}

struct BalloonModel<'a> {
    cfg: &'a BalloonConfig,
    symmetry: bool,
}

impl Model for BalloonModel<'_> {
    type State = ModelState;
    type Event = Event;

    fn initial(&self) -> Result<ModelState, String> {
        if self.cfg.domains == 0 || self.cfg.domains > 8 {
            return Err("--domains must be in 1..=8".to_string());
        }
        if self.cfg.pages < 2 || self.cfg.pages > 7 {
            return Err("--pages must be in 2..=7 (3-bit resident encoding)".to_string());
        }
        Ok(ModelState::init(self.cfg))
    }

    fn enabled(&self, state: &ModelState) -> Vec<Event> {
        state.enabled_events(self.cfg)
    }

    fn apply(&self, state: &ModelState, event: Event) -> Result<ModelState, String> {
        let mut next = state.clone();
        next.apply(self.cfg, event)?;
        Ok(next)
    }

    fn check(&self, state: &ModelState) -> Result<(), (String, String)> {
        state.check_invariants()
    }

    fn encode(&self, state: &ModelState) -> Vec<u64> {
        state.encode(self.symmetry)
    }

    fn is_goal(&self, state: &ModelState) -> bool {
        state.is_complete()
    }

    fn trace(&self, events: &[Event]) -> Vec<rh_obs::Event> {
        to_obs_trace(events)
    }

    fn independent(&self, a: Event, b: Event) -> bool {
        // Reclaim/Scrub/DeflateMap share the free pool and Scrub has no
        // domain at all, so only the purely domain-local events commute —
        // and only across distinct domains.
        a.is_domain_local() && b.is_domain_local() && a.domain() != b.domain()
    }

    fn invisible(&self, event: Event) -> bool {
        // I8 reads image_torn (set by Reclaim), I9 reads tainted (set by
        // DeflateMap); queuing a demand or scrubbing a frame moves
        // neither predicate.
        matches!(event, Event::Demand(..) | Event::Scrub)
    }
}

/// Exhaustively explores every interleaving of warm reboots and balloon
/// traffic, checking I8/I9 in every reachable state.
///
/// With `opts.reduce` (the default) the visited set is quotiented under
/// domain permutation and partial-order reduction prunes commuting
/// domain-local events; with `reduce: false` the raw enumeration runs.
/// Either way exploration is breadth-first (counterexamples are shortest
/// for the encoding in use) and byte-identical at any `opts.jobs`.
///
/// # Errors
///
/// Returns an error string on an invalid config or when `opts.max_states`
/// is exhausted; protocol violations come back inside the [`Run`].
pub fn explore(cfg: &BalloonConfig, opts: &ExploreOptions) -> Result<Run<Event>, String> {
    let model = BalloonModel {
        cfg,
        symmetry: opts.reduce,
    };
    explore::explore(&model, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced() -> ExploreOptions {
        ExploreOptions::default()
    }

    fn raw() -> ExploreOptions {
        ExploreOptions {
            reduce: false,
            ..ExploreOptions::default()
        }
    }

    fn replay(cfg: &BalloonConfig, events: &[Event]) -> Result<(), explore::Counterexample<Event>> {
        let model = BalloonModel {
            cfg,
            symmetry: false,
        };
        explore::replay(&model, events)
    }

    #[test]
    fn default_config_satisfies_both_invariants() {
        let run = explore(&BalloonConfig::default(), &reduced()).unwrap();
        assert!(run.passed(), "{:?}", run.violation);
        assert!(run.completed > 0, "rejuvenation must complete");
    }

    #[test]
    fn pressure_round_trip_is_safe_in_every_order() {
        // One domain squeezed and re-grown while its neighbours reboot:
        // the raw enumeration agrees nothing unsafe is reachable.
        let cfg = BalloonConfig {
            domains: 2,
            pages: 2,
            ..BalloonConfig::default()
        };
        let run = explore(&cfg, &raw()).unwrap();
        assert!(run.passed(), "{:?}", run.violation);
        assert!(run.completed > 0);
    }

    #[test]
    fn buggy_reclaim_produces_the_minimal_i8_counterexample() {
        let cfg = BalloonConfig {
            buggy_reclaim: true,
            ..BalloonConfig::default()
        };
        let run = explore(&cfg, &reduced()).unwrap();
        let v = run.violation.expect("dropped fence must be caught");
        assert_eq!(v.invariant, "I8 frozen-frames-fenced");
        // WarmStart → Reclaim against the frozen image: nothing shorter
        // reaches a torn image.
        assert_eq!(v.events.len(), 2, "{:?}", v.events);
        assert!(
            matches!(v.events[0], Event::WarmStart(..)),
            "{:?}",
            v.events
        );
        assert!(matches!(v.events[1], Event::Reclaim(..)), "{:?}", v.events);
        // The reduced counterexample must replay through the raw rules.
        let replayed = replay(&cfg, &v.events).expect_err("replay must trip I8");
        assert_eq!(replayed.invariant, v.invariant);
    }

    #[test]
    fn buggy_deflate_produces_the_minimal_i9_counterexample() {
        let cfg = BalloonConfig {
            buggy_deflate: true,
            ..BalloonConfig::default()
        };
        let run = explore(&cfg, &reduced()).unwrap();
        let v = run.violation.expect("dropped scrub gate must be caught");
        assert_eq!(v.invariant, "I9 validated-before-map");
        // Reclaim (stale frame enters the pool) → Demand → DeflateMap of
        // the unscrubbed frame: nothing shorter taints a domain.
        assert_eq!(v.events.len(), 3, "{:?}", v.events);
        assert!(
            matches!(v.events[2], Event::DeflateMap(..)),
            "{:?}",
            v.events
        );
        let replayed = replay(&cfg, &v.events).expect_err("replay must trip I9");
        assert_eq!(replayed.invariant, v.invariant);
    }

    #[test]
    fn reduced_and_raw_agree_on_every_small_config() {
        for domains in [1, 2] {
            for buggy_reclaim in [false, true] {
                for buggy_deflate in [false, true] {
                    let cfg = BalloonConfig {
                        domains,
                        pages: 2,
                        buggy_reclaim,
                        buggy_deflate,
                    };
                    let r = explore(&cfg, &reduced()).unwrap();
                    let u = explore(&cfg, &raw()).unwrap();
                    assert_eq!(
                        r.passed(),
                        u.passed(),
                        "domains={domains} reclaim={buggy_reclaim} deflate={buggy_deflate}"
                    );
                    assert!(
                        r.states <= u.states,
                        "reduction must not grow the state space"
                    );
                    if let (Some(rv), Some(uv)) = (&r.violation, &u.violation) {
                        assert_eq!(rv.invariant, uv.invariant);
                    }
                }
            }
        }
    }

    #[test]
    fn exploration_is_byte_identical_at_any_jobs() {
        let cfg = BalloonConfig {
            buggy_reclaim: true,
            ..BalloonConfig::default()
        };
        let baseline = explore(&cfg, &reduced()).unwrap();
        for jobs in [2, 8] {
            let par = explore(
                &cfg,
                &ExploreOptions {
                    jobs,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(par, baseline, "jobs={jobs}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for cfg in [
            BalloonConfig {
                domains: 0,
                ..BalloonConfig::default()
            },
            BalloonConfig {
                domains: 9,
                ..BalloonConfig::default()
            },
            BalloonConfig {
                pages: 1,
                ..BalloonConfig::default()
            },
            BalloonConfig {
                pages: 8,
                ..BalloonConfig::default()
            },
        ] {
            assert!(explore(&cfg, &reduced()).is_err(), "{cfg:?}");
        }
    }
}
