//! A static model checker for the post-copy page-serving protocol.
//!
//! The streamed reboot (DESIGN.md §15, paper Fig. 8 analogue) resumes a
//! domain with only its working set resident and faults the residual
//! pages in from the saved disk image while the guest runs. The hazard is
//! in the fault path: a demand-faulted page arrives from disk into a
//! bounce buffer, the buffer's digest is validated against the digest
//! captured at save time, and only then is the page mapped and the guest
//! request unblocked. An implementation that unblocks the guest straight
//! from the bounce buffer — before the digest check — serves bytes the
//! protocol never vouched for (a torn or misdirected read reaches the
//! guest). This module declares that fault path as an explicit transition
//! table and walks **every interleaving** of guest touches, background
//! stream-in reads, disk completions, one injected torn read, and digest
//! validations through the generic engine in [`crate::explore`],
//! checking two invariants in every reachable state:
//!
//! * **P1 validated-before-serve** — a faulted-in page is never served to
//!   the guest before its digest-validated read completes.
//! * **P2 validated-content-intact** — a page the checker marked
//!   validated carries exactly the bytes saved at suspend (the digest it
//!   trusts is the digest that was captured).
//!
//! The correct model *retries* a read whose digest fails (the torn read
//! is discarded and re-issued), so exploration proves the stream-in still
//! completes. With [`PostcopyConfig::buggy_serve`] the fault handler
//! hands the arrived buffer to the guest before validating — the §4.3
//! analogue for post-copy — and the exploration must produce the P1
//! counterexample trace.
//!
//! **Scaling** (DESIGN.md §14): domains are configured identically, so by
//! default the visited set is quotiented under domain permutation, and
//! partial-order reduction prunes commuting page-local events; pass
//! [`crate::explore::Options`] with `reduce: false` for the raw
//! enumeration. Reduced and raw must agree on pass/fail and the violated
//! invariant — property-tested below on every small config.

use std::fmt;

use crate::explore::{self, Model, Options as ExploreOptions, Run};

use rh_memory::contents::DigestBuilder;

/// The XOR a torn read applies to an in-flight bounce buffer.
const TORN_XOR: u64 = 0xDEAD_BEEF;

/// Model scale and fault injection.
#[derive(Debug, Clone)]
pub struct PostcopyConfig {
    /// Number of streaming domains whose events are interleaved.
    pub domains: u32,
    /// Pages per domain (small: state space, not memory size, is under test).
    pub pages: u32,
    /// Pages already resident (and validated) at resume — the working set.
    pub working_set: u32,
    /// Interleave one torn disk read per exploration (the fault digest
    /// validation exists to catch).
    pub torn_reads: bool,
    /// Serve a demand-faulted page straight from the arrived buffer,
    /// before the digest check — deliberately wrong; the exploration must
    /// find the P1 counterexample.
    pub buggy_serve: bool,
}

impl Default for PostcopyConfig {
    fn default() -> Self {
        PostcopyConfig {
            domains: 2,
            pages: 3,
            working_set: 1,
            torn_reads: true,
            buggy_serve: false,
        }
    }
}

/// One post-copy event. `u32` payloads are `(domain, page)` indices
/// (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The guest touches a page (at most once per page). A touch of a
    /// non-resident page is a demand fault: it issues the disk read and
    /// blocks the guest on the page.
    Touch(u32, u32),
    /// The background streamer issues a prefetch read for an on-disk page.
    StreamIn(u32, u32),
    /// A disk read completes into the page's bounce buffer.
    Arrive(u32, u32),
    /// The one injected torn read scrambles an arrived bounce buffer.
    Corrupt(u32, u32),
    /// The digest check runs over the arrived buffer: on a match the page
    /// becomes resident (and any blocked guest request is served); on a
    /// mismatch the buffer is discarded and the read re-issued.
    Validate(u32, u32),
    /// Buggy variant only: the fault handler serves the blocked guest
    /// straight from the arrived buffer, before validation.
    ServeEarly(u32, u32),
}

impl Event {
    fn key(self) -> (u32, u32) {
        match self {
            Event::Touch(d, p)
            | Event::StreamIn(d, p)
            | Event::Arrive(d, p)
            | Event::Corrupt(d, p)
            | Event::Validate(d, p)
            | Event::ServeEarly(d, p) => (d, p),
        }
    }

    fn is_corrupt(self) -> bool {
        matches!(self, Event::Corrupt(..))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (d, p) = self.key();
        let what = match self {
            Event::Touch(..) => "guest touch",
            Event::StreamIn(..) => "stream-in read issued",
            Event::Arrive(..) => "disk read completed",
            Event::Corrupt(..) => "in-flight read torn",
            Event::Validate(..) => "digest validation",
            Event::ServeEarly(..) => "served from unvalidated buffer",
        };
        write!(f, "dom{} page {p}: {what}", d + 1)
    }
}

/// Maps a model-event path onto typed observability events for rendering.
pub fn to_obs_trace(events: &[Event]) -> Vec<rh_obs::Event> {
    events
        .iter()
        .map(|e| rh_obs::Event::note("postcopy", e.to_string()))
        .collect()
}

/// Where one page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Only the saved image on disk holds the page.
    OnDisk,
    /// A disk read (demand fault or prefetch) is in flight.
    InFlight,
    /// The read landed in the bounce buffer, not yet validated.
    Arrived {
        /// The bytes the read delivered (torn reads scramble these).
        buffer: u64,
    },
    /// The page is mapped for the guest.
    Resident {
        /// The bytes the guest sees.
        content: u64,
    },
}

/// One page of one streaming domain.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Page {
    state: PageState,
    /// The bytes written at save time (what the digest vouches for).
    saved: u64,
    /// A guest request is blocked on this page.
    demanded: bool,
    /// The single guest touch has happened.
    touched: bool,
    /// The guest has observed this page's content.
    served: bool,
    /// The digest check passed for the resident copy.
    validated: bool,
}

/// The full model state between events.
#[derive(Debug, Clone)]
struct ModelState {
    /// `doms[d][p]` is page `p` of domain `d`.
    doms: Vec<Vec<Page>>,
    /// Torn reads still available for injection (0 or 1).
    corrupt_budget: u32,
}

fn page_digest(pfn: u64, value: u64) -> u64 {
    // Mirrors the per-page slice of rh_storage::image::logical_digest:
    // pseudo-physical key, order-sensitive builder.
    let mut d = DigestBuilder::new();
    d.add(pfn, Some(value));
    d.finish()
}

impl ModelState {
    fn init(cfg: &PostcopyConfig) -> ModelState {
        let doms = (0..cfg.domains)
            .map(|d| {
                (0..cfg.pages)
                    .map(|p| {
                        let saved = 0x5EED_0000 + u64::from(d) * 64 + u64::from(p);
                        let resident = p < cfg.working_set;
                        Page {
                            state: if resident {
                                PageState::Resident { content: saved }
                            } else {
                                PageState::OnDisk
                            },
                            saved,
                            demanded: false,
                            touched: false,
                            served: false,
                            // Working-set pages came through the validated
                            // restore path before resume.
                            validated: resident,
                        }
                    })
                    .collect()
            })
            .collect();
        ModelState {
            doms,
            corrupt_budget: u32::from(cfg.torn_reads),
        }
    }

    fn page(&self, d: u32, p: u32) -> &Page {
        &self.doms[d as usize][p as usize]
    }

    fn page_mut(&mut self, d: u32, p: u32) -> &mut Page {
        &mut self.doms[d as usize][p as usize]
    }

    fn enabled_events(&self, cfg: &PostcopyConfig) -> Vec<Event> {
        let mut out = Vec::new();
        for d in 0..cfg.domains {
            for p in 0..cfg.pages {
                let page = self.page(d, p);
                if !page.touched {
                    out.push(Event::Touch(d, p));
                }
                match page.state {
                    PageState::OnDisk => out.push(Event::StreamIn(d, p)),
                    PageState::InFlight => out.push(Event::Arrive(d, p)),
                    PageState::Arrived { .. } => {
                        if self.corrupt_budget > 0 {
                            out.push(Event::Corrupt(d, p));
                        }
                        out.push(Event::Validate(d, p));
                        if cfg.buggy_serve && page.demanded {
                            out.push(Event::ServeEarly(d, p));
                        }
                    }
                    PageState::Resident { .. } => {}
                }
            }
        }
        out
    }

    fn apply(&mut self, event: Event) -> Result<(), String> {
        let fail = |what: &str| format!("{event}: {what} (guard should have rejected this)");
        match event {
            Event::Touch(d, p) => {
                let page = self.page_mut(d, p);
                page.touched = true;
                match page.state {
                    // A resident page serves the touch immediately.
                    PageState::Resident { .. } => page.served = true,
                    // A demand fault issues the read and blocks the guest.
                    PageState::OnDisk => {
                        page.demanded = true;
                        page.state = PageState::InFlight;
                    }
                    // The prefetch already issued the read; just block.
                    PageState::InFlight | PageState::Arrived { .. } => page.demanded = true,
                }
            }
            Event::StreamIn(d, p) => {
                let page = self.page_mut(d, p);
                if page.state != PageState::OnDisk {
                    return Err(fail("page not on disk"));
                }
                page.state = PageState::InFlight;
            }
            Event::Arrive(d, p) => {
                let page = self.page_mut(d, p);
                if page.state != PageState::InFlight {
                    return Err(fail("no read in flight"));
                }
                page.state = PageState::Arrived { buffer: page.saved };
            }
            Event::Corrupt(d, p) => {
                if self.corrupt_budget == 0 {
                    return Err(fail("torn-read budget exhausted"));
                }
                self.corrupt_budget -= 1;
                let page = self.page_mut(d, p);
                match page.state {
                    PageState::Arrived { buffer } => {
                        page.state = PageState::Arrived {
                            buffer: buffer ^ TORN_XOR,
                        };
                    }
                    _ => return Err(fail("no arrived buffer to tear")),
                }
            }
            Event::Validate(d, p) => {
                let page = self.page_mut(d, p);
                let buffer = match page.state {
                    PageState::Arrived { buffer } => buffer,
                    _ => return Err(fail("no arrived buffer to validate")),
                };
                if page_digest(u64::from(p), buffer) == page_digest(u64::from(p), page.saved) {
                    page.state = PageState::Resident { content: buffer };
                    page.validated = true;
                    if page.demanded {
                        page.demanded = false;
                        page.served = true;
                    }
                } else {
                    // Torn read caught: discard the buffer, re-issue the
                    // read, keep the guest blocked.
                    page.state = PageState::InFlight;
                }
            }
            Event::ServeEarly(d, p) => {
                let page = self.page_mut(d, p);
                let buffer = match page.state {
                    PageState::Arrived { buffer } => buffer,
                    _ => return Err(fail("no arrived buffer to serve")),
                };
                if !page.demanded {
                    return Err(fail("no blocked request"));
                }
                // The bug: the guest observes the buffer with the digest
                // check still outstanding.
                page.state = PageState::Resident { content: buffer };
                page.demanded = false;
                page.served = true;
            }
        }
        Ok(())
    }

    fn check_invariants(&self) -> Result<(), (String, String)> {
        for (d, pages) in self.doms.iter().enumerate() {
            for (p, page) in pages.iter().enumerate() {
                if page.served && !page.validated {
                    return Err((
                        "P1 validated-before-serve".to_string(),
                        format!(
                            "dom{} page {p} was served to the guest before its \
                             faulted-in read was digest-validated",
                            d + 1
                        ),
                    ));
                }
                if page.validated {
                    let content = match page.state {
                        PageState::Resident { content } => content,
                        // A validated page is resident by construction.
                        _ => page.saved,
                    };
                    if content != page.saved {
                        return Err((
                            "P2 validated-content-intact".to_string(),
                            format!(
                                "dom{} page {p} is marked validated but carries \
                                 {content:#x} instead of the saved {:#x}",
                                d + 1,
                                page.saved
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// All pages mapped and no guest request still blocked: the stream-in
    /// ran to completion.
    fn is_complete(&self) -> bool {
        self.doms
            .iter()
            .flatten()
            .all(|page| matches!(page.state, PageState::Resident { .. }) && !page.demanded)
    }

    /// One `u64` per domain: 8 bits per page (pages ≤ 8, enforced by
    /// `initial`) packing the state tag, a buffer/content-intact bit, and
    /// the four flags.
    fn encode(&self, symmetry: bool) -> Vec<u64> {
        let mut doms: Vec<u64> = self
            .doms
            .iter()
            .map(|pages| {
                pages.iter().fold(0u64, |acc, page| {
                    let (tag, intact) = match page.state {
                        PageState::OnDisk => (0u64, 1u64),
                        PageState::InFlight => (1, 1),
                        PageState::Arrived { buffer } => (2, u64::from(buffer == page.saved)),
                        PageState::Resident { content } => (3, u64::from(content == page.saved)),
                    };
                    let bits = tag
                        | intact << 2
                        | u64::from(page.demanded) << 3
                        | u64::from(page.touched) << 4
                        | u64::from(page.served) << 5
                        | u64::from(page.validated) << 6;
                    acc << 8 | bits
                })
            })
            .collect();
        if symmetry {
            // All domains are configured identically: quotient the visited
            // set under domain permutation.
            doms.sort_unstable();
        }
        let mut enc = vec![u64::from(self.corrupt_budget)];
        enc.extend(doms);
        enc
    }
}

struct PostcopyModel<'a> {
    cfg: &'a PostcopyConfig,
    symmetry: bool,
}

impl Model for PostcopyModel<'_> {
    type State = ModelState;
    type Event = Event;

    fn initial(&self) -> Result<ModelState, String> {
        if self.cfg.domains == 0 || self.cfg.domains > 8 {
            return Err("--domains must be in 1..=8".to_string());
        }
        if self.cfg.pages == 0 || self.cfg.pages > 8 {
            return Err("--pages must be in 1..=8 (8-bit page encoding)".to_string());
        }
        if self.cfg.working_set > self.cfg.pages {
            return Err("--working-set must not exceed --pages".to_string());
        }
        Ok(ModelState::init(self.cfg))
    }

    fn enabled(&self, state: &ModelState) -> Vec<Event> {
        state.enabled_events(self.cfg)
    }

    fn apply(&self, state: &ModelState, event: Event) -> Result<ModelState, String> {
        let mut next = state.clone();
        next.apply(event)?;
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
        // Every guard and effect is page-local except the torn-read
        // budget, so events on different pages commute — unless either is
        // the Corrupt event (firing one disables the other via the
        // budget).
        a.key() != b.key() && !a.is_corrupt() && !b.is_corrupt()
    }

    fn invisible(&self, event: Event) -> bool {
        // P1 reads served/validated, P2 reads validated/resident content;
        // issuing a read and landing it in the buffer touch neither.
        matches!(event, Event::StreamIn(..) | Event::Arrive(..))
    }
}

/// Exhaustively explores every interleaving of the post-copy fault path,
/// checking P1/P2 in every reachable state.
///
/// With `opts.reduce` (the default) the visited set is quotiented under
/// domain permutation and partial-order reduction prunes commuting
/// page-local events; with `reduce: false` the raw enumeration runs.
/// Either way exploration is breadth-first (counterexamples are shortest
/// for the encoding in use) and byte-identical at any `opts.jobs`.
///
/// # Errors
///
/// Returns an error string on an invalid config or when `opts.max_states`
/// is exhausted; protocol violations come back inside the [`Run`].
pub fn explore(cfg: &PostcopyConfig, opts: &ExploreOptions) -> Result<Run<Event>, String> {
    let model = PostcopyModel {
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

    #[test]
    fn default_config_satisfies_both_invariants() {
        let run = explore(&PostcopyConfig::default(), &reduced()).unwrap();
        assert!(run.passed(), "{:?}", run.violation);
        assert!(run.completed > 0, "stream-in must be completable");
    }

    #[test]
    fn torn_read_is_retried_not_served() {
        // Even with the injected torn read, the correct model never lets
        // the scrambled buffer reach the guest — validation discards it
        // and the re-issued read still completes the stream.
        let cfg = PostcopyConfig {
            domains: 1,
            pages: 2,
            ..PostcopyConfig::default()
        };
        let run = explore(&cfg, &raw()).unwrap();
        assert!(run.passed(), "{:?}", run.violation);
        assert!(run.completed > 0);
    }

    #[test]
    fn buggy_serve_produces_the_shortest_counterexample() {
        let cfg = PostcopyConfig {
            buggy_serve: true,
            ..PostcopyConfig::default()
        };
        let run = explore(&cfg, &reduced()).unwrap();
        let v = run.violation.expect("buggy serve must be caught");
        assert_eq!(v.invariant, "P1 validated-before-serve");
        // Touch (demand fault) → Arrive → ServeEarly: nothing shorter
        // reaches a served-but-unvalidated page.
        assert_eq!(v.events.len(), 3, "{:?}", v.events);
        assert!(
            matches!(v.events[2], Event::ServeEarly(..)),
            "{:?}",
            v.events
        );
        // The reduced counterexample must replay through the raw rules.
        let model = PostcopyModel {
            cfg: &cfg,
            symmetry: false,
        };
        let replayed = explore::replay(&model, &v.events).expect_err("replay must trip P1");
        assert_eq!(replayed.invariant, v.invariant);
    }

    #[test]
    fn working_set_of_everything_streams_nothing() {
        let cfg = PostcopyConfig {
            domains: 2,
            pages: 2,
            working_set: 2,
            ..PostcopyConfig::default()
        };
        let run = explore(&cfg, &raw()).unwrap();
        assert!(run.passed());
        // Only the guest touches remain: 2 flags per domain.
        assert_eq!(run.completed, 16);
    }

    #[test]
    fn reduced_and_raw_agree_on_every_small_config() {
        for domains in [1, 2] {
            for buggy_serve in [false, true] {
                for torn_reads in [false, true] {
                    let cfg = PostcopyConfig {
                        domains,
                        pages: 2,
                        working_set: 1,
                        torn_reads,
                        buggy_serve,
                    };
                    let r = explore(&cfg, &reduced()).unwrap();
                    let u = explore(&cfg, &raw()).unwrap();
                    assert_eq!(
                        r.passed(),
                        u.passed(),
                        "domains={domains} buggy={buggy_serve} torn={torn_reads}"
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
        let cfg = PostcopyConfig {
            buggy_serve: true,
            ..PostcopyConfig::default()
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
            PostcopyConfig {
                domains: 0,
                ..PostcopyConfig::default()
            },
            PostcopyConfig {
                pages: 9,
                ..PostcopyConfig::default()
            },
            PostcopyConfig {
                pages: 2,
                working_set: 3,
                ..PostcopyConfig::default()
            },
        ] {
            assert!(explore(&cfg, &reduced()).is_err(), "{cfg:?}");
        }
    }
}
