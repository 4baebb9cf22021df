//! A generic explicit-state model-checking engine.
//!
//! The warm-reboot checker ([`crate::protocol`]) and the fleet checker
//! ([`crate::fleet`]) are both instances of the same algorithm: exhaustive
//! breadth-first exploration of every event interleaving, invariant checks
//! in every reachable state, and a shortest counterexample path when one
//! fails. This module owns that algorithm once, behind the [`Model`]
//! trait, and layers three scaling mechanisms on top (DESIGN.md §14):
//!
//! * **Symmetry reduction** — the model's [`Model::encode`] returns the
//!   *canonical* encoding of a state (e.g. quotiented under domain
//!   permutation), so the visited set deduplicates whole orbits of
//!   symmetric states. The engine never sees the symmetry itself; it just
//!   trusts that `encode(a) == encode(b)` implies `a` and `b` have the
//!   same future behavior with respect to the invariants.
//! * **Partial-order reduction** — when a state has an enabled event that
//!   is *invisible* (can never change an invariant's truth value,
//!   [`Model::invisible`]) and *independent* of every other enabled event
//!   ([`Model::independent`]), exploring that event alone is enough: the
//!   deferred events commute past it. This is the classic singleton
//!   ample-set construction; the cycle proviso (condition C3) is enforced
//!   at merge time — a reduced step into an already-visited state falls
//!   back to full expansion, so no event is ignored around a cycle.
//! * **Parallel deterministic exploration** — each BFS level is expanded
//!   across [`rh_sim::pool`] workers and merged *sequentially* in
//!   (node-order, event-order), so states, transitions and the
//!   counterexample are byte-identical at any [`Options::jobs`] — the
//!   same contract as the PR 3 sweep executor.
//!
//! Soundness of the reduction is the model's responsibility (its
//! `independent`/`invisible`/`encode` declarations must be correct) and is
//! property-tested per model: reduced and unreduced exploration must agree
//! on pass/fail and on the violated invariant for every small config.
//!
//! The engine also owns the result of a check: every model reports a
//! [`Run`] whose [`Counterexample`] carries the raw event path, its typed
//! [`rh_obs::Event`] trace ([`Model::trace`]) and one rendering, and
//! [`replay`] walks any single path through a model's guards and
//! invariants.

use std::collections::BTreeSet;
use std::fmt;

/// A finite-state transition system the engine can explore.
///
/// Implementations must be deterministic: `enabled`, `apply`, `check` and
/// `encode` are pure functions of their arguments. The engine calls them
/// from worker threads, hence the `Sync` bounds.
pub trait Model: Sync {
    /// A full system state.
    type State: Clone + Send + Sync;
    /// One atomic transition label.
    type Event: Copy + PartialEq + fmt::Display + Send + Sync;

    /// Builds the initial state.
    ///
    /// # Errors
    ///
    /// Returns a message on a config the model cannot represent, or when
    /// model construction itself fails (not a property violation).
    fn initial(&self) -> Result<Self::State, String>;

    /// Events whose guards pass in `state`, in a fixed deterministic order
    /// (the order fixes which counterexample is "first").
    fn enabled(&self, state: &Self::State) -> Vec<Self::Event>;

    /// Applies one enabled event, returning the successor state.
    ///
    /// # Errors
    ///
    /// Returns a message on an internal model failure (guard already
    /// checked via [`enabled`](Self::enabled)).
    fn apply(&self, state: &Self::State, event: Self::Event) -> Result<Self::State, String>;

    /// Checks every invariant; `(invariant, detail)` on failure.
    ///
    /// # Errors
    ///
    /// The invariant name and a human-readable detail string.
    fn check(&self, state: &Self::State) -> Result<(), (String, String)>;

    /// Canonical encoding for the visited set. States with equal encodings
    /// are treated as the same state; a symmetry-quotient encoding is the
    /// hook for symmetry reduction.
    fn encode(&self, state: &Self::State) -> Vec<u64>;

    /// True for states that count as a completed run (goal states).
    fn is_goal(&self, state: &Self::State) -> bool;

    /// Maps an event path onto the typed observability events a
    /// counterexample renders, so a checker finding reads like a simulator
    /// trace.
    fn trace(&self, events: &[Self::Event]) -> Vec<rh_obs::Event>;

    /// True when `a` and `b` commute: co-enabled executions in either
    /// order reach the same state, and neither disables the other. Must be
    /// symmetric. The default (nothing is independent) disables
    /// partial-order reduction.
    fn independent(&self, a: Self::Event, b: Self::Event) -> bool {
        let _ = (a, b);
        false
    }

    /// True when `event` can never change the truth value of any invariant
    /// (a *stutter* action). Only invisible events may form a singleton
    /// ample set. The default (everything visible) disables partial-order
    /// reduction.
    fn invisible(&self, event: Self::Event) -> bool {
        let _ = event;
        false
    }
}

/// Exploration options: worker count, reduction switch, state budget.
#[derive(Debug, Clone)]
pub struct Options {
    /// Worker threads for level expansion (clamped to at least 1). Output
    /// is byte-identical at any value.
    pub jobs: usize,
    /// Enable partial-order reduction (the ample-set machinery). Symmetry
    /// lives in the model's `encode`, which models typically also gate on
    /// this flag so `reduce: false` reproduces the raw enumeration.
    pub reduce: bool,
    /// Abort with an error once more than this many distinct states have
    /// been inserted — the budget that makes "the unreduced checker cannot
    /// finish this config" a testable statement.
    pub max_states: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            jobs: 1,
            reduce: true,
            max_states: None,
        }
    }
}

/// A property violation with the event path that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample<E> {
    /// Which invariant failed.
    pub invariant: String,
    /// What exactly went wrong in the violating state.
    pub detail: String,
    /// Typed events from the initial state to the violation
    /// ([`Model::trace`] of `events`).
    pub trace: Vec<rh_obs::Event>,
    /// Model events from the initial state to the violation, in order
    /// (what [`replay`] accepts). Under breadth-first exploration this
    /// path has minimal length.
    pub events: Vec<E>,
}

impl<E> Counterexample<E> {
    fn new<M: Model<Event = E>>(
        model: &M,
        (invariant, detail): (String, String),
        events: Vec<E>,
    ) -> Self {
        Counterexample {
            invariant,
            detail,
            trace: model.trace(&events),
            events,
        }
    }
}

impl<E> fmt::Display for Counterexample<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant {} violated: {}", self.invariant, self.detail)?;
        writeln!(f, "counterexample trace ({} events):", self.trace.len())?;
        f.write_str(&rh_obs::render_numbered(&self.trace))
    }
}

/// The outcome of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run<E> {
    /// Distinct states visited (canonical encodings).
    pub states: u64,
    /// Transitions taken (including ones into already-visited states).
    pub transitions: u64,
    /// Distinct reachable goal states ([`Model::is_goal`]).
    pub completed: u64,
    /// The first violation found in deterministic merge order, if any.
    pub violation: Option<Counterexample<E>>,
}

impl<E> Run<E> {
    /// True when every reachable state satisfied every invariant.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// One explored node: the state plus the BFS tree edge that reached it.
struct Node<S, E> {
    state: S,
    parent: usize,
    event: Option<E>,
}

/// One successor computed by a worker.
struct Succ<S, E> {
    event: E,
    enc: Vec<u64>,
    state: S,
    fail: Option<(String, String)>,
}

/// A worker's expansion of one frontier node.
struct Expansion<S, E> {
    /// True when the ample-set machinery dropped events (singleton ample).
    reduced: bool,
    succs: Vec<Succ<S, E>>,
}

/// Singleton ample set: the first enabled event that is invisible and
/// independent of every other enabled event. Conditions C0 (non-empty) and
/// C2 (invisibility) are checked here; C1 (no dependent event can fire
/// before the ample one) is the model's obligation when declaring
/// independence, and C3 (cycle proviso) is enforced at merge time.
fn pick_ample<M: Model>(model: &M, enabled: &[M::Event]) -> Option<M::Event> {
    enabled
        .iter()
        .copied()
        .find(|&e| model.invisible(e) && enabled.iter().all(|&o| o == e || model.independent(e, o)))
}

/// Expands one node: apply every explored event, check invariants, encode.
fn expand<M: Model>(
    model: &M,
    state: &M::State,
    reduce: bool,
) -> Result<Expansion<M::State, M::Event>, String> {
    let enabled = model.enabled(state);
    let (events, reduced) = match pick_ample(model, &enabled) {
        Some(e) if reduce && enabled.len() > 1 => (vec![e], true),
        _ => (enabled, false),
    };
    let succs = events
        .into_iter()
        .map(|event| {
            let next = model.apply(state, event)?;
            let fail = model.check(&next).err();
            let enc = model.encode(&next);
            Ok(Succ {
                event,
                enc,
                state: next,
                fail,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Expansion { reduced, succs })
}

/// Reconstructs the event path from the initial node to `idx`.
fn path_to<S, E: Copy>(nodes: &[Node<S, E>], mut idx: usize) -> Vec<E> {
    let mut rev = Vec::new();
    while idx != 0 {
        let node = &nodes[idx];
        if let Some(e) = node.event {
            rev.push(e);
        }
        idx = node.parent;
    }
    rev.reverse();
    rev
}

/// Exhaustively explores the model breadth-first, checking every invariant
/// in every reachable state.
///
/// Counterexample paths are shortest (BFS), and the entire [`Run`] —
/// counts and counterexample — is byte-identical at any `opts.jobs`.
///
/// # Errors
///
/// Returns an error string on an internal model failure or when the
/// [`Options::max_states`] budget is exhausted; property violations come
/// back inside the [`Run`].
pub fn explore<M: Model>(model: &M, opts: &Options) -> Result<Run<M::Event>, String> {
    let init = model.initial()?;
    let mut run = Run {
        states: 1,
        transitions: 0,
        completed: u64::from(model.is_goal(&init)),
        violation: None,
    };
    if let Err(fail) = model.check(&init) {
        run.violation = Some(Counterexample::new(model, fail, Vec::new()));
        return Ok(run);
    }
    let mut visited: BTreeSet<Vec<u64>> = BTreeSet::new();
    visited.insert(model.encode(&init));
    let mut nodes: Vec<Node<M::State, M::Event>> = vec![Node {
        state: init,
        parent: 0,
        event: None,
    }];
    let mut level: Vec<usize> = vec![0];
    while !level.is_empty() {
        // Parallel phase: every frontier node expanded independently.
        // Workers read `nodes` (append happens only in the merge below)
        // and share nothing else, so any schedule computes the same
        // expansions.
        let expansions = rh_sim::pool::run_indexed(level.len(), opts.jobs, |k| {
            expand(model, &nodes[level[k]].state, opts.reduce)
        });
        // Sequential merge in (node-order, event-order): the single point
        // where visited/nodes/counters mutate, so every count and the
        // first-violation choice are independent of the worker schedule.
        let mut next_level: Vec<usize> = Vec::new();
        for (k, expansion) in expansions.into_iter().enumerate() {
            let idx = level[k];
            let mut expansion = expansion?;
            if expansion.reduced && expansion.succs.iter().all(|s| visited.contains(&s.enc)) {
                // Cycle proviso (C3): a reduced step that only reaches
                // already-visited states could close a cycle around which
                // the deferred events are ignored forever. Fall back to
                // the full expansion of this node.
                expansion = expand(model, &nodes[idx].state, false)?;
            }
            for succ in expansion.succs {
                run.transitions += 1;
                if let Some(fail) = succ.fail {
                    let mut events = path_to(&nodes, idx);
                    events.push(succ.event);
                    run.violation = Some(Counterexample::new(model, fail, events));
                    return Ok(run);
                }
                if visited.insert(succ.enc) {
                    run.states += 1;
                    run.completed += u64::from(model.is_goal(&succ.state));
                    if let Some(budget) = opts.max_states {
                        if run.states > budget {
                            return Err(format!(
                                "state budget exceeded: more than {budget} distinct states"
                            ));
                        }
                    }
                    nodes.push(Node {
                        state: succ.state,
                        parent: idx,
                        event: Some(succ.event),
                    });
                    next_level.push(nodes.len() - 1);
                }
            }
        }
        level = next_level;
    }
    Ok(run)
}

/// Replays one event path through the model's guards, transitions and
/// invariants: to re-validate a reduced counterexample against the
/// unreduced rules, or to check the order a simulator emits.
///
/// # Errors
///
/// A [`Counterexample`] ending at the offending event. Its invariant is
/// `model-init` when [`Model::initial`] fails, `guard` when an event fires
/// while its guard is false, `model-apply` on an internal model failure,
/// and otherwise the invariant that failed.
pub fn replay<M: Model>(model: &M, events: &[M::Event]) -> Result<(), Counterexample<M::Event>> {
    let mut state = model
        .initial()
        .map_err(|e| Counterexample::new(model, ("model-init".into(), e), Vec::new()))?;
    for (k, &event) in events.iter().enumerate() {
        let found = |fail| Counterexample::new(model, fail, events[..=k].to_vec());
        if !model.enabled(&state).contains(&event) {
            let detail = format!("event {event} fired while its guard is false");
            return Err(found(("guard".into(), detail)));
        }
        state = model
            .apply(&state, event)
            .map_err(|e| found(("model-apply".into(), e)))?;
        model.check(&state).map_err(found)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: `n` independent flags, each settable once (event = flag
    /// index). Goal: all set. With `trip_at = Some(k)`, any state with
    /// exactly `k` set flags violates the invariant. With `symmetric`,
    /// `encode` sorts the flags (all flags are interchangeable).
    struct Flags {
        n: usize,
        trip_at: Option<usize>,
        symmetric: bool,
    }

    impl Model for Flags {
        type State = Vec<bool>;
        type Event = usize;

        fn initial(&self) -> Result<Vec<bool>, String> {
            Ok(vec![false; self.n])
        }

        fn enabled(&self, state: &Vec<bool>) -> Vec<usize> {
            (0..self.n).filter(|&i| !state[i]).collect()
        }

        fn apply(&self, state: &Vec<bool>, event: usize) -> Result<Vec<bool>, String> {
            let mut next = state.clone();
            next[event] = true;
            Ok(next)
        }

        fn check(&self, state: &Vec<bool>) -> Result<(), (String, String)> {
            let set = state.iter().filter(|&&b| b).count();
            if Some(set) == self.trip_at {
                return Err(("K-flags".into(), format!("{set} flags set")));
            }
            Ok(())
        }

        fn encode(&self, state: &Vec<bool>) -> Vec<u64> {
            let mut out: Vec<u64> = state.iter().map(|&b| u64::from(b)).collect();
            if self.symmetric {
                out.sort_unstable();
            }
            out
        }

        fn is_goal(&self, state: &Vec<bool>) -> bool {
            state.iter().all(|&b| b)
        }

        fn trace(&self, events: &[usize]) -> Vec<rh_obs::Event> {
            events
                .iter()
                .map(|e| rh_obs::Event::note("flags", format!("set flag {e}")))
                .collect()
        }

        fn independent(&self, a: usize, b: usize) -> bool {
            a != b
        }

        fn invisible(&self, _event: usize) -> bool {
            // Setting a flag changes the set-count, which the invariant
            // reads — only stutter-safe when no invariant is armed.
            self.trip_at.is_none()
        }
    }

    fn flags(n: usize) -> Flags {
        Flags {
            n,
            trip_at: None,
            symmetric: false,
        }
    }

    #[test]
    fn raw_enumeration_counts_the_full_lattice() {
        let run = explore(
            &flags(4),
            &Options {
                reduce: false,
                ..Options::default()
            },
        )
        .unwrap();
        assert_eq!(run.states, 16); // 2^4 subsets
        assert_eq!(run.transitions, 32); // sum over subsets of unset flags
        assert_eq!(run.completed, 1);
        assert!(run.passed());
    }

    #[test]
    fn partial_order_reduction_collapses_independent_interleavings() {
        let run = explore(&flags(4), &Options::default()).unwrap();
        // All events independent + invisible: one representative path.
        assert_eq!(run.states, 5);
        assert_eq!(run.transitions, 4);
        assert_eq!(run.completed, 1);
    }

    #[test]
    fn symmetry_quotient_collapses_orbits_without_por() {
        let model = Flags {
            n: 4,
            trip_at: None,
            symmetric: true,
        };
        let run = explore(
            &model,
            &Options {
                reduce: false,
                ..Options::default()
            },
        )
        .unwrap();
        // Orbits of the 2^4 lattice under S4 = set-count 0..=4.
        assert_eq!(run.states, 5);
        assert!(run.passed());
    }

    #[test]
    fn bfs_counterexample_is_shortest() {
        let model = Flags {
            n: 5,
            trip_at: Some(3),
            symmetric: false,
        };
        let run = explore(
            &model,
            &Options {
                reduce: false,
                ..Options::default()
            },
        )
        .unwrap();
        let cex = run.violation.expect("3 set flags must be reachable");
        assert_eq!(cex.invariant, "K-flags");
        assert_eq!(cex.events.len(), 3, "BFS must find a 3-event path");
        assert_eq!(cex.events, vec![0, 1, 2], "first in merge order");
    }

    #[test]
    fn reduction_never_masks_the_violation() {
        let model = Flags {
            n: 5,
            trip_at: Some(3),
            symmetric: true,
        };
        let reduced = explore(&model, &Options::default()).unwrap();
        let raw = explore(
            &Flags {
                n: 5,
                trip_at: Some(3),
                symmetric: false,
            },
            &Options {
                reduce: false,
                ..Options::default()
            },
        )
        .unwrap();
        let (r, u) = (reduced.violation.unwrap(), raw.violation.unwrap());
        assert_eq!(r.invariant, u.invariant);
        assert_eq!(r.events.len(), u.events.len());
    }

    #[test]
    fn output_is_byte_identical_at_any_jobs() {
        for trip_at in [None, Some(3)] {
            let model = Flags {
                n: 6,
                trip_at,
                symmetric: false,
            };
            let baseline = explore(
                &model,
                &Options {
                    jobs: 1,
                    reduce: false,
                    ..Options::default()
                },
            )
            .unwrap();
            for jobs in [2, 4, 16] {
                let par = explore(
                    &model,
                    &Options {
                        jobs,
                        reduce: false,
                        ..Options::default()
                    },
                )
                .unwrap();
                assert_eq!(par, baseline, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn state_budget_aborts_with_an_error() {
        let err = explore(
            &flags(6),
            &Options {
                reduce: false,
                max_states: Some(10),
                ..Options::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("state budget exceeded"), "{err}");
        // The same budget is plenty once reduction is on.
        let run = explore(
            &flags(6),
            &Options {
                max_states: Some(10),
                ..Options::default()
            },
        )
        .unwrap();
        assert!(run.passed());
    }

    #[test]
    fn replay_accepts_a_valid_path_and_reports_guard_and_invariant_failures() {
        replay(&flags(3), &[2, 0, 1]).unwrap();
        let guard = replay(&flags(3), &[1, 1]).unwrap_err();
        assert_eq!(guard.invariant, "guard");
        assert_eq!(guard.detail, "event 1 fired while its guard is false");
        assert_eq!(guard.events, vec![1, 1]);
        let model = Flags {
            n: 4,
            trip_at: Some(2),
            symmetric: false,
        };
        let cex = replay(&model, &[3, 1]).unwrap_err();
        assert_eq!(
            (cex.invariant.as_str(), cex.detail.as_str()),
            ("K-flags", "2 flags set")
        );
        assert_eq!(cex.events, vec![3, 1]);
        assert_eq!(cex.trace, model.trace(&[3, 1]));
        assert!(
            cex.to_string().contains("    2. flags    set flag 1"),
            "{cex}"
        );
    }

    #[test]
    fn initial_state_violation_has_an_empty_path() {
        let model = Flags {
            n: 3,
            trip_at: Some(0),
            symmetric: false,
        };
        let run = explore(&model, &Options::default()).unwrap();
        let cex = run.violation.expect("initial state trips at 0 flags");
        assert!(cex.events.is_empty());
    }
}
