//! Deterministic parallel experiment executor.
//!
//! Every figure in the paper's evaluation is a sweep of **independent
//! deterministic simulations** — one fresh [`HostSim`](rh_vmm::harness::HostSim)
//! per sweep point, each built from a fixed-seed config. That makes sweeps
//! embarrassingly parallel *as long as three invariants hold*:
//!
//! 1. **Per-point seeding.** Each point gets its own [`SimRng`] stream via
//!    [`SimRng::split`]: stream `i` depends only on the sweep seed and the
//!    point's submission index, never on worker count or scheduling order.
//! 2. **Order-independent assembly.** Results are slotted into a vector
//!    indexed by submission order, so the output is byte-identical whether
//!    the points ran on 1 worker or N.
//! 3. **No shared mutable state.** A point closure owns everything it
//!    touches; the only shared structures are the work queue cursor and
//!    the result slots.
//!
//! Worker closures must also never take the whole run down: a panicking
//! point is caught ([`std::panic::catch_unwind`]) and reported as a failed
//! [`PointResult`] carrying the point's name, while every other point
//! completes normally.
//!
//! The executor runs on the shared deterministic worker pool
//! ([`rh_sim::pool`] — std-only `std::thread::scope`, no external crates,
//! README §"Hermetic build") and is the engine behind `--jobs N` in every
//! experiment binary, which runs its sweeps through
//! [`Run::sweep`](crate::cli::Run::sweep). See DESIGN.md §10 for the
//! determinism argument.
//!
//! # Examples
//!
//! ```
//! use rh_bench::exec::Sweep;
//!
//! let mut sweep = Sweep::new(42);
//! for n in 1..=4u64 {
//!     sweep.point(format!("square/{n}"), move |_rng| n * n);
//! }
//! let results = sweep.run(2);
//! let values: Vec<u64> = results.iter().filter_map(|r| r.value().copied()).collect();
//! assert_eq!(values, [1, 4, 9, 16]); // submission order, any worker count
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rh_obs::WallProfile;
use rh_sim::rng::SimRng;

/// Default experiment seed for sweeps whose points ignore their RNG
/// (the paper sweeps: every point builds its own fixed-seed host).
pub const DEFAULT_SEED: u64 = 2007;

/// One named experiment point: a closure from an independent RNG stream to
/// a result.
struct Point<T> {
    name: String,
    run: Box<dyn FnOnce(SimRng) -> T + Send + 'static>,
}

/// A point and its RNG stream, waiting for the worker that claims it.
type Slot<T> = Mutex<Option<(Point<T>, SimRng)>>;

/// Why a point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// The point's closure panicked; the payload message is attached.
    Panicked(String),
    /// The point was never executed (executor invariant violation — should
    /// be unreachable, kept so assembly never has to panic itself).
    NotRun,
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Panicked(msg) => write!(f, "panicked: {msg}"),
            PointError::NotRun => write!(f, "never executed"),
        }
    }
}

/// The outcome of one executed point.
#[derive(Debug, Clone)]
pub struct PointResult<T> {
    /// The point's name, as submitted.
    pub name: String,
    /// Wall-clock time the point took on its worker.
    pub wall: Duration,
    /// Per-phase wall-clock spans: `"wait"` (batch start to claim) and
    /// `"run"` (the closure itself). Nondeterministic — quarantined to
    /// `BENCH_repro.json`, never stdout (DESIGN.md §10).
    pub profile: WallProfile,
    /// The value, or why the point failed.
    pub outcome: Result<T, PointError>,
}

impl<T> PointResult<T> {
    /// The value, if the point succeeded.
    pub fn value(&self) -> Option<&T> {
        self.outcome.as_ref().ok()
    }
}

/// A batch of named experiment points executed across `jobs` workers.
///
/// Points run in submission order on one worker, or work-stolen across N
/// workers; either way [`run`](Self::run) returns results in submission
/// order with byte-identical values.
pub struct Sweep<T> {
    seed: u64,
    points: Vec<Point<T>>,
}

impl<T> std::fmt::Debug for Sweep<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("seed", &self.seed)
            .field("points", &self.points.len())
            .finish()
    }
}

impl<T: Send + 'static> Sweep<T> {
    /// Creates an empty sweep whose per-point RNG streams derive from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Sweep {
            seed,
            points: Vec::new(),
        }
    }

    /// Submits a named point. `f` receives an independent [`SimRng`] stream
    /// derived from the sweep seed and this point's submission index
    /// (points that need no randomness simply ignore it).
    pub fn point(&mut self, name: impl Into<String>, f: impl FnOnce(SimRng) -> T + Send + 'static) {
        self.points.push(Point {
            name: name.into(),
            run: Box::new(f),
        });
    }

    /// Runs every point across `jobs` workers (clamped to at least 1) and
    /// returns the results in submission order.
    ///
    /// A panicking point becomes a [`PointError::Panicked`] result; it
    /// never poisons the other points or the executor itself.
    pub fn run(self, jobs: usize) -> Vec<PointResult<T>> {
        let n = self.points.len();
        // Names survive outside the task slots so assembly can label even a
        // point that (impossibly) never ran.
        let names: Vec<String> = self.points.iter().map(|p| p.name.clone()).collect();
        let rngs = SimRng::from_seed(self.seed).split(n);
        // Each slot owns (point, rng); the pool worker for index i takes the
        // slot's contents exactly once (`rh_sim::pool` handles the cursor,
        // scoped threads, and submission-order assembly).
        let tasks: Vec<Slot<T>> = self
            .points
            .into_iter()
            .zip(rngs)
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        let batch_start = Instant::now();

        rh_sim::pool::run_indexed(n, jobs, |i| {
            let Some((point, rng)) = lock_ok(&tasks[i]).take() else {
                return PointResult {
                    name: names[i].clone(),
                    wall: Duration::ZERO,
                    profile: WallProfile::new(),
                    outcome: Err(PointError::NotRun),
                };
            };
            let wait = batch_start.elapsed();
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| (point.run)(rng)))
                .map_err(|payload| PointError::Panicked(panic_message(payload.as_ref())));
            let run = start.elapsed();
            let mut profile = WallProfile::new();
            profile.record("wait", wait);
            profile.record("run", run);
            PointResult {
                name: point.name,
                wall: run,
                profile,
                outcome,
            }
        })
    }

    /// Runs the sweep and returns every value in submission order, for
    /// tests, where a failed point fails the test. The binaries run their
    /// sweeps through [`Run::sweep`](crate::cli::Run::sweep) instead, which
    /// records a failed point and goes on.
    ///
    /// # Panics
    ///
    /// Panics naming the first failed point.
    pub fn run_values(self, jobs: usize) -> Vec<T> {
        self.run(jobs)
            .into_iter()
            .map(|r| match r.outcome {
                Ok(v) => v,
                // lint:allow(unwrap-panic): documented test helper; binaries use Run::sweep
                Err(e) => panic!("sweep point {:?} failed: {e}", r.name),
            })
            .collect()
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock. Poisoning is
/// harmless here: every panic inside a worker is already confined to
/// `catch_unwind`, and a poisoned slot still holds valid data.
fn lock_ok<M>(mutex: &Mutex<M>) -> std::sync::MutexGuard<'_, M> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parses a `--jobs N` value: a positive worker count, or `0` meaning
/// "one worker per available CPU".
///
/// # Errors
///
/// Returns a usage message when `value` is not a non-negative integer.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("--jobs: expected a non-negative integer, got {value:?}"))?;
    if n == 0 {
        Ok(available_cpus())
    } else {
        Ok(n)
    }
}

/// Worker count for `--jobs 0`: the parallelism the OS reports, or 1.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_sweep(n: u64) -> Sweep<u64> {
        let mut sweep = Sweep::new(DEFAULT_SEED);
        for i in 1..=n {
            sweep.point(format!("square/{i}"), move |_rng| i * i);
        }
        sweep
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 4, 16] {
            let results = square_sweep(10).run(jobs);
            let values: Vec<u64> = results.iter().filter_map(|r| r.value().copied()).collect();
            assert_eq!(values, (1..=10).map(|i| i * i).collect::<Vec<_>>());
            let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names[0], "square/1");
            assert_eq!(names[9], "square/10");
        }
    }

    #[test]
    fn per_point_rng_is_independent_of_worker_count() {
        let draws = |jobs: usize| -> Vec<u64> {
            let mut sweep = Sweep::new(99);
            for i in 0..8 {
                sweep.point(format!("draw/{i}"), |mut rng: SimRng| rng.next_u64());
            }
            sweep.run_values(jobs)
        };
        let serial = draws(1);
        assert_eq!(serial, draws(4));
        assert_eq!(serial, draws(8));
        // And the streams really are distinct.
        let mut sorted = serial.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), serial.len());
    }

    #[test]
    fn panicking_point_is_reported_not_fatal() {
        let mut sweep = Sweep::new(0);
        sweep.point("ok/1", |_rng| 1u32);
        sweep.point("boom", |_rng| panic!("injected failure"));
        sweep.point("ok/2", |_rng| 2u32);
        let results = sweep.run(2);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].value(), Some(&1));
        assert_eq!(results[2].value(), Some(&2));
        assert_eq!(results[1].name, "boom");
        match &results[1].outcome {
            Err(PointError::Panicked(msg)) => assert!(msg.contains("injected failure")),
            other => panic!("expected a panicked point, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "sweep point \"b\" failed: panicked: nope")]
    fn run_values_panics_naming_the_failed_point() {
        let mut sweep = Sweep::new(0);
        sweep.point("a", |_rng| 1u32);
        sweep.point("b", |_rng| panic!("nope"));
        sweep.point("c", |_rng| 3u32);
        sweep.run_values(3);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let sweep: Sweep<u8> = Sweep::new(1);
        assert!(sweep.run(4).is_empty());
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        // More workers than points (and jobs=0 → cpu count) must not hang
        // or duplicate work.
        let results = square_sweep(3).run(64);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn parse_jobs_accepts_counts_and_zero() {
        assert_eq!(parse_jobs("3"), Ok(3));
        assert_eq!(parse_jobs("0"), Ok(available_cpus()));
        assert!(parse_jobs("many").is_err());
        assert!(parse_jobs("-1").is_err());
    }

    #[test]
    fn wall_time_is_recorded() {
        let mut sweep = Sweep::new(0);
        sweep.point("spin", |_rng| {
            let mut acc = 0u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let results = sweep.run(1);
        assert!(results[0].wall > Duration::ZERO);
    }

    #[test]
    fn wall_profile_records_wait_and_run_spans() {
        let results = square_sweep(3).run(2);
        for r in &results {
            assert!(r.profile.duration_of("wait").is_some(), "{}", r.name);
            assert_eq!(r.profile.duration_of("run"), Some(r.wall), "{}", r.name);
        }
    }
}
