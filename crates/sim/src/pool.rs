//! A deterministic scoped worker pool.
//!
//! The executor contract introduced with the parallel sweep executor
//! (`rh_bench::exec`, DESIGN.md §10) and reused by the `rh-lint` model
//! checker's parallel state exploration: a batch of **indexed, independent
//! tasks** runs across N workers, and the assembled output is
//! **byte-identical at any worker count** because
//!
//! 1. each task is a pure function of its submission index (workers never
//!    pass state to each other),
//! 2. results are assembled in submission order, not completion order, and
//! 3. the only shared mutable structures are the work-queue cursor and the
//!    result slots.
//!
//! The pool is std-only (`std::thread::scope`) and holds no threads between
//! batches — workers are born and joined inside [`run_indexed`], which
//! keeps the call synchronous and the borrow story simple (the closure may
//! borrow the caller's stack).
//!
//! Panics inside `f` propagate out of [`run_indexed`] when the scope joins;
//! callers that need per-task isolation (the bench executor) wrap their
//! closure in [`std::panic::catch_unwind`] themselves.
//!
//! # Examples
//!
//! ```
//! let squares = rh_sim::pool::run_indexed(5, 4, |i| (i as u64) * (i as u64));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]); // submission order, any jobs
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `tasks` indexed tasks across up to `jobs` workers and returns the
/// results in index order.
///
/// `jobs` is clamped to `1..=tasks`; with one worker (or one task) the
/// closure runs inline on the caller's thread — the output is identical
/// either way, which is what the determinism smoke tests compare.
///
/// # Panics
///
/// Re-raises a panic from `f` when the thread scope joins.
pub fn run_indexed<T, F>(tasks: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(tasks);
    if workers == 1 {
        return (0..tasks).map(f).collect();
    }
    // Workers claim the next index from the shared cursor and push
    // `(index, result)`; assembly sorts by index, so completion order (the
    // only scheduling-dependent quantity) never reaches the caller.
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(tasks));
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let value = f(i);
                lock_ok(&slots).push((i, value));
            });
        }
    });
    let mut out = slots
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Locks a mutex, recovering the guard from a poisoned lock. A slot mutex
/// can only be poisoned by a panic in a sibling `f` call, which the scope
/// re-raises anyway; the data in the slot vector itself is always valid.
fn lock_ok<M>(mutex: &Mutex<M>) -> std::sync::MutexGuard<'_, M> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 32] {
            let out = run_indexed(17, jobs, |i| i * 10);
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = run_indexed(0, 4, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let out = run_indexed(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zero_jobs_means_one_worker() {
        let out = run_indexed(4, 0, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn closure_may_borrow_the_callers_stack() {
        let base = [5u64, 6, 7];
        let out = run_indexed(3, 2, |i| base[i] * 2);
        assert_eq!(out, vec![10, 12, 14]);
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let reference = run_indexed(64, 1, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        for jobs in [2, 3, 8] {
            assert_eq!(
                run_indexed(64, jobs, |i| (i as u64).wrapping_mul(0x9E37_79B9)),
                reference
            );
        }
    }
}
