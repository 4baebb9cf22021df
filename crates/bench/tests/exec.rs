//! Tier-1 determinism contract for the parallel sweep executor
//! (DESIGN.md §10): the same sweep must produce *byte-identical* results at
//! any worker count, and a panicking point must surface as a failed named
//! point instead of tearing the run down.

use rh_bench::exec::{PointError, Sweep, DEFAULT_SEED};
use rh_guest::services::ServiceKind;

/// Renders fig5 rows to the exact text the `fig5` binary prints, so the
/// comparison covers formatting, not just float equality.
fn fig5_text(jobs: usize) -> String {
    let rows = rh_bench::fig45::fig5_sweep(1..=5).run_values(jobs);
    rh_bench::fig45::render("fig5", "n", &rows).to_string()
}

fn fig6_text(jobs: usize) -> String {
    let rows = rh_bench::fig6::sweep_points(ServiceKind::Ssh, 1..=4).run_values(jobs);
    rh_bench::fig6::render("fig6a", &rows).to_string()
}

#[test]
fn parallel_sweeps_are_byte_identical_to_sequential() {
    assert_eq!(fig5_text(1), fig5_text(4));
    assert_eq!(fig6_text(1), fig6_text(4));
}

#[test]
fn results_come_back_in_submission_order() {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for i in 0..16u64 {
        // Larger indices do less work, so with several workers the later
        // points *finish* first; assembly order must not care.
        sweep.point(format!("point/{i}"), move |mut rng| {
            let mut acc = 0u64;
            for _ in 0..(16 - i) * 1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            (i, acc)
        });
    }
    let results = sweep.run(4);
    let order: Vec<u64> = results
        .iter()
        .map(|r| r.value().expect("no point panicked").0)
        .collect();
    assert_eq!(order, (0..16).collect::<Vec<u64>>());
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.name, format!("point/{i}"));
    }
}

#[test]
fn panicking_point_is_reported_as_failed_named_point() {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    sweep.point("good/before", |_rng| 1u32);
    sweep.point("bad/boom", |_rng| -> u32 { panic!("injected failure") });
    sweep.point("good/after", |_rng| 3u32);
    let results = sweep.run(2);
    assert_eq!(results.len(), 3);

    assert_eq!(results[0].name, "good/before");
    assert_eq!(results[0].value(), Some(&1));

    assert_eq!(results[1].name, "bad/boom");
    match &results[1].outcome {
        Err(PointError::Panicked(msg)) => {
            assert!(
                msg.contains("injected failure"),
                "panic message lost: {msg}"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    // The neighbouring points still ran to completion.
    assert_eq!(results[2].name, "good/after");
    assert_eq!(results[2].value(), Some(&3));
}

#[test]
fn per_point_metrics_snapshots_merge_jobs_invariantly() {
    use rh_obs::Metrics;
    use rh_sim::time::SimDuration;

    // The rh-obs aggregation pattern under the executor: every point
    // accumulates into a private registry and returns a snapshot; the
    // caller folds the snapshots in submission order. The folded registry
    // must not depend on the worker count — counters add, timers merge.
    fn merged(jobs: usize) -> Metrics {
        let mut sweep = Sweep::new(DEFAULT_SEED);
        for i in 0..12u64 {
            sweep.point(format!("metrics/{i}"), move |mut rng| {
                let mut m = Metrics::new();
                for _ in 0..=(i % 5) {
                    m.inc("points.work_items");
                }
                m.record(
                    "points.latency",
                    SimDuration::from_micros(rng.below(1_000_000)),
                );
                m.snapshot()
            });
        }
        let mut total = Metrics::new();
        for r in sweep.run(jobs) {
            total.merge(r.value().expect("no point panicked"));
        }
        total
    }

    let seq = merged(1);
    let par = merged(4);
    assert_eq!(seq, par, "metrics registry diverged across worker counts");
    assert_eq!(seq.render(), par.render());
    assert_eq!(
        seq.counter("points.work_items"),
        (0..12u64).map(|i| i % 5 + 1).sum::<u64>()
    );
    assert_eq!(
        seq.timer("points.latency").expect("timer exists").count(),
        12
    );
}
