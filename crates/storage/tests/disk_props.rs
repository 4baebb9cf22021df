//! Property tests for the disk's processor-sharing model under stream
//! churn — randomized submit/cancel schedules driven by seeded [`SimRng`]
//! streams (hermetic: no external property-test framework).
//!
//! The properties pin down what the frontier sweep and the closed-form
//! downtime models assume about [`Disk`]:
//!
//! * every byte submitted is either cancelled or delivered exactly once,
//! * the aggregate never exceeds the single-stream bandwidth, so the
//!   makespan is bounded below by `total_bytes / bandwidth`,
//! * a `per_stream_cap` lower-bounds every transfer at `bytes / cap` and
//!   never *speeds up* any completion,
//! * a cap at or above the full bandwidth is exactly a no-op,
//! * cancelling a stream never delays the survivors,
//! * the same schedule replays byte-identically.

use std::collections::BTreeMap;

use rh_sim::resource::JobId;
use rh_sim::rng::SimRng;
use rh_sim::time::SimTime;
use rh_storage::disk::{Disk, DiskConfig, IoKind};

/// One scripted action at a fixed instant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Act {
    /// Submit a transfer of this many bytes (alternating read/write).
    Submit(f64),
    /// Cancel the n-th submission if it is still in flight (no-op
    /// otherwise — churn scripts stay valid regardless of timing).
    Cancel(usize),
}

/// A randomized churn schedule: bursts of submissions interleaved with
/// cancellations at jittered instants.
fn random_script(rng: &mut SimRng, actions: usize) -> Vec<(f64, Act)> {
    let mut t = 0.0;
    let mut submissions = 0usize;
    let mut script = Vec::new();
    for _ in 0..actions {
        t += rng.range_f64(0.0, 2.5);
        if submissions > 1 && rng.chance(0.25) {
            script.push((t, Act::Cancel(rng.below(submissions as u64) as usize)));
        } else {
            // 1 MB .. 300 MB: spans sub-second and tens-of-seconds jobs.
            script.push((t, Act::Submit(rng.range_f64(1.0e6, 300.0e6))));
            submissions += 1;
        }
    }
    script
}

/// The fate of every submission in a schedule.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Per submission: (submit instant, bytes).
    submitted: Vec<(f64, f64)>,
    /// Per submission: completion instant, `None` if cancelled.
    completed_at: Vec<Option<f64>>,
    /// Bytes accounted by the disk's own read+write counters.
    accounted: f64,
}

/// Drives one schedule through a fresh disk to quiescence.
fn execute(cfg: DiskConfig, script: &[(f64, Act)]) -> Outcome {
    let mut disk = Disk::new(cfg);
    let mut live: Vec<Option<JobId>> = Vec::new();
    let mut index_of: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut submitted: Vec<(f64, f64)> = Vec::new();
    let mut completed_at: Vec<Option<f64>> = Vec::new();
    let mut next = 0usize;
    let mut now = SimTime::ZERO;
    loop {
        let due = script.get(next).map(|&(t, _)| t);
        let done = disk.next_completion(now).map(SimTime::as_secs_f64);
        match (due, done) {
            (None, None) => break,
            // A completion lands before the next scripted action.
            (_, Some(td)) if due.map(|ta| td <= ta).unwrap_or(true) => {
                now = SimTime::from_secs_f64(td);
                for id in disk.take_completed(now) {
                    let idx = index_of[&id];
                    completed_at[idx] = Some(td);
                    live[idx] = None;
                }
            }
            (Some(ta), _) => {
                now = SimTime::from_secs_f64(ta);
                let (_, act) = script[next];
                next += 1;
                match act {
                    Act::Submit(bytes) => {
                        let kind = if submitted.len().is_multiple_of(2) {
                            IoKind::Read
                        } else {
                            IoKind::Write
                        };
                        let id = disk.submit(now, kind, bytes);
                        index_of.insert(id, submitted.len());
                        live.push(Some(id));
                        submitted.push((ta, bytes));
                        completed_at.push(None);
                    }
                    Act::Cancel(idx) => {
                        if let Some(id) = live[idx].take() {
                            disk.cancel(now, id);
                            index_of.remove(&id);
                        }
                    }
                }
            }
            (None, Some(_)) => unreachable!("covered by the completion arm"),
        }
    }
    Outcome {
        accounted: disk.bytes_read() + disk.bytes_written(),
        submitted,
        completed_at,
    }
}

const TRIALS: u64 = 40;
const EPS: f64 = 1e-6;

fn capped(cap: f64) -> DiskConfig {
    DiskConfig {
        per_stream_cap: Some(cap),
        ..DiskConfig::ultra320_15krpm()
    }
}

#[test]
fn every_byte_is_delivered_once_or_cancelled() {
    for seed in 0..TRIALS {
        let mut rng = SimRng::from_seed(0xD15C_0000 + seed);
        let script = random_script(&mut rng, 24);
        let out = execute(capped(20.0e6), &script);
        let mut expected = 0.0;
        for (i, &(_, bytes)) in out.submitted.iter().enumerate() {
            if out.completed_at[i].is_some() {
                expected += bytes;
            }
        }
        assert!(
            (out.accounted - expected).abs() < 1.0,
            "seed {seed}: accounted {} != completed {expected}",
            out.accounted
        );
    }
}

#[test]
fn aggregate_bandwidth_bounds_the_makespan() {
    for seed in 0..TRIALS {
        let mut rng = SimRng::from_seed(0xA66B_0000 + seed);
        let script = random_script(&mut rng, 24);
        let cfg = DiskConfig::ultra320_15krpm();
        let out = execute(cfg, &script);
        let finish = out
            .completed_at
            .iter()
            .flatten()
            .fold(0.0f64, |a, &b| a.max(b));
        let start = out.submitted.first().map(|&(t, _)| t).unwrap_or(0.0);
        // The contention penalty only ever *lowers* the aggregate, so
        // total delivered bytes / single-stream bandwidth is a floor.
        assert!(
            finish - start + EPS >= out.accounted / cfg.bandwidth_bps,
            "seed {seed}: {} bytes in {}s beats the disk",
            out.accounted,
            finish - start
        );
    }
}

#[test]
fn per_stream_cap_lower_bounds_every_transfer() {
    let cap = 15.0e6;
    for seed in 0..TRIALS {
        let mut rng = SimRng::from_seed(0xCA90_0000 + seed);
        let script = random_script(&mut rng, 24);
        let out = execute(capped(cap), &script);
        for (i, &(t0, bytes)) in out.submitted.iter().enumerate() {
            if let Some(t1) = out.completed_at[i] {
                assert!(
                    t1 - t0 + EPS >= bytes / cap,
                    "seed {seed} job {i}: {bytes} bytes in {}s under a {cap} B/s cap",
                    t1 - t0
                );
            }
        }
    }
}

#[test]
fn a_cap_never_speeds_up_and_a_loose_cap_is_a_noop() {
    for seed in 0..TRIALS {
        let mut rng = SimRng::from_seed(0x0070_0000 + seed);
        let script = random_script(&mut rng, 20);
        let uncapped = execute(DiskConfig::ultra320_15krpm(), &script);
        let tight = execute(capped(10.0e6), &script);
        for (i, t) in uncapped.completed_at.iter().enumerate() {
            // Churn timing may let a cancel catch a slower capped job (or
            // miss an already-finished one); fates can differ.
            if let (Some(free), Some(capped_t)) = (t, tight.completed_at[i]) {
                assert!(
                    capped_t + EPS >= *free,
                    "seed {seed} job {i}: cap finished earlier ({capped_t} < {free})"
                );
            }
        }
        // A cap at the full single-stream bandwidth can never bind: the
        // fair share of n >= 1 streams is already below it.
        let loose = execute(capped(85.0e6), &script);
        assert_eq!(loose, uncapped, "seed {seed}: loose cap changed behavior");
    }
}

#[test]
fn cancelling_a_stream_never_delays_the_survivors() {
    for seed in 0..TRIALS {
        let mut rng = SimRng::from_seed(0xCAFE_0000 + seed);
        // Submissions only, then compare against the same schedule with
        // one mid-flight cancellation appended.
        let script: Vec<(f64, Act)> = random_script(&mut rng, 16)
            .into_iter()
            .filter(|(_, a)| matches!(a, Act::Submit(_)))
            .collect();
        let last_t = script.last().map(|&(t, _)| t).unwrap_or(0.0);
        let victim = rng.below(script.len() as u64) as usize;
        let mut with_cancel = script.clone();
        with_cancel.push((last_t + 0.5, Act::Cancel(victim)));

        let baseline = execute(capped(20.0e6), &script);
        let cancelled = execute(capped(20.0e6), &with_cancel);
        for (i, t) in cancelled.completed_at.iter().enumerate() {
            if i == victim {
                continue;
            }
            let (Some(after), Some(before)) = (t, baseline.completed_at[i]) else {
                panic!("seed {seed} job {i}: submission-only schedules always finish");
            };
            assert!(
                *after <= before + EPS,
                "seed {seed} job {i}: cancelling {victim} delayed {before} -> {after}"
            );
        }
    }
}

#[test]
fn schedules_replay_byte_identically() {
    for seed in 0..8 {
        let mut rng = SimRng::from_seed(0x5EED_0000 + seed);
        let script = random_script(&mut rng, 30);
        let a = execute(capped(12.0e6), &script);
        let b = execute(capped(12.0e6), &script);
        assert_eq!(a, b, "seed {seed}");
    }
}
