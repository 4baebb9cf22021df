//! The end-to-end golden test for the serverless cell (DESIGN.md §17):
//! a fixed-seed ~200-VM burst on one small overcommitted host must
//! produce the exact typed `rh_obs` event stream and the exact
//! cold-start percentiles, byte for byte, on every run. Any change to
//! arrival sampling, balloon accounting, provisioning order, or
//! histogram bucketing shows up here first — update the pins only with
//! a deliberate behavior change.

use rh_cell::{CellConfig, CellReport, CellSimulation, ProvisionStrategy};
use rh_obs::EventLog;
use rh_sim::time::SimDuration;

/// One full burst run (seed 2007, 1.5× overcommit) with its event stream.
fn burst_run(strategy: ProvisionStrategy) -> (CellReport, String) {
    let cfg = CellConfig::burst(strategy, 1.5);
    let mut log = EventLog::new();
    let report = CellSimulation::new(cfg)
        .expect("burst config is valid")
        .run_with_log(&mut log)
        .expect("burst run completes");
    (report, log.render())
}

/// The opening of the balloon-reclaim event stream, pinned verbatim.
/// Start events are stamped at boot *completion* (arrival + work), so
/// the stream is in processing order, not timestamp order — vm2's
/// departure at 2.419 s lands after vm8's 2.439 s boot completion.
const BALLOON_STREAM_HEAD: &str = "\
[    0.296s] cell     vm0 cold start latency=0.150s
[    0.393s] cell     vm1 cold start latency=0.150s
[    1.419s] cell     vm2 cold start latency=0.150s
[    1.595s] cell     vm3 cold start latency=0.150s
[    1.624s] cell     vm4 cold start latency=0.150s
[    1.921s] cell     vm5 cold start latency=0.150s
[    1.964s] cell     vm6 cold start latency=0.150s
[    2.295s] cell     vm7 cold start latency=0.150s
[    2.439s] cell     vm8 cold start latency=0.150s
[    2.419s] cell     vm2 parked warm
[    3.018s] cell     vm9 warm start latency=0.015s
[    3.323s] cell     vm10 cold start latency=0.150s
";

#[test]
fn balloon_burst_event_stream_and_percentiles_are_golden() {
    let (r, stream) = burst_run(ProvisionStrategy::BalloonReclaim);

    // The exact ledger of the 204-arrival burst against the 24-VM cap.
    assert_eq!(r.provisioned, 132, "{r:?}");
    assert_eq!(r.warm_hits, 107);
    assert_eq!(r.cold_boots, 25);
    assert_eq!(r.queued, 0, "balloon reclaim never leaves a VM waiting");
    assert_eq!(r.rejected, 71);
    assert_eq!(r.evicted, 0);
    assert_eq!(r.reclaimed_pages, 576);
    assert_eq!(r.deflated_pages, 16);
    assert_eq!(r.peak_resident, 24, "exactly at the 1.5x admission cap");
    assert_eq!(r.completed, r.provisioned, "burst drains completely");
    assert_eq!(r.events, 335);

    // Exact percentiles (log-bucket upper bounds): P50 is a warm hit
    // (16.4 ms bucket), P99 a cold boot (262 ms bucket).
    assert_eq!(r.p50(), SimDuration::from_micros(16_384));
    assert_eq!(r.p99(), SimDuration::from_micros(262_144));
    assert_eq!(r.cold_start.count(), r.provisioned);

    // The typed event stream, line for line at the head and in total.
    assert!(
        stream.starts_with(BALLOON_STREAM_HEAD),
        "stream head drifted:\n{}",
        stream.lines().take(12).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(stream.lines().count(), 344);

    // End to end deterministic: a second full run is equal, report and
    // stream byte for byte.
    let (again, stream_again) = burst_run(ProvisionStrategy::BalloonReclaim);
    assert_eq!(r, again);
    assert_eq!(stream, stream_again);
}

#[test]
fn cold_burst_pays_the_queue_and_pins_its_own_goldens() {
    let (r, stream) = burst_run(ProvisionStrategy::Cold);

    // Same arrival trace (same seed), different ledger: no warm pool,
    // so pressure turns into queueing and seconds-scale tail latency.
    assert_eq!(r.provisioned, 95);
    assert_eq!(r.warm_hits, 0);
    assert_eq!(r.queued, 76);
    assert_eq!(r.rejected, 108);
    assert_eq!(r.reclaimed_pages, 0);
    assert_eq!(r.peak_resident, 16, "cold caps out at physical slots");
    assert_eq!(r.p50(), SimDuration::from_micros(8_388_608));
    assert_eq!(r.p99(), SimDuration::from_micros(16_777_216));
    assert_eq!(stream.lines().count(), 374);

    // The acceptance contrast on the identical workload: balloon beats
    // cold on P99 cold-start by ~64x at 1.5x overcommit.
    let (balloon, _) = burst_run(ProvisionStrategy::BalloonReclaim);
    assert!(balloon.p99() < r.p99());
    assert!(balloon.rejected < r.rejected);
}

/// FNV-1a-64 of a rendered stream: one number that pins every byte.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The message shapes a cell stream may contain, in the order
/// [`shape_counts`] reports them.
const SHAPES: [&str; 7] = [
    "rejected at cap",
    "queued for frames",
    "parked warm",
    "departed",
    "warm start",
    "cold start",
    "reclaimed",
];

/// Lines per message shape, indexed like [`SHAPES`]. Panics on a line
/// that is not a cell note of a known shape.
fn shape_counts(stream: &str) -> [usize; 7] {
    let mut counts = [0; 7];
    for line in stream.lines() {
        let (_, msg) = line
            .split_once("] cell     ")
            .unwrap_or_else(|| panic!("not a cell note: {line}"));
        let shape = if msg.starts_with("reclaimed ") && msg.contains(" pages for vm") {
            "reclaimed"
        } else {
            let rest = msg
                .strip_prefix("vm")
                .map(|m| m.trim_start_matches(|c: char| c.is_ascii_digit()))
                .and_then(|m| m.strip_prefix(' '))
                .unwrap_or_else(|| panic!("unknown note shape: {line}"));
            match rest.split_once(" latency=") {
                Some((kind @ ("warm start" | "cold start"), _)) => kind,
                _ => rest,
            }
        };
        let i = SHAPES
            .iter()
            .position(|s| *s == shape)
            .unwrap_or_else(|| panic!("unknown note shape: {line}"));
        counts[i] += 1;
    }
    counts
}

#[test]
fn every_burst_stream_is_pinned_by_digest_and_shape() {
    // (strategy, FNV-1a-64 of the full render, lines per shape in SHAPES
    // order: rejected, queued, parked, departed, warm, cold, reclaimed).
    let pins = [
        (
            ProvisionStrategy::Cold,
            0x6f78_50a9_5565_91ec,
            [108, 76, 0, 95, 0, 95, 0],
        ),
        (
            ProvisionStrategy::Warm,
            0xc20c_04fa_bf49_f505,
            [106, 78, 85, 12, 81, 16, 0],
        ),
        (
            ProvisionStrategy::BalloonReclaim,
            0x3da1_3ec2_a7c7_b57f,
            [71, 0, 111, 21, 107, 25, 9],
        ),
    ];
    for (strategy, digest, counts) in pins {
        let (r, stream) = burst_run(strategy);
        let got = shape_counts(&stream);
        assert_eq!(
            (fnv1a64(&stream), got),
            (digest, counts),
            "{strategy} burst stream drifted (digest {:#018x})",
            fnv1a64(&stream)
        );
        // The shapes account for the ledger line by line.
        assert_eq!(got[0] as u64, r.rejected, "{strategy}");
        assert_eq!(got[1] as u64, r.queued, "{strategy}");
        assert_eq!((got[2] + got[3]) as u64, r.completed, "{strategy}");
        assert_eq!(got[4] as u64, r.warm_hits, "{strategy}");
        assert_eq!(got[5] as u64, r.cold_boots, "{strategy}");
    }
}
