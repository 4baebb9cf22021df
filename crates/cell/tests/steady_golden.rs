//! The steady cell's golden: `CellConfig::steady` for every strategy at
//! overcommit 1.0, 1.5 and 2.0, seeds 2007 and 4099, each run into an
//! enabled `EventLog`. Every `CellReport` field is pinned, and so is the
//! FNV-1a-64 digest of the rendered event stream.
//!
//! At 2.0× the admission cap is 64 resident VMs, twice what the host
//! holds at spec (the balloon runs here peak at 49 and 45), and balloon
//! reclaim walks the running VMs in ascending id order, squeezing each
//! toward its floor until the new image fits. That order decides which
//! VMs shrink, and so the stream, the reclaimed and deflated page counts
//! and the utilization integral; a table that walks in any other order
//! changes the pins. `cell_golden.rs` pins the small 1.5× burst; this
//! test covers the calibrated shape the benchmark grid and cellbench
//! run. A drifted run prints its new pin in the table's own syntax;
//! update the pins only with a deliberate behaviour change.

use rh_cell::{CellConfig, CellReport, CellSimulation, ProvisionStrategy};
use rh_obs::EventLog;
use rh_sim::time::SimDuration;
use ProvisionStrategy::{BalloonReclaim, Cold, Warm};

/// FNV-1a-64 of a rendered stream: one number that pins every byte.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned run: its config and every field of its report.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pin {
    strategy: ProvisionStrategy,
    overcommit: f64,
    seed: u64,
    /// `provisioned`, `warm_hits`, `cold_boots`, `queued`, `rejected`,
    /// `evicted`, `reclaimed_pages`, `deflated_pages`, `peak_resident`,
    /// `completed` and `events`, in that order.
    ledger: [u64; 11],
    /// `mean_utilization`, by its bits.
    utilization: u64,
    /// The cold-start histogram in µs: count, min, mean, max, P50, P99.
    cold_start_us: [u64; 6],
    /// FNV-1a-64 of `log.render()`.
    stream: u64,
}

fn config(strategy: ProvisionStrategy, overcommit: f64, seed: u64) -> CellConfig {
    CellConfig {
        seed,
        ..CellConfig::steady(strategy, overcommit)
    }
}

fn micros(d: Option<SimDuration>) -> u64 {
    d.map_or(0, SimDuration::as_micros)
}

/// Runs one config into an enabled log and reads back its pin.
fn measure(strategy: ProvisionStrategy, overcommit: f64, seed: u64) -> (Pin, CellReport) {
    let mut log = EventLog::new();
    let r = CellSimulation::new(config(strategy, overcommit, seed))
        .expect("steady config is valid")
        .run_with_log(&mut log)
        .expect("steady run completes");
    let h = &r.cold_start;
    let pin = Pin {
        strategy,
        overcommit,
        seed,
        ledger: [
            r.provisioned,
            r.warm_hits,
            r.cold_boots,
            r.queued,
            r.rejected,
            r.evicted,
            r.reclaimed_pages,
            r.deflated_pages,
            r.peak_resident as u64,
            r.completed,
            r.events,
        ],
        utilization: r.mean_utilization.to_bits(),
        cold_start_us: [
            h.count(),
            micros(h.min()),
            micros(h.mean()),
            micros(h.max()),
            r.p50().as_micros(),
            r.p99().as_micros(),
        ],
        stream: fnv1a64(&log.render()),
    };
    (pin, r)
}

const PINS: [Pin; 18] = [
    Pin {
        strategy: Cold,
        overcommit: 1.0,
        seed: 2007,
        ledger: [1493, 0, 1493, 0, 131, 0, 0, 0, 32, 1493, 3117],
        utilization: 0x3fe7828eea552772,
        cold_start_us: [1493, 154096, 154096, 154096, 262144, 262144],
        stream: 0x4b1d6b61d83af38d,
    },
    Pin {
        strategy: Cold,
        overcommit: 1.5,
        seed: 2007,
        ledger: [1599, 0, 1599, 751, 25, 0, 0, 0, 32, 1599, 3223],
        utilization: 0x3fe91f6870727eb6,
        cold_start_us: [1599, 154096, 1992189, 12656646, 262144, 16777216],
        stream: 0x99633d43a85668dc,
    },
    Pin {
        strategy: Cold,
        overcommit: 2.0,
        seed: 2007,
        ledger: [1623, 0, 1623, 911, 1, 0, 0, 0, 32, 1623, 3247],
        utilization: 0x3fe998613b2b441f,
        cold_start_us: [1623, 154096, 4713607, 21367858, 2097152, 33554432],
        stream: 0x410af6d45f2f9ec6,
    },
    Pin {
        strategy: Warm,
        overcommit: 1.0,
        seed: 2007,
        ledger: [1508, 1421, 87, 0, 116, 0, 0, 0, 32, 1508, 3132],
        utilization: 0x3feb3e0c0663dbe2,
        cold_start_us: [1508, 15409, 23410, 154096, 16384, 262144],
        stream: 0x88959a40784f390d,
    },
    Pin {
        strategy: Warm,
        overcommit: 1.5,
        seed: 2007,
        ledger: [1601, 1527, 74, 714, 23, 0, 0, 0, 32, 1601, 3225],
        utilization: 0x3feb86ff83788656,
        cold_start_us: [1601, 15409, 1765119, 14186206, 16384, 16777216],
        stream: 0x07f714965b2d9ec5,
    },
    Pin {
        strategy: Warm,
        overcommit: 2.0,
        seed: 2007,
        ledger: [1624, 1553, 71, 883, 0, 0, 0, 0, 32, 1624, 3248],
        utilization: 0x3febc56fe4df4598,
        cold_start_us: [1624, 15409, 4177614, 20331517, 1048576, 33554432],
        stream: 0x4a615d49a7347a9b,
    },
    Pin {
        strategy: BalloonReclaim,
        overcommit: 1.0,
        seed: 2007,
        ledger: [1508, 1421, 87, 0, 116, 0, 0, 0, 32, 1508, 3132],
        utilization: 0x3feb3e0c0663dbe2,
        cold_start_us: [1508, 15409, 23410, 154096, 16384, 262144],
        stream: 0x88959a40784f390d,
    },
    Pin {
        strategy: BalloonReclaim,
        overcommit: 1.5,
        seed: 2007,
        ledger: [1623, 1477, 146, 0, 1, 0, 128512, 100352, 48, 1623, 3247],
        utilization: 0x3feb0dc0c4752ad6,
        cold_start_us: [1623, 15102, 28192, 161144, 16384, 262144],
        stream: 0x11d799f1a8d72c9a,
    },
    Pin {
        strategy: BalloonReclaim,
        overcommit: 2.0,
        seed: 2007,
        ledger: [1624, 1477, 147, 0, 0, 0, 132096, 101888, 49, 1624, 3248],
        utilization: 0x3feb0f873f5fbf8b,
        cold_start_us: [1624, 15102, 28278, 161144, 16384, 262144],
        stream: 0xfcec60f7140ca0ac,
    },
    Pin {
        strategy: Cold,
        overcommit: 1.0,
        seed: 4099,
        ledger: [1479, 0, 1479, 0, 115, 0, 0, 0, 32, 1479, 3073],
        utilization: 0x3fe822a6a38e99e2,
        cold_start_us: [1479, 154096, 154096, 154096, 262144, 262144],
        stream: 0x729898d9678a3e61,
    },
    Pin {
        strategy: Cold,
        overcommit: 1.5,
        seed: 4099,
        ledger: [1585, 0, 1585, 625, 9, 0, 0, 0, 32, 1585, 3179],
        utilization: 0x3fe9b1ec2b5a5f70,
        cold_start_us: [1585, 154096, 1887175, 11906766, 262144, 16777216],
        stream: 0x59967b35e0ca9608,
    },
    Pin {
        strategy: Cold,
        overcommit: 2.0,
        seed: 4099,
        ledger: [1594, 0, 1594, 702, 0, 0, 0, 0, 32, 1594, 3188],
        utilization: 0x3fe9e57227a5d285,
        cold_start_us: [1594, 154096, 2500937, 12087663, 262144, 16777216],
        stream: 0x81c639edfda8c97f,
    },
    Pin {
        strategy: Warm,
        overcommit: 1.0,
        seed: 4099,
        ledger: [1486, 1393, 93, 0, 108, 0, 0, 0, 32, 1486, 3080],
        utilization: 0x3febdcd7dbb71340,
        cold_start_us: [1486, 15409, 24088, 154096, 16384, 262144],
        stream: 0x3c524db4cc79a422,
    },
    Pin {
        strategy: Warm,
        overcommit: 1.5,
        seed: 4099,
        ledger: [1588, 1518, 70, 613, 6, 0, 0, 0, 32, 1588, 3182],
        utilization: 0x3fec5dc450a28876,
        cold_start_us: [1588, 15409, 1660928, 11629392, 16384, 16777216],
        stream: 0xa48f92b3697aaf78,
    },
    Pin {
        strategy: Warm,
        overcommit: 2.0,
        seed: 4099,
        ledger: [1594, 1526, 68, 671, 0, 0, 0, 0, 32, 1594, 3188],
        utilization: 0x3fec62a38787ae2a,
        cold_start_us: [1594, 15409, 2087392, 11629392, 16384, 16777216],
        stream: 0xed4f0b83dd237add,
    },
    Pin {
        strategy: BalloonReclaim,
        overcommit: 1.0,
        seed: 4099,
        ledger: [1486, 1393, 93, 0, 108, 0, 0, 0, 32, 1486, 3080],
        utilization: 0x3febdcd7dbb71340,
        cold_start_us: [1486, 15409, 24088, 154096, 16384, 262144],
        stream: 0x3c524db4cc79a422,
    },
    Pin {
        strategy: BalloonReclaim,
        overcommit: 1.5,
        seed: 4099,
        ledger: [1594, 1442, 152, 0, 0, 0, 124928, 95232, 45, 1594, 3188],
        utilization: 0x3feb9e77ebf26a2f,
        cold_start_us: [1594, 15102, 28945, 161144, 16384, 262144],
        stream: 0x3ecdced8e4502be3,
    },
    Pin {
        strategy: BalloonReclaim,
        overcommit: 2.0,
        seed: 4099,
        ledger: [1594, 1442, 152, 0, 0, 0, 124928, 95232, 45, 1594, 3188],
        utilization: 0x3feb9e77ebf26a2f,
        cold_start_us: [1594, 15102, 28945, 161144, 16384, 262144],
        stream: 0x3ecdced8e4502be3,
    },
];

#[test]
fn every_steady_cell_is_pinned_field_by_field() {
    let mut drifted = Vec::new();
    for pin in PINS {
        let (got, r) = measure(pin.strategy, pin.overcommit, pin.seed);
        if got != pin {
            drifted.push(format!("{got:?}"));
        }
        // The ledger's own identities, which a wrong pin could not hide.
        assert_eq!(r.cold_start.count(), r.provisioned, "{pin:?}");
        assert_eq!(r.provisioned, r.warm_hits + r.cold_boots, "{pin:?}");
        assert_eq!(r.completed, r.provisioned, "{pin:?}: the cell drains");
    }
    assert!(
        drifted.is_empty(),
        "{} of {} steady runs drifted; they now read:\n{}",
        drifted.len(),
        PINS.len(),
        drifted.join(",\n")
    );
}

#[test]
fn the_doubled_cap_reclaims_past_the_physical_slots() {
    // The case the pins exist for: at 2.0× the balloon strategy holds
    // more VMs than fit at spec, room that only reclaim makes.
    for seed in [2007, 4099] {
        let (_, r) = measure(BalloonReclaim, 2.0, seed);
        assert!(r.reclaimed_pages > 0, "seed {seed}: no reclaim");
        assert!(r.peak_resident > 32, "seed {seed}: {r:?}");
    }
}
