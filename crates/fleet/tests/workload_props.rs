//! `SyntheticWorkload` against the generator it replaced, which evaluated
//! the diurnal sine at every thinning candidate and drew its uniform
//! through `SimRng::chance`. The current generator draws the uniform
//! first and skips the sine below the curve's floor; the two must agree
//! record for record. A shape `WorkloadConfig::validate` rejects never
//! reaches a draw: `SyntheticWorkload::new` panics with its message.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rh_fleet::config::WorkloadConfig;
use rh_fleet::workload::{SyntheticWorkload, VmArrival, WorkloadReader};
use rh_sim::rng::SimRng;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::{SimDuration, SimTime};
use rh_sim::{prop_ensure, prop_ensure_eq};

/// The reference generator: the sine at every candidate.
struct Reference {
    cfg: WorkloadConfig,
    horizon: SimDuration,
    rng: SimRng,
    t: f64,
}

impl Reference {
    fn rate_at(&self, t: f64) -> f64 {
        let phase = t / self.cfg.diurnal_period.as_secs_f64() * std::f64::consts::TAU;
        self.cfg.arrival_rate * (1.0 + self.cfg.diurnal_amplitude * phase.sin())
    }
}

impl WorkloadReader for Reference {
    fn next_arrival(&mut self) -> Option<VmArrival> {
        let peak = self.cfg.arrival_rate * (1.0 + self.cfg.diurnal_amplitude);
        if peak <= 0.0 {
            return None;
        }
        let horizon = self.horizon.as_secs_f64();
        loop {
            self.t += self.rng.exponential(1.0 / peak);
            if self.t > horizon {
                return None;
            }
            if !self.rng.chance(self.rate_at(self.t) / peak) {
                continue;
            }
            let lifetime = self
                .rng
                .exponential(self.cfg.mean_lifetime.as_secs_f64())
                .max(1.0);
            let paired = self.rng.chance(self.cfg.pair_fraction);
            return Some(VmArrival {
                at: SimTime::from_secs_f64(self.t),
                lifetime: SimDuration::from_secs_f64(lifetime),
                paired,
            });
        }
    }
}

/// A drained generator: its records, and the message of the panic that
/// ended it, if one did.
type Drained = (Vec<VmArrival>, Option<String>);

/// A caught panic's message.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn drain(reader: &mut dyn WorkloadReader) -> Drained {
    let mut records = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        while let Some(a) = reader.next_arrival() {
            records.push(a);
        }
    }));
    let panic = outcome.err().map(panic_message);
    (records, panic)
}

/// Both generators over one shape and seed.
fn both(cfg: WorkloadConfig, horizon: SimDuration, seed: u64) -> (Drained, Drained) {
    let rng = SimRng::from_seed(seed);
    let mut reference = Reference {
        cfg,
        horizon,
        rng: rng.clone(),
        t: 0.0,
    };
    let mut current = SyntheticWorkload::new(cfg, horizon, rng);
    (drain(&mut reference), drain(&mut current))
}

/// `10^x` for `x` uniform in `[lo, hi)`: a magnitude spanning decades.
fn decades(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    10f64.powf(g.f64_in(lo, hi))
}

/// Shapes that `WorkloadConfig::validate` accepts, at the edges of each
/// field: amplitude 0, tiny, mid and the largest below 1; rates, periods,
/// lifetimes and horizons across several orders of magnitude; pair
/// fraction 0, mid and 1.
#[test]
fn synthetic_workload_matches_the_reference_record_for_record() {
    check(
        "synthetic_workload_matches_the_reference_record_for_record",
        &Config::with_cases(256),
        |g: &mut Gen| {
            let amplitude = match g.u32_in(0, 4) {
                0 => 0.0,
                1 => decades(g, -15.0, -6.0),
                2 => g.f64_in(0.0, 1.0),
                _ => 1.0 - f64::EPSILON / 2.0,
            };
            let pair_fraction = match g.u32_in(0, 3) {
                0 => 0.0,
                1 => g.f64_in(0.0, 1.0),
                _ => 1.0,
            };
            let cfg = WorkloadConfig {
                arrival_rate: decades(g, -3.0, 3.0),
                mean_lifetime: SimDuration::from_secs_f64(decades(g, -2.0, 5.0)),
                diurnal_amplitude: amplitude,
                diurnal_period: SimDuration::from_secs_f64(decades(g, -6.0, 6.0))
                    .max(SimDuration::from_micros(1)),
                pair_fraction,
            };
            prop_ensure_eq!(cfg.validate(), Ok(()), "{cfg:?}");
            // At most about 4,000 candidates per run.
            let peak = cfg.arrival_rate * (1.0 + amplitude);
            let horizon = SimDuration::from_secs_f64(decades(g, 0.0, 6.0).min(4_000.0 / peak));
            let seed = g.any_u64();
            let (reference, current) = both(cfg, horizon, seed);
            prop_ensure_eq!(reference.1, None, "{cfg:?}");
            let first_difference = current.0.iter().zip(&reference.0).position(|(a, b)| a != b);
            prop_ensure!(
                current == reference,
                "{cfg:?}, {horizon}, seed {seed}: {} vs {} records, first difference at {first_difference:?}",
                current.0.len(),
                reference.0.len()
            );
            Ok(())
        },
    );
}

/// Shapes that `WorkloadConfig::validate` rejects, each field at least
/// once: `SyntheticWorkload::new` panics with `validate`'s message, which
/// names the field, before a single draw. Amplitude 1, whose curve
/// touches zero but never leaves `[0, 1]`, is refused too.
#[test]
fn invalid_shapes_panic_at_construction() {
    let base = WorkloadConfig {
        arrival_rate: 2.0,
        mean_lifetime: SimDuration::from_secs(300),
        diurnal_amplitude: 0.3,
        diurnal_period: SimDuration::from_secs(1000),
        pair_fraction: 0.25,
    };
    let amplitude = |a| WorkloadConfig {
        diurnal_amplitude: a,
        ..base
    };
    let zero_period = |a| WorkloadConfig {
        diurnal_period: SimDuration::ZERO,
        ..amplitude(a)
    };
    let shapes = [
        ("diurnal_amplitude", amplitude(1.5)),
        ("diurnal_amplitude", amplitude(-0.5)),
        ("diurnal_amplitude", amplitude(1.0)),
        ("diurnal_period", zero_period(0.3)),
        ("diurnal_period", zero_period(0.0)),
        (
            "arrival_rate",
            WorkloadConfig {
                arrival_rate: 0.0,
                ..base
            },
        ),
        (
            "mean_lifetime",
            WorkloadConfig {
                mean_lifetime: SimDuration::ZERO,
                ..base
            },
        ),
        (
            "pair_fraction",
            WorkloadConfig {
                pair_fraction: 1.5,
                ..base
            },
        ),
    ];
    for (field, cfg) in shapes {
        let refused = cfg.validate().expect_err("an invalid shape");
        let built = catch_unwind(|| {
            SyntheticWorkload::new(cfg, SimDuration::from_secs(5000), SimRng::from_seed(2007))
        });
        let message = built.err().map(panic_message);
        assert_eq!(message.as_deref(), Some(&*refused), "{cfg:?}");
        assert!(refused.contains(field), "{cfg:?}: {refused:?}");
    }
}
