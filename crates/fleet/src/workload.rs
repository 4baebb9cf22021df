//! Workload generation: synthetic Poisson/diurnal arrivals and replayable
//! traces.
//!
//! The simulation pulls [`VmArrival`]s from a [`WorkloadReader`] — the
//! only coupling between workload and fleet. [`SyntheticWorkload`] draws
//! a non-homogeneous Poisson process (Lewis–Shedler thinning against the
//! diurnal peak rate) from its own seeded [`SimRng`] stream, so the same
//! config replays byte-identically. Each candidate's uniform is drawn
//! before the diurnal curve is evaluated: a draw below the curve's floor
//! `(1 − a)/(1 + a)` accepts whatever the sine reads, so the sine runs
//! only for draws above it (40 % of candidates at the fleet's `a = 0.25`).
//! [`TraceWorkload`] replays a recorded
//! arrival list — record a synthetic run once with
//! [`TraceWorkload::record`], or load a trace from the plain-text format
//! ([`TraceWorkload::parse`] for strings, [`TraceWorkload::load`] /
//! [`TraceWorkload::save`] for files) to drive the fleet from external
//! data.

use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};

use crate::config::WorkloadConfig;

/// One VM arrival. `paired` arrivals create two replica VMs that place
/// separately (policy permitting) and depart together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmArrival {
    /// Arrival instant.
    pub at: SimTime,
    /// How long the VM(s) stay.
    pub lifetime: SimDuration,
    /// Whether this arrival is a two-replica pair.
    pub paired: bool,
}

/// A source of VM arrivals in nondecreasing time order.
pub trait WorkloadReader {
    /// The next arrival, or `None` when the workload is exhausted.
    fn next_arrival(&mut self) -> Option<VmArrival>;
}

/// Poisson arrivals with a diurnal rate curve, exponential lifetimes, and
/// Bernoulli replica pairs.
#[derive(Debug)]
pub struct SyntheticWorkload {
    cfg: WorkloadConfig,
    horizon: SimDuration,
    rng: SimRng,
    /// The diurnal peak rate λ_peak, the thinning envelope.
    peak: f64,
    /// A lower bound on every candidate's acceptance probability
    /// λ(t)/λ_peak: the curve's floor `(1 − a)/(1 + a)`.
    floor: f64,
    /// Candidate-process clock, seconds.
    t: f64,
}

impl SyntheticWorkload {
    /// A workload over `[0, horizon]` drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics with [`WorkloadConfig::validate`]'s message, which names the
    /// field, if `cfg` is a shape the generator cannot draw from.
    pub fn new(cfg: WorkloadConfig, horizon: SimDuration, rng: SimRng) -> Self {
        if let Err(e) = cfg.validate() {
            // lint:allow(unwrap-panic): documented contract (`# Panics`); the fleet and the cell validate first and return the message
            panic!("{e}");
        }
        let a = cfg.diurnal_amplitude;
        let peak = cfg.arrival_rate * (1.0 + a);
        // `acceptance` with the sine at −1 (`a × −1` is exactly `−a`), by
        // the same float operations: for `a` in [0, 1) each step (× a ≥ 0,
        // 1 + ·, × rate > 0, ÷ peak > 0) rounds monotonically, so no
        // candidate's probability falls below it.
        let floor = cfg.arrival_rate * (1.0 - a) / peak;
        SyntheticWorkload {
            cfg,
            horizon,
            rng,
            peak,
            floor,
            t: 0.0,
        }
    }

    /// The thinning acceptance probability λ(t)/λ_peak at `t` seconds.
    ///
    /// # Panics
    ///
    /// Panics if it falls outside `[0, 1]`, which no shape that
    /// [`new`](Self::new) accepts allows.
    fn acceptance(&self, t: f64) -> f64 {
        let phase = t / self.cfg.diurnal_period.as_secs_f64() * std::f64::consts::TAU;
        let rate = self.cfg.arrival_rate * (1.0 + self.cfg.diurnal_amplitude * phase.sin());
        let p = rate / self.peak;
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        p
    }
}

impl WorkloadReader for SyntheticWorkload {
    fn next_arrival(&mut self) -> Option<VmArrival> {
        let horizon = self.horizon.as_secs_f64();
        loop {
            self.t += self.rng.exponential(1.0 / self.peak);
            if self.t > horizon {
                return None;
            }
            // Thinning: accept with probability λ(t)/λ_peak. A uniform
            // below the floor is below that probability too.
            let u = self.rng.next_f64();
            if u >= self.floor && u >= self.acceptance(self.t) {
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

/// A replayable arrival trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWorkload {
    records: Vec<VmArrival>,
    next: usize,
}

impl TraceWorkload {
    /// A trace from explicit records.
    ///
    /// # Panics
    ///
    /// Panics if the records are not in nondecreasing time order.
    pub fn new(records: Vec<VmArrival>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].at <= w[1].at),
            "trace records must be time-ordered"
        );
        TraceWorkload { records, next: 0 }
    }

    /// Drains `reader` into a trace — e.g. to freeze one synthetic draw
    /// and replay it against several placement policies.
    pub fn record(reader: &mut dyn WorkloadReader) -> Self {
        let mut records = Vec::new();
        while let Some(a) = reader.next_arrival() {
            records.push(a);
        }
        TraceWorkload::new(records)
    }

    /// The recorded arrivals.
    pub fn records(&self) -> &[VmArrival] {
        &self.records
    }

    /// Renders the trace in the plain-text format: one
    /// `<at_us> <lifetime_us> <0|1>` line per arrival.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{} {} {}\n",
                r.at.as_micros(),
                r.lifetime.as_micros(),
                u8::from(r.paired)
            ));
        }
        out
    }

    /// Parses the plain-text trace format ([`render`](Self::render)'s
    /// inverse). Blank lines and `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let mut field = |name: &str| {
                parts
                    .next()
                    .ok_or_else(|| format!("trace line {}: missing {name}", i + 1))?
                    .parse::<u64>()
                    .map_err(|_| format!("trace line {}: malformed {name}", i + 1))
            };
            let at = field("arrival time")?;
            let lifetime = field("lifetime")?;
            let paired = field("pair flag")?;
            if paired > 1 {
                return Err(format!("trace line {}: pair flag must be 0 or 1", i + 1));
            }
            records.push(VmArrival {
                at: SimTime::from_micros(at),
                lifetime: SimDuration::from_micros(lifetime),
                paired: paired == 1,
            });
        }
        if !records.windows(2).all(|w| w[0].at <= w[1].at) {
            return Err("trace is not time-ordered".into());
        }
        Ok(TraceWorkload::new(records))
    }
}

impl TraceWorkload {
    /// Reads a trace from a plain-text file on disk (the dataset-reader
    /// half of [`parse`](Self::parse) — external traces become replayable
    /// fleet or cell workloads).
    ///
    /// # Errors
    ///
    /// Returns a message naming the path for I/O failures, or the first
    /// malformed line for format errors.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("trace {}: {e}", path.display()))?;
        TraceWorkload::parse(&text).map_err(|e| format!("trace {}: {e}", path.display()))
    }

    /// Writes the trace to disk in the plain-text format, so a recorded
    /// synthetic draw can be rerun later with [`load`](Self::load).
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on I/O failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.render()).map_err(|e| format!("trace {}: {e}", path.display()))
    }
}

impl WorkloadReader for TraceWorkload {
    fn next_arrival(&mut self) -> Option<VmArrival> {
        let r = self.records.get(self.next).copied();
        self.next += r.is_some() as usize;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            arrival_rate: 2.0,
            mean_lifetime: SimDuration::from_secs(300),
            diurnal_amplitude: 0.3,
            diurnal_period: SimDuration::from_secs(1000),
            pair_fraction: 0.25,
        }
    }

    #[test]
    fn synthetic_matches_the_mean_rate() {
        let horizon = SimDuration::from_secs(10_000);
        let mut w = SyntheticWorkload::new(cfg(), horizon, SimRng::from_seed(7));
        let trace = TraceWorkload::record(&mut w);
        let n = trace.records().len() as f64;
        // Poisson with mean 2/s over 10 ks → ~20k arrivals ± a few %.
        assert!((n - 20_000.0).abs() < 1_000.0, "{n} arrivals");
        let paired = trace.records().iter().filter(|r| r.paired).count() as f64;
        assert!(
            (paired / n - 0.25).abs() < 0.02,
            "pair fraction {}",
            paired / n
        );
        let mean_life: f64 = trace
            .records()
            .iter()
            .map(|r| r.lifetime.as_secs_f64())
            .sum::<f64>()
            / n;
        assert!(
            (mean_life - 300.0).abs() < 15.0,
            "mean lifetime {mean_life}"
        );
        // Within the horizon and time-ordered (TraceWorkload::new asserts).
        assert!(trace
            .records()
            .iter()
            .all(|r| r.at <= SimTime::ZERO + horizon));
    }

    #[test]
    fn diurnal_curve_shifts_density_toward_the_peak() {
        let mut c = cfg();
        c.diurnal_amplitude = 0.9;
        let horizon = SimDuration::from_secs(1000); // one full period
        let mut w = SyntheticWorkload::new(c, horizon, SimRng::from_seed(9));
        let trace = TraceWorkload::record(&mut w);
        // First half-period carries the sin peak, second the trough.
        let first = trace
            .records()
            .iter()
            .filter(|r| r.at < SimTime::from_secs(500))
            .count();
        let second = trace.records().len() - first;
        assert!(
            first as f64 > 1.5 * second as f64,
            "peak {first} vs trough {second}"
        );
    }

    #[test]
    fn synthetic_replays_byte_identically() {
        let horizon = SimDuration::from_secs(2000);
        let run = || {
            let mut w = SyntheticWorkload::new(cfg(), horizon, SimRng::from_seed(42));
            TraceWorkload::record(&mut w)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_text_roundtrip() {
        let horizon = SimDuration::from_secs(500);
        let mut w = SyntheticWorkload::new(cfg(), horizon, SimRng::from_seed(3));
        let trace = TraceWorkload::record(&mut w);
        let parsed = TraceWorkload::parse(&trace.render()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn trace_file_roundtrip() {
        let horizon = SimDuration::from_secs(200);
        let mut w = SyntheticWorkload::new(cfg(), horizon, SimRng::from_seed(11));
        let trace = TraceWorkload::record(&mut w);
        let path = std::env::temp_dir().join(format!(
            "rh-fleet-trace-{}-{}.txt",
            std::process::id(),
            trace.records().len()
        ));
        trace.save(&path).unwrap();
        let loaded = TraceWorkload::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn trace_load_names_the_path_on_error() {
        let err =
            TraceWorkload::load(std::path::Path::new("/nonexistent/rh-trace.txt")).unwrap_err();
        assert!(err.contains("/nonexistent/rh-trace.txt"), "{err}");
    }

    #[test]
    fn trace_parse_reports_malformed_lines() {
        assert!(TraceWorkload::parse("1 2\n").is_err());
        assert!(TraceWorkload::parse("1 2 5\n").is_err());
        assert!(TraceWorkload::parse("x 2 0\n").is_err());
        assert!(TraceWorkload::parse("5 2 0\n1 2 0\n").is_err(), "unordered");
        let ok = TraceWorkload::parse("# comment\n\n5 2 0\n7 9 1\n").unwrap();
        assert_eq!(ok.records().len(), 2);
        assert!(ok.records()[1].paired);
    }

    #[test]
    fn trace_reader_yields_records_in_order_then_drains() {
        let mut t = TraceWorkload::parse("1 1 0\n2 1 1\n").unwrap();
        assert_eq!(
            t.next_arrival(),
            Some(VmArrival {
                at: SimTime::from_micros(1),
                lifetime: SimDuration::from_micros(1),
                paired: false
            })
        );
        assert!(t.next_arrival().is_some());
        assert!(t.next_arrival().is_none());
    }
}
