//! The deterministic metrics registry.
//!
//! Named counters, gauges and [`LatencyHistogram`]-backed timers that the
//! host, the recovery engine, the cluster driver and the sweep executor
//! all emit into. Three properties make the registry safe to thread
//! through deterministic simulations:
//!
//! 1. **No clocks, no RNG.** The registry stores only what callers pass
//!    in; it never reads wall time or draws randomness, so arming it
//!    cannot perturb a seeded simulation (the zero-overhead gate in
//!    `scripts/verify.sh` holds by construction).
//! 2. **Sorted storage.** Everything lives in `BTreeMap`s, so iteration
//!    and rendering order are independent of insertion order and identical
//!    across runs and worker counts.
//! 3. **Mergeable snapshots.** [`Metrics::snapshot`] freezes the registry
//!    at any sim time; [`Metrics::merge`] folds snapshots from parallel
//!    sweep workers into the same totals a single-threaded run produces
//!    (counters add, timer histograms merge bucket-wise).

use std::collections::BTreeMap;
use std::fmt;

use rh_sim::histogram::LatencyHistogram;
use rh_sim::time::SimDuration;

/// A frozen copy of a [`Metrics`] registry (what parallel workers ship
/// back for merging). Snapshots are plain registries: freezing is a
/// clone, merging is [`Metrics::merge`].
pub type MetricsSnapshot = Metrics;

/// A registry of named counters, gauges and duration timers.
///
/// # Examples
///
/// ```
/// use rh_obs::Metrics;
/// use rh_sim::time::SimDuration;
///
/// let mut m = Metrics::new();
/// m.inc("reboots.warm");
/// m.record("reboot.downtime", SimDuration::from_secs(5));
/// assert_eq!(m.counter("reboots.warm"), 1);
/// assert_eq!(m.timer("reboot.downtime").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    timers: BTreeMap<String, LatencyHistogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to a counter. Only a counter's first update allocates
    /// its name.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// The current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to an instantaneous value.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The current value of a gauge, if ever set.
    #[cfg(test)]
    fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one duration sample into a timer histogram. Only a timer's
    /// first sample allocates its name.
    pub fn record(&mut self, name: &str, d: SimDuration) {
        if let Some(h) = self.timers.get_mut(name) {
            h.record(d);
        } else {
            let mut h = LatencyHistogram::default();
            h.record(d);
            self.timers.insert(name.to_string(), h);
        }
    }

    /// The histogram behind a timer, if any samples were recorded.
    pub fn timer(&self, name: &str) -> Option<&LatencyHistogram> {
        self.timers.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All timers in name order.
    pub fn timers(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.timers.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.timers.is_empty()
    }

    /// Freezes the registry into a snapshot (a plain clone; the registry
    /// keeps accumulating independently afterwards).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.clone()
    }

    /// Folds another registry (typically a worker snapshot) into this
    /// one: counters add, timer histograms merge bucket-wise, gauges take
    /// the other side's value when it has one (last write wins).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.timers {
            self.timers.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Discards everything.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.timers.clear();
    }

    /// Renders the registry, sorted by section and name — deterministic
    /// across runs and worker counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
        }
        if !self.timers.is_empty() {
            out.push_str("timers:\n");
            for (name, h) in &self.timers {
                out.push_str(&format!("  {name:<32} {}\n", h.summary()));
            }
        }
        out
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("untouched"), 0);
    }

    #[test]
    fn gauges_hold_last_value() {
        let mut m = Metrics::new();
        m.set_gauge("domains.running", 4);
        m.set_gauge("domains.running", 3);
        assert_eq!(m.gauge("domains.running"), Some(3));
        assert_eq!(m.gauge("never"), None);
    }

    #[test]
    fn timers_record_into_histograms() {
        let mut m = Metrics::new();
        m.record("mttr", ms(100));
        m.record("mttr", ms(300));
        let h = m.timer("mttr").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(ms(200)));
    }

    #[test]
    fn snapshot_then_merge_equals_single_registry() {
        // Two "workers" record disjoint interleavings; merging their
        // snapshots must equal one registry that saw everything.
        let mut all = Metrics::new();
        let mut w1 = Metrics::new();
        let mut w2 = Metrics::new();
        for i in 0..10u64 {
            let (w, name) = if i % 2 == 0 {
                (&mut w1, "even")
            } else {
                (&mut w2, "odd")
            };
            w.inc(name);
            w.record("latency", ms(i + 1));
            all.inc(name);
            all.record("latency", ms(i + 1));
        }
        let mut merged = Metrics::new();
        merged.merge(&w1.snapshot());
        merged.merge(&w2.snapshot());
        assert_eq!(merged, all);
    }

    #[test]
    fn merge_order_is_commutative_for_counters_and_timers() {
        let mut a = Metrics::new();
        a.inc("x");
        a.record("t", ms(1));
        let mut b = Metrics::new();
        b.add("x", 2);
        b.record("t", ms(9));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter("x"), ba.counter("x"));
        assert_eq!(ab.timer("t"), ba.timer("t"));
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.inc("zebra");
        m.inc("aard");
        m.set_gauge("g", -2);
        m.record("t", ms(5));
        let r = m.render();
        let aard = r.find("aard").unwrap();
        let zebra = r.find("zebra").unwrap();
        assert!(aard < zebra, "counters not name-sorted:\n{r}");
        assert!(r.contains("gauges:"));
        assert!(r.contains("timers:"));
        assert_eq!(m.to_string(), r);
    }

    #[test]
    fn clear_and_is_empty() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.inc("a");
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
    }
}
