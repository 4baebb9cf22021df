//! Shared measurement plumbing: the repetition loop, medians, peak RSS,
//! the metric catalogue and the JSON result line.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// The end-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run prints, whatever its workload:
/// a layer the workload does not reach reads 0. Counts and busy seconds
/// are per repetition of the workload's timed part.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("vmm.reboot_s.warm", "s"),
    ("vmm.reboot_s.saved", "s"),
    ("vmm.reboot_s.cold", "s"),
    ("vmm.reboot_s.streamed", "s"),
    ("vmm.reboot_s.incremental", "s"),
    ("vmm.serve_s", "s"),
    ("net.requests", "count"),
    ("storage.digest.full", "count"),
    ("storage.digest.early_out_ratio", "ratio"),
    ("storage.digest.busy_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.busy_s", "s"),
    ("sim.ps.busy_s", "s"),
    ("fleet.placement.calls", "count"),
    ("fleet.placement.probes", "count"),
    ("fleet.placement.reject_ratio", "ratio"),
    ("fleet.placement.busy_s", "s"),
    ("fleet.store.ops", "count"),
    ("fleet.store.busy_s", "s"),
    ("fleet.workload.arrivals", "count"),
    ("fleet.workload.busy_s", "s"),
    ("obs.metrics.updates", "count"),
    ("obs.metrics.busy_s", "s"),
    ("sim.flat.events", "count"),
    ("sim.flat.busy_s", "s"),
    ("cluster.migrations", "count"),
    ("cell.events", "count"),
    ("cell.warm_hit_ratio", "ratio"),
    ("memory.image_ops", "count"),
    ("memory.image_busy_s", "s"),
    ("memory.balloon.pages", "count"),
    ("memory.balloon.busy_s", "s"),
    ("obs.log.notes", "count"),
    ("obs.log.busy_s", "s"),
    ("bench.unexplained_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Repetitions every run makes, however long one takes.
pub const MIN_REPS: usize = 3;

/// Set-up samples every repetition takes; all but the last build are
/// dropped unused. Set-up takes well under a millisecond, so one sample
/// per repetition would leave too few to estimate it.
pub const SETUP_SAMPLES: usize = 10;

/// What one repetition of a workload produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Normalized host seconds per set-up build, one per sample (see
    /// [`set_up`]).
    pub setup_s: Vec<f64>,
    /// The timed operations, in the same order on every repetition (a
    /// reboot, a serving window, a grid point).
    pub clock: Clock,
    /// Operations attempted (reboots or grid points).
    pub ops: u64,
    /// Operations whose outputs broke a correctness check.
    pub failed: u64,
    /// The simulated outputs, rendered canonically (no host times).
    pub outputs: String,
}

/// Runs `rep` until `seconds` of host time have passed, and at least
/// [`MIN_REPS`] times.
pub fn repeat(seconds: f64, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep());
    }
    reps
}

/// Nominal host seconds of one [`reference_kernel`] run: normalized times
/// are expressed in these seconds. On a shared 2-vCPU Intel Xeon virtual
/// machine the kernel took 1.5–1.65 ms per run.
pub const KERNEL_S: f64 = 1.0e-3;

/// A fixed unit of host work that no change to the simulators can alter:
/// a discrete-event loop's mix of ordered-map and heap churn, small
/// vectors and string formatting, on data of its own. The allocations
/// matter: normalized by map and heap churn alone, the allocation-heavy
/// cell workload's operation times varied across repetitions by 13–15 %
/// (coefficient of variation), against 9–11 % with them.
pub fn reference_kernel() -> u64 {
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut map = BTreeMap::new();
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(65);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > 512 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
        map.insert(x % 4096, i);
        if i % 3 == 0 {
            map.remove(&((x >> 7) % 4096));
        }
        acc = acc.wrapping_add(format!("vm{} queued {i}", x % 10_000).len() as u64);
        live.push((0..x % 16).collect());
        if live.len() > 64 {
            acc ^= live.swap_remove((x % 64) as usize).len() as u64;
        }
    }
    acc ^ map.len() as u64
}

/// Steps of [`reference_kernel`]: about [`KERNEL_S`] of host time.
const KERNEL_STEPS: u64 = 4_200;

fn kernel_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference_kernel());
    start.elapsed().as_secs_f64()
}

/// Times operations against the reference kernel, which it runs before
/// the first operation and after each one.
///
/// Other tenants of a shared machine slow every process on it, for
/// seconds to minutes at a time: on a shared 2-vCPU Intel Xeon virtual
/// machine, a fixed compute loop's per-second medians moved between 12.3
/// and 18.9 ms, and even a run's fastest fleet samples came out 50 %
/// slower during one busy minute. An operation and the kernel samples on
/// either side of it slow together, so their ratio holds. An operation's
/// normalized time is its host time divided by the mean of those two
/// kernel samples, times [`KERNEL_S`]. No simulator change can alter the
/// kernel, so a change's effect on an operation shows in full.
#[derive(Debug, Clone)]
pub struct Clock {
    /// Host seconds of every kernel sample, in order.
    pub kernel_s: Vec<f64>,
    /// Host seconds of every operation, in order.
    pub raw_s: Vec<f64>,
    /// Normalized host seconds of every operation, in order.
    pub op_s: Vec<f64>,
}

impl Clock {
    /// A clock with its first kernel sample taken.
    pub fn new() -> Self {
        Clock {
            kernel_s: vec![kernel_s()],
            raw_s: Vec::new(),
            op_s: Vec::new(),
        }
    }

    /// Times one operation, then takes the kernel sample after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_secs_f64());
        out
    }

    /// Records an operation the caller timed as `raw` host seconds, then
    /// takes the kernel sample after it.
    pub fn record(&mut self, raw: f64) {
        let before = *self.kernel_s.last().expect("new takes a sample");
        let after = kernel_s();
        self.kernel_s.push(after);
        self.raw_s.push(raw);
        self.op_s.push(raw * KERNEL_S * 2.0 / (before + after));
    }
}

/// Takes [`SETUP_SAMPLES`] samples of the set-up, each the summed time
/// of `batch` builds, and returns the last build with the normalized host
/// seconds per build of every sample. Each build is dropped before the
/// next, outside the timed intervals. A batch keeps a sample far above
/// the clock's resolution when one build takes only microseconds.
pub fn set_up<T>(batch: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut clock = Clock::new();
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        let mut raw = 0.0;
        for _ in 0..batch {
            drop(last.take());
            let start = Instant::now();
            last = Some(build());
            raw += start.elapsed().as_secs_f64();
        }
        clock.record(raw);
    }
    let per_build = clock.op_s.iter().map(|s| s / batch as f64).collect();
    (last.expect("batch is positive"), per_build)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operation `i`'s normalized host seconds: its median across the run's
/// repetitions.
pub fn op_s(reps: &[Rep], i: usize) -> f64 {
    median(&reps.iter().map(|r| r.clock.op_s[i]).collect::<Vec<_>>())
}

/// The timed part's normalized host seconds: Σ over operations of
/// [`op_s`].
pub fn wall_s(reps: &[Rep]) -> f64 {
    (0..reps[0].clock.op_s.len()).map(|i| op_s(reps, i)).sum()
}

/// The set-up's normalized host seconds: the median of every sample.
pub fn setup_s(reps: &[Rep]) -> f64 {
    median(
        &reps
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// Normalized host nanoseconds per call of `f`: the median of `samples`
/// batches of `batch` calls, each timed on a [`Clock`].
pub fn ns_per_call(samples: usize, batch: u64, mut f: impl FnMut()) -> f64 {
    let mut clock = Clock::new();
    for _ in 0..samples {
        clock.time(|| {
            for _ in 0..batch {
                f();
            }
        });
    }
    median(&clock.op_s) * 1e9 / batch as f64
}

/// Peak resident set size (VmHWM) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// FNV-1a over the canonical outputs: the fingerprint that traced and
/// untraced runs, and the pinned references, compare.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A per-layer row of the traced breakdown: work done as a count, and
/// the host nanoseconds one unit of that work costs.
#[derive(Debug, Clone, Copy)]
pub struct LayerRow {
    /// The metric prefix (`storage.digest`, `fleet.placement`, ...).
    pub layer: &'static str,
    /// The busy-seconds metric the row fills.
    pub busy_metric: &'static str,
    /// Work done per repetition.
    pub count: f64,
    /// Host nanoseconds per unit of work.
    pub ns_per_op: f64,
}

impl LayerRow {
    /// Host seconds the layer is busy per repetition.
    pub fn busy_s(&self) -> f64 {
        self.count * self.ns_per_op / 1e9
    }
}

/// The traced run's per-layer results for one workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric values by name (missing ones print as 0).
    pub values: BTreeMap<&'static str, f64>,
    /// The count × cost rows behind every `*.busy_s` metric.
    pub rows: Vec<LayerRow>,
}

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Adds a cost row and fills its busy metric (summing rows that
    /// share one, such as the two processor-sharing resources).
    pub fn row(&mut self, row: LayerRow) {
        let busy = self.values.get(row.busy_metric).copied().unwrap_or(0.0);
        self.set(row.busy_metric, busy + row.busy_s());
        self.rows.push(row);
    }

    /// Σ of every row's busy seconds.
    pub fn busy_total(&self) -> f64 {
        self.rows.iter().map(LayerRow::busy_s).sum()
    }

    /// Renders the breakdown table against `wall_s`.
    pub fn render(&self, wall_s: f64) -> String {
        let mut out = format!(
            "{:<22} {:>14} {:>12} {:>12} {:>9}\n",
            "layer", "count", "ns/op", "busy_s", "share"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>14.0} {:>12.1} {:>12.6} {:>8.1}%\n",
                r.layer,
                r.count,
                r.ns_per_op,
                r.busy_s(),
                100.0 * r.busy_s() / wall_s
            ));
        }
        let rest = wall_s - self.busy_total();
        out.push_str(&format!(
            "{:<22} {:>14} {:>12} {:>12.6} {:>8.1}%\n",
            "(unexplained)",
            "-",
            "-",
            rest,
            100.0 * rest / wall_s
        ));
        out
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let line = json_line(true, 5, 0, &[("wall_s", 0.123_456_789_012_3, "s")]);
        assert!(line.contains("0.1234567890123"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0,"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(END_TO_END.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
