//! Time-series recording for experiment outputs.
//!
//! Two recorders cover the paper's plots:
//!
//! * [`TimeSeries`] — sampled `(time, value)` pairs (e.g. cluster total
//!   throughput in Fig. 9),
//! * [`CompletionLog`] — raw completion timestamps from which windowed
//!   throughput is derived. Figure 7 plots "the average throughput of 50
//!   requests", which is exactly
//!   [`CompletionLog::throughput_per_window`] with a 50-request window.

use crate::time::SimTime;

/// A sequence of `(time, value)` samples, ordered by insertion.
///
/// # Examples
///
/// ```
/// use rh_sim::series::TimeSeries;
/// use rh_sim::time::SimTime;
///
/// let mut s = TimeSeries::new("throughput");
/// s.push(SimTime::from_secs(1), 10.0);
/// s.push(SimTime::from_secs(2), 20.0);
/// assert_eq!(s.value_at(SimTime::from_secs(1)), Some(10.0));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name (used as a CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last recorded sample — series are
    /// recorded in simulation order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(
                at >= last,
                "series {} not monotonic: {at} after {last}",
                self.name
            );
        }
        self.samples.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Step-interpolated value at `at`: the most recent sample at or before
    /// `at`, or `None` before the first sample.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.samples[i].1),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].1),
        }
    }

    /// Mean value over samples with `lo <= t <= hi`.
    pub fn mean_over(&self, lo: SimTime, hi: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t <= hi)
            .map(|(_, v)| *v)
            .collect();
        crate::stats::mean(&vals)
    }

    /// Renders the series as two-column CSV (`time_s,<name>`).
    pub fn to_csv(&self) -> String {
        let mut out = format!("time_s,{}\n", self.name);
        for (t, v) in &self.samples {
            out.push_str(&format!("{:.6},{:.6}\n", t.as_secs_f64(), v));
        }
        out
    }

    /// The time integral of the step-interpolated series over `[lo, hi]`.
    ///
    /// Used to turn a throughput series into "requests served" (Fig. 9
    /// capacity-loss accounting).
    pub fn integral(&self, lo: SimTime, hi: SimTime) -> f64 {
        if hi <= lo || self.samples.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cur_t = lo;
        let mut cur_v = self.value_at(lo).unwrap_or(0.0);
        for &(t, v) in &self.samples {
            if t <= lo {
                continue;
            }
            if t >= hi {
                break;
            }
            total += cur_v * (t - cur_t).as_secs_f64();
            cur_t = t;
            cur_v = v;
        }
        total += cur_v * (hi - cur_t).as_secs_f64();
        total
    }
}

/// Stamps per [`CompletionLog`] chunk: 32 KiB of `SimTime`s, below
/// glibc's 128 KiB mmap threshold, so a long log never makes one large
/// allocation whose release would raise that threshold.
const CHUNK: usize = 4096;

/// A log of completion instants (e.g. HTTP responses) supporting windowed
/// throughput extraction.
///
/// Stamps live in fixed-size chunks rather than one doubling vector, so
/// recording never copies the log and its memory stays in small heap
/// blocks.
#[derive(Debug, Clone, Default)]
pub struct CompletionLog {
    chunks: Vec<Vec<SimTime>>,
    len: usize,
}

impl CompletionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        CompletionLog::default()
    }

    /// Records one completion at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous completion.
    pub fn record(&mut self, at: SimTime) {
        if let Some(&last) = self.chunks.last().and_then(|c| c.last()) {
            assert!(at >= last, "completions must be recorded in order");
        }
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(at),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(at);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Number of completions recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has completed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th completion, in recording order.
    fn stamp(&self, i: usize) -> SimTime {
        self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Average throughput over each consecutive window of `window` requests:
    /// one `(t_end, window / (t_end - t_start))` sample per full window.
    ///
    /// This reproduces the paper's Fig. 7 methodology ("the changes of the
    /// average throughput of 50 requests").
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn throughput_per_window(&self, window: usize) -> TimeSeries {
        assert!(window > 0, "window must be positive");
        let mut series = TimeSeries::new(format!("throughput_w{window}"));
        let mut i = window;
        while i <= self.len {
            let start = self.stamp(i - window);
            let end = self.stamp(i - 1);
            let span = (end - start).as_secs_f64();
            let rate = if span > 0.0 {
                (window as f64 - 1.0) / span
            } else {
                f64::INFINITY
            };
            series.push(end, rate);
            i += window;
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn series_basic_accessors() {
        let mut s = TimeSeries::new("x");
        assert!(s.is_empty());
        s.push(t(1.0), 10.0);
        s.push(t(3.0), 30.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(), "x");
        assert_eq!(s.value_at(t(0.5)), None);
        assert_eq!(s.value_at(t(1.0)), Some(10.0));
        assert_eq!(s.value_at(t(2.0)), Some(10.0));
        assert_eq!(s.value_at(t(3.5)), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "not monotonic")]
    fn series_rejects_time_travel() {
        let mut s = TimeSeries::new("x");
        s.push(t(2.0), 1.0);
        s.push(t(1.0), 1.0);
    }

    #[test]
    fn mean_over_window() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.push(t(i as f64), (10 - i) as f64);
        }
        assert_eq!(s.mean_over(t(2.0), t(4.0)), Some(7.0));
    }

    #[test]
    fn integral_of_step_function() {
        let mut s = TimeSeries::new("x");
        s.push(t(0.0), 2.0);
        s.push(t(5.0), 4.0);
        // 2*5 + 4*5 over [0, 10].
        assert!((s.integral(t(0.0), t(10.0)) - 30.0).abs() < 1e-9);
        // Sub-interval [4, 6]: 2*1 + 4*1.
        assert!((s.integral(t(4.0), t(6.0)) - 6.0).abs() < 1e-9);
        assert_eq!(s.integral(t(6.0), t(6.0)), 0.0);
    }

    #[test]
    fn csv_output_shape() {
        let mut s = TimeSeries::new("tp");
        s.push(t(1.0), 2.5);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,tp"));
        assert_eq!(lines.next(), Some("1.000000,2.500000"));
    }

    #[test]
    fn completion_log_windowed_throughput() {
        let mut log = CompletionLog::new();
        // 10 completions, one per 0.1 s => 10/s within windows of 5.
        for i in 1..=10 {
            log.record(t(i as f64 * 0.1));
        }
        let s = log.throughput_per_window(5);
        assert_eq!(s.len(), 2);
        for (_, rate) in s.iter() {
            assert!((rate - 10.0).abs() < 1e-6, "rate {rate}");
        }
    }

    #[test]
    fn completion_log_spans_chunks() {
        // Three full chunks and a partial fourth, with a 40 s outage
        // straddling the first chunk boundary.
        let n = 3 * CHUNK + 123;
        let stamps: Vec<SimTime> = (0..n)
            .map(|i| {
                let outage = if i >= CHUNK { 40.0 } else { 0.0 };
                t(i as f64 * 0.01 + (i % 7) as f64 * 0.001 + outage)
            })
            .collect();
        let mut log = CompletionLog::new();
        for &s in &stamps {
            log.record(s);
        }
        assert_eq!(log.len(), n);
        assert_eq!(log.chunks.len(), 4);

        let window = 50;
        let windows: Vec<(SimTime, f64)> = log.throughput_per_window(window).iter().collect();
        assert_eq!(windows.len(), n / window);
        for (k, (end, rate)) in windows.into_iter().enumerate() {
            let first = stamps[k * window];
            let last = stamps[k * window + window - 1];
            assert_eq!(end, last, "window {k}");
            let span = (last - first).as_secs_f64();
            assert_eq!(rate, (window as f64 - 1.0) / span, "window {k}");
        }
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn completion_log_rejects_unordered() {
        let mut log = CompletionLog::new();
        log.record(t(2.0));
        log.record(t(1.0));
    }
}
