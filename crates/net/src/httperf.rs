//! An httperf-style closed-loop HTTP load generator.
//!
//! The paper drives its Apache measurements with httperf (Mosberger & Jin):
//! Fig. 7 uses repeated requests with 50-request throughput windows; Fig.
//! 8(b) uses "10 httperf processes sending requests in parallel", each file
//! requested once.
//!
//! [`HttperfClient`] models `concurrency` closed-loop worker processes:
//! each has at most one request outstanding and issues the next as soon as
//! the previous completes. The host simulation asks for the next request,
//! computes its service time (page cache vs disk), and reports completion
//! back; the client records timestamps in a
//! [`rh_sim::series::CompletionLog`] for windowed-throughput
//! extraction.

use rh_sim::series::{CompletionLog, TimeSeries};
use rh_sim::time::SimTime;

/// How the generator picks files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Cycle through files 0..n repeatedly (Fig. 7's sustained load).
    Cyclic,
    /// Request each file exactly once, then stop (Fig. 8b).
    EachOnce,
}

/// A closed-loop HTTP client fleet.
///
/// # Examples
///
/// ```
/// use rh_net::httperf::{AccessPattern, HttperfClient};
/// use rh_sim::time::SimTime;
///
/// let mut gen = HttperfClient::new(2, 100, AccessPattern::Cyclic);
/// // Two workers become ready at t=0.
/// let first = gen.next_request(SimTime::ZERO).unwrap();
/// let second = gen.next_request(SimTime::ZERO).unwrap();
/// assert_eq!((first, second), (0, 1));
/// assert!(gen.next_request(SimTime::ZERO).is_none(), "both workers busy");
/// gen.complete(SimTime::from_secs(1));
/// assert_eq!(gen.next_request(SimTime::from_secs(1)), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct HttperfClient {
    concurrency: usize,
    files: u32,
    pattern: AccessPattern,
    next_file: u64,
    in_flight: usize,
    issued: u64,
    log: CompletionLog,
}

impl HttperfClient {
    /// Creates a fleet of `concurrency` workers over `files` files.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` or `files` is zero.
    pub fn new(concurrency: usize, files: u32, pattern: AccessPattern) -> Self {
        assert!(concurrency > 0, "need at least one worker");
        assert!(files > 0, "need at least one file");
        HttperfClient {
            concurrency,
            files,
            pattern,
            next_file: 0,
            in_flight: 0,
            issued: 0,
            log: CompletionLog::new(),
        }
    }

    /// Requests currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.log.len() as u64
    }

    /// True if an `EachOnce` run has issued every file.
    fn exhausted(&self) -> bool {
        matches!(self.pattern, AccessPattern::EachOnce) && self.next_file >= self.files as u64
    }

    /// True if all issued requests completed and no more will be issued.
    pub fn is_done(&self) -> bool {
        self.exhausted() && self.in_flight == 0
    }

    /// If a worker is free (and files remain), issues the next request and
    /// returns its file id.
    pub fn next_request(&mut self, _now: SimTime) -> Option<u32> {
        if self.in_flight >= self.concurrency || self.exhausted() {
            return None;
        }
        let file = (self.next_file % self.files as u64) as u32;
        self.next_file += 1;
        self.in_flight += 1;
        self.issued += 1;
        Some(file)
    }

    /// Reports one request finished at `at`.
    ///
    /// # Panics
    ///
    /// Panics if no request is outstanding.
    pub fn complete(&mut self, at: SimTime) {
        assert!(
            self.in_flight > 0,
            "completion without an outstanding request"
        );
        self.in_flight -= 1;
        self.log.record(at);
    }

    /// Reports one request failed (service went down mid-flight): the
    /// worker becomes free but nothing is logged.
    ///
    /// # Panics
    ///
    /// Panics if no request is outstanding.
    pub fn abort(&mut self) {
        assert!(self.in_flight > 0, "abort without an outstanding request");
        self.in_flight -= 1;
    }

    /// The completion log (for custom analyses).
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Average throughput per `window`-request window — the paper's Fig. 7
    /// metric with `window = 50`.
    pub fn throughput_windows(&self, window: usize) -> TimeSeries {
        self.log.throughput_per_window(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn closed_loop_respects_concurrency() {
        let mut g = HttperfClient::new(3, 10, AccessPattern::Cyclic);
        assert!(g.next_request(t(0.0)).is_some());
        assert!(g.next_request(t(0.0)).is_some());
        assert!(g.next_request(t(0.0)).is_some());
        assert!(g.next_request(t(0.0)).is_none());
        assert_eq!(g.in_flight(), 3);
        g.complete(t(0.1));
        assert_eq!(g.in_flight(), 2);
        assert!(g.next_request(t(0.1)).is_some());
    }

    #[test]
    fn cyclic_pattern_wraps() {
        let mut g = HttperfClient::new(1, 3, AccessPattern::Cyclic);
        let mut files = Vec::new();
        for i in 0..6 {
            files.push(g.next_request(t(i as f64)).unwrap());
            g.complete(t(i as f64 + 0.5));
        }
        assert_eq!(files, vec![0, 1, 2, 0, 1, 2]);
        assert!(!g.exhausted());
    }

    #[test]
    fn each_once_stops_after_all_files() {
        let mut g = HttperfClient::new(2, 4, AccessPattern::EachOnce);
        let mut served = 0;
        let mut now = 0.0;
        loop {
            while let Some(_file) = g.next_request(t(now)) {}
            if g.in_flight() == 0 {
                break;
            }
            now += 1.0;
            g.complete(t(now));
            served += 1;
        }
        assert_eq!(served, 4);
        assert!(g.is_done());
        assert_eq!(g.issued(), 4);
        assert_eq!(g.completed(), 4);
    }

    #[test]
    fn throughput_windows_reflect_completion_rate() {
        let mut g = HttperfClient::new(1, 1000, AccessPattern::Cyclic);
        // 100 completions at 10/s.
        for i in 0..100 {
            g.next_request(t(i as f64 * 0.1)).unwrap();
            g.complete(t(i as f64 * 0.1 + 0.05));
        }
        let series = g.throughput_windows(50);
        assert_eq!(series.len(), 2);
        for (_, rate) in series.iter() {
            assert!((rate - 10.0).abs() < 0.5, "rate {rate}");
        }
    }

    #[test]
    fn abort_frees_worker_without_logging() {
        let mut g = HttperfClient::new(1, 10, AccessPattern::Cyclic);
        g.next_request(t(0.0)).unwrap();
        g.abort();
        assert_eq!(g.in_flight(), 0);
        assert_eq!(g.completed(), 0);
        assert!(g.next_request(t(1.0)).is_some(), "worker is free again");
    }

    #[test]
    #[should_panic(expected = "without an outstanding")]
    fn completion_without_request_panics() {
        let mut g = HttperfClient::new(1, 1, AccessPattern::Cyclic);
        g.complete(t(0.0));
    }
}
