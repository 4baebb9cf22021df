//! The physical disk timing model.
//!
//! The paper's host has a single 36.7 GB, 15 000 rpm Ultra320 SCSI disk,
//! partitioned one slice per VM. Every result that separates the warm-VM
//! reboot from its baselines is ultimately disk-bound:
//!
//! * the saved-VM baseline writes and reads whole memory images through it
//!   (Fig. 4/5: ~133 s to save 11 GB),
//! * parallel guest boots contend for it (Fig. 5's steep boot line),
//! * post-cold-reboot cache misses read file data through it (Fig. 8).
//!
//! [`Disk`] wraps a processor-sharing resource with calibrated defaults:
//! ~85 MB/s sustained for a single sequential stream, degrading with
//! concurrent streams through a seek penalty (aggregate ≈56 MB/s at 11
//! streams, back-derived from Fig. 5 as documented in `DESIGN.md` §5).

use std::collections::BTreeMap;
use std::fmt;

use rh_sim::resource::{JobId, PsResource};
use rh_sim::time::SimTime;

/// Direction of a disk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Data flows disk → memory.
    Read,
    /// Data flows memory → disk.
    Write,
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoKind::Read => write!(f, "read"),
            IoKind::Write => write!(f, "write"),
        }
    }
}

/// Calibrated disk timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Sustained single-stream bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Seek penalty per extra concurrent stream: with `n` streams the
    /// aggregate bandwidth is `bandwidth / (1 + penalty·(n−1))`.
    pub contention_penalty: f64,
    /// Optional per-stream cap, bytes/second.
    pub per_stream_cap: Option<f64>,
}

impl DiskConfig {
    /// The paper's 15 krpm Ultra320 SCSI disk: 85 MB/s single-stream,
    /// aggregate ≈56 MB/s at 11 concurrent streams.
    pub fn ultra320_15krpm() -> Self {
        DiskConfig {
            bandwidth_bps: 85.0e6,
            contention_penalty: 0.0518,
            per_stream_cap: None,
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::ultra320_15krpm()
    }
}

/// A shared physical disk.
///
/// Driving pattern mirrors [`PsResource`]: submit transfers, ask
/// [`next_completion`](Disk::next_completion), wake up, call
/// [`take_completed`](Disk::take_completed).
///
/// # Examples
///
/// ```
/// use rh_sim::time::SimTime;
/// use rh_storage::disk::{Disk, DiskConfig, IoKind};
///
/// let mut disk = Disk::new(DiskConfig::ultra320_15krpm());
/// let t0 = SimTime::ZERO;
/// // Saving one 1 GiB memory image alone: ~12.6 s at 85 MB/s.
/// let job = disk.submit(t0, IoKind::Write, (1u64 << 30) as f64);
/// let done = disk.next_completion(t0).unwrap();
/// assert!((done.as_secs_f64() - 12.63).abs() < 0.1);
/// assert_eq!(disk.take_completed(done), vec![job]);
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    ps: PsResource,
    kinds: BTreeMap<JobId, (IoKind, f64)>,
    bytes_read: f64,
    bytes_written: f64,
    reads: u64,
    writes: u64,
    config: DiskConfig,
}

impl Disk {
    /// Creates a disk with the given timing parameters.
    pub fn new(config: DiskConfig) -> Self {
        let mut ps = PsResource::new(config.bandwidth_bps)
            .with_contention_penalty(config.contention_penalty);
        if let Some(cap) = config.per_stream_cap {
            ps = ps.with_per_job_cap(cap);
        }
        Disk {
            ps,
            kinds: BTreeMap::new(),
            bytes_read: 0.0,
            bytes_written: 0.0,
            reads: 0,
            writes: 0,
            config,
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Streams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.ps.len()
    }

    /// Total bytes read to completion so far.
    pub fn bytes_read(&self) -> f64 {
        self.bytes_read
    }

    /// Total bytes written to completion so far.
    pub fn bytes_written(&self) -> f64 {
        self.bytes_written
    }

    /// Completed read transfer count.
    pub fn completed_reads(&self) -> u64 {
        self.reads
    }

    /// Completed write transfer count.
    pub fn completed_writes(&self) -> u64 {
        self.writes
    }

    /// Submits a transfer of `bytes` in direction `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    pub fn submit(&mut self, now: SimTime, kind: IoKind, bytes: f64) -> JobId {
        let id = self.ps.submit(now, bytes);
        self.kinds.insert(id, (kind, bytes));
        id
    }

    /// The direction of an in-flight transfer.
    #[cfg(test)]
    fn kind_of(&self, id: JobId) -> Option<IoKind> {
        self.kinds.get(&id).map(|(k, _)| *k)
    }

    /// Aborts an in-flight transfer; returns its remaining bytes.
    pub fn cancel(&mut self, now: SimTime, id: JobId) -> Option<f64> {
        self.kinds.remove(&id);
        self.ps.cancel(now, id)
    }

    /// Aborts every in-flight transfer (a hardware reset tears down I/O).
    pub fn cancel_all(&mut self, now: SimTime) -> Vec<JobId> {
        self.kinds.clear();
        self.ps.cancel_all(now)
    }

    /// Earliest completion instant, or `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        self.ps.next_completion(now)
    }

    /// Drains transfers finished by `now`, in submission order.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<JobId> {
        let done = self.ps.take_completed(now);
        for id in &done {
            match self.kinds.remove(id) {
                Some((IoKind::Read, bytes)) => {
                    self.reads += 1;
                    self.bytes_read += bytes;
                }
                Some((IoKind::Write, bytes)) => {
                    self.writes += 1;
                    self.bytes_written += bytes;
                }
                None => {}
            }
        }
        done
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new(DiskConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: f64 = (1u64 << 30) as f64;

    #[test]
    fn single_stream_runs_at_full_bandwidth() {
        let mut d = Disk::default();
        let _ = d.submit(SimTime::ZERO, IoKind::Write, GIB);
        let done = d.next_completion(SimTime::ZERO).unwrap();
        let expect = GIB / 85.0e6;
        assert!((done.as_secs_f64() - expect).abs() < 0.01);
    }

    #[test]
    fn eleven_gib_save_matches_paper_scale() {
        // Xen's save of an 11 GB image took ~133 s in Fig. 4.
        let mut d = Disk::default();
        let _ = d.submit(SimTime::ZERO, IoKind::Write, 11.0 * GIB);
        let done = d.next_completion(SimTime::ZERO).unwrap();
        assert!(
            (done.as_secs_f64() - 139.0).abs() < 10.0,
            "11 GiB save took {:.1}s",
            done.as_secs_f64()
        );
    }

    #[test]
    fn eleven_parallel_streams_degrade_aggregate() {
        // Saving 11 × 1 GB in parallel took ~200 s in Fig. 5 — the seek
        // penalty makes parallel saves slower than one big save.
        let mut d = Disk::default();
        for _ in 0..11 {
            d.submit(SimTime::ZERO, IoKind::Write, GIB);
        }
        assert_eq!(d.in_flight(), 11);
        // All equal => all finish together.
        let done = d.next_completion(SimTime::ZERO).unwrap();
        assert!(
            (done.as_secs_f64() - 208.0).abs() < 15.0,
            "11-way parallel save took {:.1}s",
            done.as_secs_f64()
        );
        assert_eq!(d.take_completed(done).len(), 11);
        assert_eq!(d.completed_writes(), 11);
    }

    #[test]
    fn read_write_accounting() {
        let mut d = Disk::default();
        let r = d.submit(SimTime::ZERO, IoKind::Read, 1000.0);
        let w = d.submit(SimTime::ZERO, IoKind::Write, 1000.0);
        assert_eq!(d.kind_of(r), Some(IoKind::Read));
        assert_eq!(d.kind_of(w), Some(IoKind::Write));
        let done = d.next_completion(SimTime::ZERO).unwrap();
        d.take_completed(done);
        assert_eq!(d.completed_reads(), 1);
        assert_eq!(d.completed_writes(), 1);
        assert_eq!(d.kind_of(r), None);
    }

    #[test]
    fn cancel_all_clears_in_flight() {
        let mut d = Disk::default();
        d.submit(SimTime::ZERO, IoKind::Read, 1e9);
        d.submit(SimTime::ZERO, IoKind::Write, 1e9);
        let cancelled = d.cancel_all(SimTime::ZERO);
        assert_eq!(cancelled.len(), 2);
        assert_eq!(d.in_flight(), 0);
        assert!(d.next_completion(SimTime::ZERO).is_none());
    }

    #[test]
    fn per_stream_cap_applies() {
        let cfg = DiskConfig {
            bandwidth_bps: 100.0e6,
            contention_penalty: 0.0,
            per_stream_cap: Some(10.0e6),
        };
        let mut d = Disk::new(cfg);
        let _ = d.submit(SimTime::ZERO, IoKind::Read, 10.0e6);
        let done = d.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-3);
    }
}
