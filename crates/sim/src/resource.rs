//! A processor-sharing resource.
//!
//! [`PsResource`] models a device whose capacity (e.g. disk bandwidth in
//! bytes/second) is shared among all jobs currently in service. Each job
//! receives a weighted fair share, optionally clamped by a per-job rate cap,
//! and the aggregate capacity can shrink as concurrency grows (a *contention
//! penalty*, modelling disk seeks between interleaved streams).
//!
//! This is the workhorse behind every contention effect in the paper's
//! evaluation: saving 11 memory images in parallel to one disk, booting 11
//! guests at once, and serving cache-miss reads while other VMs do I/O.
//!
//! # Driving pattern
//!
//! The resource does not own scheduler events. The owning world:
//!
//! 1. calls [`PsResource::submit`] / [`PsResource::cancel`] as work arrives
//!    or is aborted,
//! 2. after *any* mutation, asks [`PsResource::next_completion`] and
//!    (re)schedules a single wake-up event at that time (the [`Retick`]
//!    helper manages the cancel/reschedule dance, and leaves a pending
//!    wake-up alone when it is already due at that time),
//! 3. on wake-up, calls [`PsResource::take_completed`] and dispatches each
//!    finished [`JobId`] to its purpose.
//!
//! As long as the world wakes at every reported completion time, job rates
//! are piecewise-constant between calls and the simulation is exact (up to
//! microsecond rounding).
//!
//! # Layout
//!
//! Every httperf request and every disk read of the paper's testbed passes
//! through a `PsResource`, and each mutation advances every job in
//! service. Jobs therefore live in one `Vec` in id order: ids are issued
//! ascending, so a submit appends, a cancel is a binary search, and
//! [`advance`](PsResource::advance) is one pass that allocates nothing
//! and looks nothing up. Every floating-point sum runs in id order, so
//! results do not depend on how the jobs are stored.

use std::fmt;

use crate::engine::{EventHandle, Scheduler};
use crate::time::{SimDuration, SimTime};

/// Identifies a job submitted to a [`PsResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Job {
    remaining: f64,
    weight: f64,
}

/// The rate inputs every job in service shares at one instant.
#[derive(Debug, Clone, Copy)]
struct Shares {
    total_weight: f64,
    /// Aggregate capacity at the current concurrency.
    capacity: f64,
    per_job_cap: Option<f64>,
}

impl Shares {
    fn rate(self, job: &Job) -> f64 {
        let share = job.weight / self.total_weight * self.capacity;
        match self.per_job_cap {
            Some(cap) => share.min(cap),
            None => share,
        }
    }
}

/// A processor-sharing resource with optional per-job rate caps and a
/// concurrency-dependent efficiency loss.
///
/// Work and capacity are in arbitrary consistent units (we use bytes and
/// bytes/second throughout RootHammer-RS).
///
/// # Examples
///
/// ```
/// use rh_sim::resource::PsResource;
/// use rh_sim::time::SimTime;
///
/// // A 100 B/s device with two 100 B jobs: each runs at 50 B/s.
/// let mut disk = PsResource::new(100.0);
/// let t0 = SimTime::ZERO;
/// let a = disk.submit(t0, 100.0);
/// let _b = disk.submit(t0, 100.0);
/// let first = disk.next_completion(t0).unwrap();
/// assert!((first.as_secs_f64() - 2.0).abs() < 1e-4);
/// let done = disk.take_completed(first);
/// assert_eq!(done.len(), 2); // both finish together; ids drain in order
/// assert_eq!(done[0], a);
/// ```
#[derive(Debug, Clone)]
pub struct PsResource {
    capacity: f64,
    per_job_cap: Option<f64>,
    contention_penalty: f64,
    /// Jobs in service, ascending by id.
    jobs: Vec<(u64, Job)>,
    last_update: SimTime,
    next_id: u64,
    total_completed_work: f64,
}

impl PsResource {
    /// Creates a resource with aggregate `capacity` work-units per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "PsResource capacity must be positive and finite, got {capacity}"
        );
        PsResource {
            capacity,
            per_job_cap: None,
            contention_penalty: 0.0,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
            total_completed_work: 0.0,
        }
    }

    /// Clamps every job's individual rate to `cap` work-units per second.
    ///
    /// Models a per-stream limit (e.g. a single VM's virtual block device
    /// cannot saturate the whole physical disk).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not strictly positive and finite.
    pub fn with_per_job_cap(mut self, cap: f64) -> Self {
        assert!(
            cap.is_finite() && cap > 0.0,
            "per-job cap must be positive and finite, got {cap}"
        );
        self.per_job_cap = Some(cap);
        self
    }

    /// Sets the contention penalty `p`: with `n` concurrent jobs, the
    /// aggregate capacity becomes `capacity / (1 + p * (n - 1))`.
    ///
    /// A penalty of 0 is ideal sharing; positive values model the seek
    /// overhead of interleaving independent sequential streams on a disk.
    ///
    /// # Panics
    ///
    /// Panics if `p` is negative or not finite.
    pub fn with_contention_penalty(mut self, p: f64) -> Self {
        assert!(
            p.is_finite() && p >= 0.0,
            "contention penalty must be non-negative and finite, got {p}"
        );
        self.contention_penalty = p;
        self
    }

    /// Aggregate capacity with `n` concurrent jobs.
    pub fn effective_capacity(&self, n: usize) -> f64 {
        if n == 0 {
            return self.capacity;
        }
        self.capacity / (1.0 + self.contention_penalty * (n as f64 - 1.0))
    }

    /// The configured single-stream capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of jobs currently in service.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no jobs are in service.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total work units completed over the lifetime of the resource.
    pub fn total_completed_work(&self) -> f64 {
        self.total_completed_work
    }

    /// Remaining work of a job, or `None` if unknown/finished.
    pub fn remaining(&self, id: JobId) -> Option<f64> {
        self.position(id).map(|i| self.jobs[i].1.remaining)
    }

    /// Index of job `id` in `jobs`, if it is in service.
    fn position(&self, id: JobId) -> Option<usize> {
        self.jobs.binary_search_by_key(&id.0, |&(k, _)| k).ok()
    }

    /// What the rate of every job in service depends on besides its weight.
    fn shares(&self) -> Shares {
        Shares {
            total_weight: self.jobs.iter().map(|(_, j)| j.weight).sum(),
            capacity: self.effective_capacity(self.jobs.len()),
            per_job_cap: self.per_job_cap,
        }
    }

    /// Progresses all jobs up to `now`.
    ///
    /// Called implicitly by every mutating method; only needed directly when
    /// querying [`remaining`](Self::remaining) at a fresh instant.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the last update.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "PsResource cannot advance backwards: {now} < {}",
            self.last_update
        );
        let elapsed = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        // lint:allow(float-eq): a zero duration converts to exactly 0.0
        if elapsed == 0.0 || self.jobs.is_empty() {
            return;
        }
        let shares = self.shares();
        for (_, job) in &mut self.jobs {
            let rate = shares.rate(job);
            let delta = rate * elapsed;
            // Absorb microsecond rounding: anything within 2 µs of service
            // at the current rate counts as complete.
            let eps = rate * 2e-6;
            if job.remaining <= delta + eps {
                self.total_completed_work += job.remaining;
                job.remaining = 0.0;
            } else {
                self.total_completed_work += delta;
                job.remaining -= delta;
            }
        }
    }

    /// Submits a job of `work` units with weight 1, returning its id.
    pub fn submit(&mut self, now: SimTime, work: f64) -> JobId {
        self.submit_weighted(now, work, 1.0)
    }

    /// Submits a job of `work` units with the given fair-share `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative/non-finite or `weight` is not strictly
    /// positive and finite.
    pub fn submit_weighted(&mut self, now: SimTime, work: f64, weight: f64) -> JobId {
        assert!(
            work.is_finite() && work >= 0.0,
            "job work must be non-negative and finite, got {work}"
        );
        assert!(
            weight.is_finite() && weight > 0.0,
            "job weight must be positive and finite, got {weight}"
        );
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        // Ids ascend, so appending keeps `jobs` sorted.
        self.jobs.push((
            id,
            Job {
                remaining: work,
                weight,
            },
        ));
        JobId(id)
    }

    /// Aborts a job, returning its remaining work, or `None` if it already
    /// completed or never existed.
    pub fn cancel(&mut self, now: SimTime, id: JobId) -> Option<f64> {
        self.advance(now);
        let i = self.position(id)?;
        Some(self.jobs.remove(i).1.remaining)
    }

    /// Aborts every job in service, returning their ids.
    pub fn cancel_all(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        self.jobs.drain(..).map(|(id, _)| JobId(id)).collect()
    }

    /// Advances to `now` and removes every finished job, returning their ids
    /// in submission order.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance(now);
        let mut done = Vec::new();
        self.jobs.retain(|&(id, ref job)| {
            // lint:allow(float-eq): `advance` assigns exactly 0.0 at completion
            let finished = job.remaining == 0.0;
            if finished {
                done.push(JobId(id));
            }
            !finished
        });
        done
    }

    /// The earliest instant at which some job will finish, assuming no
    /// further submissions or cancellations, or `None` if idle.
    ///
    /// The returned time is rounded *up* to the next microsecond so that a
    /// wake-up scheduled at it is guaranteed to observe the completion.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.jobs.is_empty() {
            return None;
        }
        debug_assert!(now >= self.last_update);
        let base = (now - self.last_update).as_secs_f64();
        let shares = self.shares();
        let mut best = f64::INFINITY;
        for (_, job) in &self.jobs {
            let rate = shares.rate(job);
            let left = (job.remaining - rate * base).max(0.0);
            let t = left / rate;
            if t < best {
                best = t;
            }
        }
        let micros = (best * 1e6).ceil() as u64 + 1;
        Some(now + SimDuration::from_micros(micros))
    }
}

/// Manages the single pending wake-up event of a driven resource.
///
/// A world embeds one `Retick` per resource and calls
/// [`reschedule`](Retick::reschedule) after every mutation; the helper
/// cancels the previous wake-up and schedules the new one (or none if the
/// resource went idle).
///
/// Most mutations leave the earliest completion where it was: a request
/// that hits the page cache adds no disk work, yet its handler re-arms the
/// disk wake. So `Retick` remembers the instant it armed, and a re-arm to
/// that same instant while the wake is still pending does nothing: no
/// cancel, no new queue entry for the scheduler to skim later. A re-arm to
/// any other instant, even one microsecond away, moves the wake as before.
///
/// # Ordering
///
/// The scheduler fires events of one instant in the order they were
/// scheduled. A skipped re-arm keeps the wake's place among them, where a
/// cancel and re-schedule would have moved it behind every event
/// scheduled for that instant since it was armed.
#[derive(Debug, Default)]
pub struct Retick {
    /// The armed wake-up and the instant it was scheduled for.
    armed: Option<(EventHandle, SimTime)>,
}

impl Retick {
    /// Creates an unarmed helper.
    pub fn new() -> Self {
        Retick { armed: None }
    }

    /// Arms the wake-up for `at`, or disarms it when `at` is `None`.
    ///
    /// When the pending wake-up is already due at `at`, it stays as it is
    /// and `make` is not called. Otherwise the current wake-up (if armed)
    /// is cancelled and, when `at` is `Some`, `make()` is scheduled at
    /// that instant.
    pub fn reschedule<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        at: Option<SimTime>,
        make: impl FnOnce() -> E,
    ) {
        if let (Some((handle, armed_at)), Some(t)) = (self.armed, at) {
            if armed_at == t && sched.is_pending(handle) {
                return;
            }
        }
        self.disarm(sched);
        if let Some(t) = at {
            self.armed = Some((sched.schedule_at(t, make()), t));
        }
    }

    /// Cancels the current wake-up without scheduling a new one.
    pub fn disarm<E>(&mut self, sched: &mut Scheduler<E>) {
        if let Some((handle, _)) = self.armed.take() {
            sched.cancel(handle);
        }
    }

    /// True if a wake-up is currently armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_job_runs_at_full_capacity() {
        let mut r = PsResource::new(50.0);
        let id = r.submit(SimTime::ZERO, 100.0);
        let done_at = r.next_completion(SimTime::ZERO).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-4);
        assert_eq!(r.take_completed(done_at), vec![id]);
        assert!(r.is_empty());
    }

    #[test]
    fn two_jobs_share_capacity_equally() {
        let mut r = PsResource::new(100.0);
        let _a = r.submit(SimTime::ZERO, 100.0);
        let _b = r.submit(SimTime::ZERO, 100.0);
        // Each gets 50/s, both finish at t=2.
        let next = r.next_completion(SimTime::ZERO).unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 1e-4);
        let done = r.take_completed(next);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn late_arrival_slows_first_job() {
        let mut r = PsResource::new(100.0);
        let a = r.submit(SimTime::ZERO, 100.0);
        // At t=0.5 job a has done 50 units; b arrives.
        let b = r.submit(t(0.5), 100.0);
        // Both now at 50/s: a needs 1 more second (done t=1.5),
        // b needs 2 more seconds but speeds up once a leaves.
        let next = r.next_completion(t(0.5)).unwrap();
        assert!((next.as_secs_f64() - 1.5).abs() < 1e-4);
        assert_eq!(r.take_completed(next), vec![a]);
        // b has 50 left, now alone at 100/s: finishes at 2.0.
        let next = r.next_completion(next).unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 1e-4);
        assert_eq!(r.take_completed(next), vec![b]);
    }

    #[test]
    fn per_job_cap_limits_single_stream() {
        let mut r = PsResource::new(100.0).with_per_job_cap(20.0);
        let _a = r.submit(SimTime::ZERO, 40.0);
        let next = r.next_completion(SimTime::ZERO).unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn contention_penalty_shrinks_aggregate() {
        // penalty 1.0 with 2 jobs => capacity halves => each job quarters.
        let mut r = PsResource::new(100.0).with_contention_penalty(1.0);
        let _a = r.submit(SimTime::ZERO, 100.0);
        let _b = r.submit(SimTime::ZERO, 100.0);
        // Effective capacity 50, each 25/s, 100 units => 4 s.
        let next = r.next_completion(SimTime::ZERO).unwrap();
        assert!((next.as_secs_f64() - 4.0).abs() < 1e-4);
    }

    #[test]
    fn weights_divide_capacity_proportionally() {
        let mut r = PsResource::new(90.0);
        let a = r.submit_weighted(SimTime::ZERO, 60.0, 2.0);
        let b = r.submit_weighted(SimTime::ZERO, 60.0, 1.0);
        // a at 60/s, b at 30/s: a finishes at t=1, b then at 60/s... b has 30
        // left at t=1, alone at 90/s => done at 1 + 30/90 = 1.333.
        let next = r.next_completion(SimTime::ZERO).unwrap();
        assert!((next.as_secs_f64() - 1.0).abs() < 1e-4);
        assert_eq!(r.take_completed(next), vec![a]);
        let next2 = r.next_completion(next).unwrap();
        assert!((next2.as_secs_f64() - 4.0 / 3.0).abs() < 1e-4);
        assert_eq!(r.take_completed(next2), vec![b]);
    }

    #[test]
    fn cancel_returns_remaining_work() {
        let mut r = PsResource::new(100.0);
        let a = r.submit(SimTime::ZERO, 100.0);
        let left = r.cancel(t(0.25), a).unwrap();
        assert!((left - 75.0).abs() < 1e-6);
        assert!(r.is_empty());
        assert!(r.next_completion(t(0.25)).is_none());
        assert!(r.cancel(t(0.3), a).is_none());
    }

    #[test]
    fn cancel_all_empties_resource() {
        let mut r = PsResource::new(10.0);
        r.submit(SimTime::ZERO, 5.0);
        r.submit(SimTime::ZERO, 5.0);
        let ids = r.cancel_all(SimTime::ZERO);
        assert_eq!(ids.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn work_conservation() {
        // Total completed work equals total submitted work once drained.
        let mut r = PsResource::new(33.0).with_contention_penalty(0.3);
        let mut now = SimTime::ZERO;
        let works = [10.0, 55.0, 7.0, 120.0];
        for &w in &works {
            r.submit(now, w);
            now += SimDuration::from_secs(1);
            r.advance(now);
        }
        // Drain everything.
        while let Some(next) = r.next_completion(now) {
            now = next;
            r.take_completed(now);
        }
        let total: f64 = works.iter().sum();
        assert!(
            (r.total_completed_work() - total).abs() < 1e-3,
            "conserved {} vs {}",
            r.total_completed_work(),
            total
        );
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut r = PsResource::new(10.0);
        let a = r.submit(SimTime::ZERO, 0.0);
        let next = r.next_completion(SimTime::ZERO).unwrap();
        assert!(next.as_secs_f64() < 1e-4);
        assert_eq!(r.take_completed(next), vec![a]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = PsResource::new(0.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_backwards_panics() {
        let mut r = PsResource::new(1.0);
        r.advance(t(2.0));
        r.advance(t(1.0));
    }

    /// A world that records every event it fires, with the instant.
    #[derive(Default)]
    struct Recorder {
        fired: Vec<(SimTime, u32)>,
    }

    impl crate::engine::World for Recorder {
        type Event = u32;
        fn handle(&mut self, s: &mut Scheduler<u32>, e: u32) {
            self.fired.push((s.now(), e));
        }
    }

    #[test]
    fn retick_replaces_pending_event() {
        let mut sim = crate::engine::Simulation::new(Recorder::default());
        let mut retick = Retick::new();
        retick.reschedule(sim.scheduler_mut(), Some(t(1.0)), || 1);
        assert!(retick.is_armed());
        sim.scheduler_mut().schedule_at(t(1.5), 9);
        retick.reschedule(sim.scheduler_mut(), Some(t(2.0)), || 2);
        assert_eq!(sim.scheduler().pending(), 2);
        sim.run_until_idle();
        // The wake moved to the new instant; only the second event fires.
        assert_eq!(sim.world().fired, vec![(t(1.5), 9), (t(2.0), 2)]);
    }

    #[test]
    fn retick_same_instant_rearm_keeps_the_pending_wake() {
        let mut sim = crate::engine::Simulation::new(Recorder::default());
        let mut retick = Retick::new();
        retick.reschedule(sim.scheduler_mut(), Some(t(1.0)), || 1);
        sim.scheduler_mut().schedule_at(t(1.0), 9);
        assert_eq!(sim.scheduler().pending(), 2);
        for _ in 0..3 {
            retick.reschedule(sim.scheduler_mut(), Some(t(1.0)), || {
                panic!("a re-arm to the armed instant must not schedule")
            });
            assert_eq!(sim.scheduler().pending(), 2);
        }
        sim.run_until_idle();
        // The wake fires once, still ahead of the event scheduled after it.
        assert_eq!(sim.world().fired, vec![(t(1.0), 1), (t(1.0), 9)]);
    }

    #[test]
    fn retick_rearms_a_fired_wake_even_at_the_same_instant() {
        let mut sim = crate::engine::Simulation::new(Recorder::default());
        let mut retick = Retick::new();
        retick.reschedule(sim.scheduler_mut(), Some(t(1.0)), || 1);
        sim.run_until(t(1.0));
        assert_eq!(sim.world().fired, vec![(t(1.0), 1)]);
        // Still armed for t = 1, but that wake has fired: schedule anew.
        retick.reschedule(sim.scheduler_mut(), Some(t(1.0)), || 2);
        assert_eq!(sim.scheduler().pending(), 1);
        sim.run_until_idle();
        assert_eq!(sim.world().fired, vec![(t(1.0), 1), (t(1.0), 2)]);
    }

    #[test]
    fn retick_disarm_cancels() {
        use crate::engine::{Scheduler, Simulation, World};

        struct W;
        impl World for W {
            type Event = ();
            fn handle(&mut self, _s: &mut Scheduler<()>, _e: ()) {
                panic!("should never fire");
            }
        }
        let mut sim = Simulation::new(W);
        let mut retick = Retick::new();
        retick.reschedule(sim.scheduler_mut(), Some(t(1.0)), || ());
        retick.disarm(sim.scheduler_mut());
        assert!(!retick.is_armed());
        assert_eq!(sim.scheduler().pending(), 0);
        sim.run_until_idle();
    }
}
