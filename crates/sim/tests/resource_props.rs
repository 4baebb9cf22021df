//! Property test: [`PsResource`] agrees bit for bit with the `BTreeMap`
//! implementation it replaced, kept here verbatim as the reference model.
//!
//! Each case configures both resources alike (capacity, an optional
//! per-job cap, a contention penalty or none) and drives them in lockstep
//! through a random script: plain and weighted submits (zero-work jobs
//! included), cancels of live, finished and never-issued ids,
//! `cancel_all`, bare `advance`s, and `take_completed` both at the
//! reported next completion and again at the same instant. After every
//! step the two must report `to_bits`-equal `remaining` for every id ever
//! issued, `next_completion`, and `total_completed_work`, and return the
//! same ids in the same order.

use rh_sim::resource::{JobId, PsResource};
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::{SimDuration, SimTime};
use rh_sim::{prop_ensure, prop_ensure_eq};

/// The `BTreeMap`-backed `PsResource` as it stood before jobs moved into
/// an id-ordered `Vec`.
mod reference {
    use std::collections::BTreeMap;

    use rh_sim::resource::JobId;
    use rh_sim::time::{SimDuration, SimTime};

    #[derive(Debug, Clone)]
    struct Job {
        remaining: f64,
        weight: f64,
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
        jobs: BTreeMap<u64, Job>,
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
                jobs: BTreeMap::new(),
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
            self.jobs.get(&id.0).map(|j| j.remaining)
        }

        fn rate_of(&self, job: &Job, total_weight: f64, n: usize) -> f64 {
            let share = job.weight / total_weight * self.effective_capacity(n);
            match self.per_job_cap {
                Some(cap) => share.min(cap),
                None => share,
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
            let n = self.jobs.len();
            let total_weight: f64 = self.jobs.values().map(|j| j.weight).sum();
            let rates: Vec<(u64, f64)> = self
                .jobs
                .iter()
                .map(|(&id, j)| (id, self.rate_of(j, total_weight, n)))
                .collect();
            for (id, rate) in rates {
                let Some(job) = self.jobs.get_mut(&id) else {
                    continue; // unreachable: ids were collected from this map above
                };
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
            self.jobs.insert(
                id,
                Job {
                    remaining: work,
                    weight,
                },
            );
            JobId(id)
        }

        /// Aborts a job, returning its remaining work, or `None` if it already
        /// completed or never existed.
        pub fn cancel(&mut self, now: SimTime, id: JobId) -> Option<f64> {
            self.advance(now);
            self.jobs.remove(&id.0).map(|j| j.remaining)
        }

        /// Aborts every job in service, returning their ids.
        pub fn cancel_all(&mut self, now: SimTime) -> Vec<JobId> {
            self.advance(now);
            let ids: Vec<JobId> = self.jobs.keys().map(|&k| JobId(k)).collect();
            self.jobs.clear();
            ids
        }

        /// Advances to `now` and removes every finished job, returning their ids
        /// in submission order.
        pub fn take_completed(&mut self, now: SimTime) -> Vec<JobId> {
            self.advance(now);
            let done: Vec<u64> = self
                .jobs
                .iter()
                // lint:allow(float-eq): `advance` assigns exactly 0.0 at completion
                .filter(|(_, j)| j.remaining == 0.0)
                .map(|(&id, _)| id)
                .collect();
            for id in &done {
                self.jobs.remove(id);
            }
            done.into_iter().map(JobId).collect()
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
            let n = self.jobs.len();
            let total_weight: f64 = self.jobs.values().map(|j| j.weight).sum();
            let mut best = f64::INFINITY;
            for job in self.jobs.values() {
                let rate = self.rate_of(job, total_weight, n);
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
}

/// One resource configuration, applied to both implementations.
#[derive(Debug, Clone, Copy)]
struct Setup {
    capacity: f64,
    per_job_cap: Option<f64>,
    penalty: Option<f64>,
}

impl Setup {
    fn random(g: &mut Gen) -> Setup {
        let capacity = g.f64_in(1.0, 1000.0);
        Setup {
            capacity,
            per_job_cap: g.any_bool().then(|| g.f64_in(0.05, 1.5) * capacity),
            penalty: g.any_bool().then(|| g.f64_in(0.0, 1.5)),
        }
    }

    fn build(self) -> (PsResource, reference::PsResource) {
        let mut new = PsResource::new(self.capacity);
        let mut old = reference::PsResource::new(self.capacity);
        if let Some(cap) = self.per_job_cap {
            new = new.with_per_job_cap(cap);
            old = old.with_per_job_cap(cap);
        }
        if let Some(p) = self.penalty {
            new = new.with_contention_penalty(p);
            old = old.with_contention_penalty(p);
        }
        (new, old)
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// A job's work: zero a tenth of the time, else up to 500 units.
fn work(g: &mut Gen) -> f64 {
    if g.rng().chance(0.1) {
        0.0
    } else {
        g.f64_in(0.0, 500.0)
    }
}

#[test]
fn ps_resource_matches_btree_reference() {
    check(
        "ps_resource_matches_btree_reference",
        &Config::default(),
        |g: &mut Gen| {
            let setup = Setup::random(g);
            let (mut new, mut old) = setup.build();
            prop_ensure_eq!(new.capacity().to_bits(), old.capacity().to_bits());
            let mut now = SimTime::ZERO;
            let mut issued: Vec<JobId> = Vec::new();
            let mut finished: Vec<JobId> = Vec::new();
            for step in 0..g.usize_in(1, 200) {
                // A quarter of the steps act at the same instant as the last.
                if !g.rng().chance(0.25) {
                    now += SimDuration::from_micros(g.u64_in(1, 3_000_000));
                }
                let op = g.u32_in(0, 9);
                match op {
                    0 | 1 => {
                        let w = work(g);
                        let id = new.submit(now, w);
                        prop_ensure_eq!(id, old.submit(now, w), "step {step}: submit id");
                        issued.push(id);
                    }
                    2 => {
                        let (w, weight) = (work(g), g.f64_in(0.1, 8.0));
                        let id = new.submit_weighted(now, w, weight);
                        let old_id = old.submit_weighted(now, w, weight);
                        prop_ensure_eq!(id, old_id, "step {step}: submit_weighted id");
                        issued.push(id);
                    }
                    3 => {
                        // A live or finished id, or one never issued.
                        let id = match g.u32_in(0, 3) {
                            0 if !finished.is_empty() => finished[g.usize_in(0, finished.len())],
                            1 => JobId(issued.len() as u64 + g.u64_in(0, 4)),
                            _ if !issued.is_empty() => issued[g.usize_in(0, issued.len())],
                            _ => JobId(g.u64_in(0, 4)),
                        };
                        let (a, b) = (new.cancel(now, id), old.cancel(now, id));
                        prop_ensure_eq!(bits(a), bits(b), "step {step}: cancel {id}");
                        if a.is_some() {
                            finished.push(id);
                        }
                    }
                    4 if g.rng().chance(0.2) => {
                        let ids = new.cancel_all(now);
                        prop_ensure_eq!(ids, old.cancel_all(now), "step {step}: cancel_all");
                        finished.extend(ids);
                    }
                    4 | 5 => {
                        new.advance(now);
                        old.advance(now);
                    }
                    _ => {
                        // Wake at the reported completion, as a world does,
                        // and sometimes take again at that same instant.
                        let at = new.next_completion(now);
                        prop_ensure_eq!(at, old.next_completion(now), "step {step}: next");
                        now = at.unwrap_or(now);
                        for _ in 0..g.usize_in(1, 3) {
                            let done = new.take_completed(now);
                            prop_ensure_eq!(
                                done,
                                old.take_completed(now),
                                "step {step}: take_completed at {now}"
                            );
                            prop_ensure!(
                                done.windows(2).all(|w| w[0] < w[1]),
                                "step {step}: completions out of id order: {done:?}"
                            );
                            finished.extend(done);
                        }
                    }
                }
                prop_ensure_eq!(new.len(), old.len(), "step {step}: len");
                prop_ensure_eq!(new.is_empty(), old.is_empty(), "step {step}: is_empty");
                prop_ensure_eq!(
                    new.total_completed_work().to_bits(),
                    old.total_completed_work().to_bits(),
                    "step {step}: total_completed_work"
                );
                prop_ensure_eq!(
                    new.next_completion(now),
                    old.next_completion(now),
                    "step {step}: next_completion"
                );
                for &id in &issued {
                    prop_ensure_eq!(
                        bits(new.remaining(id)),
                        bits(old.remaining(id)),
                        "step {step}: remaining of {id}"
                    );
                }
            }
            Ok(())
        },
    );
}
