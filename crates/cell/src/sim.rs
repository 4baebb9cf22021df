//! The cell event loop: arrivals, provisioning, departures.
//!
//! A [`CellSimulation`] merges the arrival stream from a
//! [`WorkloadReader`] with a departure heap and
//! processes events in strict time order on one thread — the run is a
//! pure function of [`CellConfig`], so any two runs (and any `--jobs`
//! split of a sweep) produce byte-identical reports and event logs.
//!
//! Every resident microVM is backed by a real [`P2mTable`] on the shared
//! [`MachineMemory`], with a [`BalloonController`] enforcing the floor and
//! the freeze fence. Parked (warm-pool) VMs keep their image frozen in
//! place — exactly the paper's frozen-domain state — so the balloon's
//! `Ok(0)` refusal on frozen controllers is invariant I8 operating in the
//! large, and a parked image leaves the pool only by being revived.
//!
//! Cold-start latency is the simulated span from arrival to VM start:
//! queue wait (if the arrival had to wait for frames) plus the closed-form
//! provisioning work below. The closed forms are calibrated against
//! published microVM numbers (Firecracker-class cold boot ≈ 150 ms; warm
//! reload dominated by per-page digest validation, §5.2 of the paper).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use rh_memory::balloon::BalloonController;
use rh_memory::frame::Pfn;
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_obs::{Event, EventLog};
use rh_sim::histogram::LatencyHistogram;
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};

use rh_fleet::workload::SyntheticWorkload;
use rh_fleet::WorkloadReader;

use crate::config::{CellConfig, ProvisionStrategy};

/// Cold provision: image build + boot, before the per-page fill.
const COLD_BASE_US: u64 = 150_000;
/// Cold provision: per-page image fill.
const COLD_FILL_US_PER_PAGE: u64 = 2;
/// Warm revive: fixed quick-reload cost (device re-attach, reconnect).
const WARM_BASE_US: u64 = 15_000;
/// Warm revive: pages validated per microsecond (digest re-check).
const WARM_VALIDATE_PAGES_PER_US: u64 = 5;
/// Balloon reclaim: fixed cost per pressure episode.
const RECLAIM_BASE_US: u64 = 5_000;
/// Balloon reclaim: per-page cost (guest free + unmap + release).
const RECLAIM_US_PER_PAGE: u64 = 1;
/// Balloon deflate: per-page cost (allocate + map + zero).
const DEFLATE_US_PER_PAGE: u64 = 1;

/// A resident microVM's memory state.
#[derive(Debug)]
struct Vm {
    p2m: P2mTable,
    ctl: BalloonController,
}

/// How a provision attempt got its frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BootKind {
    Cold,
    Warm,
}

/// Aggregated outcome of one cell run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cold-start latency (queue wait + provisioning work) per started VM.
    pub cold_start: LatencyHistogram,
    /// VMs started, total.
    pub provisioned: u64,
    /// Starts served from the warm pool.
    pub warm_hits: u64,
    /// Starts built from scratch.
    pub cold_boots: u64,
    /// Arrivals that had to wait for frames.
    pub queued: u64,
    /// Arrivals dropped at the admission cap.
    pub rejected: u64,
    /// Parked VMs evicted for their frames. Always 0: an arrival revives
    /// a parked image whenever the pool holds one, so a cold allocation
    /// never finds one to evict. Kept because the cell reports print it.
    pub evicted: u64,
    /// Pages taken by balloon reclaim.
    pub reclaimed_pages: u64,
    /// Pages given back by deflate-on-demand.
    pub deflated_pages: u64,
    /// Highest simultaneous resident (active + parked) VM count.
    pub peak_resident: usize,
    /// Time-weighted mean of allocated frames over the run, as a fraction
    /// of machine frames.
    pub mean_utilization: f64,
    /// VMs that ran to completion.
    pub completed: u64,
    /// Events processed (arrivals + departures), the throughput unit.
    pub events: u64,
}

impl CellReport {
    /// P50 cold-start (log-bucket upper bound); zero when nothing started.
    pub fn p50(&self) -> SimDuration {
        self.cold_start
            .percentile(50.0)
            .unwrap_or(SimDuration::ZERO)
    }

    /// P99 cold-start (log-bucket upper bound); zero when nothing started.
    pub fn p99(&self) -> SimDuration {
        self.cold_start
            .percentile(99.0)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The serverless cell: one overcommitted host, one arrival stream, one
/// provisioning strategy.
#[derive(Debug)]
pub struct CellSimulation {
    cfg: CellConfig,
    ram: MachineMemory,
    /// Running VMs by id (iteration order = reclaim order).
    active: BTreeMap<u64, Vm>,
    /// Warm pool, oldest first; images frozen in place.
    parked: VecDeque<Vm>,
    /// Arrivals waiting for frames: (vm id, arrived, lifetime).
    waiting: VecDeque<(u64, SimTime, SimDuration)>,
    /// Departure events: (time, seq, vm id).
    departures: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    next_vm: u64,
    /// Utilization integral state.
    last_at: SimTime,
    util_area: f64,
    report: CellReport,
}

impl CellSimulation {
    /// Builds a cell from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`CellConfig::validate`]'s message for a bad shape.
    pub fn new(cfg: CellConfig) -> Result<Self, String> {
        cfg.validate()?;
        let ram = MachineMemory::new(cfg.host_frames);
        Ok(CellSimulation {
            cfg,
            ram,
            active: BTreeMap::new(),
            parked: VecDeque::new(),
            waiting: VecDeque::new(),
            departures: BinaryHeap::new(),
            seq: 0,
            next_vm: 0,
            last_at: SimTime::ZERO,
            util_area: 0.0,
            report: CellReport {
                cold_start: LatencyHistogram::new(),
                provisioned: 0,
                warm_hits: 0,
                cold_boots: 0,
                queued: 0,
                rejected: 0,
                evicted: 0,
                reclaimed_pages: 0,
                deflated_pages: 0,
                peak_resident: 0,
                mean_utilization: 0.0,
                completed: 0,
                events: 0,
            },
        })
    }

    /// Runs to completion with event logging disabled.
    ///
    /// # Errors
    ///
    /// Propagates memory/P2M failures as messages (none occur for a
    /// validated config; the plumbing keeps the mechanism honest).
    pub fn run(self) -> Result<CellReport, String> {
        let mut log = EventLog::disabled();
        self.run_with_log(&mut log)
    }

    /// Runs to completion, emitting the typed event stream into `log`.
    ///
    /// # Errors
    ///
    /// Propagates memory/P2M failures as messages.
    pub fn run_with_log(mut self, log: &mut EventLog) -> Result<CellReport, String> {
        let rng = SimRng::from_seed(self.cfg.seed);
        let mut workload = SyntheticWorkload::new(self.cfg.workload, self.cfg.horizon, rng.fork(1));
        let mut pending = workload.next_arrival();
        loop {
            // Next event: earlier of the pending arrival and the top
            // departure; arrivals win ties (they carry the earlier seq).
            let next_depart = self.departures.peek().map(|Reverse(k)| *k);
            match (pending, next_depart) {
                (Some(a), d) if d.is_none_or(|(t, _, _)| a.at <= t) => {
                    self.advance_clock(a.at);
                    self.on_arrival(a.at, a.lifetime, log)?;
                    pending = workload.next_arrival();
                }
                (_, Some((t, _, id))) => {
                    self.departures.pop();
                    self.advance_clock(t);
                    self.on_departure(t, id, log)?;
                }
                // `(Some, None)` is captured by the first arm (its guard
                // is vacuously true with no departure pending).
                _ => break,
            }
        }
        let elapsed = self.last_at.as_secs_f64();
        self.report.mean_utilization = if elapsed > 0.0 {
            self.util_area / (elapsed * self.cfg.host_frames as f64)
        } else {
            0.0
        };
        Ok(self.report)
    }

    /// Accrues the utilization integral up to `now`.
    fn advance_clock(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.last_at).as_secs_f64();
        self.util_area += dt * self.ram.allocated_frames() as f64;
        self.last_at = now;
    }

    fn note_resident(&mut self) {
        let resident = self.active.len() + self.parked.len();
        self.report.peak_resident = self.report.peak_resident.max(resident);
    }

    fn on_arrival(
        &mut self,
        at: SimTime,
        lifetime: SimDuration,
        log: &mut EventLog,
    ) -> Result<(), String> {
        self.report.events += 1;
        let id = self.next_vm;
        self.next_vm += 1;
        if self.active.len() + self.waiting.len() >= self.cfg.admission_cap() {
            self.report.rejected += 1;
            log.emit(at, Event::CellRejected { vm: id });
            return Ok(());
        }
        if self.try_provision(at, id, at, lifetime, log)? {
            return Ok(());
        }
        self.report.queued += 1;
        self.waiting.push_back((id, at, lifetime));
        log.emit(at, Event::CellQueued { vm: id });
        Ok(())
    }

    fn on_departure(&mut self, at: SimTime, id: u64, log: &mut EventLog) -> Result<(), String> {
        self.report.events += 1;
        let Some(mut vm) = self.active.remove(&id) else {
            return Err(format!("cell: departure for unknown vm{id}"));
        };
        self.report.completed += 1;
        let parkable =
            self.cfg.strategy != ProvisionStrategy::Cold && self.parked.len() < self.cfg.warm_pool;
        if parkable {
            vm.ctl.freeze();
            self.parked.push_back(vm);
            log.emit(at, Event::CellParked { vm: id });
        } else {
            self.ram
                .release(&vm.p2m.machine_ranges())
                .map_err(|e| format!("cell: release on depart: {e}"))?;
            log.emit(at, Event::CellDeparted { vm: id });
        }
        // Frames (or a pool slot) freed — retry the queue head-of-line.
        while let Some(&(wid, arrived, life)) = self.waiting.front() {
            if !self.try_provision(at, wid, arrived, life, log)? {
                break;
            }
            self.waiting.pop_front();
        }
        Ok(())
    }

    /// Tries to start `id` now; true on success. The cold-start sample is
    /// `at - arrived` (queue wait) plus the provisioning work.
    fn try_provision(
        &mut self,
        at: SimTime,
        id: u64,
        arrived: SimTime,
        lifetime: SimDuration,
        log: &mut EventLog,
    ) -> Result<bool, String> {
        let (vm, work, kind) = match self.acquire(id, log, at)? {
            Some(x) => x,
            None => return Ok(false),
        };
        let wait = at.saturating_duration_since(arrived);
        let latency = wait + work;
        self.report.cold_start.record(latency);
        self.report.provisioned += 1;
        match kind {
            BootKind::Warm => self.report.warm_hits += 1,
            BootKind::Cold => self.report.cold_boots += 1,
        }
        let started = at + work;
        self.active.insert(id, vm);
        self.note_resident();
        self.seq += 1;
        self.departures
            .push(Reverse((started + lifetime, self.seq, id)));
        log.emit(
            started,
            Event::CellStarted {
                vm: id,
                warm: kind == BootKind::Warm,
                latency,
            },
        );
        Ok(true)
    }

    /// Obtains memory for one VM: warm-pool hit, or frames via balloon
    /// reclaim / plain allocation. `None` means "must wait".
    fn acquire(
        &mut self,
        id: u64,
        log: &mut EventLog,
        at: SimTime,
    ) -> Result<Option<(Vm, SimDuration, BootKind)>, String> {
        // Warm hit: revive the oldest parked image.
        if let Some(mut vm) = self.parked.pop_front() {
            vm.ctl.thaw();
            let resident = vm.p2m.total_pages();
            let mut us = WARM_BASE_US + resident / WARM_VALIDATE_PAGES_PER_US;
            // Grow a squeezed image back toward spec — partial is fine,
            // the VM starts with what the machine can spare right now.
            if resident < self.cfg.vm_pages {
                let got = vm
                    .ctl
                    .deflate_on_demand(&mut vm.p2m, &mut self.ram, self.cfg.vm_pages - resident)
                    .map_err(|e| format!("cell: revive deflate: {e}"))?;
                self.report.deflated_pages += got;
                us += got * DEFLATE_US_PER_PAGE;
            }
            return Ok(Some((vm, SimDuration::from_micros(us), BootKind::Warm)));
        }
        let mut us = COLD_BASE_US + self.cfg.vm_pages * COLD_FILL_US_PER_PAGE;
        // The pool is empty here, so the only room to make is by squeezing
        // running VMs (balloon strategy only).
        if self.ram.free_frames() < self.cfg.vm_pages
            && self.cfg.strategy == ProvisionStrategy::BalloonReclaim
        {
            let mut want = self.cfg.vm_pages - self.ram.free_frames();
            let mut took = 0;
            for vm in self.active.values_mut() {
                if want == 0 {
                    break;
                }
                let got = vm
                    .ctl
                    .reclaim_under_pressure(&mut vm.p2m, &mut self.ram, want)
                    .map_err(|e| format!("cell: reclaim: {e}"))?;
                want -= got;
                took += got;
            }
            if took > 0 {
                self.report.reclaimed_pages += took;
                us += RECLAIM_BASE_US + took * RECLAIM_US_PER_PAGE;
                log.emit(
                    at,
                    Event::CellReclaimed {
                        vm: id,
                        pages: took,
                    },
                );
            }
        }
        if self.ram.free_frames() < self.cfg.vm_pages {
            return Ok(None);
        }
        let ranges = self
            .ram
            .allocate(self.cfg.vm_pages)
            .map_err(|e| format!("cell: allocate: {e}"))?;
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &ranges)
            .map_err(|e| format!("cell: map: {e}"))?;
        let vm = Vm {
            p2m,
            ctl: BalloonController::new(self.cfg.min_resident),
        };
        Ok(Some((vm, SimDuration::from_micros(us), BootKind::Cold)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(strategy: ProvisionStrategy, overcommit: f64) -> CellReport {
        // lint:allow(unwrap-panic): test helper
        CellSimulation::new(CellConfig::steady(strategy, overcommit))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn steady_cell_serves_the_workload() {
        let r = run(ProvisionStrategy::Cold, 1.0);
        assert!(r.provisioned > 1_000, "{} provisioned", r.provisioned);
        assert_eq!(r.provisioned, r.completed);
        assert_eq!(r.warm_hits, 0);
        assert!(r.mean_utilization > 0.5, "util {}", r.mean_utilization);
        assert!(r.peak_resident <= 32);
    }

    #[test]
    fn warm_pool_serves_hits_and_balloon_reclaims() {
        let w = run(ProvisionStrategy::Warm, 1.5);
        assert!(w.warm_hits > 0, "no warm hits");
        let b = run(ProvisionStrategy::BalloonReclaim, 1.5);
        assert!(b.reclaimed_pages > 0, "no reclaim at 1.5x overcommit");
        assert!(b.peak_resident > 32, "overcommit never exceeded physical");
    }

    #[test]
    fn balloon_beats_cold_on_p99_at_overcommit() {
        let cold = run(ProvisionStrategy::Cold, 1.5);
        let balloon = run(ProvisionStrategy::BalloonReclaim, 1.5);
        assert!(
            balloon.p99() < cold.p99(),
            "balloon p99 {} !< cold p99 {}",
            balloon.p99(),
            cold.p99()
        );
        assert!(balloon.rejected <= cold.rejected);
    }

    #[test]
    fn runs_replay_byte_identically_with_logs() {
        let go = || {
            let mut log = EventLog::new();
            // lint:allow(unwrap-panic): test closure
            let r = CellSimulation::new(CellConfig::burst(ProvisionStrategy::BalloonReclaim, 1.5))
                .unwrap()
                .run_with_log(&mut log)
                .unwrap();
            (r, log.render())
        };
        let (r1, l1) = go();
        let (r2, l2) = go();
        assert_eq!(r1, r2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn an_enabled_log_changes_no_report() {
        for strategy in ProvisionStrategy::ALL {
            let mut log = EventLog::new();
            // lint:allow(unwrap-panic): test
            let traced = CellSimulation::new(CellConfig::steady(strategy, 1.5))
                .unwrap()
                .run_with_log(&mut log)
                .unwrap();
            assert!(!log.is_empty(), "{strategy}: nothing was logged");
            assert_eq!(traced, run(strategy, 1.5), "{strategy}");
        }
    }

    #[test]
    fn frozen_parked_images_survive_reclaim_pressure() {
        let r = run(ProvisionStrategy::BalloonReclaim, 1.5);
        // Reclaim happened while a warm pool existed; the accounting
        // stayed exact (every page is somewhere): peak resident bounded
        // by the cap, and the run drained cleanly.
        assert!(r.peak_resident <= 48);
        assert_eq!(r.provisioned, r.completed);
    }
}
