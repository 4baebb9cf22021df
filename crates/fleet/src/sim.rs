//! The fleet simulation: thousands of [`HostCell`]s on `rh_sim`'s event core.
//!
//! One [`FleetWorld`] drives the whole datacenter: VM arrivals flow from a
//! [`WorkloadReader`] through the active [`PlacementAlgorithm`] into the
//! central [`PlacementStore`]; an optional rolling campaign polls the
//! [`WaveDriver`] to rejuvenate hosts (in place, or evacuating them first
//! via live migration); optional aging injects Poisson VMM crashes handled
//! by an [`rh_faults::recovery`] policy. Per-host downtimes come from the
//! precomputed [`DowntimeTable`]s, so a 5,000-host run with a million VM
//! lifecycle events finishes in seconds.
//!
//! SLA accounting integrates the fraction of placed VMs currently serving:
//! every second that fraction sits below [`FleetConfig::sla_floor`] (after
//! the fill-up transient) adds to [`FleetReport::sla_violation`]. Placement
//! latency is modeled as one microsecond per host probed — a determinism-
//! safe stand-in for a central store's lookup cost.
//!
//! The scheduler cannot cancel, so every host timer carries the
//! [`HostCell::epoch`] it was scheduled under and ignores itself in
//! `handle` if the host has since moved on. The world keeps
//! [`World::is_live`]'s default, so an ignored timer still counts in
//! [`FleetReport::events`].

use rh_cluster::driver::{CampaignDriver, FleetView, HostPhase};
use rh_cluster::migration::MigrationModel;
use rh_obs::metrics::Metrics;
use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

use crate::campaign::WaveDriver;
use crate::config::{CampaignMode, FleetConfig};
use crate::host::{CellStage, DowntimeTable, HostCell};
use crate::placement::{Decision, PlacementAlgorithm, PlacementQuery};
use crate::store::{PlacementStore, VmState};
use crate::workload::{SyntheticWorkload, VmArrival, WorkloadReader};

/// The fleet's event vocabulary (small and `Copy`: each event rides inline
/// in its queue entry).
#[derive(Debug, Clone, Copy)]
pub enum FleetEvent {
    /// The staged workload arrival is due.
    Arrive,
    /// A placed VM's lifetime ended.
    Depart {
        /// The departing VM.
        vm: u32,
    },
    /// An aging crash lands on `host` (ignored when `epoch` is stale).
    Crash {
        /// The crashing host.
        host: u32,
        /// The host epoch the crash was armed under.
        epoch: u32,
    },
    /// Crash recovery on `host` completes.
    RecoverDone {
        /// The recovering host.
        host: u32,
        /// The epoch the recovery was scheduled under.
        epoch: u32,
    },
    /// A campaign reboot on `host` completes.
    RebootDone {
        /// The rebooting host.
        host: u32,
        /// The epoch the reboot was scheduled under.
        epoch: u32,
    },
    /// One evacuation migration off `from` completes.
    MigrateDone {
        /// The migrating VM.
        vm: u32,
        /// The evacuating source host.
        from: u32,
        /// The epoch the evacuation was started under.
        epoch: u32,
    },
    /// The rolling campaign's configured start time.
    CampaignStart,
}

/// The datacenter state driven by the event core.
pub struct FleetWorld {
    cfg: FleetConfig,
    horizon_end: SimTime,
    store: PlacementStore,
    cells: Vec<HostCell>,
    /// The campaign driver's projection of each cell (evacuating hosts
    /// count as `Rebooting` so the wave stays conservative).
    phases: Vec<HostPhase>,
    completed: Vec<bool>,
    placement: Box<dyn PlacementAlgorithm>,
    driver: WaveDriver,
    workload: Box<dyn WorkloadReader>,
    next_arrival: Option<VmArrival>,
    crash_rng: SimRng,
    strategy_table: DowntimeTable,
    recovery_table: Option<DowntimeTable>,
    migration: MigrationModel,
    metrics: Metrics,
    // Capacity / SLA accounting.
    down_vms: i64,
    last_touch: SimTime,
    violation: SimDuration,
    min_frac: f64,
    // Campaign progress.
    campaign_active: bool,
    campaign_done: bool,
    campaign_finished: Option<SimTime>,
    cursor: u32,
    completed_count: u32,
    // Counters mirrored into metrics.
    arrivals: u64,
    placed: u64,
    rejected: u64,
    departures: u64,
    crashes: u64,
    migrations: u64,
    pair_losses: u64,
}

impl std::fmt::Debug for FleetWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetWorld")
            .field("hosts", &self.cfg.hosts)
            .field("live", &self.store.live())
            .field("down_vms", &self.down_vms)
            .field("completed", &self.completed_count)
            .finish_non_exhaustive()
    }
}

impl FleetWorld {
    /// Fraction of placed VMs currently serving (1.0 for an empty fleet).
    fn capacity_frac(&self) -> f64 {
        let live = i64::from(self.store.live());
        if live == 0 {
            return 1.0;
        }
        debug_assert!(self.down_vms >= 0 && self.down_vms <= live);
        (live - self.down_vms) as f64 / live as f64
    }

    /// Closes the capacity interval `[last_touch, now]` against the SLA
    /// floor. Called at the top of every event (state mutations happen
    /// after, so the current fraction is the one that held all interval).
    fn touch(&mut self, now: SimTime) {
        let frac = self.capacity_frac();
        let lo = self.last_touch.max(self.cfg.measure_from);
        if now > lo {
            if frac < self.cfg.sla_floor {
                self.violation = self.violation + (now - lo);
            }
            self.min_frac = self.min_frac.min(frac);
        }
        self.last_touch = now;
    }

    /// The imminent-rejuvenation window anti-affinity placement avoids.
    fn window(&self) -> u32 {
        match self.cfg.campaign {
            Some(c) if !self.campaign_done => 2 * c.max_down,
            _ => 0,
        }
    }

    /// Minimum campaign-order distance between replica-pair hosts.
    fn pair_spacing(&self) -> u32 {
        self.cfg.campaign.map_or(1, |c| 2 * c.max_down).max(1)
    }

    fn is_down(&self, host: u32) -> bool {
        matches!(
            self.cells[host as usize].stage,
            CellStage::Rebooting | CellStage::Recovering
        )
    }

    /// Asks the placement policy for a host (through the store's
    /// free-slot index) and records the decision's modeled latency.
    fn decide(&mut self, peer_host: Option<u32>) -> Decision {
        let q = PlacementQuery {
            used: self.store.used(),
            capacity: self.store.capacity(),
            phases: &self.phases,
            completed: &self.completed,
            cursor: self.cursor,
            window: self.window(),
            peer_host,
            pair_spacing: self.pair_spacing(),
        };
        let decision = self.placement.choose_indexed(&q, self.store.free_slots());
        debug_assert_eq!(
            decision,
            self.placement.choose(&q),
            "index diverged from the scan"
        );
        self.metrics.record(
            "placement.latency",
            SimDuration::from_micros(u64::from(decision.scanned)),
        );
        decision
    }

    /// Moves `host` to `phase`, keeping the store's free-slot index (which
    /// admits only serving hosts) in step.
    fn set_phase(&mut self, host: u32, phase: HostPhase) {
        self.phases[host as usize] = phase;
        self.store.set_serving(host, phase == HostPhase::Serving);
    }

    /// Places one VM, returning `(vm, host)` on success.
    fn place_one(&mut self, peer_host: Option<u32>) -> Option<(u32, u32)> {
        self.arrivals += 1;
        self.metrics.inc("fleet.arrivals");
        let decision = self.decide(peer_host);
        match decision.host {
            Some(h) => {
                let vm = self.store.insert(h);
                self.placed += 1;
                Some((vm, h))
            }
            None => {
                self.rejected += 1;
                self.metrics.inc("fleet.rejected");
                None
            }
        }
    }

    /// Counts replica pairs that lose both halves as `host` goes down:
    /// peers resident on `host` itself (once per pair) or on a host that
    /// is already down.
    fn count_pair_losses(&mut self, host: u32) {
        let mut losses = 0;
        for &vm in self.store.vms_on(host) {
            let Some(p) = self.store.peer(vm) else {
                continue;
            };
            let both_down = match self.store.resident_host(p) {
                Some(x) if x == host => p < vm, // count the co-located pair once
                Some(x) => matches!(
                    self.cells[x as usize].stage,
                    CellStage::Rebooting | CellStage::Recovering
                ),
                None => false,
            };
            losses += u64::from(both_down);
        }
        self.pair_losses += losses;
        self.metrics.add("fleet.pair_losses", losses);
    }

    /// Arms the next aging crash for `host` under its current epoch.
    fn arm_crash(&mut self, sched: &mut Scheduler<FleetEvent>, host: u32) {
        let Some(aging) = self.cfg.aging else { return };
        let dt = self.crash_rng.exponential(aging.mtbf.as_secs_f64());
        let at = sched.now() + SimDuration::from_secs_f64(dt);
        if at <= self.horizon_end {
            let epoch = self.cells[host as usize].epoch;
            sched.schedule_at(at, FleetEvent::Crash { host, epoch });
        }
    }

    /// Suspends `host`'s resident VMs and starts its campaign reboot.
    fn begin_reboot(&mut self, sched: &mut Scheduler<FleetEvent>, host: u32) {
        self.count_pair_losses(host);
        let n = self.store.resident(host);
        self.down_vms += i64::from(n);
        let cell = &mut self.cells[host as usize];
        cell.stage = CellStage::Rebooting;
        cell.epoch += 1;
        let epoch = cell.epoch;
        self.set_phase(host, HostPhase::Rebooting);
        let strategy = self
            .cfg
            .campaign
            // lint:allow(unwrap-panic): only reached via poll_campaign, gated on campaign_active which requires cfg.campaign
            .expect("campaign reboot without a campaign config")
            .strategy;
        let dt = self.strategy_table.get(n);
        self.metrics.add(&format!("fleet.reboots.{strategy}"), 1);
        self.metrics.record("fleet.reboot_downtime", dt);
        sched.schedule_in(dt, FleetEvent::RebootDone { host, epoch });
    }

    /// Starts draining `host` via live migration ahead of its reboot.
    fn begin_evac(&mut self, sched: &mut Scheduler<FleetEvent>, host: u32) {
        let cell = &mut self.cells[host as usize];
        debug_assert_eq!(cell.stage, CellStage::Serving);
        cell.stage = CellStage::Evacuating;
        cell.epoch += 1;
        let epoch = cell.epoch;
        // Conservative projection: the wave budgets the host as down for
        // its whole drain even though it still serves.
        self.set_phase(host, HostPhase::Rebooting);
        let vms = self.store.vms_on(host).to_vec();
        let mut cum = SimDuration::ZERO;
        let mut pending = 0u32;
        for vm in vms {
            let peer_host = self
                .store
                .peer(vm)
                .and_then(|p| self.store.resident_host(p));
            let decision = self.decide(peer_host);
            // An unplaceable VM stays and rides the in-place reboot.
            let Some(target) = decision.host else {
                continue;
            };
            let est = self.migration.migrate_vm(self.cfg.vm_mem_bytes);
            cum = cum + est.total; // one migration stream, serialized
            self.store.begin_migration(vm, target);
            self.metrics.record("fleet.migration_total", est.total);
            pending += 1;
            sched.schedule_at(
                sched.now() + cum,
                FleetEvent::MigrateDone {
                    vm,
                    from: host,
                    epoch,
                },
            );
        }
        self.cells[host as usize].evac_pending = pending;
        if pending == 0 {
            self.begin_reboot(sched, host);
        }
    }

    /// Polls the wave driver and starts every host it offers.
    fn poll_campaign(&mut self, sched: &mut Scheduler<FleetEvent>) {
        let Some(c) = self.cfg.campaign else { return };
        if !self.campaign_active || self.campaign_done {
            return;
        }
        if self.completed_count == self.cfg.hosts {
            self.campaign_done = true;
            self.campaign_finished = Some(sched.now());
            return;
        }
        while (self.cursor as usize) < self.completed.len() && self.completed[self.cursor as usize]
        {
            self.cursor += 1;
        }
        let starts =
            self.driver
                .eligible_starts(&FleetView::new(&self.phases, &self.completed, c.max_down));
        for h in starts {
            match c.mode {
                CampaignMode::InPlace => self.begin_reboot(sched, h),
                CampaignMode::Evacuate => self.begin_evac(sched, h),
            }
        }
    }

    fn finish_host(&mut self, host: u32) {
        self.down_vms -= i64::from(self.store.resident(host));
        let cell = &mut self.cells[host as usize];
        cell.stage = CellStage::Serving;
        cell.epoch += 1;
        self.set_phase(host, HostPhase::Serving);
    }

    /// Final accounting, consumed by [`FleetSimulation::run`].
    fn into_report(mut self, events: u64) -> FleetReport {
        self.metrics
            .set_gauge("fleet.hosts", i64::from(self.cfg.hosts));
        self.metrics
            .set_gauge("fleet.vms", i64::from(self.store.live()));
        self.metrics
            .set_gauge("campaign.completed", i64::from(self.completed_count));
        self.metrics
            .add("fleet.sla_violation_us", self.violation.as_micros());
        FleetReport {
            hosts: self.cfg.hosts,
            events,
            arrivals: self.arrivals,
            placed: self.placed,
            rejected: self.rejected,
            departures: self.departures,
            peak_vms: self.store.peak_live(),
            max_used: self.store.max_used(),
            crashes: self.crashes,
            migrations: self.migrations,
            pair_losses: self.pair_losses,
            min_capacity: self.min_frac,
            sla_violation: self.violation,
            campaign_finished: self.campaign_finished,
            completed_hosts: self.completed_count,
            metrics: self.metrics,
        }
    }
}

impl World for FleetWorld {
    type Event = FleetEvent;

    fn handle(&mut self, sched: &mut Scheduler<FleetEvent>, event: FleetEvent) {
        let now = sched.now();
        self.touch(now);
        match event {
            FleetEvent::Arrive => {
                let a = self
                    .next_arrival
                    .take()
                    // lint:allow(unwrap-panic): exactly one Arrive is scheduled per staged arrival
                    .expect("Arrive fired without a staged arrival");
                let first = self.place_one(None);
                let second = if a.paired {
                    self.place_one(first.map(|(_, h)| h))
                } else {
                    None
                };
                if let (Some((va, _)), Some((vb, _))) = (first, second) {
                    self.store.link_pair(va, vb);
                }
                for (vm, _) in first.into_iter().chain(second) {
                    sched.schedule_at(now + a.lifetime, FleetEvent::Depart { vm });
                }
                if let Some(next) = self.workload.next_arrival() {
                    self.next_arrival = Some(next);
                    sched.schedule_at(next.at, FleetEvent::Arrive);
                }
            }
            FleetEvent::Depart { vm } => {
                if let Some(h) = self.store.resident_host(vm) {
                    if self.is_down(h) {
                        self.down_vms -= 1;
                    }
                }
                self.store.remove(vm);
                self.departures += 1;
                self.metrics.inc("fleet.departures");
            }
            FleetEvent::Crash { host, epoch } => {
                let cell = self.cells[host as usize];
                if cell.epoch != epoch || cell.stage != CellStage::Serving {
                    return; // stale: the host moved on since this was armed
                }
                self.count_pair_losses(host);
                let n = self.store.resident(host);
                self.down_vms += i64::from(n);
                let cell = &mut self.cells[host as usize];
                cell.stage = CellStage::Recovering;
                cell.epoch += 1;
                let epoch = cell.epoch;
                self.set_phase(host, HostPhase::Recovering);
                self.crashes += 1;
                self.metrics.inc("fleet.crashes");
                // lint:allow(unwrap-panic): arm_crash only fires when cfg.aging is Some
                let aging = self.cfg.aging.expect("crash without an aging config");
                let table = self
                    .recovery_table
                    .as_ref()
                    // lint:allow(unwrap-panic): with_workload builds recovery_table whenever aging is Some
                    .expect("crash without a recovery table");
                let dt = aging.recovery.watchdog + table.get(n);
                self.metrics.record("fleet.recovery_time", dt);
                sched.schedule_in(dt, FleetEvent::RecoverDone { host, epoch });
            }
            FleetEvent::RecoverDone { host, epoch } => {
                if self.cells[host as usize].epoch != epoch {
                    return;
                }
                debug_assert_eq!(self.cells[host as usize].stage, CellStage::Recovering);
                self.finish_host(host);
                self.arm_crash(sched, host);
                self.poll_campaign(sched); // a freed down-slot may unblock the wave
            }
            FleetEvent::RebootDone { host, epoch } => {
                if self.cells[host as usize].epoch != epoch {
                    return;
                }
                debug_assert_eq!(self.cells[host as usize].stage, CellStage::Rebooting);
                self.finish_host(host);
                if !self.completed[host as usize] {
                    self.completed[host as usize] = true;
                    self.completed_count += 1;
                    self.metrics
                        .set_gauge("campaign.completed", i64::from(self.completed_count));
                }
                self.arm_crash(sched, host);
                self.poll_campaign(sched);
            }
            FleetEvent::MigrateDone { vm, from, epoch } => {
                if self.cells[from as usize].epoch != epoch {
                    return;
                }
                debug_assert_eq!(self.cells[from as usize].stage, CellStage::Evacuating);
                // The VM may have departed mid-flight; the drain still
                // advances (the store already released both slots).
                if let VmState::Migrating { to, .. } = self.store.state(vm) {
                    self.store.finish_migration(vm);
                    self.migrations += 1;
                    self.metrics.inc("fleet.migrations");
                    if self.is_down(to) {
                        // The target went down while the VM was in flight:
                        // it lands suspended and rejoins at the target's
                        // RebootDone/RecoverDone.
                        self.down_vms += 1;
                    }
                }
                self.cells[from as usize].evac_pending -= 1;
                if self.cells[from as usize].evac_pending == 0 {
                    self.begin_reboot(sched, from);
                }
            }
            FleetEvent::CampaignStart => {
                self.campaign_active = true;
                self.poll_campaign(sched);
            }
        }
    }
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet size.
    pub hosts: u32,
    /// Total scheduler events fired.
    pub events: u64,
    /// VM placement attempts (each pair counts two).
    pub arrivals: u64,
    /// Successfully placed VMs.
    pub placed: u64,
    /// Placement attempts no host could take.
    pub rejected: u64,
    /// VMs that departed within the horizon.
    pub departures: u64,
    /// High-water mark of live VMs.
    pub peak_vms: u32,
    /// High-water mark of any host's used slots (capacity audit: must
    /// never exceed the per-host slot count).
    pub max_used: u32,
    /// Aging crashes that landed.
    pub crashes: u64,
    /// Completed live migrations.
    pub migrations: u64,
    /// Replica pairs that had both halves down simultaneously.
    pub pair_losses: u64,
    /// Minimum serving fraction observed after `measure_from`.
    pub min_capacity: f64,
    /// Total time the serving fraction sat below the SLA floor.
    pub sla_violation: SimDuration,
    /// When the campaign finished, if it did.
    pub campaign_finished: Option<SimTime>,
    /// Hosts whose rejuvenation completed.
    pub completed_hosts: u32,
    /// The run's full metric registry.
    pub metrics: Metrics,
}

/// A configured fleet run: build with [`new`](FleetSimulation::new) (or
/// [`with_workload`](FleetSimulation::with_workload) to replay a trace),
/// consume with [`run`](FleetSimulation::run).
#[derive(Debug)]
pub struct FleetSimulation {
    inner: Simulation<FleetWorld>,
}

impl FleetSimulation {
    /// A fleet with the config's synthetic workload.
    ///
    /// # Errors
    ///
    /// Returns the config's validation error, if any.
    pub fn new(cfg: FleetConfig) -> Result<Self, String> {
        let rng = SimRng::from_seed(cfg.seed);
        let workload = SyntheticWorkload::new(cfg.workload, cfg.horizon, rng.fork(1));
        Self::with_workload(cfg, Box::new(workload))
    }

    /// A fleet driven by an explicit workload reader (e.g. a replayed
    /// [`TraceWorkload`](crate::workload::TraceWorkload)).
    ///
    /// # Errors
    ///
    /// Returns the config's validation error, if any.
    pub fn with_workload(
        cfg: FleetConfig,
        mut workload: Box<dyn WorkloadReader>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let rng = SimRng::from_seed(cfg.seed);
        let hosts = cfg.hosts as usize;
        let strategy = cfg.campaign.map_or(RebootStrategy::Warm, |c| c.strategy);
        let strategy_table = DowntimeTable::for_strategy(
            strategy,
            cfg.slots_per_host,
            cfg.vm_mem_bytes,
            cfg.host_ram_gib,
        );
        let recovery_table = cfg.aging.map(|a| {
            DowntimeTable::for_recovery(
                a.recovery.policy,
                cfg.slots_per_host,
                cfg.vm_mem_bytes,
                cfg.host_ram_gib,
            )
        });
        let next_arrival = workload.next_arrival();
        let world = FleetWorld {
            horizon_end: SimTime::ZERO + cfg.horizon,
            store: PlacementStore::new(cfg.hosts, cfg.slots_per_host),
            cells: vec![HostCell::new(); hosts],
            phases: vec![HostPhase::Serving; hosts],
            completed: vec![false; hosts],
            placement: cfg.placement.build(),
            driver: WaveDriver,
            workload,
            next_arrival,
            crash_rng: rng.fork(2),
            strategy_table,
            recovery_table,
            migration: MigrationModel::paper(),
            metrics: Metrics::new(),
            down_vms: 0,
            last_touch: SimTime::ZERO,
            violation: SimDuration::ZERO,
            min_frac: 1.0,
            campaign_active: false,
            campaign_done: false,
            campaign_finished: None,
            cursor: 0,
            completed_count: 0,
            arrivals: 0,
            placed: 0,
            rejected: 0,
            departures: 0,
            crashes: 0,
            migrations: 0,
            pair_losses: 0,
            cfg,
        };
        let mut sim = Simulation::new(world);
        let mut seeds: Vec<(SimTime, FleetEvent)> = Vec::new();
        {
            let w = sim.world_mut();
            if let Some(a) = w.next_arrival {
                seeds.push((a.at, FleetEvent::Arrive));
            }
            if let Some(aging) = w.cfg.aging {
                for host in 0..w.cfg.hosts {
                    let dt = w.crash_rng.exponential(aging.mtbf.as_secs_f64());
                    let at = SimTime::ZERO + SimDuration::from_secs_f64(dt);
                    if at <= w.horizon_end {
                        seeds.push((at, FleetEvent::Crash { host, epoch: 0 }));
                    }
                }
            }
            if let Some(c) = w.cfg.campaign {
                seeds.push((c.start, FleetEvent::CampaignStart));
            }
        }
        for (t, e) in seeds {
            sim.scheduler_mut().schedule_at(t, e);
        }
        Ok(FleetSimulation { inner: sim })
    }

    /// Runs to the configured horizon and reports.
    pub fn run(mut self) -> FleetReport {
        let deadline = self.inner.world().horizon_end;
        self.inner.run_until(deadline);
        let events = self.inner.scheduler().fired();
        let mut world = self.inner.into_world();
        world.touch(deadline);
        world.into_report(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CampaignConfig, FleetAging};
    use crate::placement::PlacementKind;

    fn quiet(hosts: u32) -> FleetConfig {
        let mut cfg = FleetConfig::datacenter(hosts);
        cfg.aging = None;
        cfg
    }

    #[test]
    fn steady_state_serves_without_violations() {
        let r = FleetSimulation::new(quiet(20)).unwrap().run();
        assert!(r.placed > 1000, "placed {}", r.placed);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.sla_violation, SimDuration::ZERO);
        assert_eq!(r.min_capacity, 1.0);
        assert!(r.events > r.placed, "events {}", r.events);
        // ~55 % of 160 slots on average; diurnal peaks + small-fleet noise
        // push the high-water mark well above the mean, but never past
        // capacity.
        assert!((60..=160).contains(&r.peak_vms), "peak {}", r.peak_vms);
        assert!(r.max_used <= 8);
        assert_eq!(r.metrics.counter("fleet.arrivals"), r.arrivals);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quiet(15).with_campaign(CampaignConfig::in_place(
            RebootStrategy::Streamed,
            15,
            SimTime::from_secs(1000),
        ));
        let a = FleetSimulation::new(cfg.clone()).unwrap().run();
        let b = FleetSimulation::new(cfg).unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn in_place_campaign_completes_and_dips_capacity() {
        let cfg = quiet(20).with_campaign(CampaignConfig::in_place(
            RebootStrategy::Warm,
            20,
            SimTime::from_secs(1000),
        ));
        let r = FleetSimulation::new(cfg).unwrap().run();
        assert_eq!(r.completed_hosts, 20);
        assert!(r.campaign_finished.is_some());
        assert_eq!(r.metrics.counter("fleet.reboots.warm"), 20);
        assert!(r.min_capacity < 1.0, "reboots suspend VMs");
        // First-fit co-locates pairs, so full-host reboots lose pairs.
        assert!(r.pair_losses > 0, "pair losses {}", r.pair_losses);
    }

    #[test]
    fn evacuation_migrates_instead_of_suspending() {
        let mut cfg = quiet(20).with_placement(PlacementKind::AntiAffinity);
        cfg.campaign = Some(CampaignConfig {
            strategy: RebootStrategy::Warm,
            mode: CampaignMode::Evacuate,
            max_down: 1,
            start: SimTime::from_secs(1000),
        });
        let r = FleetSimulation::new(cfg).unwrap().run();
        assert_eq!(r.completed_hosts, 20);
        assert!(r.migrations > 0, "migrations {}", r.migrations);
        assert_eq!(r.metrics.counter("fleet.reboots.warm"), 20);
        // One host down at a time + anti-affinity pairs → no double loss.
        assert_eq!(r.pair_losses, 0);
        assert!(r.max_used <= 8, "evacuation never oversubscribes");
    }

    #[test]
    fn aging_crashes_land_and_recover() {
        let mut cfg = quiet(20);
        cfg.aging = Some(FleetAging::microreboot(20_000));
        let r = FleetSimulation::new(cfg).unwrap().run();
        assert!(r.crashes > 0, "crashes {}", r.crashes);
        assert_eq!(r.metrics.counter("fleet.crashes"), r.crashes);
        assert!(r.min_capacity < 1.0);
        // One crashed host out of 20 is ~5 % of VMs — below the 97 % floor.
        assert!(r.sla_violation > SimDuration::ZERO);
    }

    #[test]
    fn anti_affinity_streamed_holds_the_floor_where_first_fit_cold_breaks_it() {
        let run = |placement, strategy| {
            let cfg = quiet(100)
                .with_placement(placement)
                .with_campaign(CampaignConfig::in_place(
                    strategy,
                    100,
                    SimTime::from_secs(1000),
                ));
            FleetSimulation::new(cfg).unwrap().run()
        };
        let bad = run(PlacementKind::FirstFit, RebootStrategy::Cold);
        let good = run(PlacementKind::AntiAffinity, RebootStrategy::Streamed);
        assert_eq!(bad.completed_hosts, 100);
        assert_eq!(good.completed_hosts, 100);
        // First-fit packs full hosts, so each wave suspends ~3.6 % of VMs.
        assert!(bad.min_capacity < 0.97, "min {}", bad.min_capacity);
        assert!(bad.sla_violation > SimDuration::ZERO);
        // Spreading keeps each wave at ~2 % of VMs — above the 97 % floor.
        assert!(good.min_capacity >= 0.97, "min {}", good.min_capacity);
        assert_eq!(good.sla_violation, SimDuration::ZERO);
    }
}
