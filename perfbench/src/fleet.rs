//! `fleet-campaign`: the 1000-host half of the fleetbench grid.
//!
//! Three placements × four campaigns (in-place cold, warm and streamed,
//! and evacuate-warm) on `FleetConfig::datacenter(1000)`, whose open-loop
//! Poisson/diurnal arrivals every point shares. It is the only workload on
//! the flat scheduler, `PlacementStore`, live migration and the
//! `Metrics`-heavy paths; its first-fit points barely use placement while
//! its best-fit and anti-affinity points scan every host per arrival.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use rh_cluster::driver::HostPhase;
use rh_fleet::config::{CampaignConfig, CampaignMode, FleetConfig};
use rh_fleet::placement::{PlacementKind, PlacementQuery};
use rh_fleet::sim::{FleetReport, FleetSimulation};
use rh_fleet::store::PlacementStore;
use rh_fleet::workload::{SyntheticWorkload, VmArrival, WorkloadReader};
use rh_obs::Metrics;
use rh_sim::flat::{FlatScheduler, FlatSimulation, FlatWorld};
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

use crate::report::{median, ns_per_call, set_up, Clock, LayerRow, Layers, Rep};
use crate::Scale;

/// The campaigns swept under every placement, in fleetbench's order.
const CAMPAIGNS: [(CampaignMode, RebootStrategy); 4] = [
    (CampaignMode::InPlace, RebootStrategy::Cold),
    (CampaignMode::InPlace, RebootStrategy::Warm),
    (CampaignMode::InPlace, RebootStrategy::Streamed),
    (CampaignMode::Evacuate, RebootStrategy::Warm),
];

/// The grid's configs: every point faces the same seeded arrival trace.
fn grid(seed: u64, scale: Scale) -> Vec<FleetConfig> {
    let hosts = match scale {
        Scale::Full => 1000,
        Scale::Tiny => 100,
    };
    let mut out = Vec::new();
    for placement in PlacementKind::ALL {
        for (mode, strategy) in CAMPAIGNS {
            let mut cfg = FleetConfig::datacenter(hosts).with_placement(placement);
            let mut campaign = CampaignConfig::in_place(strategy, hosts, SimTime::from_secs(1000));
            campaign.mode = mode;
            cfg.campaign = Some(campaign);
            cfg.seed = seed;
            out.push(cfg);
        }
    }
    out
}

/// The generator `FleetSimulation::new` would build for `cfg`.
fn arrivals(cfg: &FleetConfig) -> SyntheticWorkload {
    SyntheticWorkload::new(
        cfg.workload,
        cfg.horizon,
        SimRng::from_seed(cfg.seed).fork(1),
    )
}

/// A `WorkloadReader` that times every call into the generator it wraps.
struct TimingReader {
    inner: SyntheticWorkload,
    calls: Rc<Cell<u64>>,
    busy_ns: Rc<Cell<u128>>,
}

impl WorkloadReader for TimingReader {
    fn next_arrival(&mut self) -> Option<VmArrival> {
        let start = Instant::now();
        let next = self.inner.next_arrival();
        self.busy_ns
            .set(self.busy_ns.get() + start.elapsed().as_nanos());
        self.calls.set(self.calls.get() + u64::from(next.is_some()));
        next
    }
}

/// Checks one point's report; renders its simulated outputs.
fn check(cfg: &FleetConfig, r: &FleetReport) -> (bool, String) {
    let ok = r.max_used <= cfg.slots_per_host
        && r.completed_hosts == cfg.hosts
        && r.campaign_finished.is_some()
        && r.placed + r.rejected == r.arrivals;
    let c = cfg.campaign.expect("every grid point has a campaign");
    let out = format!(
        "{} {}-{}: events {} arrivals {} placed {} rejected {} departures {} peak {} max_used {} \
         crashes {} migrations {} pairs {} min {:.6} viol_us {} finished_us {} ok {ok}\n",
        cfg.placement,
        c.mode,
        c.strategy,
        r.events,
        r.arrivals,
        r.placed,
        r.rejected,
        r.departures,
        r.peak_vms,
        r.max_used,
        r.crashes,
        r.migrations,
        r.pair_losses,
        r.min_capacity,
        r.sla_violation.as_micros(),
        r.campaign_finished.map_or(0, |t| t.as_micros())
    );
    (ok, out)
}

/// Builds every point of the grid, each reading its arrivals through
/// `reader`.
fn build_grid(
    cfgs: &[FleetConfig],
    reader: impl Fn(&FleetConfig) -> Box<dyn WorkloadReader>,
) -> Vec<FleetSimulation> {
    cfgs.iter()
        .map(|c| {
            FleetSimulation::with_workload(c.clone(), reader(c)).expect("grid configs are valid")
        })
        .collect()
}

/// Runs every point, timing each, and checks the reports.
fn run_grid(
    cfgs: &[FleetConfig],
    sims: Vec<FleetSimulation>,
    setup_s: Vec<f64>,
) -> (Rep, Vec<FleetReport>) {
    let mut clock = Clock::new();
    let reports: Vec<FleetReport> = sims
        .into_iter()
        .map(|sim| clock.time(|| sim.run()))
        .collect();
    let mut failed = 0;
    let mut outputs = String::new();
    for (cfg, r) in cfgs.iter().zip(&reports) {
        let (ok, out) = check(cfg, r);
        failed += u64::from(!ok);
        outputs.push_str(&out);
    }
    outputs
        .push_str("model: unvalidated (the repository holds no reference results for the fleet)\n");
    let rep = Rep {
        setup_s,
        clock,
        ops: cfgs.len() as u64,
        failed,
        outputs,
    };
    (rep, reports)
}

/// Runs one untraced repetition: build every point, then run them.
pub fn rep(seed: u64, scale: Scale) -> Rep {
    let cfgs = grid(seed, scale);
    let (sims, setup_s) = set_up(1, || build_grid(&cfgs, |c| Box::new(arrivals(c))));
    run_grid(&cfgs, sims, setup_s).0
}

/// Runs the repetitions with every arrival timed through a
/// [`TimingReader`], then times each layer the fleet crosses on inputs
/// shaped like the run.
pub fn traced(seed: u64, scale: Scale, seconds: f64) -> (Vec<Rep>, Layers) {
    let cfgs = grid(seed, scale);
    let calls = Rc::new(Cell::new(0u64));
    let busy_ns = Rc::new(Cell::new(0u128));
    let mut last = Vec::new();
    let mut workload_s = Vec::new();
    let reps = crate::report::repeat(seconds, || {
        let (sims, setup_s) = set_up(1, || {
            calls.set(0);
            busy_ns.set(0);
            build_grid(&cfgs, |c| {
                Box::new(TimingReader {
                    inner: arrivals(c),
                    calls: Rc::clone(&calls),
                    busy_ns: Rc::clone(&busy_ns),
                })
            })
        });
        let (rep, reports) = run_grid(&cfgs, sims, setup_s);
        // The reader's time is raw host time: normalize it at the
        // repetition's mean ratio of normalized to raw time.
        let c = &rep.clock;
        let speed = c.op_s.iter().sum::<f64>() / c.raw_s.iter().sum::<f64>();
        workload_s.push(busy_ns.get() as f64 * 1e-9 * speed);
        last = reports;
        rep
    });
    let mut layers = Layers::default();
    let arrived = calls.get();
    layers.set("fleet.workload.arrivals", arrived as f64);
    layers.row(LayerRow {
        layer: "fleet.workload",
        busy_metric: "fleet.workload.busy_s",
        count: arrived as f64,
        ns_per_op: median(&workload_s) * 1e9 / arrived.max(1) as f64,
    });

    let hosts = cfgs[0].hosts;
    let slots = cfgs[0].slots_per_host;
    let sum = |f: &dyn Fn(&FleetReport) -> u64| last.iter().map(f).sum::<u64>();
    // Placement: `placement.latency` models one µs per probed host, so its
    // count is the calls and its total the probes.
    let calls_of = |r: &FleetReport| {
        r.metrics
            .timer("placement.latency")
            .map_or(0, |t| t.count())
    };
    let probes_of = |r: &FleetReport| {
        r.metrics
            .timer("placement.latency")
            .map_or(0, |t| t.count() * t.mean().map_or(0, |m| m.as_micros()))
    };
    let placement_calls = sum(&calls_of);
    layers.set("fleet.placement.calls", placement_calls as f64);
    layers.set("fleet.placement.probes", sum(&probes_of) as f64);
    layers.set(
        "fleet.placement.reject_ratio",
        sum(&|r| r.rejected) as f64 / placement_calls.max(1) as f64,
    );
    for kind in PlacementKind::ALL {
        let probes: u64 = cfgs
            .iter()
            .zip(&last)
            .filter(|(c, _)| c.placement == kind)
            .map(|(_, r)| probes_of(r))
            .sum();
        layers.row(LayerRow {
            layer: kind.name(),
            busy_metric: "fleet.placement.busy_s",
            count: probes as f64,
            ns_per_op: ns_per_probe(kind, hosts, slots),
        });
    }

    let store_ops = sum(&|r| r.placed + r.departures + 2 * r.migrations);
    layers.set("fleet.store.ops", store_ops as f64);
    layers.row(LayerRow {
        layer: "fleet.store",
        busy_metric: "fleet.store.busy_s",
        count: store_ops as f64,
        ns_per_op: ns_per_store_op(hosts, slots),
    });

    let updates = sum(&metric_updates);
    layers.set("obs.metrics.updates", updates as f64);
    layers.row(LayerRow {
        layer: "obs.metrics",
        busy_metric: "obs.metrics.busy_s",
        count: updates as f64,
        ns_per_op: ns_per_metric_update(&last[0].metrics),
    });

    let events = sum(&|r| r.events);
    layers.set("sim.flat.events", events as f64);
    layers.row(LayerRow {
        layer: "sim.flat",
        busy_metric: "sim.flat.busy_s",
        count: events as f64,
        ns_per_op: ns_per_flat_event(),
    });
    layers.set("cluster.migrations", sum(&|r| r.migrations) as f64);
    (reps, layers)
}

/// `Metrics` updates a run made, implied by its registry: one per unit
/// of every counter the fleet bumps by one, one per timer sample, one per
/// pair-loss tally (made at every reboot and crash), one gauge update per
/// completed host plus the final four.
fn metric_updates(r: &FleetReport) -> u64 {
    let m = &r.metrics;
    let unit_counters: u64 = m
        .counters()
        .filter(|(name, _)| *name != "fleet.pair_losses" && *name != "fleet.sla_violation_us")
        .map(|(_, v)| v)
        .sum();
    let timer_samples: u64 = m.timers().map(|(_, t)| t.count()).sum();
    let reboots = m.timer("fleet.reboot_downtime").map_or(0, |t| t.count());
    unit_counters + timer_samples + reboots + r.crashes + u64::from(r.completed_hosts) + 4
}

/// Host nanoseconds per host probed by `kind`, on an occupancy shaped
/// like the one the policy builds at the datacenter's 55 % utilization:
/// first-fit and best-fit pack the low-index hosts full, anti-affinity
/// spreads VMs evenly.
fn ns_per_probe(kind: PlacementKind, hosts: u32, slots: u32) -> f64 {
    let live = hosts * slots * 55 / 100;
    let used: Vec<u32> = (0..hosts)
        .map(|h| match kind {
            PlacementKind::FirstFit | PlacementKind::BestFit => {
                if h < live / slots {
                    slots
                } else {
                    0
                }
            }
            PlacementKind::AntiAffinity => (live + h) / hosts,
        })
        .collect();
    let phases = vec![HostPhase::Serving; hosts as usize];
    let completed = vec![false; hosts as usize];
    let spacing = 2 * (hosts / 50).max(1);
    let algo = kind.build();
    let q = PlacementQuery {
        used: &used,
        capacity: slots,
        phases: &phases,
        completed: &completed,
        cursor: 0,
        window: 0,
        peer_host: None,
        pair_spacing: spacing,
    };
    let probes = u64::from(algo.choose(&q).scanned);
    ns_per_call(15, 2_000, || {
        std::hint::black_box(algo.choose(std::hint::black_box(&q)));
    }) / probes.max(1) as f64
}

/// Host nanoseconds per `PlacementStore` operation: an insert, a remove,
/// and a migration's begin and finish, each counted once.
fn ns_per_store_op(hosts: u32, slots: u32) -> f64 {
    let mut store = PlacementStore::new(hosts, slots);
    let mut h = 0u32;
    ns_per_call(15, 20_000, || {
        let vm = store.insert(h);
        let to = (h + hosts / 2) % hosts;
        store.begin_migration(vm, to);
        store.finish_migration(vm);
        store.remove(vm);
        h = (h + 1) % hosts;
    }) / 4.0
}

/// Host nanoseconds per `Metrics` update on a registry holding the
/// fleet's own names: one counter bump and one timer sample, alternating.
fn ns_per_metric_update(fleet_metrics: &Metrics) -> f64 {
    let mut m = fleet_metrics.clone();
    ns_per_call(15, 50_000, || {
        m.inc("fleet.arrivals");
        m.record("placement.latency", SimDuration::from_micros(1000));
    }) / 2.0
}

struct FlatChain {
    remaining: u64,
}

impl FlatWorld for FlatChain {
    type Event = ();
    fn handle(&mut self, sched: &mut FlatScheduler<()>, _ev: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

/// Host nanoseconds per event of the flat scheduler's dispatch loop.
fn ns_per_flat_event() -> f64 {
    const EVENTS: u64 = 500_000;
    ns_per_call(15, 1, || {
        let mut sim = FlatSimulation::new(FlatChain { remaining: EVENTS });
        sim.scheduler_mut().schedule_in(SimDuration::ZERO, ());
        sim.run_until_idle();
        std::hint::black_box(sim.scheduler().fired());
    }) / EVENTS as f64
}
