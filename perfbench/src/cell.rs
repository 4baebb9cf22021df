//! `cell-churn`: the cellbench grid on a long horizon.
//!
//! Load {0.85, 1.05} × overcommit {1.0, 1.5, 2.0} × strategy {cold, warm,
//! balloon} on `CellConfig::steady`, every point facing the same seeded
//! open-loop arrival stream (per load) and starting with an empty memory.
//! It churns many small P2M images through allocate, map, reclaim, deflate
//! and release: the write-heavy use of rh-memory, beside host-rejuv's few
//! large images. It is the only workload on `BalloonController` and on the
//! cell's `Event::note` path; its overcommit-1.0 points never reclaim.

use rh_cell::{CellConfig, CellReport, CellSimulation, ProvisionStrategy};
use rh_fleet::workload::{SyntheticWorkload, WorkloadReader};
use rh_memory::balloon::BalloonController;
use rh_memory::frame::Pfn;
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_obs::{Event, EventLog};
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};

use crate::report::{ns_per_call, set_up, Clock, LayerRow, Layers, Rep};
use crate::Scale;

const LOADS: [f64; 2] = [0.85, 1.05];
const OVERCOMMITS: [f64; 3] = [1.0, 1.5, 2.0];
/// Grid builds per set-up sample: one build takes about two microseconds.
const SETUP_BATCH: usize = 256;

/// The grid's configs. The arrival rate is rescaled to each load factor;
/// the seed is shared, so every strategy at one load sees one trace.
fn grid(seed: u64, scale: Scale) -> Vec<CellConfig> {
    let horizon = match scale {
        Scale::Full => SimDuration::from_secs(6_000),
        Scale::Tiny => SimDuration::from_secs(600),
    };
    let mut out = Vec::new();
    for load in LOADS {
        for overcommit in OVERCOMMITS {
            for strategy in ProvisionStrategy::ALL {
                let mut cfg = CellConfig::steady(strategy, overcommit);
                let slots = (cfg.host_frames / cfg.vm_pages) as f64;
                cfg.workload.arrival_rate = slots * load / cfg.workload.mean_lifetime.as_secs_f64();
                cfg.horizon = horizon;
                cfg.seed = seed;
                out.push(cfg);
            }
        }
    }
    out
}

fn build(cfgs: &[CellConfig]) -> Vec<CellSimulation> {
    cfgs.iter()
        .map(|c| CellSimulation::new(c.clone()).expect("grid configs are valid"))
        .collect()
}

/// Runs every point into its log, timing each.
fn run(sims: Vec<CellSimulation>, logs: &mut [EventLog]) -> (Vec<CellReport>, Clock) {
    let mut clock = Clock::new();
    let reports = sims
        .into_iter()
        .zip(logs.iter_mut())
        .map(|(sim, log)| {
            clock.time(|| {
                sim.run_with_log(log)
                    .expect("validated cells run to completion")
            })
        })
        .collect();
    (reports, clock)
}

/// Checks every point and renders the simulated outputs.
fn summarize(cfgs: &[CellConfig], reports: &[CellReport], setup_s: Vec<f64>, clock: Clock) -> Rep {
    let mut failed = 0;
    let mut outputs = String::new();
    for (i, (cfg, r)) in cfgs.iter().zip(reports).enumerate() {
        let mut ok = r.provisioned == r.completed && r.peak_resident <= cfg.admission_cap();
        if cfg.strategy == ProvisionStrategy::BalloonReclaim && cfg.overcommit >= 1.5 {
            // Grid order puts the cold point of the same (load, overcommit)
            // two places before the balloon point.
            let cold = &reports[i - 2];
            ok &= r.p99() < cold.p99();
        }
        failed += u64::from(!ok);
        outputs.push_str(&format!(
            "load {:.2} oc {:.1} {}: events {} provisioned {} warm {} cold {} queued {} rejected {} \
             evicted {} reclaimed {} deflated {} peak {} util {:.6} p50_us {} p99_us {} ok {ok}\n",
            cfg.workload.arrival_rate * cfg.workload.mean_lifetime.as_secs_f64()
                / (cfg.host_frames / cfg.vm_pages) as f64,
            cfg.overcommit,
            cfg.strategy,
            r.events,
            r.provisioned,
            r.warm_hits,
            r.cold_boots,
            r.queued,
            r.rejected,
            r.evicted,
            r.reclaimed_pages,
            r.deflated_pages,
            r.peak_resident,
            r.mean_utilization,
            r.p50().as_micros(),
            r.p99().as_micros()
        ));
    }
    outputs
        .push_str("model: unvalidated (the repository holds no reference results for the cell)\n");
    Rep {
        setup_s,
        clock,
        ops: cfgs.len() as u64,
        failed,
        outputs,
    }
}

/// Runs one untraced repetition: build every point, then run them with
/// event logging disabled.
pub fn rep(seed: u64, scale: Scale) -> Rep {
    let cfgs = grid(seed, scale);
    let (sims, setup_s) = set_up(SETUP_BATCH, || build(&cfgs));
    let mut logs: Vec<EventLog> = cfgs.iter().map(|_| EventLog::disabled()).collect();
    let (reports, clock) = run(sims, &mut logs);
    summarize(&cfgs, &reports, setup_s, clock)
}

/// Runs the traced repetitions (each point into an enabled event log),
/// then times each layer the cell crosses on inputs shaped like the run.
pub fn traced(seed: u64, scale: Scale, seconds: f64) -> (Vec<Rep>, Layers) {
    let cfgs = grid(seed, scale);
    let mut last = (Vec::new(), Vec::new());
    let reps = crate::report::repeat(seconds, || {
        let (sims, setup_s) = set_up(SETUP_BATCH, || build(&cfgs));
        let mut logs: Vec<EventLog> = cfgs.iter().map(|_| EventLog::new()).collect();
        let (reports, clock) = run(sims, &mut logs);
        let rep = summarize(&cfgs, &reports, setup_s, clock);
        last = (reports, logs);
        rep
    });
    let (reports, logs) = last;
    let sum = |f: &dyn Fn(&CellReport) -> u64| reports.iter().map(f).sum::<u64>();
    let mut layers = Layers::default();
    layers.set("cell.events", sum(&|r| r.events) as f64);
    layers.set(
        "cell.warm_hit_ratio",
        sum(&|r| r.warm_hits) as f64 / sum(&|r| r.provisioned).max(1) as f64,
    );

    // The generator each point drains: one stream per load, run 9 times.
    let mut clock = Clock::new();
    let arrivals: u64 = cfgs
        .iter()
        .map(|c| {
            let mut w =
                SyntheticWorkload::new(c.workload, c.horizon, SimRng::from_seed(c.seed).fork(1));
            clock.time(|| std::iter::from_fn(|| w.next_arrival()).count() as u64)
        })
        .sum();
    let drain_s: f64 = clock.op_s.iter().sum();
    layers.set("fleet.workload.arrivals", arrivals as f64);
    layers.row(LayerRow {
        layer: "fleet.workload",
        busy_metric: "fleet.workload.busy_s",
        count: arrivals as f64,
        ns_per_op: drain_s * 1e9 / arrivals.max(1) as f64,
    });

    // Image operations: every cold boot allocates and maps an image; every
    // eviction and every departure that does not park releases one.
    let releases = count_notes(&logs, |m| m.ends_with(" departed"));
    let image_ops = sum(&|r| r.cold_boots + r.evicted) + releases;
    layers.set("memory.image_ops", image_ops as f64);
    layers.row(LayerRow {
        layer: "memory.image",
        busy_metric: "memory.image_busy_s",
        count: image_ops as f64,
        ns_per_op: ns_per_image_op(&cfgs[0]),
    });

    // Balloon: timed at the run's mean pages per reclaim episode (one
    // `reclaimed N pages` note each).
    let pages = sum(&|r| r.reclaimed_pages + r.deflated_pages);
    let episodes = count_notes(&logs, |m| m.starts_with("reclaimed "));
    let chunk = sum(&|r| r.reclaimed_pages) / episodes.max(1);
    layers.set("memory.balloon.pages", pages as f64);
    layers.row(LayerRow {
        layer: "memory.balloon",
        busy_metric: "memory.balloon.busy_s",
        count: pages as f64,
        ns_per_op: ns_per_balloon_page(&cfgs[0], chunk),
    });

    let notes: u64 = logs.iter().map(|l| l.len() as u64).sum();
    layers.set("obs.log.notes", notes as f64);
    layers.row(LayerRow {
        layer: "obs.log",
        busy_metric: "obs.log.busy_s",
        count: notes as f64,
        ns_per_op: ns_per_note(),
    });
    (reps, layers)
}

/// Notes across the grid's logs whose message satisfies `pred`.
fn count_notes(logs: &[EventLog], pred: impl Fn(&str) -> bool) -> u64 {
    logs.iter()
        .flat_map(EventLog::records)
        .filter(|r| pred(&r.event.message()))
        .count() as u64
}

/// Host nanoseconds per image operation at the cell's image size, on a
/// machine as full as a loaded cell: a cold boot's allocate and
/// `map_contiguous` is one operation, a release's `machine_ranges` and
/// `release` the other.
fn ns_per_image_op(cfg: &CellConfig) -> f64 {
    let mut ram = MachineMemory::new(cfg.host_frames);
    let slots = cfg.host_frames / cfg.vm_pages;
    // Resident images, released every other one so the free list is
    // fragmented the way departures leave it.
    let held: Vec<_> = (0..slots - 2)
        .map(|_| ram.allocate(cfg.vm_pages).expect("fits"))
        .collect();
    for ranges in held.iter().step_by(2) {
        ram.release(ranges).expect("allocated above");
    }
    ns_per_call(15, 2_000, || {
        let ranges = ram.allocate(cfg.vm_pages).expect("a slot is free");
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &ranges).expect("fresh table");
        ram.release(&p2m.machine_ranges()).expect("mapped above");
    }) / 2.0
}

/// Host nanoseconds per page a running image gives up under pressure and
/// takes back on demand, `chunk` pages at a time (clamped to what one
/// image can give above its floor).
fn ns_per_balloon_page(cfg: &CellConfig, chunk: u64) -> f64 {
    let mut ram = MachineMemory::new(cfg.host_frames);
    let mut p2m = P2mTable::new();
    let ranges = ram.allocate(cfg.vm_pages).expect("fits");
    p2m.map_contiguous(Pfn(0), &ranges).expect("fresh table");
    let mut ctl = BalloonController::new(cfg.min_resident);
    let chunk = chunk.clamp(1, cfg.vm_pages - cfg.min_resident);
    ns_per_call(15, 200, || {
        let took = ctl
            .reclaim_under_pressure(&mut p2m, &mut ram, chunk)
            .expect("above the floor");
        let got = ctl
            .deflate_on_demand(&mut p2m, &mut ram, took)
            .expect("not frozen");
        std::hint::black_box(got);
    }) / (2 * chunk) as f64
}

/// Host nanoseconds per cell note formatted into a disabled log, the
/// cost every untraced run pays at each of the cell's note sites.
fn ns_per_note() -> f64 {
    let mut log = EventLog::disabled();
    let mut id = 0u64;
    let at = SimTime::from_secs(1);
    ns_per_call(15, 100_000, || {
        id += 1;
        log.emit(at, Event::note("cell", format!("vm{id} queued for frames")));
    })
}
