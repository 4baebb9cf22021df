//! `host-rejuv`: the paper's Fig. 7 testbed, rejuvenated by every strategy.
//!
//! A 12 GiB `HostConfig::paper_testbed()` runs one Apache VM serving a
//! page-cache-warmed corpus to a closed-loop httperf with 10 clients, plus
//! 10 ssh VMs. One repetition cycles through `RebootStrategy::ALL`, each
//! reboot followed by a serving window. It is the only workload on the
//! general engine, `PsResource`, the guest page cache and the digest paths.

use std::collections::HashMap;

use rh_guest::fs::FileSet;
use rh_guest::services::ServiceKind;
use rh_net::httperf::{AccessPattern, HttperfClient};
use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::resource::PsResource;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::{HostConfig, RebootStrategy};
use rh_vmm::domain::{DomainId, DomainSpec};
use rh_vmm::harness::HostSim;

use crate::report::{ns_per_call, op_s, set_up, Clock, LayerRow, Layers, Rep};
use crate::Scale;

/// httperf clients in the closed loop (the paper's Fig. 7 load).
const CLIENTS: usize = 10;
/// ssh VMs beside the web VM (11 VMs in all, as in Fig. 6–7).
const SSH_VMS: u32 = 10;
/// The web VM is the first guest domain.
const WEB: DomainId = DomainId(1);

/// The paper's Fig. 6 ssh downtimes at n = 11, in seconds
/// (EXPERIMENTS.md): the reference the model's error is printed against.
const PAPER_FIG6_SSH: [(RebootStrategy, f64); 3] = [
    (RebootStrategy::Warm, 42.0),
    (RebootStrategy::Saved, 429.0),
    (RebootStrategy::Cold, 157.0),
];

/// Web corpus for the 1 GiB web VM: 1 200 × 512 KB, which fits its page
/// cache, so warming it during set-up makes every request a cache hit.
fn corpus() -> FileSet {
    FileSet::new(1_200, 512 * 1024)
}

/// Simulated serving window after each reboot.
fn serve_window(scale: Scale) -> SimDuration {
    match scale {
        Scale::Full => SimDuration::from_secs(60),
        Scale::Tiny => SimDuration::from_secs(5),
    }
}

/// The set-up: build, power on, warm the web cache, attach httperf.
fn setup(seed: u64) -> HostSim {
    let web = DomainSpec::standard("web", ServiceKind::ApacheWeb).with_files(corpus());
    let cfg = HostConfig::paper_testbed()
        .with_domain(web)
        .with_vms(SSH_VMS, ServiceKind::Ssh)
        .with_trace(false)
        .with_seed(seed);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim.host_mut().warm_cache(WEB, corpus().files);
    sim.attach_httperf(
        WEB,
        HttperfClient::new(CLIENTS, corpus().files, AccessPattern::Cyclic),
    );
    sim
}

/// Simulated counters a repetition reads from the host's public outputs.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    requests: u64,
    digest_full: u64,
    digest_early_out: u64,
    engine_events: u64,
    disk_jobs: u64,
}

fn counts(sim: &mut HostSim) -> Counts {
    let engine_events = sim.simulation_mut().scheduler().fired();
    let host = sim.host();
    Counts {
        requests: host.httperf().map_or(0, HttperfClient::completed),
        digest_full: host.stats.counter("digest.full_rehash"),
        digest_early_out: host.stats.counter("digest.early_out"),
        engine_events,
        disk_jobs: host.disk().completed_reads() + host.disk().completed_writes(),
    }
}

fn delta(after: Counts, before: Counts) -> Counts {
    Counts {
        requests: after.requests - before.requests,
        digest_full: after.digest_full - before.digest_full,
        digest_early_out: after.digest_early_out - before.digest_early_out,
        engine_events: after.engine_events - before.engine_events,
        disk_jobs: after.disk_jobs - before.disk_jobs,
    }
}

/// One timed cycle: every strategy, each followed by a serving window.
/// Operations alternate reboot, window, reboot, window, ...
fn cycle(sim: &mut HostSim, window: SimDuration, setup_s: Vec<f64>) -> Rep {
    let mut clock = Clock::new();
    let mut failed = 0;
    let mut outputs = String::new();
    let mut mean_s = HashMap::new();
    for strategy in RebootStrategy::ALL {
        let errors_before = sim.host().errors().len();
        let report = clock.time(|| sim.reboot_and_wait(strategy));
        let intact = report.corrupted.is_empty() || strategy == RebootStrategy::Cold;
        let up = sim.host().all_services_up();
        let quiet = sim.host().errors().len() == errors_before;
        let mut ok = intact && up && quiet;
        let mean = report.mean_downtime();
        let ssh: Vec<f64> = report
            .downtime
            .iter()
            .filter(|(id, _)| **id != WEB)
            .map(|(_, d)| d.as_secs_f64())
            .collect();
        mean_s.insert(
            strategy,
            (
                mean.as_secs_f64(),
                ssh.iter().sum::<f64>() / ssh.len().max(1) as f64,
            ),
        );
        if strategy == RebootStrategy::Cold {
            // The paper's ordering, checked once all three are known.
            let m = |s| mean_s.get(&s).map_or(f64::NAN, |(all, _)| *all);
            ok &= m(RebootStrategy::Warm) < m(RebootStrategy::Cold)
                && m(RebootStrategy::Cold) < m(RebootStrategy::Saved);
        }
        failed += u64::from(!ok);
        outputs.push_str(&format!(
            "{strategy}: mean_us {} max_us {} corrupted {} cold-booted {} ok {ok}\n",
            mean.as_micros(),
            report.max_downtime().as_micros(),
            report.corrupted.len(),
            report.cold_booted.len()
        ));
        clock.time(|| sim.run_for(window));
    }
    let latencies = sim.host().request_latencies();
    let us = |p| latencies.percentile(p).map_or(0, |d| d.as_micros());
    outputs.push_str(&format!(
        "requests {} latency p50_us {} p99_us {} end_us {}\n",
        sim.host().httperf().map_or(0, HttperfClient::completed),
        us(50.0),
        us(99.0),
        sim.now().as_micros()
    ));
    let ssh_err: Vec<String> = PAPER_FIG6_SSH
        .iter()
        .map(|(s, paper)| {
            let ours = mean_s.get(s).map_or(f64::NAN, |(_, ssh)| *ssh);
            format!(
                "{s} {ours:.1} s vs {paper} s ({:+.1} %)",
                100.0 * (ours - paper) / paper
            )
        })
        .collect();
    outputs.push_str(&format!("fig6 ssh n=11 error: {}\n", ssh_err.join(", ")));
    Rep {
        setup_s,
        clock,
        ops: RebootStrategy::ALL.len() as u64,
        failed,
        outputs,
    }
}

fn strategy_metric(s: RebootStrategy) -> &'static str {
    match s {
        RebootStrategy::Warm => "vmm.reboot_s.warm",
        RebootStrategy::Saved => "vmm.reboot_s.saved",
        RebootStrategy::Cold => "vmm.reboot_s.cold",
        RebootStrategy::Streamed => "vmm.reboot_s.streamed",
        RebootStrategy::Incremental => "vmm.reboot_s.incremental",
    }
}

/// Runs one untraced repetition: a fresh set-up, then one timed cycle.
pub fn rep(seed: u64, scale: Scale) -> Rep {
    let (mut sim, setup_s) = set_up(1, || setup(seed));
    cycle(&mut sim, serve_window(scale), setup_s)
}

/// Runs the repetitions with spans around every reboot and serving
/// window, then times each layer the host crosses on inputs shaped like
/// the run.
pub fn traced(seed: u64, scale: Scale, seconds: f64) -> (Vec<Rep>, Layers) {
    let mut last = None;
    let reps = crate::report::repeat(seconds, || {
        let (mut sim, setup_s) = set_up(1, || setup(seed));
        let before = counts(&mut sim);
        let rep = cycle(&mut sim, serve_window(scale), setup_s);
        let done = delta(counts(&mut sim), before);
        last = Some((sim, done));
        rep
    });
    let (sim, c) = last.expect("repeat runs at least once");
    let mut layers = Layers::default();
    for (i, s) in RebootStrategy::ALL.into_iter().enumerate() {
        layers.set(strategy_metric(s), op_s(&reps, 2 * i));
    }
    let windows = RebootStrategy::ALL.len();
    layers.set(
        "vmm.serve_s",
        (0..windows).map(|i| op_s(&reps, 2 * i + 1)).sum(),
    );
    layers.set("net.requests", c.requests as f64);
    layers.set("storage.digest.full", c.digest_full as f64);
    let digests = c.digest_full + c.digest_early_out;
    layers.set(
        "storage.digest.early_out_ratio",
        if digests == 0 {
            0.0
        } else {
            c.digest_early_out as f64 / digests as f64
        },
    );
    layers.set("sim.engine.events", c.engine_events as f64);

    // Digest: one full rehash of each of the run's own images.
    let ids = sim.host().domu_ids();
    let per_image: Vec<f64> = ids
        .iter()
        .map(|&id| {
            ns_per_call(5, 1, || {
                std::hint::black_box(sim.host().domain_digest(id));
            })
        })
        .collect();
    let ns_digest = per_image.iter().sum::<f64>() / per_image.len() as f64;
    layers.row(LayerRow {
        layer: "storage.digest",
        busy_metric: "storage.digest.busy_s",
        count: c.digest_full as f64,
        ns_per_op: ns_digest,
    });
    layers.row(LayerRow {
        layer: "sim.engine",
        busy_metric: "sim.engine.busy_s",
        count: c.engine_events as f64,
        ns_per_op: ns_per_engine_event(),
    });
    // Each request is one job through the network resource shared by
    // the clients; each disk job one job through the disk's resource,
    // shared by at most one stream per domain.
    layers.row(LayerRow {
        layer: "sim.ps (requests)",
        busy_metric: "sim.ps.busy_s",
        count: c.requests as f64,
        ns_per_op: ns_per_ps_job(CLIENTS),
    });
    layers.row(LayerRow {
        layer: "sim.ps (disk jobs)",
        busy_metric: "sim.ps.busy_s",
        count: c.disk_jobs as f64,
        ns_per_op: ns_per_ps_job(ids.len()),
    });
    (reps, layers)
}

/// A self-scheduling chain through the general engine.
struct Chain {
    remaining: u64,
}

impl World for Chain {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _ev: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

/// Host nanoseconds per event of the general engine's dispatch loop.
pub fn ns_per_engine_event() -> f64 {
    const EVENTS: u64 = 200_000;
    ns_per_call(15, 1, || {
        let mut sim = Simulation::new(Chain { remaining: EVENTS });
        sim.scheduler_mut().schedule_in(SimDuration::ZERO, ());
        sim.run_until_idle();
        std::hint::black_box(sim.scheduler().fired());
    }) / EVENTS as f64
}

/// Host nanoseconds to pass one job through a processor-sharing resource
/// that already serves `streams` jobs: submit, find the next completion,
/// take it.
fn ns_per_ps_job(streams: usize) -> f64 {
    const JOBS: u64 = 20_000;
    let mut ps = PsResource::new(1e9);
    let mut now = SimTime::ZERO;
    for _ in 0..streams.saturating_sub(1) {
        ps.submit(now, 1e18);
    }
    ns_per_call(15, JOBS, || {
        ps.submit(now, 1e3);
        now = ps.next_completion(now).expect("a job is in service");
        std::hint::black_box(ps.take_completed(now));
    })
}
