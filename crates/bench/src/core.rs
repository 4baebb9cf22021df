//! Engine-throughput suite behind the `corebench` binary.
//!
//! This module times the *simulator substrate* — the DES hot path and the
//! rh-memory digest machinery — and turns the timings into the headline
//! numbers tracked in `BENCH_core.json` (see PERFORMANCE.md):
//!
//! * `events_per_sec` / `ns_per_event` — self-scheduling event chain
//!   through the one event core (a 4-ary heap with inline payloads);
//! * `digest_frames_per_sec` — full `logical_digest` rehash throughput;
//! * `digest_early_out_ops_per_sec` — `FrameContents::unchanged_since`
//!   probes, the dirty-log check behind incremental saves' dirty-extent
//!   accounting (resume verification compares memory-image captures and
//!   does not use it);
//! * `peak_rss_bytes` — VmHWM of the benchmark process (context, not
//!   gated).
//!
//! Beside the substrate rows, four end-to-end rows run whole simulators:
//! `fleet/steady`, `fleet/campaign` and `cell/steady` per event, and
//! `host/serve` per httperf request on the paper's booted Fig. 7 testbed
//! (the guest page cache and the `PsResource` request path).
//!
//! Every workload runs at a **fixed size** regardless of profile; quick
//! and full runs differ only in sample count, so their per-op numbers are
//! directly comparable and the verify-time regression gate
//! ([`gate_against`]) can diff a `--quick` run against the committed
//! full-profile baseline. Each benchmark reports its **best** (minimum)
//! sample: with deterministic workloads, min-of-N is the least noisy
//! estimator of the true cost.
//!
//! # Examples
//!
//! ```
//! use rh_bench::core::{run_suite, to_json};
//!
//! let results = run_suite(1);
//! let json = to_json(&results, "quick", 1);
//! for r in &results {
//!     assert!(r.ns_per_op() > 0.0);
//!     assert!(json.contains(&format!("\"{}\"", r.name)));
//! }
//! ```

use std::hint::black_box;
use std::time::Instant;

use rh_fleet::sim::FleetEvent;
use rh_guest::fs::FileSet;
use rh_guest::services::ServiceKind;
use rh_memory::contents::FrameContents;
use rh_memory::frame::Pfn;
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_net::httperf::{AccessPattern, HttperfClient};
use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};
use rh_storage::image::logical_digest;
use rh_vmm::config::HostConfig;
use rh_vmm::domain::{DomainId, DomainSpec};
use rh_vmm::harness::HostSim;

/// Events per chain workload.
const CHAIN_EVENTS: u64 = 200_000;
/// Entries queued (every second one stale) per churn workload.
const CHURN_EVENTS: u64 = 50_000;
/// Entries pending throughout the hold workload: fleet-campaign's mean
/// queue depth at 1,000 hosts (a departure per live VM, a crash timer per
/// host).
const HOLD_DEPTH: u32 = 5_280;
/// Events fired per hold workload.
const HOLD_EVENTS: u64 = 200_000;
/// Mean delay of a hold entry, in seconds.
const HOLD_MEAN_DELAY_S: f64 = 900.0;
/// Frames in the digest workload's guest (256 MiB at 4 KiB/frame).
const DIGEST_FRAMES: u64 = 65_536;
/// `unchanged_since` calls per early-out sample.
const EARLY_OUT_CALLS: u64 = 1_000_000;
/// Full digests per rehash sample (keeps each sample ≥ 1 ms so the
/// best-of-N estimate is stable against scheduler jitter).
const DIGEST_REPS: u64 = 8;
/// Hosts in the `fleet/steady` workload (~22k VM arrivals over its
/// horizon; event count measured by an untimed run).
const FLEET_HOSTS: u32 = 300;
/// Simulated serving span of one `host/serve` sample: one serving window
/// of perfbench's host-rejuv cycle.
const SERVE_SPAN: SimDuration = SimDuration::from_secs(60);
/// The web VM of the `host/serve` testbed (the first guest domain).
const WEB: DomainId = DomainId(1);

/// One timed benchmark: its best sample and the work done per sample.
#[derive(Debug, Clone)]
pub struct CoreBenchResult {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Operations performed per sample (events fired, frames hashed, ...).
    pub ops: u64,
    /// What one operation is ("events", "frames", "ops").
    pub unit: &'static str,
    /// Fastest sample, in nanoseconds (floor 1 to keep rates finite).
    pub best_ns: u128,
    /// Samples taken.
    pub samples: u32,
}

impl CoreBenchResult {
    /// Operations per second, from the best sample.
    fn per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.best_ns as f64
    }

    /// Nanoseconds per operation, from the best sample.
    pub fn ns_per_op(&self) -> f64 {
        self.best_ns as f64 / self.ops as f64
    }
}

/// A self-scheduling chain through the event core: the purest
/// back-to-back schedule→pop→dispatch loop every world drives.
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

/// A chain that queues a stale entry ahead of every live one, the shape
/// of a host wake that moved: the world's liveness hook drops every second
/// entry unfired. The event says whether the entry is live.
struct StaleChain {
    remaining: u64,
}

impl World for StaleChain {
    type Event = bool;
    fn handle(&mut self, sched: &mut Scheduler<bool>, _live: bool) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(1), false);
            sched.schedule_in(SimDuration::from_micros(1), true);
        }
    }

    fn is_live(&self, live: &bool) -> bool {
        *live
    }
}

/// The hold model at the fleet's queue depth: every event fired
/// schedules itself again after an Exp(900 s) delay, so the queue keeps
/// [`HOLD_DEPTH`] entries of the fleet's own event type.
struct Hold {
    rng: SimRng,
}

impl Hold {
    fn delay(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(HOLD_MEAN_DELAY_S))
    }
}

impl World for Hold {
    type Event = FleetEvent;
    fn handle(&mut self, sched: &mut Scheduler<FleetEvent>, event: FleetEvent) {
        sched.schedule_in(self.delay(), event);
    }
}

fn chain() -> u64 {
    let mut sim = Simulation::new(Chain {
        remaining: CHAIN_EVENTS,
    });
    sim.scheduler_mut().schedule_in(SimDuration::ZERO, ());
    sim.run_until_idle();
    sim.scheduler().fired()
}

/// Stale-entry churn: [`CHURN_EVENTS`] entries through a [`StaleChain`],
/// so the stale-entry skim stays hot.
fn churn() -> u64 {
    let mut sim = Simulation::new(StaleChain {
        remaining: CHURN_EVENTS / 2 - 1,
    });
    sim.scheduler_mut().schedule_in(SimDuration::ZERO, false);
    sim.scheduler_mut().schedule_in(SimDuration::ZERO, true);
    sim.run_until_idle();
    sim.scheduler().fired()
}

/// [`HOLD_EVENTS`] events through a queue filled to [`HOLD_DEPTH`] (the
/// fill is part of the sample).
fn hold() -> u64 {
    let mut sim = Simulation::new(Hold {
        rng: SimRng::from_seed(2007),
    });
    let (world, sched) = sim.parts_mut();
    for vm in 0..HOLD_DEPTH {
        sched.schedule_in(world.delay(), FleetEvent::Depart { vm });
    }
    for _ in 0..HOLD_EVENTS {
        sim.step();
    }
    sim.scheduler().fired()
}

/// A digest workload shaped like a real guest: mostly pattern-filled
/// extents with a sprinkling of explicit writes.
fn digest_fixture() -> (P2mTable, FrameContents) {
    let mut ram = MachineMemory::new(DIGEST_FRAMES + 4096);
    let mut contents = FrameContents::new();
    let mut p2m = P2mTable::new();
    // Allocate in chunks separated by holes so the table holds several
    // extents and the digest's extent walk is exercised, not just one run.
    let mut ranges = Vec::new();
    let mut holes = Vec::new();
    for _ in 0..8 {
        ranges.extend(ram.allocate(DIGEST_FRAMES / 8).unwrap_or_default());
        holes.extend(ram.allocate(64).unwrap_or_default());
    }
    let _ = ram.release(&holes);
    let mut pfn = 0u64;
    for r in &ranges {
        let _ = p2m.map_contiguous(Pfn(pfn), std::slice::from_ref(r));
        contents.fill_pattern(*r, 0xC0DE ^ pfn);
        pfn += r.count;
    }
    // Explicit writes every 1024th page, overriding the fill pattern.
    for i in (0..DIGEST_FRAMES).step_by(1024) {
        if let Some(mfn) = p2m.lookup(Pfn(i)) {
            contents.write(mfn, 0x5EED_0000 + i);
        }
    }
    (p2m, contents)
}

/// Runs the whole suite, `samples` timed samples per benchmark.
///
/// The workload sizes are fixed; only the sample count varies between
/// quick and full profiles.
pub fn run_suite(samples: u32) -> Vec<CoreBenchResult> {
    let samples = samples.max(1);
    let mut results = Vec::new();
    let mut timed = |name: &str, ops: u64, unit: &'static str, f: &mut dyn FnMut() -> u64| {
        // One untimed warmup settles allocator and cache state.
        black_box(f());
        let mut best = u128::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed().as_nanos());
        }
        results.push(CoreBenchResult {
            name: name.to_string(),
            ops,
            unit,
            best_ns: best.max(1),
            samples,
        });
    };

    timed("engine/chain/heap", CHAIN_EVENTS, "events", &mut || chain());
    timed("engine/churn/heap", CHURN_EVENTS, "events", &mut || churn());
    timed("engine/hold/heap", HOLD_EVENTS, "events", &mut || hold());

    let (p2m, contents) = digest_fixture();
    let frames = p2m.total_pages() * DIGEST_REPS;
    timed("digest/full_rehash", frames, "frames", &mut || {
        let mut acc = 0u64;
        for _ in 0..DIGEST_REPS {
            acc ^= black_box(logical_digest(&p2m, &contents));
        }
        acc
    });
    // `unchanged_since` probes: incremental saves' dirty-extent check.
    let ranges = p2m.machine_ranges();
    let epoch = contents.epoch();
    timed("digest/early_out", EARLY_OUT_CALLS, "ops", &mut || {
        let mut hits = 0u64;
        for _ in 0..EARLY_OUT_CALLS {
            if black_box(contents.unchanged_since(epoch, &ranges)) {
                hits += 1;
            }
        }
        hits
    });

    // A steady-state fleet workload (arrivals, placements, departures,
    // aging crashes across FLEET_HOSTS cells) — the rh-fleet layer's
    // cost on top of the event core. One untimed run counts the events.
    let fleet_events = fleet_steady();
    timed("fleet/steady", fleet_events, "events", &mut || {
        fleet_steady()
    });

    // The same fleet under anti-affinity placement and an in-place warm
    // campaign: every arrival searches the whole fleet for the least-loaded
    // host outside the campaign window, so placement cost dominates.
    let campaign_events = fleet_campaign();
    timed("fleet/campaign", campaign_events, "events", &mut || {
        fleet_campaign()
    });

    // A steady-state serverless cell (function-VM arrivals on one
    // overcommitted host with balloon reclaim and a warm pool) — the
    // rh-cell layer's cost, dominated by real P2M map/unmap traffic.
    let cell_events = cell_steady();
    timed("cell/steady", cell_events, "events", &mut || cell_steady());

    // The paper's Fig. 7 testbed serving httperf: every request crosses
    // the guest page cache and the network `PsResource`. Building and
    // booting the host stay outside the clock, so this row clocks its
    // own samples. The untimed first run counts the requests.
    let requests = host_serve().0;
    let best = (0..samples).map(|_| host_serve().1).min();
    results.push(CoreBenchResult {
        name: "host/serve".to_string(),
        ops: requests,
        unit: "requests",
        best_ns: best.unwrap_or(u128::MAX).max(1),
        samples,
    });
    results
}

/// The booted Fig. 7 testbed: the web VM with its 1 200 × 512 KB corpus
/// warmed into its page cache, 10 ssh VMs, and a 10-client cyclic httperf
/// attached to the web VM.
fn serve_testbed() -> HostSim {
    let corpus = FileSet::new(1_200, 512 * 1024);
    let web = DomainSpec::standard("web", ServiceKind::ApacheWeb).with_files(corpus);
    let cfg = HostConfig::paper_testbed()
        .with_domain(web)
        .with_vms(10, ServiceKind::Ssh)
        .with_trace(false);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim.host_mut().warm_cache(WEB, corpus.files);
    sim.attach_httperf(
        WEB,
        HttperfClient::new(10, corpus.files, AccessPattern::Cyclic),
    );
    sim
}

/// Serves [`SERVE_SPAN`] on a fresh testbed; returns the requests
/// completed and the host nanoseconds the serving took.
fn host_serve() -> (u64, u128) {
    let mut sim = serve_testbed();
    let start = Instant::now();
    sim.run_for(SERVE_SPAN);
    let ns = start.elapsed().as_nanos();
    (sim.host().httperf().map_or(0, HttperfClient::completed), ns)
}

/// One deterministic campaign-free fleet run; returns events fired.
fn fleet_steady() -> u64 {
    let cfg = rh_fleet::config::FleetConfig::datacenter(FLEET_HOSTS);
    let report = rh_fleet::sim::FleetSimulation::new(cfg)
        // lint:allow(unwrap-panic): FleetConfig::datacenter always validates
        .expect("datacenter config is valid")
        .run();
    report.events
}

/// One deterministic anti-affinity fleet run through an in-place warm
/// campaign; returns events fired.
fn fleet_campaign() -> u64 {
    let campaign = rh_fleet::config::CampaignConfig::in_place(
        rh_vmm::config::RebootStrategy::Warm,
        FLEET_HOSTS,
        SimTime::from_secs(1000),
    );
    let cfg = rh_fleet::config::FleetConfig::datacenter(FLEET_HOSTS)
        .with_placement(rh_fleet::placement::PlacementKind::AntiAffinity)
        .with_campaign(campaign);
    let report = rh_fleet::sim::FleetSimulation::new(cfg)
        // lint:allow(unwrap-panic): FleetConfig::datacenter always validates
        .expect("datacenter config is valid")
        .run();
    report.events
}

/// One deterministic cell run (balloon-reclaim at 1.5× overcommit);
/// returns events processed.
fn cell_steady() -> u64 {
    let cfg = rh_cell::CellConfig::steady(rh_cell::ProvisionStrategy::BalloonReclaim, 1.5);
    let report = rh_cell::CellSimulation::new(cfg)
        // lint:allow(unwrap-panic): the steady preset always validates
        .expect("steady cell config is valid")
        .run()
        // lint:allow(unwrap-panic): steady runs cannot fail mid-flight
        .expect("steady cell run completes");
    report.events
}

/// Reads this process's peak resident set size (VmHWM) in bytes.
///
/// Returns 0 when `/proc/self/status` is unavailable (non-Linux), so the
/// field is always present in the JSON but never meaningful off-Linux.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Renders the human-readable summary table.
pub fn render_table(results: &[CoreBenchResult]) -> String {
    let mut out = String::from("## corebench (best of N samples)\n");
    let name_w = results
        .iter()
        .map(|r| r.name.len())
        .chain(["benchmark".len()])
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "{:<name_w$}  {:>12}  {:>14}  {:>12}\n",
        "benchmark", "ops", "per second", "ns/op"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<name_w$}  {:>5} {:>6}  {:>14.0}  {:>12.1}\n",
            r.name,
            r.ops,
            r.unit,
            r.per_sec(),
            r.ns_per_op(),
        ));
    }
    out
}

/// Serializes the suite as the `BENCH_core.json` document (hand-rolled;
/// the schema is documented in PERFORMANCE.md).
pub fn to_json(results: &[CoreBenchResult], profile: &str, samples: u32) -> String {
    let find = |name: &str| results.iter().find(|r| r.name == name);
    let headline_events = find("engine/chain/heap");
    let headline_digest = find("digest/full_rehash");
    let headline_early = find("digest/early_out");
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"rh-corebench/v1\",\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"headline\": {\n");
    out.push_str(&format!(
        "    \"events_per_sec\": {:.1},\n",
        headline_events.map(|r| r.per_sec()).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"ns_per_event\": {:.2},\n",
        headline_events.map(|r| r.ns_per_op()).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"digest_frames_per_sec\": {:.1},\n",
        headline_digest.map(|r| r.per_sec()).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"digest_early_out_ops_per_sec\": {:.1},\n",
        headline_early.map(|r| r.per_sec()).unwrap_or(0.0)
    ));
    out.push_str(&format!("    \"peak_rss_bytes\": {}\n", peak_rss_bytes()));
    out.push_str("  },\n");
    out.push_str("  \"benches\": [\n");
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":\"{}\",\"unit\":\"{}\",\"ops\":{},\"best_ns\":{},\"samples\":{},\"per_sec\":{:.1},\"ns_per_op\":{:.2}}}",
                r.name, r.unit, r.ops, r.best_ns, r.samples, r.per_sec(), r.ns_per_op()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Extracts one benchmark's `per_sec` from a corebench JSON document.
///
/// A minimal fixed-schema scanner, not a JSON parser: it relies on each
/// bench object carrying `"name"` before `"per_sec"`, which [`to_json`]
/// guarantees. Returns `None` if the name or the field is absent.
fn bench_per_sec(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\":\"{name}\"");
    let at = json.find(&needle)?;
    number_after(&json[at..], "\"per_sec\":")
}

/// Extracts a headline field (e.g. `events_per_sec`) from a corebench
/// JSON document.
#[cfg(test)]
fn headline_value(json: &str, field: &str) -> Option<f64> {
    number_after(json, &format!("\"{field}\": "))
}

fn number_after(s: &str, key: &str) -> Option<f64> {
    let at = s.find(key)?;
    let tail = &s[at + key.len()..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The verdict of one gate comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The rendered delta table (one line per compared benchmark).
    pub table: String,
    /// Benchmarks whose throughput dropped more than the tolerance.
    pub regressions: Vec<String>,
}

impl GateReport {
    /// True when no benchmark regressed past the tolerance.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against a baseline `BENCH_core.json`, flagging any
/// benchmark whose throughput dropped by more than `tolerance_pct`.
///
/// Only throughput (`per_sec`) is gated — RSS varies with allocator and
/// kernel version and is tracked as context only. Benchmarks absent from
/// the baseline are reported as `new` and never fail the gate, so adding
/// a benchmark does not require regenerating the baseline in the same
/// commit.
pub fn gate_against(
    current: &[CoreBenchResult],
    baseline_json: &str,
    tolerance_pct: f64,
) -> GateReport {
    let mut table = format!(
        "{:<24}  {:>14}  {:>14}  {:>8}  status\n",
        "benchmark", "baseline/s", "current/s", "delta"
    );
    let mut regressions = Vec::new();
    for r in current {
        let cur = r.per_sec();
        match bench_per_sec(baseline_json, &r.name) {
            Some(base) if base > 0.0 => {
                let delta = (cur - base) / base * 100.0;
                let status = if delta < -tolerance_pct {
                    regressions.push(r.name.clone());
                    "FAIL"
                } else {
                    "ok"
                };
                table.push_str(&format!(
                    "{:<24}  {:>14.0}  {:>14.0}  {:>+7.1}%  {}\n",
                    r.name, base, cur, delta, status
                ));
            }
            _ => {
                table.push_str(&format!(
                    "{:<24}  {:>14}  {:>14.0}  {:>8}  new\n",
                    r.name, "-", cur, "-"
                ));
            }
        }
    }
    GateReport { table, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_results() -> Vec<CoreBenchResult> {
        vec![
            CoreBenchResult {
                name: "engine/chain/heap".into(),
                ops: 1000,
                unit: "events",
                best_ns: 1_000_000,
                samples: 2,
            },
            CoreBenchResult {
                name: "digest/full_rehash".into(),
                ops: 4096,
                unit: "frames",
                best_ns: 2_000_000,
                samples: 2,
            },
        ]
    }

    #[test]
    fn per_sec_and_ns_per_op_are_consistent() {
        let r = &tiny_results()[0];
        // 1000 ops in 1 ms → 1M ops/s, 1000 ns/op.
        assert!((r.per_sec() - 1_000_000.0).abs() < 1e-6);
        assert!((r.ns_per_op() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrips_through_the_scanner() {
        let results = tiny_results();
        let json = to_json(&results, "full", 2);
        for r in &results {
            let got = bench_per_sec(&json, &r.name).expect("bench present");
            assert!((got - r.per_sec()).abs() / r.per_sec() < 1e-3);
        }
        assert!(headline_value(&json, "events_per_sec").is_some());
        assert!(headline_value(&json, "digest_frames_per_sec").is_some());
        assert!(headline_value(&json, "peak_rss_bytes").is_some());
        assert_eq!(bench_per_sec(&json, "no/such/bench"), None);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = to_json(&tiny_results(), "full", 2);
        // Identical run: passes.
        let same = gate_against(&tiny_results(), &baseline, 15.0);
        assert!(same.passed(), "{}", same.table);
        // 10% slower: still passes at 15% tolerance.
        let mut slower = tiny_results();
        slower[0].best_ns = slower[0].best_ns * 110 / 100;
        let ok = gate_against(&slower, &baseline, 15.0);
        assert!(ok.passed(), "{}", ok.table);
        // 30% slower: fails, and names the offender.
        let mut bad = tiny_results();
        bad[0].best_ns = bad[0].best_ns * 143 / 100;
        let fail = gate_against(&bad, &baseline, 15.0);
        assert!(!fail.passed());
        assert_eq!(fail.regressions, vec!["engine/chain/heap".to_string()]);
        assert!(fail.table.contains("FAIL"), "{}", fail.table);
    }

    #[test]
    fn unknown_benchmarks_never_fail_the_gate() {
        let baseline = to_json(&tiny_results(), "full", 2);
        let mut with_new = tiny_results();
        with_new.push(CoreBenchResult {
            name: "brand/new".into(),
            ops: 10,
            unit: "ops",
            best_ns: 10,
            samples: 1,
        });
        let report = gate_against(&with_new, &baseline, 15.0);
        assert!(report.passed(), "{}", report.table);
        assert!(report.table.contains("new"));
    }

    #[test]
    fn suite_runs_at_minimum_size() {
        // Smoke: one sample of every workload completes and fires the
        // advertised number of operations.
        let results = run_suite(1);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"engine/chain/heap"));
        assert!(names.contains(&"engine/churn/heap"));
        assert!(names.contains(&"engine/hold/heap"));
        assert!(names.contains(&"digest/full_rehash"));
        assert!(names.contains(&"digest/early_out"));
        assert!(names.contains(&"fleet/campaign"));
        assert!(names.contains(&"host/serve"));
        for r in &results {
            assert!(r.best_ns >= 1, "{}: zero-time sample", r.name);
            assert!(r.ops > 0, "{}: no work recorded", r.name);
        }
        let table = render_table(&results);
        assert!(table.contains("digest/early_out"));
    }

    #[test]
    fn digest_fixture_is_digestible_and_stable() {
        let (p2m, contents) = digest_fixture();
        assert_eq!(p2m.total_pages(), DIGEST_FRAMES);
        let a = logical_digest(&p2m, &contents);
        let b = logical_digest(&p2m, &contents);
        assert_eq!(a, b, "digest must be deterministic");
        // The untouched fixture always early-outs at its own epoch.
        assert!(contents.unchanged_since(contents.epoch(), &p2m.machine_ranges()));
    }
}
