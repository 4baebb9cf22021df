//! Regenerates every table and figure in one run (EXPERIMENTS.md source).
//!
//! Flags:
//!
//! * `--jobs N` — workers for the sweep executor (default 1; 0 = all CPUs).
//!   Output on stdout is byte-identical for every worker count
//!   (DESIGN.md §10).
//! * `--max-n N` — cap the swept VM count / memory size (default 11, the
//!   paper's range). Smaller values make smoke runs fast.
//! * `--quick` — reduced fig8 corpus (500 files instead of 10 000) and a
//!   6 h reliability horizon instead of 24 h.
//! * `--json PATH` — machine-readable run record (per-point wall time +
//!   per-phase wall spans + headline figures). Default `BENCH_repro.json`;
//!   `-` disables. Wall times are the only nondeterministic output, and
//!   they go only here, never to stdout.
//! * `--trace-jsonl PATH` — dump the typed rh-obs event stream of a
//!   canonical 2-domain warm and cold reboot as JSON Lines. Byte-identical
//!   for every `--jobs` count (the traced reboots run through the same
//!   deterministic executor).
//!
//! Exits 2 on a usage error, including a `--max-n` whose guests do not
//! fit the 12 GiB testbed, and 1 when any point fails.

use std::time::{Duration, Instant};

use rh_bench::exec::{self, PointResult, Sweep, DEFAULT_SEED};
use rh_guest::services::ServiceKind;
use rh_vmm::config::{HostConfig, RebootStrategy};

const USAGE: &str =
    "usage: all [--jobs N] [--max-n N] [--quick] [--json PATH] [--trace-jsonl PATH]";

struct Options {
    jobs: usize,
    max_n: u32,
    quick: bool,
    json: Option<String>,
    trace_jsonl: Option<String>,
}

impl Options {
    fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options {
            jobs: 1,
            max_n: 11,
            quick: false,
            json: Some("BENCH_repro.json".to_string()),
            trace_jsonl: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value; {USAGE}"))
            };
            match arg.as_str() {
                "--jobs" => opts.jobs = exec::parse_jobs(&value("--jobs")?)?,
                "--max-n" => {
                    opts.max_n = value("--max-n")?
                        .parse()
                        .map_err(|_| format!("--max-n: not a number; {USAGE}"))?;
                    if opts.max_n == 0 {
                        return Err(format!("--max-n must be at least 1; {USAGE}"));
                    }
                    // The largest shape the sweeps boot: max_n 1 GiB
                    // guests (fig4's one max_n GiB guest needs the same).
                    // Built one guest at a time, so a huge value stops at
                    // the first guest that does not fit.
                    let mut widest = HostConfig::paper_testbed();
                    for _ in 0..opts.max_n {
                        widest = widest.with_vms(1, ServiceKind::Ssh);
                        widest.validate().map_err(|e| {
                            format!("--max-n {} does not fit the 12 GiB host: {e}", opts.max_n)
                        })?;
                    }
                }
                "--quick" => opts.quick = true,
                "--json" => {
                    let path = value("--json")?;
                    opts.json = if path == "-" { None } else { Some(path) };
                }
                "--trace-jsonl" => opts.trace_jsonl = Some(value("--trace-jsonl")?),
                other => return Err(format!("unknown argument {other:?}; {USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// One executed point's record for BENCH_repro.json.
struct Record {
    name: String,
    wall: Duration,
    profile: rh_obs::WallProfile,
    ok: bool,
}

/// Appends every point's wall time to `records` and prints failed points
/// to stdout (deterministically).
fn record<T>(records: &mut Vec<Record>, results: &[PointResult<T>]) {
    for r in results {
        records.push(Record {
            name: r.name.clone(),
            wall: r.wall,
            profile: r.profile.clone(),
            ok: r.outcome.is_ok(),
        });
        if let Err(e) = &r.outcome {
            println!("!! point {:?} failed: {e}\n", r.name);
        }
    }
}

/// Runs a sweep, records every point, and returns the successful values in
/// submission order.
fn run_sweep<T: Send + 'static>(records: &mut Vec<Record>, sweep: Sweep<T>, jobs: usize) -> Vec<T> {
    let mut results = sweep.run(jobs);
    record(records, &results);
    results.drain(..).filter_map(|r| r.into_value()).collect()
}

/// Runs a non-sweep experiment as a single named point so its wall time
/// still lands in the run record.
fn one<T: Send + 'static>(
    records: &mut Vec<Record>,
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    sweep.point(name, move |_rng| f());
    run_sweep(records, sweep, 1).pop()
}

fn write_repro_json(
    path: &str,
    opts: &Options,
    records: &[Record],
    headline: &[(String, f64)],
    total: Duration,
) {
    // The shared emitter hardens the document (escaped names, NaN→null);
    // rh_bench::json::tests prove whole-file validity for hostile inputs.
    let points: Vec<rh_bench::json::ReproPoint> = records
        .iter()
        .map(|r| rh_bench::json::ReproPoint {
            name: r.name.clone(),
            wall_ms: r.wall.as_secs_f64() * 1e3,
            spans: r
                .profile
                .spans()
                .iter()
                .map(|s| (s.label.clone(), s.elapsed.as_secs_f64() * 1e3))
                .collect(),
            ok: r.ok,
        })
        .collect();
    let json = rh_bench::json::repro_document(
        &[
            ("jobs", opts.jobs.to_string()),
            ("max_n", opts.max_n.to_string()),
            ("quick", opts.quick.to_string()),
        ],
        total.as_secs_f64() * 1e3,
        &points,
        headline,
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("all: failed to write {path}: {e}");
    }
}

fn main() {
    let opts = match Options::from_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("all: {e}");
            std::process::exit(2);
        }
    };
    let total = Instant::now();
    let mut records: Vec<Record> = Vec::new();
    let mut headline: Vec<(String, f64)> = Vec::new();
    let jobs = opts.jobs;
    let max_n = opts.max_n;
    // Failures reported inside a point that itself completed.
    let mut failed_inside = 0;

    println!("RootHammer-RS: full reproduction run\n=====================================\n");

    let rows = run_sweep(
        &mut records,
        rh_bench::fig45::fig4_sweep(1..=u64::from(max_n)),
        jobs,
    );
    println!(
        "{}",
        rh_bench::fig45::render("fig4: task times vs memory size (1 VM, GiB)", "GiB", &rows)
    );
    let rows = run_sweep(&mut records, rh_bench::fig45::fig5_sweep(1..=max_n), jobs);
    println!(
        "{}",
        rh_bench::fig45::render("fig5: task times vs number of VMs (1 GiB each)", "n", &rows)
    );

    if let Some(r) = one(&mut records, "sec52", rh_bench::sec52::run) {
        println!("{}", rh_bench::sec52::render(&r));
        headline.push(("sec52_saving_s".to_string(), r.saving()));
    }

    let ssh = run_sweep(
        &mut records,
        rh_bench::fig6::sweep_points(ServiceKind::Ssh, 1..=max_n),
        jobs,
    );
    println!(
        "{}",
        rh_bench::fig6::render("fig6a: ssh downtime (s)", &ssh)
    );
    if let Some(last) = ssh.last() {
        let fates = rh_bench::fig6::session_fates(last, 60);
        println!(
            "ssh session with 60 s client timeout at n={}: warm {}, saved {}, cold {}\n",
            last.n, fates.warm, fates.saved, fates.cold
        );
        headline.push((format!("fig6a_warm_downtime_s_at_{}vms", last.n), last.warm));
        headline.push((
            format!("fig6a_saved_downtime_s_at_{}vms", last.n),
            last.saved,
        ));
        headline.push((format!("fig6a_cold_downtime_s_at_{}vms", last.n), last.cold));
    }
    let jboss = run_sweep(
        &mut records,
        rh_bench::fig6::sweep_points(ServiceKind::Jboss, 1..=max_n),
        jobs,
    );
    println!(
        "{}",
        rh_bench::fig6::render("fig6b: JBoss downtime (s)", &jboss)
    );

    if let Some(r) = one(&mut records, "sec53", rh_bench::sec53::run) {
        println!("{}", rh_bench::sec53::render(&r));
    }

    let mut fig7 = Sweep::new(DEFAULT_SEED);
    for strategy in [RebootStrategy::Warm, RebootStrategy::Cold] {
        fig7.point(format!("fig7/{strategy}"), move |_rng| {
            rh_bench::fig7::run(strategy)
        });
    }
    for trace in run_sweep(&mut records, fig7, jobs) {
        match trace {
            Ok(t) => println!("{}", rh_bench::fig7::render_phases(&t)),
            Err(e) => {
                println!("!! fig7 trace failed: {e}\n");
                failed_inside += 1;
            }
        }
    }

    let web_files = if opts.quick { 500 } else { 10_000 };
    let mut fig8 = Sweep::new(DEFAULT_SEED);
    for strategy in [RebootStrategy::Warm, RebootStrategy::Cold] {
        fig8.point(format!("fig8/{strategy}"), move |_rng| {
            rh_bench::fig8::run(strategy, web_files)
        });
    }
    for r in run_sweep(&mut records, fig8, jobs) {
        println!("{}", rh_bench::fig8::render(&r));
        if r.strategy == RebootStrategy::Cold {
            headline.push((
                "fig8_cold_file_read_degradation".to_string(),
                r.file_read.degradation(),
            ));
            headline.push(("fig8_cold_web_degradation".to_string(), r.web.degradation()));
        }
    }

    let points = run_sweep(&mut records, rh_bench::sec56::sweep_points(1..=max_n), jobs);
    match rh_bench::sec56::fit_points(&points) {
        Ok(r) => {
            println!("{}", rh_bench::sec56::render(&r));
            headline.push((
                format!("sec56_saving_s_at_{max_n}vms_alpha05"),
                r.fitted.saving(f64::from(max_n), 0.5),
            ));
        }
        Err(e) => {
            println!("!! sec56 model fit failed: {e}\n");
            failed_inside += 1;
        }
    }

    if let Some(r) = one(&mut records, "fig9", move || {
        rh_bench::fig9::run(4, 215.0, max_n)
    }) {
        println!("{}", rh_bench::fig9::render(&r));
    }

    let suspend_results = rh_bench::ablations::suspend_order_points(max_n).run(jobs);
    record(&mut records, &suspend_results);
    let suspend_value = |i: usize| {
        suspend_results
            .get(i)
            .and_then(|r| r.value().copied())
            .unwrap_or(f64::NAN)
    };
    let suspend = rh_bench::ablations::SuspendOrderResult {
        paper_order: suspend_value(0),
        xen_order: suspend_value(1),
    };
    match one(
        &mut records,
        "ablations/reservation-order",
        rh_bench::ablations::reservation_order,
    ) {
        Some(Ok(r)) => println!("{}", rh_bench::ablations::render(&suspend, &r)),
        Some(Err(e)) => {
            println!("!! reservation-order ablation failed: {e}\n");
            failed_inside += 1;
        }
        None => {}
    }
    let drivers = run_sweep(
        &mut records,
        rh_bench::ablations::driver_domain_points(max_n, 2.min(max_n - 1)),
        jobs,
    );
    let mut d = rh_bench::ablations::DriverDomainResult {
        ordinary_downtime: Vec::new(),
        driver_downtime: Vec::new(),
    };
    for (k, ord, drv) in drivers {
        d.ordinary_downtime.push((k, ord));
        d.driver_downtime.push((k, drv));
    }
    println!("{}", rh_bench::ablations::render_driver_domains(&d));

    let horizon_secs = if opts.quick { 6 * 3600 } else { 24 * 3600 };
    if let Some(rel) = one(&mut records, "reliability", move || {
        rh_bench::reliability::run(4, rh_sim::time::SimDuration::from_secs(horizon_secs))
    }) {
        println!("{}", rh_bench::reliability::render(&rel));
    }

    if let Some(path) = &opts.trace_jsonl {
        // Typed event streams of a canonical warm and cold reboot, dumped
        // as JSON Lines. Runs through the executor so any `--jobs` count
        // produces byte-identical output (the verify.sh determinism gate).
        let mut sweep = Sweep::new(DEFAULT_SEED);
        for strategy in [RebootStrategy::Warm, RebootStrategy::Cold] {
            sweep.point(format!("trace/{strategy}"), move |_rng| {
                let mut sim = rh_vmm::harness::booted_host(2, ServiceKind::Ssh);
                sim.reboot_and_wait(strategy);
                sim.host().trace.to_jsonl()
            });
        }
        let logs = run_sweep(&mut records, sweep, jobs);
        if let Err(e) = std::fs::write(path, logs.concat()) {
            eprintln!("all: failed to write {path}: {e}");
        }
    }

    if let Some(path) = &opts.json {
        write_repro_json(path, &opts, &records, &headline, total.elapsed());
    }
    let failed = failed_inside + records.iter().filter(|r| !r.ok).count();
    if failed > 0 {
        eprintln!("all: {failed} failed (see the !! lines above)");
        std::process::exit(1);
    }
}
