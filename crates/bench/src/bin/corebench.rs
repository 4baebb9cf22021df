//! Engine-throughput suite with a committed baseline and a regression
//! gate (`cargo run --release -p rh-bench --bin corebench`).
//!
//! Times the DES hot path and the rh-memory digest machinery (see
//! [`rh_bench::core`] and PERFORMANCE.md), prints a summary table to
//! stdout, and optionally:
//!
//! * `--json PATH` — writes the `BENCH_core.json` document to `PATH`
//!   (`-` for stdout);
//! * `--gate BASELINE` — diffs this run against a committed baseline and
//!   exits 1 if any benchmark's throughput dropped more than the
//!   tolerance;
//! * `--tolerance PCT` — gate tolerance in percent (default 15);
//! * `--quick` — 5 samples per benchmark (verify-time profile);
//! * `--iters N` — explicit sample count (default 10, the full profile).
//!
//! Workload sizes never change with the profile, so a `--quick` run is
//! directly comparable against the committed full-profile baseline.

use std::process::ExitCode;

use rh_bench::core::{gate_against, render_table, run_suite, to_json};

const USAGE: &str =
    "usage: corebench [--iters N] [--quick] [--json PATH] [--gate BASELINE] [--tolerance PCT]";

struct Options {
    samples: u32,
    profile: &'static str,
    json: Option<String>,
    gate: Option<String>,
    tolerance: f64,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        samples: 10,
        profile: "full",
        json: None,
        gate: None,
        tolerance: 15.0,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value; {USAGE}"))
        };
        match arg.as_str() {
            "--iters" => {
                opts.samples = value("--iters")?
                    .parse()
                    .map_err(|_| format!("--iters: not a number; {USAGE}"))?;
                if opts.samples == 0 {
                    return Err(format!("--iters must be at least 1; {USAGE}"));
                }
            }
            "--quick" => {
                opts.samples = 5;
                opts.profile = "quick";
            }
            "--json" => opts.json = Some(value("--json")?),
            "--gate" => opts.gate = Some(value("--gate")?),
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| format!("--tolerance: not a number; {USAGE}"))?;
                if opts.tolerance.is_nan() || opts.tolerance <= 0.0 {
                    return Err(format!("--tolerance must be positive; {USAGE}"));
                }
            }
            other => return Err(format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("corebench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "corebench: {} profile, {} samples per benchmark",
        opts.profile, opts.samples
    );
    let results = run_suite(opts.samples);
    print!("{}", render_table(&results));

    if let Some(path) = &opts.json {
        let json = to_json(&results, opts.profile, opts.samples);
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("corebench: cannot write {path}: {e}");
            return ExitCode::from(2);
        } else {
            eprintln!("corebench: wrote {path}");
        }
    }

    if let Some(baseline_path) = &opts.gate {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("corebench: cannot read baseline {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = gate_against(&results, &baseline, opts.tolerance);
        println!(
            "## bench gate vs {baseline_path} (tolerance {}%)",
            opts.tolerance
        );
        print!("{}", report.table);
        if !report.passed() {
            eprintln!(
                "corebench: throughput regression beyond {}%: {}",
                opts.tolerance,
                report.regressions.join(", ")
            );
            return ExitCode::FAILURE;
        }
        println!("bench gate: ok");
    }
    ExitCode::SUCCESS
}
