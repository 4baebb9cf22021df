//! perfbench: end-to-end and per-layer host-time benchmark of the three
//! simulators.
//!
//! ```text
//! perfbench --workload <host-rejuv|fleet-campaign|cell-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds` of host time and
//! prints the end-to-end metrics. With `--trace 1` it first runs the same
//! workload and seed untraced in a child process, then runs it traced and
//! prints the per-layer breakdown. The last line of standard output is
//! always one JSON object. See README.md beside this crate.

use std::process::{Command, ExitCode};

mod cell;
mod fleet;
mod host;
mod report;

use report::{fingerprint, json_line, peak_rss_mb, Layers, Rep, END_TO_END, PER_LAYER};

/// The seed the pinned references below were taken at.
const DEFAULT_SEED: u64 = 2007;

/// Fingerprints of each workload's simulated outputs at [`DEFAULT_SEED`]
/// and full scale. A change that drifts the model breaks them.
const PINNED: [(&str, u64); 3] = [
    ("host-rejuv", 0x84bb_ee9e_78c4_f6dd),
    ("fleet-campaign", 0x1f1b_a09a_d64f_92d6),
    ("cell-churn", 0x8eed_b56d_5045_c9ee),
];

/// Workload size: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small sizes that run in about a second.
    Tiny,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.scale = Scale::Tiny;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !PINNED.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!(
            "--workload {:?}: must be one of host-rejuv, fleet-campaign, cell-churn",
            args.workload
        ));
    }
    Ok(args)
}

fn run_reps(args: &Args) -> Vec<Rep> {
    let (seed, scale) = (args.seed, args.scale);
    report::repeat(args.seconds, || match args.workload.as_str() {
        "host-rejuv" => host::rep(seed, scale),
        "fleet-campaign" => fleet::rep(seed, scale),
        _ => cell::rep(seed, scale),
    })
}

fn run_traced(args: &Args) -> (Vec<Rep>, Layers) {
    let (seed, scale, seconds) = (args.seed, args.scale, args.seconds);
    match args.workload.as_str() {
        "host-rejuv" => host::traced(seed, scale, seconds),
        "fleet-campaign" => fleet::traced(seed, scale, seconds),
        _ => cell::traced(seed, scale, seconds),
    }
}

/// What every run checks and prints about its repetitions.
struct Checked {
    attempted: u64,
    failed: u64,
    correct: bool,
    fingerprint: u64,
    wall_s: f64,
    setup_s: f64,
}

/// Checks the repetitions: each one's own correctness checks, identical
/// simulated outputs across repetitions, and at the default seed the
/// pinned reference. Prints the outputs and the failure ratio.
fn check(args: &Args, reps: &[Rep]) -> Checked {
    let first = &reps[0].outputs;
    let mut failed = 0;
    for r in reps {
        // A repetition that drifted from the first fails every operation.
        failed += if r.outputs == *first { r.failed } else { r.ops };
    }
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let fp = fingerprint(first);
    print!("{first}");
    println!("fingerprint {fp:016x}");
    let mut correct = failed == 0;
    if args.seed == DEFAULT_SEED && args.scale == Scale::Full {
        let pinned = PINNED
            .iter()
            .find(|(w, _)| *w == args.workload)
            .map_or(0, |p| p.1);
        let matches = pinned == fp;
        println!(
            "reference at seed {DEFAULT_SEED}: pinned {pinned:016x}, {}",
            if matches { "match" } else { "MISMATCH" }
        );
        correct &= matches;
    }
    println!(
        "fail_ratio {} (failed {failed} of ops {attempted}, over {} repetitions)",
        failed as f64 / attempted as f64,
        reps.len()
    );
    for i in 0..reps[0].clock.op_s.len() {
        let raw: Vec<f64> = reps.iter().map(|r| r.clock.raw_s[i]).collect();
        println!(
            "op {i}: {:.6} s normalized; raw {:.6} s fastest, {:.6} s slowest",
            report::op_s(reps, i),
            raw.iter().copied().fold(f64::INFINITY, f64::min),
            raw.iter().copied().fold(0.0, f64::max)
        );
    }
    let kernel: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.clock.kernel_s.iter().copied())
        .collect();
    println!(
        "reference kernel: {:.6} s median over {} samples ({} s nominal)",
        report::median(&kernel),
        kernel.len(),
        report::KERNEL_S
    );
    Checked {
        attempted,
        failed,
        correct,
        fingerprint: fp,
        wall_s: report::wall_s(reps),
        setup_s: report::setup_s(reps),
    }
}

fn untraced(args: &Args) -> String {
    let reps = run_reps(args);
    let c = check(args, &reps);
    let values = [c.wall_s, c.setup_s, peak_rss_mb()];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (*name, v, *unit))
        .collect();
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    json_line(c.correct, c.attempted, c.failed, &metrics)
}

/// The same workload and seed, untraced, in a child process: returns its
/// fingerprint, `wall_s` and verdict.
fn untraced_child(args: &Args) -> Result<(u64, f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"]);
    if args.scale == Scale::Tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |prefix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(str::to_owned)
    };
    let fp = field("fingerprint ")
        .and_then(|v| u64::from_str_radix(&v, 16).ok())
        .ok_or("untraced run printed no fingerprint")?;
    let wall = field("metric wall_s ")
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse().ok()))
        .ok_or("untraced run printed no wall_s")?;
    let correct = text
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"correct\": true"));
    Ok((fp, wall, correct))
}

fn traced(args: &Args) -> Result<String, String> {
    let (child_fp, untraced_wall, child_ok) = untraced_child(args)?;
    let (reps, mut layers) = run_traced(args);
    let c = check(args, &reps);
    let same = c.fingerprint == child_fp;
    println!(
        "traced outputs {} untraced outputs ({:016x} vs {child_fp:016x})",
        if same { "equal" } else { "DIFFER FROM" },
        c.fingerprint
    );
    let overhead = c.wall_s - untraced_wall;
    println!(
        "bench.trace_overhead_s {overhead} s (traced wall {} s − untraced wall {untraced_wall} s)",
        c.wall_s
    );
    layers.set("bench.trace_overhead_s", overhead);
    layers.set("bench.unexplained_s", untraced_wall - layers.busy_total());
    print!("{}", layers.render(untraced_wall));
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            (
                *name,
                layers.values.get(name).copied().unwrap_or(0.0),
                *unit,
            )
        })
        .collect();
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    Ok(json_line(
        c.correct && child_ok && same,
        c.attempted,
        c.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} scale {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale
    );
    let line = if args.trace {
        match traced(&args) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        untraced(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
