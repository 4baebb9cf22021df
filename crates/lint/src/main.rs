//! The `rh-lint` command-line entry point.
//!
//! ```text
//! rh-lint [--check] [--json]      lint the workspace against the baseline
//! rh-lint --update-baseline       ratchet the baseline to current counts
//! rh-lint protocol [--domains N] [--exec-bytes N] [--buggy] [--json]
//!                  [--faults [--unsafe-recovery]]
//!                  [--jobs N] [--max-states N] [--no-reduce]
//! rh-lint fleet    [--hosts N] [--max-down N] [--crashes N]
//!                  [--driver serial|wave|buggy-overlap]
//!                  [--jobs N] [--max-states N] [--json]
//! rh-lint postcopy [--domains N] [--pages N] [--working-set N] [--buggy]
//!                  [--no-torn] [--jobs N] [--max-states N] [--no-reduce]
//!                  [--json]
//! rh-lint balloon  [--domains N] [--pages N] [--buggy] [--buggy-deflate]
//!                  [--jobs N] [--max-states N] [--no-reduce] [--json]
//! ```
//!
//! Exit codes: 0 clean, 1 findings/violations, 2 usage or internal error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use rh_lint::balloon::{self, BalloonConfig};
use rh_lint::diagnostics::violation_json;
use rh_lint::explore::{Options as ExploreOptions, Run};
use rh_lint::fleet::{self, DriverKind, FleetConfig};
use rh_lint::postcopy::{self, PostcopyConfig};
use rh_lint::protocol::{self, ProtocolConfig};
use rh_lint::walk::find_workspace_root;
use rh_lint::{lint_workspace, update_baseline};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("protocol") => run_protocol(&args[1..]),
        Some("fleet") => run_fleet(&args[1..]),
        Some("postcopy") => run_postcopy(&args[1..]),
        Some("balloon") => run_balloon(&args[1..]),
        _ => run_lint(&args),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("rh-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    find_workspace_root(&cwd).ok_or_else(|| {
        "no workspace root (Cargo.toml with [workspace]) above the current directory".to_string()
    })
}

fn run_lint(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut update = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--update-baseline" => update = true,
            "--check" => {}
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see crates/lint/src/main.rs)"
                ))
            }
        }
    }
    let root = workspace_root()?;
    let outcome = if update {
        let o = update_baseline(&root)?;
        eprintln!(
            "baseline updated: {} finding(s) across {} file(s)",
            o.report.diagnostics.len(),
            o.files_scanned
        );
        o
    } else {
        lint_workspace(&root)?
    };
    if json {
        println!("{}", outcome.regressed_diagnostics().to_json());
    } else if outcome.passed() {
        println!(
            "rh-lint: clean — {} file(s), {} baseline-covered finding(s), 0 new",
            outcome.files_scanned,
            outcome.report.diagnostics.len()
        );
        for imp in &outcome.comparison.improvements {
            println!(
                "  ratchet hint: {} in {} is down to {} (baseline {}) — run --update-baseline",
                imp.rule, imp.file, imp.current, imp.baseline
            );
        }
    } else {
        let regressed = outcome.regressed_diagnostics();
        print!("{}", regressed.render_table());
        println!();
        for r in &outcome.comparison.regressions {
            println!(
                "FAIL {} in {}: {} finding(s), baseline {}",
                r.rule, r.file, r.current, r.baseline
            );
        }
        println!(
            "\nfix the new violation(s), add a `// lint:allow(rule): reason`, or — for \
             pre-existing debt only — re-baseline with --update-baseline"
        );
    }
    Ok(outcome.passed())
}

fn run_protocol(args: &[String]) -> Result<bool, String> {
    let mut cfg = ProtocolConfig::default();
    let (opts, json) = checker_flags("protocol", args, |flag, flags, opts| {
        match flag {
            "--domains" => cfg.domains = flags.u32(flag)?,
            "--exec-bytes" => cfg.exec_bytes = flags.num(flag)?,
            "--no-reduce" => opts.reduce = false,
            "--buggy" => cfg.buggy_reload = true,
            "--faults" => cfg.faults = true,
            "--unsafe-recovery" => cfg.unsafe_recovery = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mode = if opts.reduce { "symmetry+por" } else { "raw" };
    let i5 = if cfg.faults {
        ", I5 recovery-validation"
    } else {
        ""
    };
    Ok(report(
        &protocol::explore(&cfg, &opts)?,
        json,
        &format!("\"domains\":{},\"reduction\":\"{mode}\"", cfg.domains),
        &format!("protocol: {} domain(s)", cfg.domains),
        ("completed_runs", "run"),
        mode,
        &format!(
            "I1 frozen-frames-reserved, I2 digest-preservation, \
             I3 exec-state-bounded, I4 p2m-survives{i5}"
        ),
    ))
}

fn run_fleet(args: &[String]) -> Result<bool, String> {
    let mut cfg = FleetConfig::default();
    let (opts, json) = checker_flags("fleet", args, |flag, flags, _| {
        match flag {
            "--hosts" => cfg.hosts = flags.u32(flag)?,
            "--max-down" => cfg.max_down = flags.u32(flag)?,
            "--crashes" => cfg.max_crashes = flags.u32(flag)?,
            "--driver" => cfg.driver = DriverKind::parse(flags.value(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let driver = cfg.driver;
    Ok(report(
        &fleet::explore(&cfg, &opts)?,
        json,
        &format!(
            "\"hosts\":{},\"max_down\":{},\"crashes\":{},\"driver\":\"{driver}\"",
            cfg.hosts, cfg.max_down, cfg.max_crashes
        ),
        &format!(
            "fleet: {} host(s), max-down {}, {} crash(es)",
            cfg.hosts, cfg.max_down, cfg.max_crashes
        ),
        ("completed_campaigns", "campaign"),
        &driver.to_string(),
        &format!(
            "I6 capacity-floor (>= {} serving), I7 single-recovery",
            cfg.hosts.saturating_sub(cfg.max_down)
        ),
    ))
}

fn run_postcopy(args: &[String]) -> Result<bool, String> {
    let mut cfg = PostcopyConfig::default();
    let (opts, json) = checker_flags("postcopy", args, |flag, flags, opts| {
        match flag {
            "--domains" => cfg.domains = flags.u32(flag)?,
            "--pages" => cfg.pages = flags.u32(flag)?,
            "--working-set" => cfg.working_set = flags.u32(flag)?,
            "--no-reduce" => opts.reduce = false,
            "--buggy" => cfg.buggy_serve = true,
            "--no-torn" => cfg.torn_reads = false,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mode = if opts.reduce { "symmetry+por" } else { "raw" };
    Ok(report(
        &postcopy::explore(&cfg, &opts)?,
        json,
        &format!(
            "\"domains\":{},\"pages\":{},\"working_set\":{},\"reduction\":\"{mode}\"",
            cfg.domains, cfg.pages, cfg.working_set
        ),
        &format!(
            "postcopy: {} domain(s), {} page(s) ({} resident at resume)",
            cfg.domains, cfg.pages, cfg.working_set
        ),
        ("completed_streams", "stream-in"),
        mode,
        "P1 validated-before-serve, P2 validated-content-intact",
    ))
}

fn run_balloon(args: &[String]) -> Result<bool, String> {
    let mut cfg = BalloonConfig::default();
    let (opts, json) = checker_flags("balloon", args, |flag, flags, opts| {
        match flag {
            "--domains" => cfg.domains = flags.u32(flag)?,
            "--pages" => cfg.pages = flags.u32(flag)?,
            "--no-reduce" => opts.reduce = false,
            "--buggy" => cfg.buggy_reclaim = true,
            "--buggy-deflate" => cfg.buggy_deflate = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mode = if opts.reduce { "symmetry+por" } else { "raw" };
    Ok(report(
        &balloon::explore(&cfg, &opts)?,
        json,
        &format!(
            "\"domains\":{},\"pages\":{},\"reduction\":\"{mode}\"",
            cfg.domains, cfg.pages
        ),
        &format!(
            "balloon: {} domain(s), {} page(s) each",
            cfg.domains, cfg.pages
        ),
        ("completed_rounds", "rejuvenation round"),
        mode,
        "I8 frozen-frames-fenced, I9 validated-before-map",
    ))
}

/// The flags after a checker subcommand, read left to right.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The number after `flag`.
    fn num(&mut self, flag: &str) -> Result<u64, String> {
        let arg = self.value(flag)?;
        arg.parse().map_err(|e| format!("{flag} {arg}: {e}"))
    }

    /// The number after `flag`, which must fit a `u32`.
    fn u32(&mut self, flag: &str) -> Result<u32, String> {
        let n = self.num(flag)?;
        u32::try_from(n).map_err(|_| format!("{flag} {n}: too large"))
    }
}

/// Reads a checker subcommand's flags. `--jobs`, `--max-states` and
/// `--json` are read here; `own` reads the subcommand's other flags and
/// returns `Ok(false)` for a flag it does not know.
fn checker_flags(
    name: &str,
    args: &[String],
    mut own: impl FnMut(&str, &mut Flags, &mut ExploreOptions) -> Result<bool, String>,
) -> Result<(ExploreOptions, bool), String> {
    let mut flags = Flags(args.iter());
    let mut opts = ExploreOptions::default();
    let mut json = false;
    while let Some(flag) = flags.0.next() {
        match flag.as_str() {
            "--jobs" => opts.jobs = flags.num(flag)? as usize,
            "--max-states" => opts.max_states = Some(flags.num(flag)?),
            "--json" => json = true,
            other => {
                if !own(other, &mut flags, &mut opts)? {
                    return Err(format!("unknown {name} argument `{other}`"));
                }
            }
        }
    }
    Ok((opts, json))
}

/// Prints a checker's [`Run`] and returns whether it passed.
///
/// With `--json` it prints one object: the `config` keys, the counts (the
/// goal count under `goal.0`) and the violation. Otherwise it prints the
/// summary line, which opens with `shape`, counts goals as `goal.1` and
/// closes with `[tag]`, then either the `invariants` every interleaving
/// satisfies or the counterexample.
fn report<E>(
    run: &Run<E>,
    json: bool,
    config: &str,
    shape: &str,
    goal: (&str, &str),
    tag: &str,
    invariants: &str,
) -> bool {
    let (states, transitions, completed) = (run.states, run.transitions, run.completed);
    if json {
        let violation = run.violation.as_ref().map_or("null".to_string(), |v| {
            violation_json(&v.invariant, &v.detail, &v.trace)
        });
        println!(
            "{{{config},\"states\":{states},\"transitions\":{transitions},\"{}\":{completed},\"violation\":{violation}}}",
            goal.0
        );
    } else {
        println!(
            "{shape}, {states} state(s), {transitions} transition(s), {completed} completed {}(s) [{tag}]",
            goal.1
        );
        match &run.violation {
            None => println!("all interleavings satisfy {invariants}"),
            Some(v) => print!("{v}"),
        }
    }
    run.passed()
}
