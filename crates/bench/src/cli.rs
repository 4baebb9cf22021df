//! One front end for the experiment binaries.
//!
//! Every rh-bench binary except `corebench` starts with [`Run::start`],
//! which parses exactly the flags that binary accepts, and ends with
//! [`Run::finish`]. In between, each experiment module's `report` runs its
//! sweeps through [`Run::sweep`] and `Run::one` and prints its section,
//! so `all` is the ordered list of those calls and each per-figure binary
//! is one of them. The contract every binary shares:
//!
//! * a usage error prints `{bin}: {message}` on stderr and exits 2;
//! * a failed point, trace, fit or ablation prints a `!! …` line on
//!   stdout, the run goes on, and the exit status is 1;
//! * wall times go only to the `--json` run record, never to stdout, so
//!   stdout is byte-identical at every `--jobs` count (DESIGN.md §10).

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rh_guest::services::ServiceKind;
use rh_vmm::config::HostConfig;

use crate::exec::{self, Sweep, DEFAULT_SEED};
use crate::json::{self, ReproPoint};

/// A flag a binary accepts. Binaries list theirs in this order, which is
/// the order of the usage line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--jobs N`: sweep workers (default 1; 0 = all CPUs).
    Jobs,
    /// `--max-n N`: the largest swept VM count and memory size (default
    /// 11, the paper's range): at least 2, since §5.6's model fit needs two
    /// VM counts, and N 1 GiB guests must fit the 12 GiB testbed.
    MaxN,
    /// `--quick`: the experiment's smaller smoke configuration.
    Quick,
    /// `--json PATH`: write the run record there; `-` disables it. Carries
    /// the default path (`None`: no record unless asked for).
    Json(Option<&'static str>),
    /// `--trace-jsonl PATH`: dump the typed event streams of a canonical
    /// warm and cold reboot there ([`crate::fig7::traces`]).
    TraceJsonl,
}

impl Flag {
    /// The flag's spelling and its value's placeholder, if it takes one.
    fn spelling(self) -> (&'static str, Option<&'static str>) {
        match self {
            Flag::Jobs => ("--jobs", Some("N")),
            Flag::MaxN => ("--max-n", Some("N")),
            Flag::Quick => ("--quick", None),
            Flag::Json(_) => ("--json", Some("PATH")),
            Flag::TraceJsonl => ("--trace-jsonl", Some("PATH")),
        }
    }
}

/// One binary's run: its parsed flags, the record of every point it ran,
/// its headline figures and its failure count.
#[derive(Debug)]
pub struct Run {
    bin: &'static str,
    /// Sweep workers (`--jobs`, default 1).
    pub(crate) jobs: usize,
    /// The largest swept VM count and memory size (`--max-n`, default 11).
    pub(crate) max_n: u32,
    /// Run the smaller smoke configuration (`--quick`).
    pub quick: bool,
    /// Where to dump the canonical reboots' JSON Lines (`--trace-jsonl`).
    pub(crate) trace_jsonl: Option<String>,
    json: Option<String>,
    accepts_max_n: bool,
    start: Instant,
    points: Vec<ReproPoint>,
    headline: Vec<(String, f64)>,
    failed: usize,
}

impl Run {
    /// Parses the process arguments against `flags`, the flags `bin`
    /// accepts. A usage error prints `{bin}: {message}` and exits 2.
    pub fn start(bin: &'static str, flags: &[Flag]) -> Run {
        Run::parse(bin, flags, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2)
        })
    }

    fn parse(
        bin: &'static str,
        flags: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Run, String> {
        let mut usage = format!("usage: {bin}");
        for flag in flags {
            let _ = match flag.spelling() {
                (name, Some(value)) => write!(usage, " [{name} {value}]"),
                (name, None) => write!(usage, " [{name}]"),
            };
        }
        let mut run = Run {
            bin,
            jobs: 1,
            max_n: 11,
            quick: false,
            trace_jsonl: None,
            json: flags.iter().find_map(|flag| match flag {
                Flag::Json(default) => default.map(str::to_string),
                _ => None,
            }),
            accepts_max_n: flags.contains(&Flag::MaxN),
            start: Instant::now(),
            points: Vec::new(),
            headline: Vec::new(),
            failed: 0,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&flag) = flags.iter().find(|flag| flag.spelling().0 == arg) else {
                return Err(format!("unknown argument {arg:?}; {usage}"));
            };
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{arg} requires a value; {usage}"))
            };
            match flag {
                Flag::Jobs => run.jobs = exec::parse_jobs(&value()?)?,
                Flag::MaxN => run.max_n = parse_max_n(&value()?, &usage)?,
                Flag::Quick => run.quick = true,
                Flag::Json(_) => run.json = Some(value()?).filter(|path| path != "-"),
                Flag::TraceJsonl => run.trace_jsonl = Some(value()?),
            }
        }
        run.start = Instant::now();
        Ok(run)
    }

    /// Runs `sweep` across `--jobs` workers and records every point. A
    /// failed point prints `!! point "…" failed: …` and fails the run; the
    /// other points' values come back in submission order.
    pub fn sweep<T: Send + 'static>(&mut self, sweep: Sweep<T>) -> Vec<T> {
        let mut values = Vec::new();
        for r in sweep.run(self.jobs) {
            self.points.push(ReproPoint {
                name: r.name.clone(),
                wall_ms: ms(r.wall),
                spans: r
                    .profile
                    .spans()
                    .iter()
                    .map(|s| (s.label.clone(), ms(s.elapsed)))
                    .collect(),
                ok: r.outcome.is_ok(),
            });
            match r.outcome {
                Ok(value) => values.push(value),
                Err(e) => self.fail(format!("point {:?} failed: {e}", r.name)),
            }
        }
        values
    }

    /// Runs a non-sweep experiment as the single point `name`, so its
    /// wall time lands in the run record too. `None` when it failed.
    pub(crate) fn one<T: Send + 'static>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Option<T> {
        let mut sweep = Sweep::new(DEFAULT_SEED);
        sweep.point(name, move |_rng| f());
        self.sweep(sweep).pop()
    }

    /// Reports a failure: prints `!! {what}` on stdout and fails the run.
    pub(crate) fn fail(&mut self, what: impl Display) {
        println!("!! {what}\n");
        self.failed += 1;
    }

    /// Adds a figure to the run record's headline.
    pub fn headline(&mut self, name: impl Into<String>, value: f64) {
        self.headline.push((name.into(), value));
    }

    /// Writes an output file; a failure is reported on stderr and fails
    /// the run.
    pub(crate) fn write(&mut self, path: &str, contents: impl AsRef<[u8]>) {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("{}: failed to write {path}: {e}", self.bin);
            self.failed += 1;
        }
    }

    /// Writes the `--json` run record, if one is asked for, and returns
    /// the exit status: 1 when anything failed, with the count on stderr.
    pub fn finish(mut self) -> ExitCode {
        if let Some(path) = self.json.take() {
            let mut config = vec![("jobs", self.jobs.to_string())];
            if self.accepts_max_n {
                config.push(("max_n", self.max_n.to_string()));
            }
            config.push(("quick", self.quick.to_string()));
            let total = ms(self.start.elapsed());
            let doc = json::repro_document(&config, total, &self.points, &self.headline);
            self.write(&path, doc);
        }
        let (bin, failed) = (self.bin, self.failed);
        if failed == 0 {
            return ExitCode::SUCCESS;
        }
        eprintln!("{bin}: {failed} failed (see the !! lines above)");
        ExitCode::FAILURE
    }
}

/// Parses a `--max-n` value: at least 2, and no more 1 GiB guests than the
/// 12 GiB testbed holds.
fn parse_max_n(value: &str, usage: &str) -> Result<u32, String> {
    let max_n: u32 = value
        .parse()
        .map_err(|_| format!("--max-n: not a number; {usage}"))?;
    if max_n < 2 {
        return Err(format!(
            "--max-n must be at least 2: sec56 fits its model over 1..=N VMs \
             and needs two VM counts; {usage}"
        ));
    }
    // The largest shape the sweeps boot: max_n 1 GiB guests (fig4's one
    // max_n GiB guest needs the same). Built one guest at a time, so a
    // huge value stops at the first guest that does not fit.
    let mut widest = HostConfig::paper_testbed();
    for _ in 0..max_n {
        widest = widest.with_vms(1, ServiceKind::Ssh);
        widest
            .validate()
            .map_err(|e| format!("--max-n {max_n} does not fit the 12 GiB host: {e}"))?;
    }
    Ok(max_n)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
impl Run {
    /// A run at `jobs` workers and every other flag's default, for the
    /// reports' unit tests.
    pub(crate) fn for_tests(jobs: usize) -> Run {
        let run = Run::parse("test", &[], []).unwrap();
        Run { jobs, ..run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[Flag] = &[
        Flag::Jobs,
        Flag::MaxN,
        Flag::Quick,
        Flag::Json(Some("BENCH_repro.json")),
        Flag::TraceJsonl,
    ];
    const ALL_USAGE: &str =
        "usage: all [--jobs N] [--max-n N] [--quick] [--json PATH] [--trace-jsonl PATH]";
    const GRID: &[Flag] = &[Flag::Jobs, Flag::Quick, Flag::Json(None)];

    fn parse(bin: &'static str, flags: &[Flag], args: &str) -> Result<Run, String> {
        Run::parse(bin, flags, args.split_whitespace().map(String::from))
    }

    /// Runs `body` on `bin`'s run with `--json` at a scratch path, and
    /// returns the exit status and the parsed record.
    fn recorded(
        bin: &'static str,
        flags: &[Flag],
        body: impl FnOnce(&mut Run),
    ) -> (ExitCode, json::Value) {
        let path =
            std::env::temp_dir().join(format!("rh-bench-cli-{}-{bin}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let mut run = parse(bin, flags, &format!("--json {path}")).unwrap();
        body(&mut run);
        let status = run.finish();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        (status, doc)
    }

    fn values(run: &Run) -> (usize, u32, bool, Option<&str>, Option<&str>) {
        let (json, trace) = (run.json.as_deref(), run.trace_jsonl.as_deref());
        (run.jobs, run.max_n, run.quick, json, trace)
    }

    #[test]
    fn defaults_and_values() {
        let run = parse("all", ALL, "").unwrap();
        assert_eq!(values(&run), (1, 11, false, Some("BENCH_repro.json"), None));
        let run = parse(
            "all",
            ALL,
            "--jobs 3 --max-n 4 --quick --json - --trace-jsonl t",
        )
        .unwrap();
        assert_eq!(values(&run), (3, 4, true, None, Some("t")));
        let run = parse("frontier", GRID, "").unwrap();
        assert_eq!(values(&run), (1, 11, false, None, None));
        let run = parse("frontier", GRID, "--json f.json").unwrap();
        assert_eq!(run.json.as_deref(), Some("f.json"));
    }

    #[test]
    fn usage_errors_are_exact() {
        for (args, message) in [
            (
                "--bogus",
                "unknown argument \"--bogus\"; usage: fig4 [--jobs N]",
            ),
            ("--jobs", "--jobs requires a value; usage: fig4 [--jobs N]"),
            (
                "--jobs x",
                "--jobs: expected a non-negative integer, got \"x\"",
            ),
        ] {
            assert_eq!(parse("fig4", &[Flag::Jobs], args).unwrap_err(), message);
        }
        let err = parse("fig7", &[], "--jobs 2").unwrap_err();
        assert_eq!(err, "unknown argument \"--jobs\"; usage: fig7");
        let err = parse("all", ALL, "--quick --trace-jsonl").unwrap_err();
        assert_eq!(err, format!("--trace-jsonl requires a value; {ALL_USAGE}"));
    }

    #[test]
    fn max_n_must_fit_the_testbed() {
        for too_few in ["0", "1"] {
            let err = parse("all", ALL, &format!("--max-n {too_few}")).unwrap_err();
            let why = "--max-n must be at least 2: sec56 fits its model over 1..=N VMs \
                       and needs two VM counts";
            assert_eq!(err, format!("{why}; {ALL_USAGE}"));
        }
        for too_many in ["12", "4294967295"] {
            let err = parse("all", ALL, &format!("--max-n {too_many}")).unwrap_err();
            let fit = format!("--max-n {too_many} does not fit the 12 GiB host: ");
            assert!(err.starts_with(&fit), "{err}");
        }
        for fits in [2, 11] {
            let run = parse("all", ALL, &format!("--max-n {fits}")).unwrap();
            assert_eq!(run.max_n, fits);
        }
    }

    #[test]
    fn a_failed_point_is_recorded_and_fails_the_run() {
        let (status, doc) = recorded("frontier", GRID, |run| {
            let mut sweep = Sweep::new(DEFAULT_SEED);
            sweep.point("good", |_rng| 1u32);
            sweep.point("bad", |_rng| -> u32 { panic!("injected failure") });
            assert_eq!(run.sweep(sweep), [1]);
            assert_eq!(run.one("single", || 7u32), Some(7));
        });
        assert_eq!(status, ExitCode::FAILURE);
        let Some(json::Value::Array(points)) = doc.get("points") else {
            panic!("no points in {doc:?}");
        };
        let got: Vec<_> = points
            .iter()
            .map(|p| (p.get("name"), p.get("ok")))
            .collect();
        let want = |name: &str, ok| (json::Value::String(name.into()), json::Value::Bool(ok));
        let want = [want("good", true), want("bad", false), want("single", true)];
        assert_eq!(
            got,
            want.iter()
                .map(|(n, ok)| (Some(n), Some(ok)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_record_holds_max_n_only_where_the_flag_is_accepted() {
        for (bin, flags, has_max_n) in [("all", ALL, true), ("cellbench", GRID, false)] {
            let (status, doc) = recorded(bin, flags, |run| run.headline("answer", 42.0));
            assert_eq!(status, ExitCode::SUCCESS);
            assert_eq!(doc.get("max_n").is_some(), has_max_n, "{bin}");
            for key in ["jobs", "quick", "total_wall_ms", "points"] {
                assert!(doc.get(key).is_some(), "{bin}: no {key}");
            }
            let answer = doc.get("headline").and_then(|h| h.get("answer"));
            assert_eq!(answer, Some(&json::Value::Number(42.0)));
        }
    }
}
