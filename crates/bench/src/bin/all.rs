//! Regenerates every table and figure in one run (EXPERIMENTS.md source).
//!
//! Flags:
//!
//! * `--jobs N` — workers for the sweep executor (default 1; 0 = all CPUs).
//!   Output on stdout is byte-identical for every worker count
//!   (DESIGN.md §10).
//! * `--max-n N` — cap the swept VM count / memory size (default 11, the
//!   paper's range; at least 2, the two VM counts §5.6's model fit needs).
//!   Smaller values make smoke runs fast.
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
//! Exits 2 on a usage error, including a `--max-n` below 2 or one whose
//! guests do not fit the 12 GiB testbed, and 1 when any point fails or an
//! output file cannot be written.

use std::process::ExitCode;

use rh_bench::cli::{Flag, Run};
use rh_bench::{ablations, fig45, fig6, fig7, fig8, fig9, reliability, sec52, sec53, sec56};

fn main() -> ExitCode {
    let mut run = Run::start(
        "all",
        &[
            Flag::Jobs,
            Flag::MaxN,
            Flag::Quick,
            Flag::Json(Some("BENCH_repro.json")),
            Flag::TraceJsonl,
        ],
    );
    println!("RootHammer-RS: full reproduction run\n=====================================\n");
    fig45::report_fig4(&mut run);
    fig45::report_fig5(&mut run);
    sec52::report(&mut run);
    fig6::report(&mut run);
    sec53::report(&mut run);
    fig7::report(&mut run, false);
    fig8::report(&mut run);
    sec56::report(&mut run);
    fig9::report(&mut run);
    ablations::report(&mut run);
    reliability::report(&mut run);
    fig7::traces(&mut run);
    run.finish()
}
