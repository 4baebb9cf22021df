//! Serverless-cell sweep: arrival load × overcommit × provisioning
//! strategy, reporting cold-start percentiles and the memory ledger of
//! each combination (see `rh_bench::cell`).
//!
//! Flags:
//!
//! * `--jobs N` — sweep workers (default 1, 0 = all CPUs). Stdout is
//!   byte-identical for every worker count (the verify.sh gate).
//! * `--quick` — six-point smoke grid on a 600 s horizon.
//! * `--json PATH` — machine-readable run record (same hardened format as
//!   `BENCH_repro.json`); `-` disables. Default off.

use rh_bench::cell;
use rh_bench::cli::{Flag, Run};
use rh_cell::ProvisionStrategy;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("cellbench", &[Flag::Jobs, Flag::Quick, Flag::Json(None)]);
    let rows = run.sweep(cell::sweep_points(&cell::grid(run.quick)));
    println!("{}", cell::render(&rows));
    // Headline: the acceptance contrast at the highest swept load — P99
    // cold-start of cold re-provision vs balloon-reclaim at 1.5×
    // overcommit (milliseconds).
    let load = rows.iter().map(|r| r.cell.load).fold(0.0, f64::max);
    for r in rows.iter().filter(|r| {
        // Grid cells carry exact literal constants, so a plain equality on
        // the 1.5x column would be sound — but the float-eq lint is right
        // that drift would be silent, so match with a tolerance well under
        // the grid spacing.
        r.cell.load == load
            && (r.cell.overcommit - 1.5).abs() < 0.01
            && (r.cell.strategy == ProvisionStrategy::Cold
                || r.cell.strategy == ProvisionStrategy::BalloonReclaim)
    }) {
        run.headline(
            format!("cell_1.5x_{}_p99_cold_start_ms", r.cell.strategy),
            r.p99.as_secs_f64() * 1e3,
        );
    }
    run.finish()
}
