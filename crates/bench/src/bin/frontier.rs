//! Regenerates the five-strategy frontier (DESIGN.md §15): downtime vs
//! post-reboot degradation across memory size × disk bandwidth × locality.
//!
//! Flags:
//!
//! * `--jobs N` — sweep workers (default 1, 0 = all CPUs). Stdout is
//!   byte-identical for every worker count (the verify.sh gate).
//! * `--quick` — 1 GiB VMs only (smoke grid).
//! * `--json PATH` — machine-readable run record (same hardened format as
//!   `BENCH_repro.json`); `-` disables. Default off.

use rh_bench::cli::{Flag, Run};
use rh_bench::frontier;
use rh_vmm::config::RebootStrategy;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("frontier", &[Flag::Jobs, Flag::Quick, Flag::Json(None)]);
    let rows = run.sweep(frontier::sweep_points(&frontier::grid(run.quick)));
    println!("{}", frontier::render(&rows));
    // Headline: every strategy's downtime at 1 GiB on the 85 MB/s disk.
    for r in rows
        .iter()
        .filter(|r| r.cell.mem_gib == 1 && r.cell.disk_mbps == 85)
    {
        let suffix = if r.cell.strategy == RebootStrategy::Streamed {
            format!("_loc{:.2}", r.cell.locality)
        } else {
            String::new()
        };
        run.headline(
            format!("frontier_{}{suffix}_downtime_s", r.cell.strategy),
            r.downtime_s,
        );
    }
    run.finish()
}
