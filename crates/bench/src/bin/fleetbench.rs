//! Datacenter fleet sweep: placement × campaign × fleet size, reporting
//! the SLA ledger of each combination (see `rh_bench::fleet`).
//!
//! Flags:
//!
//! * `--jobs N` — sweep workers (default 1, 0 = all CPUs). Stdout is
//!   byte-identical for every worker count (the verify.sh gate).
//! * `--quick` — 200-host smoke grid on a short horizon.
//! * `--json PATH` — machine-readable run record (same hardened format as
//!   `BENCH_repro.json`); `-` disables. Default off.

use rh_bench::cli::{Flag, Run};
use rh_bench::fleet;
use rh_fleet::config::CampaignMode;
use rh_fleet::placement::PlacementKind;
use rh_vmm::config::RebootStrategy;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fleetbench", &[Flag::Jobs, Flag::Quick, Flag::Json(None)]);
    let rows = run.sweep(fleet::sweep_points(&fleet::grid(run.quick)));
    println!("{}", fleet::render(&rows));
    // Headline: the acceptance contrast at the smallest full-grid size (or
    // the quick grid's 200 hosts) — anti-affinity+streamed vs
    // first-fit+cold SLA violation seconds.
    let size = rows.iter().map(|r| r.cell.hosts).min().unwrap_or(0);
    for r in rows.iter().filter(|r| {
        r.cell.hosts == size
            && r.cell.mode == CampaignMode::InPlace
            && ((r.cell.placement == PlacementKind::FirstFit
                && r.cell.strategy == RebootStrategy::Cold)
                || (r.cell.placement == PlacementKind::AntiAffinity
                    && r.cell.strategy == RebootStrategy::Streamed))
    }) {
        run.headline(
            format!(
                "fleet_{}h_{}_{}_sla_violation_s",
                r.cell.hosts, r.cell.placement, r.cell.strategy
            ),
            r.sla_violation_s,
        );
    }
    run.finish()
}
