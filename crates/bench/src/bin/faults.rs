//! Availability and MTTR vs VMM fault rate: ReHype-style micro-reboot
//! recovery against cold-reboot-on-failure, under Poisson crash
//! arrivals. Deterministic at any `--jobs` worker count.
//!
//! Usage: `faults [--jobs N] [--quick]`
use rh_bench::cli::{Flag, Run};
use rh_bench::exec::DEFAULT_SEED;
use rh_bench::reliability::{fault_sweep, render_fault_sweep};
use rh_sim::time::SimDuration;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("faults", &[Flag::Jobs, Flag::Quick]);
    let (vms, rates, horizon): (u32, &[f64], SimDuration) = if run.quick {
        (3, &[1.0, 4.0], SimDuration::from_secs(2 * 3600))
    } else {
        (4, &[0.5, 1.0, 2.0, 4.0], SimDuration::from_secs(6 * 3600))
    };
    let points = run.sweep(fault_sweep(vms, rates, horizon, DEFAULT_SEED));
    print!("{}", render_fault_sweep(&points, vms, horizon));
    run.finish()
}
