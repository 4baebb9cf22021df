//! Runs the DESIGN.md ablations at 11 VMs. Accepts `--jobs N` (default 1,
//! 0 = all CPUs).
use rh_bench::cli::{Flag, Run};

fn main() -> std::process::ExitCode {
    let mut run = Run::start("ablations", &[Flag::Jobs]);
    rh_bench::ablations::report(&mut run);
    run.finish()
}
