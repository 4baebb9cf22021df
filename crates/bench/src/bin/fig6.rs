//! Regenerates Figure 6: service downtime per strategy (ssh and JBoss).
//! Accepts `--jobs N` (default 1, 0 = all CPUs).
use rh_bench::cli::{Flag, Run};

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fig6", &[Flag::Jobs]);
    rh_bench::fig6::report(&mut run);
    run.finish()
}
