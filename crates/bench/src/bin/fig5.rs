//! Regenerates Figure 5: pre/post-reboot task times vs number of VMs.
//! Accepts `--jobs N` (default 1, 0 = all CPUs).
use rh_bench::cli::{Flag, Run};

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fig5", &[Flag::Jobs]);
    rh_bench::fig45::report_fig5(&mut run);
    run.finish()
}
