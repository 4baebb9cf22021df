//! Regenerates Figure 4: pre/post-reboot task times vs VM memory size.
//! Accepts `--jobs N` (default 1, 0 = all CPUs).
use rh_bench::cli::{Flag, Run};

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fig4", &[Flag::Jobs]);
    rh_bench::fig45::report_fig4(&mut run);
    run.finish()
}
