//! Regenerates Figure 7: reboot phase breakdown + web throughput trace.
use rh_bench::cli::Run;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fig7", &[]);
    rh_bench::fig7::report(&mut run, true);
    run.finish()
}
