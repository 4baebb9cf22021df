//! Regenerates Figure 8: file-read and web throughput before/after reboot.
use rh_bench::cli::Run;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fig8", &[]);
    rh_bench::fig8::report(&mut run);
    run.finish()
}
