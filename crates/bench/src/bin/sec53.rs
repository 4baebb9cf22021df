//! Regenerates §5.3: availability comparison.
use rh_bench::cli::Run;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("sec53", &[]);
    rh_bench::sec53::report(&mut run);
    run.finish()
}
