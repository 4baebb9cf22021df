//! Runs the reliability experiment: reactive vs time-based vs adaptive
//! rejuvenation under an injected VMM heap leak.
use rh_bench::cli::Run;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("reliability", &[]);
    rh_bench::reliability::report(&mut run);
    run.finish()
}
