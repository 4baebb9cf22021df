//! Regenerates §5.2: quick reload vs hardware reset.
use rh_bench::cli::Run;

fn main() -> std::process::ExitCode {
    let mut run = Run::start("sec52", &[]);
    rh_bench::sec52::report(&mut run);
    run.finish()
}
