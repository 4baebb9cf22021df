//! Regenerates §5.6: least-squares extraction of the downtime model.
//! Accepts `--jobs N` (default 1, 0 = all CPUs).
use rh_bench::cli::{Flag, Run};

fn main() -> std::process::ExitCode {
    let mut run = Run::start("sec56", &[Flag::Jobs]);
    rh_bench::sec56::report(&mut run);
    run.finish()
}
