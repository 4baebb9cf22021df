//! Regenerates Figure 9 / §6: cluster total throughput under rejuvenation.
use rh_bench::cli::Run;
use rh_sim::time::{SimDuration, SimTime};

fn main() -> std::process::ExitCode {
    let mut run = Run::start("fig9", &[]);
    if let Some(r) = rh_bench::fig9::report(&mut run) {
        let (at, horizon) = (SimTime::from_secs(600), SimDuration::from_secs(3600));
        let m = rh_cluster::migration::MigrationModel::paper();
        for (name, series) in [
            ("warm", r.scenario.warm_series(at, horizon)),
            ("cold", r.scenario.cold_series(at, horizon)),
            ("migration", r.scenario.migration_series(&m, at, horizon)),
        ] {
            println!("{name} series CSV:\n{}", series.to_csv());
        }
    }
    run.finish()
}
