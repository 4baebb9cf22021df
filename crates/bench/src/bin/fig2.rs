//! Renders Figure 2: the timing interaction between OS and VMM
//! rejuvenation under the warm (a) and cold (b) semantics.
use rh_bench::cli::Run;
use rh_rejuv::policy::{render_timeline, TimeBasedPolicy};
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::domain::DomainId;

fn main() -> std::process::ExitCode {
    let run = Run::start("fig2", &[]);
    let policy = TimeBasedPolicy::paper();
    let guests: Vec<DomainId> = (1..=3).map(DomainId).collect();
    let horizon = SimDuration::from_secs(8 * 7 * 24 * 3600);
    let tick = SimDuration::from_secs(7 * 24 * 3600);
    println!("fig2(a): warm-VM reboot — OS rejuvenation keeps its weekly cadence");
    let warm = policy.schedule(&guests, SimTime::ZERO, horizon, false);
    println!("{}", render_timeline(&warm, &guests, horizon, tick));
    println!("fig2(b): cold-VM reboot — the VMM rejuvenation resets every OS timer");
    let cold = policy.schedule(&guests, SimTime::ZERO, horizon, true);
    println!("{}", render_timeline(&cold, &guests, horizon, tick));
    println!("(columns are weeks; V = VMM rejuvenation, O = OS rejuvenation)");
    run.finish()
}
