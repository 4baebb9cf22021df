//! The reliability experiment: why rejuvenate at all, and how.
//!
//! The paper motivates rejuvenation with crash failures from software
//! aging (§2) but evaluates only the rejuvenation mechanisms. This
//! experiment closes the loop on our simulated host: under an injected
//! VMM-heap leak, compare three operating modes over the same horizon —
//!
//! * **reactive** — do nothing; the heap exhausts, domain operations fail,
//!   a watchdog crash-reboots the host (cold, with all state lost),
//! * **time-based proactive** — warm-rejuvenate on a fixed cadence,
//! * **adaptive proactive** — warm-rejuvenate only when the trend
//!   detector projects exhaustion (fewest rejuvenations).

//!
//! The **fault sweep** ([`fault_sweep`]) closes a second loop: VMM crash
//! failures arrive as a Poisson process (rh-faults), and the host is
//! recovered either ReHype-style (micro-reboot + salvage) or by cold
//! reboot — producing availability and MTTR curves vs fault rate.

use rh_faults::plan::{FaultKind, FaultPlan, Trigger};
use rh_faults::recovery::{watch_and_recover, RecoveryConfig, RecoveryPolicy};
use rh_faults::Injector;
use rh_guest::services::ServiceKind;
use rh_rejuv::adaptive::{run_adaptive, AdaptivePolicy};
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;
use rh_vmm::harness::{booted_host, HostSim};
use rh_vmm::{DomainId, InjectPoint};

use crate::cli::Run;
use crate::exec::Sweep;

/// Outcome of one operating mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeOutcome {
    /// VMM rejuvenations (or crash recoveries) performed.
    pub rejuvenations: u64,
    /// VMM-level errors observed (heap exhaustion, ...).
    pub vmm_errors: usize,
    /// Total per-service downtime over the horizon (s).
    pub downtime_secs: f64,
}

/// The three modes side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityResult {
    /// Do-nothing-until-it-wedges.
    pub reactive: ModeOutcome,
    /// Fixed-cadence warm rejuvenation.
    pub time_based: ModeOutcome,
    /// Trend-triggered warm rejuvenation.
    pub adaptive: ModeOutcome,
}

const LEAK_PER_TEARDOWN: u64 = 1536 * 1024;
const CHURN: SimDuration = SimDuration::from_secs(600);

fn leaky_host(vms: u32) -> HostSim {
    let mut sim = booted_host(vms, ServiceKind::Ssh);
    sim.host_mut().vmm_mut().leak_per_domain_destroy = LEAK_PER_TEARDOWN;
    sim
}

fn policy() -> AdaptivePolicy {
    AdaptivePolicy {
        sample_interval: SimDuration::from_secs(600),
        lead: SimDuration::from_secs(1800),
        window: 6,
    }
}

fn total_downtime(sim: &HostSim, horizon: SimDuration) -> f64 {
    let end = rh_sim::time::SimTime::ZERO + horizon;
    sim.host()
        .domu_ids()
        .iter()
        .filter_map(|g| sim.host().meter(*g))
        .map(|m| {
            let closed: f64 = m.outages().iter().map(|o| o.duration().as_secs_f64()).sum();
            let open = m
                .down_since()
                .map(|t| end.saturating_duration_since(t).as_secs_f64())
                .unwrap_or(0.0);
            closed + open
        })
        .sum()
}

/// Runs all three modes over `horizon` on `vms`-guest hosts.
pub fn run(vms: u32, horizon: SimDuration) -> ReliabilityResult {
    // Reactive: churn with no policy; when the heap wedges (errors
    // appear), crash-recover, then keep churning.
    let reactive = {
        let mut sim = leaky_host(vms);
        let mut recoveries = 0u64;
        let outcome = run_adaptive(&mut sim, &policy(), CHURN, horizon, false);
        // The control run leaves wedged guests; a watchdog would crash
        // the host. Count one recovery per error burst observed.
        if outcome.vmm_errors > 0 {
            sim.crash_and_recover();
            recoveries += 1;
        }
        ModeOutcome {
            rejuvenations: recoveries,
            vmm_errors: outcome.vmm_errors,
            downtime_secs: total_downtime(&sim, horizon),
        }
    };
    // Time-based: warm-rejuvenate hourly regardless of actual aging —
    // the cadence must out-run the worst-case leak, so it overshoots.
    let time_based = {
        let mut sim = leaky_host(vms);
        let end = horizon;
        let mut elapsed = SimDuration::ZERO;
        let step = SimDuration::from_secs(3600);
        let mut count = 0u64;
        let mut churn_round = 0usize;
        while elapsed + step <= end {
            // Churn within the window.
            let churns = step.as_micros() / CHURN.as_micros();
            for _ in 0..churns {
                let guests = sim.host().domu_ids();
                let victim = guests[churn_round % guests.len()];
                churn_round += 1;
                sim.run_for(CHURN);
                let errors_before = sim.host().errors().len();
                {
                    let (host, sched) = sim.simulation_mut().parts_mut();
                    if !host.reboot_in_progress() {
                        host.os_reboot(sched, victim);
                    }
                }
                sim.run_until(SimDuration::from_secs(600), |h| {
                    h.domain(victim).map(|d| d.service_up()).unwrap_or(false)
                        || h.errors().len() > errors_before
                });
            }
            sim.reboot_and_wait(RebootStrategy::Warm);
            count += 1;
            elapsed += step;
        }
        ModeOutcome {
            rejuvenations: count,
            vmm_errors: sim.host().errors().len(),
            downtime_secs: total_downtime(&sim, horizon),
        }
    };
    // Adaptive: rejuvenate on the trend.
    let adaptive = {
        let mut sim = leaky_host(vms);
        let outcome = run_adaptive(&mut sim, &policy(), CHURN, horizon, true);
        ModeOutcome {
            rejuvenations: outcome.rejuvenations,
            vmm_errors: outcome.vmm_errors,
            downtime_secs: outcome.total_downtime.as_secs_f64(),
        }
    };
    ReliabilityResult {
        reactive,
        time_based,
        adaptive,
    }
}

/// Prints the comparison over a 24 h horizon (6 h under `--quick`).
pub fn report(run: &mut Run) {
    let hours = if run.quick { 6 } else { 24 };
    let horizon = SimDuration::from_secs(hours * 3600);
    if let Some(r) = run.one("reliability", move || self::run(4, horizon)) {
        println!("{}", render(&r));
    }
}

/// Renders the comparison.
pub fn render(r: &ReliabilityResult) -> String {
    let row = |name: &str, m: &ModeOutcome| {
        format!(
            "{name:<12} {:>14} {:>12} {:>16.0}\n",
            m.rejuvenations, m.vmm_errors, m.downtime_secs
        )
    };
    format!(
        "## reliability under an injected VMM heap leak\n\
         mode         rejuvenations   vmm errors   downtime (s)\n{}{}{}",
        row("reactive", &r.reactive),
        row("time-based", &r.time_based),
        row("adaptive", &r.adaptive),
    )
}

/// One point of the fault sweep: a fault rate handled by one recovery
/// policy over the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPointResult {
    /// Mean VMM crash arrivals per hour (Poisson).
    pub rate_per_hour: f64,
    /// How incidents were recovered.
    pub policy: RecoveryPolicy,
    /// Crash incidents that actually arrived within the horizon.
    pub incidents: u64,
    /// Mean time to repair across incidents (s); 0 with no incidents.
    pub mean_mttr_secs: f64,
    /// Fraction of affected guests salvaged with state intact.
    pub salvage_fraction: f64,
    /// Per-service availability over the horizon, in `[0, 1]`.
    pub availability: f64,
}

/// Per-service downtime overlapping the `[start, end]` window (s).
fn downtime_in_window(sim: &HostSim, start: SimTime, end: SimTime) -> f64 {
    sim.host()
        .domu_ids()
        .iter()
        .filter_map(|g| sim.host().meter(*g))
        .map(|m| {
            let closed: f64 = m
                .outages()
                .iter()
                .map(|o| {
                    let s = o.start.max(start);
                    let e = o.end.min(end);
                    if e > s {
                        (e - s).as_secs_f64()
                    } else {
                        0.0
                    }
                })
                .sum();
            let open = m
                .down_since()
                .map(|t| {
                    let s = t.max(start);
                    if end > s {
                        (end - s).as_secs_f64()
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0);
            closed + open
        })
        .sum()
}

/// Runs one fault-sweep point: crashes arrive with exponential gaps of
/// mean `3600 / rate_per_hour` seconds, each recovered under `policy`.
///
/// One in four incidents also corrupts a random frozen guest's memory
/// while the replacement VMM loads (a [`FaultPlan`] armed for the
/// incident), exercising the validation fallback on the micro-reboot
/// path. All randomness — gaps, victims, corruption masks — comes from
/// `rng`, so the point replays identically for a given stream.
fn run_fault_point(
    vms: u32,
    rate_per_hour: f64,
    policy: RecoveryPolicy,
    horizon: SimDuration,
    mut rng: SimRng,
) -> FaultPointResult {
    let mut sim = booted_host(vms, ServiceKind::Ssh);
    let start = sim.now();
    let end = start + horizon;
    let mean_gap_secs = 3600.0 / rate_per_hour;
    let cfg = RecoveryConfig::new(policy);

    let mut incidents = 0u64;
    let mut mttr_total = 0.0f64;
    let mut salvaged = 0u64;
    let mut affected = 0u64;
    loop {
        let gap = SimDuration::from_secs_f64(rng.exponential(mean_gap_secs));
        if sim.now() + gap >= end {
            break;
        }
        sim.run_for(gap);
        let corrupting = rng.chance(0.25);
        if corrupting {
            let victim = DomainId(1 + rng.below(u64::from(vms)) as u32);
            let plan = FaultPlan::new(rng.next_u64()).arm(
                InjectPoint::QuickReload,
                Trigger::Always,
                FaultKind::FrameCorruption(victim),
            );
            sim.host_mut()
                .arm_fault_hook(Box::new(Injector::new(&plan)));
        }
        {
            let (host, sched) = sim.simulation_mut().parts_mut();
            host.fault_vmm_crash(sched);
        }
        let Some(report) = watch_and_recover(&mut sim, &cfg) else {
            break; // unrecoverable within the cap; stop the point
        };
        if corrupting {
            sim.host_mut().disarm_fault_hook();
        }
        incidents += 1;
        mttr_total += report.mttr().as_secs_f64();
        salvaged += report.salvaged.len() as u64;
        affected += (report.salvaged.len() + report.lost.len()) as u64;
    }
    if sim.now() < end {
        sim.run_for(end - sim.now());
    }

    let down = downtime_in_window(&sim, start, end);
    let service_seconds = f64::from(vms) * horizon.as_secs_f64();
    FaultPointResult {
        rate_per_hour,
        policy,
        incidents,
        mean_mttr_secs: if incidents > 0 {
            mttr_total / incidents as f64
        } else {
            0.0
        },
        salvage_fraction: if affected > 0 {
            salvaged as f64 / affected as f64
        } else {
            1.0
        },
        availability: 1.0 - down / service_seconds,
    }
}

/// The fault sweep as executor points: fault rates × both recovery
/// policies. Point `i` sees only stream `i` of `seed`, so the results are
/// byte-identical at any worker count.
pub fn fault_sweep(
    vms: u32,
    rates_per_hour: &[f64],
    horizon: SimDuration,
    seed: u64,
) -> Sweep<FaultPointResult> {
    let mut sweep = Sweep::new(seed);
    for &rate in rates_per_hour {
        for policy in [RecoveryPolicy::Microreboot, RecoveryPolicy::ColdReboot] {
            sweep.point(format!("faults/{rate}per_h/{policy}"), move |rng| {
                run_fault_point(vms, rate, policy, horizon, rng)
            });
        }
    }
    sweep
}

/// Renders the fault sweep as availability/MTTR curves vs fault rate.
pub fn render_fault_sweep(points: &[FaultPointResult], vms: u32, horizon: SimDuration) -> String {
    let mut out = format!(
        "## availability under Poisson VMM crashes ({vms} guests, {:.1} h horizon)\n\
         rate (1/h)   recovery       incidents   mean MTTR (s)   salvaged   availability\n",
        horizon.as_secs_f64() / 3600.0
    );
    for p in points {
        out.push_str(&format!(
            "{:<12.2} {:<14} {:>9} {:>15.1} {:>9.2} {:>14.6}\n",
            p.rate_per_hour,
            p.policy.to_string(),
            p.incidents,
            p.mean_mttr_secs,
            p.salvage_fraction,
            p.availability,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proactive_modes_avoid_errors_reactive_does_not() {
        let r = run(3, SimDuration::from_secs(24 * 3600));
        assert!(r.reactive.vmm_errors > 0, "reactive must hit exhaustion");
        assert_eq!(r.time_based.vmm_errors, 0, "time-based prevents exhaustion");
        assert_eq!(r.adaptive.vmm_errors, 0, "adaptive prevents exhaustion");
        // Adaptive fires no more often than the fixed cadence.
        assert!(r.adaptive.rejuvenations <= r.time_based.rejuvenations);
        assert!(r.adaptive.rejuvenations >= 1);
        // Both proactive modes beat the reactive downtime.
        assert!(r.adaptive.downtime_secs < r.reactive.downtime_secs);
        assert!(r.time_based.downtime_secs < r.reactive.downtime_secs);
        assert!(render(&r).contains("adaptive"));
    }

    #[test]
    fn fault_sweep_is_deterministic_across_worker_counts() {
        let rates = [2.0];
        let horizon = SimDuration::from_secs(2 * 3600);
        let serial = fault_sweep(3, &rates, horizon, 7).run_values(1);
        let parallel = fault_sweep(3, &rates, horizon, 7).run_values(2);
        assert_eq!(serial, parallel, "results must not depend on --jobs");
        assert_eq!(
            render_fault_sweep(&serial, 3, horizon),
            render_fault_sweep(&parallel, 3, horizon)
        );
    }

    #[test]
    fn microreboot_beats_cold_reboot_on_availability_and_mttr() {
        let points = fault_sweep(3, &[4.0], SimDuration::from_secs(4 * 3600), 2007).run_values(2);
        let warm = points
            .iter()
            .find(|p| p.policy == RecoveryPolicy::Microreboot)
            .expect("warm point");
        let cold = points
            .iter()
            .find(|p| p.policy == RecoveryPolicy::ColdReboot)
            .expect("cold point");
        assert!(warm.incidents > 0, "faults must actually arrive");
        assert!(
            warm.mean_mttr_secs * 2.0 < cold.mean_mttr_secs,
            "warm MTTR {} vs cold {}",
            warm.mean_mttr_secs,
            cold.mean_mttr_secs
        );
        assert!(warm.availability > cold.availability);
        // Micro-reboot salvages most guests; cold reboot salvages none.
        assert!(warm.salvage_fraction > 0.5);
        assert_eq!(cold.salvage_fraction, 0.0);
    }
}
