//! Adaptive (measurement-based) rejuvenation.
//!
//! Time-based rejuvenation (paper §3.2, Fig. 2) fires on a fixed cadence
//! whether or not the VMM has actually aged. The methodology the paper
//! cites for the alternative — estimating resource-exhaustion trends and
//! acting on them (Garg et al., the paper's reference 13) — is implemented here:
//! sample the VMM heap, fit the depletion trend with [`AgingDetector`],
//! and trigger a warm-VM reboot only when projected exhaustion falls
//! within a configurable lead time.
//!
//! Because the warm-VM reboot is cheap (≈40 s instead of minutes), the
//! adaptive policy can afford tight lead times without hurting
//! availability — one more way the paper's mechanism changes the policy
//! calculus.

use rh_sim::time::SimDuration;
use rh_vmm::config::RebootStrategy;
use rh_vmm::harness::HostSim;

use crate::aging::AgingDetector;

/// Parameters of the adaptive policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// How often the VMM heap is sampled.
    pub sample_interval: SimDuration,
    /// Rejuvenate when projected exhaustion falls within this lead time.
    pub lead: SimDuration,
    /// Sliding-window size of the trend estimator.
    pub window: usize,
}

/// What an adaptive run did and observed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Heap samples taken.
    pub samples: u64,
    /// Warm rejuvenations triggered by the detector.
    pub rejuvenations: u64,
    /// VMM errors observed (heap exhaustion, ...). Zero when the policy
    /// does its job.
    pub vmm_errors: usize,
    /// Lowest free-heap level ever observed (bytes).
    pub min_free_heap: u64,
    /// Total per-service downtime accrued over the horizon.
    pub total_downtime: SimDuration,
}

/// Runs the adaptive policy for `horizon`, with background "churn": every
/// `churn_interval` one guest OS is rejuvenated in rotation (each teardown
/// exercising whatever heap leak is injected on the host).
///
/// Pass `act = false` for the control arm: the detector still watches but
/// never triggers, demonstrating what aging does unchecked.
///
/// # Panics
///
/// Panics if the host has no guests.
pub fn run_adaptive(
    sim: &mut HostSim,
    policy: &AdaptivePolicy,
    churn_interval: SimDuration,
    horizon: SimDuration,
    act: bool,
) -> AdaptiveOutcome {
    let guests = sim.host().domu_ids();
    assert!(!guests.is_empty(), "adaptive policy needs guests");
    let start = sim.now();
    let end = start + horizon;
    let mut detector = AgingDetector::new(policy.window);
    let mut next_sample = start + policy.sample_interval;
    let mut next_churn = start + churn_interval;
    let mut churn_idx = 0usize;
    let mut samples = 0u64;
    let mut rejuvenations = 0u64;
    let mut min_free = u64::MAX;
    loop {
        let at = next_sample.min(next_churn);
        if at > end {
            break;
        }
        let gap = at.saturating_duration_since(sim.now());
        sim.run_for(gap);
        if next_churn <= next_sample {
            // Rotate the OS rejuvenation across guests; skip if the host
            // is wedged (the control arm eventually gets here).
            let victim = guests[churn_idx % guests.len()];
            churn_idx += 1;
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
            next_churn = at + churn_interval;
        } else {
            let now = sim.now();
            let free = sim.host().vmm().heap().free_bytes();
            min_free = min_free.min(free);
            detector.add_sample(now, free as f64);
            samples += 1;
            if act && detector.should_rejuvenate(now, policy.lead) {
                sim.reboot_and_wait(RebootStrategy::Warm);
                rejuvenations += 1;
                // Fresh heap, fresh trend.
                detector = AgingDetector::new(policy.window);
            }
            next_sample = at + policy.sample_interval;
        }
    }
    if sim.now() < end {
        let rest = end - sim.now();
        sim.run_for(rest);
    }
    let mut total = SimDuration::ZERO;
    for g in &guests {
        if let Some(m) = sim.host().meter(*g) {
            total += m
                .outages()
                .iter()
                .filter(|o| o.start >= start)
                .map(|o| o.duration())
                .sum();
            // A guest that never came back (the wedged control arm) has an
            // open outage; charge it up to the horizon.
            if let Some(down_since) = m.down_since() {
                let from = down_since.max(start);
                total += end.saturating_duration_since(from);
            }
        }
    }
    AdaptiveOutcome {
        samples,
        rejuvenations,
        vmm_errors: sim.host().errors().len(),
        min_free_heap: if min_free == u64::MAX { 0 } else { min_free },
        total_downtime: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_guest::services::ServiceKind;
    use rh_vmm::harness::booted_host;

    fn leaky_host() -> HostSim {
        let mut sim = booted_host(3, ServiceKind::Ssh);
        // Aggressive leak so the test horizon stays short: ~1.5 MiB per
        // teardown against the 16 MiB heap.
        sim.host_mut().vmm_mut().leak_per_domain_destroy = 1536 * 1024;
        sim
    }

    fn fast_policy() -> AdaptivePolicy {
        AdaptivePolicy {
            sample_interval: SimDuration::from_secs(600),
            lead: SimDuration::from_secs(1800),
            window: 6,
        }
    }

    #[test]
    fn adaptive_policy_prevents_heap_exhaustion() {
        let mut sim = leaky_host();
        let outcome = run_adaptive(
            &mut sim,
            &fast_policy(),
            SimDuration::from_secs(600),
            SimDuration::from_secs(24 * 3600),
            true,
        );
        assert_eq!(outcome.vmm_errors, 0, "no heap exhaustion under the policy");
        assert!(outcome.rejuvenations >= 1, "the detector must have fired");
        assert!(outcome.min_free_heap > 0, "never actually ran dry");
        assert!(outcome.samples > 50);
    }

    #[test]
    fn control_arm_runs_into_exhaustion() {
        let mut sim = leaky_host();
        let outcome = run_adaptive(
            &mut sim,
            &fast_policy(),
            SimDuration::from_secs(600),
            SimDuration::from_secs(24 * 3600),
            false,
        );
        assert_eq!(outcome.rejuvenations, 0);
        assert!(
            outcome.vmm_errors > 0,
            "without rejuvenation the leak must exhaust the heap"
        );
    }

    #[test]
    fn adaptive_beats_control_on_downtime_when_aging_is_fatal() {
        // With exhaustion, guests fail to come back after OS churn; the
        // control arm accrues unbounded downtime while the adaptive arm
        // pays only brief warm reboots.
        let horizon = SimDuration::from_secs(24 * 3600);
        let mut adaptive = leaky_host();
        let a = run_adaptive(
            &mut adaptive,
            &fast_policy(),
            SimDuration::from_secs(600),
            horizon,
            true,
        );
        let mut control = leaky_host();
        let c = run_adaptive(
            &mut control,
            &fast_policy(),
            SimDuration::from_secs(600),
            horizon,
            false,
        );
        assert!(
            a.total_downtime < c.total_downtime,
            "adaptive {} vs control {}",
            a.total_downtime,
            c.total_downtime
        );
    }
}
