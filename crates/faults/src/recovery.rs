//! ReHype-style recovery: detect the failed VMM, micro-reboot it, and
//! salvage every domain whose frozen state validates.
//!
//! The engine is a watchdog loop over the blocking
//! [`HostSim`] driver. When the VMM dies
//! (detected as *down and no reboot in progress*), the configured
//! [`RecoveryPolicy`] decides what happens next:
//!
//! * [`Microreboot`](RecoveryPolicy::Microreboot) — the ReHype move:
//!   quick-reload a fresh VMM underneath the frozen domains, validate
//!   each one's P2M extent and memory digest, resume the healthy ones and
//!   cold-boot the rest (the host retries failed creates with bounded
//!   exponential backoff).
//! * [`ColdReboot`](RecoveryPolicy::ColdReboot) — the baseline: hardware
//!   reset, every domain is lost and rebuilt from disk.
//!
//! Each handled incident yields a [`RecoveryReport`] with the detection
//! latency, the mean time to repair, and the salvaged/lost split — the
//! quantities the reliability sweep turns into availability curves.

use std::fmt;

use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::harness::HostSim;
use rh_vmm::DomainId;

/// What to do about a failed VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Micro-reboot the VMM and salvage validated domains (ReHype).
    Microreboot,
    /// Hardware reset; rebuild every domain from disk (baseline).
    ColdReboot,
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPolicy::Microreboot => write!(f, "microreboot"),
            RecoveryPolicy::ColdReboot => write!(f, "cold-reboot"),
        }
    }
}

/// Watchdog and recovery parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// What to do when the VMM fails.
    pub policy: RecoveryPolicy,
    /// Granularity of the failure-detection poll. A real watchdog costs
    /// this much detection latency on average; ours costs exactly this
    /// much in the worst case.
    pub watchdog: SimDuration,
    /// How long to wait for the recovery itself to complete before
    /// declaring the incident unrecoverable.
    pub settle_cap: SimDuration,
}

impl RecoveryConfig {
    /// Defaults: 1 s watchdog tick, 2 h settle cap.
    pub fn new(policy: RecoveryPolicy) -> Self {
        RecoveryConfig {
            policy,
            watchdog: SimDuration::from_secs(1),
            settle_cap: SimDuration::from_secs(2 * 3600),
        }
    }
}

/// One handled VMM-failure incident.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// When the fault actually took the VMM down.
    pub fault_at: SimTime,
    /// When the watchdog noticed.
    pub detected_at: SimTime,
    /// When the last affected domain was back in service.
    pub recovered_at: SimTime,
    /// The policy that handled the incident.
    pub policy: RecoveryPolicy,
    /// Domains salvaged with their memory image intact.
    pub salvaged: Vec<DomainId>,
    /// Domains that failed validation (or were never frozen) and came
    /// back via cold boot, losing their memory state.
    pub lost: Vec<DomainId>,
}

impl RecoveryReport {
    /// Fault-to-detection latency.
    pub fn detection_latency(&self) -> SimDuration {
        self.detected_at - self.fault_at
    }

    /// Mean time to repair: fault to full service restoration.
    pub fn mttr(&self) -> SimDuration {
        self.recovered_at - self.fault_at
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: detected {:.3}s after fault, repaired in {:.3}s ({} salvaged, {} lost)",
            self.policy,
            self.detection_latency().as_secs_f64(),
            self.mttr().as_secs_f64(),
            self.salvaged.len(),
            self.lost.len()
        )
    }
}

/// Watches for a VMM failure and drives one recovery to completion.
///
/// Polls at the watchdog tick until the VMM is down with no reboot in
/// flight, commands the configured recovery, and runs the simulation
/// until the host logs the resulting [`RebootReport`](rh_vmm::RebootReport).
/// Returns `None` if no failure occurs within `cfg.settle_cap`, and a
/// report with `recovered_at == detected_at` (and every domain lost) if
/// the recovery itself fails to settle.
pub fn watch_and_recover(sim: &mut HostSim, cfg: &RecoveryConfig) -> Option<RecoveryReport> {
    let deadline = sim.now() + cfg.settle_cap;
    // Detection loop: a real watchdog heartbeats at this granularity.
    while !vmm_failed(sim) {
        if sim.now() >= deadline {
            return None;
        }
        sim.run_for(cfg.watchdog);
    }
    let detected_at = sim.now();
    let fault_at = sim.host().last_fault_at().unwrap_or(detected_at);
    let reports_before = sim.host().reports().len();

    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        match cfg.policy {
            RecoveryPolicy::Microreboot => host.recover_microreboot(sched),
            RecoveryPolicy::ColdReboot => host.recover_cold(sched),
        }
    }

    let settled = sim.run_until(cfg.settle_cap, |h| h.reports().len() > reports_before);
    if !settled {
        // Unrecoverable within the cap: report the incident as a total
        // loss so callers can still account for it.
        let incident = RecoveryReport {
            fault_at,
            detected_at,
            recovered_at: detected_at,
            policy: cfg.policy,
            salvaged: Vec::new(),
            lost: sim.host().domu_ids(),
        };
        account(sim, &incident);
        sim.host_mut().stats.inc("recovery.unsettled");
        return Some(incident);
    }

    // The settled predicate guarantees a report exists.
    let report = sim.host().reports().last().cloned()?;
    let lost = report.cold_booted.clone();
    let salvaged = sim
        .host()
        .domu_ids()
        .into_iter()
        .filter(|d| !lost.contains(d))
        .collect();
    let incident = RecoveryReport {
        fault_at,
        detected_at,
        recovered_at: report.completed_at,
        policy: cfg.policy,
        salvaged,
        lost,
    };
    account(sim, &incident);
    Some(incident)
}

/// Folds one handled incident into the host's metrics registry: incident
/// counter, salvaged/lost domain counts, and the detection-latency and
/// MTTR timers the reliability sweep reads back.
fn account(sim: &mut HostSim, incident: &RecoveryReport) {
    let stats = &mut sim.host_mut().stats;
    stats.inc("recovery.incident");
    stats.add("recovery.salvaged_domains", incident.salvaged.len() as u64);
    stats.add("recovery.lost_domains", incident.lost.len() as u64);
    stats.record("recovery.detection", incident.detection_latency());
    stats.record("recovery.mttr", incident.mttr());
}

/// The detection predicate: the VMM is down and nobody is already
/// handling it.
fn vmm_failed(sim: &HostSim) -> bool {
    let h = sim.host();
    !h.vmm().is_running() && !h.reboot_in_progress()
}
