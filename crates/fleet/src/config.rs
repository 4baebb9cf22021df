//! Fleet-simulation configuration.
//!
//! A fleet run is fully described by one [`FleetConfig`]: the host shape
//! (cell count, VM slots, per-VM image size), the placement algorithm, the
//! synthetic workload, the optional rolling rejuvenation campaign, and the
//! optional aging model. Every stochastic draw derives from `seed`, so the
//! same config replays byte-identically (DESIGN.md §16).

use rh_faults::recovery::{RecoveryConfig, RecoveryPolicy};
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

use crate::placement::PlacementKind;

/// How a campaign takes each host through its rejuvenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// Suspend the host's VMs in place and reboot the VMM under them (the
    /// paper's consolidation scenario: downtime hits every resident VM).
    InPlace,
    /// Live-migrate every VM off the host first, then reboot it empty —
    /// §6's rejuvenation-by-migration, promoted to a scheduler action.
    Evacuate,
}

impl std::fmt::Display for CampaignMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignMode::InPlace => write!(f, "in-place"),
            CampaignMode::Evacuate => write!(f, "evacuate"),
        }
    }
}

/// The fleet-wide rolling rejuvenation campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Reboot strategy each host uses (downtime from the
    /// [`rh_rejuv::model`] closed forms).
    pub strategy: RebootStrategy,
    /// In-place reboot or evacuate-then-reboot.
    pub mode: CampaignMode,
    /// Maximum hosts out of serving at once (the I6 bound the
    /// [`WaveDriver`](crate::campaign::WaveDriver) enforces).
    pub max_down: u32,
    /// When the rolling campaign begins.
    pub start: SimTime,
}

impl CampaignConfig {
    /// An in-place campaign with the default 2 % concurrency bound,
    /// starting at `start`.
    pub fn in_place(strategy: RebootStrategy, hosts: u32, start: SimTime) -> Self {
        CampaignConfig {
            strategy,
            mode: CampaignMode::InPlace,
            max_down: default_max_down(hosts),
            start,
        }
    }
}

/// The default campaign concurrency bound: 2 % of the fleet, at least 1.
pub fn default_max_down(hosts: u32) -> u32 {
    (hosts / 50).max(1)
}

/// Synthetic VM arrival/departure process (Poisson with a diurnal rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Mean arrival rate, VMs per second (the diurnal curve oscillates
    /// around this mean).
    pub arrival_rate: f64,
    /// Mean VM lifetime; lifetimes are exponential.
    pub mean_lifetime: SimDuration,
    /// Diurnal modulation amplitude in `[0, 1)`: the instantaneous rate is
    /// `arrival_rate · (1 + amplitude · sin(2πt/period))`.
    pub diurnal_amplitude: f64,
    /// Diurnal period (a compressed "day").
    pub diurnal_period: SimDuration,
    /// Fraction of arrivals that are replica *pairs* (two VMs placed
    /// together, departing together) — the anti-affinity clientele.
    pub pair_fraction: f64,
}

impl WorkloadConfig {
    /// Validates the shape, returning a message that names the first bad
    /// field. Every shape it accepts draws arrivals without panicking:
    /// the arrival rate lies in `[f64::MIN_POSITIVE, f64::MAX / 2]`, so
    /// the diurnal peak rate and its mean inter-arrival gap stay finite
    /// and positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(f64::MIN_POSITIVE..=f64::MAX / 2.0).contains(&self.arrival_rate) {
            return Err(format!(
                "workload.arrival_rate {} outside [f64::MIN_POSITIVE, f64::MAX / 2]",
                self.arrival_rate
            ));
        }
        if self.mean_lifetime.is_zero() {
            return Err("workload.mean_lifetime must be positive".into());
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(format!(
                "workload.diurnal_amplitude {} outside [0, 1)",
                self.diurnal_amplitude
            ));
        }
        if self.diurnal_period.is_zero() {
            return Err("workload.diurnal_period must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.pair_fraction) {
            return Err(format!(
                "workload.pair_fraction {} outside [0, 1]",
                self.pair_fraction
            ));
        }
        Ok(())
    }
}

/// Per-host software aging: Poisson VMM crashes while serving, handled by
/// an [`rh_faults::recovery`] policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAging {
    /// Per-host mean time between aging crashes while serving.
    pub mtbf: SimDuration,
    /// Watchdog and recovery policy applied to each crash; the repair time
    /// follows the policy's closed form (microreboot ≈ warm, cold reboot ≈
    /// cold) plus the watchdog's detection latency.
    pub recovery: RecoveryConfig,
}

impl FleetAging {
    /// Mild aging handled by ReHype-style microreboots: one crash per host
    /// per `mtbf_secs` seconds of serving time on average.
    pub fn microreboot(mtbf_secs: u64) -> Self {
        FleetAging {
            mtbf: SimDuration::from_secs(mtbf_secs),
            recovery: RecoveryConfig::new(RecoveryPolicy::Microreboot),
        }
    }
}

/// Everything a [`FleetSimulation`](crate::sim::FleetSimulation) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Host cells in the fleet.
    pub hosts: u32,
    /// VM slots per host (each VM occupies one slot).
    pub slots_per_host: u32,
    /// Per-VM memory image in bytes (drives disk-image save/restore and
    /// live-migration cost).
    pub vm_mem_bytes: u64,
    /// Host RAM in GiB (drives the hardware-reset term of cold and
    /// disk-image reboots — fleet cells are smaller than the 12 GiB
    /// paper testbed).
    pub host_ram_gib: f64,
    /// Placement algorithm for arrivals and evacuations.
    pub placement: PlacementKind,
    /// Rolling rejuvenation campaign, if any.
    pub campaign: Option<CampaignConfig>,
    /// VM arrival/departure process.
    pub workload: WorkloadConfig,
    /// SLA floor: minimum fraction of placed VMs that must be serving.
    pub sla_floor: f64,
    /// Aging crashes, if enabled.
    pub aging: Option<FleetAging>,
    /// Simulated horizon; the run stops here.
    pub horizon: SimDuration,
    /// SLA accounting starts here (skips the fill-up transient, during
    /// which a single crash against a near-empty fleet would dominate the
    /// violation integral).
    pub measure_from: SimTime,
    /// Master seed; workload and crash streams fork from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A calibrated datacenter cell block: `hosts` cells of 8 × 256 MiB
    /// VM slots on 4 GiB hosts, target utilization ≈ 55 %, 15-minute mean
    /// VM lifetime, a gentle diurnal curve, 20 % replica pairs, and mild
    /// aging. The arrival rate scales with the fleet so every size runs at
    /// the same utilization. No campaign by default.
    pub fn datacenter(hosts: u32) -> Self {
        let slots = 8u32;
        let mean_lifetime = SimDuration::from_secs(900);
        let target_util = 0.55;
        let steady = target_util * f64::from(hosts) * f64::from(slots);
        FleetConfig {
            hosts,
            slots_per_host: slots,
            vm_mem_bytes: 256 << 20,
            host_ram_gib: 4.0,
            placement: PlacementKind::FirstFit,
            campaign: None,
            workload: WorkloadConfig {
                arrival_rate: steady / mean_lifetime.as_secs_f64(),
                mean_lifetime,
                diurnal_amplitude: 0.25,
                diurnal_period: SimDuration::from_secs(6000),
                pair_fraction: 0.2,
            },
            sla_floor: 0.97,
            aging: Some(FleetAging::microreboot(1_000_000)),
            horizon: SimDuration::from_secs(15_000),
            measure_from: SimTime::from_secs(600),
            seed: 2007 + u64::from(hosts),
        }
    }

    /// Sets the placement algorithm, builder-style.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the campaign, builder-style.
    #[must_use]
    pub fn with_campaign(mut self, campaign: CampaignConfig) -> Self {
        self.campaign = Some(campaign);
        self
    }

    /// Validates the shape, returning a message for the first problem.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err("fleet: hosts must be at least 1".into());
        }
        if self.slots_per_host == 0 {
            return Err("fleet: slots_per_host must be at least 1".into());
        }
        if self.vm_mem_bytes == 0 {
            return Err("fleet: vm_mem_bytes must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.sla_floor) {
            return Err(format!(
                "fleet: sla_floor {} outside [0, 1]",
                self.sla_floor
            ));
        }
        self.workload
            .validate()
            .map_err(|e| format!("fleet: {e}"))?;
        if let Some(c) = &self.campaign {
            if c.max_down == 0 {
                return Err("fleet: campaign max_down must be at least 1".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datacenter_scales_arrivals_with_fleet_size() {
        let small = FleetConfig::datacenter(100);
        let large = FleetConfig::datacenter(1000);
        assert!(small.validate().is_ok());
        assert!((large.workload.arrival_rate / small.workload.arrival_rate - 10.0).abs() < 1e-9);
        // Steady state ≈ rate × lifetime ≈ 55 % of slots.
        let steady = large.workload.arrival_rate * large.workload.mean_lifetime.as_secs_f64();
        assert!((steady - 0.55 * 8000.0).abs() < 1.0);
    }

    #[test]
    fn default_max_down_is_two_percent_with_floor_one() {
        assert_eq!(default_max_down(1000), 20);
        assert_eq!(default_max_down(5000), 100);
        assert_eq!(default_max_down(10), 1);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut cfg = FleetConfig::datacenter(10);
        cfg.hosts = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::datacenter(10);
        cfg.sla_floor = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::datacenter(10);
        cfg.workload.pair_fraction = -0.1;
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::datacenter(10);
        cfg.campaign = Some(CampaignConfig {
            strategy: RebootStrategy::Warm,
            mode: CampaignMode::InPlace,
            max_down: 0,
            start: SimTime::ZERO,
        });
        assert!(cfg.validate().is_err());
    }
}
