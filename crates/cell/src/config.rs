//! Cell-simulation configuration.
//!
//! A cell run is fully described by one [`CellConfig`]: the host's machine
//! memory, the microVM shape, the overcommit ratio that caps admission,
//! the provisioning strategy under comparison, and the arrival workload
//! (reusing [`rh_fleet::WorkloadConfig`]). Every stochastic draw derives
//! from `seed`, so the same config replays byte-identically.

use rh_fleet::WorkloadConfig;
use rh_sim::time::SimDuration;

/// How the cell turns an arrival into a running microVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvisionStrategy {
    /// Every arrival builds a VM from scratch: allocate frames, fill the
    /// image, boot. Departed VMs free their memory immediately. When the
    /// machine is full, arrivals queue until departures free frames.
    Cold,
    /// The paper's warm-VM reboot: departed VMs park in a bounded warm
    /// pool with their memory image frozen in place, and a later arrival
    /// revives one with a quick reload (P2M preserved, frames
    /// re-reserved, digest validated). Pool misses fall back to cold, and
    /// since a miss means the pool is empty, pressure queues the arrival.
    Warm,
    /// Warm pool plus balloon reclaim: when the allocator cannot supply a
    /// full image, the host squeezes *running* VMs down toward their
    /// resident floor via
    /// [`rh_memory::BalloonController::reclaim_under_pressure`] instead
    /// of making the arrival wait for a departure.
    BalloonReclaim,
}

impl ProvisionStrategy {
    /// All strategies, in comparison order.
    pub const ALL: [ProvisionStrategy; 3] = [
        ProvisionStrategy::Cold,
        ProvisionStrategy::Warm,
        ProvisionStrategy::BalloonReclaim,
    ];

    /// The CLI/bench name.
    pub fn name(self) -> &'static str {
        match self {
            ProvisionStrategy::Cold => "cold",
            ProvisionStrategy::Warm => "warm",
            ProvisionStrategy::BalloonReclaim => "balloon",
        }
    }

    /// Parses a CLI/bench name.
    pub fn parse(s: &str) -> Option<ProvisionStrategy> {
        ProvisionStrategy::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for ProvisionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a [`CellSimulation`](crate::sim::CellSimulation) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Machine frames on the host.
    pub host_frames: u64,
    /// Pages per microVM image (pseudo-physical size at full deflate).
    pub vm_pages: u64,
    /// Admission cap as a multiple of what physically fits: the cell
    /// admits at most `⌊host_frames / vm_pages × overcommit⌋` resident
    /// VMs. `1.0` means no overcommit.
    pub overcommit: f64,
    /// Provisioning strategy under test.
    pub strategy: ProvisionStrategy,
    /// Warm-pool capacity (parked VMs), for the warm strategies.
    pub warm_pool: usize,
    /// Balloon floor: reclaim never squeezes a running VM below this many
    /// resident pages.
    pub min_resident: u64,
    /// Arrival/departure process (diurnal Poisson, exponential lifetimes).
    pub workload: WorkloadConfig,
    /// Simulated horizon; arrivals stop here and in-flight VMs drain.
    pub horizon: SimDuration,
    /// Master seed for the workload stream.
    pub seed: u64,
}

impl CellConfig {
    /// The calibrated steady-state cell: a 256 MiB host (65 536 frames)
    /// of 8 MiB microVMs (2 048 pages, 32 fit uncommitted), 20-second
    /// mean lifetimes, and an arrival rate that holds the host around
    /// 85 % of its *physical* capacity — so any overcommit above 1.0 is
    /// genuinely exercised.
    pub fn steady(strategy: ProvisionStrategy, overcommit: f64) -> Self {
        let mean_lifetime = SimDuration::from_secs(20);
        CellConfig {
            host_frames: 65_536,
            vm_pages: 2_048,
            overcommit,
            strategy,
            warm_pool: 8,
            min_resident: 512,
            workload: WorkloadConfig {
                arrival_rate: 32.0 * 0.85 / mean_lifetime.as_secs_f64(),
                mean_lifetime,
                diurnal_amplitude: 0.3,
                diurnal_period: SimDuration::from_secs(600),
                pair_fraction: 0.0,
            },
            horizon: SimDuration::from_secs(1_200),
            seed: 2007,
        }
    }

    /// A small burst cell for golden tests: a 64-frame-per-VM image on a
    /// host that fits 16, hammered by a ~200-VM burst (3.4 arrivals/s
    /// over a 60 s horizon).
    pub fn burst(strategy: ProvisionStrategy, overcommit: f64) -> Self {
        let mean_lifetime = SimDuration::from_secs(10);
        CellConfig {
            host_frames: 1_024,
            vm_pages: 64,
            overcommit,
            strategy,
            warm_pool: 4,
            min_resident: 16,
            workload: WorkloadConfig {
                arrival_rate: 3.4,
                mean_lifetime,
                diurnal_amplitude: 0.0,
                diurnal_period: SimDuration::from_secs(600),
                pair_fraction: 0.0,
            },
            horizon: SimDuration::from_secs(60),
            seed: 2007,
        }
    }

    /// Resident-VM admission cap implied by the overcommit ratio.
    pub fn admission_cap(&self) -> usize {
        let physical = self.host_frames / self.vm_pages;
        (physical as f64 * self.overcommit).floor() as usize
    }

    /// Validates the shape, returning a message for the first problem.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.vm_pages == 0 {
            return Err("cell: vm_pages must be positive".into());
        }
        if self.host_frames < self.vm_pages {
            return Err(format!(
                "cell: host_frames {} cannot fit one {}-page VM",
                self.host_frames, self.vm_pages
            ));
        }
        if !(1.0..=8.0).contains(&self.overcommit) {
            return Err(format!(
                "cell: overcommit {} outside [1, 8]",
                self.overcommit
            ));
        }
        if self.min_resident == 0 || self.min_resident > self.vm_pages {
            return Err(format!(
                "cell: min_resident {} outside [1, vm_pages {}]",
                self.min_resident, self.vm_pages
            ));
        }
        self.workload.validate().map_err(|e| format!("cell: {e}"))?;
        if self.horizon.is_zero() {
            return Err("cell: horizon must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_roundtrip() {
        for s in ProvisionStrategy::ALL {
            assert_eq!(ProvisionStrategy::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(ProvisionStrategy::parse("tepid"), None);
    }

    #[test]
    fn presets_validate_and_cap_scales_with_overcommit() {
        for s in ProvisionStrategy::ALL {
            let c1 = CellConfig::steady(s, 1.0);
            let c2 = CellConfig::steady(s, 1.5);
            c1.validate().unwrap();
            c2.validate().unwrap();
            assert_eq!(c1.admission_cap(), 32);
            assert_eq!(c2.admission_cap(), 48);
            CellConfig::burst(s, 1.5).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut c = CellConfig::steady(ProvisionStrategy::Cold, 1.0);
        c.overcommit = 0.5;
        assert!(c.validate().unwrap_err().contains("overcommit"));
        let mut c = CellConfig::steady(ProvisionStrategy::Cold, 1.0);
        c.min_resident = c.vm_pages + 1;
        assert!(c.validate().unwrap_err().contains("min_resident"));
        let mut c = CellConfig::steady(ProvisionStrategy::Cold, 1.0);
        c.host_frames = 16;
        assert!(c.validate().unwrap_err().contains("host_frames"));
    }
}
