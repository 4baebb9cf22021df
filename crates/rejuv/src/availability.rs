//! Availability arithmetic — paper §5.3.
//!
//! The paper assumes weekly OS rejuvenation and four-weekly VMM
//! rejuvenation of an 11-VM JBoss host, and computes availability per
//! strategy: **99.993 %** (warm, four nines) vs 99.985 % (cold) vs
//! 99.977 % (saved). The crucial asymmetry: a warm VMM rejuvenation does
//! not involve OS rejuvenation, so the weekly OS schedule continues
//! unchanged; a cold/saved one forces all OSes through a reboot, which
//! subsumes `α` of one OS-rejuvenation interval.

use std::fmt;

/// The §5.3 scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityModel {
    /// Interval between OS rejuvenations (s). Paper: one week.
    pub os_interval_secs: f64,
    /// Interval between VMM rejuvenations (s). Paper: four weeks.
    pub vmm_interval_secs: f64,
    /// Downtime of one OS rejuvenation (s). Paper: 33.6 s.
    pub os_downtime_secs: f64,
    /// Expected fraction of the OS interval elapsed at VMM-rejuvenation
    /// time. Paper: 0.5.
    pub alpha: f64,
}

/// One week in seconds.
const WEEK_SECS: f64 = 7.0 * 24.0 * 3600.0;

impl AvailabilityModel {
    /// The §5.3 scenario: weekly OS rejuvenation (33.6 s), four-weekly VMM
    /// rejuvenation, α = 0.5.
    pub fn paper() -> Self {
        AvailabilityModel {
            os_interval_secs: WEEK_SECS,
            vmm_interval_secs: 4.0 * WEEK_SECS,
            os_downtime_secs: 33.6,
            alpha: 0.5,
        }
    }

    /// Expected downtime per VMM-rejuvenation cycle (s), given the VMM
    /// rejuvenation's own downtime and whether it forces OS rejuvenation.
    ///
    /// Per cycle there are `vmm_interval / os_interval` scheduled OS
    /// rejuvenations; a forcing (cold/saved) VMM rejuvenation replaces `α`
    /// of one of them.
    fn downtime_per_cycle(&self, vmm_downtime_secs: f64, forces_os_rejuv: bool) -> f64 {
        let os_count = self.vmm_interval_secs / self.os_interval_secs;
        let effective_os = if forces_os_rejuv {
            os_count - self.alpha
        } else {
            os_count
        };
        effective_os * self.os_downtime_secs + vmm_downtime_secs
    }

    /// Steady-state availability in `[0, 1]`.
    pub fn availability(&self, vmm_downtime_secs: f64, forces_os_rejuv: bool) -> f64 {
        1.0 - self.downtime_per_cycle(vmm_downtime_secs, forces_os_rejuv) / self.vmm_interval_secs
    }
}

/// Number of leading nines of an availability (e.g. 0.99993 → 4).
pub fn nines(availability: f64) -> u32 {
    assert!(
        (0.0..1.0).contains(&availability),
        "availability must be in [0, 1), got {availability}"
    );
    let mut count = 0;
    let mut v = availability;
    loop {
        v *= 10.0;
        if v.floor() as u64 % 10 == 9 {
            count += 1;
            if count > 12 {
                return count;
            }
        } else {
            return count;
        }
    }
}

/// Pretty-prints an availability as a percentage with three decimals.
pub fn percent(availability: f64) -> String {
    format!("{:.3} %", availability * 100.0)
}

/// Per-strategy availability summary for a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityComparison {
    /// Warm-VM reboot availability.
    pub warm: f64,
    /// Cold-VM reboot availability.
    pub cold: f64,
    /// Saved-VM reboot availability.
    pub saved: f64,
}

impl AvailabilityComparison {
    /// Computes the §5.3 comparison from measured per-strategy downtimes.
    pub fn compute(
        model: &AvailabilityModel,
        warm_downtime: f64,
        cold_downtime: f64,
        saved_downtime: f64,
    ) -> Self {
        AvailabilityComparison {
            warm: model.availability(warm_downtime, false),
            cold: model.availability(cold_downtime, true),
            saved: model.availability(saved_downtime, true),
        }
    }
}

impl fmt::Display for AvailabilityComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warm {} ({} nines), cold {} ({} nines), saved {} ({} nines)",
            percent(self.warm),
            nines(self.warm),
            percent(self.cold),
            nines(self.cold),
            percent(self.saved),
            nines(self.saved),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        // §5.3 with the paper's measured downtimes (11 VMs, JBoss):
        // warm 42 s, cold 241 s, saved 429 s.
        let m = AvailabilityModel::paper();
        let cmp = AvailabilityComparison::compute(&m, 42.0, 241.0, 429.0);
        assert!((cmp.warm - 0.99993).abs() < 0.5e-5, "warm {}", cmp.warm);
        assert!((cmp.cold - 0.99985).abs() < 0.5e-5, "cold {}", cmp.cold);
        assert!((cmp.saved - 0.99977).abs() < 0.5e-5, "saved {}", cmp.saved);
        // "The warm-VM reboot achieves four 9s although the others achieve
        // three 9s."
        assert_eq!(nines(cmp.warm), 4);
        assert_eq!(nines(cmp.cold), 3);
        assert_eq!(nines(cmp.saved), 3);
    }

    #[test]
    fn warm_keeps_full_os_schedule() {
        let m = AvailabilityModel::paper();
        // 4 OS rejuvenations + the VMM one.
        let warm_cycle = m.downtime_per_cycle(42.0, false);
        assert!((warm_cycle - (4.0 * 33.6 + 42.0)).abs() < 1e-9);
        // Cold subsumes α = 0.5 of one OS rejuvenation.
        let cold_cycle = m.downtime_per_cycle(241.0, true);
        assert!((cold_cycle - (3.5 * 33.6 + 241.0)).abs() < 1e-9);
    }

    #[test]
    fn nines_counts() {
        assert_eq!(nines(0.9), 1);
        assert_eq!(nines(0.99), 2);
        assert_eq!(nines(0.999), 3);
        assert_eq!(nines(0.9999), 4);
        assert_eq!(nines(0.95), 1);
        assert_eq!(nines(0.85), 0);
    }

    #[test]
    fn percent_formats() {
        assert_eq!(percent(0.99993), "99.993 %");
    }

    #[test]
    fn display_mentions_nines() {
        let m = AvailabilityModel::paper();
        let cmp = AvailabilityComparison::compute(&m, 42.0, 241.0, 429.0);
        let s = cmp.to_string();
        assert!(s.contains("4 nines"));
        assert!(s.contains("3 nines"));
    }

    #[test]
    #[should_panic(expected = "availability must be")]
    fn nines_rejects_one() {
        nines(1.0);
    }
}
