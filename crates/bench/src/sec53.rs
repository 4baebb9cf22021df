//! §5.3: availability of the 11-VM JBoss host under weekly OS and
//! four-weekly VMM rejuvenation.
//!
//! Paper: 99.993 % (warm) / 99.985 % (cold) / 99.977 % (saved); the warm-VM
//! reboot achieves four nines where the others achieve three.

use rh_guest::services::ServiceKind;
use rh_rejuv::availability::{nines, percent, AvailabilityComparison, AvailabilityModel};
use rh_vmm::domain::DomainId;

use crate::cli::Run;
use crate::fig6;
use crate::util::booted_n_vms;

/// §5.3 inputs and outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityResult {
    /// Measured VMM-rejuvenation downtimes at 11 VMs with JBoss (s).
    pub downtimes: fig6::DowntimeRow,
    /// Measured single-OS rejuvenation downtime (s). Paper: 33.6 s.
    pub os_downtime: f64,
    /// Resulting availabilities.
    pub comparison: AvailabilityComparison,
}

/// Measures everything live and computes the comparison.
pub fn run() -> AvailabilityResult {
    let downtimes = fig6::measure(11, ServiceKind::Jboss);
    let mut sim = booted_n_vms(11, ServiceKind::Jboss);
    let os_downtime = sim.os_reboot_and_wait(DomainId(1)).as_secs_f64();
    let model = AvailabilityModel {
        os_downtime_secs: os_downtime,
        ..AvailabilityModel::paper()
    };
    let comparison =
        AvailabilityComparison::compute(&model, downtimes.warm, downtimes.cold, downtimes.saved);
    AvailabilityResult {
        downtimes,
        os_downtime,
        comparison,
    }
}

/// Renders the §5.3 summary.
pub fn render(r: &AvailabilityResult) -> String {
    format!(
        "## sec5.3 availability (11 VMs, JBoss, weekly OS / 4-weekly VMM rejuvenation, α=0.5)\n\
         OS rejuvenation downtime : {:.1} s (paper: 33.6)\n\
         VMM downtimes            : warm {:.1} s, cold {:.1} s, saved {:.1} s\n\
         warm  : {} ({} nines)   (paper: 99.993 %, four 9s)\n\
         cold  : {} ({} nines)   (paper: 99.985 %)\n\
         saved : {} ({} nines)   (paper: 99.977 %)\n",
        r.os_downtime,
        r.downtimes.warm,
        r.downtimes.cold,
        r.downtimes.saved,
        percent(r.comparison.warm),
        nines(r.comparison.warm),
        percent(r.comparison.cold),
        nines(r.comparison.cold),
        percent(r.comparison.saved),
        nines(r.comparison.saved),
    )
}

/// Prints §5.3.
pub fn report(run: &mut Run) {
    if let Some(r) = run.one("sec53", self::run) {
        println!("{}", render(&r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_achieves_four_nines_the_rest_three() {
        let r = run();
        assert!(
            (r.os_downtime - 33.6).abs() < 6.0,
            "OS downtime {:.1}",
            r.os_downtime
        );
        assert_eq!(nines(r.comparison.warm), 4, "warm {}", r.comparison.warm);
        assert_eq!(nines(r.comparison.cold), 3, "cold {}", r.comparison.cold);
        assert_eq!(nines(r.comparison.saved), 3, "saved {}", r.comparison.saved);
        // Within half a unit in the last printed decimal of the paper.
        assert!((r.comparison.warm - 0.99993).abs() < 1.5e-5);
        assert!((r.comparison.cold - 0.99985).abs() < 3e-5);
        assert!((r.comparison.saved - 0.99977).abs() < 4e-5);
        assert!(render(&r).contains("four"));
    }
}
