//! §5.2: effect of quick reload — VMM reboot time with and without a
//! hardware reset.
//!
//! The paper measures the time from the completion of the shutdown scripts
//! to the completion of the VMM reboot: **11 s** with quick reload versus
//! **59 s** with a hardware reset — a 48 s saving.

use rh_guest::services::ServiceKind;
use rh_obs::Phase;
use rh_vmm::config::RebootStrategy;

use crate::cli::Run;
use crate::util::booted_single_vm;

/// §5.2 measurements (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuickReloadResult {
    /// VMM reboot via quick reload.
    pub quick_reload: f64,
    /// VMM reboot via hardware reset (reset + VMM init).
    pub hardware_reset: f64,
}

impl QuickReloadResult {
    /// Seconds saved by quick reload.
    pub fn saving(&self) -> f64 {
        self.hardware_reset - self.quick_reload
    }
}

/// Measures both paths on single-VM hosts.
///
/// A phase the reboot failed to record shows up as NaN (and fails the
/// paper-number comparisons loudly) instead of aborting the whole run.
pub fn run() -> QuickReloadResult {
    let mut warm = booted_single_vm(1, ServiceKind::Ssh);
    warm.reboot_and_wait(RebootStrategy::Warm);
    let quick = warm
        .host()
        .metrics
        .duration_of(Phase::QuickReload)
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::NAN);
    let mut cold = booted_single_vm(1, ServiceKind::Ssh);
    cold.reboot_and_wait(RebootStrategy::Cold);
    let cspan = |phase: Phase| {
        cold.host()
            .metrics
            .duration_of(phase)
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    QuickReloadResult {
        quick_reload: quick,
        hardware_reset: cspan(Phase::HardwareReset) + cspan(Phase::VmmBoot),
    }
}

/// Renders the comparison.
pub fn render(r: &QuickReloadResult) -> String {
    format!(
        "## sec5.2 quick reload\n\
         quick reload   : {:>5.1} s   (paper: 11 s)\n\
         hardware reset : {:>5.1} s   (paper: 59 s)\n\
         saving         : {:>5.1} s   (paper: 48 s)\n",
        r.quick_reload,
        r.hardware_reset,
        r.saving()
    )
}

/// Prints §5.2 and records its saving as a headline.
pub fn report(run: &mut Run) {
    if let Some(r) = run.one("sec52", self::run) {
        println!("{}", render(&r));
        run.headline("sec52_saving_s", r.saving());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_numbers() {
        let r = run();
        assert!(
            (r.quick_reload - 11.0).abs() < 1.0,
            "quick {:.1}",
            r.quick_reload
        );
        assert!(
            (r.hardware_reset - 59.0).abs() < 6.0,
            "hw {:.1}",
            r.hardware_reset
        );
        assert!((r.saving() - 48.0).abs() < 7.0, "saving {:.1}", r.saving());
        assert!(render(&r).contains("quick reload"));
    }
}
