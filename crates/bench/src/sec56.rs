//! §5.6: extracting the downtime model from the measured sweep.
//!
//! The paper fits, over n = 1..=11:
//!
//! ```text
//! reboot_vmm(n) = -0.55n + 43      resume(n) = 0.43n - 0.07
//! reboot_os(n)  =  3.8n + 13       boot(n)   = 3.4n + 2.8
//! reset_hw      =  47
//! r(n)          =  3.9n + 60 - 17α  (> 0 for all α ≤ 1)
//! ```
//!
//! This module re-runs the sweep on the simulated host, fits the same
//! lines, and compares coefficient by coefficient.

use rh_guest::services::ServiceKind;
use rh_obs::Phase;
use rh_rejuv::fit::{fit_model, ComponentMeasurements, FitError};
use rh_rejuv::model::DowntimeModel;
use rh_vmm::config::RebootStrategy;

use crate::cli::Run;
use crate::exec::{Sweep, DEFAULT_SEED};
use crate::util::booted_n_vms;

/// The fitted model plus the raw sweep it came from.
#[derive(Debug, Clone)]
pub struct ModelFitResult {
    /// Raw measurements.
    pub measurements: ComponentMeasurements,
    /// Model fitted from our simulation.
    pub fitted: DowntimeModel,
    /// The paper's published model, for side-by-side comparison.
    pub paper: DowntimeModel,
}

/// Phase measurements for one VM count (one sweep point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePoint {
    /// VM count.
    pub n: u32,
    /// Quick reload + dom0 boot (the VMM-only part of the warm reboot).
    pub reboot_vmm: f64,
    /// On-memory suspend + resume of `n` VMs.
    pub resume: f64,
    /// Shutdown + boot of `n` OSes.
    pub reboot_os: f64,
    /// Boot of `n` OSes.
    pub boot: f64,
    /// Hardware reset.
    pub reset: f64,
}

/// Measures the §5.6 phase components at one VM count.
pub fn measure_point(n: u32) -> PhasePoint {
    let mut warm = booted_n_vms(n, ServiceKind::Ssh);
    warm.reboot_and_wait(RebootStrategy::Warm);
    let wspan = |phase: Phase| {
        warm.host()
            .metrics
            .duration_of(phase)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    };
    // reboot_vmm(n): the VMM-only part of the warm reboot — quick
    // reload plus dom0 boot.
    let reboot_vmm = wspan(Phase::QuickReload) + wspan(Phase::Dom0Boot);
    // resume(n): on-memory suspend + resume of n VMs.
    let resume = wspan(Phase::Suspend) + wspan(Phase::Resume);

    let mut cold = booted_n_vms(n, ServiceKind::Ssh);
    cold.reboot_and_wait(RebootStrategy::Cold);
    let cspan = |phase: Phase| {
        cold.host()
            .metrics
            .duration_of(phase)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    };
    let shutdown = cspan(Phase::GuestShutdown);
    let boot = cspan(Phase::GuestBoot);
    let reset = cspan(Phase::HardwareReset);
    PhasePoint {
        n,
        reboot_vmm,
        resume,
        reboot_os: shutdown + boot,
        boot,
        reset,
    }
}

/// The §5.6 measurement sweep as executor points: one per VM count.
pub fn sweep_points(counts: impl Iterator<Item = u32>) -> Sweep<PhasePoint> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for n in counts {
        sweep.point(format!("sec56/{n}vms"), move |_rng| measure_point(n));
    }
    sweep
}

/// Fits the model from already-measured sweep points (in sweep order).
///
/// # Errors
///
/// Returns a [`FitError`] when a component has fewer than two distinct
/// points — e.g. an empty or single-point sweep.
pub fn fit_points(points: &[PhasePoint]) -> Result<ModelFitResult, FitError> {
    let mut m = ComponentMeasurements::default();
    for p in points {
        m.push(p.n, p.reboot_vmm, p.resume, p.reboot_os, p.boot, p.reset);
    }
    Ok(ModelFitResult {
        fitted: fit_model(&m)?,
        measurements: m,
        paper: DowntimeModel::paper(),
    })
}

/// Prints the model fitted over 1..=`--max-n` VMs and records the
/// fitted saving at `--max-n` VMs (α = 0.5) as a headline. A failed fit
/// fails the run.
pub fn report(run: &mut Run) {
    let max_n = run.max_n;
    let points = run.sweep(sweep_points(1..=max_n));
    match fit_points(&points) {
        Ok(r) => {
            println!("{}", render(&r));
            run.headline(
                format!("sec56_saving_s_at_{max_n}vms_alpha05"),
                r.fitted.saving(f64::from(max_n), 0.5),
            );
        }
        Err(e) => run.fail(format!("sec56 model fit failed: {e}")),
    }
}

/// Renders the fitted-vs-paper comparison.
pub fn render(r: &ModelFitResult) -> String {
    let f = &r.fitted;
    let p = &r.paper;
    let saving_f = f.saving_line(0.5);
    let saving_p = p.saving_line(0.5);
    format!(
        "## sec5.6 model fit over n = 1..={}\n\
         component      fitted (ours)        paper\n\
         reboot_vmm(n)  {:<18} {}\n\
         resume(n)      {:<18} {}\n\
         reboot_os(n)   {:<18} {}\n\
         boot(n)        {:<18} {}\n\
         reset_hw       {:<18.1} {:.0}\n\
         r(n) @ α=0.5   {:<18} {}\n\
         r(11) @ α=0.5  {:<18.1} {:.1}\n",
        r.measurements.len(),
        f.reboot_vmm.to_string(),
        p.reboot_vmm,
        f.resume.to_string(),
        p.resume,
        f.reboot_os.to_string(),
        p.reboot_os,
        f.boot.to_string(),
        p.boot,
        f.reset_hw,
        p.reset_hw,
        saving_f.to_string(),
        saving_p,
        saving_f.at(11.0),
        saving_p.at(11.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_coefficients_land_near_paper() {
        // A 4-point sweep keeps the test fast; the bin runs 1..=11.
        let r = fit_points(&sweep_points([1u32, 4, 8, 11].into_iter()).run_values(2)).unwrap();
        let f = &r.fitted;
        // resume(n): paper slope 0.43 — ours is domain_create + handler.
        assert!(
            (f.resume.slope - 0.43).abs() < 0.1,
            "resume slope {:.2}",
            f.resume.slope
        );
        // boot(n): paper 3.4n + 2.8 — shape must match within ~25 %, and
        // booting 4 VMs takes over 10 s.
        assert!(
            (f.boot.slope - 3.4).abs() < 0.9,
            "boot slope {:.2}",
            f.boot.slope
        );
        assert!(r.measurements.boot[1] > 10.0, "{:?}", r.measurements.boot);
        // reboot_os(n) = 3.8n + 13.
        assert!(
            (f.reboot_os.slope - 3.8).abs() < 1.0,
            "os slope {:.2}",
            f.reboot_os.slope
        );
        assert!(
            (f.reboot_os.intercept - 13.0).abs() < 6.0,
            "os intercept {:.1}",
            f.reboot_os.intercept
        );
        // reset_hw = 47.
        assert!((f.reset_hw - 47.0).abs() < 1.0, "reset {:.1}", f.reset_hw);
        // reboot_vmm(n) ≈ 43 with a near-zero slope.
        assert!(
            (f.reboot_vmm.at(5.0) - 40.0).abs() < 5.0,
            "reboot_vmm(5) {:.1}",
            f.reboot_vmm.at(5.0)
        );
        assert!(f.reboot_vmm.slope.abs() < 0.6);
    }

    #[test]
    fn saving_is_positive_for_all_n_and_alpha() {
        // The paper's punchline: r(n) > 0 under α ≤ 1 — warm always wins.
        let r = fit_points(&sweep_points([1u32, 6, 11].into_iter()).run_values(2)).unwrap();
        for alpha in [0.1, 0.5, 1.0] {
            for n in 1..=16 {
                let s = r.fitted.saving(n as f64, alpha);
                assert!(s > 0.0, "r({n}) = {s:.1} at α={alpha}");
            }
        }
        // And lands near the paper's line: r(11) at α=0.5 ≈ 94.4.
        let ours = r.fitted.saving(11.0, 0.5);
        let paper = r.paper.saving(11.0, 0.5);
        assert!(
            (ours - paper).abs() / paper < 0.25,
            "r(11): ours {ours:.1} vs paper {paper:.1}"
        );
    }

    #[test]
    fn render_is_complete() {
        let r = fit_points(&sweep_points([1u32, 11].into_iter()).run_values(1)).unwrap();
        let s = render(&r);
        for key in [
            "reboot_vmm",
            "resume",
            "reboot_os",
            "boot",
            "reset_hw",
            "r(n)",
        ] {
            assert!(s.contains(key), "missing {key}");
        }
    }
}
