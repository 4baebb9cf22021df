//! Figures 4 and 5: time for pre- and post-reboot tasks.
//!
//! * **Fig. 4** — one VM, memory size swept 1..=11 GiB: on-memory
//!   suspend/resume is flat, Xen's save/restore grows linearly with memory,
//!   shutdown/boot is flat.
//! * **Fig. 5** — 1..=11 VMs of 1 GiB: everything grows with `n`, but
//!   on-memory suspend/resume stays orders of magnitude below the rest.

use rh_guest::services::ServiceKind;
use rh_obs::Phase;
use rh_vmm::config::RebootStrategy;
use rh_vmm::harness::HostSim;

use crate::cli::Run;
use crate::exec::{Sweep, DEFAULT_SEED};
use crate::util::{booted_n_vms, booted_single_vm, secs2, Table};

/// Pre/post-reboot task times (seconds) for one configuration, one row of
/// Fig. 4 or 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTimes {
    /// On-memory suspend of all VMs (warm pre-reboot task).
    pub onmem_suspend: f64,
    /// On-memory resume of all VMs (warm post-reboot task).
    pub onmem_resume: f64,
    /// Xen-style save to disk (saved pre-reboot task).
    pub save: f64,
    /// Xen-style restore from disk (saved post-reboot task).
    pub restore: f64,
    /// Guest OS shutdown (cold pre-reboot task).
    pub shutdown: f64,
    /// Guest OS boot including service start (cold post-reboot task).
    pub boot: f64,
}

fn span(sim: &HostSim, phase: Phase) -> f64 {
    sim.host()
        .metrics
        .duration_of(phase)
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::NAN)
}

/// Measures all six task times by running one reboot of each strategy on
/// fresh hosts built by `make`.
fn measure_tasks(make: impl Fn() -> HostSim) -> TaskTimes {
    let mut warm = make();
    warm.reboot_and_wait(RebootStrategy::Warm);
    let mut saved = make();
    saved.reboot_and_wait(RebootStrategy::Saved);
    let mut cold = make();
    cold.reboot_and_wait(RebootStrategy::Cold);
    TaskTimes {
        onmem_suspend: span(&warm, Phase::Suspend),
        onmem_resume: span(&warm, Phase::Resume),
        save: span(&saved, Phase::Save),
        restore: span(&saved, Phase::Restore),
        shutdown: span(&cold, Phase::GuestShutdown),
        boot: span(&cold, Phase::GuestBoot),
    }
}

/// Fig. 4 as executor points: one per memory size.
fn fig4_sweep(sizes: impl Iterator<Item = u64>) -> Sweep<(u64, TaskTimes)> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for gib in sizes {
        sweep.point(format!("fig4/{gib}gib"), move |_rng| {
            (
                gib,
                measure_tasks(|| booted_single_vm(gib, ServiceKind::Ssh)),
            )
        });
    }
    sweep
}

/// Fig. 5 as executor points: one per VM count.
pub fn fig5_sweep(counts: impl Iterator<Item = u32>) -> Sweep<(u32, TaskTimes)> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for n in counts {
        sweep.point(format!("fig5/{n}vms"), move |_rng| {
            (n, measure_tasks(|| booted_n_vms(n, ServiceKind::Ssh)))
        });
    }
    sweep
}

/// Renders a sweep as a table with the given x-axis label.
pub fn render<T: std::fmt::Display>(title: &str, x_label: &str, rows: &[(T, TaskTimes)]) -> Table {
    let mut t = Table::new(
        title,
        &[
            x_label,
            "onmem-suspend",
            "onmem-resume",
            "xen-save",
            "xen-restore",
            "shutdown",
            "boot",
        ],
    );
    for (x, v) in rows {
        t.row(vec![
            x.to_string(),
            secs2(v.onmem_suspend),
            secs2(v.onmem_resume),
            secs2(v.save),
            secs2(v.restore),
            secs2(v.shutdown),
            secs2(v.boot),
        ]);
    }
    t
}

/// Prints Fig. 4 over 1..=`--max-n` GiB.
pub fn report_fig4(run: &mut Run) {
    let rows = run.sweep(fig4_sweep(1..=u64::from(run.max_n)));
    let title = "fig4: task times vs memory size (1 VM, GiB)";
    println!("{}", render(title, "GiB", &rows));
}

/// Prints Fig. 5 over 1..=`--max-n` VMs.
pub fn report_fig5(run: &mut Run) {
    let rows = run.sweep(fig5_sweep(1..=run.max_n));
    let title = "fig5: task times vs number of VMs (1 GiB each)";
    println!("{}", render(title, "n", &rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_suspend_flat_save_linear() {
        // Three points are enough to check the shape in a unit test; the
        // bench binary runs the full 1..=11 sweep.
        let rows = fig4_sweep([1u64, 6, 11].into_iter()).run_values(2);
        let (_, t1) = rows[0];
        let (_, t11) = rows[2];
        // On-memory suspend/resume hardly depends on memory size.
        assert!(t1.onmem_suspend < 0.2 && t11.onmem_suspend < 0.2);
        assert!((t11.onmem_resume - t1.onmem_resume).abs() < 1.0);
        // Xen's save/restore is memory-proportional: ~12.6 s/GiB, and even
        // at 1 GiB the save dwarfs the on-memory resume.
        assert!(t11.save / t1.save > 8.0, "save {} -> {}", t1.save, t11.save);
        assert!(t1.save > 3.0 * t1.onmem_resume, "{t1:?}");
        assert!(
            (t11.save - 139.0).abs() < 10.0,
            "save(11GiB) = {}",
            t11.save
        );
        assert!((t11.restore - 139.0).abs() < 10.0);
        // Shutdown/boot do not depend on memory size.
        assert!((t11.shutdown - t1.shutdown).abs() < 1.0);
        assert!((t11.boot - t1.boot).abs() < 1.0);
    }

    #[test]
    fn fig5_shape_everything_grows_but_onmem_stays_tiny() {
        let rows = fig5_sweep([1u32, 11].into_iter()).run_values(2);
        let (_, t1) = rows[0];
        let (_, t11) = rows[1];
        // Paper: at 11 VMs suspend 0.04 s, resume 4.2 s.
        assert!(
            t11.onmem_suspend < 0.2,
            "suspend(11) = {}",
            t11.onmem_suspend
        );
        assert!(
            (t11.onmem_resume - 4.2).abs() < 1.0,
            "resume(11) = {}",
            t11.onmem_resume
        );
        // Save ≈ 200 s and restore ≈ 156 s at 11 VMs (paper Fig. 5).
        assert!((t11.save - 200.0).abs() < 30.0, "save(11) = {}", t11.save);
        assert!(
            (t11.restore - 156.0).abs() < 30.0,
            "restore(11) = {}",
            t11.restore
        );
        // Boot grows largely with n.
        assert!(
            t11.boot > t1.boot + 20.0,
            "boot {} -> {}",
            t1.boot,
            t11.boot
        );
        // On-memory resume is ~2.7 % of Xen's restore (paper: 2.7 %).
        let ratio = t11.onmem_resume / t11.restore;
        assert!(ratio < 0.05, "resume/restore ratio {ratio:.3}");
    }

    #[test]
    fn render_produces_full_rows() {
        let rows = vec![(
            1u32,
            TaskTimes {
                onmem_suspend: 0.03,
                onmem_resume: 0.4,
                save: 12.6,
                restore: 12.6,
                shutdown: 10.8,
                boot: 7.0,
            },
        )];
        let t = render("fig5", "n", &rows);
        let s = t.render();
        assert!(s.contains("onmem-suspend"));
        assert!(s.contains("12.60"));
    }
}
