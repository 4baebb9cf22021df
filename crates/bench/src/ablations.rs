//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Suspend ordering** — RootHammer lets the VMM suspend guests *after*
//!    dom0 has shut down; the original Xen suspends them earlier, while
//!    dom0 is still shutting down. The paper credits ~7 s of downtime to
//!    this ordering (Fig. 7).
//! 2. **P2M re-reservation order** — quick reload must re-reserve frozen
//!    domain memory *before* VMM init writes anywhere; the wrong order
//!    corrupts images, and the content digests catch it.

use rh_guest::services::ServiceKind;
use rh_memory::contents::FrameContents;
use rh_memory::frame::FRAMES_PER_GIB;
use rh_vmm::config::{HostConfig, RebootStrategy, SuspendOrder};
use rh_vmm::domain::{Domain, DomainId, DomainSpec};
use rh_vmm::harness::HostSim;
use rh_vmm::vmm::{Vmm, VmmError};

use crate::cli::Run;
use crate::exec::{Sweep, DEFAULT_SEED};

/// Result of the suspend-ordering ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspendOrderResult {
    /// VMs on the host.
    pub vms: u32,
    /// Warm downtime with the paper's ordering (s).
    pub paper_order: f64,
    /// Warm downtime with the original-Xen ordering (s).
    pub xen_order: f64,
}

impl SuspendOrderResult {
    /// Extra downtime caused by the original ordering.
    pub fn penalty(&self) -> f64 {
        self.xen_order - self.paper_order
    }
}

fn measure_suspend_order(n: u32, order: SuspendOrder) -> f64 {
    let cfg = HostConfig::paper_testbed()
        .with_vms(n, ServiceKind::Ssh)
        .with_suspend_order(order)
        .with_trace(false);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim.reboot_and_wait(RebootStrategy::Warm)
        .mean_downtime()
        .as_secs_f64()
}

/// The suspend-ordering ablation as executor points (one per ordering).
pub fn suspend_order_points(n: u32) -> Sweep<f64> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    sweep.point(format!("ablations/suspend-order/paper/{n}vms"), move |_| {
        measure_suspend_order(n, SuspendOrder::VmmAfterDom0Shutdown)
    });
    sweep.point(format!("ablations/suspend-order/xen/{n}vms"), move |_| {
        measure_suspend_order(n, SuspendOrder::Dom0DuringShutdown)
    });
    sweep
}

/// Measures warm downtime at `n` VMs under both suspend orderings. When a
/// point fails (its `!!` line names it), both downtimes read NaN.
pub fn suspend_order(run: &mut Run, n: u32) -> SuspendOrderResult {
    let (paper_order, xen_order) = match run.sweep(suspend_order_points(n))[..] {
        [paper, xen] => (paper, xen),
        _ => (f64::NAN, f64::NAN),
    };
    SuspendOrderResult {
        vms: n,
        paper_order,
        xen_order,
    }
}

/// Result of the reservation-ordering ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationOrderResult {
    /// Whether the correct order preserved the image.
    pub correct_order_preserved: bool,
    /// Whether the buggy order corrupted the image (and was detected).
    pub wrong_order_corrupted: bool,
}

/// Demonstrates, at the mechanism level, that reserving P2M memory before
/// VMM init preserves the frozen image while the reverse order corrupts it.
///
/// # Errors
///
/// Propagates any [`VmmError`] from domain creation, suspend, or reload —
/// none is expected on this fixed scenario.
pub fn reservation_order() -> Result<ReservationOrderResult, VmmError> {
    let make = || -> Result<_, VmmError> {
        let mut vmm = Vmm::new(2 * FRAMES_PER_GIB);
        let mut contents = FrameContents::new();
        let mut dom = Domain::new(
            DomainId(1),
            DomainSpec::standard("vm1", ServiceKind::Ssh),
            0,
        );
        vmm.create_domain(&mut dom, &mut contents)?;
        vmm.on_memory_suspend(&mut dom, 16 * 1024)?;
        let digest = vmm.domain_digest(&dom, &contents);
        Ok((vmm, contents, dom, digest))
    };

    // Correct order.
    let (mut vmm, contents, dom, before) = make()?;
    let id = dom.id;
    let mut domains = std::collections::BTreeMap::from([(id, dom)]);
    vmm.stage_next_image(rh_vmm::xexec::XexecImage::build(2));
    vmm.quick_reload(&mut domains, &[id])?;
    let correct_order_preserved = vmm.domain_digest(&domains[&id], &contents) == before;

    // Wrong order: VMM init scribbles before the tables are replayed.
    let (mut vmm, mut contents, dom, before) = make()?;
    let id = dom.id;
    let scratch = vmm.ram().free_frames() + FRAMES_PER_GIB / 2;
    let mut domains = std::collections::BTreeMap::from([(id, dom)]);
    vmm.quick_reload_wrong_order(&mut domains, &[id], &mut contents, scratch)?;
    let wrong_order_corrupted = vmm.domain_digest(&domains[&id], &contents) != before;

    Ok(ReservationOrderResult {
        correct_order_preserved,
        wrong_order_corrupted,
    })
}

/// Result of the driver-domain experiment (paper §7).
#[derive(Debug, Clone, PartialEq)]
pub struct DriverDomainResult {
    /// Per-count mean downtime of ordinary guests during a warm reboot.
    pub ordinary_downtime: Vec<(u32, f64)>,
    /// Per-count mean downtime of the driver domains themselves.
    pub driver_downtime: Vec<(u32, f64)>,
}

/// Measures one driver-domain point: `(k, ordinary mean, driver mean)`
/// downtime across a warm reboot with `k` driver domains among `n` guests.
pub fn measure_driver_domains(n: u32, k: u32) -> (u32, f64, f64) {
    let mut cfg = HostConfig::paper_testbed()
        .with_vms(n - k, ServiceKind::Ssh)
        .with_trace(false);
    for i in 0..k {
        cfg = cfg.with_domain(
            DomainSpec::standard(format!("drv{i}"), ServiceKind::Ssh).as_driver_domain(),
        );
    }
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    let report = sim.reboot_and_wait(RebootStrategy::Warm);
    let ids = sim.host().domu_ids();
    let (drv_ids, ord_ids): (Vec<_>, Vec<_>) = ids.iter().partition(|id| {
        sim.host()
            .domain(**id)
            .map(|d| d.spec.driver_domain)
            .unwrap_or(false)
    });
    let mean = |set: &[&rh_vmm::domain::DomainId]| -> f64 {
        if set.is_empty() {
            return f64::NAN;
        }
        set.iter()
            .map(|id| report.downtime[id].as_secs_f64())
            .sum::<f64>()
            / set.len() as f64
    };
    (
        k,
        mean(&ord_ids.iter().collect::<Vec<_>>()),
        mean(&drv_ids.iter().collect::<Vec<_>>()),
    )
}

/// The driver-domain experiment as executor points: one per driver count.
pub fn driver_domain_points(n: u32, max_drivers: u32) -> Sweep<(u32, f64, f64)> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for k in 0..=max_drivers {
        sweep.point(format!("ablations/driver-domains/{k}of{n}"), move |_rng| {
            measure_driver_domains(n, k)
        });
    }
    sweep
}

/// Warm-reboot downtime with 0..=`max_drivers` driver domains among `n`
/// guests: driver domains cannot be suspended, so they pay cold-reboot
/// downtime even on the warm path.
pub fn driver_domains(run: &mut Run, n: u32, max_drivers: u32) -> DriverDomainResult {
    let mut ordinary = Vec::new();
    let mut drivers = Vec::new();
    for (k, ord, drv) in run.sweep(driver_domain_points(n, max_drivers)) {
        ordinary.push((k, ord));
        drivers.push((k, drv));
    }
    DriverDomainResult {
        ordinary_downtime: ordinary,
        driver_downtime: drivers,
    }
}

/// Prints every ablation at `--max-n` VMs: suspend ordering, reservation
/// order, and up to two driver domains. A failed reservation-order run
/// fails the run.
pub fn report(run: &mut Run) {
    let n = run.max_n;
    let suspend = suspend_order(run, n);
    match run.one("ablations/reservation-order", reservation_order) {
        Some(Ok(r)) => println!("{}", render(&suspend, &r)),
        Some(Err(e)) => run.fail(format!("reservation-order ablation failed: {e}")),
        None => {}
    }
    let drivers = driver_domains(run, n, 2.min(n - 1));
    println!("{}", render_driver_domains(&drivers));
}

/// Renders the suspend-ordering and reservation-order ablations.
pub fn render(s: &SuspendOrderResult, r: &ReservationOrderResult) -> String {
    format!(
        "## ablations\n\
         suspend ordering (warm, {} VMs): paper order {:.1} s, original-Xen order {:.1} s \
         (penalty {:.1} s; paper credits ~7 s)\n\
         P2M reservation order: correct preserves image = {}, wrong order corrupts = {}\n",
        s.vms,
        s.paper_order,
        s.xen_order,
        s.penalty(),
        r.correct_order_preserved,
        r.wrong_order_corrupted,
    )
}

/// Renders the driver-domain experiment.
pub fn render_driver_domains(r: &DriverDomainResult) -> String {
    let mut out = String::from(
        "## driver domains during a warm reboot (paper \u{a7}7)\n\
         drivers  ordinary-guest downtime  driver-domain downtime\n",
    );
    for ((k, ord), (_, drv)) in r.ordinary_downtime.iter().zip(&r.driver_downtime) {
        let drv_s = if drv.is_nan() {
            "-".to_string()
        } else {
            format!("{drv:.1} s")
        };
        out.push_str(&format!("{k:>7}  {ord:>22.1} s  {drv_s:>21}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_xen_ordering_costs_about_seven_seconds() {
        let r = suspend_order(&mut Run::for_tests(2), 5);
        assert!(
            (r.penalty() - 7.0).abs() < 1.5,
            "ordering penalty {:.1}s (paper: ~7)",
            r.penalty()
        );
        assert!(r.xen_order > r.paper_order);
    }

    #[test]
    fn driver_domains_increase_warm_downtime() {
        let r = driver_domains(&mut Run::for_tests(2), 4, 2);
        // "The existence of driver domains increases the downtime" (§7):
        // even ordinary guests wait for the driver shutdown before the
        // quick reload — but stay far below cold-reboot scale.
        let base = r.ordinary_downtime[0].1;
        assert!(base < 45.0, "pure-warm baseline {base:.1}");
        for (k, dt) in r.ordinary_downtime.iter().skip(1) {
            assert!(
                *dt > base,
                "k={k}: ordinary downtime {dt:.1} vs baseline {base:.1}"
            );
            assert!(
                *dt < 80.0,
                "k={k}: ordinary downtime {dt:.1} should stay warm-scale"
            );
        }
        // Driver domains themselves pay shutdown + boot on top (though no
        // hardware reset — the warm path still spares them that).
        for ((k, dt), (_, ord)) in r
            .driver_downtime
            .iter()
            .skip(1)
            .zip(r.ordinary_downtime.iter().skip(1))
        {
            assert!(*dt > 50.0, "k={k}: driver downtime {dt:.1}");
            assert!(
                dt > ord,
                "k={k}: driver {dt:.1} must exceed ordinary {ord:.1}"
            );
        }
        assert!(r.driver_downtime[0].1.is_nan(), "no drivers at k=0");
    }

    #[test]
    fn reservation_order_matters_and_is_detected() {
        let r = reservation_order().unwrap();
        assert!(r.correct_order_preserved);
        assert!(r.wrong_order_corrupted);
        let s = render(
            &SuspendOrderResult {
                vms: 3,
                paper_order: 41.0,
                xen_order: 48.0,
            },
            &r,
        );
        let label = "suspend ordering (warm, 3 VMs): paper order 41.0 s";
        assert!(s.contains(label) && s.contains("(penalty 7.0 s;"), "{s}");
    }
}
