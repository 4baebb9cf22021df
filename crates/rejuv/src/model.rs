//! The analytic downtime model of paper §3.2 and §5.6.
//!
//! With `n` VMs:
//!
//! * warm-VM reboot downtime increase:
//!   `d_w(n) = reboot_vmm(n) + resume(n)`
//! * cold-VM reboot downtime increase:
//!   `d_c(n) = reset_hw + reboot_vmm(0) + reboot_os(n) − reboot_os(1)·α`
//!   where `α ∈ (0, 1]` is the fraction of the OS-rejuvenation interval
//!   already elapsed when the VMM rejuvenation happens (that much OS
//!   rejuvenation is subsumed by the forced reboot),
//! * the saving: `r(n) = d_c(n) − d_w(n)`.
//!
//! §5.6 instantiates the component functions from measurements at
//! n = 1..=11; [`DowntimeModel::paper`] carries those published
//! coefficients, and `rh-bench`'s `sec56` binary re-derives them from our
//! simulation via [`crate::fit`].

/// A straight line `y = slope·n + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Linear {
    /// Slope per VM.
    pub slope: f64,
    /// Intercept at n = 0.
    pub intercept: f64,
}

impl Linear {
    /// Creates a line.
    pub fn new(slope: f64, intercept: f64) -> Self {
        Linear { slope, intercept }
    }

    /// Evaluates at `n` VMs.
    pub fn at(&self, n: f64) -> f64 {
        self.slope * n + self.intercept
    }
}

impl std::fmt::Display for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.intercept >= 0.0 {
            write!(f, "{:.2}n + {:.2}", self.slope, self.intercept)
        } else {
            write!(f, "{:.2}n - {:.2}", self.slope, -self.intercept)
        }
    }
}

/// The §3.2 downtime model, parameterized by the §5.6 component functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowntimeModel {
    /// Hardware reset time `reset_hw` (s).
    pub reset_hw: f64,
    /// `reboot_vmm(n)`: VMM reboot time with `n` suspended VMs (s).
    pub reboot_vmm: Linear,
    /// `resume(n)`: on-memory suspend+resume of `n` VMs in parallel (s).
    pub resume: Linear,
    /// `reboot_os(n)`: shutdown+boot of `n` OSes in parallel (s).
    pub reboot_os: Linear,
    /// `boot(n)`: boot of `n` OSes in parallel (s).
    pub boot: Linear,
}

impl DowntimeModel {
    /// The coefficients published in §5.6:
    /// `reboot_vmm(n) = −0.55n + 43`, `resume(n) = 0.43n − 0.07`,
    /// `reboot_os(n) = 3.8n + 13`, `boot(n) = 3.4n + 2.8`, `reset_hw = 47`.
    pub fn paper() -> Self {
        DowntimeModel {
            reset_hw: 47.0,
            reboot_vmm: Linear::new(-0.55, 43.0),
            resume: Linear::new(0.43, -0.07),
            reboot_os: Linear::new(3.8, 13.0),
            boot: Linear::new(3.4, 2.8),
        }
    }

    /// Warm-reboot downtime increase `d_w(n)`.
    pub fn d_warm(&self, n: f64) -> f64 {
        self.reboot_vmm.at(n) + self.resume.at(n)
    }

    /// Cold-reboot downtime increase `d_c(n)` for a given `α`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < α ≤ 1`.
    pub fn d_cold(&self, n: f64, alpha: f64) -> f64 {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "α must be in (0, 1], got {alpha}"
        );
        self.reset_hw + self.reboot_vmm.at(0.0) + self.reboot_os.at(n)
            - self.reboot_os.at(1.0) * alpha
    }

    /// Downtime saved by the warm-VM reboot, `r(n) = d_c(n) − d_w(n)`.
    pub fn saving(&self, n: f64, alpha: f64) -> f64 {
        self.d_cold(n, alpha) - self.d_warm(n)
    }

    /// The saving as a closed-form line in `n` for a fixed `α` —
    /// the paper's `r(n) = 3.9n + 60 − 17α`.
    pub fn saving_line(&self, alpha: f64) -> Linear {
        let slope = self.reboot_os.slope - self.reboot_vmm.slope - self.resume.slope;
        let intercept = self.reset_hw + self.reboot_vmm.at(0.0) + self.reboot_os.intercept
            - self.reboot_os.at(1.0) * alpha
            - self.reboot_vmm.intercept
            - self.resume.intercept;
        Linear::new(slope, intercept)
    }
}

/// Mean-downtime closed forms for the disk-image strategies (saved,
/// streamed, incremental), extending §3.2 beyond the paper's three.
///
/// The pipeline they share: concurrent image writes (the save), a fixed
/// outage (dom0 shutdown + hardware reset + VMM boot + dom0 boot), then a
/// *serial* per-domain restore. A domain's downtime ends at its own
/// resume, so with equal images the serial restore contributes its
/// per-domain time with weight `(n+1)/2n` to the mean.
///
/// * **Saved** restores the full image, one single-flow read per domain.
/// * **Streamed** restores only the working-set fraction `w`, but each
///   already-resumed domain's residual stream shares the disk with the
///   next restore: at stage `i` there are `i` flows, and the disk's
///   aggregate bandwidth degrades by `1 + penalty·(i−1)` on top of the
///   even split (valid while residuals outlast the restore phase, i.e.
///   for small `w`; the form is clamped at the saved restore cost).
/// * **Incremental** scales the save term down to the dirty fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskedReboot {
    /// Per-VM memory image size in bytes.
    pub image_bytes: f64,
    /// Single-stream disk bandwidth, bytes/second.
    pub disk_bandwidth_bps: f64,
    /// Seek penalty per extra concurrent stream (aggregate bandwidth is
    /// `bandwidth / (1 + penalty·(flows−1))`).
    pub contention_penalty: f64,
    /// Fixed outage: dom0 shutdown + hardware reset + VMM boot + dom0
    /// boot, in seconds.
    pub overhead_secs: f64,
    /// Serialized per-domain setup + resume-handler time, in seconds.
    pub per_vm_setup_secs: f64,
}

impl DiskedReboot {
    /// Instantiates the model from the paper-testbed timing calibration
    /// for VMs of `image_bytes` each.
    pub fn paper_testbed(image_bytes: f64) -> Self {
        let t = rh_vmm::timing::TimingParams::paper_testbed();
        DiskedReboot {
            image_bytes,
            disk_bandwidth_bps: t.disk.bandwidth_bps,
            contention_penalty: t.disk.contention_penalty,
            overhead_secs: (t.dom0_shutdown + t.hw_reset(12.0) + t.vmm_boot_hw + t.dom0_boot)
                .as_secs_f64(),
            // domain create (serialized in dom0) + the 60 ms in-guest
            // resume handler (see TimingParams' derivation notes).
            per_vm_setup_secs: t.domain_create.as_secs_f64() + 0.06,
        }
    }

    /// Time to move `bytes` through the disk with `flows` concurrent
    /// streams (aggregate-bandwidth form).
    fn transfer_secs(&self, bytes: f64, flows: u32) -> f64 {
        bytes * (1.0 + self.contention_penalty * (flows.saturating_sub(1)) as f64)
            / self.disk_bandwidth_bps
    }

    /// The save phase: `n` concurrent full-image writes.
    fn save_secs(&self, n: u32) -> f64 {
        self.transfer_secs(self.image_bytes * n as f64, n)
    }

    /// Mean serial-restore contribution for full-image (saved) reads.
    fn restore_mean_secs(&self, n: u32) -> f64 {
        (n + 1) as f64 / 2.0 * self.transfer_secs(self.image_bytes, 1)
    }

    /// Mean serial-restore contribution for streamed (working-set `w`)
    /// reads under residual-stream contention, clamped at the saved cost
    /// (at `w → 1` the residuals vanish and so does the contention).
    fn streamed_restore_mean_secs(&self, n: u32, working_set: f64) -> f64 {
        let n_f = n as f64;
        // read_j = w·img·j·(1+p(j−1))/bw; domain i pays Σ_{j≤i} read_j,
        // so read_j enters the mean with weight (n−j+1)/n.
        let weighted: f64 = (1..=n)
            .map(|j| {
                let j_f = j as f64;
                (n_f - j_f + 1.0) * j_f * (1.0 + self.contention_penalty * (j_f - 1.0))
            })
            .sum();
        let streamed = working_set * self.image_bytes / self.disk_bandwidth_bps * weighted / n_f;
        streamed.min(self.restore_mean_secs(n))
    }

    /// Mean saved-reboot downtime for `n` VMs.
    pub fn saved_downtime(&self, n: u32) -> f64 {
        self.save_secs(n)
            + self.overhead_secs
            + (n + 1) as f64 / 2.0 * self.per_vm_setup_secs
            + self.restore_mean_secs(n)
    }

    /// Mean streamed-reboot downtime for `n` VMs with working-set
    /// fraction `working_set`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < working_set ≤ 1`.
    pub fn streamed_downtime(&self, n: u32, working_set: f64) -> f64 {
        assert!(
            working_set > 0.0 && working_set <= 1.0,
            "working set must be in (0, 1], got {working_set}"
        );
        self.save_secs(n)
            + self.overhead_secs
            + (n + 1) as f64 / 2.0 * self.per_vm_setup_secs
            + self.streamed_restore_mean_secs(n, working_set)
    }

    /// Mean incremental-reboot downtime: the save writes only the dirty
    /// fraction of each image (the restore still reads everything).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ dirty_fraction ≤ 1`.
    pub fn incremental_downtime(&self, n: u32, dirty_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&dirty_fraction),
            "dirty fraction must be in [0, 1], got {dirty_fraction}"
        );
        self.saved_downtime(n) - (1.0 - dirty_fraction) * self.save_secs(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_coefficients_reproduce_r_of_n() {
        // §5.6: r(n) = 3.9n + 60 − 17α.
        let m = DowntimeModel::paper();
        for alpha in [0.25, 0.5, 1.0] {
            for n in 1..=11 {
                let n = n as f64;
                let expected = 3.9 * n + 60.0 - 17.0 * alpha;
                let got = m.saving(n, alpha);
                assert!(
                    (got - expected).abs() < 0.6,
                    "r({n}) at α={alpha}: {got:.2} vs paper {expected:.2}"
                );
            }
        }
    }

    #[test]
    fn saving_is_always_positive() {
        // §5.6: "Since r(n) is always positive under α ≤ 1, the warm-VM
        // reboot can always reduce the downtime in our configuration."
        let m = DowntimeModel::paper();
        for n in 0..=64 {
            assert!(m.saving(n as f64, 1.0) > 0.0, "r({n}) not positive at α=1");
        }
    }

    #[test]
    fn saving_line_matches_pointwise_saving() {
        let m = DowntimeModel::paper();
        let line = m.saving_line(0.5);
        for n in 1..=11 {
            let n = n as f64;
            assert!((line.at(n) - m.saving(n, 0.5)).abs() < 1e-9);
        }
        assert!((line.slope - 3.92).abs() < 0.01);
    }

    #[test]
    fn warm_downtime_is_flat_cold_grows() {
        let m = DowntimeModel::paper();
        let w1 = m.d_warm(1.0);
        let w11 = m.d_warm(11.0);
        assert!((w11 - w1).abs() < 2.0, "warm is ~flat: {w1:.1} → {w11:.1}");
        let c1 = m.d_cold(1.0, 0.5);
        let c11 = m.d_cold(11.0, 0.5);
        assert!(c11 - c1 > 30.0, "cold grows with n: {c1:.1} → {c11:.1}");
    }

    #[test]
    #[should_panic(expected = "α must be in")]
    fn alpha_zero_rejected() {
        DowntimeModel::paper().d_cold(5.0, 0.0);
    }

    #[test]
    fn linear_display() {
        assert_eq!(Linear::new(3.8, 13.0).to_string(), "3.80n + 13.00");
        assert_eq!(Linear::new(0.43, -0.07).to_string(), "0.43n - 0.07");
    }

    #[test]
    fn streamed_saving_shrinks_with_working_set_and_vanishes_at_one() {
        let m = DiskedReboot::paper_testbed((1u64 << 30) as f64);
        for n in [1u32, 4, 11] {
            let mut prev = f64::INFINITY;
            for ws in [0.05, 0.15, 0.5, 1.0] {
                let saving = m.saved_downtime(n) - m.streamed_downtime(n, ws);
                assert!(saving >= 0.0, "n={n} ws={ws}: saving {saving:.1}");
                assert!(saving <= prev, "saving must shrink as ws grows");
                prev = saving;
            }
            // A full working set is exactly a saved reboot.
            assert!((m.streamed_downtime(n, 1.0) - m.saved_downtime(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_downtime_interpolates_save_cost() {
        let m = DiskedReboot::paper_testbed((1u64 << 30) as f64);
        for n in [1u32, 4, 11] {
            // Fully dirty: identical to saved. Fully clean: cheaper by the
            // whole save phase.
            assert!((m.incremental_downtime(n, 1.0) - m.saved_downtime(n)).abs() < 1e-9);
            let clean = m.incremental_downtime(n, 0.0);
            assert!((m.saved_downtime(n) - clean - m.save_secs(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn saved_and_streamed_downtime_match_simulation_within_5_percent() {
        // The whole point of the closed forms: they must predict the
        // simulated mean downtime, not merely rank the strategies.
        use rh_vmm::config::{HostConfig, RebootStrategy};
        use rh_vmm::harness::HostSim;
        let n = 4u32;
        let m = DiskedReboot::paper_testbed((1u64 << 30) as f64);
        let sim_dt = |strategy: RebootStrategy| {
            let cfg = HostConfig::paper_testbed().with_vms(n, rh_guest::services::ServiceKind::Ssh);
            let mut sim = HostSim::new(cfg);
            sim.power_on_and_wait();
            sim.reboot_and_wait(strategy).mean_downtime().as_secs_f64()
        };

        let saved = sim_dt(RebootStrategy::Saved);
        let predicted = m.saved_downtime(n);
        assert!(
            (predicted - saved).abs() / saved < 0.05,
            "saved: model {predicted:.1}s vs sim {saved:.1}s"
        );

        let streamed = sim_dt(RebootStrategy::Streamed);
        let predicted = m.streamed_downtime(n, 0.15);
        assert!(
            (predicted - streamed).abs() / streamed < 0.05,
            "streamed: model {predicted:.1}s vs sim {streamed:.1}s"
        );
    }

    #[test]
    fn incremental_downtime_matches_simulation_within_5_percent() {
        use rh_sim::time::SimDuration;
        use rh_vmm::config::{HostConfig, RebootStrategy};
        use rh_vmm::harness::HostSim;
        let n = 3u32;
        let cfg = HostConfig::paper_testbed()
            .with_vms(n, rh_guest::services::ServiceKind::Ssh)
            .with_snapshot_interval(Some(SimDuration::from_secs(60)));
        let mut sim = HostSim::new(cfg);
        sim.power_on_and_wait();
        sim.run_for(SimDuration::from_secs(180));
        let dt = sim
            .reboot_and_wait(RebootStrategy::Incremental)
            .mean_downtime()
            .as_secs_f64();
        // Feed the model the dirty fraction the simulation actually saw.
        let full = n as u64 * (1u64 << 30);
        let dirty_fraction =
            sim.host().stats.counter("incremental.save_bytes") as f64 / full as f64;
        let m = DiskedReboot::paper_testbed((1u64 << 30) as f64);
        let predicted = m.incremental_downtime(n, dirty_fraction);
        assert!(
            (predicted - dt).abs() / dt < 0.05,
            "incremental: model {predicted:.1}s vs sim {dt:.1}s (dirty {dirty_fraction:.3})"
        );
    }
}
