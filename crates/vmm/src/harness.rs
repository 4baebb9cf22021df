//! High-level experiment driver.
//!
//! [`HostSim`] wraps a [`Host`] in a [`Simulation`] and provides the
//! blocking-style operations experiments want: "power on and wait until
//! every service is up", "reboot warm and give me the report". All waiting
//! is simulated-time-bounded so a sequencing bug fails fast instead of
//! spinning.

// lint:allow-file(unwrap-panic): experiment driver; a missed report or wait
// cap is a sequencing bug and failing fast here is the designed behaviour.

use rh_sim::engine::Simulation;
use rh_sim::time::{SimDuration, SimTime};

use crate::config::{HostConfig, RebootStrategy};
use crate::domain::DomainId;
use crate::host::{Host, RebootReport};

/// Default cap on any single wait: two simulated hours.
pub const DEFAULT_WAIT_CAP: SimDuration = SimDuration::from_secs(2 * 3600);

/// A simulated host plus its event loop.
///
/// # Examples
///
/// ```
/// use rh_guest::services::ServiceKind;
/// use rh_vmm::config::{HostConfig, RebootStrategy};
/// use rh_vmm::harness::HostSim;
///
/// let cfg = HostConfig::paper_testbed().with_vms(2, ServiceKind::Ssh);
/// let mut sim = HostSim::new(cfg);
/// sim.power_on_and_wait();
/// let report = sim.reboot_and_wait(RebootStrategy::Warm);
/// assert!(report.corrupted.is_empty());
/// assert!(report.max_downtime().as_secs_f64() < 60.0);
/// ```
#[derive(Debug)]
pub struct HostSim {
    sim: Simulation<Host>,
}

impl HostSim {
    /// Builds the host (powered off).
    pub fn new(cfg: HostConfig) -> Self {
        HostSim {
            sim: Simulation::new(Host::new(cfg)),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The host.
    pub fn host(&self) -> &Host {
        self.sim.world()
    }

    /// Mutable host access (experiment setup: cache warming, aging
    /// injection, ...).
    pub fn host_mut(&mut self) -> &mut Host {
        self.sim.world_mut()
    }

    /// Runs the simulation for `span` of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sim.run_for(span);
    }

    /// Runs until `pred` holds or `cap` elapses; returns whether it held.
    pub fn run_until(&mut self, cap: SimDuration, pred: impl Fn(&Host) -> bool) -> bool {
        let deadline = self.sim.now() + cap;
        loop {
            if pred(self.sim.world()) {
                return true;
            }
            match self.sim.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.sim.step();
                }
                _ => {
                    self.sim.run_until(deadline);
                    return pred(self.sim.world());
                }
            }
        }
    }

    /// Powers the host on and waits until every configured service is up.
    ///
    /// # Panics
    ///
    /// Panics with [`HostConfig::validate`]'s message, which names the
    /// shortfall, if the configured domains do not fit the host; and if
    /// the host does not come up within [`DEFAULT_WAIT_CAP`].
    pub fn power_on_and_wait(&mut self) -> SimTime {
        if let Err(e) = self.host().config().validate() {
            panic!("host cannot power on: {e}");
        }
        {
            let (host, sched) = self.sim.parts_mut();
            host.power_on(sched);
        }
        // `all_services_up` is vacuously true for a guest-less host, so
        // also wait for the power-on sequence itself to finish.
        let ok = self.run_until(DEFAULT_WAIT_CAP, |h| {
            h.all_services_up() && !h.reboot_in_progress()
        });
        assert!(ok, "host failed to come up: {:?}", self.host().errors());
        self.now()
    }

    /// Issues a VMM reboot of the given strategy and waits for completion.
    ///
    /// # Panics
    ///
    /// Panics if the reboot does not complete within [`DEFAULT_WAIT_CAP`].
    pub fn reboot_and_wait(&mut self, strategy: RebootStrategy) -> RebootReport {
        let reports_before = self.host().reports().len();
        {
            let (host, sched) = self.sim.parts_mut();
            host.reboot(sched, strategy);
        }
        let ok = self.run_until(DEFAULT_WAIT_CAP, |h| h.reports().len() > reports_before);
        assert!(
            ok,
            "{strategy} reboot did not complete: {:?}",
            self.host().errors()
        );
        self.host().last_report().expect("report pushed").clone()
    }

    /// Rejuvenates one guest OS and waits for it to come back.
    ///
    /// # Panics
    ///
    /// Panics if the guest does not come back within [`DEFAULT_WAIT_CAP`].
    pub fn os_reboot_and_wait(&mut self, id: DomainId) -> SimDuration {
        let start = self.now();
        {
            let (host, sched) = self.sim.parts_mut();
            host.os_reboot(sched, id);
        }
        let ok = self.run_until(DEFAULT_WAIT_CAP, |h| {
            h.domain(id).map(|d| d.service_up()).unwrap_or(false)
        });
        assert!(ok, "OS rejuvenation of {id} did not complete");
        // The outage is measured by the meter, not wall time from here.
        self.host()
            .meter(id)
            .and_then(|m| m.outages().iter().rev().find(|o| o.end >= start))
            .map(|o| o.duration())
            .unwrap_or(SimDuration::ZERO)
    }

    /// Runs a Fig. 8(a)-style in-guest file read to completion and returns
    /// the observed throughput in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if the read does not finish within [`DEFAULT_WAIT_CAP`].
    pub fn file_read_and_wait(&mut self, id: DomainId, file: u32) -> f64 {
        let results_before = self.host().file_read_results().len();
        {
            let (host, sched) = self.sim.parts_mut();
            host.file_read(sched, id, file);
        }
        let ok = self.run_until(DEFAULT_WAIT_CAP, |h| {
            h.file_read_results().len() > results_before
        });
        assert!(ok, "file read on {id} did not complete");
        self.host().file_read_results()[results_before].throughput_bps()
    }

    /// Crashes the VMM and waits for the reactive (cold) recovery to
    /// complete, returning the recovery report.
    ///
    /// # Panics
    ///
    /// Panics if recovery does not complete within [`DEFAULT_WAIT_CAP`].
    pub fn crash_and_recover(&mut self) -> RebootReport {
        let reports_before = self.host().reports().len();
        {
            let (host, sched) = self.sim.parts_mut();
            host.crash_vmm(sched);
        }
        let ok = self.run_until(DEFAULT_WAIT_CAP, |h| h.reports().len() > reports_before);
        assert!(ok, "crash recovery did not complete");
        self.host().last_report().expect("report pushed").clone()
    }

    /// Attaches an httperf fleet targeting `target`.
    ///
    /// # Panics
    ///
    /// Panics if a fleet is already attached.
    pub fn attach_httperf(&mut self, target: DomainId, client: rh_net::httperf::HttperfClient) {
        let (host, sched) = self.sim.parts_mut();
        host.attach_httperf(sched, target, client);
    }

    /// Detaches the httperf fleet, returning it with its completion log.
    pub fn detach_httperf(&mut self) -> Option<rh_net::httperf::HttperfClient> {
        let (host, sched) = self.sim.parts_mut();
        host.detach_httperf(sched)
    }

    /// Direct access to the inner simulation (advanced use).
    pub fn simulation_mut(&mut self) -> &mut Simulation<Host> {
        &mut self.sim
    }
}

/// Convenience: build a paper-testbed host with `n` standard VMs of
/// `service`, power it on, and return the driver.
pub fn booted_host(n: u32, service: rh_guest::services::ServiceKind) -> HostSim {
    let cfg = HostConfig::paper_testbed().with_vms(n, service);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_guest::services::ServiceKind;

    #[test]
    #[should_panic(expected = "MiB short")]
    fn power_on_names_the_memory_shortfall() {
        let cfg = HostConfig::paper_testbed().with_vms(12, ServiceKind::Ssh);
        HostSim::new(cfg).power_on_and_wait();
    }

    #[test]
    fn httperf_against_a_domain_without_files_is_an_error_not_a_stall() {
        // Regression: the kick drew a request (counting it in flight)
        // before finding that the target has no files, so the request was
        // stranded forever and the run reported zero throughput silently.
        use crate::vmm::VmmError;
        use rh_net::httperf::{AccessPattern, HttperfClient};

        let ssh = DomainId(1);
        let mut sim = booted_host(2, ServiceKind::Ssh);
        sim.attach_httperf(ssh, HttperfClient::new(10, 100, AccessPattern::Cyclic));
        sim.run_for(SimDuration::from_secs(10));
        // The kick fires again when the service comes back up.
        sim.reboot_and_wait(RebootStrategy::Warm);
        sim.run_for(SimDuration::from_secs(10));

        let client = sim.host().httperf().expect("still attached");
        assert_eq!(
            (client.issued(), client.in_flight(), client.completed()),
            (0, 0, 0)
        );
        assert_eq!(
            sim.host().errors(),
            &[VmmError::BadDomainState(ssh, "serve httperf without files")]
        );
        assert_eq!(
            sim.host().errors()[0].to_string(),
            "vmm: domU1 cannot serve httperf without files"
        );
    }

    #[test]
    fn crash_landing_mid_warm_reboot_cancels_the_stale_run() {
        // Regression: a VMM crash arriving while a warm reboot is in
        // flight used to trip an assertion (and could leave the host
        // wedged with `reboot_in_progress()` stuck true while stale
        // reboot-step events replayed into the new run). The crash must
        // take over the run at any offset into the pipeline.
        for offset_s in [1.0, 5.0, 12.0, 20.0, 35.0] {
            let mut sim = booted_host(3, ServiceKind::Ssh);
            {
                let (host, sched) = sim.sim.parts_mut();
                host.reboot(sched, RebootStrategy::Warm);
            }
            sim.run_for(SimDuration::from_secs_f64(offset_s));
            let reports_before = sim.host().reports().len();
            let gen_at_crash = sim.host().vmm().generation();
            {
                let (host, sched) = sim.sim.parts_mut();
                host.crash_vmm(sched);
            }
            let ok = sim.run_until(DEFAULT_WAIT_CAP, |h| h.reports().len() > reports_before);
            assert!(ok, "recovery stuck at offset {offset_s}s");
            assert!(
                !sim.host().reboot_in_progress(),
                "run leaked at offset {offset_s}s"
            );
            let report = sim.host().last_report().expect("report pushed");
            assert_eq!(report.strategy, RebootStrategy::Cold);
            assert!(sim.host().all_services_up(), "host wedged at {offset_s}s");
            assert_eq!(sim.host().vmm().generation(), gen_at_crash + 1);
        }
    }

    #[test]
    fn power_on_brings_all_services_up() {
        let mut sim = HostSim::new(HostConfig::paper_testbed().with_vms(3, ServiceKind::Ssh));
        let up_at = sim.power_on_and_wait();
        assert!(sim.host().all_services_up());
        // dom0 boot (26) + creates + boot(3) + ssh: under a minute.
        assert!(up_at.as_secs_f64() < 60.0, "bring-up took {up_at}");
        assert!(
            up_at.as_secs_f64() > 30.0,
            "bring-up suspiciously fast: {up_at}"
        );
    }

    #[test]
    fn warm_reboot_at_eleven_vms_matches_paper_downtime() {
        // Paper Fig. 6(a): warm downtime ≈ 42 s at 11 VMs.
        let mut sim = booted_host(11, ServiceKind::Ssh);
        let report = sim.reboot_and_wait(RebootStrategy::Warm);
        let dt = report.mean_downtime().as_secs_f64();
        assert!(
            (dt - 42.0).abs() < 5.0,
            "warm downtime = {dt:.1}s (paper: 42)"
        );
        assert!(report.corrupted.is_empty(), "memory must be preserved");
        assert_eq!(report.downtime.len(), 11);
    }

    #[test]
    fn cold_reboot_at_eleven_vms_matches_paper_downtime() {
        // Paper Fig. 6(a): cold downtime ≈ 157 s at 11 VMs.
        let mut sim = booted_host(11, ServiceKind::Ssh);
        let report = sim.reboot_and_wait(RebootStrategy::Cold);
        let dt = report.mean_downtime().as_secs_f64();
        assert!(
            (dt - 157.0).abs() < 20.0,
            "cold downtime = {dt:.1}s (paper: 157)"
        );
    }

    #[test]
    fn saved_reboot_at_eleven_vms_matches_paper_downtime() {
        // Paper Fig. 6(a): saved downtime ≈ 429 s at 11 VMs.
        let mut sim = booted_host(11, ServiceKind::Ssh);
        let report = sim.reboot_and_wait(RebootStrategy::Saved);
        let dt = report.mean_downtime().as_secs_f64();
        assert!(
            (dt - 429.0).abs() < 60.0,
            "saved downtime = {dt:.1}s (paper: 429)"
        );
        assert!(report.corrupted.is_empty(), "restored images must match");
    }

    #[test]
    fn warm_beats_cold_beats_saved_for_every_vm_count() {
        for n in [1u32, 4, 8] {
            let warm = booted_host(n, ServiceKind::Ssh)
                .reboot_and_wait(RebootStrategy::Warm)
                .mean_downtime();
            let cold = booted_host(n, ServiceKind::Ssh)
                .reboot_and_wait(RebootStrategy::Cold)
                .mean_downtime();
            let saved = booted_host(n, ServiceKind::Ssh)
                .reboot_and_wait(RebootStrategy::Saved)
                .mean_downtime();
            assert!(warm < cold, "n={n}: warm {warm} !< cold {cold}");
            assert!(cold < saved, "n={n}: cold {cold} !< saved {saved}");
        }
    }

    #[test]
    fn warm_downtime_hardly_depends_on_vm_count() {
        // Fig. 6: "the downtime by the warm-VM reboot hardly depended on
        // the number of VMs".
        let d1 = booted_host(1, ServiceKind::Ssh)
            .reboot_and_wait(RebootStrategy::Warm)
            .mean_downtime()
            .as_secs_f64();
        let d11 = booted_host(11, ServiceKind::Ssh)
            .reboot_and_wait(RebootStrategy::Warm)
            .mean_downtime()
            .as_secs_f64();
        assert!(d11 - d1 < 10.0, "warm grew from {d1:.1}s to {d11:.1}s");
    }

    #[test]
    fn jboss_cold_downtime_exceeds_ssh() {
        // Fig. 6(b): cold JBoss ≈ 241 s at 11 VMs vs 157 s for ssh.
        let mut sim = booted_host(11, ServiceKind::Jboss);
        let report = sim.reboot_and_wait(RebootStrategy::Cold);
        let dt = report.mean_downtime().as_secs_f64();
        assert!(
            (dt - 241.0).abs() < 30.0,
            "cold JBoss downtime = {dt:.1}s (paper: 241)"
        );
    }

    #[test]
    fn jboss_warm_downtime_same_as_ssh() {
        // Fig. 6(b): warm/saved are service-agnostic — no restart needed.
        let ssh = booted_host(5, ServiceKind::Ssh)
            .reboot_and_wait(RebootStrategy::Warm)
            .mean_downtime()
            .as_secs_f64();
        let jboss = booted_host(5, ServiceKind::Jboss)
            .reboot_and_wait(RebootStrategy::Warm)
            .mean_downtime()
            .as_secs_f64();
        assert!(
            (ssh - jboss).abs() < 1.0,
            "warm ssh {ssh:.1} vs jboss {jboss:.1}"
        );
    }

    #[test]
    fn warm_reboot_preserves_memory_digests() {
        let mut sim = booted_host(4, ServiceKind::Ssh);
        let ids = sim.host().domu_ids();
        let before: Vec<u64> = ids
            .iter()
            .map(|id| sim.host().domain_digest(*id).unwrap())
            .collect();
        let report = sim.reboot_and_wait(RebootStrategy::Warm);
        assert!(report.corrupted.is_empty());
        let after: Vec<u64> = ids
            .iter()
            .map(|id| sim.host().domain_digest(*id).unwrap())
            .collect();
        assert_eq!(before, after, "memory images changed across warm reboot");
        // The VMM itself was rejuvenated.
        assert_eq!(sim.host().vmm().generation(), 2);
    }

    #[test]
    fn warm_reboot_digest_checks_take_the_early_out() {
        // PERFORMANCE.md "Digest maintenance": on a clean reboot every
        // guest resumes with the logical image it froze with — in place
        // (warm) or restored onto new frames (the disk strategies) — so
        // every verification settles on equal captures and none pays the
        // O(frames) rehash, while still reporting zero corruption.
        for strategy in [
            RebootStrategy::Warm,
            RebootStrategy::Saved,
            RebootStrategy::Streamed,
            RebootStrategy::Incremental,
        ] {
            let mut sim = booted_host(3, ServiceKind::Ssh);
            let report = sim.reboot_and_wait(strategy);
            assert!(report.corrupted.is_empty(), "{strategy}");
            let stats = &sim.host().stats;
            assert_eq!(
                stats.counter("digest.early_out"),
                3,
                "{strategy}: all three verifications should early-out"
            );
            assert_eq!(
                stats.counter("digest.full_rehash"),
                0,
                "{strategy}: no clean verification should pay the full rehash"
            );
        }
    }

    #[test]
    fn cold_reboot_rebuilds_memory_from_scratch() {
        let mut sim = booted_host(2, ServiceKind::Ssh);
        let ids = sim.host().domu_ids();
        let before: Vec<u64> = ids
            .iter()
            .map(|id| sim.host().domain_digest(*id).unwrap())
            .collect();
        sim.reboot_and_wait(RebootStrategy::Cold);
        let after: Vec<u64> = ids
            .iter()
            .map(|id| sim.host().domain_digest(*id).unwrap())
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert_ne!(b, a, "cold reboot must produce fresh memory");
        }
    }

    #[test]
    fn guest_kernels_reboot_only_on_cold_path() {
        let mut sim = booted_host(2, ServiceKind::Ssh);
        let id = sim.host().domu_ids()[0];
        sim.reboot_and_wait(RebootStrategy::Warm);
        let d = sim.host().domain(id).unwrap();
        assert_eq!(d.kernel.boots(), 1, "warm: no guest reboot");
        assert_eq!(d.kernel.suspends(), 1);
        assert_eq!(d.kernel.resumes(), 1);
        sim.reboot_and_wait(RebootStrategy::Cold);
        let d = sim.host().domain(id).unwrap();
        assert_eq!(d.kernel.boots(), 2, "cold: guest rebooted");
    }

    #[test]
    fn service_generation_survives_warm_but_not_cold() {
        // The TCP-session story (§5.3) hinges on this.
        let mut sim = booted_host(2, ServiceKind::Ssh);
        let id = sim.host().domu_ids()[0];
        let gen0 = sim
            .host()
            .domain(id)
            .unwrap()
            .service
            .as_ref()
            .unwrap()
            .generation();
        sim.reboot_and_wait(RebootStrategy::Warm);
        let gen_warm = sim
            .host()
            .domain(id)
            .unwrap()
            .service
            .as_ref()
            .unwrap()
            .generation();
        assert_eq!(gen_warm, gen0, "warm reboot preserves the server process");
        sim.reboot_and_wait(RebootStrategy::Cold);
        let gen_cold = sim
            .host()
            .domain(id)
            .unwrap()
            .service
            .as_ref()
            .unwrap()
            .generation();
        assert_eq!(
            gen_cold,
            gen0 + 1,
            "cold reboot restarts the server process"
        );
    }

    #[test]
    fn os_rejuvenation_of_jboss_matches_paper() {
        // §5.3: OS rejuvenation downtime ≈ 33.6 s (one VM with JBoss,
        // others undisturbed).
        let mut sim = booted_host(11, ServiceKind::Jboss);
        let id = sim.host().domu_ids()[0];
        let dt = sim.os_reboot_and_wait(id).as_secs_f64();
        assert!(
            (dt - 33.6).abs() < 6.0,
            "OS rejuvenation downtime = {dt:.1}s"
        );
        // Other domains never went down.
        for other in sim.host().domu_ids().into_iter().skip(1) {
            assert!(sim.host().meter(other).unwrap().outages().is_empty());
        }
        // And the VMM was not rebooted.
        assert_eq!(sim.host().vmm().generation(), 1);
    }

    #[test]
    fn crash_recovery_is_reactive_cold_and_slower_than_proactive_warm() {
        // The motivation in one test: letting the VMM crash costs far more
        // than proactively rejuvenating it warm — and the crash loses all
        // guest state while the warm reboot provably keeps it.
        let mut sim = booted_host(4, ServiceKind::Ssh);
        let warm = sim.reboot_and_wait(RebootStrategy::Warm).mean_downtime();

        let mut sim = booted_host(4, ServiceKind::Ssh);
        let digest_before = sim.host().domain_digest(DomainId(1)).unwrap();
        let session_gen_before = sim
            .host()
            .domain(DomainId(1))
            .unwrap()
            .service
            .as_ref()
            .unwrap()
            .generation();
        let report = sim.crash_and_recover();
        assert_eq!(report.strategy, RebootStrategy::Cold);
        let crash_dt = report.mean_downtime();
        assert!(
            crash_dt.as_secs_f64() > 2.0 * warm.as_secs_f64(),
            "crash recovery {crash_dt} vs warm {warm}"
        );
        // All guest state was lost and rebuilt.
        assert_ne!(
            sim.host().domain_digest(DomainId(1)).unwrap(),
            digest_before
        );
        let gen_after = sim
            .host()
            .domain(DomainId(1))
            .unwrap()
            .service
            .as_ref()
            .unwrap()
            .generation();
        assert_eq!(gen_after, session_gen_before + 1, "every session died");
        // But the host is healthy again.
        assert!(sim.host().all_services_up());
        assert_eq!(sim.host().vmm().generation(), 2);
    }

    #[test]
    fn crash_downtime_skips_the_clean_shutdown_but_not_the_reset() {
        // Reactive recovery saves the shutdown phase (nothing to shut
        // down) yet pays reset + boot like any cold path.
        let mut cold = booted_host(3, ServiceKind::Ssh);
        let cold_dt = cold.reboot_and_wait(RebootStrategy::Cold).mean_downtime();
        let mut crash = booted_host(3, ServiceKind::Ssh);
        let crash_dt = crash.crash_and_recover().mean_downtime();
        // The crash outage starts instantly (no 7 s grace, no shutdown
        // work) but the recovery path is identical hardware-wise, so the
        // difference stays bounded by the shutdown phase length.
        let diff = cold_dt.as_secs_f64() - crash_dt.as_secs_f64();
        assert!(
            (0.0..=30.0).contains(&diff),
            "cold {cold_dt} vs crash {crash_dt}"
        );
    }

    #[test]
    fn driver_domains_cold_boot_during_warm_reboot() {
        // Paper §7: "when the VMM is rebooted, driver domains as well as
        // domain 0 are rebooted because driver domains cannot be
        // suspended. Therefore, the existence of driver domains increases
        // the downtime." Every strategy, with the driver first or last: a
        // driver ahead of other guests must not break the serial restore
        // chain of the disk strategies.
        use crate::domain::DomainSpec;
        for strategy in RebootStrategy::ALL {
            for driver_at in [0, 2] {
                let case = format!("{strategy}, driver at {driver_at}");
                let mut cfg = HostConfig::paper_testbed().with_vms(2, ServiceKind::Ssh);
                let driver = DomainSpec::standard("drv", ServiceKind::Ssh).as_driver_domain();
                cfg.domains.insert(driver_at, driver);
                let mut sim = HostSim::new(cfg);
                sim.power_on_and_wait();
                let drv = DomainId(driver_at as u32 + 1);
                let digest_before = sim.host().domain_digest(drv);
                let report = sim.reboot_and_wait(strategy);
                assert!(sim.host().all_services_up(), "{case}");
                assert!(report.corrupted.is_empty(), "{case}: guests stay intact");
                assert_ne!(sim.host().domain_digest(drv), digest_before, "{case}");
                // (boots, suspends, resumes): the driver domain reboots and
                // every other guest resumes, except that cold reboots all.
                let kernels: Vec<(u64, u64, u64)> = sim
                    .host()
                    .domu_ids()
                    .into_iter()
                    .map(|id| {
                        let k = &sim.host().domain(id).unwrap().kernel;
                        (k.boots(), k.suspends(), k.resumes())
                    })
                    .collect();
                let cold = strategy == RebootStrategy::Cold;
                let mut expected = vec![if cold { (2, 0, 0) } else { (1, 1, 1) }; 3];
                expected[driver_at] = (2, 0, 0);
                assert_eq!(kernels, expected, "{case}");
                let lost = if cold { vec![] } else { vec![drv] };
                assert_eq!(report.cold_booted, lost, "{case}");
                if strategy == RebootStrategy::Warm {
                    // Its downtime is cold-scale while the others stay
                    // warm-scale.
                    let drv_dt = report.downtime[&drv].as_secs_f64();
                    let warm_dt = report.downtime[&DomainId(2)].as_secs_f64();
                    assert!(
                        drv_dt > warm_dt + 5.0,
                        "{case}: driver downtime {drv_dt:.1}s vs warm {warm_dt:.1}s"
                    );
                }
            }
        }
    }

    #[test]
    fn ballooned_domain_survives_warm_reboot_intact() {
        // Regression: a domain with an inflated balloon (pages handed back
        // to the VMM) has a P2M table smaller than its spec. The frozen
        // digest must cover exactly the mapped pseudo-physical pages —
        // never the ballooned-out frames the domain no longer owns — and
        // the warm path must preserve the shrunk image bit-for-bit.
        let mut sim = booted_host(2, ServiceKind::Ssh);
        let id = sim.host().domu_ids()[0];
        let mapped = sim.host().domain(id).unwrap().p2m.total_pages();
        let quarter = mapped / 4;
        sim.host_mut().balloon(id, -(quarter as i64)).unwrap();
        let shrunk = sim.host().domain(id).unwrap().p2m.total_pages();
        assert_eq!(shrunk, mapped - quarter);
        let digest_before = sim.host().domain_digest(id).unwrap();
        let report = sim.reboot_and_wait(RebootStrategy::Warm);
        assert!(
            report.corrupted.is_empty(),
            "ballooned domain flagged corrupted: {report:?}"
        );
        let d = sim.host().domain(id).unwrap();
        assert_eq!(d.kernel.resumes(), 1, "must resume, not cold boot");
        assert_eq!(d.p2m.total_pages(), shrunk, "balloon survives the reboot");
        assert_eq!(
            sim.host().domain_digest(id).unwrap(),
            digest_before,
            "shrunk image changed across warm reboot"
        );
    }

    #[test]
    fn ballooned_domain_survives_saved_reboot_intact() {
        // Regression: the saved image of a ballooned domain carries the
        // shrunk P2M geometry, but the restore path used to recreate the
        // shell at full spec size — `image.restore()` then failed with
        // "restore geometry mismatch" and the domain was silently lost.
        let mut sim = booted_host(2, ServiceKind::Ssh);
        let id = sim.host().domu_ids()[0];
        let mapped = sim.host().domain(id).unwrap().p2m.total_pages();
        let quarter = mapped / 4;
        sim.host_mut().balloon(id, -(quarter as i64)).unwrap();
        let shrunk = sim.host().domain(id).unwrap().p2m.total_pages();
        let digest_before = sim.host().domain_digest(id).unwrap();
        let report = sim.reboot_and_wait(RebootStrategy::Saved);
        assert!(
            sim.host().errors().is_empty(),
            "saved reboot of ballooned domain errored: {:?}",
            sim.host().errors()
        );
        assert!(report.corrupted.is_empty(), "{report:?}");
        let d = sim.host().domain(id).unwrap();
        assert_eq!(d.kernel.resumes(), 1, "must restore + resume, not be lost");
        assert_eq!(
            d.p2m.total_pages(),
            shrunk,
            "restored at the ballooned size"
        );
        assert_eq!(
            sim.host().domain_digest(id).unwrap(),
            digest_before,
            "ballooned image changed across save/restore"
        );
    }

    #[test]
    fn reclaim_under_pressure_squeezes_in_order_and_skips_frozen_images() {
        use crate::domain::ExecState;
        let mut sim = booted_host(3, ServiceKind::Ssh);
        let ids = sim.host().domu_ids();
        let spec = sim.host().domain(ids[0]).unwrap().p2m.total_pages();
        let floor = spec / 2;
        // Freeze the first candidate as a warm reboot would (exec state
        // held, image pinned): reclaim must skip it entirely (I8).
        sim.host_mut().domain_mut(ids[0]).unwrap().exec_state = Some(ExecState::capture(0, 4096));
        let freed = sim.host_mut().reclaim_under_pressure(spec, floor);
        assert_eq!(freed, spec, "two thawed domains cover the request");
        assert_eq!(
            sim.host().domain(ids[0]).unwrap().p2m.total_pages(),
            spec,
            "frozen image must not shrink"
        );
        assert_eq!(sim.host().domain(ids[1]).unwrap().p2m.total_pages(), floor);
        assert_eq!(sim.host().domain(ids[2]).unwrap().p2m.total_pages(), floor);
        assert_eq!(sim.host().stats.counter("balloon.reclaimed"), spec);
        // Everyone thawed is at the floor now — nothing left to give.
        assert_eq!(sim.host_mut().reclaim_under_pressure(1, floor), 0);
        // Thaw the frozen domain: it becomes the only candidate.
        sim.host_mut().domain_mut(ids[0]).unwrap().exec_state = None;
        assert_eq!(
            sim.host_mut().reclaim_under_pressure(u64::MAX, floor),
            spec - floor
        );
        assert_eq!(sim.host().domain(ids[0]).unwrap().p2m.total_pages(), floor);
    }

    #[test]
    fn streamed_reboot_resumes_early_then_streams_in_background() {
        // Tentpole: a post-copy restore reads only the working set before
        // resume, so downtime shrinks vs the full saved restore — and the
        // residual image keeps faulting in after the reboot completes.
        let mut saved_sim = booted_host(4, ServiceKind::Ssh);
        let saved_dt = saved_sim
            .reboot_and_wait(RebootStrategy::Saved)
            .mean_downtime();
        let saved_restore = saved_sim
            .host()
            .metrics
            .duration_of(rh_obs::Phase::Restore)
            .unwrap();

        let mut sim = booted_host(4, ServiceKind::Ssh);
        let report = sim.reboot_and_wait(RebootStrategy::Streamed);
        assert_eq!(report.strategy, RebootStrategy::Streamed);
        assert!(
            report.corrupted.is_empty(),
            "streamed restore corrupted images: {report:?}"
        );
        let dt = report.mean_downtime();
        assert!(
            dt.as_secs_f64() < saved_dt.as_secs_f64() - 12.0,
            "streamed {dt} !<< saved {saved_dt}"
        );
        // The pre-resume restore reads only the working set (plus the
        // contention of already-resumed domains streaming their residuals).
        let restore = sim
            .host()
            .metrics
            .duration_of(rh_obs::Phase::Restore)
            .unwrap();
        assert!(
            restore.as_secs_f64() < 0.5 * saved_restore.as_secs_f64(),
            "streamed restore {restore} vs saved {saved_restore}"
        );
        // The Fig. 8 window: residual images are still streaming when the
        // services are already back up.
        assert_eq!(sim.host().stats.counter("stream.started"), 4);
        assert!(
            !sim.host().streaming_domains().is_empty(),
            "stream-in must outlive the reboot"
        );
        let ok = sim.run_until(DEFAULT_WAIT_CAP, |h| h.streaming_domains().is_empty());
        assert!(ok, "stream-in never drained");
        assert_eq!(sim.host().stats.counter("stream.completed"), 4);
        let stream_in = sim
            .host()
            .metrics
            .duration_of(rh_obs::Phase::StreamIn)
            .expect("stream-in phase recorded");
        assert!(stream_in.as_secs_f64() > 1.0, "stream-in = {stream_in}");
    }

    #[test]
    fn reads_during_streaming_are_degraded_by_locality() {
        // Fig. 8-style degradation: while a domain is still streaming,
        // the non-local fraction of each read faults its pages in through
        // the disk, so lower locality means lower observed throughput.
        use crate::domain::DomainSpec;
        use rh_guest::fs::FileSet;
        let run = |locality: f64| {
            let spec = DomainSpec::standard("big", ServiceKind::ApacheWeb)
                .with_mem_bytes(2 << 30)
                .with_files(FileSet::single_large_file());
            let cfg = HostConfig::paper_testbed()
                .with_domain(spec)
                .with_stream_locality(locality);
            let mut sim = HostSim::new(cfg);
            sim.power_on_and_wait();
            let id = DomainId(1);
            // The whole file is cached, so with perfect locality the
            // post-reboot read never touches the disk.
            sim.host_mut().warm_cache(id, 1);
            sim.reboot_and_wait(RebootStrategy::Streamed);
            assert!(
                sim.host().streaming_domains().contains(&id),
                "domain must still be streaming"
            );
            let tput = sim.file_read_and_wait(id, 0);
            (tput, sim.host().stats.counter("stream.fault_bytes"))
        };
        let (local_tput, local_faults) = run(1.0);
        let (faulty_tput, faults) = run(0.5);
        assert_eq!(local_faults, 0, "perfect locality must not fault");
        assert!(faults > 0, "locality 0.5 must fault pages in");
        assert!(
            faulty_tput < local_tput,
            "locality 0.5 tput {faulty_tput:.0} !< locality 1.0 {local_tput:.0}"
        );
    }

    #[test]
    fn incremental_save_writes_only_dirty_extents_after_snapshots() {
        // Tentpole: with the background delta ticker armed, the at-reboot
        // save writes only extents dirtied since the last snapshot instead
        // of the full images.
        let cfg = HostConfig::paper_testbed()
            .with_vms(2, ServiceKind::Ssh)
            .with_snapshot_interval(Some(SimDuration::from_secs(30)));
        let mut sim = HostSim::new(cfg);
        sim.power_on_and_wait();
        let ids = sim.host().domu_ids();
        // A modest dirty writer on vm1 (few enough writes between ticks to
        // stay inside the dirty log); vm2 stays idle.
        {
            let (host, sched) = sim.sim.parts_mut();
            host.start_dirty_writer(sched, ids[0], 4, SimDuration::from_secs(10));
        }
        sim.run_for(SimDuration::from_secs(125));
        let stats = &sim.host().stats;
        assert!(
            stats.counter("snapshot.delta") >= 2,
            "base snapshots + deltas captured: {}",
            stats.counter("snapshot.delta")
        );
        assert!(
            stats.counter("snapshot.clean_tick") >= 1,
            "idle vm2 must take clean ticks"
        );
        for id in &ids {
            assert!(sim.host().delta_chain(*id).is_some(), "{id} has a chain");
        }
        let report = sim.reboot_and_wait(RebootStrategy::Incremental);
        assert_eq!(report.strategy, RebootStrategy::Incremental);
        assert!(report.corrupted.is_empty(), "{report:?}");
        let full: u64 = 2 * (1 << 30);
        let saved_bytes = sim.host().stats.counter("incremental.save_bytes");
        assert!(
            saved_bytes < full / 16,
            "at-reboot save wrote {saved_bytes} of {full} bytes"
        );
    }

    #[test]
    fn incremental_without_snapshots_degenerates_to_a_full_save() {
        // No ticker armed: there are no delta chains, so the incremental
        // save has to write the full images — byte-for-byte a saved reboot.
        let mut sim = booted_host(2, ServiceKind::Ssh);
        let report = sim.reboot_and_wait(RebootStrategy::Incremental);
        assert!(report.corrupted.is_empty(), "{report:?}");
        let full: u64 = 2 * (1 << 30);
        let saved_bytes = sim.host().stats.counter("incremental.save_bytes");
        assert_eq!(saved_bytes, full, "degenerate save must write everything");

        let saved_dt = booted_host(2, ServiceKind::Ssh)
            .reboot_and_wait(RebootStrategy::Saved)
            .mean_downtime();
        let dt = report.mean_downtime();
        let diff = (dt.as_secs_f64() - saved_dt.as_secs_f64()).abs();
        assert!(diff < 1.0, "incremental {dt} vs saved {saved_dt}");
    }

    #[test]
    fn incremental_reboot_with_snapshots_beats_saved_downtime() {
        // The headline win: a warm delta chain turns the save phase from
        // minutes of full-image writes into seconds of dirty extents.
        let saved_dt = booted_host(3, ServiceKind::Ssh)
            .reboot_and_wait(RebootStrategy::Saved)
            .mean_downtime();

        let cfg = HostConfig::paper_testbed()
            .with_vms(3, ServiceKind::Ssh)
            .with_snapshot_interval(Some(SimDuration::from_secs(60)));
        let mut sim = HostSim::new(cfg);
        sim.power_on_and_wait();
        sim.run_for(SimDuration::from_secs(180));
        let report = sim.reboot_and_wait(RebootStrategy::Incremental);
        assert!(report.corrupted.is_empty(), "{report:?}");
        let dt = report.mean_downtime();
        assert!(
            dt.as_secs_f64() < saved_dt.as_secs_f64() - 20.0,
            "incremental {dt} !<< saved {saved_dt}"
        );
    }

    #[test]
    fn quick_reload_beats_hardware_reset_by_about_48s() {
        // §5.2: 11 s vs 59 s.
        let mut warm = booted_host(1, ServiceKind::Ssh);
        warm.reboot_and_wait(RebootStrategy::Warm);
        let reload = warm
            .host()
            .metrics
            .duration_of(rh_obs::Phase::QuickReload)
            .unwrap();
        let mut cold = booted_host(1, ServiceKind::Ssh);
        cold.reboot_and_wait(RebootStrategy::Cold);
        let reset = cold
            .host()
            .metrics
            .duration_of(rh_obs::Phase::HardwareReset)
            .unwrap();
        let vmm_boot = cold
            .host()
            .metrics
            .duration_of(rh_obs::Phase::VmmBoot)
            .unwrap();
        let hw_path = (reset + vmm_boot).as_secs_f64();
        let reload_s = reload.as_secs_f64();
        assert!(
            (reload_s - 11.0).abs() < 1.0,
            "quick reload = {reload_s:.1}s"
        );
        assert!(
            (hw_path - 59.0).abs() < 8.0,
            "hardware-reset VMM reboot = {hw_path:.1}s (paper: 59)"
        );
    }
}
