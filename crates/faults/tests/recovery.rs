//! Integration tests: fault plans driven through the full host world,
//! recovered by the ReHype-style engine.

use rh_faults::plan::{FaultKind, FaultPlan, Trigger};
use rh_faults::recovery::{watch_and_recover, RecoveryConfig, RecoveryPolicy, RecoveryReport};
use rh_faults::Injector;
use rh_guest::services::ServiceKind;
use rh_sim::time::SimDuration;
use rh_vmm::config::HostConfig;
use rh_vmm::domain::DomainSpec;
use rh_vmm::harness::{booted_host, HostSim, DEFAULT_WAIT_CAP};
use rh_vmm::{DomainId, InjectPoint, RebootStrategy};

/// Arms `plan` on a freshly booted `n`-guest host, commands a warm
/// reboot (the pipeline the plan's faults live in), and drives one
/// recovery under `policy`.
fn run_incident(
    n: u32,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
) -> (HostSim, Option<RecoveryReport>) {
    let mut sim = booted_host(n, ServiceKind::Ssh);
    sim.host_mut().arm_fault_hook(Box::new(Injector::new(plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.reboot(sched, RebootStrategy::Warm);
    }
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(policy));
    (sim, report)
}

fn digests(sim: &HostSim) -> Vec<(DomainId, u64)> {
    sim.host()
        .domu_ids()
        .into_iter()
        .map(|id| (id, sim.host().domain_digest(id).expect("domain exists")))
        .collect()
}

#[test]
fn same_plan_same_seed_replays_byte_identically() {
    let plan = FaultPlan::new(0xD5A1)
        .arm(
            InjectPoint::SuspendEnd,
            Trigger::Chance(0.7),
            FaultKind::VmmCrash,
        )
        .arm(
            InjectPoint::QuickReload,
            Trigger::Chance(0.5),
            FaultKind::FrameCorruption(DomainId(2)),
        );
    let (sim_a, rep_a) = run_incident(4, &plan, RecoveryPolicy::Microreboot);
    let (sim_b, rep_b) = run_incident(4, &plan, RecoveryPolicy::Microreboot);
    let rep_a = rep_a.expect("p=0.7 over four suspends fires");
    let rep_b = rep_b.expect("identical replay fires identically");
    assert_eq!(rep_a.to_string(), rep_b.to_string());
    assert_eq!(rep_a.salvaged, rep_b.salvaged);
    assert_eq!(rep_a.lost, rep_b.lost);
    assert_eq!(rep_a.fault_at, rep_b.fault_at);
    assert_eq!(rep_a.recovered_at, rep_b.recovered_at);
    assert_eq!(sim_a.now(), sim_b.now());
    assert_eq!(digests(&sim_a), digests(&sim_b));
}

#[test]
fn microreboot_salvages_frozen_domains_with_state_intact() {
    let mut sim = booted_host(4, ServiceKind::Ssh);
    let before = digests(&sim);
    let gens_before: Vec<u64> = sim
        .host()
        .domu_ids()
        .iter()
        .map(|id| service_generation(&sim, *id))
        .collect();

    // The VMM dies the moment the second guest's image is frozen: two
    // guests are already suspended, two are still running.
    let plan = FaultPlan::new(7).arm(
        InjectPoint::SuspendEnd,
        Trigger::Nth(2),
        FaultKind::VmmCrash,
    );
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.reboot(sched, RebootStrategy::Warm);
    }
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("the crash is detected and recovered");

    // ReHype's claim: the VMM was replaced, the VMs never noticed.
    assert_eq!(report.salvaged.len(), 4, "all guests salvaged: {report}");
    assert!(report.lost.is_empty(), "{report}");
    assert_eq!(digests(&sim), before, "memory images survived the crash");
    let gens_after: Vec<u64> = sim
        .host()
        .domu_ids()
        .iter()
        .map(|id| service_generation(&sim, *id))
        .collect();
    assert_eq!(gens_after, gens_before, "service processes survived");
    assert!(sim.host().all_services_up());
    assert_eq!(sim.host().vmm().generation(), 2, "VMM itself was replaced");
    assert!(!sim.host().reboot_in_progress());
    // Detection is bounded by the watchdog tick; repair is on the warm
    // scale (tens of seconds), not the cold scale (minutes).
    assert!(report.detection_latency().as_secs_f64() <= 1.5, "{report}");
    assert!(report.mttr().as_secs_f64() < 60.0, "{report}");
}

#[test]
fn corrupted_domain_is_cold_booted_never_resumed() {
    // Crash mid-suspend, then flip one frame of domain 1's frozen image
    // while the replacement VMM loads: validation must catch it.
    let plan = FaultPlan::new(11)
        .arm(
            InjectPoint::SuspendEnd,
            Trigger::Nth(2),
            FaultKind::VmmCrash,
        )
        .arm(
            InjectPoint::QuickReload,
            Trigger::Always,
            FaultKind::FrameCorruption(DomainId(1)),
        );
    let (sim, report) = run_incident(4, &plan, RecoveryPolicy::Microreboot);
    let report = report.expect("recovered");

    assert_eq!(report.lost, vec![DomainId(1)], "{report}");
    assert_eq!(report.salvaged.len(), 3, "{report}");
    // The recovery invariant: a domain is either resumed with its digest
    // intact or cold-booted — never resumed corrupted.
    let host_report = sim.host().reports().last().expect("report logged");
    assert!(
        host_report.corrupted.is_empty(),
        "corrupted domain resumed: {:?}",
        host_report.corrupted
    );
    assert_eq!(host_report.cold_booted, vec![DomainId(1)]);
    assert!(sim.host().all_services_up());
    // The cold-booted guest restarted its service process.
    assert_eq!(service_generation(&sim, DomainId(1)), 2);
    assert_eq!(service_generation(&sim, DomainId(2)), 1);
}

#[test]
fn corruption_defeats_the_digest_early_out() {
    // Every memory-preserving strategy must catch memory that changed
    // between freeze and resume: a flipped frame, or a P2M entry that now
    // points elsewhere. Only the victim's re-capture differs from its
    // frozen image, so it alone pays the full rehash and the two untouched
    // domains still early-out. Without recovery the victim is flagged in
    // the report rather than cold-booted.

    // A frozen frame flipped while the new VMM instance comes up.
    let mut cases = vec![(
        RebootStrategy::Warm,
        InjectPoint::QuickReload,
        FaultKind::FrameCorruption(DomainId(1)),
    )];
    for strategy in [
        RebootStrategy::Warm,
        RebootStrategy::Saved,
        RebootStrategy::Streamed,
        RebootStrategy::Incremental,
    ] {
        for kind in [
            FaultKind::FrameCorruption(DomainId(1)),
            FaultKind::P2mCorruption(DomainId(2)),
        ] {
            cases.push((strategy, InjectPoint::ResumeStart, kind));
        }
    }
    for (strategy, point, kind) in cases {
        let case = format!("{strategy} with {kind} at {point:?}");
        let plan = FaultPlan::new(23).arm(point, Trigger::Always, kind);
        let mut sim = booted_host(3, ServiceKind::Ssh);
        sim.host_mut()
            .arm_fault_hook(Box::new(Injector::new(&plan)));
        let report = sim.reboot_and_wait(strategy);

        let victim = kind.victim().expect("corruption faults name a victim");
        assert_eq!(report.corrupted, vec![victim], "{case}: corruption missed");
        let stats = &sim.host().stats;
        assert_eq!(
            stats.counter("digest.full_rehash"),
            1,
            "{case}: only the corrupted domain pays the full rehash"
        );
        assert_eq!(
            stats.counter("digest.early_out"),
            2,
            "{case}: the two untouched domains still early-out"
        );
    }
}

#[test]
fn injected_resume_failure_falls_back_without_leaking_channels() {
    let mut sim = booted_host(3, ServiceKind::Ssh);
    let channels_before: Vec<usize> = sim
        .host()
        .domu_ids()
        .iter()
        .map(|id| sim.host().domain(*id).expect("exists").channels.len())
        .collect();

    // Crash before any guest suspends, then make domain 2's resume fail
    // outright in the replacement VMM.
    let plan = FaultPlan::new(13)
        .arm(
            InjectPoint::StageImage,
            Trigger::Always,
            FaultKind::VmmCrash,
        )
        .arm(
            InjectPoint::ResumeStart,
            Trigger::Always,
            FaultKind::ResumeFailure(DomainId(2)),
        );
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.reboot(sched, RebootStrategy::Warm);
    }
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("recovered");

    assert_eq!(report.lost, vec![DomainId(2)], "{report}");
    assert!(sim.host().all_services_up());
    // Satellite: detach_for_suspend / reestablish_after_resume must
    // round-trip — salvaged guests get their channels back, and the
    // cold-booted guest starts a fresh standard set. No leak either way.
    let channels_after: Vec<usize> = sim
        .host()
        .domu_ids()
        .iter()
        .map(|id| sim.host().domain(*id).expect("exists").channels.len())
        .collect();
    assert_eq!(channels_after, channels_before, "channel counts drifted");
}

#[test]
fn corrupted_staged_image_aborts_reload_and_recovery_salvages_all() {
    // The staged next-VMM image is corrupted during a routine warm
    // reboot. Quick reload's integrity check rejects it, the run is
    // abandoned with the VMM down — and the recovery engine restages a
    // clean image and salvages every (already frozen) guest.
    let plan = FaultPlan::new(17).arm(
        InjectPoint::StageImage,
        Trigger::Always,
        FaultKind::XexecFailure,
    );
    let (sim, report) = run_incident(3, &plan, RecoveryPolicy::Microreboot);
    let report = report.expect("reload failure detected and recovered");

    assert_eq!(report.salvaged.len(), 3, "{report}");
    assert!(report.lost.is_empty(), "{report}");
    assert!(sim.host().all_services_up());
    assert_eq!(sim.host().vmm().generation(), 2);
    let errors = sim.host().errors();
    assert!(
        errors
            .iter()
            .any(|e| format!("{e:?}").contains("IntegrityViolation")),
        "expected an integrity violation in {errors:?}"
    );
}

#[test]
fn cold_policy_loses_everything_and_takes_longer() {
    let crash_plan = FaultPlan::new(19).arm(
        InjectPoint::SuspendEnd,
        Trigger::Nth(1),
        FaultKind::VmmCrash,
    );
    let (_, warm) = run_incident(3, &crash_plan, RecoveryPolicy::Microreboot);
    let (sim, cold) = run_incident(3, &crash_plan, RecoveryPolicy::ColdReboot);
    let warm = warm.expect("recovered");
    let cold = cold.expect("recovered");

    assert!(cold.salvaged.is_empty(), "{cold}");
    assert_eq!(cold.lost.len(), 3, "{cold}");
    assert!(sim.host().all_services_up());
    assert_eq!(
        sim.host().reports().last().expect("logged").strategy,
        RebootStrategy::Cold
    );
    assert!(
        cold.mttr().as_secs_f64() > 2.0 * warm.mttr().as_secs_f64(),
        "cold MTTR {} vs warm MTTR {}",
        cold.mttr(),
        warm.mttr()
    );
}

#[test]
fn crash_mid_stream_recovers_and_the_next_streamed_reboot_is_clean() {
    let mut sim = booted_host(3, ServiceKind::Ssh);
    // The VMM dies the instant the second restored guest's resume handler
    // finishes: the first guest is already resumed with its residual image
    // still streaming in from disk.
    let plan = FaultPlan::new(29).arm(
        InjectPoint::ResumeStart,
        Trigger::Nth(2),
        FaultKind::VmmCrash,
    );
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.reboot(sched, RebootStrategy::Streamed);
    }
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("the mid-stream crash is detected and recovered");

    // The streams died with the VMM: no ghost bookkeeping survives, and
    // the interrupted reboot never counts a completion.
    assert!(
        sim.host().stats.counter("stream.started") >= 1,
        "the crash must land while a stream is in flight"
    );
    assert_eq!(sim.host().stats.counter("stream.completed"), 0);
    assert!(sim.host().streaming_domains().is_empty());
    assert!(sim.host().all_services_up(), "{report}");
    assert!(!sim.host().reboot_in_progress());

    // The recovered host streams a whole reboot through cleanly.
    let second = sim.reboot_and_wait(RebootStrategy::Streamed);
    assert!(second.corrupted.is_empty(), "{second:?}");
    let drained = sim.run_until(DEFAULT_WAIT_CAP, |h| h.streaming_domains().is_empty());
    assert!(drained, "post-recovery stream-in never drained");
    assert_eq!(sim.host().stats.counter("stream.completed"), 3);
    assert!(sim.host().all_services_up());
}

#[test]
fn crash_mid_delta_snapshot_recovers_and_incremental_still_saves() {
    let cfg = HostConfig::paper_testbed()
        .with_domain(DomainSpec::standard("a", ServiceKind::Ssh))
        .with_domain(DomainSpec::standard("b", ServiceKind::Ssh))
        .with_snapshot_interval(Some(SimDuration::from_secs(30)));
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.start_dirty_writer(sched, DomainId(1), 4, SimDuration::from_secs(10));
    }
    let pending = sim.run_until(SimDuration::from_secs(600), |h| h.snapshot_in_flight());
    assert!(pending, "a background delta write must start");

    // The VMM dies with the snapshot write still on the disk queue.
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.fault_vmm_crash(sched);
    }
    assert!(
        !sim.host().snapshot_in_flight(),
        "the in-flight delta died with the VMM"
    );
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("the mid-snapshot crash is detected and recovered");
    assert!(sim.host().all_services_up(), "{report}");

    // The ticker resumes on the recovered host and the half-written
    // snapshot was discarded, not folded into a chain: the next
    // incremental reboot still saves and restores everything intact.
    let ticked = sim.run_until(SimDuration::from_secs(600), |h| {
        h.stats.counter("snapshot.delta") >= 1
    });
    assert!(ticked, "no snapshot completed after recovery");
    let second = sim.reboot_and_wait(RebootStrategy::Incremental);
    assert!(second.corrupted.is_empty(), "{second:?}");
    assert!(sim.host().stats.counter("incremental.save_bytes") > 0);
    assert!(sim.host().all_services_up());
}

#[test]
fn crash_during_deflate_leaves_the_p2m_and_allocator_consistent() {
    use rh_vmm::{dispatch_hooked, Domain, Hypercall, HypercallError, Vmm, VmmState};
    use std::collections::BTreeMap;

    // A guest grows back toward spec (balloon-in, the cell's revive
    // deflate) and the VMM dies at the hypercall boundary. The crash
    // lands before any frame moves: the P2M must keep its exact
    // pre-call geometry, stay injective, and a recovered VMM must be
    // able to retry the same deflate cleanly.
    let mut vmm = Vmm::new(2 * rh_memory::frame::FRAMES_PER_GIB);
    let mut contents = rh_memory::contents::FrameContents::new();
    let mut domains = BTreeMap::new();
    let mut guest = Domain::new(
        DomainId(1),
        DomainSpec::standard("fn-vm", ServiceKind::Ssh),
        0,
    );
    vmm.create_domain(&mut guest, &mut contents)
        .expect("guest fits");
    domains.insert(DomainId(1), guest);

    // Squeeze first, so the deflate has room to grow back into.
    let spec_pages = domains[&DomainId(1)].p2m.total_pages();
    rh_vmm::dispatch(
        &mut vmm,
        &mut domains,
        &mut contents,
        DomainId(1),
        Hypercall::BalloonOut { pages: 4_096 },
    )
    .expect("balloon out succeeds");
    let squeezed = domains[&DomainId(1)].p2m.total_pages();
    assert_eq!(squeezed, spec_pages - 4_096);
    let ranges_before = domains[&DomainId(1)].p2m.machine_ranges();

    let plan = FaultPlan::new(31).arm(InjectPoint::Hypercall, Trigger::Nth(1), FaultKind::VmmCrash);
    let mut hook = Injector::new(&plan);
    let err = dispatch_hooked(
        &mut vmm,
        &mut domains,
        &mut contents,
        DomainId(1),
        Hypercall::BalloonIn { pages: 4_096 },
        &mut hook,
        rh_sim::time::SimTime::ZERO,
    )
    .expect_err("the injected crash must abort the deflate");
    assert!(matches!(err, HypercallError::Vmm(_)), "{err:?}");
    assert_eq!(vmm.state(), VmmState::Down);

    // Nothing moved: same page count, same machine frames, no overlap.
    // (Recovery-side retry — a recovered host deflating the same guest
    // back to spec — is covered end to end by the harness test below.)
    let dom = &domains[&DomainId(1)];
    assert_eq!(dom.p2m.total_pages(), squeezed);
    assert_eq!(dom.p2m.machine_ranges(), ranges_before);
    dom.p2m
        .check_machine_disjoint()
        .expect("P2M stayed injective across the crash");
}

#[test]
fn ballooned_domain_survives_vmm_crash_and_deflates_after_recovery() {
    // The cell's steady state: a guest squeezed by reclaim-under-pressure
    // when the VMM crashes mid-warm-reboot. Recovery must salvage the
    // shrunk geometry bit for bit (the frozen image carries the ballooned
    // P2M), and the recovered host must still be able to deflate the
    // guest back to spec.
    let mut sim = booted_host(3, ServiceKind::Ssh);
    let id = sim.host().domu_ids()[0];
    let spec_pages = sim.host().domain(id).expect("exists").p2m.total_pages();
    let squeeze = spec_pages / 4;
    sim.host_mut()
        .balloon(id, -(squeeze as i64))
        .expect("squeeze succeeds");
    let shrunk = sim.host().domain(id).expect("exists").p2m.total_pages();
    let digest_before = sim.host().domain_digest(id).expect("digest");

    let plan = FaultPlan::new(37).arm(
        InjectPoint::SuspendEnd,
        Trigger::Nth(2),
        FaultKind::VmmCrash,
    );
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.reboot(sched, RebootStrategy::Warm);
    }
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("the crash is detected and recovered");
    assert_eq!(report.salvaged.len(), 3, "{report}");
    assert!(report.lost.is_empty(), "{report}");

    let d = sim.host().domain(id).expect("exists");
    assert_eq!(d.p2m.total_pages(), shrunk, "ballooned geometry salvaged");
    assert_eq!(
        sim.host().domain_digest(id).expect("digest"),
        digest_before,
        "squeezed image changed across crash + recovery"
    );

    // And the recovered host still serves the deflate path: grow the
    // guest back to spec, frame accounting intact.
    sim.host_mut()
        .balloon(id, squeeze as i64)
        .expect("deflate back to spec after recovery");
    assert_eq!(
        sim.host().domain(id).expect("exists").p2m.total_pages(),
        spec_pages
    );
    assert!(sim.host().all_services_up());
}

fn service_generation(sim: &HostSim, id: DomainId) -> u64 {
    sim.host()
        .domain(id)
        .expect("domain exists")
        .service
        .as_ref()
        .expect("service configured")
        .generation()
}
