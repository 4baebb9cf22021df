//! Golden typed-event traces: pins the exact event sequence every reboot
//! strategy emits on a canonical 2-domain host (plus the warm reboot with
//! a driver domain and under the original-Xen suspend ordering), and the
//! recovery sequence of a crash-during-suspend incident driven through
//! `watch_and_recover`. Any reordering of a reboot pipeline — or a silent
//! change to what the host reports — shows up here as a readable diff of
//! typed events.

use rh_faults::plan::{FaultKind, FaultPlan, Trigger};
use rh_faults::recovery::{watch_and_recover, RecoveryConfig, RecoveryPolicy};
use rh_faults::Injector;
use rh_guest::services::ServiceKind;
use rh_obs::{DomId, Event, Phase, RecoveryKind, StrategyKind};
use rh_sim::time::SimDuration;
use rh_vmm::harness::{booted_host, HostSim, DEFAULT_WAIT_CAP};
use rh_vmm::{DomainId, DomainSpec, HostConfig, InjectPoint, RebootStrategy, SuspendOrder};

/// The trace tail starting at the first occurrence of `anchor`.
fn events_from(sim: &HostSim, anchor: &Event) -> Vec<Event> {
    let records = sim.host().trace.records();
    let start = records
        .iter()
        .position(|r| r.event == *anchor)
        .expect("anchor event present in trace");
    records[start..].iter().map(|r| r.event.clone()).collect()
}

/// The quick-reload accounting note for two standard 1 GiB guests.
fn reload_note() -> Event {
    Event::note(
        "vmm",
        "quick reload (2 GiB frozen; 4096 KiB of P2M tables + 32 KiB exec state preserved)",
    )
}

/// Quick reload through dom0 coming back up (memory-preserving path).
fn quick_reload_to_dom0_up() -> Vec<Event> {
    vec![
        Event::PhaseBegin(Phase::QuickReload),
        reload_note(),
        Event::PhaseEnd(Phase::QuickReload),
        Event::VmmUp { generation: 2 },
        Event::PhaseBegin(Phase::Dom0Boot),
        Event::PhaseEnd(Phase::Dom0Boot),
        Event::Dom0Up,
    ]
}

/// Hardware reset through dom0 coming back up (cold and disk paths).
fn hw_reset_to_dom0_up() -> Vec<Event> {
    vec![
        Event::PhaseBegin(Phase::HardwareReset),
        Event::HardwareReset,
        Event::PhaseEnd(Phase::HardwareReset),
        Event::PhaseBegin(Phase::VmmBoot),
        Event::VmmBooting { generation: 2 },
        Event::PhaseEnd(Phase::VmmBoot),
        Event::PhaseBegin(Phase::Dom0Boot),
        Event::PhaseEnd(Phase::Dom0Boot),
        Event::Dom0Up,
    ]
}

/// A warm reboot's opening: xexec staging, then dom0 starts shutting down.
fn warm_prologue() -> Vec<Event> {
    // Note the xexec quirk: staging completes *logically* at command time
    // (its PhaseEnd is emitted eagerly, timestamped 1 s later), so the
    // XexecLoad span closes in the log before `XexecStaged` appears.
    vec![
        Event::RebootCommanded(StrategyKind::Warm),
        Event::PhaseBegin(Phase::Reboot),
        Event::PhaseBegin(Phase::XexecLoad),
        Event::PhaseEnd(Phase::XexecLoad),
        Event::XexecStaged { version: 2 },
        Event::PhaseBegin(Phase::Dom0Shutdown),
    ]
}

/// A disk strategy's save phase for both guests, with the two `Saved`
/// events in `saved_order`, through dom0's shutdown after the saves.
fn disk_prologue(kind: StrategyKind, saved_order: [u32; 2]) -> Vec<Event> {
    vec![
        Event::RebootCommanded(kind),
        Event::PhaseBegin(Phase::Reboot),
        Event::PhaseBegin(Phase::Save),
        Event::Suspending(DomId(1)),
        Event::Suspending(DomId(2)),
        Event::Frozen(DomId(1)),
        Event::SaveStarted(DomId(1)),
        Event::Frozen(DomId(2)),
        Event::SaveStarted(DomId(2)),
        Event::Saved(DomId(saved_order[0])),
        Event::Saved(DomId(saved_order[1])),
        Event::PhaseEnd(Phase::Save),
        Event::PhaseBegin(Phase::Dom0Shutdown),
        Event::PhaseEnd(Phase::Dom0Shutdown),
        Event::Dom0Down,
    ]
}

/// A full-image restore of both guests, one at a time.
fn serial_restores() -> Vec<Event> {
    vec![
        Event::PhaseBegin(Phase::Restore),
        Event::RestoreStarted(DomId(1)),
        Event::Restored(DomId(1)),
        Event::Resumed(DomId(1)),
        Event::RestoreStarted(DomId(2)),
        Event::Restored(DomId(2)),
        Event::Resumed(DomId(2)),
        Event::PhaseEnd(Phase::Restore),
    ]
}

/// The closing pair of every reboot.
fn epilogue(kind: StrategyKind) -> Vec<Event> {
    vec![Event::PhaseEnd(Phase::Reboot), Event::RebootComplete(kind)]
}

/// Boots the host `cfg` describes.
fn booted(cfg: HostConfig) -> HostSim {
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim
}

/// Two standard ssh guests with the delta-snapshot ticker armed and a
/// dirty writer on vm1, run until delta snapshots have landed: the
/// incremental save then writes vm1's dirty extents and nothing of vm2.
fn with_landed_deltas() -> HostSim {
    let cfg = HostConfig::paper_testbed()
        .with_vms(2, ServiceKind::Ssh)
        .with_snapshot_interval(Some(SimDuration::from_secs(30)));
    let mut sim = booted(cfg);
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.start_dirty_writer(sched, DomainId(1), 4, SimDuration::from_secs(10));
    }
    sim.run_for(SimDuration::from_secs(125));
    assert!(sim.host().stats.counter("snapshot.delta") >= 2);
    sim
}

/// One golden row: a booted host, the strategy it reboots with, and the
/// typed trace from `RebootCommanded` until the reboot completes and any
/// streamed residual images have landed.
struct Golden {
    name: &'static str,
    host: fn() -> HostSim,
    strategy: RebootStrategy,
    expected: Vec<Event>,
}

fn goldens() -> Vec<Golden> {
    let warm = [
        warm_prologue(),
        vec![
            Event::PhaseEnd(Phase::Dom0Shutdown),
            Event::Dom0Down,
            Event::PhaseBegin(Phase::Suspend),
            Event::Suspending(DomId(1)),
            Event::Suspending(DomId(2)),
            Event::Frozen(DomId(1)),
            Event::Frozen(DomId(2)),
            Event::PhaseEnd(Phase::Suspend),
        ],
        quick_reload_to_dom0_up(),
        vec![
            Event::PhaseBegin(Phase::Resume),
            Event::Resuming(DomId(1)),
            Event::Resumed(DomId(1)),
            Event::Resuming(DomId(2)),
            Event::Resumed(DomId(2)),
            Event::PhaseEnd(Phase::Resume),
        ],
        epilogue(StrategyKind::Warm),
    ]
    .concat();
    let cold = [
        vec![
            Event::RebootCommanded(StrategyKind::Cold),
            Event::PhaseBegin(Phase::Reboot),
            Event::PhaseBegin(Phase::Dom0Shutdown),
            Event::PhaseBegin(Phase::GuestShutdown),
            Event::GuestShuttingDown(DomId(1)),
            Event::GuestShuttingDown(DomId(2)),
            Event::PhaseEnd(Phase::Dom0Shutdown),
            Event::Dom0Down,
            Event::GuestOff(DomId(1)),
            Event::GuestOff(DomId(2)),
            Event::PhaseEnd(Phase::GuestShutdown),
        ],
        hw_reset_to_dom0_up(),
        vec![
            Event::PhaseBegin(Phase::GuestBoot),
            Event::GuestCreated(DomId(1)),
            Event::GuestCreated(DomId(2)),
            Event::GuestBooted(DomId(1)),
            Event::GuestBooted(DomId(2)),
            Event::ServiceUp(DomId(1)),
            Event::ServiceUp(DomId(2)),
            Event::PhaseEnd(Phase::GuestBoot),
        ],
        epilogue(StrategyKind::Cold),
    ]
    .concat();
    let saved = [
        disk_prologue(StrategyKind::Saved, [1, 2]),
        hw_reset_to_dom0_up(),
        serial_restores(),
        epilogue(StrategyKind::Saved),
    ]
    .concat();
    // Each guest resumes once its working set is read; the residual
    // streams land after the reboot has completed.
    let streamed = [
        disk_prologue(StrategyKind::Streamed, [1, 2]),
        hw_reset_to_dom0_up(),
        vec![
            Event::PhaseBegin(Phase::Restore),
            Event::RestoreStarted(DomId(1)),
            Event::Restored(DomId(1)),
            Event::StreamStarted(DomId(1)),
            Event::PhaseBegin(Phase::StreamIn),
            Event::Resumed(DomId(1)),
            Event::RestoreStarted(DomId(2)),
            Event::Restored(DomId(2)),
            Event::StreamStarted(DomId(2)),
            Event::Resumed(DomId(2)),
            Event::PhaseEnd(Phase::Restore),
        ],
        epilogue(StrategyKind::Streamed),
        vec![
            Event::StreamCompleted(DomId(1)),
            Event::StreamCompleted(DomId(2)),
            Event::PhaseEnd(Phase::StreamIn),
        ],
    ]
    .concat();
    // vm2 is clean since its last delta, so its save (the exec-state
    // record alone) lands before vm1's dirty extents.
    let incremental = [
        disk_prologue(StrategyKind::Incremental, [2, 1]),
        hw_reset_to_dom0_up(),
        serial_restores(),
        epilogue(StrategyKind::Incremental),
    ]
    .concat();
    // The driver domain cannot be suspended (§7): it shuts down beside
    // the freezing guests and cold-boots after their resumes.
    let warm_driver_last = [
        warm_prologue(),
        vec![
            Event::PhaseEnd(Phase::Dom0Shutdown),
            Event::Dom0Down,
            Event::PhaseBegin(Phase::Suspend),
            Event::Suspending(DomId(1)),
            Event::Suspending(DomId(2)),
            Event::GuestShuttingDown(DomId(3)),
            Event::Frozen(DomId(1)),
            Event::Frozen(DomId(2)),
            Event::GuestOff(DomId(3)),
            Event::PhaseEnd(Phase::Suspend),
        ],
        quick_reload_to_dom0_up(),
        vec![
            Event::PhaseBegin(Phase::Resume),
            Event::Resuming(DomId(1)),
            Event::Resumed(DomId(1)),
            Event::Resuming(DomId(2)),
            Event::Resumed(DomId(2)),
            Event::GuestCreated(DomId(3)),
            Event::GuestBooted(DomId(3)),
            Event::ServiceUp(DomId(3)),
            Event::PhaseEnd(Phase::Resume),
        ],
        epilogue(StrategyKind::Warm),
    ]
    .concat();
    // Original-Xen ordering: the guests freeze while dom0 is still
    // shutting down, so the suspend span opens inside dom0's shutdown.
    let warm_dom0_during_shutdown = [
        warm_prologue(),
        vec![
            Event::PhaseBegin(Phase::Suspend),
            Event::Suspending(DomId(1)),
            Event::Suspending(DomId(2)),
            Event::Frozen(DomId(1)),
            Event::Frozen(DomId(2)),
            Event::PhaseEnd(Phase::Dom0Shutdown),
            Event::Dom0Down,
            Event::PhaseEnd(Phase::Suspend),
        ],
        quick_reload_to_dom0_up(),
        vec![
            Event::PhaseBegin(Phase::Resume),
            Event::Resuming(DomId(1)),
            Event::Resumed(DomId(1)),
            Event::Resuming(DomId(2)),
            Event::Resumed(DomId(2)),
            Event::PhaseEnd(Phase::Resume),
        ],
        epilogue(StrategyKind::Warm),
    ]
    .concat();

    let two_ssh = || booted_host(2, ServiceKind::Ssh);
    vec![
        Golden {
            name: "warm",
            host: two_ssh,
            strategy: RebootStrategy::Warm,
            expected: warm,
        },
        Golden {
            name: "cold",
            host: two_ssh,
            strategy: RebootStrategy::Cold,
            expected: cold,
        },
        Golden {
            name: "saved",
            host: two_ssh,
            strategy: RebootStrategy::Saved,
            expected: saved,
        },
        Golden {
            name: "streamed",
            host: two_ssh,
            strategy: RebootStrategy::Streamed,
            expected: streamed,
        },
        Golden {
            name: "incremental after landed deltas",
            host: with_landed_deltas,
            strategy: RebootStrategy::Incremental,
            expected: incremental,
        },
        Golden {
            name: "warm with a driver domain last",
            host: || {
                booted(
                    HostConfig::paper_testbed()
                        .with_vms(2, ServiceKind::Ssh)
                        .with_domain(
                            DomainSpec::standard("drv", ServiceKind::Ssh).as_driver_domain(),
                        ),
                )
            },
            strategy: RebootStrategy::Warm,
            expected: warm_driver_last,
        },
        Golden {
            name: "warm under Dom0DuringShutdown",
            host: || {
                booted(
                    HostConfig::paper_testbed()
                        .with_vms(2, ServiceKind::Ssh)
                        .with_suspend_order(SuspendOrder::Dom0DuringShutdown),
                )
            },
            strategy: RebootStrategy::Warm,
            expected: warm_dom0_during_shutdown,
        },
    ]
}

/// Runs `golden`'s reboot and compares its typed trace.
fn check(golden: &Golden) {
    let mut sim = (golden.host)();
    sim.reboot_and_wait(golden.strategy);
    assert!(
        sim.run_until(DEFAULT_WAIT_CAP, |h| h.streaming_domains().is_empty()),
        "{}: streams never landed",
        golden.name
    );
    let actual = events_from(&sim, &Event::RebootCommanded(golden.strategy.into()));
    assert_eq!(
        actual, golden.expected,
        "{}: typed trace diverged from the golden sequence",
        golden.name
    );
}

#[test]
fn warm_reboot_emits_the_canonical_typed_sequence() {
    let goldens = goldens();
    check(&goldens[0]);
}

#[test]
fn every_strategy_emits_its_canonical_typed_sequence() {
    let goldens = goldens();
    let covered: Vec<RebootStrategy> = goldens.iter().map(|g| g.strategy).collect();
    for strategy in RebootStrategy::ALL {
        assert!(covered.contains(&strategy), "no golden for {strategy}");
    }
    for golden in &goldens {
        check(golden);
    }
}

#[test]
fn recovery_from_crash_during_suspend_emits_the_golden_sequence() {
    // A VMM crash while domU1 is already frozen but domU2 is not: the
    // watchdog detects the silent failure, ReHype microreboots the VMM in
    // place, and both domains are salvaged (frozen memory plus the still-
    // running domU2 suspended state survive the reload).
    let plan = FaultPlan::new(7).arm(
        InjectPoint::SuspendEnd,
        Trigger::Always,
        FaultKind::VmmCrash,
    );
    let mut sim = booted_host(2, ServiceKind::Ssh);
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.reboot(sched, RebootStrategy::Warm);
    }
    let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("Always-trigger fires on the first suspend");
    assert_eq!(report.salvaged.len(), 2);
    assert!(report.lost.is_empty());

    let expected = vec![
        Event::VmmFailed,
        Event::RecoveryCommanded(RecoveryKind::Microreboot),
        Event::PhaseBegin(Phase::Reboot),
        Event::Salvaged(DomId(1)),
        Event::Salvaged(DomId(2)),
        Event::PhaseBegin(Phase::QuickReload),
        reload_note(),
        Event::PhaseEnd(Phase::QuickReload),
        Event::VmmUp { generation: 2 },
        Event::PhaseBegin(Phase::Dom0Boot),
        Event::PhaseEnd(Phase::Dom0Boot),
        Event::Dom0Up,
        Event::PhaseBegin(Phase::Resume),
        Event::Resuming(DomId(1)),
        Event::Resumed(DomId(1)),
        Event::Resuming(DomId(2)),
        Event::Resumed(DomId(2)),
        Event::PhaseEnd(Phase::Resume),
        Event::PhaseEnd(Phase::Reboot),
        Event::RebootComplete(StrategyKind::Warm),
    ];
    let actual = events_from(&sim, &Event::VmmFailed);
    assert_eq!(
        actual, expected,
        "recovery typed trace diverged from the golden sequence"
    );

    // Only domU1 froze before the crash — the trace shows the partial
    // suspend the recovery had to cope with.
    let reboot = events_from(&sim, &Event::RebootCommanded(StrategyKind::Warm));
    let frozen: Vec<&Event> = reboot
        .iter()
        .filter(|e| matches!(e, Event::Frozen(_)))
        .collect();
    assert_eq!(frozen, vec![&Event::Frozen(DomId(1))]);

    // Recovery accounting landed in the host metrics registry.
    let stats = &sim.host().stats;
    assert_eq!(stats.counter("recovery.incident"), 1);
    assert_eq!(stats.counter("recovery.salvaged_domains"), 2);
    assert_eq!(stats.counter("recovery.lost_domains"), 0);
    assert_eq!(stats.timer("recovery.mttr").expect("mttr timer").count(), 1);
}
