//! Placement property tests: capacity is never exceeded, anti-affinity
//! never lets a campaign wave take down both halves of a replica pair,
//! fleet runs are deterministic, and the free-slot index reaches exactly
//! the decisions of the reference scans.

use rh_cluster::driver::HostPhase;
use rh_fleet::config::{CampaignConfig, CampaignMode, FleetConfig};
use rh_fleet::placement::{PlacementKind, PlacementQuery};
use rh_fleet::sim::FleetSimulation;
use rh_fleet::store::{FreeSlots, PlacementStore, VmState};
use rh_fleet::workload::{SyntheticWorkload, TraceWorkload};
use rh_sim::rng::SimRng;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::SimTime;
use rh_sim::{prop_ensure, prop_ensure_eq};
use rh_vmm::config::RebootStrategy;

/// Fleet sizes around the index's 64-host word boundaries.
const HOST_COUNTS: [u32; 5] = [1, 63, 64, 65, 130];

fn any_hosts(g: &mut Gen) -> u32 {
    HOST_COUNTS[g.usize_in(0, HOST_COUNTS.len())]
}

/// A host near either end of the fleet, or anywhere in it.
fn any_host_near_ends(g: &mut Gen, hosts: u32) -> u32 {
    match g.u32_in(0, 3) {
        0 => g.u32_in(0, hosts.min(3)),
        1 => hosts - 1 - g.u32_in(0, hosts.min(3)),
        _ => g.u32_in(0, hosts),
    }
}

fn campaigned(hosts: u32, seed: u64, placement: PlacementKind, mode: CampaignMode) -> FleetConfig {
    let mut cfg = FleetConfig::datacenter(hosts).with_placement(placement);
    cfg.seed = seed;
    cfg.campaign = Some(CampaignConfig {
        strategy: RebootStrategy::Streamed,
        mode,
        start: SimTime::from_secs(800),
        ..CampaignConfig::in_place(RebootStrategy::Streamed, hosts, SimTime::from_secs(800))
    });
    cfg
}

/// No placement algorithm, under any mode (arrivals, evacuation
/// migrations, crashes), ever pushes a host past its slot capacity —
/// the store's reservation invariant, read back via the audit high-water
/// mark.
#[test]
fn no_placement_ever_exceeds_host_capacity() {
    for placement in PlacementKind::ALL {
        for mode in [CampaignMode::InPlace, CampaignMode::Evacuate] {
            for seed in [11, 2007, 90210] {
                let cfg = campaigned(40, seed, placement, mode);
                let slots = cfg.slots_per_host;
                let r = FleetSimulation::new(cfg).unwrap().run();
                assert!(
                    r.max_used <= slots,
                    "{placement}/{mode}/seed {seed}: max_used {} > {slots}",
                    r.max_used
                );
                assert!(r.placed > 0, "{placement}/{mode}/seed {seed}: empty run");
            }
        }
    }
}

/// Anti-affinity keeps replica pairs far enough apart that no campaign
/// wave (crash-free) ever holds both halves down; first-fit co-locates
/// pairs and loses them, which is the contrast that proves the property
/// is doing work rather than being vacuous.
#[test]
fn anti_affinity_never_strands_a_rejuvenating_pair() {
    for seed in [3, 2007, 424242] {
        let mut anti = campaigned(60, seed, PlacementKind::AntiAffinity, CampaignMode::InPlace);
        anti.aging = None; // crash-free: the wave is the only downtime source
        let r = FleetSimulation::new(anti).unwrap().run();
        assert_eq!(r.completed_hosts, 60, "seed {seed}: campaign unfinished");
        assert_eq!(
            r.pair_losses, 0,
            "seed {seed}: {} pairs lost",
            r.pair_losses
        );
    }
    let mut ff = campaigned(60, 2007, PlacementKind::FirstFit, CampaignMode::InPlace);
    ff.aging = None;
    let r = FleetSimulation::new(ff).unwrap().run();
    assert!(
        r.pair_losses > 0,
        "first-fit should co-locate and lose pairs"
    );
}

/// The same config produces byte-identical reports (including the full
/// metric registry) — the property `fleetbench` relies on for its
/// `--jobs 1` vs `--jobs N` comparison.
#[test]
fn identical_configs_replay_byte_identically() {
    for placement in PlacementKind::ALL {
        let cfg = campaigned(30, 77, placement, CampaignMode::Evacuate);
        let a = FleetSimulation::new(cfg.clone()).unwrap().run();
        let b = FleetSimulation::new(cfg).unwrap().run();
        assert_eq!(a, b, "{placement}");
    }
}

/// A recorded synthetic trace replayed through `with_workload` reproduces
/// the synthetic run exactly — the trace path and the live path are the
/// same simulation.
#[test]
fn trace_replay_matches_the_synthetic_run() {
    let cfg = campaigned(25, 5, PlacementKind::AntiAffinity, CampaignMode::InPlace);
    let live = FleetSimulation::new(cfg.clone()).unwrap().run();
    let mut synth = SyntheticWorkload::new(
        cfg.workload,
        cfg.horizon,
        SimRng::from_seed(cfg.seed).fork(1),
    );
    let trace = TraceWorkload::record(&mut synth);
    let replayed = FleetSimulation::with_workload(cfg, Box::new(trace))
        .unwrap()
        .run();
    assert_eq!(live, replayed);
}

/// `choose_indexed` over an index built from the query's own slices
/// returns exactly the scan's decision — host and `scanned` — for every
/// policy, across occupancy, phases, completed sets, cursor, window
/// (including windows running past the last host), peers near both ends,
/// pair spacings and capacities.
#[test]
fn indexed_placement_matches_the_scan() {
    check(
        "indexed_placement_matches_the_scan",
        &Config::with_cases(512),
        |g: &mut Gen| {
            let hosts = any_hosts(g);
            let capacity = g.u32_in(1, 10);
            let full_chance = g.f64_in(0.0, 1.0);
            let serving_chance = g.f64_in(0.2, 1.0);
            let completed_chance = g.f64_in(0.0, 1.0);
            let mut used = Vec::new();
            let mut phases = Vec::new();
            let mut completed = Vec::new();
            for _ in 0..hosts {
                used.push(if g.rng().chance(full_chance) {
                    capacity
                } else {
                    g.u32_in(0, capacity + 1)
                });
                phases.push(if g.rng().chance(serving_chance) {
                    HostPhase::Serving
                } else if g.any_bool() {
                    HostPhase::Rebooting
                } else {
                    HostPhase::Recovering
                });
                completed.push(g.rng().chance(completed_chance));
            }
            let serving: Vec<bool> = phases.iter().map(|p| *p == HostPhase::Serving).collect();
            let free = FreeSlots::build(capacity, &used, &serving);
            let q = PlacementQuery {
                used: &used,
                capacity,
                phases: &phases,
                completed: &completed,
                cursor: g.u32_in(0, hosts + 2),
                window: if g.any_bool() {
                    0
                } else {
                    g.u32_in(1, hosts + 41)
                },
                peer_host: g.any_bool().then(|| any_host_near_ends(g, hosts)),
                pair_spacing: g.u32_in(1, 41),
            };
            for kind in PlacementKind::ALL {
                let algo = kind.build();
                prop_ensure_eq!(
                    algo.choose_indexed(&q, &free),
                    algo.choose(&q),
                    "{kind} on {hosts} hosts x {capacity} slots: {q:?}"
                );
            }
            Ok(())
        },
    );
}

/// After any sequence of inserts, removals, migrations and serving
/// changes, the store's incrementally maintained index equals one rebuilt
/// from its occupancy and serving flags.
#[test]
fn maintained_index_equals_a_rebuild() {
    check(
        "maintained_index_equals_a_rebuild",
        &Config::with_cases(128),
        |g: &mut Gen| {
            let hosts = any_hosts(g);
            let capacity = g.u32_in(1, 10);
            let mut store = PlacementStore::new(hosts, capacity);
            let mut serving = vec![true; hosts as usize];
            let mut live: Vec<u32> = Vec::new();
            let steps = g.usize_in(0, 400);
            for step in 0..=steps {
                let rebuilt = FreeSlots::build(capacity, store.used(), &serving);
                prop_ensure!(
                    *store.free_slots() == rebuilt,
                    "index diverged after {step} ops on {hosts} hosts x {capacity} slots"
                );
                if step == steps {
                    break;
                }
                let host = any_host_near_ends(g, hosts);
                let has_room = store.used()[host as usize] < capacity;
                match g.u32_in(0, 5) {
                    0 | 1 if has_room => live.push(store.insert(host)),
                    2 if !live.is_empty() => {
                        let vm = live.swap_remove(g.usize_in(0, live.len()));
                        store.remove(vm);
                    }
                    3 if !live.is_empty() => {
                        let vm = live[g.usize_in(0, live.len())];
                        match store.state(vm) {
                            VmState::Placed { host: from } if from != host && has_room => {
                                store.begin_migration(vm, host);
                            }
                            VmState::Migrating { .. } => store.finish_migration(vm),
                            _ => {}
                        }
                    }
                    _ => {
                        let on = g.any_bool();
                        serving[host as usize] = on;
                        store.set_serving(host, on);
                    }
                }
            }
            Ok(())
        },
    );
}
