//! The fleet sweep behind `fleetbench`: placement × campaign × fleet size.
//!
//! Each cell runs one full [`rh_fleet::FleetSimulation`] — a datacenter of
//! host cells under the synthetic Poisson/diurnal workload, rolling a
//! rejuvenation campaign across the fleet — and reports the SLA ledger:
//! minimum serving fraction, seconds below the floor, replica pairs lost,
//! migrations, and when the campaign finished. The headline contrast the
//! acceptance gate pins down: `RejuvAntiAffinity` placement with streamed
//! reboots holds the 97 % floor at the default 2 % wave width, while
//! `FirstFit` (which packs full hosts for the early waves to take down)
//! with cold reboots violates it.
//!
//! Workloads are seeded per fleet *size* (`FleetConfig::datacenter`), so
//! every placement/campaign combination at a given size faces the same
//! arrival trace — the comparison is pure policy, and the whole sweep is
//! byte-identical at any `--jobs` count.

use rh_fleet::config::{CampaignConfig, CampaignMode, FleetConfig};
use rh_fleet::placement::PlacementKind;
use rh_fleet::sim::FleetSimulation;
use rh_sim::time::SimTime;
use rh_vmm::config::RebootStrategy;

use crate::exec::{Sweep, DEFAULT_SEED};
use crate::util::{secs, Table};

/// One cell of the fleet grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetCell {
    /// Fleet size in hosts.
    pub hosts: u32,
    /// Placement algorithm.
    pub placement: PlacementKind,
    /// Campaign mode (in-place or evacuate-first).
    pub mode: CampaignMode,
    /// Reboot strategy each host uses.
    pub strategy: RebootStrategy,
    /// Shortened horizon for the quick profile.
    pub quick: bool,
}

/// One measured fleet point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPoint {
    /// The swept cell.
    pub cell: FleetCell,
    /// Scheduler events fired.
    pub events: u64,
    /// VM placement attempts.
    pub arrivals: u64,
    /// High-water mark of live VMs.
    pub peak_vms: u32,
    /// Minimum serving fraction after the transient.
    pub min_capacity: f64,
    /// Seconds spent below the SLA floor.
    pub sla_violation_s: f64,
    /// Replica pairs with both halves down at once.
    pub pair_losses: u64,
    /// Completed live migrations.
    pub migrations: u64,
    /// Campaign finish time, seconds (None: horizon hit first).
    pub finished_s: Option<f64>,
}

/// The campaign combinations swept at each size, in display order.
pub const CAMPAIGNS: [(CampaignMode, RebootStrategy); 4] = [
    (CampaignMode::InPlace, RebootStrategy::Cold),
    (CampaignMode::InPlace, RebootStrategy::Warm),
    (CampaignMode::InPlace, RebootStrategy::Streamed),
    (CampaignMode::Evacuate, RebootStrategy::Warm),
];

/// The sweep grid. Full: {1000, 5000} hosts × every placement × every
/// campaign combination. Quick: 200 hosts × {first-fit, anti-affinity} ×
/// in-place {cold, streamed} on a 6,000 s horizon — the determinism smoke
/// `scripts/verify.sh` compares across worker counts.
pub fn grid(quick: bool) -> Vec<FleetCell> {
    let mut cells = Vec::new();
    if quick {
        for placement in [PlacementKind::FirstFit, PlacementKind::AntiAffinity] {
            for strategy in [RebootStrategy::Cold, RebootStrategy::Streamed] {
                cells.push(FleetCell {
                    hosts: 200,
                    placement,
                    mode: CampaignMode::InPlace,
                    strategy,
                    quick,
                });
            }
        }
        return cells;
    }
    for &hosts in &[1000u32, 5000] {
        for placement in PlacementKind::ALL {
            for (mode, strategy) in CAMPAIGNS {
                cells.push(FleetCell {
                    hosts,
                    placement,
                    mode,
                    strategy,
                    quick,
                });
            }
        }
    }
    cells
}

/// The [`FleetConfig`] a cell runs: the calibrated datacenter shape for
/// its size (same seed ⇒ same workload for every policy at that size),
/// plus the cell's campaign starting after the fill-up transient.
pub fn config(cell: FleetCell) -> FleetConfig {
    let mut cfg = FleetConfig::datacenter(cell.hosts).with_placement(cell.placement);
    let start = if cell.quick { 500 } else { 1000 };
    let mut campaign =
        CampaignConfig::in_place(cell.strategy, cell.hosts, SimTime::from_secs(start));
    campaign.mode = cell.mode;
    cfg.campaign = Some(campaign);
    if cell.quick {
        cfg.horizon = rh_sim::time::SimDuration::from_secs(6000);
    }
    cfg
}

/// Measures one cell (one fresh deterministic fleet run).
pub fn measure(cell: FleetCell) -> FleetPoint {
    let r = FleetSimulation::new(config(cell))
        // lint:allow(unwrap-panic): config() builds from the validated datacenter preset
        .expect("fleet grid configs are valid")
        .run();
    assert!(
        r.max_used <= config(cell).slots_per_host,
        "capacity invariant violated: {} slots used",
        r.max_used
    );
    FleetPoint {
        cell,
        events: r.events,
        arrivals: r.arrivals,
        peak_vms: r.peak_vms,
        min_capacity: r.min_capacity,
        sla_violation_s: r.sla_violation.as_secs_f64(),
        pair_losses: r.pair_losses,
        migrations: r.migrations,
        finished_s: r.campaign_finished.map(|t| t.as_secs_f64()),
    }
}

/// The fleet sweep as executor points, one per grid cell.
pub fn sweep_points(cells: &[FleetCell]) -> Sweep<FleetPoint> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for &cell in cells {
        sweep.point(
            format!(
                "fleet/{}h/{}/{}-{}",
                cell.hosts, cell.placement, cell.mode, cell.strategy
            ),
            move |_rng| measure(cell),
        );
    }
    sweep
}

/// Renders the sweep table.
pub fn render(rows: &[FleetPoint]) -> Table {
    let mut t = Table::new(
        "fleet: SLA-aware rolling campaigns at datacenter scale",
        &[
            "hosts",
            "placement",
            "campaign",
            "events",
            "peak",
            "min%",
            "viol",
            "pairs",
            "migr",
            "finish",
        ],
    );
    for r in rows {
        t.row(vec![
            r.cell.hosts.to_string(),
            r.cell.placement.to_string(),
            format!("{}-{}", r.cell.mode, r.cell.strategy),
            r.events.to_string(),
            r.peak_vms.to_string(),
            format!("{:.2}", r.min_capacity * 100.0),
            secs(r.sla_violation_s),
            r.pair_losses.to_string(),
            r.migrations.to_string(),
            r.finished_s.map_or_else(|| "-".into(), secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_the_policy_contrast() {
        let rows = sweep_points(&grid(true)).run_values(2);
        assert_eq!(rows.len(), grid(true).len(), "every cell must complete");
        let at = |p, s| {
            rows.iter()
                .find(|r| r.cell.placement == p && r.cell.strategy == s)
                .unwrap()
        };
        let bad = at(PlacementKind::FirstFit, RebootStrategy::Cold);
        let good = at(PlacementKind::AntiAffinity, RebootStrategy::Streamed);
        // First-fit packs full hosts: each wave suspends ~3.6 % of VMs,
        // breaching the 97 % floor; spreading keeps waves at ~2 %.
        assert!(bad.sla_violation_s > 0.0, "bad {:?}", bad);
        assert!(bad.min_capacity < 0.97);
        assert_eq!(good.sla_violation_s, 0.0, "good {:?}", good);
        assert!(good.min_capacity >= 0.97);
        for r in &rows {
            assert!(r.arrivals > 1000, "{:?}", r.cell);
        }
    }

    #[test]
    fn quick_sweep_is_identical_for_any_worker_count() {
        let sequential = render(&sweep_points(&grid(true)).run_values(1)).render();
        let parallel = render(&sweep_points(&grid(true)).run_values(4)).render();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn full_grid_shape_and_event_floor() {
        let cells = grid(false);
        assert_eq!(cells.len(), 2 * 3 * 4);
        assert!(cells.iter().all(|c| c.hosts >= 1000));
        // The acceptance floor: ≥ 100k VM lifecycle events per point.
        // Arrivals alone: 0.55 · 8 · hosts / 900 s · 15,000 s ≈ 73 k VMs
        // at 1,000 hosts, each with a departure — ~146 k events minimum.
        let cfg = config(cells[0]);
        let expected = cfg.workload.arrival_rate * cfg.horizon.as_secs_f64() * 2.0;
        assert!(expected > 100_000.0, "expected ~{expected:.0} events");
    }

    #[test]
    fn render_shape() {
        let rows = vec![FleetPoint {
            cell: FleetCell {
                hosts: 1000,
                placement: PlacementKind::AntiAffinity,
                mode: CampaignMode::InPlace,
                strategy: RebootStrategy::Streamed,
                quick: false,
            },
            events: 150_000,
            arrivals: 73_000,
            peak_vms: 4900,
            min_capacity: 0.979,
            sla_violation_s: 0.0,
            pair_losses: 0,
            migrations: 0,
            finished_s: Some(7350.5),
        }];
        let out = render(&rows).render();
        assert!(out.contains("anti-affinity"), "{out}");
        assert!(out.contains("in-place-streamed"), "{out}");
        assert!(out.contains("97.90"), "{out}");
    }
}
