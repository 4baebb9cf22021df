//! The serverless-cell sweep behind `cellbench`: arrival load × overcommit
//! × provisioning strategy.
//!
//! Each cell runs one full [`rh_cell::CellSimulation`] — a single
//! overcommitted host serving a Poisson/diurnal stream of short-lived
//! function VMs (DESIGN.md §17) — and reports the cold-start latency
//! percentiles plus the memory ledger: warm-pool hits, balloon reclaim
//! volume, queue/rejection counts, and mean frame utilization. The
//! headline contrast the acceptance gate pins down: at ≥ 1.5×
//! overcommit, balloon-reclaim + warm pool beats cold re-provision on
//! P99 cold-start, because a queued cold boot waits for a departure
//! (seconds) while a reclaim squeezes running guests (milliseconds).
//!
//! Every point is a fixed-seed simulation (`CellConfig::steady` keeps
//! the seed constant across strategies, so every strategy at a given
//! load faces the same arrival trace) — the whole sweep is byte-identical
//! at any `--jobs` count.

use rh_cell::{CellConfig, CellSimulation, ProvisionStrategy};
use rh_sim::time::SimDuration;

use crate::exec::{Sweep, DEFAULT_SEED};
use crate::util::Table;

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCell {
    /// Offered load as a fraction of the host's un-overcommitted VM
    /// capacity (1.0 = arrivals exactly fill the physical slots).
    pub load: f64,
    /// Pseudo-physical overcommit ratio.
    pub overcommit: f64,
    /// Provisioning strategy under test.
    pub strategy: ProvisionStrategy,
    /// Shortened horizon for the quick profile.
    pub quick: bool,
}

/// One measured cell point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPoint {
    /// The swept cell.
    pub cell: CellCell,
    /// Scheduler events processed (arrivals + departures).
    pub events: u64,
    /// VMs provisioned (cold + warm).
    pub provisioned: u64,
    /// Warm-pool hits.
    pub warm_hits: u64,
    /// Arrivals that waited for frames before booting.
    pub queued: u64,
    /// Arrivals turned away at the admission cap.
    pub rejected: u64,
    /// Median cold-start latency.
    pub p50: SimDuration,
    /// Tail cold-start latency.
    pub p99: SimDuration,
    /// Mean machine-frame utilization over the run.
    pub utilization: f64,
    /// Pages squeezed out of running guests under pressure.
    pub reclaimed_pages: u64,
    /// Parked warm images evicted to free frames (always 0, see
    /// [`rh_cell::CellReport::evicted`]).
    pub evicted: u64,
}

/// The strategies swept at each (load, overcommit) point, display order.
pub const STRATEGIES: [ProvisionStrategy; 3] = ProvisionStrategy::ALL;

/// The sweep grid. Full: load {0.85, 1.05} × overcommit {1.0, 1.5, 2.0}
/// × every strategy on the steady 1,200 s horizon. Quick: load 1.05 ×
/// overcommit {1.0, 1.5} × every strategy on a 600 s horizon — the
/// determinism smoke `scripts/verify.sh` compares across worker counts.
pub fn grid(quick: bool) -> Vec<CellCell> {
    let mut cells = Vec::new();
    if quick {
        for &overcommit in &[1.0, 1.5] {
            for strategy in STRATEGIES {
                cells.push(CellCell {
                    load: 1.05,
                    overcommit,
                    strategy,
                    quick,
                });
            }
        }
        return cells;
    }
    for &load in &[0.85, 1.05] {
        for &overcommit in &[1.0, 1.5, 2.0] {
            for strategy in STRATEGIES {
                cells.push(CellCell {
                    load,
                    overcommit,
                    strategy,
                    quick,
                });
            }
        }
    }
    cells
}

/// The [`CellConfig`] a cell runs: the steady preset for its strategy
/// and overcommit, with the arrival rate rescaled to the cell's load
/// factor (same seed ⇒ same arrival trace for every strategy) and the
/// quick profile's shortened horizon.
pub fn config(cell: CellCell) -> CellConfig {
    let mut cfg = CellConfig::steady(cell.strategy, cell.overcommit);
    let slots = (cfg.host_frames / cfg.vm_pages) as f64;
    cfg.workload.arrival_rate = slots * cell.load / cfg.workload.mean_lifetime.as_secs_f64();
    if cell.quick {
        cfg.horizon = SimDuration::from_secs(600);
    }
    cfg
}

/// Measures one cell (one fresh deterministic cell run).
pub fn measure(cell: CellCell) -> CellPoint {
    let r = CellSimulation::new(config(cell))
        // lint:allow(unwrap-panic): config() builds from the validated steady preset
        .expect("cell grid configs are valid")
        .run()
        // lint:allow(unwrap-panic): steady runs cannot fail mid-flight
        .expect("cell grid runs complete");
    CellPoint {
        cell,
        events: r.events,
        provisioned: r.provisioned,
        warm_hits: r.warm_hits,
        queued: r.queued,
        rejected: r.rejected,
        p50: r.p50(),
        p99: r.p99(),
        utilization: r.mean_utilization,
        reclaimed_pages: r.reclaimed_pages,
        evicted: r.evicted,
    }
}

/// The cell sweep as executor points, one per grid cell.
pub fn sweep_points(cells: &[CellCell]) -> Sweep<CellPoint> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for &cell in cells {
        sweep.point(
            format!(
                "cell/{:.0}%/{:.1}x/{}",
                cell.load * 100.0,
                cell.overcommit,
                cell.strategy
            ),
            move |_rng| measure(cell),
        );
    }
    sweep
}

/// Renders the sweep table.
pub fn render(rows: &[CellPoint]) -> Table {
    let mut t = Table::new(
        "cell: cold-start latency vs overcommit per provisioning strategy",
        &[
            "load", "oc", "strategy", "vms", "warm", "queued", "rej", "p50", "p99", "util%",
            "reclaim", "evict",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.0}%", r.cell.load * 100.0),
            format!("{:.1}x", r.cell.overcommit),
            r.cell.strategy.to_string(),
            r.provisioned.to_string(),
            r.warm_hits.to_string(),
            r.queued.to_string(),
            r.rejected.to_string(),
            r.p50.to_string(),
            r.p99.to_string(),
            format!("{:.1}", r.utilization * 100.0),
            r.reclaimed_pages.to_string(),
            r.evicted.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_the_strategy_contrast() {
        let rows = sweep_points(&grid(true)).run_values(2);
        assert_eq!(rows.len(), grid(true).len(), "every cell must complete");
        let at = |oc: f64, s| {
            rows.iter()
                .find(|r| r.cell.overcommit == oc && r.cell.strategy == s)
                .unwrap()
        };
        // The acceptance contrast: at 1.5× overcommit balloon-reclaim
        // beats cold re-provision on tail cold-start, because reclaim
        // frees frames in milliseconds while a queued cold boot waits
        // for a departure.
        let cold = at(1.5, ProvisionStrategy::Cold);
        let balloon = at(1.5, ProvisionStrategy::BalloonReclaim);
        assert!(
            balloon.p99 < cold.p99,
            "balloon p99 {} must beat cold p99 {}",
            balloon.p99,
            cold.p99
        );
        assert!(balloon.reclaimed_pages > 0, "{balloon:?}");
        assert!(balloon.warm_hits > 0, "{balloon:?}");
        assert_eq!(cold.warm_hits, 0, "cold never parks images");
        for r in &rows {
            assert!(r.provisioned > 100, "{:?}", r.cell);
        }
    }

    #[test]
    fn quick_sweep_is_identical_for_any_worker_count() {
        let sequential = render(&sweep_points(&grid(true)).run_values(1)).render();
        let parallel = render(&sweep_points(&grid(true)).run_values(4)).render();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn full_grid_shape_and_shared_traces() {
        let cells = grid(false);
        assert_eq!(cells.len(), 2 * 3 * 3);
        // Every strategy at a given (load, overcommit) must face the
        // same workload: seed and arrival rate are strategy-independent.
        for pair in cells.chunks(3) {
            let a = config(pair[0]);
            let b = config(pair[2]);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.workload.arrival_rate, b.workload.arrival_rate);
        }
    }

    #[test]
    fn render_shape() {
        let rows = vec![CellPoint {
            cell: CellCell {
                load: 1.05,
                overcommit: 1.5,
                strategy: ProvisionStrategy::BalloonReclaim,
                quick: true,
            },
            events: 4000,
            provisioned: 1900,
            warm_hits: 1200,
            queued: 40,
            rejected: 3,
            p50: SimDuration::from_micros(16_000),
            p99: SimDuration::from_micros(180_000),
            utilization: 0.913,
            reclaimed_pages: 52_000,
            evicted: 7,
        }];
        let out = render(&rows).render();
        assert!(out.contains("balloon"), "{out}");
        assert!(out.contains("1.5x"), "{out}");
        assert!(out.contains("91.3"), "{out}");
    }
}
