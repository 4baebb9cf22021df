//! The five-strategy frontier (DESIGN.md §15): downtime vs post-reboot
//! degradation across memory size × disk bandwidth × streaming locality.
//!
//! The paper's Fig. 6 ranks three strategies on downtime alone. The two
//! disk-image refinements (streamed post-copy restore, incremental delta
//! save) trade that single axis for a frontier: streaming cuts downtime
//! but serves degraded requests while the residual image faults in
//! (Fig. 8-style), and incremental saving cuts downtime in proportion to
//! how clean the delta chain is at reboot time. Each sweep cell boots a
//! two-VM host, warms the Fig. 8(a) benchmark file into vm1's page cache,
//! measures file-read throughput just before and just after the reboot,
//! and reports mean downtime plus the degradation window.

use rh_guest::fs::FileSet;
use rh_guest::services::ServiceKind;
use rh_sim::time::SimDuration;
use rh_vmm::config::{HostConfig, RebootStrategy};
use rh_vmm::domain::{DomainId, DomainSpec};
use rh_vmm::harness::{HostSim, DEFAULT_WAIT_CAP};

use crate::exec::{Sweep, DEFAULT_SEED};
use crate::util::{secs, Table};

/// One cell of the frontier grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierCell {
    /// Reboot strategy under test.
    pub strategy: RebootStrategy,
    /// Memory per VM, GiB.
    pub mem_gib: u64,
    /// Single-stream disk bandwidth, MB/s.
    pub disk_mbps: u64,
    /// Streaming request locality (only observable under `Streamed`).
    pub locality: f64,
}

/// One measured frontier point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// The swept cell.
    pub cell: FrontierCell,
    /// Mean service downtime, seconds.
    pub downtime_s: f64,
    /// Save-phase duration, seconds (the at-reboot disk write).
    pub save_s: f64,
    /// Post-reboot file-read throughput loss, `1 − after/before`.
    pub tput_loss: f64,
    /// Post-copy degradation window: the stream-in phase, seconds.
    pub degraded_s: f64,
}

/// The canonical locality used for the strategies that never stream.
const CANONICAL_LOCALITY: f64 = 0.9;

/// The sweep grid: every strategy × memory size × disk bandwidth, with the
/// locality axis swept only under `Streamed` (the only strategy that can
/// observe it). `quick` restricts to 1 GiB VMs for smoke runs.
pub fn grid(quick: bool) -> Vec<FrontierCell> {
    let mem_gib: &[u64] = if quick { &[1] } else { &[1, 2, 4] };
    let disk_mbps: &[u64] = &[85, 170];
    let localities: &[f64] = &[0.6, 0.95];
    let mut cells = Vec::new();
    for &mem in mem_gib {
        for &disk in disk_mbps {
            for strategy in RebootStrategy::ALL {
                if strategy == RebootStrategy::Streamed {
                    for &locality in localities {
                        cells.push(FrontierCell {
                            strategy,
                            mem_gib: mem,
                            disk_mbps: disk,
                            locality,
                        });
                    }
                } else {
                    cells.push(FrontierCell {
                        strategy,
                        mem_gib: mem,
                        disk_mbps: disk,
                        locality: CANONICAL_LOCALITY,
                    });
                }
            }
        }
    }
    cells
}

/// Measures one frontier cell (one fresh deterministic host simulation).
pub fn measure(cell: FrontierCell) -> FrontierPoint {
    let mem = cell.mem_gib << 30;
    // vm1 carries the Fig. 8(a)-style benchmark file (128 MB, fits the
    // page cache of a 1 GiB guest); vm2 adds save/restore bulk.
    let spec1 = DomainSpec::standard("vm1", ServiceKind::ApacheWeb)
        .with_mem_bytes(mem)
        .with_files(FileSet::new(1, 128 << 20));
    let spec2 = DomainSpec::standard("vm2", ServiceKind::ApacheWeb).with_mem_bytes(mem);
    let mut cfg = HostConfig::paper_testbed()
        .with_domain(spec1)
        .with_domain(spec2)
        .with_trace(false)
        .with_stream_locality(cell.locality);
    cfg.timing.disk.bandwidth_bps = cell.disk_mbps as f64 * 1e6;
    if cell.strategy == RebootStrategy::Incremental {
        cfg = cfg.with_snapshot_interval(Some(SimDuration::from_secs(60)));
    }
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    let dom = DomainId(1);
    sim.host_mut().warm_cache(dom, 1);
    let before = sim.file_read_and_wait(dom, 0);
    if cell.strategy == RebootStrategy::Incremental {
        // Give the background ticker time to lay down base snapshots so
        // the at-reboot save writes only dirty extents.
        sim.run_for(SimDuration::from_secs(150));
    }
    let report = sim.reboot_and_wait(cell.strategy);
    // The post-reboot read: under Streamed this lands inside the
    // degradation window, which is the point of the locality axis.
    let after = sim.file_read_and_wait(dom, 0);
    let drained = sim.run_until(DEFAULT_WAIT_CAP, |h| h.streaming_domains().is_empty());
    assert!(drained, "stream-in never drained");
    let phase = |p| {
        sim.host()
            .metrics
            .duration_of(p)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    };
    FrontierPoint {
        cell,
        downtime_s: report.mean_downtime().as_secs_f64(),
        save_s: phase(rh_obs::Phase::Save),
        tput_loss: 1.0 - after / before,
        degraded_s: phase(rh_obs::Phase::StreamIn),
    }
}

/// The frontier sweep as executor points, one per grid cell.
pub fn sweep_points(cells: &[FrontierCell]) -> Sweep<FrontierPoint> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for &cell in cells {
        sweep.point(
            format!(
                "frontier/{}/{}gib/{}mbps/loc{:.2}",
                cell.strategy, cell.mem_gib, cell.disk_mbps, cell.locality
            ),
            move |_rng| measure(cell),
        );
    }
    sweep
}

/// Renders the frontier table.
pub fn render(rows: &[FrontierPoint]) -> Table {
    let mut t = Table::new(
        "frontier: downtime vs post-reboot degradation (2 VMs)",
        &[
            "strategy", "GiB/VM", "MB/s", "loc", "downtime", "save", "loss%", "degraded",
        ],
    );
    for r in rows {
        t.row(vec![
            r.cell.strategy.to_string(),
            r.cell.mem_gib.to_string(),
            r.cell.disk_mbps.to_string(),
            format!("{:.2}", r.cell.locality),
            secs(r.downtime_s),
            secs(r.save_s),
            format!("{:.1}", r.tput_loss * 100.0),
            secs(r.degraded_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_strategy(
        rows: &[FrontierPoint],
        strategy: RebootStrategy,
    ) -> impl Iterator<Item = &FrontierPoint> {
        rows.iter().filter(move |r| r.cell.strategy == strategy)
    }

    #[test]
    fn quick_frontier_orders_the_strategies() {
        let rows = sweep_points(&grid(true)).run_values(2);
        assert_eq!(rows.len(), grid(true).len(), "every cell must complete");
        for disk in [85u64, 170] {
            let at = |s| {
                by_strategy(&rows, s)
                    .find(|r| r.cell.disk_mbps == disk)
                    .unwrap()
            };
            let warm = at(RebootStrategy::Warm);
            let saved = at(RebootStrategy::Saved);
            let streamed = at(RebootStrategy::Streamed);
            let incremental = at(RebootStrategy::Incremental);
            // Downtime: warm beats every disk-image strategy; streaming
            // and incremental saving both beat the full saved reboot.
            assert!(warm.downtime_s < streamed.downtime_s, "disk {disk}");
            assert!(
                streamed.downtime_s < saved.downtime_s,
                "disk {disk}: streamed {} !< saved {}",
                streamed.downtime_s,
                saved.downtime_s
            );
            assert!(
                incremental.downtime_s < saved.downtime_s,
                "disk {disk}: incremental {} !< saved {}",
                incremental.downtime_s,
                saved.downtime_s
            );
            // The trade: only streaming serves a degradation window.
            assert!(streamed.degraded_s > 0.0);
            assert_eq!(warm.degraded_s, 0.0);
            assert_eq!(saved.degraded_s, 0.0);
            // The incremental save phase is a fraction of the full one.
            assert!(
                incremental.save_s < 0.25 * saved.save_s,
                "disk {disk}: save {} !<< {}",
                incremental.save_s,
                saved.save_s
            );
        }
        // Lower locality ⇒ bigger post-reboot throughput loss.
        let streamed: Vec<&FrontierPoint> = by_strategy(&rows, RebootStrategy::Streamed)
            .filter(|r| r.cell.disk_mbps == 85)
            .collect();
        assert_eq!(streamed.len(), 2);
        assert!(
            streamed[0].tput_loss > streamed[1].tput_loss + 0.05,
            "loc 0.60 loss {:.2} !> loc 0.95 loss {:.2}",
            streamed[0].tput_loss,
            streamed[1].tput_loss
        );
    }

    #[test]
    fn sweep_is_identical_for_any_worker_count() {
        // The determinism contract behind `--jobs`: byte-identical tables.
        let sequential = render(&sweep_points(&grid(true)).run_values(1)).render();
        let parallel = render(&sweep_points(&grid(true)).run_values(4)).render();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn full_grid_has_the_locality_axis_only_for_streamed() {
        let cells = grid(false);
        assert_eq!(cells.len(), 3 * 2 * 6);
        for c in &cells {
            if c.strategy != RebootStrategy::Streamed {
                assert_eq!(c.locality, CANONICAL_LOCALITY, "{c:?}");
            }
        }
    }

    #[test]
    fn render_shape() {
        let rows = vec![FrontierPoint {
            cell: FrontierCell {
                strategy: RebootStrategy::Streamed,
                mem_gib: 1,
                disk_mbps: 85,
                locality: 0.6,
            },
            downtime_s: 81.25,
            save_s: 25.3,
            tput_loss: 0.42,
            degraded_s: 17.8,
        }];
        let r = render(&rows).render();
        assert!(r.contains("streamed"), "{r}");
        assert!(r.contains("81.2"), "{r}");
        assert!(r.contains("42.0"), "{r}");
    }
}
