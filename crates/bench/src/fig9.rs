//! Figure 9 / §6: total throughput of a cluster under rejuvenation.
//!
//! Combines measured single-host downtimes with the analytic cluster model
//! (and a live rolling-rejuvenation cross-check): warm dips `(m−1)p` for
//! ~42 s; cold dips for ~241 s then runs at `(m−δ)p` while caches refill;
//! migration permanently sacrifices a host and degrades the evacuating one
//! by 12 % for ~17 minutes.

use rh_cluster::analytic::ClusterScenario;
use rh_cluster::migration::MigrationModel;
use rh_cluster::rolling::{rolling_rejuvenation, RollingReport};
use rh_guest::services::ServiceKind;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

use crate::cli::Run;
use crate::fig6;

/// The Fig. 9 outputs.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// The scenario (m hosts, measured downtimes).
    pub scenario: ClusterScenario,
    /// Capacity lost to one warm rejuvenation (requests).
    pub warm_loss: f64,
    /// Capacity lost to one cold rejuvenation (requests).
    pub cold_loss: f64,
    /// Capacity lost to one migration-based rejuvenation (requests),
    /// including the permanently reserved spare.
    pub migration_loss: f64,
    /// Estimated host evacuation time (s) for 11 × 1 GB (paper: ~17 min).
    pub evacuation_secs: f64,
    /// Live rolling cross-check (small cluster).
    pub rolling_warm: RollingReport,
    /// Live rolling cross-check, cold.
    pub rolling_cold: RollingReport,
}

/// Runs Fig. 9: measured downtimes at `n` JBoss VMs feed the analytic
/// model for an `m`-host cluster with per-host throughput `p`.
pub fn run(m: u32, p: f64, n_vms: u32) -> Fig9Result {
    let measured = fig6::measure(n_vms, ServiceKind::Jboss);
    let scenario = ClusterScenario {
        hosts: m,
        per_host_throughput: p,
        vms_per_host: n_vms,
        vm_mem_bytes: 1 << 30,
        warm_downtime_secs: measured.warm,
        cold_downtime_secs: measured.cold,
        delta: 0.69,
        warmup_secs: 60.0,
    };
    let horizon = SimDuration::from_secs(3600);
    let at = SimTime::from_secs(600);
    let migration = MigrationModel::paper();
    let warm_loss = scenario.capacity_loss(&scenario.warm_series(at, horizon), horizon);
    let cold_loss = scenario.capacity_loss(&scenario.cold_series(at, horizon), horizon);
    let migration_loss =
        scenario.capacity_loss(&scenario.migration_series(&migration, at, horizon), horizon);
    let evacuation = migration.evacuate_host(11, 1 << 30).total.as_secs_f64();
    let stagger = SimDuration::from_secs(600);
    let rolling_warm =
        rolling_rejuvenation(3, 3, ServiceKind::Ssh, RebootStrategy::Warm, stagger, p);
    let rolling_cold =
        rolling_rejuvenation(3, 3, ServiceKind::Ssh, RebootStrategy::Cold, stagger, p);
    Fig9Result {
        scenario,
        warm_loss,
        cold_loss,
        migration_loss,
        evacuation_secs: evacuation,
        rolling_warm,
        rolling_cold,
    }
}

/// Renders the Fig. 9 summary.
pub fn render(r: &Fig9Result) -> String {
    format!(
        "## fig9 cluster (m={}, p={:.0} req/s, one VMM rejuvenation per hour)\n\
         measured host downtimes : warm {:.1} s, cold {:.1} s (JBoss, {} VMs)\n\
         capacity lost           : warm {:>9.0}, cold {:>9.0}, migration {:>9.0} requests\n\
         evacuation (11 x 1 GB)  : {:.1} min (paper: ~17 min)\n\
         live rolling (3 hosts)  : warm loses {:>7.0}, cold loses {:>7.0}; \
         service stayed up: warm={}, cold={}\n",
        r.scenario.hosts,
        r.scenario.per_host_throughput,
        r.scenario.warm_downtime_secs,
        r.scenario.cold_downtime_secs,
        r.scenario.vms_per_host,
        r.warm_loss,
        r.cold_loss,
        r.migration_loss,
        r.evacuation_secs / 60.0,
        r.rolling_warm.capacity_loss,
        r.rolling_cold.capacity_loss,
        r.rolling_warm.service_never_fully_down,
        r.rolling_cold.service_never_fully_down,
    )
}

/// Prints Fig. 9 for a 4-host cluster of `--max-n`-VM hosts at
/// 215 req/s each, and returns the result (the `fig9` binary adds the
/// throughput series). `None` when the run failed.
pub fn report(run: &mut Run) -> Option<Fig9Result> {
    let n_vms = run.max_n;
    let r = run.one("fig9", move || self::run(4, 215.0, n_vms))?;
    println!("{}", render(&r));
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_ordering_matches_section_6() {
        // A small configuration for test speed; the bin uses 11 VMs.
        let r = run(4, 215.0, 4);
        assert!(
            r.warm_loss < r.cold_loss,
            "warm {} !< cold {}",
            r.warm_loss,
            r.cold_loss
        );
        assert!(
            r.cold_loss < r.migration_loss,
            "cold {} !< migration {}",
            r.cold_loss,
            r.migration_loss
        );
        assert!((r.evacuation_secs / 60.0 - 17.0).abs() < 1.5);
        assert!(r.rolling_warm.service_never_fully_down);
        assert!(r.rolling_warm.capacity_loss < r.rolling_cold.capacity_loss);
        assert!(render(&r).contains("evacuation"));
    }
}
