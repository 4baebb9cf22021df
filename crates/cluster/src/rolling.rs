//! Rolling VMM rejuvenation across a live cluster.
//!
//! §6: "Even if some of the hosts are rebooted for the rejuvenation of the
//! VMM, the service downtime is zero" — the load balancer routes around the
//! rebooting host — "however, the total throughput of the service is
//! degraded while some hosts are rebooted."
//!
//! [`rolling_rejuvenation`] rejuvenates `m` *live* simulated hosts one at a
//! time (each host is a full [`HostSim`](rh_vmm::harness::HostSim)), measures every host's real
//! outage, and composes the cluster's total-throughput timeline through a
//! simple [`LoadBalancer`] model.

use rh_guest::services::ServiceKind;
use rh_obs::{Event, EventLog, Metrics};
use rh_sim::series::TimeSeries;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;
use rh_vmm::harness::booted_host;

/// A host's unavailability window within the cluster timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutage {
    /// Host index.
    pub host: u32,
    /// Outage start (cluster time).
    pub start: SimTime,
    /// Outage end (cluster time).
    pub end: SimTime,
}

/// An idealized round-robin load balancer over interchangeable hosts: the
/// cluster serves `p` per up host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalancer {
    /// Per-host throughput `p`.
    pub per_host_throughput: f64,
}

impl LoadBalancer {
    /// Builds the cluster total-throughput series from per-host outage
    /// windows over `[0, horizon]`.
    fn throughput_series(
        &self,
        hosts: u32,
        outages: &[HostOutage],
        horizon: SimDuration,
    ) -> TimeSeries {
        let mut edges: Vec<SimTime> = vec![SimTime::ZERO, SimTime::ZERO + horizon];
        for o in outages {
            edges.push(o.start);
            edges.push(o.end);
        }
        edges.sort();
        edges.dedup();
        let mut series = TimeSeries::new("cluster_throughput");
        for &t in edges.iter().filter(|t| **t <= SimTime::ZERO + horizon) {
            let down = outages.iter().filter(|o| o.start <= t && t < o.end).count() as u32;
            let up = hosts.saturating_sub(down);
            series.push(t, up as f64 * self.per_host_throughput);
        }
        series
    }

    /// True if at least one host is up at every instant (zero service
    /// downtime, §6's availability claim).
    fn service_always_up(&self, hosts: u32, outages: &[HostOutage]) -> bool {
        // Check at every outage boundary: the worst concurrency occurs at
        // interval starts.
        for o in outages {
            let down = outages
                .iter()
                .filter(|p| p.start <= o.start && o.start < p.end)
                .count() as u32;
            if down >= hosts {
                return false;
            }
        }
        true
    }
}

/// Result of a rolling rejuvenation pass over a live cluster.
#[derive(Debug, Clone)]
pub struct RollingReport {
    /// Hosts in the cluster.
    pub hosts: u32,
    /// Measured mean per-service outage of each host's reboot.
    pub per_host_downtime: Vec<SimDuration>,
    /// Composed outage windows on the cluster timeline.
    pub outages: Vec<HostOutage>,
    /// Cluster total-throughput timeline.
    pub series: TimeSeries,
    /// Whether the cluster stayed (partially) up throughout.
    pub service_never_fully_down: bool,
    /// Requests lost versus the all-up ideal.
    pub capacity_loss: f64,
    /// Typed cluster timeline: a [`HostDown`](Event::HostDown) /
    /// [`HostUp`](Event::HostUp) pair per rejuvenated host.
    pub events: EventLog,
    /// Cluster-level counters and timers (hosts rebooted per strategy,
    /// per-host downtime distribution).
    pub stats: Metrics,
}

/// Rejuvenates every host of an `m`-host cluster in turn, `stagger` apart,
/// using live host simulations for the per-host downtime.
///
/// Each host runs `vms` standard 1 GiB guests of `service`; the balancer
/// contributes `per_host_throughput` per healthy host.
///
/// # Panics
///
/// Panics if `hosts` is zero.
pub fn rolling_rejuvenation(
    hosts: u32,
    vms: u32,
    service: ServiceKind,
    strategy: RebootStrategy,
    stagger: SimDuration,
    per_host_throughput: f64,
) -> RollingReport {
    assert!(hosts > 0, "cluster needs at least one host");
    let mut per_host_downtime = Vec::new();
    let mut outages = Vec::new();
    let mut events = EventLog::new();
    let mut stats = Metrics::new();
    for i in 0..hosts {
        // Every host is identical; simulate its reboot live.
        let mut sim = booted_host(vms, service);
        let report = sim.reboot_and_wait(strategy);
        let down = report.max_downtime();
        per_host_downtime.push(report.mean_downtime());
        let start = SimTime::ZERO + stagger * i as u64;
        events.emit(start, Event::HostDown { host: i });
        events.emit(start + down, Event::HostUp { host: i });
        stats.inc(&format!("cluster.reboots.{strategy}"));
        stats.record("cluster.host_downtime", down);
        outages.push(HostOutage {
            host: i,
            start,
            end: start + down,
        });
    }
    let horizon = stagger * hosts as u64 + SimDuration::from_secs(600);
    let lb = LoadBalancer {
        per_host_throughput,
    };
    let series = lb.throughput_series(hosts, &outages, horizon);
    let ideal = hosts as f64 * per_host_throughput * horizon.as_secs_f64();
    let capacity_loss = ideal - series.integral(SimTime::ZERO, SimTime::ZERO + horizon);
    stats.set_gauge("cluster.hosts", i64::from(hosts));
    RollingReport {
        hosts,
        per_host_downtime,
        service_never_fully_down: lb.service_always_up(hosts, &outages),
        outages,
        series,
        capacity_loss,
        events,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn balancer_series_counts_down_hosts() {
        let lb = LoadBalancer {
            per_host_throughput: 10.0,
        };
        let outages = [
            HostOutage {
                host: 0,
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(20),
            },
            HostOutage {
                host: 1,
                start: SimTime::from_secs(15),
                end: SimTime::from_secs(25),
            },
        ];
        let s = lb.throughput_series(3, &outages, secs(100));
        assert_eq!(s.value_at(SimTime::from_secs(5)), Some(30.0));
        assert_eq!(s.value_at(SimTime::from_secs(12)), Some(20.0));
        assert_eq!(s.value_at(SimTime::from_secs(17)), Some(10.0), "both down");
        assert_eq!(s.value_at(SimTime::from_secs(22)), Some(20.0));
        assert_eq!(s.value_at(SimTime::from_secs(30)), Some(30.0));
    }

    #[test]
    fn service_up_detection() {
        let lb = LoadBalancer {
            per_host_throughput: 1.0,
        };
        let overlapping = [
            HostOutage {
                host: 0,
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(10),
            },
            HostOutage {
                host: 1,
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(15),
            },
        ];
        assert!(!lb.service_always_up(2, &overlapping), "both down at t=5");
        assert!(lb.service_always_up(3, &overlapping));
        let disjoint = [
            HostOutage {
                host: 0,
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(10),
            },
            HostOutage {
                host: 1,
                start: SimTime::from_secs(20),
                end: SimTime::from_secs(30),
            },
        ];
        assert!(lb.service_always_up(2, &disjoint));
    }

    #[test]
    fn live_rolling_warm_cluster() {
        // 3 live hosts × 3 VMs, warm reboots 10 minutes apart: the cluster
        // never loses service and loses little capacity.
        let report = rolling_rejuvenation(
            3,
            3,
            ServiceKind::Ssh,
            RebootStrategy::Warm,
            secs(600),
            100.0,
        );
        assert!(report.service_never_fully_down);
        assert_eq!(report.per_host_downtime.len(), 3);
        for d in &report.per_host_downtime {
            assert!(d.as_secs_f64() < 50.0, "warm host downtime {d}");
        }
        // Capacity loss ≈ 3 × p × ~40 s.
        assert!(report.capacity_loss < 3.0 * 100.0 * 50.0);
    }

    #[test]
    fn live_rolling_warm_beats_cold_capacity_loss() {
        let warm = rolling_rejuvenation(
            2,
            2,
            ServiceKind::Ssh,
            RebootStrategy::Warm,
            secs(600),
            100.0,
        );
        let cold = rolling_rejuvenation(
            2,
            2,
            ServiceKind::Ssh,
            RebootStrategy::Cold,
            secs(600),
            100.0,
        );
        assert!(
            warm.capacity_loss * 2.0 < cold.capacity_loss,
            "warm {} vs cold {}",
            warm.capacity_loss,
            cold.capacity_loss
        );
        assert!(warm.service_never_fully_down && cold.service_never_fully_down);
    }

    #[test]
    fn rolling_report_carries_typed_events_and_stats() {
        let report = rolling_rejuvenation(
            2,
            1,
            ServiceKind::Ssh,
            RebootStrategy::Warm,
            secs(600),
            100.0,
        );
        // One HostDown/HostUp pair per host, matching the outage windows.
        let records = report.events.records();
        assert_eq!(records.len(), 4);
        for o in &report.outages {
            assert!(records
                .iter()
                .any(|r| r.at == o.start && r.event == Event::HostDown { host: o.host }));
            assert!(records
                .iter()
                .any(|r| r.at == o.end && r.event == Event::HostUp { host: o.host }));
        }
        assert_eq!(report.stats.counter("cluster.reboots.warm"), 2);
        let timer = report.stats.timer("cluster.host_downtime").unwrap();
        assert_eq!(timer.count(), 2);
    }

    #[test]
    fn live_rolling_streamed_cuts_saved_capacity_loss() {
        // The disk-image strategies roll through the same driver: the
        // per-strategy counter keys come straight from Display, and the
        // post-copy variant's shorter outage shows up as capacity saved.
        let run =
            |strategy| rolling_rejuvenation(2, 2, ServiceKind::Ssh, strategy, secs(600), 100.0);
        let saved = run(RebootStrategy::Saved);
        let streamed = run(RebootStrategy::Streamed);
        assert_eq!(saved.stats.counter("cluster.reboots.saved"), 2);
        assert_eq!(streamed.stats.counter("cluster.reboots.streamed"), 2);
        assert!(
            streamed.capacity_loss < saved.capacity_loss,
            "streamed {} !< saved {}",
            streamed.capacity_loss,
            saved.capacity_loss
        );
        assert!(saved.service_never_fully_down);
        assert!(streamed.service_never_fully_down);
    }

    #[test]
    fn too_aggressive_stagger_loses_the_service() {
        // Cold reboots 30 s apart on a 2-host cluster overlap: at some
        // instant both hosts are down.
        let report = rolling_rejuvenation(
            2,
            2,
            ServiceKind::Ssh,
            RebootStrategy::Cold,
            secs(30),
            100.0,
        );
        assert!(!report.service_never_fully_down);
    }
}
