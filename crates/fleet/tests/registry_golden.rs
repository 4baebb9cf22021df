//! The fleet's metrics registry, pinned verbatim for four small fleets.
//!
//! No other test or binary output compares the registry: perfbench's
//! fingerprint and `fleetbench` print report fields, and the unit tests
//! in `sim.rs` check a few counters. These pins hold every counter, gauge
//! and timer that a run leaves in [`FleetReport::metrics`], including
//! which counters are absent because nothing touched them, plus the
//! report's own fields. Update them only with a deliberate behaviour
//! change.

use rh_fleet::config::{CampaignConfig, CampaignMode, FleetAging, FleetConfig};
use rh_fleet::placement::PlacementKind;
use rh_fleet::sim::{FleetReport, FleetSimulation};
use rh_sim::time::SimTime;
use rh_vmm::config::RebootStrategy;

/// A datacenter block with aging switched off.
fn quiet(hosts: u32) -> FleetConfig {
    let mut cfg = FleetConfig::datacenter(hosts);
    cfg.aging = None;
    cfg
}

/// The report's fields, then each timer's extremes and percentiles
/// (which reach buckets the render's p50/p99 skip), then the render.
fn pinned(r: &FleetReport) -> String {
    let mut out = format!(
        "hosts {} events {} arrivals {} placed {} rejected {} departures {}\n\
         peak_vms {} max_used {} crashes {} migrations {} pair_losses {}\n\
         min_capacity {:?} sla_violation {} campaign_finished {:?} completed_hosts {}\n",
        r.hosts,
        r.events,
        r.arrivals,
        r.placed,
        r.rejected,
        r.departures,
        r.peak_vms,
        r.max_used,
        r.crashes,
        r.migrations,
        r.pair_losses,
        r.min_capacity,
        r.sla_violation,
        r.campaign_finished.map(|t| t.as_micros()),
        r.completed_hosts,
    );
    for (name, t) in r.metrics.timers() {
        let pcts: Vec<String> = [10.0, 25.0, 75.0, 90.0, 100.0]
            .iter()
            .map(|&p| t.percentile(p).map_or(0, |d| d.as_micros()).to_string())
            .collect();
        out.push_str(&format!(
            "{name}: min {:?} p10/25/75/90/100 {}\n",
            t.min().map(|d| d.as_micros()),
            pcts.join("/")
        ));
    }
    out.push_str(&r.metrics.render());
    out
}

fn run(cfg: FleetConfig) -> FleetReport {
    FleetSimulation::new(cfg).expect("valid config").run()
}

/// (a) In-place warm campaign on 20 first-fit hosts under microreboot
/// aging: crashes, the recovery timer and co-located pair losses.
const IN_PLACE_AGING: &str = "hosts 20 events 3124 arrivals 1740 placed 1740 rejected 0 departures 1612
peak_vms 149 max_used 8 crashes 15 migrations 0 pair_losses 11
min_capacity 0.8904109589041096 sla_violation 847.360s campaign_finished Some(1846720000) completed_hosts 20
fleet.reboot_downtime: min Some(41970000) p10/25/75/90/100 67108864/67108864/67108864/67108864/67108864
fleet.recovery_time: min Some(42970000) p10/25/75/90/100 67108864/67108864/67108864/67108864/67108864
placement.latency: min Some(1) p10/25/75/90/100 4/8/16/16/32
counters:
  fleet.arrivals                   1740
  fleet.crashes                    15
  fleet.departures                 1612
  fleet.pair_losses                11
  fleet.reboots.warm               20
  fleet.sla_violation_us           847360000
gauges:
  campaign.completed               20
  fleet.hosts                      20
  fleet.vms                        128
timers:
  fleet.reboot_downtime            n=20 mean=42.336s p50≤67.109s p99≤67.109s max=42.930s
  fleet.recovery_time              n=15 mean=43.490s p50≤67.109s p99≤67.109s max=43.930s
  placement.latency                n=1740 mean=0.000s p50≤0.000s p99≤0.000s max=0.000s
";

/// (b) Evacuate-then-reboot on 20 anti-affinity hosts: the migration
/// counter and timer, and a pair-loss tally that stays at zero.
const EVACUATE: &str = "hosts 20 events 3173 arrivals 1740 placed 1740 rejected 0 departures 1612
peak_vms 149 max_used 8 crashes 0 migrations 85 pair_losses 0
min_capacity 1.0 sla_violation 0.000s campaign_finished Some(4094200630) completed_hosts 20
fleet.migration_total: min Some(24840007) p10/25/75/90/100 33554432/33554432/33554432/33554432/33554432
fleet.reboot_downtime: min Some(42930000) p10/25/75/90/100 67108864/67108864/67108864/67108864/67108864
placement.latency: min Some(20) p10/25/75/90/100 32/32/32/32/32
counters:
  fleet.arrivals                   1740
  fleet.departures                 1612
  fleet.migrations                 85
  fleet.pair_losses                0
  fleet.reboots.warm               20
  fleet.sla_violation_us           0
gauges:
  campaign.completed               20
  fleet.hosts                      20
  fleet.vms                        128
timers:
  fleet.migration_total            n=90 mean=24.840s p50≤33.554s p99≤33.554s max=24.840s
  fleet.reboot_downtime            n=20 mean=42.930s p50≤67.109s p99≤67.109s max=42.930s
  placement.latency                n=1830 mean=0.000s p50≤0.000s p99≤0.000s max=0.000s
";

/// (c) Four hosts of two slots each against arrivals sized for eight:
/// `fleet.rejected`, and no campaign or crash entries at all.
const OVERLOADED: &str = "hosts 4 events 453 arrivals 404 placed 130 rejected 274 departures 122
peak_vms 8 max_used 2 crashes 0 migrations 0 pair_losses 0
min_capacity 1.0 sla_violation 0.000s campaign_finished None completed_hosts 0
placement.latency: min Some(1) p10/25/75/90/100 2/4/8/8/8
counters:
  fleet.arrivals                   404
  fleet.departures                 122
  fleet.rejected                   274
  fleet.sla_violation_us           0
gauges:
  campaign.completed               0
  fleet.hosts                      4
  fleet.vms                        8
timers:
  placement.latency                n=404 mean=0.000s p50≤0.000s p99≤0.000s max=0.000s
";

/// (d) Microreboot aging on 20 hosts with no campaign: crashes alone
/// start the pair-loss tally, and no reboot entry appears.
const AGING_ONLY: &str = "hosts 20 events 3092 arrivals 1740 placed 1740 rejected 0 departures 1612
peak_vms 149 max_used 8 crashes 15 migrations 0 pair_losses 2
min_capacity 0.9166666666666666 sla_violation 300.790s campaign_finished None completed_hosts 0
fleet.recovery_time: min Some(42970000) p10/25/75/90/100 67108864/67108864/67108864/67108864/67108864
placement.latency: min Some(1) p10/25/75/90/100 4/8/16/16/32
counters:
  fleet.arrivals                   1740
  fleet.crashes                    15
  fleet.departures                 1612
  fleet.pair_losses                2
  fleet.sla_violation_us           300790000
gauges:
  campaign.completed               0
  fleet.hosts                      20
  fleet.vms                        128
timers:
  fleet.recovery_time              n=15 mean=43.474s p50≤67.109s p99≤67.109s max=43.930s
  placement.latency                n=1740 mean=0.000s p50≤0.000s p99≤0.000s max=0.000s
";

#[test]
fn in_place_campaign_under_aging_is_golden() {
    let mut cfg = quiet(20).with_campaign(CampaignConfig::in_place(
        RebootStrategy::Warm,
        20,
        SimTime::from_secs(1000),
    ));
    cfg.aging = Some(FleetAging::microreboot(20_000));
    let r = run(cfg);
    let got = pinned(&r);
    assert_eq!(got, IN_PLACE_AGING, "registry drifted:\n{got}");
    assert!(r.crashes > 0 && r.pair_losses > 0);
    assert!(!got.contains("fleet.rejected"), "nothing was rejected");
}

#[test]
fn evacuate_campaign_is_golden() {
    let mut cfg = quiet(20).with_placement(PlacementKind::AntiAffinity);
    cfg.campaign = Some(CampaignConfig {
        strategy: RebootStrategy::Warm,
        mode: CampaignMode::Evacuate,
        max_down: 1,
        start: SimTime::from_secs(1000),
    });
    let r = run(cfg);
    let got = pinned(&r);
    assert_eq!(got, EVACUATE, "registry drifted:\n{got}");
    assert!(r.migrations > 0);
    assert!(!got.contains("fleet.crashes"), "aging is off");
    assert!(got.contains("fleet.pair_losses                0"));
}

#[test]
fn overloaded_fleet_is_golden() {
    let mut cfg = quiet(4);
    cfg.slots_per_host = 2;
    let r = run(cfg);
    let got = pinned(&r);
    assert_eq!(got, OVERLOADED, "registry drifted:\n{got}");
    assert!(r.rejected > 0);
    assert!(!got.contains("fleet.pair_losses"), "no host went down");
}

#[test]
fn aging_without_a_campaign_is_golden() {
    let mut cfg = quiet(20);
    cfg.aging = Some(FleetAging::microreboot(20_000));
    let r = run(cfg);
    let got = pinned(&r);
    assert_eq!(got, AGING_ONLY, "registry drifted:\n{got}");
    assert!(r.crashes > 0);
    assert!(got.contains("fleet.pair_losses"), "crashes took hosts down");
    assert!(!got.contains("fleet.reboot"), "no campaign ran");
}
