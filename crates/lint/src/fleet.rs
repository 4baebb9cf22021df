//! Fleet-level model checker for rolling rejuvenation (DESIGN.md §14).
//!
//! The [`protocol`](crate::protocol) model proves the warm reboot safe
//! *inside one host*. This module lifts the check to the cluster: each
//! host runs the per-host automaton's outward-visible lifecycle (serving →
//! warm reboot → crash? → recovery → serving), and a
//! [`rh_cluster::driver::CampaignDriver`] — the same steppable decision
//! rule the simulator exposes — chooses which hosts may start. The checker
//! explores every interleaving of driver decisions, reboot completions,
//! crashes, and recoveries with the generic [`crate::explore`] engine,
//! and verifies two fleet invariants on every reachable state:
//!
//! * **I6 capacity-floor** — at least `hosts - max_down` hosts are
//!   serving; the campaign never overdraws the SLA headroom that
//!   [`rh_cluster::schedule::ScheduleConstraints`] promises.
//! * **I7 single-recovery** — no host is commanded to start a reboot while
//!   its crash recovery is still in flight; a second reboot on top of a
//!   ReHype-style microreboot would tear down the very state the recovery
//!   is rebuilding.
//!
//! The campaign rule under test is selected by [`DriverKind`]
//! (`rh-lint fleet --driver serial|wave|buggy-overlap`). With the correct
//! [`SerialDriver`] both invariants hold across all interleavings,
//! including a crash mid-campaign; the same goes for the scheduler-driven
//! [`rh_fleet::campaign::WaveDriver`] that `rh-fleet` rolls real
//! datacenter campaigns with — it fills the whole `max_down` budget per
//! poll and skips (rather than stalls behind) recovering hosts, so
//! checking it here proves the fleet simulator's waves can never overdraw
//! the SLA headroom under any crash interleaving. With [`OverlapBugDriver`]
//! — a poll-based rule that watches reboot windows instead of host phases —
//! BFS finds the shortest I7 counterexample: start a host, crash it
//! mid-reboot, and the next poll re-issues the start while recovery is in
//! flight. The trace prints through the same [`rh_obs::render_numbered`]
//! path as protocol counterexamples and simulator runs.
//!
//! The fleet state space is small (hosts are *not* interchangeable — the
//! serial campaign orders them), so this model uses neither symmetry nor
//! partial-order reduction; exploration is raw BFS, byte-identical at any
//! `--jobs N`.

use std::fmt;

use rh_cluster::driver::{CampaignDriver, FleetView, HostPhase, OverlapBugDriver, SerialDriver};
use rh_fleet::campaign::WaveDriver;

use crate::explore::{self, Model, Options as ExploreOptions, Run};

/// Which campaign decision rule drives the model (`--driver`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// [`SerialDriver`] — one host at a time, stalls behind recoveries.
    Serial,
    /// [`WaveDriver`] — the `rh-fleet` scheduler rule: fills the whole
    /// `max_down` budget each poll and skips recovering hosts.
    Wave,
    /// [`OverlapBugDriver`] — the poll bug; must yield an I7
    /// counterexample whenever a crash is budgeted.
    OverlapBug,
}

impl DriverKind {
    /// Parses a `--driver` value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings on anything else.
    pub fn parse(s: &str) -> Result<DriverKind, String> {
        match s {
            "serial" => Ok(DriverKind::Serial),
            "wave" => Ok(DriverKind::Wave),
            "buggy-overlap" => Ok(DriverKind::OverlapBug),
            other => Err(format!(
                "--driver {other:?}: expected serial, wave, or buggy-overlap"
            )),
        }
    }

    fn build(self) -> Box<dyn CampaignDriver + Send + Sync> {
        match self {
            DriverKind::Serial => Box::new(SerialDriver),
            DriverKind::Wave => Box::new(WaveDriver),
            DriverKind::OverlapBug => Box::new(OverlapBugDriver),
        }
    }
}

impl fmt::Display for DriverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DriverKind::Serial => "serial",
            DriverKind::Wave => "wave",
            DriverKind::OverlapBug => "buggy-overlap",
        })
    }
}

/// Tunable parameters of the fleet model.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Cluster hosts in the campaign.
    pub hosts: u32,
    /// Maximum hosts allowed out of serving at once (the I6 floor is
    /// `hosts - max_down`).
    pub max_down: u32,
    /// Crash-injection budget: how many warm reboots may crash mid-flight
    /// across the whole campaign.
    pub max_crashes: u32,
    /// The campaign decision rule to check.
    pub driver: DriverKind,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            hosts: 4,
            max_down: 1,
            max_crashes: 1,
            driver: DriverKind::Serial,
        }
    }
}

/// One atomic fleet transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// The campaign driver commands host `h` to start its warm reboot.
    Start(u32),
    /// Host `h`'s warm reboot completes; it rejoins the balancer.
    RebootDone(u32),
    /// Host `h`'s VMM crashes mid-reboot; recovery begins.
    Crash(u32),
    /// Host `h`'s crash recovery completes; it serves again but must be
    /// re-rejuvenated.
    Recovered(u32),
}

impl fmt::Display for FleetEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FleetEvent::Start(h) => write!(f, "start(host{h})"),
            FleetEvent::RebootDone(h) => write!(f, "reboot-done(host{h})"),
            FleetEvent::Crash(h) => write!(f, "crash(host{h})"),
            FleetEvent::Recovered(h) => write!(f, "recovered(host{h})"),
        }
    }
}

/// Translates a fleet-event path into the typed [`rh_obs::Event`] stream,
/// mirroring what [`rh_cluster::rolling`] emits for a real campaign:
/// starts become `HostDown`, completions and recoveries become `HostUp`,
/// and crashes become a categorized note (the per-host crash detail lives
/// in the protocol model's own traces).
pub fn to_obs_trace(events: &[FleetEvent]) -> Vec<rh_obs::Event> {
    events
        .iter()
        .map(|e| match *e {
            FleetEvent::Start(h) => rh_obs::Event::HostDown { host: h },
            FleetEvent::RebootDone(h) | FleetEvent::Recovered(h) => {
                rh_obs::Event::HostUp { host: h }
            }
            FleetEvent::Crash(h) => rh_obs::Event::note(
                "fleet",
                format!("host {h}: VMM crashed mid-reboot; microreboot recovery engaged"),
            ),
        })
        .collect()
}

/// Per-host model state: the campaign-visible phase plus the completion
/// flag the driver polls.
#[derive(Debug, Clone, PartialEq)]
struct FleetState {
    phases: Vec<HostPhase>,
    completed: Vec<bool>,
    /// Crash injections spent so far.
    crashes: u32,
    /// Sticky I7 flag: the host (if any) that received a `Start` while its
    /// crash recovery was still in flight. Sticky so the violation is
    /// checked on the very state the bad command produced.
    overlapped: Option<u32>,
}

struct FleetModel {
    cfg: FleetConfig,
    driver: Box<dyn CampaignDriver + Send + Sync>,
}

impl FleetModel {
    fn new(cfg: &FleetConfig) -> FleetModel {
        FleetModel {
            cfg: cfg.clone(),
            driver: cfg.driver.build(),
        }
    }

    fn view<'a>(&self, state: &'a FleetState) -> FleetView<'a> {
        FleetView::new(&state.phases, &state.completed, self.cfg.max_down)
    }
}

impl Model for FleetModel {
    type State = FleetState;
    type Event = FleetEvent;

    fn initial(&self) -> Result<FleetState, String> {
        if self.cfg.hosts == 0 || self.cfg.hosts > 8 {
            return Err("--hosts must be in 1..=8 (the fleet model is explored raw)".to_string());
        }
        if self.cfg.max_down == 0 {
            return Err("--max-down must be at least 1 (no host could ever reboot)".into());
        }
        Ok(FleetState {
            phases: vec![HostPhase::Serving; self.cfg.hosts as usize],
            completed: vec![false; self.cfg.hosts as usize],
            crashes: 0,
            overlapped: None,
        })
    }

    fn enabled(&self, state: &FleetState) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        // Driver decisions first (host order), then completions, crashes,
        // and recoveries — BFS therefore reports a bad `Start` before the
        // capacity dip it causes downstream.
        for h in self.driver.eligible_starts(&self.view(state)) {
            events.push(FleetEvent::Start(h));
        }
        for (h, phase) in state.phases.iter().enumerate() {
            if *phase == HostPhase::Rebooting {
                events.push(FleetEvent::RebootDone(h as u32));
            }
        }
        if state.crashes < self.cfg.max_crashes {
            for (h, phase) in state.phases.iter().enumerate() {
                if *phase == HostPhase::Rebooting {
                    events.push(FleetEvent::Crash(h as u32));
                }
            }
        }
        for (h, phase) in state.phases.iter().enumerate() {
            if *phase == HostPhase::Recovering {
                events.push(FleetEvent::Recovered(h as u32));
            }
        }
        events
    }

    fn apply(&self, state: &FleetState, event: FleetEvent) -> Result<FleetState, String> {
        let mut next = state.clone();
        match event {
            FleetEvent::Start(h) => {
                let h = h as usize;
                if next.phases[h] == HostPhase::Recovering {
                    // The I7 hazard: a reboot command lands on a host whose
                    // recovery is still rebuilding VMM state. Record it;
                    // `check` fails on the resulting state.
                    next.overlapped = Some(h as u32);
                } else {
                    next.phases[h] = HostPhase::Rebooting;
                }
            }
            FleetEvent::RebootDone(h) => {
                let h = h as usize;
                next.phases[h] = HostPhase::Serving;
                next.completed[h] = true;
            }
            FleetEvent::Crash(h) => {
                next.phases[h as usize] = HostPhase::Recovering;
                next.crashes += 1;
            }
            FleetEvent::Recovered(h) => {
                // Back to serving, but the rejuvenation did not complete —
                // the driver must schedule this host again.
                next.phases[h as usize] = HostPhase::Serving;
            }
        }
        Ok(next)
    }

    fn check(&self, state: &FleetState) -> Result<(), (String, String)> {
        if let Some(h) = state.overlapped {
            return Err((
                "I7 single-recovery".to_string(),
                format!(
                    "host {h} was commanded to start a reboot while its crash \
                     recovery was still in flight"
                ),
            ));
        }
        let view = self.view(state);
        let (serving, floor) = (view.serving(), view.capacity_floor());
        if serving < floor {
            return Err((
                "I6 capacity-floor".to_string(),
                format!(
                    "only {serving} of {} host(s) serving; the campaign's \
                     capacity floor is {floor} (max_down {})",
                    self.cfg.hosts, self.cfg.max_down
                ),
            ));
        }
        Ok(())
    }

    fn encode(&self, state: &FleetState) -> Vec<u64> {
        let mut key = Vec::with_capacity(2 + 2 * state.phases.len());
        key.push(u64::from(state.crashes));
        key.push(state.overlapped.map_or(0, |h| u64::from(h) + 1));
        for (phase, completed) in state.phases.iter().zip(&state.completed) {
            key.push(match phase {
                HostPhase::Serving => 0,
                HostPhase::Rebooting => 1,
                HostPhase::Recovering => 2,
            });
            key.push(u64::from(*completed));
        }
        key
    }

    fn is_goal(&self, state: &FleetState) -> bool {
        state.completed.iter().all(|c| *c)
    }

    fn trace(&self, events: &[FleetEvent]) -> Vec<rh_obs::Event> {
        to_obs_trace(events)
    }
}

/// Exhaustively explores the fleet model under `cfg` and checks I6/I7 on
/// every reachable state.
///
/// # Errors
///
/// Returns a message on an invalid configuration or when
/// [`ExploreOptions::max_states`] is exceeded.
pub fn explore(cfg: &FleetConfig, opts: &ExploreOptions) -> Result<Run<FleetEvent>, String> {
    explore::explore(&FleetModel::new(cfg), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExploreOptions {
        ExploreOptions::default()
    }

    #[test]
    fn correct_driver_satisfies_i6_and_i7() {
        // Default fleet: 4 hosts, max_down 1, one crash budgeted. Every
        // interleaving — including the crash — keeps 3 hosts serving and
        // never overlaps a start with a recovery.
        let result = explore(&FleetConfig::default(), &opts()).unwrap();
        assert!(result.passed(), "unexpected: {:?}", result.violation);
        assert!(result.completed >= 1, "campaign must be completable");
    }

    #[test]
    fn correct_drivers_hold_across_fleet_shapes() {
        // Both safe rules — the serial stall-behind-recovery driver and
        // the rh-fleet wave driver that fills the whole max_down budget —
        // satisfy I6/I7 on every interleaving of every shape, crashes
        // included.
        for driver in [DriverKind::Serial, DriverKind::Wave] {
            for (hosts, max_down, max_crashes) in
                [(1, 1, 0), (2, 1, 1), (3, 1, 2), (3, 2, 1), (5, 2, 2)]
            {
                let cfg = FleetConfig {
                    hosts,
                    max_down,
                    max_crashes,
                    driver,
                };
                let result = explore(&cfg, &opts()).unwrap();
                assert!(
                    result.passed(),
                    "{driver}: {hosts} hosts / max_down {max_down} / {max_crashes} crash(es): {:?}",
                    result.violation
                );
                assert!(result.completed >= 1);
            }
        }
    }

    #[test]
    fn wave_driver_explores_wider_but_stays_safe() {
        // With max_down 2 the wave driver offers two concurrent starts
        // where the serial driver offers one, so its reachable state space
        // is a strict superset — and every extra state still satisfies the
        // invariants.
        let shape = |driver| FleetConfig {
            hosts: 5,
            max_down: 2,
            max_crashes: 1,
            driver,
        };
        let serial = explore(&shape(DriverKind::Serial), &opts()).unwrap();
        let wave = explore(&shape(DriverKind::Wave), &opts()).unwrap();
        assert!(serial.passed() && wave.passed());
        assert!(
            wave.states > serial.states,
            "wave {} vs serial {} states",
            wave.states,
            serial.states
        );
    }

    #[test]
    fn driver_kind_parses_and_displays() {
        for (s, kind) in [
            ("serial", DriverKind::Serial),
            ("wave", DriverKind::Wave),
            ("buggy-overlap", DriverKind::OverlapBug),
        ] {
            assert_eq!(DriverKind::parse(s).unwrap(), kind);
            assert_eq!(kind.to_string(), s);
        }
        assert!(DriverKind::parse("parallel").is_err());
    }

    #[test]
    fn buggy_overlap_finds_the_shortest_i7_counterexample() {
        let cfg = FleetConfig {
            driver: DriverKind::OverlapBug,
            ..FleetConfig::default()
        };
        let result = explore(&cfg, &opts()).unwrap();
        let v = result.violation.expect("overlap bug must be caught");
        assert_eq!(v.invariant, "I7 single-recovery");
        // Shortest possible exposure: start a host, crash it mid-reboot,
        // and the next poll re-issues the start while recovery runs.
        assert_eq!(
            v.events,
            vec![
                FleetEvent::Start(0),
                FleetEvent::Crash(0),
                FleetEvent::Start(0)
            ]
        );
        assert_eq!(v.trace.len(), v.events.len());
    }

    #[test]
    fn buggy_overlap_counterexample_renders_numbered() {
        let cfg = FleetConfig {
            driver: DriverKind::OverlapBug,
            ..FleetConfig::default()
        };
        let result = explore(&cfg, &opts()).unwrap();
        let rendered = result.violation.expect("violation").to_string();
        assert!(rendered.contains("invariant I7 single-recovery violated"));
        // The render_numbered path: each trace line is numbered, and the
        // obs mapping turns the start into a HostDown entry.
        assert!(rendered.contains("  1. "), "numbered trace: {rendered}");
        assert!(rendered.contains("  3. "), "numbered trace: {rendered}");
        assert!(rendered.contains("host 0 down"), "obs mapping: {rendered}");
        assert!(
            rendered.contains("crashed mid-reboot"),
            "crash note: {rendered}"
        );
    }

    #[test]
    fn buggy_overlap_is_safe_without_a_crash_budget() {
        // Without a crash there is no Recovering phase, the reboot-window
        // poll is accurate, and the buggy driver behaves serially — the
        // overlap bug is strictly a crash-recovery hazard.
        let cfg = FleetConfig {
            max_crashes: 0,
            driver: DriverKind::OverlapBug,
            ..FleetConfig::default()
        };
        let result = explore(&cfg, &opts()).unwrap();
        assert!(
            result.passed(),
            "poll bug needs a crash to bite: {:?}",
            result.violation
        );
    }

    #[test]
    fn fleet_exploration_is_byte_identical_at_any_jobs() {
        for driver in [DriverKind::Serial, DriverKind::Wave, DriverKind::OverlapBug] {
            let cfg = FleetConfig {
                driver,
                ..FleetConfig::default()
            };
            let baseline = explore(&cfg, &opts()).unwrap();
            for jobs in [2, 4] {
                let parallel = explore(
                    &cfg,
                    &ExploreOptions {
                        jobs,
                        ..ExploreOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(baseline, parallel, "jobs={jobs} driver={driver}");
            }
        }
    }

    #[test]
    fn zero_hosts_and_zero_max_down_are_rejected() {
        for hosts in [0, 9] {
            let cfg = FleetConfig {
                hosts,
                ..FleetConfig::default()
            };
            assert_eq!(
                explore(&cfg, &opts()).unwrap_err(),
                "--hosts must be in 1..=8 (the fleet model is explored raw)"
            );
        }
        let cfg = FleetConfig {
            max_down: 0,
            ..FleetConfig::default()
        };
        assert!(explore(&cfg, &opts()).is_err());
    }
}
