//! Steppable campaign-driver hooks for rolling rejuvenation.
//!
//! [`rolling_rejuvenation`](crate::rolling::rolling_rejuvenation) schedules
//! host reboots by *wall-clock stagger* and [`crate::schedule::plan_uniform`]
//! by *predicted downtime* — both bake the decision rule
//! into a timeline up front. This module exposes the decision rule itself
//! as a steppable hook: given a snapshot of every host's phase
//! ([`FleetView`]), a [`CampaignDriver`] answers "which hosts may start a
//! warm reboot *now*?". That form is what the `rh-lint fleet` model
//! checker drives event-by-event to prove the two fleet invariants
//! (DESIGN.md §14):
//!
//! * **I6 capacity-floor** — at least `hosts - max_down` hosts serve in
//!   every reachable interleaving (the
//!   [`ScheduleConstraints`](crate::schedule::ScheduleConstraints) floor,
//!   DESIGN.md §14 "The fleet model"), and
//! * **I7 single-recovery** — no host starts a second reboot while its
//!   crash recovery is still in flight (DESIGN.md §14 "The fleet
//!   model").
//!
//! Two drivers ship: [`SerialDriver`], the correct rule (strictly ordered,
//! recovery-aware), and [`OverlapBugDriver`], a deliberately wrong
//! poll-based rule modeling a real class of campaign-controller bug — it
//! decides from the *reboot window* instead of the host's actual phase, so
//! a crash-then-recovery window looks "done" and the driver both restarts
//! the recovering host (I7) and lets the next host proceed under it (I6).
//! `rh-lint fleet --driver buggy-overlap` must find both, shortest first.

/// A host's lifecycle phase as the campaign driver sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Up and serving traffic behind the load balancer.
    Serving,
    /// Executing a warm VMM reboot (out of the balancer rotation).
    Rebooting,
    /// The VMM crashed mid-reboot; ReHype-style recovery is in flight.
    Recovering,
}

/// An immutable fleet snapshot handed to a driver at each decision point.
#[derive(Debug, Clone, Copy)]
pub struct FleetView<'a> {
    /// Current phase of each host, indexed by host id.
    pub phases: &'a [HostPhase],
    /// Whether each host's rejuvenation has completed successfully.
    pub completed: &'a [bool],
    /// Maximum hosts that may be out of serving at once
    /// ([`ScheduleConstraints::max_down`](crate::schedule::ScheduleConstraints::max_down)).
    pub max_down: u32,
}

impl<'a> FleetView<'a> {
    /// Builds a view; `max_down` comes from the campaign's
    /// [`ScheduleConstraints`](crate::schedule::ScheduleConstraints).
    pub fn new(phases: &'a [HostPhase], completed: &'a [bool], max_down: u32) -> Self {
        FleetView {
            phases,
            completed,
            max_down,
        }
    }

    /// Hosts currently serving traffic.
    pub fn serving(&self) -> u32 {
        self.phases
            .iter()
            .filter(|p| **p == HostPhase::Serving)
            .count() as u32
    }

    /// Hosts out of rotation (rebooting or recovering).
    pub fn down(&self) -> u32 {
        self.phases.len() as u32 - self.serving()
    }

    /// The I6 capacity floor implied by this view's constraints: the
    /// serving count may never drop below `hosts - max_down`.
    pub fn capacity_floor(&self) -> u32 {
        (self.phases.len() as u32).saturating_sub(self.max_down)
    }
}

/// The steppable decision rule of a rolling-rejuvenation campaign.
pub trait CampaignDriver: Sync {
    /// Hosts that may start a warm reboot in this snapshot, in host order.
    /// The caller (simulator or model checker) applies zero or more of
    /// them; the driver must stay correct under any subset.
    fn eligible_starts(&self, view: &FleetView<'_>) -> Vec<u32>;
}

/// The correct campaign rule: hosts rejuvenate strictly in index order,
/// a host starts only while it is actually serving, and the down count
/// (rebooting **or** recovering) must leave headroom under `max_down`.
///
/// A crashed host is retried only after its recovery completes and it
/// serves again — exactly what I7 demands.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialDriver;

impl CampaignDriver for SerialDriver {
    fn eligible_starts(&self, view: &FleetView<'_>) -> Vec<u32> {
        let mut out = Vec::new();
        for (h, completed) in view.completed.iter().enumerate() {
            if *completed {
                continue;
            }
            // Strictly serial: only the first pending host is a candidate,
            // and only from a healthy phase with down-count headroom.
            if view.phases[h] == HostPhase::Serving && view.down() < view.max_down {
                out.push(h as u32);
            }
            break;
        }
        out
    }
}

/// A deliberately buggy poll-based rule (`rh-lint fleet --driver
/// buggy-overlap`).
///
/// The controller polls reboot *windows*, not phases: a host counts as
/// down only while `Rebooting`, and a pending host is (re)started whenever
/// it is not currently rebooting. A host sitting in `Recovering` is
/// therefore invisible to the down count — the driver hands out a second
/// reboot for it (I7) and starts the next host on top of the recovery
/// (I6). This is the checker's target, not an API anyone should drive a
/// real campaign with.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapBugDriver;

impl CampaignDriver for OverlapBugDriver {
    fn eligible_starts(&self, view: &FleetView<'_>) -> Vec<u32> {
        let rebooting = view
            .phases
            .iter()
            .filter(|p| **p == HostPhase::Rebooting)
            .count() as u32;
        let mut out = Vec::new();
        for (h, completed) in view.completed.iter().enumerate() {
            if *completed {
                continue;
            }
            if view.phases[h] != HostPhase::Rebooting && rebooting < view.max_down {
                out.push(h as u32);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{plan_uniform, ScheduleConstraints};
    use rh_sim::time::SimDuration;

    /// Drives a crash-free campaign to completion with `driver`, returning
    /// the start order. Each step starts every eligible host, then lets
    /// all reboots finish before the next poll (the densest correct
    /// schedule).
    fn run_campaign(driver: &dyn CampaignDriver, hosts: usize, max_down: u32) -> Vec<u32> {
        let mut phases = vec![HostPhase::Serving; hosts];
        let mut completed = vec![false; hosts];
        let mut order = Vec::new();
        while completed.iter().any(|c| !c) {
            let starts = driver.eligible_starts(&FleetView::new(&phases, &completed, max_down));
            assert!(!starts.is_empty(), "campaign stalled: {completed:?}");
            for h in &starts {
                phases[*h as usize] = HostPhase::Rebooting;
                order.push(*h);
            }
            for h in &starts {
                phases[*h as usize] = HostPhase::Serving;
                completed[*h as usize] = true;
            }
        }
        order
    }

    #[test]
    fn serial_driver_matches_the_planned_wave_order() {
        // The steppable rule and the up-front planner agree on a
        // one-at-a-time campaign: same hosts, same order.
        let order = run_campaign(&SerialDriver, 4, 1);
        let plan = plan_uniform(
            4,
            SimDuration::from_secs(42),
            &ScheduleConstraints::one_at_a_time(),
        )
        .unwrap();
        let planned: Vec<u32> = plan.starts.iter().map(|(h, _)| *h).collect();
        assert_eq!(order, planned);
    }

    #[test]
    fn serial_driver_waits_for_recovery() {
        let completed = vec![false, false, false];
        let recovering = vec![
            HostPhase::Recovering,
            HostPhase::Serving,
            HostPhase::Serving,
        ];
        let starts = SerialDriver.eligible_starts(&FleetView::new(&recovering, &completed, 1));
        assert!(
            starts.is_empty(),
            "no start may be issued while host 0 recovers"
        );
        // Once recovery completes, host 0 is retried first.
        let healthy = vec![HostPhase::Serving; 3];
        let starts = SerialDriver.eligible_starts(&FleetView::new(&healthy, &completed, 1));
        assert_eq!(starts, vec![0]);
    }

    #[test]
    fn serial_driver_respects_max_down_headroom() {
        let phases = vec![HostPhase::Rebooting, HostPhase::Serving, HostPhase::Serving];
        let completed = vec![false, false, false];
        // max_down 1: host 0's reboot consumes the headroom.
        let starts = SerialDriver.eligible_starts(&FleetView::new(&phases, &completed, 1));
        assert!(starts.is_empty());
    }

    #[test]
    fn overlap_bug_driver_restarts_a_recovering_host() {
        let phases = vec![
            HostPhase::Recovering,
            HostPhase::Serving,
            HostPhase::Serving,
        ];
        let completed = vec![false, false, false];
        let starts = OverlapBugDriver.eligible_starts(&FleetView::new(&phases, &completed, 1));
        // The bug, both halves: host 0 is re-issued mid-recovery (the I7
        // hazard) and hosts 1, 2 are offered on top of it (the I6 hazard).
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    fn overlap_bug_driver_is_benign_without_a_crash() {
        // While a reboot is actually in flight the poll sees it; the bug
        // only bites when a crash parks a host in Recovering.
        let phases = vec![HostPhase::Rebooting, HostPhase::Serving, HostPhase::Serving];
        let completed = vec![false, false, false];
        let starts = OverlapBugDriver.eligible_starts(&FleetView::new(&phases, &completed, 1));
        assert!(starts.is_empty());
        assert_eq!(run_campaign(&OverlapBugDriver, 3, 1), vec![0, 1, 2]);
    }

    #[test]
    fn view_accounting() {
        let phases = vec![
            HostPhase::Serving,
            HostPhase::Rebooting,
            HostPhase::Recovering,
            HostPhase::Serving,
        ];
        let completed = vec![true, false, false, false];
        let view = FleetView::new(&phases, &completed, 1);
        assert_eq!(view.serving(), 2);
        assert_eq!(view.down(), 2);
        assert_eq!(view.capacity_floor(), 3);
    }
}
