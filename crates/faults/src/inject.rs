//! The [`Injector`]: evaluates a [`FaultPlan`] at each host consultation.
//!
//! Determinism contract: each arm owns a private
//! [`SimRng`] stream forked from the plan seed by
//! arm index, and draws from it only when the arm's trigger or payload
//! needs randomness. The host's own RNG is never touched, so an armed
//! plan perturbs the simulation *only* through the faults it fires — and
//! an unarmed host takes no draws at all.

use rh_sim::rng::SimRng;
use rh_vmm::{FaultAction, FaultContext, FaultHook, InjectPoint};

use crate::plan::{Arm, FaultKind, FaultPlan, Trigger};

/// Per-arm evaluation state.
#[derive(Debug)]
struct ArmState {
    arm: Arm,
    rng: SimRng,
    /// Matching consultations seen so far.
    matches: u64,
    /// Times this arm actually fired.
    hits: u64,
}

impl ArmState {
    /// Whether `ctx` is a consultation this arm cares about. Domain-
    /// specific kinds skip consultations that name a *different* domain;
    /// consultations with no domain context match every arm at the point.
    fn matches(&self, point: InjectPoint, ctx: &FaultContext) -> bool {
        if self.arm.point != point {
            return false;
        }
        match (self.arm.kind.victim(), ctx.domain) {
            (Some(victim), Some(dom)) => victim == dom,
            _ => true,
        }
    }

    /// Evaluates the trigger for one matching consultation.
    fn fires(&mut self) -> bool {
        self.matches += 1;
        match self.arm.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => self.matches == n,
            Trigger::EveryNth(n) => n > 0 && self.matches.is_multiple_of(n),
            Trigger::Chance(p) => self.rng.chance(p),
        }
    }

    /// The concrete action this arm's kind produces, drawing any payload
    /// randomness (corruption masks, target offsets) from the arm stream.
    fn action(&mut self) -> FaultAction {
        match self.arm.kind {
            FaultKind::VmmCrash => FaultAction::CrashVmm,
            FaultKind::XexecFailure => FaultAction::CorruptStagedImage {
                xor: nonzero(&mut self.rng),
            },
            FaultKind::P2mCorruption(dom) => FaultAction::CorruptP2m {
                dom,
                extent: self.rng.below(8) as usize,
                xor: nonzero(&mut self.rng),
            },
            FaultKind::FrameCorruption(dom) => FaultAction::CorruptFrame {
                dom,
                page: self.rng.next_u64(),
                xor: nonzero(&mut self.rng),
            },
            FaultKind::ExecStateTruncation(dom) => FaultAction::DropExecState { dom },
            FaultKind::ResumeFailure(dom) => FaultAction::FailResume { dom },
            FaultKind::Dom0Hang { extra_ms } => FaultAction::HangDom0 { extra_ms },
        }
    }
}

/// A nonzero corruption mask (XOR with zero would be a no-op "fault").
fn nonzero(rng: &mut SimRng) -> u64 {
    let x = rng.next_u64();
    if x == 0 {
        1
    } else {
        x
    }
}

/// Evaluates a [`FaultPlan`] as a [`FaultHook`].
///
/// Arm the injector on a host with
/// [`Host::arm_fault_hook`](rh_vmm::Host::arm_fault_hook); the host then
/// consults it at every instrumented point of the reboot pipeline.
#[derive(Debug)]
pub struct Injector {
    arms: Vec<ArmState>,
}

impl Injector {
    /// Builds the injector, forking one private RNG stream per arm from
    /// the plan seed.
    pub fn new(plan: &FaultPlan) -> Self {
        let arms = plan
            .arms()
            .iter()
            .enumerate()
            .map(|(i, arm)| ArmState {
                arm: *arm,
                rng: SimRng::from_seed(plan.seed()).fork(i as u64),
                matches: 0,
                hits: 0,
            })
            .collect();
        Injector { arms }
    }

    /// Total times any arm fired.
    pub fn hits(&self) -> u64 {
        self.arms.iter().map(|a| a.hits).sum()
    }

    /// Total matching consultations across all arms.
    pub fn consults(&self) -> u64 {
        self.arms.iter().map(|a| a.matches).sum()
    }
}

impl FaultHook for Injector {
    fn consult(&mut self, point: InjectPoint, ctx: &FaultContext) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        for state in &mut self.arms {
            if !state.matches(point, ctx) {
                continue;
            }
            if state.fires() {
                state.hits += 1;
                actions.push(state.action());
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_sim::time::SimTime;
    use rh_vmm::DomainId;

    fn ctx(dom: Option<u32>) -> FaultContext {
        FaultContext {
            now: SimTime::ZERO,
            domain: dom.map(DomainId),
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new(1).arm(
            InjectPoint::SuspendEnd,
            Trigger::Nth(3),
            FaultKind::VmmCrash,
        );
        let mut inj = Injector::new(&plan);
        let fired: Vec<usize> = (0..6)
            .map(|_| inj.consult(InjectPoint::SuspendEnd, &ctx(None)).len())
            .collect();
        assert_eq!(fired, vec![0, 0, 1, 0, 0, 0]);
        assert_eq!(inj.hits(), 1);
        assert_eq!(inj.consults(), 6);
    }

    #[test]
    fn wrong_point_and_wrong_domain_do_not_count() {
        let plan = FaultPlan::new(1).arm(
            InjectPoint::ResumeStart,
            Trigger::Nth(1),
            FaultKind::ResumeFailure(DomainId(2)),
        );
        let mut inj = Injector::new(&plan);
        // Wrong point: ignored entirely.
        assert!(inj
            .consult(InjectPoint::SuspendEnd, &ctx(Some(2)))
            .is_empty());
        // Right point, different domain: skipped, not counted.
        assert!(inj
            .consult(InjectPoint::ResumeStart, &ctx(Some(1)))
            .is_empty());
        assert_eq!(inj.consults(), 0);
        // Right point, victim domain: the first matching consultation fires.
        let actions = inj.consult(InjectPoint::ResumeStart, &ctx(Some(2)));
        assert_eq!(actions, vec![FaultAction::FailResume { dom: DomainId(2) }]);
    }

    #[test]
    fn chance_trigger_replays_identically() {
        let plan = FaultPlan::new(0xC0FFEE).arm(
            InjectPoint::QuickReload,
            Trigger::Chance(0.5),
            FaultKind::XexecFailure,
        );
        let run = |plan: &FaultPlan| -> Vec<Vec<FaultAction>> {
            let mut inj = Injector::new(plan);
            (0..32)
                .map(|_| inj.consult(InjectPoint::QuickReload, &ctx(None)))
                .collect()
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b, "same plan, same seed => identical firing pattern");
        assert!(
            a.iter().any(|v| !v.is_empty()),
            "p=0.5 fires somewhere in 32"
        );
        assert!(
            a.iter().any(|v| v.is_empty()),
            "p=0.5 skips somewhere in 32"
        );
    }

    #[test]
    fn corruption_masks_are_nonzero() {
        let plan = FaultPlan::new(9).arm(
            InjectPoint::QuickReload,
            Trigger::Always,
            FaultKind::FrameCorruption(DomainId(1)),
        );
        let mut inj = Injector::new(&plan);
        for _ in 0..16 {
            for action in inj.consult(InjectPoint::QuickReload, &ctx(None)) {
                match action {
                    FaultAction::CorruptFrame { xor, .. } => assert_ne!(xor, 0),
                    other => panic!("unexpected action {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_nth_fires_periodically() {
        let plan = FaultPlan::new(1).arm(
            InjectPoint::StageImage,
            Trigger::EveryNth(2),
            FaultKind::XexecFailure,
        );
        let mut inj = Injector::new(&plan);
        let fired: Vec<usize> = (0..6)
            .map(|_| inj.consult(InjectPoint::StageImage, &ctx(None)).len())
            .collect();
        assert_eq!(fired, vec![0, 1, 0, 1, 0, 1]);
    }
}
