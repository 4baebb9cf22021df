//! # rh-faults — deterministic fault injection and crash recovery
//!
//! The paper rejuvenates the VMM *proactively* because a crashed VMM takes
//! every VM down with it. This crate supplies the other half of that
//! argument: it makes the crash happen — deterministically — and measures
//! what recovery costs.
//!
//! * [`plan`] — a seeded [`FaultPlan`] DSL: faults ([`FaultKind`]) armed
//!   at named [`InjectPoint`](rh_vmm::InjectPoint)s with [`Trigger`]
//!   rules. All randomness (which draw fires a `Chance` trigger, which
//!   bits a corruption flips) comes from per-arm forked
//!   [`SimRng`](rh_sim::rng::SimRng) streams derived from the plan seed,
//!   so a plan replays byte-identically.
//! * [`inject`] — the [`Injector`], an implementation of
//!   [`rh_vmm::FaultHook`] that evaluates the plan at each consultation.
//! * [`recovery`] — a ReHype-style recovery engine
//!   ([`watch_and_recover`]): a watchdog detects the failed VMM,
//!   micro-reboots it, salvages every domain whose frozen image
//!   validates, and cold-boots the rest, producing a [`RecoveryReport`]
//!   (detection latency, MTTR, salvaged vs. lost domains).
//!
//! ## Example: crash the VMM mid-reboot and salvage the guests
//!
//! ```
//! use rh_faults::plan::{FaultKind, FaultPlan, Trigger};
//! use rh_faults::recovery::{watch_and_recover, RecoveryConfig, RecoveryPolicy};
//! use rh_guest::services::ServiceKind;
//! use rh_vmm::harness::booted_host;
//! use rh_vmm::{InjectPoint, RebootStrategy};
//!
//! let mut sim = booted_host(3, ServiceKind::Ssh);
//! // The VMM dies the moment the second guest's image is frozen.
//! let plan = FaultPlan::new(0xFA_07).arm(
//!     InjectPoint::SuspendEnd,
//!     Trigger::Nth(2),
//!     FaultKind::VmmCrash,
//! );
//! sim.host_mut().arm_fault_hook(Box::new(rh_faults::inject::Injector::new(&plan)));
//! {
//!     let (host, sched) = sim.simulation_mut().parts_mut();
//!     host.reboot(sched, RebootStrategy::Warm); // never completes: the fault fires first
//! }
//! let report = watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
//!     .expect("incident recovered");
//! assert!(report.salvaged.len() >= 2, "frozen guests survive the crash");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod inject;
pub mod plan;
pub mod recovery;

pub use inject::Injector;
pub use plan::{Arm, FaultKind, FaultPlan, Trigger};
pub use recovery::{watch_and_recover, RecoveryConfig, RecoveryPolicy, RecoveryReport};
