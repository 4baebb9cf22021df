//! rh-fleet: datacenter-scale fleet simulation with pluggable placement
//! and SLA-aware rolling rejuvenation campaigns.
//!
//! The paper rejuvenates one consolidated host quickly; this crate asks
//! the datacenter question that motivates it: across thousands of such
//! hosts, can a rolling campaign rejuvenate the whole fleet while the
//! aggregate serving capacity never drops below an SLA floor? Each host
//! is a coarse [`host::HostCell`] whose reboot and recovery durations come
//! from the calibrated [`rh_rejuv::model`] closed forms, so a 5,000-host
//! run with a million VM lifecycle events finishes in seconds on the
//! [`rh_sim::flat`] event core.
//!
//! The moving parts (DESIGN.md §16):
//!
//! * [`store::PlacementStore`] — the central VM → host map, with
//!   reservation-based capacity so concurrent live migrations can never
//!   oversubscribe a host, and the [`store::FreeSlots`] index placement
//!   searches instead of scanning every host;
//! * [`placement`] — pluggable algorithms: [`placement::FirstFit`],
//!   [`placement::BestFitBinPack`], and the rejuvenation-aware
//!   [`placement::RejuvAntiAffinity`];
//! * [`workload`] — synthetic Poisson + diurnal arrivals behind the
//!   replayable [`workload::WorkloadReader`] trait;
//! * [`campaign::WaveDriver`] — the wave-parallel
//!   [`rh_cluster::driver::CampaignDriver`] the simulation and the
//!   `rh-lint fleet` model checker share;
//! * [`sim::FleetSimulation`] — the event loop tying them together, with
//!   SLA-violation accounting and `rh-obs` metrics throughout.
//!
//! `fleetbench` (in `rh-bench`) sweeps placement × reboot strategy ×
//! fleet size over this crate deterministically across worker counts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod config;
pub mod host;
pub mod placement;
pub mod sim;
pub mod store;
pub mod workload;

pub use campaign::WaveDriver;
pub use config::{CampaignConfig, CampaignMode, FleetAging, FleetConfig, WorkloadConfig};
pub use placement::{PlacementAlgorithm, PlacementKind};
pub use sim::{FleetReport, FleetSimulation};
pub use store::PlacementStore;
pub use workload::{TraceWorkload, WorkloadReader};
