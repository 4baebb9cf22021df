//! # rh-cell — a serverless microVM cell on an overcommitted host
//!
//! The paper's warm-VM reboot (§4) rejuvenates a consolidated server
//! without losing its VMs; serverless platforms face the same trade from
//! the other side — thousands of tiny, short-lived function VMs whose
//! *cold-start* latency is the SLA. This crate drives that regime against
//! real memory mechanism: every resident microVM holds a
//! [`rh_memory::P2mTable`] on one shared [`rh_memory::MachineMemory`],
//! squeezed by a [`rh_memory::BalloonController`] when the host is
//! overcommitted (pseudo-physical exceeding machine memory, the §4.1
//! ballooning regime).
//!
//! Three provisioning strategies compete
//! ([`ProvisionStrategy`]):
//!
//! | strategy  | on departure       | on pressure                       |
//! |-----------|--------------------|-----------------------------------|
//! | `cold`    | free the image     | queue arrivals until frames free  |
//! | `warm`    | park image frozen  | queue arrivals until frames free  |
//! | `balloon` | park image frozen  | squeeze running VMs               |
//!
//! An arrival revives a parked image whenever the pool holds one, so the
//! pool is empty whenever the host runs short of frames: pressure never
//! finds a parked image to evict.
//!
//! The cell measures cold-start latency P50/P99 (via
//! [`rh_obs::LatencyHistogram`]), memory utilization, and rejuvenation
//! cost (warm hits, pages reclaimed). The balloon/warm-reboot interaction
//! is protected by two invariants proved exhaustively in `rh-lint
//! balloon`: **I8** (a frozen image is never balloon-reclaimed while a
//! warm reboot is in flight) and **I9** (deflate never maps a frame whose
//! digest was not validated). See DESIGN.md §17.
//!
//! Arrivals come from [`rh_fleet::workload`] — the same Poisson/diurnal
//! [`WorkloadReader`](rh_fleet::WorkloadReader) machinery the fleet uses,
//! so cell and fleet runs are replayable from the same trace files.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod sim;

pub use config::{CellConfig, ProvisionStrategy};
pub use sim::{CellReport, CellSimulation};
