//! # RootHammer-RS
//!
//! A comprehensive Rust reproduction of **"A Fast Rejuvenation Technique
//! for Server Consolidation with Virtual Machines"** (Kourai & Chiba,
//! DSN 2007) — the *warm-VM reboot*: rejuvenating a virtual machine
//! monitor by rebooting only the VMM while every guest's memory image
//! stays frozen in RAM, via **on-memory suspend/resume** and **quick
//! reload** (a kexec-style, memory-preserving VMM replacement).
//!
//! The original artifact is a modified Xen 3.0.0; this crate re-implements
//! the whole stack as a deterministic discrete-event simulation calibrated
//! to the paper's testbed (see `DESIGN.md` for the substitution rationale
//! and `EXPERIMENTS.md` for paper-vs-measured numbers).
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `rh-sim` | deterministic event engine, shared resources, stats |
//! | [`memory`] | `rh-memory` | machine frames, P2M tables, content digests, VMM heap |
//! | [`storage`] | `rh-storage` | the shared SCSI disk, saved memory images |
//! | [`guest`] | `rh-guest` | guest kernels, page cache, services, TCP sessions |
//! | [`net`] | `rh-net` | downtime meters, httperf load generation |
//! | [`vmm`] | `rh-vmm` | **RootHammer itself**: suspend/resume, quick reload, the host world |
//! | [`rejuv`] | `rh-rejuv` | downtime model, availability, policies, aging detection |
//! | [`cluster`] | `rh-cluster` | rolling rejuvenation, live migration (§6) |
//!
//! ## Quick start
//!
//! ```
//! use roothammer::prelude::*;
//!
//! // A 12 GiB host consolidating three 1 GiB ssh servers.
//! let cfg = HostConfig::paper_testbed().with_vms(3, ServiceKind::Ssh);
//! let mut sim = HostSim::new(cfg);
//! sim.power_on_and_wait();
//!
//! // Rejuvenate the VMM with the warm-VM reboot.
//! let report = sim.reboot_and_wait(RebootStrategy::Warm);
//! assert!(report.corrupted.is_empty(), "guest memory verifiably preserved");
//! println!("warm reboot downtime: {}", report.mean_downtime());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use rh_cluster as cluster;
pub use rh_guest as guest;
pub use rh_memory as memory;
pub use rh_net as net;
pub use rh_rejuv as rejuv;
pub use rh_sim as sim;
pub use rh_storage as storage;
pub use rh_vmm as vmm;

/// The most common imports for driving rejuvenation experiments.
pub mod prelude {
    pub use rh_guest::services::ServiceKind;
    pub use rh_rejuv::availability::{AvailabilityComparison, AvailabilityModel};
    pub use rh_rejuv::model::DowntimeModel;
    pub use rh_rejuv::policy::{run_policy, TimeBasedPolicy};
    pub use rh_sim::time::{SimDuration, SimTime};
    pub use rh_vmm::config::{HostConfig, RebootStrategy, SuspendOrder};
    pub use rh_vmm::domain::{DomainId, DomainSpec};
    pub use rh_vmm::harness::{booted_host, HostSim};
    pub use rh_vmm::host::RebootReport;
    pub use rh_vmm::metrics::Phase;
}
