//! # rh-vmm — RootHammer, the warm-VM reboot VMM
//!
//! The paper's core contribution, implemented over the simulated machine:
//!
//! * [`vmm`] — the VMM's memory-side mechanisms: domain creation and
//!   destruction, **on-memory suspend/resume** (freeze the image in place,
//!   save 16 KB of execution state), **quick reload** (a kexec-style VMM
//!   replacement that re-reserves frozen domain memory from the preserved
//!   P2M tables before its allocator runs), and the hardware reset that
//!   destroys everything on the cold path;
//! * [`host`] — the event-driven host world that sequences the five
//!   reboot strategies (warm / cold / saved / streamed / incremental)
//!   over shared disk, CPU and network resources, measuring downtime,
//!   phase timelines and request throughput;
//! * [`harness`] — a blocking-style driver ([`harness::HostSim`]) for
//!   experiments;
//! * [`domain`], [`timing`], [`config`], [`xenstored`] — domains,
//!   calibrated constants, configuration, and the aging-prone xenstored
//!   daemon.
//!
//! ## Example: reproduce the headline result
//!
//! ```
//! use rh_guest::services::ServiceKind;
//! use rh_vmm::config::{HostConfig, RebootStrategy};
//! use rh_vmm::harness::HostSim;
//!
//! // A 12 GiB host with three 1 GiB ssh guests.
//! let cfg = HostConfig::paper_testbed().with_vms(3, ServiceKind::Ssh);
//! let mut sim = HostSim::new(cfg);
//! sim.power_on_and_wait();
//!
//! let warm = sim.reboot_and_wait(RebootStrategy::Warm);
//! assert!(warm.corrupted.is_empty());        // memory verifiably preserved
//! let warm_dt = warm.mean_downtime();
//!
//! let cold = sim.reboot_and_wait(RebootStrategy::Cold);
//! assert!(warm_dt * 2 < cold.mean_downtime()); // warm wins by a wide margin
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod domain;
pub mod events;
pub mod fault;
pub mod harness;
pub mod host;
mod idmap;
pub mod timing;
pub mod vmm;
pub mod xenstored;
pub mod xexec;

pub use config::{HostConfig, RebootStrategy, SuspendOrder};
pub use domain::{Domain, DomainId, DomainSpec, ExecState};
pub use events::{ChannelError, ChannelKind, EventChannel, EventChannelTable};
pub use fault::{FaultAction, FaultContext, FaultHook, InjectPoint};
pub use harness::{booted_host, HostSim};
pub use host::{FileReadResult, Host, HostEvent, RebootReport};
pub use timing::TimingParams;
pub use vmm::{Vmm, VmmError, VmmState};
pub use xenstored::{XenStored, XenStoredHealth};
pub use xexec::{XexecError, XexecImage, XexecState};
