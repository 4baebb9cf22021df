//! # rh-sim — deterministic discrete-event simulation engine
//!
//! The foundation of RootHammer-RS, a reproduction of *"A Fast Rejuvenation
//! Technique for Server Consolidation with Virtual Machines"* (Kourai &
//! Chiba, DSN 2007). Every higher layer — machine memory, disks, guest
//! kernels, the VMM itself — runs on this engine's virtual clock, so whole
//! rejuvenation experiments (minutes of simulated wall-clock, dozens of VMs)
//! execute deterministically in milliseconds.
//!
//! ## Modules
//!
//! * [`time`] — integer-microsecond instants and durations,
//! * [`engine`] — the one event core: a 4-ary heap whose entries carry
//!   their payloads inline, the [`engine::World`] trait (with its
//!   [`engine::World::is_live`] hook for events the world has made stale)
//!   and the [`engine::Simulation`] driver,
//! * [`flat`] — the fleet scheduler's former names, aliases of the engine
//!   kept for the perfbench package,
//! * [`resource`] — a processor-sharing resource (disk/CPU contention) and
//!   the [`resource::Retick`] wake-up helper,
//! * [`histogram`] — log-bucketed latency histograms,
//! * [`pool`] — a deterministic scoped worker pool (indexed tasks,
//!   submission-order assembly, byte-identical output at any job count),
//! * [`rng`] — seeded deterministic randomness (in-repo xoshiro256++),
//! * [`series`] — time-series and completion-log recorders,
//! * [`stats`] — summary statistics and least-squares fitting,
//! * [`testkit`] — a zero-dependency property-testing harness.
//!
//! ## Example
//!
//! ```
//! use rh_sim::engine::{Scheduler, Simulation, World};
//! use rh_sim::resource::{JobId, PsResource, Retick};
//! use rh_sim::time::{SimDuration, SimTime};
//!
//! // A world with one shared disk writing two VM memory images.
//! #[derive(Debug)]
//! enum Ev { DiskWake(u64) }
//!
//! struct Saver {
//!     disk: PsResource,
//!     wake: Retick,
//!     saved: Vec<JobId>,
//! }
//!
//! impl World for Saver {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, _ev: Ev) {
//!         self.wake.fired();
//!         let now = sched.now();
//!         self.saved.extend(self.disk.take_completed(now));
//!         self.wake.reschedule(sched, self.disk.next_completion(now), Ev::DiskWake);
//!     }
//!
//!     fn is_live(&self, ev: &Ev) -> bool {
//!         let Ev::DiskWake(gen) = *ev;
//!         self.wake.is_live(gen)
//!     }
//! }
//!
//! let mut sim = Simulation::new(Saver {
//!     disk: PsResource::new(85.0e6), // 85 MB/s
//!     wake: Retick::new(),
//!     saved: Vec::new(),
//! });
//! let (world, sched) = sim.parts_mut();
//! world.disk.submit(sched.now(), 1.0e9); // 1 GB image
//! world.disk.submit(sched.now(), 1.0e9); // another
//! let next = world.disk.next_completion(sched.now());
//! world.wake.reschedule(sched, next, Ev::DiskWake);
//! sim.run_until_idle();
//! assert_eq!(sim.world().saved.len(), 2);
//! // Two 1 GB images over one 85 MB/s disk: ~23.5 s.
//! assert!((sim.now().as_secs_f64() - 2.0e9 / 85.0e6).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod flat;
pub mod histogram;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod series;
pub mod stats;
pub mod testkit;
pub mod time;

pub use engine::{Scheduler, Simulation, World};
pub use resource::{JobId, PsResource, Retick};
pub use time::{SimDuration, SimTime};
