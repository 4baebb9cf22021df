//! The fleet scheduler's former names, kept as aliases of the one event
//! core in [`crate::engine`].
//!
//! The fleet ran on a scheduler of its own until the host moved onto the
//! same inline-payload layout, which left [`crate::engine`] as the only
//! implementation. These three names stay only because the perfbench
//! package imports them (`perfbench/src/fleet.rs`), and its sources change
//! only in benchmark changes of their own (ROADMAP item 1(d)). New code
//! uses the engine names.

pub use crate::engine::{
    Scheduler as FlatScheduler, Simulation as FlatSimulation, World as FlatWorld,
};
