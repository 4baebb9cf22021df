//! # rh-obs — deterministic observability for the warm-reboot testbed
//!
//! The paper's whole argument is a timeline argument: Fig. 7 superimposes
//! per-phase reboot costs onto a throughput trace, and ReHype-style
//! recovery depends on reconstructing what the VMM was doing when it
//! crashed. This crate is the single substrate all of that evidence flows
//! through:
//!
//! * [`event`] — the typed [`Event`] model (phase transitions, per-domain
//!   suspend/resume, fault injections, recovery incidents, cluster host
//!   up/down), each rendering to a `(category, message)` text pair,
//! * [`log`] — the [`EventLog`]: append-only typed records with text
//!   and typed filters (domain/category/time window), a one-line text
//!   rendering and a deterministic JSONL export,
//! * [`timeline`] — typed reboot [`PhaseSpan`]s keyed by the closed
//!   [`Phase`] set; renders Fig. 7 timelines byte-identically to the old
//!   string-keyed recorder,
//! * [`metrics`] — named counters, gauges and histogram timers; no
//!   clocks, no RNG, sorted storage, snapshot-and-merge across parallel
//!   sweep workers,
//! * [`span`] — wall-clock [`WallProfile`]s for executor profiling,
//!   quarantined to `BENCH_repro.json`.
//!
//! Everything here is deterministic by construction: the crate never
//! reads a clock or draws randomness, so output is byte-identical at any
//! `--jobs` count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod log;
pub mod metrics;
pub mod phase;
pub mod span;
pub mod timeline;

pub use event::{DomId, Event, RecoveryKind, StrategyKind};
pub use log::{json_escape, render_numbered, EventLog, EventRecord};
pub use metrics::{Metrics, MetricsSnapshot};
pub use phase::Phase;
/// Re-exported so latency consumers (cell, fleet) need only rh-obs.
pub use rh_sim::histogram::LatencyHistogram;
pub use span::{WallProfile, WallSpan};
pub use timeline::{PhaseSpan, Timeline};
