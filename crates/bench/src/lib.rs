//! # rh-bench — the experiment harness
//!
//! One module (and one binary) per table/figure of the paper's evaluation,
//! regenerating each result from the simulated host. See DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
//!
//! | module | paper result |
//! |--------|--------------|
//! | [`fig45`] | Figs. 4 & 5 — pre/post-reboot task times vs memory size and VM count |
//! | [`sec52`] | §5.2 — quick reload vs hardware reset |
//! | [`fig6`]  | Fig. 6 — service downtime (ssh / JBoss) per strategy |
//! | [`sec53`] | §5.3 — availability (four nines vs three) |
//! | [`fig7`]  | Fig. 7 — downtime breakdown + throughput trace |
//! | [`fig8`]  | Fig. 8 — file-read and web throughput before/after |
//! | [`sec56`] | §5.6 — least-squares model extraction |
//! | [`fig9`]  | Fig. 9 / §6 — cluster total throughput |
//! | [`ablations`] | DESIGN.md ablations (suspend ordering, reservation order, driver domains) |
//! | [`reliability`] | proactive vs adaptive vs reactive rejuvenation under injected aging |
//! | [`frontier`] | DESIGN.md §15 — the 5-strategy downtime/degradation frontier |
//! | [`fleet`] | DESIGN.md §16 — datacenter fleet: placement × campaign SLA sweep |
//! | [`cell`] | DESIGN.md §17 — serverless cell: cold-start latency vs overcommit per strategy |
//! | [`cli`] | the front end of every binary but `corebench`: flags, run record, exit status |
//!
//! Each experiment module prints its result through a `report` function
//! on a [`cli::Run`], which runs and records the module's sweeps; the
//! `all` binary is the ordered list of those calls.
//!
//! The [`json`] module is the in-tree JSON emitter/validator behind the
//! `BENCH_repro.json` run records (string escaping, NaN→null hardening,
//! and a validating parser for whole-file tests).
//!
//! The [`core`] module is the engine-throughput suite behind the
//! `corebench` binary: fixed-size DES and digest workloads, the
//! `BENCH_core.json` document, and the regression gate that
//! `scripts/verify.sh` runs against the committed baseline
//! (PERFORMANCE.md).
//!
//! The [`exec`] module is the deterministic parallel experiment executor:
//! every sweep above is a set of independent fixed-seed simulations, so the
//! sweep modules express their points as closures over [`exec::Sweep`] and
//! the binaries accept `--jobs N` — results are byte-identical to a
//! sequential run (DESIGN.md §10).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod cell;
pub mod cli;
pub mod core;
pub mod exec;
pub mod fig45;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod frontier;
pub mod json;
pub mod reliability;
pub mod sec52;
pub mod sec53;
pub mod sec56;
pub mod util;
