//! Fault-injection hook points (the `rh-faults` ⇄ `rh-vmm` boundary).
//!
//! The host consults an armed [`FaultHook`] at a handful of named
//! [`InjectPoint`]s along the warm-reboot and recovery pipelines. With no
//! hook armed the consultation is a single `Option` check — no RNG draws,
//! no allocations, no trace lines — so an unfaulted host behaves (and
//! prints) byte-identically to one built before this module existed. The
//! trait lives here rather than in `rh-faults` so the host can hold a
//! `Box<dyn FaultHook>` without a dependency cycle; the injector crate
//! implements it.

use std::fmt;

use rh_sim::time::SimTime;

use crate::domain::DomainId;

/// A named place in the reboot/recovery pipeline where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectPoint {
    /// A domain's on-memory suspend just completed (image frozen).
    SuspendEnd,
    /// A new VMM image was just staged via xexec.
    StageImage,
    /// The quick reload is about to replace the VMM.
    QuickReload,
    /// A domain-0 boot is being scheduled.
    Dom0Boot,
    /// A domain's on-memory resume is about to start.
    ResumeStart,
}

impl fmt::Display for InjectPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InjectPoint::SuspendEnd => "suspend-end",
            InjectPoint::StageImage => "stage-image",
            InjectPoint::QuickReload => "quick-reload",
            InjectPoint::Dom0Boot => "dom0-boot",
            InjectPoint::ResumeStart => "resume-start",
        };
        f.write_str(name)
    }
}

/// What the host tells the hook about the moment of consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultContext {
    /// The current simulated instant.
    pub now: SimTime,
    /// The domain the pipeline step concerns, for per-domain points.
    pub domain: Option<DomainId>,
}

/// An effect the hook asks the host to apply at the consultation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The VMM fails in place: guests stall with their memory frozen where
    /// it sits; nothing is torn down cleanly.
    CrashVmm,
    /// XOR the staged xexec image's initrd digest without updating its
    /// checksum (the integrity check catches it at boot).
    CorruptStagedImage {
        /// Non-zero mask applied to the digest.
        xor: u64,
    },
    /// XOR the machine base of the `extent`-th P2M extent of `dom`.
    CorruptP2m {
        /// Victim domain.
        dom: DomainId,
        /// Which extent (reduced modulo the extent count).
        extent: usize,
        /// Non-zero mask applied to the extent's machine base.
        xor: u64,
    },
    /// XOR one word of `dom`'s frozen memory (`page` is reduced modulo the
    /// domain's size).
    CorruptFrame {
        /// Victim domain.
        dom: DomainId,
        /// Guest page index selecting the word.
        page: u64,
        /// Non-zero mask applied to the word.
        xor: u64,
    },
    /// Throw away `dom`'s saved execution state and frozen image (models a
    /// truncated 16 KB exec-state write: the image is unrecoverable).
    DropExecState {
        /// Victim domain.
        dom: DomainId,
    },
    /// Fail `dom`'s on-memory resume.
    FailResume {
        /// Victim domain.
        dom: DomainId,
    },
    /// Stretch the next domain-0 boot by `extra_ms` milliseconds.
    HangDom0 {
        /// Extra boot time in milliseconds.
        extra_ms: u64,
    },
}

/// A fault injector the host consults at every [`InjectPoint`].
///
/// Implementations must be deterministic: given the same construction
/// parameters and the same sequence of `consult` calls they must return
/// the same actions (`rh-faults` derives all randomness from forked
/// [`rh_sim::rng::SimRng`] streams seeded by the plan).
pub trait FaultHook: fmt::Debug {
    /// Called once per pipeline step; returns the actions to apply now.
    fn consult(&mut self, point: InjectPoint, ctx: &FaultContext) -> Vec<FaultAction>;
}
