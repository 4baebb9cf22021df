//! A static model checker for the warm-VM reboot protocol.
//!
//! The suspend → xexec → resume lifecycle (paper §4.2–4.3) is declared as
//! an explicit transition table over a small model built from the *real*
//! `rh-memory` primitives — [`MachineMemory`], [`P2mTable`],
//! [`FrameContents`] and the order-sensitive digest — so the invariants
//! checked here are the same objects the simulator trusts at runtime.
//! `explore` walks **every interleaving** of N domains' events through the
//! generic engine in [`crate::explore`] — true FIFO breadth-first (so
//! counterexample traces are shortest), with visited-state dedup — and
//! checks four invariants in every reachable state:
//!
//! * **I1 frozen-frames-reserved** — no frame of any domain is ever free in
//!   the machine allocator; in particular, after a quick reload every
//!   frozen frame must have been re-reserved via
//!   [`MachineMemory::count_free_in`] before anything else allocates.
//! * **I2 digest-preservation** — from the moment a domain is frozen, the
//!   digest of its memory in pseudo-physical order equals the digest
//!   captured at suspend, through reload and resume.
//! * **I3 exec-state-bounded** — every saved execution-state record fits
//!   the fixed 16 KB preserved slot ([`ExecState::MAX_BYTES`]).
//! * **I4 p2m-survives** — every P2M table keeps its full page count,
//!   stays internally consistent, and no machine frame belongs to two
//!   domains.
//!
//! The checker also models the §4.3 hazard: with
//! [`ProtocolConfig::buggy_reload`] the reload initializes the new VMM
//! (scribbling scratch memory) *before* replaying the P2M tables, and the
//! exploration must find the I2 violation and print the offending event
//! trace.
//!
//! **Faults mode** ([`ProtocolConfig::faults`]) extends the event set with
//! one injected VMM crash per interleaving (plus at most one post-crash
//! memory corruption) and a ReHype-style recovery event, and adds a fifth
//! invariant:
//!
//! * **I5 recovery-validation** — after a crash, every domain is either
//!   resumed with its pre-crash digest intact or cold-booted from fresh
//!   frames; a domain whose frozen image was damaged is **never** handed
//!   back. With [`ProtocolConfig::unsafe_recovery`] the recovery skips the
//!   digest validation, and the exploration must produce the I5
//!   counterexample trace.
//!
//! **Scaling** (DESIGN.md §14): by default exploration runs *reduced* —
//! the visited set holds **canonical** encodings quotiented under domain
//! permutation (all domains are configured identically, so states that
//! differ only by a relabeling of domains are one state), and the engine
//! applies partial-order reduction over the static independence relation
//! declared here (domain-local lifecycle events of different domains
//! commute, and commute with staging and scratch activity). Pass
//! [`crate::explore::Options`] with `reduce: false` to reproduce the raw
//! enumeration; the two must agree on pass/fail and on the violated
//! invariant for every config — property-tested below on all small
//! configs.
//!
//! The visited set is a `BTreeSet` of canonical state encodings — by this
//! crate's own `hashmap-iter` rule, nothing here may iterate a hash map.

use std::fmt;

use crate::explore::{self, Counterexample, Model, Options as ExploreOptions, Run};

use rh_memory::contents::{DigestBuilder, FrameContents};
use rh_memory::frame::{FrameRange, Mfn, Pfn};
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_vmm::domain::ExecState;

/// Frames the model VMM claims for its own image (the miniature analogue
/// of `rh_vmm::vmm::VMM_RESERVED_FRAMES`).
const MODEL_VMM_FRAMES: u64 = 2;

/// Model scale and fault injection.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Number of guest domains whose events are interleaved.
    pub domains: u32,
    /// Frames per domain (small: state space, not memory size, is under test).
    pub frames_per_domain: u64,
    /// Scratch frames the VMM scribbles during initialization.
    pub scratch_frames: u64,
    /// Extra free frames beyond VMM + domains.
    pub slack_frames: u64,
    /// Bytes of each saved execution-state record.
    pub exec_bytes: u64,
    /// Replay the P2M tables *after* VMM init instead of before — the
    /// §4.3 corruption hazard the checker must catch.
    pub buggy_reload: bool,
    /// Interleave one injected VMM crash (and at most one post-crash
    /// memory corruption) with the protocol, plus the recovery event.
    pub faults: bool,
    /// Recovery skips digest validation — deliberately wrong; the
    /// exploration must find the I5 counterexample.
    pub unsafe_recovery: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            domains: 3,
            frames_per_domain: 4,
            scratch_frames: 2,
            slack_frames: 4,
            exec_bytes: ExecState::MAX_BYTES,
            buggy_reload: false,
            faults: false,
            unsafe_recovery: false,
        }
    }
}

/// One protocol event. `u32` payloads are domain indices (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The suspend hypercall starts for a domain.
    Suspend(u32),
    /// The domain's memory image is frozen; exec state saved.
    SuspendDone(u32),
    /// The next VMM build is staged (xexec load).
    StageImage,
    /// Domain 0 shuts down (all guests are frozen).
    Dom0Shutdown,
    /// The new VMM instance boots via the staged image.
    QuickReload,
    /// Domain 0 boots on the new instance.
    Dom0Boot,
    /// A frozen domain begins resuming.
    Resume(u32),
    /// The resume handler finishes; digest is verified.
    ResumeDone(u32),
    /// Background VMM/dom0 activity: allocate, scribble and release
    /// scratch frames.
    VmmScratch,
    /// Faults mode: the VMM fails; survivors are frozen in place.
    Crash,
    /// Faults mode: a frozen domain's memory is damaged post-crash.
    CorruptFrozen(u32),
    /// Faults mode: ReHype-style recovery — micro-reboot the VMM,
    /// salvage validated domains, cold-boot the rest.
    Recover,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Suspend(d) => write!(f, "suspend(dom{})", d + 1),
            Event::SuspendDone(d) => write!(f, "suspend-done(dom{})", d + 1),
            Event::StageImage => write!(f, "stage-image"),
            Event::Dom0Shutdown => write!(f, "dom0-shutdown"),
            Event::QuickReload => write!(f, "quick-reload"),
            Event::Dom0Boot => write!(f, "dom0-boot"),
            Event::Resume(d) => write!(f, "resume(dom{})", d + 1),
            Event::ResumeDone(d) => write!(f, "resume-done(dom{})", d + 1),
            Event::VmmScratch => write!(f, "vmm-scratch"),
            Event::Crash => write!(f, "vmm-crash"),
            Event::CorruptFrozen(d) => write!(f, "corrupt-frozen(dom{})", d + 1),
            Event::Recover => write!(f, "recover-microreboot"),
        }
    }
}

/// Translates a model-event path into the typed [`rh_obs::Event`] stream
/// the rest of the repo renders and queries. Counterexample traces print
/// through the same [`rh_obs::render_numbered`] renderer as host traces,
/// so a checker finding reads exactly like a simulator trace.
///
/// The mapper is stateful where the obs events carry payloads the model
/// leaves implicit: the staged-build version counts up from 1 per
/// [`Event::StageImage`], and the VMM generation counts up from 1 per
/// [`Event::QuickReload`] / [`Event::Recover`] (mirroring the model's own
/// `generation` counter). Model domain indices are 0-based; obs domains
/// are the 1-based `domU<n>`.
pub fn to_obs_trace(events: &[Event]) -> Vec<rh_obs::Event> {
    let dom = |d: u32| rh_obs::DomId(d + 1);
    let mut version: u64 = 1;
    let mut generation: u64 = 1;
    events
        .iter()
        .map(|e| match *e {
            Event::Suspend(d) => rh_obs::Event::Suspending(dom(d)),
            Event::SuspendDone(d) => rh_obs::Event::Frozen(dom(d)),
            Event::StageImage => {
                let staged = rh_obs::Event::XexecStaged { version };
                version += 1;
                staged
            }
            Event::Dom0Shutdown => rh_obs::Event::Dom0Down,
            Event::QuickReload => {
                generation += 1;
                rh_obs::Event::VmmUp { generation }
            }
            Event::Dom0Boot => rh_obs::Event::Dom0Up,
            Event::Resume(d) => rh_obs::Event::Resuming(dom(d)),
            Event::ResumeDone(d) => rh_obs::Event::Resumed(dom(d)),
            Event::VmmScratch => rh_obs::Event::note("vmm", "scratch scribble"),
            Event::Crash => rh_obs::Event::VmmCrashed,
            Event::CorruptFrozen(d) => rh_obs::Event::FrameCorrupted {
                dom: dom(d),
                pfn: 0,
            },
            Event::Recover => {
                generation += 1;
                rh_obs::Event::RecoveryCommanded(rh_obs::RecoveryKind::Microreboot)
            }
        })
        .collect()
}

/// Lifecycle phase of one model domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Suspending,
    Frozen,
    Resuming,
    Resumed,
}

#[derive(Debug, Clone)]
struct DomState {
    phase: Phase,
    p2m: P2mTable,
    /// Digest captured at suspend; the preservation reference.
    frozen_digest: Option<u64>,
    /// Size of the saved execution-state record.
    exec_bytes: Option<u64>,
    /// Faults mode: the frozen image was deliberately damaged post-crash.
    damaged: bool,
    /// Faults mode: recovery rebuilt this domain from fresh frames.
    cold_booted: bool,
}

/// The full model state between events.
#[derive(Debug, Clone)]
struct ModelState {
    ram: MachineMemory,
    contents: FrameContents,
    doms: Vec<DomState>,
    staged: bool,
    dom0_up: bool,
    vmm_down: bool,
    reloaded: bool,
    /// Faults mode: the one injected crash has happened.
    crashed: bool,
    generation: u64,
}

fn logical_digest(p2m: &P2mTable, contents: &FrameContents) -> u64 {
    // Mirrors rh_storage::image::logical_digest: pseudo-physical order,
    // order-sensitive.
    let mut d = DigestBuilder::new();
    for (pfn, mfn) in p2m.iter_pages() {
        d.add(pfn.0, contents.read(mfn));
    }
    d.finish()
}

impl ModelState {
    fn init(cfg: &ProtocolConfig) -> Result<ModelState, String> {
        let total =
            MODEL_VMM_FRAMES + u64::from(cfg.domains) * cfg.frames_per_domain + cfg.slack_frames;
        let mut ram = MachineMemory::new(total);
        ram.reserve_exact(FrameRange::new(Mfn(0), MODEL_VMM_FRAMES))
            .map_err(|e| format!("model init: vmm reserve: {e}"))?;
        let mut contents = FrameContents::new();
        let mut doms = Vec::new();
        for i in 0..cfg.domains {
            let frames = ram
                .allocate(cfg.frames_per_domain)
                .map_err(|e| format!("model init: dom{} alloc: {e}", i + 1))?;
            let mut p2m = P2mTable::new();
            p2m.map_contiguous(Pfn(0), &frames)
                .map_err(|e| format!("model init: dom{} map: {e}", i + 1))?;
            for (j, r) in frames.iter().enumerate() {
                contents.fill_pattern(*r, 0x5EED_0000 + u64::from(i) * 64 + j as u64);
            }
            doms.push(DomState {
                phase: Phase::Running,
                p2m,
                frozen_digest: None,
                exec_bytes: None,
                damaged: false,
                cold_booted: false,
            });
        }
        Ok(ModelState {
            ram,
            contents,
            doms,
            staged: false,
            dom0_up: true,
            vmm_down: false,
            reloaded: false,
            crashed: false,
            generation: 1,
        })
    }

    fn all_frozen(&self) -> bool {
        self.doms.iter().all(|d| d.phase == Phase::Frozen)
    }

    /// Events whose guards pass in this state, in deterministic order.
    fn enabled_events(&self, cfg: &ProtocolConfig) -> Vec<Event> {
        let mut out = Vec::new();
        if !self.staged && !self.vmm_down && !self.reloaded {
            out.push(Event::StageImage);
        }
        // The real host shuts dom0 down as soon as the image is staged and
        // only then suspends the guests; the checker accepts either order.
        // What it must NOT accept is a quick reload before every guest is
        // frozen — the reload scrubs unreserved frames.
        if self.dom0_up && !self.vmm_down && self.staged {
            out.push(Event::Dom0Shutdown);
        }
        if self.vmm_down && self.staged && self.all_frozen() {
            out.push(Event::QuickReload);
        }
        if self.reloaded && !self.dom0_up {
            out.push(Event::Dom0Boot);
        }
        if self.dom0_up
            && !self.vmm_down
            && self.ram.free_frames() >= cfg.scratch_frames
            && cfg.scratch_frames > 0
        {
            out.push(Event::VmmScratch);
        }
        if cfg.faults && !self.crashed {
            out.push(Event::Crash);
        }
        if self.crashed && self.vmm_down {
            // Post-crash, pre-recovery window: the fault may damage one
            // frozen image (at most one per path — the interleavings under
            // test, not the damage arity, grow the state space).
            if !self.doms.iter().any(|d| d.damaged) {
                for (i, d) in self.doms.iter().enumerate() {
                    if d.phase == Phase::Frozen {
                        out.push(Event::CorruptFrozen(i as u32));
                    }
                }
            }
            out.push(Event::Recover);
        }
        for (i, d) in self.doms.iter().enumerate() {
            let i = i as u32;
            // A crashed VMM serves nothing until recovery brings it back.
            if self.crashed && self.vmm_down {
                break;
            }
            match d.phase {
                // Suspend hypercalls are served by the old VMM instance,
                // which keeps running after dom0 goes down (until the
                // reload), so `vmm_down` does not gate them.
                Phase::Running if !self.reloaded => {
                    out.push(Event::Suspend(i));
                }
                Phase::Suspending => out.push(Event::SuspendDone(i)),
                Phase::Frozen if self.reloaded && self.dom0_up => {
                    out.push(Event::Resume(i));
                }
                Phase::Resuming => out.push(Event::ResumeDone(i)),
                _ => {}
            }
        }
        out
    }

    /// Applies one event. The caller has checked the guard via
    /// [`enabled_events`](Self::enabled_events); a guard failure here is a
    /// checker bug and is reported as an error string.
    fn apply(&mut self, event: Event, cfg: &ProtocolConfig) -> Result<(), String> {
        match event {
            Event::Suspend(i) => {
                self.dom_mut(i)?.phase = Phase::Suspending;
            }
            Event::SuspendDone(i) => {
                let digest = {
                    let d = self.dom(i)?;
                    logical_digest(&d.p2m, &self.contents)
                };
                let d = self.dom_mut(i)?;
                d.phase = Phase::Frozen;
                d.frozen_digest = Some(digest);
                d.exec_bytes = Some(cfg.exec_bytes);
            }
            Event::StageImage => self.staged = true,
            Event::Dom0Shutdown => {
                self.dom0_up = false;
                self.vmm_down = true;
            }
            Event::QuickReload => self.quick_reload(cfg)?,
            Event::Dom0Boot => self.dom0_up = true,
            Event::Resume(i) => {
                self.dom_mut(i)?.phase = Phase::Resuming;
            }
            Event::ResumeDone(i) => {
                self.dom_mut(i)?.phase = Phase::Resumed;
            }
            Event::VmmScratch => {
                let scratch = self
                    .ram
                    .allocate(cfg.scratch_frames)
                    .map_err(|e| format!("scratch alloc: {e}"))?;
                for r in &scratch {
                    self.contents
                        .fill_pattern(*r, 0x5C2A_0000 ^ self.generation);
                }
                self.ram
                    .release(&scratch)
                    .map_err(|e| format!("scratch release: {e}"))?;
            }
            Event::Crash => {
                self.crashed = true;
                self.vmm_down = true;
                self.dom0_up = false;
                // The staged image dies with the pipeline; recovery
                // restages its own.
                self.staged = false;
                // Survivors are frozen in place; whatever their memory
                // holds right now becomes the preservation reference —
                // exactly what the host's recovery engine records.
                let contents = &self.contents;
                for d in &mut self.doms {
                    if d.phase != Phase::Frozen {
                        d.frozen_digest = Some(logical_digest(&d.p2m, contents));
                        d.exec_bytes = Some(cfg.exec_bytes);
                        d.phase = Phase::Frozen;
                    }
                }
            }
            Event::CorruptFrozen(i) => {
                let r = self
                    .dom(i)?
                    .p2m
                    .machine_ranges()
                    .first()
                    .copied()
                    .ok_or_else(|| format!("corrupt: dom{} has no extents", i + 1))?;
                self.contents.fill_pattern(r, 0xBAD0_0000 ^ self.generation);
                self.dom_mut(i)?.damaged = true;
            }
            Event::Recover => self.recover(cfg)?,
        }
        Ok(())
    }

    /// The quick reload: a fresh allocator for the new VMM instance. The
    /// correct order replays the preserved P2M tables through
    /// `reserve_exact` *first*; the buggy order runs VMM init (scratch
    /// scribble) before the replay — paper §4.3's corruption scenario.
    fn quick_reload(&mut self, cfg: &ProtocolConfig) -> Result<(), String> {
        let mut ram = MachineMemory::new(self.ram.total_frames());
        let replay = |ram: &mut MachineMemory, doms: &[DomState]| -> Result<(), String> {
            for (i, d) in doms.iter().enumerate() {
                for r in d.p2m.machine_ranges() {
                    ram.reserve_exact(r)
                        .map_err(|e| format!("reload: dom{} frames not preservable: {e}", i + 1))?;
                }
            }
            Ok(())
        };
        let vmm_init = |ram: &mut MachineMemory,
                        contents: &mut FrameContents,
                        generation: u64|
         -> Result<(), String> {
            ram.reserve_exact(FrameRange::new(Mfn(0), MODEL_VMM_FRAMES))
                .map_err(|e| format!("reload: vmm reserve: {e}"))?;
            if cfg.scratch_frames > 0 {
                let scratch = ram
                    .allocate(cfg.scratch_frames)
                    .map_err(|e| format!("reload: scratch: {e}"))?;
                for r in &scratch {
                    contents.fill_pattern(*r, 0xDEAD_0000 ^ generation);
                }
                ram.release(&scratch)
                    .map_err(|e| format!("reload: scratch release: {e}"))?;
            }
            Ok(())
        };
        if cfg.buggy_reload {
            vmm_init(&mut ram, &mut self.contents, self.generation)?;
            replay(&mut ram, &self.doms)?;
        } else {
            replay(&mut ram, &self.doms)?;
            vmm_init(&mut ram, &mut self.contents, self.generation)?;
        }
        self.ram = ram;
        self.generation += 1;
        self.staged = false;
        self.vmm_down = false;
        self.reloaded = true;
        Ok(())
    }

    /// ReHype-style recovery: a fresh allocator, preserved P2M tables
    /// replayed for every domain whose frozen digest still validates,
    /// fresh frames for the rest (cold boot). With
    /// [`ProtocolConfig::unsafe_recovery`] the validation is skipped and
    /// every domain is salvaged blindly — the deliberate bug I5 catches.
    fn recover(&mut self, cfg: &ProtocolConfig) -> Result<(), String> {
        let mut ram = MachineMemory::new(self.ram.total_frames());
        let salvage: Vec<bool> = self
            .doms
            .iter()
            .map(|d| {
                cfg.unsafe_recovery
                    || d.frozen_digest == Some(logical_digest(&d.p2m, &self.contents))
            })
            .collect();
        for (i, d) in self.doms.iter().enumerate() {
            if salvage[i] {
                for r in d.p2m.machine_ranges() {
                    ram.reserve_exact(r)
                        .map_err(|e| format!("recover: dom{} frames: {e}", i + 1))?;
                }
            }
        }
        // The replacement VMM claims its own region and initializes —
        // after the replay, never before (the §4.3 lesson applies to
        // recovery too).
        ram.reserve_exact(FrameRange::new(Mfn(0), MODEL_VMM_FRAMES))
            .map_err(|e| format!("recover: vmm reserve: {e}"))?;
        if cfg.scratch_frames > 0 {
            let scratch = ram
                .allocate(cfg.scratch_frames)
                .map_err(|e| format!("recover: scratch: {e}"))?;
            for r in &scratch {
                self.contents
                    .fill_pattern(*r, 0xDEAD_0000 ^ self.generation);
            }
            ram.release(&scratch)
                .map_err(|e| format!("recover: scratch release: {e}"))?;
        }
        for (i, salvaged) in salvage.iter().enumerate() {
            if *salvaged {
                continue;
            }
            // Cold boot from fresh frames: the old image is abandoned
            // (its frames stay free in the new allocator) and every
            // preservation claim about the domain is dropped.
            let frames = ram
                .allocate(cfg.frames_per_domain)
                .map_err(|e| format!("recover: dom{} cold alloc: {e}", i + 1))?;
            let mut p2m = P2mTable::new();
            p2m.map_contiguous(Pfn(0), &frames)
                .map_err(|e| format!("recover: dom{} cold map: {e}", i + 1))?;
            for (j, r) in frames.iter().enumerate() {
                self.contents
                    .fill_pattern(*r, 0xC01D_0000 + u64::from(i as u32) * 64 + j as u64);
            }
            let d = &mut self.doms[i];
            d.p2m = p2m;
            d.frozen_digest = None;
            d.exec_bytes = None;
            d.damaged = false;
            d.cold_booted = true;
            d.phase = Phase::Resumed;
        }
        self.ram = ram;
        self.generation += 1;
        self.vmm_down = false;
        self.reloaded = true;
        self.staged = false;
        Ok(())
    }

    fn dom(&self, i: u32) -> Result<&DomState, String> {
        self.doms
            .get(i as usize)
            .ok_or_else(|| format!("no dom{}", i + 1))
    }

    fn dom_mut(&mut self, i: u32) -> Result<&mut DomState, String> {
        self.doms
            .get_mut(i as usize)
            .ok_or_else(|| format!("no dom{}", i + 1))
    }

    /// Checks every invariant; returns `(invariant, detail)` on failure.
    fn check_invariants(&self) -> Result<(), (String, String)> {
        for (i, d) in self.doms.iter().enumerate() {
            let name = format!("dom{}", i + 1);
            // I4: the P2M table survives intact and disjoint.
            if d.p2m.total_pages() == 0 {
                return Err((
                    "I4 p2m-survives".into(),
                    format!("{name}'s P2M table is empty"),
                ));
            }
            if let Err(e) = d.p2m.check_machine_disjoint() {
                return Err(("I4 p2m-survives".into(), format!("{name}: {e}")));
            }
            for (j, other) in self.doms.iter().enumerate().skip(i + 1) {
                for a in d.p2m.machine_ranges() {
                    for b in other.p2m.machine_ranges() {
                        if a.overlaps(&b) {
                            return Err((
                                "I4 p2m-survives".into(),
                                format!("{name} range {a} overlaps dom{} range {b}", j + 1),
                            ));
                        }
                    }
                }
            }
            // I1: no domain frame may ever be free in the allocator.
            for r in d.p2m.machine_ranges() {
                let free = self.ram.count_free_in(&r);
                if free > 0 {
                    return Err((
                        "I1 frozen-frames-reserved".into(),
                        format!(
                            "{free} frame(s) of {name}'s range {r} are free — \
                             reserve_exact replay did not claim them"
                        ),
                    ));
                }
            }
            // I5: a domain whose image an injected fault damaged must
            // never be handed back to its guest — recovery's validation
            // has to route it to a cold boot instead.
            if d.damaged && !d.cold_booted && matches!(d.phase, Phase::Resuming | Phase::Resumed) {
                return Err((
                    "I5 recovery-validation".into(),
                    format!(
                        "{name} was handed back with a corrupted memory image — \
                         recovery must cold-boot it"
                    ),
                ));
            }
            // I2: the frozen digest is preserved until (and through) resume.
            // A domain the fault injector itself damaged is judged by I5
            // instead: preservation is already broken by construction, and
            // the question becomes what recovery does about it.
            if d.damaged {
                continue;
            }
            if let Some(frozen) = d.frozen_digest {
                let now = logical_digest(&d.p2m, &self.contents);
                if now != frozen {
                    return Err((
                        "I2 digest-preservation".into(),
                        format!(
                            "{name}'s memory digest changed while frozen \
                             ({frozen:#018x} -> {now:#018x})"
                        ),
                    ));
                }
            }
            // I3: the saved record fits the fixed preserved slot.
            if let Some(bytes) = d.exec_bytes {
                if bytes > ExecState::MAX_BYTES {
                    return Err((
                        "I3 exec-state-bounded".into(),
                        format!(
                            "{name}'s exec-state record is {bytes} bytes \
                             (slot is {} bytes)",
                            ExecState::MAX_BYTES
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Canonical encoding for the visited set. Free-frame *contents* are
    /// deliberately excluded (scrubbed-or-scribbled free frames are
    /// behaviorally equivalent: every allocation refills before use), which
    /// is what makes the scratch-event loop converge.
    fn encode(&self) -> Vec<u64> {
        let mut out = vec![
            u64::from(self.staged),
            u64::from(self.dom0_up),
            u64::from(self.vmm_down),
            u64::from(self.reloaded),
            u64::from(self.crashed),
            self.generation,
            self.ram.free_frames(),
        ];
        for d in &self.doms {
            out.push(d.phase as u64);
            out.push(u64::from(d.damaged));
            out.push(u64::from(d.cold_booted));
            out.push(d.frozen_digest.unwrap_or(0));
            out.push(d.exec_bytes.unwrap_or(0));
            out.push(logical_digest(&d.p2m, &self.contents));
            for (pfn, r) in d.p2m.iter_extents() {
                out.push(pfn.0);
                out.push(r.start.0);
                out.push(r.count);
                out.push(self.ram.count_free_in(&r));
            }
        }
        out
    }

    /// Canonical encoding quotiented under domain permutation. All domains
    /// are configured identically (`frames_per_domain`, `exec_bytes`), so
    /// two states that differ only by a relabeling of domains have
    /// identical future behavior with respect to I1–I5; the quotient keeps
    /// one representative per orbit. Three abstractions make the orbits
    /// actually collide:
    ///
    /// * per-domain blocks are **sorted** (the permutation quotient),
    /// * absolute machine-range starts are dropped — extent *shape*
    ///   (pfn, count) and the I1-relevant free count per range remain; by
    ///   construction allocations are layout-symmetric, so start addresses
    ///   only tell domains apart,
    /// * raw digest values collapse to their equality class: `none`,
    ///   `intact` (frozen digest matches the current memory) or
    ///   `diverged`. Every transition and invariant reads digests only
    ///   through that comparison ([`Self::check_invariants`] I2,
    ///   [`Self::recover`]'s salvage decision), never the value itself.
    fn encode_canonical(&self) -> Vec<u64> {
        let mut out = vec![
            u64::from(self.staged),
            u64::from(self.dom0_up),
            u64::from(self.vmm_down),
            u64::from(self.reloaded),
            u64::from(self.crashed),
            self.generation,
            self.ram.free_frames(),
        ];
        let mut blocks: Vec<Vec<u64>> = self
            .doms
            .iter()
            .map(|d| {
                let digest_class = match d.frozen_digest {
                    None => 0,
                    Some(f) if f == logical_digest(&d.p2m, &self.contents) => 1,
                    Some(_) => 2,
                };
                let mut b = vec![
                    d.phase as u64,
                    u64::from(d.damaged),
                    u64::from(d.cold_booted),
                    digest_class,
                    d.exec_bytes.unwrap_or(0),
                    d.p2m.total_pages(),
                ];
                for (pfn, r) in d.p2m.iter_extents() {
                    b.push(pfn.0);
                    b.push(r.count);
                    b.push(self.ram.count_free_in(&r));
                }
                b
            })
            .collect();
        blocks.sort_unstable();
        for b in blocks {
            out.push(b.len() as u64);
            out.extend(b);
        }
        out
    }

    fn all_resumed(&self) -> bool {
        self.doms.iter().all(|d| d.phase == Phase::Resumed)
    }
}

/// The protocol automaton as a [`crate::explore::Model`].
///
/// `symmetry` selects the canonical (domain-permutation-quotient) state
/// encoding; without it the raw encoding reproduces the pre-reduction
/// enumeration exactly.
#[derive(Debug)]
struct ProtocolModel<'a> {
    cfg: &'a ProtocolConfig,
    symmetry: bool,
}

/// The static independence relation for partial-order reduction.
///
/// Only domain-local lifecycle events (`Suspend`/`SuspendDone`/`Resume`/
/// `ResumeDone`) ever join an ample set, so the relation is kept tight:
///
/// * lifecycle events of **different** domains commute (they touch
///   disjoint per-domain state, and no lifecycle guard reads another
///   domain),
/// * lifecycle events commute with [`Event::StageImage`] and
///   [`Event::VmmScratch`] (staging flips a global flag no lifecycle guard
///   reads; scratch scribbles only *free* frames, never a domain's),
/// * `Suspend`/`SuspendDone` additionally commute with
///   [`Event::Dom0Shutdown`] (suspends are served by the old VMM instance
///   after dom0 goes down; resumes need dom0, so they stay dependent).
///
/// Everything else — reload, boot, crash, corruption, recovery — is
/// declared dependent. That conservatism is also what makes the ample-set
/// condition C1 hold structurally: every event dependent on a lifecycle
/// event of domain `d` is either co-enabled with it (blocking the
/// reduction, e.g. `Crash` in faults mode) or guarded behind it
/// (`QuickReload` needs *all* domains frozen; `Resume(d)` needs `d`
/// frozen; recovery events need a crash that is co-enabled earlier).
fn independent_events(a: Event, b: Event) -> bool {
    let dom_of = |e: Event| match e {
        Event::Suspend(d) | Event::SuspendDone(d) | Event::Resume(d) | Event::ResumeDone(d) => {
            Some(d)
        }
        _ => None,
    };
    let lifecycle_vs_other = |lc: Event, other: Event| match other {
        Event::StageImage | Event::VmmScratch => true,
        Event::Dom0Shutdown => matches!(lc, Event::Suspend(_) | Event::SuspendDone(_)),
        _ => false,
    };
    match (dom_of(a), dom_of(b)) {
        (Some(da), Some(db)) => da != db,
        (Some(_), None) => lifecycle_vs_other(a, b),
        (None, Some(_)) => lifecycle_vs_other(b, a),
        (None, None) => false,
    }
}

impl Model for ProtocolModel<'_> {
    type State = ModelState;
    type Event = Event;

    fn initial(&self) -> Result<ModelState, String> {
        if self.cfg.domains == 0 || self.cfg.domains > 12 {
            return Err(
                "--domains must be in 1..=12 (use --no-reduce only on small configs)".to_string(),
            );
        }
        if self.cfg.unsafe_recovery && !self.cfg.faults {
            return Err("--unsafe-recovery only makes sense with --faults".to_string());
        }
        ModelState::init(self.cfg)
    }

    fn enabled(&self, state: &ModelState) -> Vec<Event> {
        state.enabled_events(self.cfg)
    }

    fn apply(&self, state: &ModelState, event: Event) -> Result<ModelState, String> {
        let mut next = state.clone();
        next.apply(event, self.cfg)?;
        Ok(next)
    }

    fn check(&self, state: &ModelState) -> Result<(), (String, String)> {
        state.check_invariants()
    }

    fn encode(&self, state: &ModelState) -> Vec<u64> {
        if self.symmetry {
            state.encode_canonical()
        } else {
            state.encode()
        }
    }

    fn is_goal(&self, state: &ModelState) -> bool {
        state.all_resumed()
    }

    fn trace(&self, events: &[Event]) -> Vec<rh_obs::Event> {
        to_obs_trace(events)
    }

    fn independent(&self, a: Event, b: Event) -> bool {
        independent_events(a, b)
    }

    /// Visibility with respect to I1–I5. An event is invisible only when
    /// it can never flip any invariant's truth value:
    ///
    /// * `Suspend`/`ResumeDone` move a phase between two values every
    ///   invariant treats identically,
    /// * `SuspendDone` arms I2 (trivially true at capture) and I3 — the
    ///   latter only stays true when the configured record fits the slot,
    /// * `Resume` can trigger I5 (a damaged domain handed back), which
    ///   requires faults mode.
    fn invisible(&self, event: Event) -> bool {
        match event {
            Event::Suspend(_) | Event::ResumeDone(_) => true,
            Event::SuspendDone(_) => self.cfg.exec_bytes <= ExecState::MAX_BYTES,
            Event::Resume(_) => !self.cfg.faults,
            _ => false,
        }
    }
}

/// Exhaustively explores every interleaving of the protocol's events for
/// `cfg.domains` domains, checking all invariants in every reachable state.
///
/// With `opts.reduce` (the default) the visited set is quotiented under
/// domain permutation and partial-order reduction prunes commuting
/// interleavings; with `reduce: false` the raw pre-reduction enumeration
/// runs instead. Either way exploration is breadth-first (counterexamples
/// are shortest for the encoding in use) and byte-identical at any
/// `opts.jobs`.
///
/// # Errors
///
/// Returns an error string on an invalid config, on internal checker
/// failures (model construction) or when `opts.max_states` is exhausted;
/// protocol violations come back inside the [`Run`].
pub fn explore(cfg: &ProtocolConfig, opts: &ExploreOptions) -> Result<Run<Event>, String> {
    let model = ProtocolModel {
        cfg,
        symmetry: opts.reduce,
    };
    explore::explore(&model, opts)
}

/// Replays one specific event sequence (e.g. the order the real `Host`
/// emits) through the same transition table and invariant checks
/// ([`explore::replay`] of the unreduced model).
///
/// # Errors
///
/// Returns a [`Counterexample`] if an event fires while its guard is
/// false, or any invariant fails afterwards.
pub fn replay(cfg: &ProtocolConfig, events: &[Event]) -> Result<(), Counterexample<Event>> {
    let model = ProtocolModel {
        cfg,
        symmetry: false,
    };
    explore::replay(&model, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced() -> ExploreOptions {
        ExploreOptions::default()
    }

    fn raw() -> ExploreOptions {
        ExploreOptions {
            reduce: false,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn correct_protocol_has_no_reachable_violation() {
        let cfg = ProtocolConfig::default();
        let result = explore(&cfg, &raw()).unwrap();
        assert!(result.passed(), "violation: {:?}", result.violation);
        assert!(
            result.states > 50,
            "expected real interleaving, got {}",
            result.states
        );
        assert!(result.completed >= 1, "no run reached all-resumed");
        let red = explore(&cfg, &reduced()).unwrap();
        assert!(red.passed(), "violation: {:?}", red.violation);
        assert!(
            red.states < result.states,
            "reduction must shrink the state space ({} vs {})",
            red.states,
            result.states
        );
        assert!(red.completed >= 1);
    }

    #[test]
    fn raw_counts_match_the_pre_reduction_checker() {
        // The exact numbers the DFS-era checker reported for the default
        // model — `reduce: false` must keep reproducing the raw
        // enumeration (BFS visits the same reachable set).
        for (domains, states, transitions) in [(1, 13, 25), (2, 37, 95), (3, 109, 353)] {
            let cfg = ProtocolConfig {
                domains,
                ..ProtocolConfig::default()
            };
            let result = explore(&cfg, &raw()).unwrap();
            assert_eq!(result.states, states, "domains={domains}");
            assert_eq!(result.transitions, transitions, "domains={domains}");
        }
    }

    #[test]
    fn buggy_reload_order_is_caught_with_trace() {
        let cfg = ProtocolConfig {
            buggy_reload: true,
            ..ProtocolConfig::default()
        };
        let result = explore(&cfg, &raw()).unwrap();
        let v = result.violation.expect("§4.3 hazard must be found");
        assert_eq!(v.invariant, "I2 digest-preservation");
        assert!(
            matches!(v.trace.last(), Some(rh_obs::Event::VmmUp { .. })),
            "violation must land on the quick reload: {:?}",
            v.trace.last()
        );
    }

    #[test]
    fn buggy_i2_counterexample_is_minimal_length() {
        // Shortest possible §4.3 counterexample: each of the 3 domains
        // must suspend (2 events each) before dom0 can stop and the buggy
        // reload can scribble = 3*2 + stage + shutdown + reload = 9.
        let cfg = ProtocolConfig {
            buggy_reload: true,
            ..ProtocolConfig::default()
        };
        for opts in [raw(), reduced()] {
            let result = explore(&cfg, &opts).unwrap();
            let v = result.violation.expect("§4.3 hazard must be found");
            assert_eq!(v.invariant, "I2 digest-preservation");
            assert_eq!(
                v.events.len(),
                9,
                "BFS must find a minimal trace (reduce={}): {:?}",
                opts.reduce,
                v.events
            );
            assert_eq!(v.events.last(), Some(&Event::QuickReload));
            // The counterexample is a genuine path: replaying it through
            // the unreduced transition table reproduces the violation.
            let r = replay(&cfg, &v.events).unwrap_err();
            assert_eq!(r.invariant, "I2 digest-preservation");
        }
    }

    #[test]
    fn oversized_exec_state_is_caught() {
        let cfg = ProtocolConfig {
            exec_bytes: ExecState::MAX_BYTES + 1,
            ..ProtocolConfig::default()
        };
        for opts in [raw(), reduced()] {
            let result = explore(&cfg, &opts).unwrap();
            let v = result.violation.expect("oversized record must be found");
            assert_eq!(v.invariant, "I3 exec-state-bounded");
        }
    }

    #[test]
    fn faults_mode_recovery_invariant_holds() {
        let cfg = ProtocolConfig {
            faults: true,
            ..ProtocolConfig::default()
        };
        let result = explore(&cfg, &reduced()).unwrap();
        assert!(result.passed(), "violation: {:?}", result.violation);
        assert!(result.completed >= 1, "no run reached all-resumed");
    }

    #[test]
    fn unsafe_recovery_produces_counterexample() {
        let cfg = ProtocolConfig {
            faults: true,
            unsafe_recovery: true,
            ..ProtocolConfig::default()
        };
        let result = explore(&cfg, &raw()).unwrap();
        let v = result.violation.expect("blind salvage must be caught");
        assert_eq!(v.invariant, "I5 recovery-validation");
        let has = |pred: fn(&rh_obs::Event) -> bool, what: &str| {
            assert!(
                v.trace.iter().any(pred),
                "trace missing {what}: {:?}",
                v.trace
            );
        };
        has(|e| matches!(e, rh_obs::Event::VmmCrashed), "the VMM crash");
        has(
            |e| matches!(e, rh_obs::Event::FrameCorrupted { .. }),
            "the frozen-image corruption",
        );
        has(
            |e| {
                matches!(
                    e,
                    rh_obs::Event::RecoveryCommanded(rh_obs::RecoveryKind::Microreboot)
                )
            },
            "the micro-reboot recovery",
        );
    }

    #[test]
    fn unsafe_i5_counterexample_is_minimal_length() {
        // Shortest blind-salvage failure: crash (freezes everyone in
        // place), corrupt one image, recover (salvages it blindly), boot
        // dom0, hand the damaged domain back. The DFS-era checker
        // reported a 14-event wander; BFS pins the 5-event minimum.
        let cfg = ProtocolConfig {
            faults: true,
            unsafe_recovery: true,
            ..ProtocolConfig::default()
        };
        let result = explore(&cfg, &raw()).unwrap();
        let v = result.violation.expect("blind salvage must be caught");
        assert_eq!(
            v.events,
            vec![
                Event::Crash,
                Event::CorruptFrozen(0),
                Event::Recover,
                Event::Dom0Boot,
                Event::Resume(0),
            ],
            "expected the minimal golden trace"
        );
        let r = replay(&cfg, &v.events).unwrap_err();
        assert_eq!(r.invariant, "I5 recovery-validation");
        // Reduced exploration finds the same invariant (trace may differ
        // per the agreement contract, but must still be a genuine path).
        let red = explore(&cfg, &reduced()).unwrap();
        let rv = red.violation.expect("reduction must not mask I5");
        assert_eq!(rv.invariant, "I5 recovery-validation");
        let rr = replay(&cfg, &rv.events).unwrap_err();
        assert_eq!(rr.invariant, "I5 recovery-validation");
    }

    #[test]
    fn reduced_and_raw_agree_on_all_small_configs() {
        // The reduction-soundness property test from ISSUE 7: on every
        // small config, reduced exploration reaches the same verdict as
        // the raw enumeration — same pass/fail, same violated invariant —
        // and a reduced counterexample replays through the unreduced
        // transition table to the same violation.
        type Tweak = fn(&mut ProtocolConfig);
        let variants: [(&str, Tweak); 5] = [
            ("default", |_| {}),
            ("buggy", |c| c.buggy_reload = true),
            ("faults", |c| c.faults = true),
            ("unsafe", |c| {
                c.faults = true;
                c.unsafe_recovery = true;
            }),
            ("oversized-exec", |c| {
                c.exec_bytes = ExecState::MAX_BYTES + 1
            }),
        ];
        for domains in 1..=3 {
            for (name, tweak) in &variants {
                let mut cfg = ProtocolConfig {
                    domains,
                    ..ProtocolConfig::default()
                };
                tweak(&mut cfg);
                let raw_run = explore(&cfg, &raw()).unwrap();
                let red_run = explore(&cfg, &reduced()).unwrap();
                let ctx = format!("domains={domains} variant={name}");
                assert_eq!(raw_run.passed(), red_run.passed(), "{ctx}");
                assert!(
                    red_run.states <= raw_run.states,
                    "{ctx}: reduction grew the state space ({} vs {})",
                    red_run.states,
                    raw_run.states
                );
                match (&raw_run.violation, &red_run.violation) {
                    (None, None) => {}
                    (Some(u), Some(r)) => {
                        assert_eq!(u.invariant, r.invariant, "{ctx}");
                        let replayed = replay(&cfg, &r.events)
                            .expect_err("reduced counterexample must replay");
                        assert_eq!(replayed.invariant, r.invariant, "{ctx}");
                    }
                    other => panic!("{ctx}: verdicts diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn reduction_scales_one_domain_size_further_under_budget() {
        // The ISSUE 7 acceptance criterion, as a test: take the raw
        // checker's capacity at 4 domains as the state budget; raw
        // exploration of 5 domains blows it, reduced exploration finishes
        // 5 domains (and proves the invariants) well inside it.
        let cfg_at = |domains| ProtocolConfig {
            domains,
            ..ProtocolConfig::default()
        };
        let raw_d4 = explore(&cfg_at(4), &raw()).unwrap();
        assert!(raw_d4.passed());
        let budget = ExploreOptions {
            max_states: Some(raw_d4.states),
            ..ExploreOptions::default()
        };
        let err = explore(
            &cfg_at(5),
            &ExploreOptions {
                reduce: false,
                ..budget.clone()
            },
        )
        .unwrap_err();
        assert!(err.contains("state budget exceeded"), "{err}");
        let red_d5 = explore(&cfg_at(5), &budget).unwrap();
        assert!(red_d5.passed(), "violation: {:?}", red_d5.violation);
        assert!(red_d5.completed >= 1);
    }

    #[test]
    fn exploration_is_byte_identical_at_any_jobs() {
        let configs = [
            ProtocolConfig::default(),
            ProtocolConfig {
                buggy_reload: true,
                ..ProtocolConfig::default()
            },
            ProtocolConfig {
                faults: true,
                unsafe_recovery: true,
                ..ProtocolConfig::default()
            },
        ];
        for cfg in &configs {
            for opts in [raw(), reduced()] {
                let baseline = explore(cfg, &opts).unwrap();
                for jobs in [2, 4] {
                    let par = explore(
                        cfg,
                        &ExploreOptions {
                            jobs,
                            ..opts.clone()
                        },
                    )
                    .unwrap();
                    assert_eq!(par, baseline, "jobs={jobs} reduce={} diverged", opts.reduce);
                }
            }
        }
    }

    #[test]
    fn replay_accepts_the_canonical_order() {
        let cfg = ProtocolConfig::default();
        let mut events = vec![Event::StageImage];
        for d in 0..cfg.domains {
            events.push(Event::Suspend(d));
            events.push(Event::SuspendDone(d));
        }
        events.push(Event::Dom0Shutdown);
        events.push(Event::QuickReload);
        events.push(Event::Dom0Boot);
        for d in 0..cfg.domains {
            events.push(Event::Resume(d));
            events.push(Event::ResumeDone(d));
        }
        replay(&cfg, &events).unwrap();
    }

    #[test]
    fn replay_rejects_resume_before_reload() {
        let cfg = ProtocolConfig::default();
        let events = vec![Event::Suspend(0), Event::SuspendDone(0), Event::Resume(0)];
        let v = replay(&cfg, &events).unwrap_err();
        assert_eq!(v.invariant, "guard");
        // The offending event closes the typed trace.
        assert_eq!(
            v.trace.last(),
            Some(&rh_obs::Event::Resuming(rh_obs::DomId(1)))
        );
    }

    #[test]
    fn obs_trace_mapping_counts_versions_and_generations() {
        let events = [
            Event::StageImage,
            Event::Suspend(0),
            Event::SuspendDone(0),
            Event::Dom0Shutdown,
            Event::QuickReload,
            Event::Crash,
            Event::Recover,
            Event::StageImage,
        ];
        let obs = to_obs_trace(&events);
        assert_eq!(obs[0], rh_obs::Event::XexecStaged { version: 1 });
        assert_eq!(obs[1], rh_obs::Event::Suspending(rh_obs::DomId(1)));
        assert_eq!(obs[2], rh_obs::Event::Frozen(rh_obs::DomId(1)));
        assert_eq!(obs[3], rh_obs::Event::Dom0Down);
        assert_eq!(obs[4], rh_obs::Event::VmmUp { generation: 2 });
        assert_eq!(obs[5], rh_obs::Event::VmmCrashed);
        assert_eq!(
            obs[6],
            rh_obs::Event::RecoveryCommanded(rh_obs::RecoveryKind::Microreboot)
        );
        assert_eq!(obs[7], rh_obs::Event::XexecStaged { version: 2 });
    }

    #[test]
    fn violation_renders_through_the_shared_numbered_renderer() {
        let v = Counterexample {
            invariant: "I2 digest-preservation".to_string(),
            detail: "demo".to_string(),
            trace: to_obs_trace(&[Event::Suspend(0), Event::QuickReload]),
            events: vec![Event::Suspend(0), Event::QuickReload],
        };
        let rendered = v.to_string();
        assert!(rendered.contains("counterexample trace (2 events):"));
        assert!(rendered.contains("    1. guest    domU1 suspending"));
        assert!(rendered.contains("    2. vmm      new VMM instance up (generation 2)"));
    }

    #[test]
    fn invalid_configs_are_rejected_with_the_cli_text() {
        let range = "--domains must be in 1..=12 (use --no-reduce only on small configs)";
        for (domains, unsafe_recovery, text) in [
            (0, false, range),
            (13, false, range),
            (3, true, "--unsafe-recovery only makes sense with --faults"),
        ] {
            let cfg = ProtocolConfig {
                domains,
                unsafe_recovery,
                ..ProtocolConfig::default()
            };
            assert_eq!(explore(&cfg, &reduced()).unwrap_err(), text, "{cfg:?}");
        }
    }

    #[test]
    fn one_domain_model_is_tiny_but_complete() {
        let cfg = ProtocolConfig {
            domains: 1,
            ..ProtocolConfig::default()
        };
        let result = explore(&cfg, &reduced()).unwrap();
        assert!(result.passed());
        assert!(result.completed >= 1);
    }

    #[test]
    fn four_domains_still_terminate() {
        let cfg = ProtocolConfig {
            domains: 4,
            ..ProtocolConfig::default()
        };
        let result = explore(&cfg, &reduced()).unwrap();
        assert!(result.passed());
    }
}
