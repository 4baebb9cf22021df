//! The typed event model.
//!
//! Every observable occurrence in the simulated testbed — reboot phase
//! transitions, suspend/resume hypercalls per domain, fault injections,
//! recovery incidents, cluster hosts going up and down, serverless-cell
//! arrivals, starts and departures — is an [`Event`] variant.
//! [`Event::category`] and [`Event::message`] render each one as the
//! `(category, message)` text pair the trace format has always printed;
//! one-off annotations without a variant of their own travel as
//! [`Event::Note`]. Only a `Note` owns heap data, so a disabled
//! [`EventLog`](crate::EventLog) drops any other variant without having
//! allocated for it.

use std::fmt;

use rh_sim::time::SimDuration;

use crate::phase::Phase;

/// A domain identifier as the observability layer sees it: `0` is the
/// privileged dom0, anything else a guest domU.
///
/// This mirrors `rh_vmm::DomainId` (which rh-obs cannot depend on without
/// a cycle) including its display format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomId(pub u32);

impl DomId {
    /// The privileged control domain.
    pub const DOM0: DomId = DomId(0);

    /// True for the privileged dom0.
    pub const fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dom0() {
            write!(f, "dom0")
        } else {
            write!(f, "domU{}", self.0)
        }
    }
}

/// The reboot strategy named in commanded/complete events (mirrors
/// `rh_vmm::RebootStrategy`, including its display form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Warm-VM reboot: guests frozen on memory across the VMM swap.
    Warm,
    /// Saved reboot: guests suspended to disk.
    Saved,
    /// Cold reboot: full hardware reset, guests rebuilt from disk.
    Cold,
    /// Streamed (post-copy) reboot: guests resume on a partial restore
    /// and fault the rest of their images in while serving.
    Streamed,
    /// Incremental reboot: background delta snapshots keep the on-disk
    /// image fresh, so the at-reboot save writes only dirty extents.
    Incremental,
}

impl StrategyKind {
    /// The display name (`"warm"` / `"saved"` / `"cold"` / ...).
    pub const fn name(self) -> &'static str {
        match self {
            StrategyKind::Warm => "warm",
            StrategyKind::Saved => "saved",
            StrategyKind::Cold => "cold",
            StrategyKind::Streamed => "streamed",
            StrategyKind::Incremental => "incremental",
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The recovery policy named in a recovery-commanded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryKind {
    /// ReHype-style micro-reboot: new VMM under the frozen domains.
    Microreboot,
    /// Baseline cold recovery: hardware reset, domains rebuilt.
    Cold,
}

/// One typed observable occurrence.
///
/// `category()` and `message()` render the trace text byte-for-byte.
/// Messages that embed error text or a one-off summary (e.g. the
/// quick-reload size summary) stay free-form as [`Event::Note`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    // --- host lifecycle -------------------------------------------------
    /// The machine was powered on.
    PowerOn,
    /// A rejuvenation reboot was commanded.
    RebootCommanded(StrategyKind),
    /// The commanded reboot finished; all domains are back in service.
    RebootComplete(StrategyKind),
    /// An injected fault crashed the VMM mid-flight.
    VmmCrashed,
    /// The VMM failed (detected failure, recovery not yet commanded).
    VmmFailed,
    /// A recovery was commanded for a failed VMM.
    RecoveryCommanded(RecoveryKind),
    /// Guest-OS rejuvenation (reboot of a single domU) was commanded.
    OsRejuvenation(DomId),
    /// Guest-OS rejuvenation was skipped because the domain is down.
    OsRejuvenationSkipped(DomId),
    /// A failed cold boot is being retried with backoff.
    ColdBootRetry {
        /// The domain being rebuilt.
        dom: DomId,
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// A domain was abandoned after exhausting cold-boot retries.
    RetriesExhausted(DomId),
    /// dom0 finished booting.
    Dom0Up,
    /// dom0 finished shutting down.
    Dom0Down,

    // --- VMM / xexec ----------------------------------------------------
    /// The next VMM build was staged into the xexec region.
    XexecStaged {
        /// Build version of the staged image.
        version: u64,
    },
    /// A fresh VMM instance is up after a quick reload.
    VmmUp {
        /// VMM generation counter after the swap.
        generation: u64,
    },
    /// The VMM is booting after a hardware reset.
    VmmBooting {
        /// VMM generation counter after the reset.
        generation: u64,
    },
    /// A frozen domain was salvaged in place during recovery.
    Salvaged(DomId),
    /// A frozen domain could not be salvaged and will cold boot.
    LostColdBoot(DomId),
    /// A domain's memory image is frozen on memory (suspend finished).
    Frozen(DomId),
    /// Writing a domain's image to disk began (saved reboot).
    SaveStarted(DomId),
    /// A domain's image finished writing to disk.
    Saved(DomId),
    /// Reading a domain's image from disk began (saved reboot).
    RestoreStarted(DomId),
    /// A domain's image finished reading from disk.
    Restored(DomId),
    /// A frozen domain failed digest validation on recovery.
    ValidationFailed(DomId),
    /// A frozen domain's memory image was found corrupted on resume.
    Corrupted(DomId),
    /// A resumed domain began streaming residual pages in from disk
    /// (streamed reboot, post-copy).
    StreamStarted(DomId),
    /// A streaming domain's residual pages all arrived; it is now fully
    /// resident again.
    StreamCompleted(DomId),
    /// A background delta snapshot of a domain's dirty extents finished
    /// writing to disk (incremental strategy).
    DeltaSnapshot {
        /// The snapshotted domain.
        dom: DomId,
        /// Bytes written (dirty extents only; 0 never emits this event).
        bytes: u64,
    },

    // --- guest lifecycle ------------------------------------------------
    /// A guest OS began shutting down.
    GuestShuttingDown(DomId),
    /// A guest OS finished shutting down.
    GuestOff(DomId),
    /// A guest domain was created and its OS is booting.
    GuestCreated(DomId),
    /// A guest OS finished booting.
    GuestBooted(DomId),
    /// A guest began its suspend handler (freeze onto memory).
    Suspending(DomId),
    /// A guest began its resume handler.
    Resuming(DomId),
    /// A guest finished resuming and is running again.
    Resumed(DomId),
    /// A guest's service came back up.
    ServiceUp(DomId),

    // --- hardware -------------------------------------------------------
    /// The machine's hardware reset line was pulled (cold reboot).
    HardwareReset,

    // --- fault injection ------------------------------------------------
    /// An injected fault corrupted the staged xexec image.
    StagedImageCorrupted,
    /// An injected fault corrupted a domain's P2M entry.
    P2mCorrupted(DomId),
    /// An injected fault corrupted one frame of a domain's memory.
    FrameCorrupted {
        /// The domain owning the frame.
        dom: DomId,
        /// The corrupted pseudo-physical frame number.
        pfn: u64,
    },
    /// An injected fault dropped a domain's saved execution state.
    ExecStateLost(DomId),

    // --- phases ---------------------------------------------------------
    /// A reboot phase opened.
    PhaseBegin(Phase),
    /// A reboot phase closed.
    PhaseEnd(Phase),

    // --- cluster --------------------------------------------------------
    /// A cluster host returned to service.
    HostUp {
        /// Cluster host index.
        host: u32,
    },
    /// A cluster host left service (rejuvenation outage).
    HostDown {
        /// Cluster host index.
        host: u32,
    },

    // --- serverless cell ------------------------------------------------
    /// An arrival was dropped at the cell's admission cap.
    CellRejected {
        /// The arriving microVM.
        vm: u64,
    },
    /// An arrival is waiting for a departure to free frames.
    CellQueued {
        /// The waiting microVM.
        vm: u64,
    },
    /// A departing microVM parked in the warm pool, its image frozen in
    /// place.
    CellParked {
        /// The parked microVM.
        vm: u64,
    },
    /// A departing microVM released its frames.
    CellDeparted {
        /// The departed microVM.
        vm: u64,
    },
    /// A microVM started, stamped at boot completion.
    CellStarted {
        /// The started microVM.
        vm: u64,
        /// Revived from the warm pool (else built cold).
        warm: bool,
        /// Cold-start latency: queue wait plus provisioning work.
        latency: SimDuration,
    },
    /// Balloon reclaim squeezed running microVMs to make room for one.
    CellReclaimed {
        /// The microVM the frames were taken for.
        vm: u64,
        /// Pages taken, over all squeezed VMs.
        pages: u64,
    },

    // --- escape hatch ---------------------------------------------------
    /// A free-form entry that has no typed variant (computed
    /// measurements, error text), kept verbatim.
    Note {
        /// Category string.
        category: String,
        /// Message string.
        message: String,
    },
}

impl Event {
    /// A free-form note (the escape hatch).
    pub fn note(category: impl Into<String>, message: impl Into<String>) -> Event {
        Event::Note {
            category: category.into(),
            message: message.into(),
        }
    }

    /// The category string this event is filed under.
    pub fn category(&self) -> &str {
        match self {
            Event::PowerOn
            | Event::RebootCommanded(_)
            | Event::RebootComplete(_)
            | Event::VmmCrashed
            | Event::VmmFailed
            | Event::RecoveryCommanded(_)
            | Event::OsRejuvenation(_)
            | Event::OsRejuvenationSkipped(_)
            | Event::ColdBootRetry { .. }
            | Event::RetriesExhausted(_)
            | Event::Dom0Up
            | Event::Dom0Down => "host",
            Event::XexecStaged { .. }
            | Event::VmmUp { .. }
            | Event::VmmBooting { .. }
            | Event::Salvaged(_)
            | Event::LostColdBoot(_)
            | Event::Frozen(_)
            | Event::SaveStarted(_)
            | Event::Saved(_)
            | Event::RestoreStarted(_)
            | Event::Restored(_)
            | Event::ValidationFailed(_)
            | Event::Corrupted(_)
            | Event::StreamStarted(_)
            | Event::StreamCompleted(_)
            | Event::DeltaSnapshot { .. } => "vmm",
            Event::GuestShuttingDown(_)
            | Event::GuestOff(_)
            | Event::GuestCreated(_)
            | Event::GuestBooted(_)
            | Event::Suspending(_)
            | Event::Resuming(_)
            | Event::Resumed(_) => "guest",
            Event::ServiceUp(_) => "service",
            Event::HardwareReset => "hw",
            Event::StagedImageCorrupted
            | Event::P2mCorrupted(_)
            | Event::FrameCorrupted { .. }
            | Event::ExecStateLost(_) => "fault",
            Event::PhaseBegin(_) | Event::PhaseEnd(_) => "phase",
            Event::HostUp { .. } | Event::HostDown { .. } => "cluster",
            Event::CellRejected { .. }
            | Event::CellQueued { .. }
            | Event::CellParked { .. }
            | Event::CellDeparted { .. }
            | Event::CellStarted { .. }
            | Event::CellReclaimed { .. } => "cell",
            Event::Note { category, .. } => category,
        }
    }

    /// The message string, byte-identical to the text the trace format
    /// has always printed.
    pub fn message(&self) -> String {
        match self {
            Event::PowerOn => "power on".to_string(),
            Event::RebootCommanded(s) => format!("{s} reboot commanded"),
            Event::RebootComplete(s) => format!("{s} reboot complete"),
            Event::VmmCrashed => "VMM CRASHED".to_string(),
            Event::VmmFailed => "VMM FAILED".to_string(),
            Event::RecoveryCommanded(RecoveryKind::Microreboot) => {
                "micro-reboot recovery commanded".to_string()
            }
            Event::RecoveryCommanded(RecoveryKind::Cold) => "cold recovery commanded".to_string(),
            Event::OsRejuvenation(id) => format!("OS rejuvenation of {id}"),
            Event::OsRejuvenationSkipped(id) => format!("OS rejuvenation of {id} skipped (down)"),
            Event::ColdBootRetry { dom, attempt } => {
                format!("retrying cold boot of {dom} (attempt {attempt})")
            }
            Event::RetriesExhausted(id) => format!("{id} lost (retries exhausted)"),
            Event::Dom0Up => "dom0 up".to_string(),
            Event::Dom0Down => "dom0 down".to_string(),
            Event::XexecStaged { version } => format!("xexec staged build v{version}"),
            Event::VmmUp { generation } => {
                format!("new VMM instance up (generation {generation})")
            }
            Event::VmmBooting { generation } => {
                format!("VMM booting after reset (generation {generation})")
            }
            Event::Salvaged(id) => format!("{id} salvaged (frozen in place)"),
            Event::LostColdBoot(id) => format!("{id} lost; will cold boot"),
            Event::Frozen(id) => format!("{id} frozen on memory"),
            Event::SaveStarted(id) => format!("{id} image save started"),
            Event::Saved(id) => format!("{id} image saved"),
            Event::RestoreStarted(id) => format!("{id} image restore started"),
            Event::Restored(id) => format!("{id} image restored"),
            Event::ValidationFailed(id) => {
                format!("{id} failed validation; falling back to cold boot")
            }
            Event::Corrupted(id) => format!("{id} MEMORY IMAGE CORRUPTED"),
            Event::StreamStarted(id) => format!("{id} stream-in started"),
            Event::StreamCompleted(id) => format!("{id} stream-in complete"),
            Event::DeltaSnapshot { dom, bytes } => {
                format!("{dom} delta snapshot ({bytes} bytes)")
            }
            Event::GuestShuttingDown(id) => format!("{id} shutting down"),
            Event::GuestOff(id) => format!("{id} off"),
            Event::GuestCreated(id) => format!("{id} created, booting"),
            Event::GuestBooted(id) => format!("{id} booted"),
            Event::Suspending(id) => format!("{id} suspending"),
            Event::Resuming(id) => format!("{id} resuming"),
            Event::Resumed(id) => format!("{id} resumed"),
            Event::ServiceUp(id) => format!("{id} service up"),
            Event::HardwareReset => "hardware reset".to_string(),
            Event::StagedImageCorrupted => "staged xexec image corrupted".to_string(),
            Event::P2mCorrupted(id) => format!("{id} P2M entry corrupted"),
            Event::FrameCorrupted { dom, pfn } => format!("{dom} frame {pfn} corrupted"),
            Event::ExecStateLost(id) => format!("{id} exec state lost"),
            Event::PhaseBegin(p) => format!("begin {p}"),
            Event::PhaseEnd(p) => format!("end {p}"),
            Event::HostUp { host } => format!("host {host} up"),
            Event::HostDown { host } => format!("host {host} down"),
            Event::CellRejected { vm } => format!("vm{vm} rejected at cap"),
            Event::CellQueued { vm } => format!("vm{vm} queued for frames"),
            Event::CellParked { vm } => format!("vm{vm} parked warm"),
            Event::CellDeparted { vm } => format!("vm{vm} departed"),
            Event::CellStarted { vm, warm, latency } => {
                let kind = if *warm { "warm" } else { "cold" };
                format!("vm{vm} {kind} start latency={latency}")
            }
            Event::CellReclaimed { vm, pages } => format!("reclaimed {pages} pages for vm{vm}"),
            Event::Note { message, .. } => message.clone(),
        }
    }

    /// A stable machine-readable variant name (for JSONL export).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PowerOn => "PowerOn",
            Event::RebootCommanded(_) => "RebootCommanded",
            Event::RebootComplete(_) => "RebootComplete",
            Event::VmmCrashed => "VmmCrashed",
            Event::VmmFailed => "VmmFailed",
            Event::RecoveryCommanded(_) => "RecoveryCommanded",
            Event::OsRejuvenation(_) => "OsRejuvenation",
            Event::OsRejuvenationSkipped(_) => "OsRejuvenationSkipped",
            Event::ColdBootRetry { .. } => "ColdBootRetry",
            Event::RetriesExhausted(_) => "RetriesExhausted",
            Event::Dom0Up => "Dom0Up",
            Event::Dom0Down => "Dom0Down",
            Event::XexecStaged { .. } => "XexecStaged",
            Event::VmmUp { .. } => "VmmUp",
            Event::VmmBooting { .. } => "VmmBooting",
            Event::Salvaged(_) => "Salvaged",
            Event::LostColdBoot(_) => "LostColdBoot",
            Event::Frozen(_) => "Frozen",
            Event::SaveStarted(_) => "SaveStarted",
            Event::Saved(_) => "Saved",
            Event::RestoreStarted(_) => "RestoreStarted",
            Event::Restored(_) => "Restored",
            Event::ValidationFailed(_) => "ValidationFailed",
            Event::Corrupted(_) => "Corrupted",
            Event::StreamStarted(_) => "StreamStarted",
            Event::StreamCompleted(_) => "StreamCompleted",
            Event::DeltaSnapshot { .. } => "DeltaSnapshot",
            Event::GuestShuttingDown(_) => "GuestShuttingDown",
            Event::GuestOff(_) => "GuestOff",
            Event::GuestCreated(_) => "GuestCreated",
            Event::GuestBooted(_) => "GuestBooted",
            Event::Suspending(_) => "Suspending",
            Event::Resuming(_) => "Resuming",
            Event::Resumed(_) => "Resumed",
            Event::ServiceUp(_) => "ServiceUp",
            Event::HardwareReset => "HardwareReset",
            Event::StagedImageCorrupted => "StagedImageCorrupted",
            Event::P2mCorrupted(_) => "P2mCorrupted",
            Event::FrameCorrupted { .. } => "FrameCorrupted",
            Event::ExecStateLost(_) => "ExecStateLost",
            Event::PhaseBegin(_) => "PhaseBegin",
            Event::PhaseEnd(_) => "PhaseEnd",
            Event::HostUp { .. } => "HostUp",
            Event::HostDown { .. } => "HostDown",
            Event::CellRejected { .. } => "CellRejected",
            Event::CellQueued { .. } => "CellQueued",
            Event::CellParked { .. } => "CellParked",
            Event::CellDeparted { .. } => "CellDeparted",
            Event::CellStarted { .. } => "CellStarted",
            Event::CellReclaimed { .. } => "CellReclaimed",
            Event::Note { .. } => "Note",
        }
    }

    /// The domain this event concerns, if it concerns exactly one.
    pub fn domain(&self) -> Option<DomId> {
        match self {
            Event::OsRejuvenation(id)
            | Event::OsRejuvenationSkipped(id)
            | Event::RetriesExhausted(id)
            | Event::Salvaged(id)
            | Event::LostColdBoot(id)
            | Event::Frozen(id)
            | Event::SaveStarted(id)
            | Event::Saved(id)
            | Event::RestoreStarted(id)
            | Event::Restored(id)
            | Event::ValidationFailed(id)
            | Event::Corrupted(id)
            | Event::StreamStarted(id)
            | Event::StreamCompleted(id)
            | Event::GuestShuttingDown(id)
            | Event::GuestOff(id)
            | Event::GuestCreated(id)
            | Event::GuestBooted(id)
            | Event::Suspending(id)
            | Event::Resuming(id)
            | Event::Resumed(id)
            | Event::ServiceUp(id)
            | Event::P2mCorrupted(id)
            | Event::ExecStateLost(id) => Some(*id),
            Event::ColdBootRetry { dom, .. }
            | Event::FrameCorrupted { dom, .. }
            | Event::DeltaSnapshot { dom, .. } => Some(*dom),
            _ => None,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<8} {}", self.category(), self.message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_match_legacy_strings() {
        assert_eq!(
            Event::RebootCommanded(StrategyKind::Warm).message(),
            "warm reboot commanded"
        );
        assert_eq!(
            Event::VmmUp { generation: 2 }.message(),
            "new VMM instance up (generation 2)"
        );
        assert_eq!(Event::Frozen(DomId(1)).message(), "domU1 frozen on memory");
        assert_eq!(
            Event::Salvaged(DomId(2)).message(),
            "domU2 salvaged (frozen in place)"
        );
        assert_eq!(
            Event::FrameCorrupted {
                dom: DomId(1),
                pfn: 77
            }
            .message(),
            "domU1 frame 77 corrupted"
        );
        assert_eq!(Event::ServiceUp(DomId(4)).message(), "domU4 service up");
    }

    #[test]
    fn dom_id_display() {
        assert_eq!(DomId(0).to_string(), "dom0");
        assert_eq!(DomId(5).to_string(), "domU5");
    }

    #[test]
    fn domain_accessor_names_the_right_domain() {
        assert_eq!(Event::Resumed(DomId(3)).domain(), Some(DomId(3)));
        assert_eq!(
            Event::ColdBootRetry {
                dom: DomId(2),
                attempt: 1
            }
            .domain(),
            Some(DomId(2))
        );
        assert_eq!(Event::Dom0Up.domain(), None);
    }

    #[test]
    fn cell_variants_render_their_old_note_text() {
        use crate::EventLog;
        use rh_sim::time::SimTime;

        let started = |vm, warm, us| Event::CellStarted {
            vm,
            warm,
            latency: SimDuration::from_micros(us),
        };
        let cases = [
            (
                Event::CellRejected { vm: 3 },
                "CellRejected",
                "vm3 rejected at cap",
            ),
            (
                Event::CellQueued { vm: 4 },
                "CellQueued",
                "vm4 queued for frames",
            ),
            (Event::CellParked { vm: 7 }, "CellParked", "vm7 parked warm"),
            (
                Event::CellDeparted { vm: 8 },
                "CellDeparted",
                "vm8 departed",
            ),
            (
                started(9, true, 15_410),
                "CellStarted",
                "vm9 warm start latency=0.015s",
            ),
            (
                started(10, false, 8_388_608),
                "CellStarted",
                "vm10 cold start latency=8.389s",
            ),
            (
                Event::CellReclaimed { vm: 12, pages: 64 },
                "CellReclaimed",
                "reclaimed 64 pages for vm12",
            ),
        ];
        for (event, kind, text) in cases {
            let note = Event::note("cell", text);
            assert_eq!(event.category(), "cell", "{kind}");
            assert_eq!(event.message(), text, "{kind}");
            assert_eq!(event.kind(), kind);
            assert_eq!(event.domain(), None, "{kind}");

            // In a log, the typed event renders the note's line, and its
            // JSONL record differs only in naming its own kind.
            let (mut typed, mut untyped) = (EventLog::new(), EventLog::new());
            typed.emit(SimTime::from_micros(2_419_000), event);
            untyped.emit(SimTime::from_micros(2_419_000), note);
            assert_eq!(typed.render(), untyped.render(), "{kind}");
            assert_eq!(
                typed.to_jsonl(),
                untyped
                    .to_jsonl()
                    .replace("\"kind\":\"Note\"", &format!("\"kind\":\"{kind}\"")),
            );
        }
    }
}
