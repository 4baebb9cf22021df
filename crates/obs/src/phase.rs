//! The closed set of reboot phases.
//!
//! Fig. 7 of the paper superimposes "the time needed for each operation
//! during the reboot" onto the throughput trace. Historically those
//! operations were identified by free-form strings scattered across the
//! host driver and every figure harness; [`Phase`] closes the set so the
//! compiler — not a string comparison at render time — guarantees that a
//! producer and a consumer mean the same operation.

use std::fmt;

/// One named operation of a reboot, as plotted in Fig. 7.
///
/// The [`name`](Phase::name) of each variant is byte-identical to the
/// legacy free-form string, so timelines rendered from typed phases are
/// indistinguishable from the historical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The whole reboot, commanded to complete (encloses every other phase).
    Reboot,
    /// Loading the next VMM build into the reserved xexec region (§4.1).
    XexecLoad,
    /// Shutting down the privileged dom0 domain.
    Dom0Shutdown,
    /// Shutting down guest OSes (cold reboot only).
    GuestShutdown,
    /// Suspending guests onto memory (warm reboot, §4.2).
    Suspend,
    /// Saving guest images to disk (saved reboot baseline).
    Save,
    /// The quick reload of the new VMM over the running one (§4.1).
    QuickReload,
    /// The full hardware reset of the machine (cold reboot baseline).
    HardwareReset,
    /// The VMM booting after a hardware reset.
    VmmBoot,
    /// Booting the privileged dom0 domain.
    Dom0Boot,
    /// Resuming guests frozen on memory (warm reboot, §4.2).
    Resume,
    /// Restoring guest images from disk (saved reboot baseline).
    Restore,
    /// Background fault-in of residual pages after a streamed (post-copy)
    /// resume: the guests already serve while the rest of their images
    /// trickle in from disk.
    StreamIn,
    /// Cold-booting guest OSes from disk.
    GuestBoot,
}

impl Phase {
    /// Every phase, in rough pipeline order.
    pub const ALL: [Phase; 14] = [
        Phase::Reboot,
        Phase::XexecLoad,
        Phase::Dom0Shutdown,
        Phase::GuestShutdown,
        Phase::Suspend,
        Phase::Save,
        Phase::QuickReload,
        Phase::HardwareReset,
        Phase::VmmBoot,
        Phase::Dom0Boot,
        Phase::Resume,
        Phase::Restore,
        Phase::StreamIn,
        Phase::GuestBoot,
    ];

    /// The legacy display name (byte-identical to the historical free-form
    /// phase strings).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Reboot => "reboot",
            Phase::XexecLoad => "xexec load",
            Phase::Dom0Shutdown => "dom0 shutdown",
            Phase::GuestShutdown => "guest shutdown",
            Phase::Suspend => "suspend",
            Phase::Save => "save",
            Phase::QuickReload => "quick reload",
            Phase::HardwareReset => "hardware reset",
            Phase::VmmBoot => "vmm boot",
            Phase::Dom0Boot => "dom0 boot",
            Phase::Resume => "resume",
            Phase::Restore => "restore",
            Phase::StreamIn => "stream-in",
            Phase::GuestBoot => "guest boot",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        for a in Phase::ALL {
            for b in Phase::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Phase::QuickReload.to_string(), "quick reload");
        assert_eq!(Phase::XexecLoad.to_string(), "xexec load");
    }
}
