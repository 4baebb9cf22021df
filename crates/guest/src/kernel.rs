//! The guest kernel lifecycle state machine.
//!
//! A paravirtualized guest kernel (the paper's "Linux 2.6.12 modified for
//! Xen") moves through a fixed set of states. The *timing* of transitions is
//! driven by the host simulation in `rh-vmm`; this module owns the legal
//! transition structure so an out-of-order host path (e.g. resuming a
//! domain that was never suspended) is caught immediately.
//!
//! Suspend/resume transitions model the paper's §4.2 handler sequence: on a
//! suspend event the kernel runs its suspend handler (detaching devices),
//! then issues the suspend hypercall; on resume it re-establishes event
//! channels and re-attaches devices before execution restarts.

use std::fmt;

/// Lifecycle states of a guest kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelState {
    /// Powered off; no memory image exists.
    Off,
    /// Booting (kernel + services coming up).
    Booting,
    /// Fully up; services can run.
    Running,
    /// Executing shutdown scripts.
    ShuttingDown,
    /// Suspend handler running (devices detaching).
    Suspending,
    /// Frozen; memory image intact, no execution.
    Suspended,
    /// Resume handler running (devices re-attaching).
    Resuming,
    /// Dead due to a fault (e.g. its VMM crashed under it).
    Crashed,
}

impl fmt::Display for KernelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelState::Off => "off",
            KernelState::Booting => "booting",
            KernelState::Running => "running",
            KernelState::ShuttingDown => "shutting-down",
            KernelState::Suspending => "suspending",
            KernelState::Suspended => "suspended",
            KernelState::Resuming => "resuming",
            KernelState::Crashed => "crashed",
        };
        f.write_str(s)
    }
}

/// Error for an illegal lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTransition {
    /// State the kernel was in.
    pub from: KernelState,
    /// Transition that was attempted.
    pub attempted: &'static str,
}

impl fmt::Display for InvalidTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} from state {}", self.attempted, self.from)
    }
}

impl std::error::Error for InvalidTransition {}

/// A guest kernel: its lifecycle state plus counters the experiments read.
///
/// # Examples
///
/// ```
/// use rh_guest::kernel::{GuestKernel, KernelState};
///
/// let mut k = GuestKernel::new();
/// k.begin_boot()?;
/// k.finish_boot()?;
/// assert_eq!(k.state(), KernelState::Running);
/// // The warm path: suspend -> (VMM reboots) -> resume.
/// k.begin_suspend()?;
/// k.finish_suspend()?;
/// k.begin_resume()?;
/// k.finish_resume()?;
/// assert_eq!(k.state(), KernelState::Running);
/// assert_eq!(k.boots(), 1, "resume is not a boot");
/// # Ok::<(), rh_guest::kernel::InvalidTransition>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestKernel {
    state: KernelState,
    boots: u64,
    suspends: u64,
    resumes: u64,
    devices_attached: bool,
}

impl GuestKernel {
    /// A powered-off kernel.
    pub fn new() -> Self {
        GuestKernel {
            state: KernelState::Off,
            boots: 0,
            suspends: 0,
            resumes: 0,
            devices_attached: false,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> KernelState {
        self.state
    }

    /// Completed boots.
    pub fn boots(&self) -> u64 {
        self.boots
    }

    /// Completed suspends.
    pub fn suspends(&self) -> u64 {
        self.suspends
    }

    /// Completed resumes.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// True while paravirtual devices are attached (between boot/resume and
    /// shutdown/suspend).
    #[cfg(test)]
    fn devices_attached(&self) -> bool {
        self.devices_attached
    }

    /// True if the kernel is executing (can serve requests).
    pub fn is_running(&self) -> bool {
        self.state == KernelState::Running
    }

    fn expect(
        &self,
        from: &[KernelState],
        attempted: &'static str,
    ) -> Result<(), InvalidTransition> {
        if from.contains(&self.state) {
            Ok(())
        } else {
            Err(InvalidTransition {
                from: self.state,
                attempted,
            })
        }
    }

    /// Off → Booting.
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Off`.
    pub fn begin_boot(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Off], "begin boot")?;
        self.state = KernelState::Booting;
        Ok(())
    }

    /// Booting → Running (devices attach during boot).
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Booting`.
    pub fn finish_boot(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Booting], "finish boot")?;
        self.state = KernelState::Running;
        self.devices_attached = true;
        self.boots += 1;
        Ok(())
    }

    /// Running → ShuttingDown.
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Running`.
    pub fn begin_shutdown(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Running], "begin shutdown")?;
        self.state = KernelState::ShuttingDown;
        Ok(())
    }

    /// ShuttingDown → Off (memory image is gone).
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `ShuttingDown`.
    pub fn finish_shutdown(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::ShuttingDown], "finish shutdown")?;
        self.state = KernelState::Off;
        self.devices_attached = false;
        Ok(())
    }

    /// Running → Suspending: the suspend event arrived; the suspend handler
    /// starts detaching devices (paper §4.2).
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Running`.
    pub fn begin_suspend(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Running], "begin suspend")?;
        self.state = KernelState::Suspending;
        self.devices_attached = false;
        Ok(())
    }

    /// Suspending → Suspended: the suspend hypercall completed; the memory
    /// image is frozen in place.
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Suspending`.
    pub fn finish_suspend(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Suspending], "finish suspend")?;
        self.state = KernelState::Suspended;
        self.suspends += 1;
        Ok(())
    }

    /// Suspended → Resuming: the resume handler re-establishes event
    /// channels and re-attaches devices.
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Suspended`.
    pub fn begin_resume(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Suspended], "begin resume")?;
        self.state = KernelState::Resuming;
        Ok(())
    }

    /// Resuming → Running: execution restarts where it left off.
    ///
    /// # Errors
    ///
    /// [`InvalidTransition`] unless currently `Resuming`.
    pub fn finish_resume(&mut self) -> Result<(), InvalidTransition> {
        self.expect(&[KernelState::Resuming], "finish resume")?;
        self.state = KernelState::Running;
        self.devices_attached = true;
        self.resumes += 1;
        Ok(())
    }

    /// Any state → Crashed (the VMM died under the guest).
    pub fn crash(&mut self) {
        self.state = KernelState::Crashed;
        self.devices_attached = false;
    }

    /// Any state → Off: the domain was destroyed; its memory image is gone.
    pub fn destroy(&mut self) {
        self.state = KernelState::Off;
        self.devices_attached = false;
    }
}

impl Default for GuestKernel {
    fn default() -> Self {
        GuestKernel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_boot_shutdown_cycle() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        assert_eq!(k.state(), KernelState::Booting);
        assert!(!k.is_running());
        k.finish_boot().unwrap();
        assert!(k.is_running());
        assert!(k.devices_attached());
        k.begin_shutdown().unwrap();
        k.finish_shutdown().unwrap();
        assert_eq!(k.state(), KernelState::Off);
        assert!(!k.devices_attached());
        assert_eq!(k.boots(), 1);
    }

    #[test]
    fn suspend_resume_cycle_counts() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        k.finish_boot().unwrap();
        for _ in 0..3 {
            k.begin_suspend().unwrap();
            assert!(!k.devices_attached(), "suspend handler detaches devices");
            k.finish_suspend().unwrap();
            k.begin_resume().unwrap();
            k.finish_resume().unwrap();
            assert!(k.devices_attached());
        }
        assert_eq!(k.suspends(), 3);
        assert_eq!(k.resumes(), 3);
        assert_eq!(k.boots(), 1, "warm reboots never re-boot the guest");
    }

    #[test]
    fn resume_without_suspend_is_rejected() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        k.finish_boot().unwrap();
        let err = k.begin_resume().unwrap_err();
        assert_eq!(err.from, KernelState::Running);
        assert!(err.to_string().contains("begin resume"));
    }

    #[test]
    fn boot_from_suspended_is_rejected() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        k.finish_boot().unwrap();
        k.begin_suspend().unwrap();
        k.finish_suspend().unwrap();
        assert!(k.begin_boot().is_err());
    }

    #[test]
    fn suspend_while_booting_is_rejected() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        assert!(k.begin_suspend().is_err());
    }

    #[test]
    fn crash_from_any_state() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        k.finish_boot().unwrap();
        k.begin_suspend().unwrap();
        k.finish_suspend().unwrap();
        k.crash();
        assert_eq!(k.state(), KernelState::Crashed);
        // A crashed kernel cannot resume.
        assert!(k.begin_resume().is_err());
    }

    #[test]
    fn destroy_resets_to_off_and_allows_reboot() {
        let mut k = GuestKernel::new();
        k.begin_boot().unwrap();
        k.finish_boot().unwrap();
        k.destroy();
        assert_eq!(k.state(), KernelState::Off);
        k.begin_boot().unwrap();
        k.finish_boot().unwrap();
        assert_eq!(k.boots(), 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(KernelState::Suspended.to_string(), "suspended");
        assert_eq!(KernelState::ShuttingDown.to_string(), "shutting-down");
    }
}
