//! The services the paper runs inside guests: sshd, JBoss, Apache.
//!
//! Each service has a start/stop [`WorkProfile`] — sshd is cheap, JBoss is
//! the paper's example of a heavy-weight service whose restart dominates
//! the cold-VM reboot (Fig. 6b: 241 s vs 157 s at 11 VMs) — plus a status
//! machine and a *generation* counter. The generation increments on every
//! fresh start; a TCP session can only survive an outage if the server
//! process generation is unchanged (suspend/resume preserves it, a restart
//! does not) — see [`crate::session`].
//!
//! Calibration (DESIGN.md §5): JBoss start = 10 s fixed + 27.1 core-seconds
//! of shared CPU. With 4 cores (two dual-core Opterons) and `n` JBoss
//! instances starting at once each gets `4/n` cores, giving the ≈6.8 s/VM
//! slope that reproduces Fig. 6b; at `n = 1` start ≈ 16.8 s, matching the
//! §5.3 OS-rejuvenation downtime of 33.6 s (≈ one OS reboot + one JBoss
//! start).

use std::fmt;

use rh_sim::time::SimDuration;

use crate::boot::WorkProfile;

/// Which service a guest runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// An OpenSSH daemon: near-instant start/stop.
    Ssh,
    /// The JBoss application server: heavy start.
    Jboss,
    /// The Apache HTTP server serving a static corpus.
    ApacheWeb,
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceKind::Ssh => write!(f, "ssh"),
            ServiceKind::Jboss => write!(f, "jboss"),
            ServiceKind::ApacheWeb => write!(f, "apache"),
        }
    }
}

/// Start/stop resource demands for one service kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// The service kind.
    pub kind: ServiceKind,
    /// Work to start the service after the OS is up.
    pub start: WorkProfile,
    /// Work to stop it cleanly during shutdown.
    pub stop: WorkProfile,
}

impl ServiceSpec {
    /// sshd: 0.5 s start, 0.2 s stop.
    pub fn ssh() -> Self {
        ServiceSpec {
            kind: ServiceKind::Ssh,
            start: WorkProfile::fixed_only(SimDuration::from_millis(500)),
            stop: WorkProfile::fixed_only(SimDuration::from_millis(200)),
        }
    }

    /// JBoss: 10 s fixed + 27.1 core-seconds of CPU to start; 3 s to stop.
    pub fn jboss() -> Self {
        ServiceSpec {
            kind: ServiceKind::Jboss,
            start: WorkProfile {
                fixed: SimDuration::from_secs(10),
                disk_read_bytes: 0.0,
                disk_write_bytes: 0.0,
                cpu_work: 27.1,
            },
            stop: WorkProfile::fixed_only(SimDuration::from_secs(3)),
        }
    }

    /// Apache: 1 s start, 0.5 s stop.
    fn apache_web() -> Self {
        ServiceSpec {
            kind: ServiceKind::ApacheWeb,
            start: WorkProfile::fixed_only(SimDuration::from_secs(1)),
            stop: WorkProfile::fixed_only(SimDuration::from_millis(500)),
        }
    }

    /// The spec for a kind.
    fn for_kind(kind: ServiceKind) -> Self {
        match kind {
            ServiceKind::Ssh => ServiceSpec::ssh(),
            ServiceKind::Jboss => ServiceSpec::jboss(),
            ServiceKind::ApacheWeb => ServiceSpec::apache_web(),
        }
    }
}

/// Runtime status of a service process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceStatus {
    /// Not running.
    Stopped,
    /// Start work in progress.
    Starting,
    /// Serving requests.
    Running,
    /// Stop work in progress.
    Stopping,
}

impl fmt::Display for ServiceStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceStatus::Stopped => "stopped",
            ServiceStatus::Starting => "starting",
            ServiceStatus::Running => "running",
            ServiceStatus::Stopping => "stopping",
        };
        f.write_str(s)
    }
}

/// Error for an illegal service transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTransitionError {
    /// Status the service was in.
    pub from: ServiceStatus,
    /// Transition attempted.
    pub attempted: &'static str,
}

impl fmt::Display for ServiceTransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} a {} service", self.attempted, self.from)
    }
}

impl std::error::Error for ServiceTransitionError {}

/// One service process inside a guest.
///
/// # Examples
///
/// ```
/// use rh_guest::services::{Service, ServiceKind, ServiceStatus};
///
/// let mut svc = Service::new(ServiceKind::Jboss);
/// svc.begin_start()?;
/// svc.finish_start()?;
/// assert_eq!(svc.status(), ServiceStatus::Running);
/// let gen_before = svc.generation();
/// // Suspend/resume preserves the process: generation is unchanged.
/// assert_eq!(svc.generation(), gen_before);
/// # Ok::<(), rh_guest::services::ServiceTransitionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    spec: ServiceSpec,
    status: ServiceStatus,
    generation: u64,
    starts: u64,
}

impl Service {
    /// Creates a stopped service of `kind`.
    pub fn new(kind: ServiceKind) -> Self {
        Service {
            spec: ServiceSpec::for_kind(kind),
            status: ServiceStatus::Stopped,
            generation: 0,
            starts: 0,
        }
    }

    /// The service's resource demands.
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// The service kind.
    pub fn kind(&self) -> ServiceKind {
        self.spec.kind
    }

    /// Current status.
    pub fn status(&self) -> ServiceStatus {
        self.status
    }

    /// True if serving requests.
    pub fn is_running(&self) -> bool {
        self.status == ServiceStatus::Running
    }

    /// Process generation: increments on every fresh start. A preserved
    /// process (suspend → resume) keeps its generation; a restarted one
    /// does not — which is why cold reboots kill TCP sessions.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Completed starts.
    pub fn starts(&self) -> u64 {
        self.starts
    }

    fn expect(
        &self,
        from: ServiceStatus,
        attempted: &'static str,
    ) -> Result<(), ServiceTransitionError> {
        if self.status == from {
            Ok(())
        } else {
            Err(ServiceTransitionError {
                from: self.status,
                attempted,
            })
        }
    }

    /// Stopped → Starting.
    ///
    /// # Errors
    ///
    /// [`ServiceTransitionError`] unless currently stopped.
    pub fn begin_start(&mut self) -> Result<(), ServiceTransitionError> {
        self.expect(ServiceStatus::Stopped, "start")?;
        self.status = ServiceStatus::Starting;
        Ok(())
    }

    /// Starting → Running; bumps the generation.
    ///
    /// # Errors
    ///
    /// [`ServiceTransitionError`] unless currently starting.
    pub fn finish_start(&mut self) -> Result<(), ServiceTransitionError> {
        self.expect(ServiceStatus::Starting, "finish starting")?;
        self.status = ServiceStatus::Running;
        self.generation += 1;
        self.starts += 1;
        Ok(())
    }

    /// Running → Stopping.
    ///
    /// # Errors
    ///
    /// [`ServiceTransitionError`] unless currently running.
    pub fn begin_stop(&mut self) -> Result<(), ServiceTransitionError> {
        self.expect(ServiceStatus::Running, "stop")?;
        self.status = ServiceStatus::Stopping;
        Ok(())
    }

    /// Stopping → Stopped.
    ///
    /// # Errors
    ///
    /// [`ServiceTransitionError`] unless currently stopping.
    pub fn finish_stop(&mut self) -> Result<(), ServiceTransitionError> {
        self.expect(ServiceStatus::Stopping, "finish stopping")?;
        self.status = ServiceStatus::Stopped;
        Ok(())
    }

    /// Abrupt termination (guest destroyed / crashed): the process dies
    /// without clean stop work.
    pub fn kill(&mut self) {
        self.status = ServiceStatus::Stopped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jboss_is_much_heavier_than_ssh() {
        let ssh = ServiceSpec::ssh();
        let jboss = ServiceSpec::jboss();
        let ssh_t1 = ssh.start.fixed.as_secs_f64() + ssh.start.cpu_work / 4.0;
        let jboss_t1 = jboss.start.fixed.as_secs_f64() + jboss.start.cpu_work / 4.0;
        assert!(ssh_t1 < 1.0);
        assert!(
            (jboss_t1 - 16.8).abs() < 0.3,
            "jboss start(1) = {jboss_t1:.2}"
        );
        // At 11 concurrent starts the slope appears.
        let jboss_t11 = jboss.start.fixed.as_secs_f64() + jboss.start.cpu_work * 11.0 / 4.0;
        let slope = (jboss_t11 - jboss_t1) / 10.0;
        assert!((slope - 6.8).abs() < 0.3, "jboss slope = {slope:.2}");
    }

    #[test]
    fn spec_for_kind_round_trips() {
        for kind in [ServiceKind::Ssh, ServiceKind::Jboss, ServiceKind::ApacheWeb] {
            assert_eq!(ServiceSpec::for_kind(kind).kind, kind);
        }
    }

    #[test]
    fn lifecycle_and_generation() {
        let mut s = Service::new(ServiceKind::Ssh);
        assert_eq!(s.generation(), 0);
        s.begin_start().unwrap();
        s.finish_start().unwrap();
        assert_eq!(s.generation(), 1);
        assert!(s.is_running());
        s.begin_stop().unwrap();
        s.finish_stop().unwrap();
        assert_eq!(s.status(), ServiceStatus::Stopped);
        // Restart bumps the generation — sessions cannot survive this.
        s.begin_start().unwrap();
        s.finish_start().unwrap();
        assert_eq!(s.generation(), 2);
        assert_eq!(s.starts(), 2);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut s = Service::new(ServiceKind::ApacheWeb);
        assert!(s.begin_stop().is_err());
        assert!(s.finish_start().is_err());
        s.begin_start().unwrap();
        assert!(s.begin_start().is_err());
        let err = s.begin_stop().unwrap_err();
        assert_eq!(err.from, ServiceStatus::Starting);
        assert!(err.to_string().contains("stop"));
    }

    #[test]
    fn kill_stops_without_clean_stop() {
        let mut s = Service::new(ServiceKind::Jboss);
        s.begin_start().unwrap();
        s.finish_start().unwrap();
        s.kill();
        assert_eq!(s.status(), ServiceStatus::Stopped);
        assert_eq!(s.generation(), 1, "kill does not bump generation");
    }

    #[test]
    fn display_names() {
        assert_eq!(ServiceKind::Jboss.to_string(), "jboss");
        assert_eq!(ServiceStatus::Starting.to_string(), "starting");
    }
}
