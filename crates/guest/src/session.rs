//! TCP session survival across reboots.
//!
//! Paper §5.3: after a warm-VM or saved-VM reboot "we could continue the
//! session of ssh thanks to TCP retransmission" — unless the client had a
//! timeout shorter than the outage (60 s killed the session during the
//! 429 s saved-VM reboot). A cold-VM reboot always resets the session
//! because the ssh server process itself was shut down.
//!
//! [`TcpSession`] captures exactly that three-way outcome.

use std::fmt;

use rh_sim::time::{SimDuration, SimTime};

/// What happened to a session across a service outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionFate {
    /// TCP retransmission carried the session through the outage.
    Survived,
    /// The client's inactivity timeout fired before service returned.
    TimedOut,
    /// The server process was restarted; its TCP state is gone.
    Reset,
}

impl fmt::Display for SessionFate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionFate::Survived => write!(f, "survived"),
            SessionFate::TimedOut => write!(f, "timed out"),
            SessionFate::Reset => write!(f, "reset"),
        }
    }
}

/// An established TCP session (e.g. an interactive ssh login).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSession {
    opened_at: SimTime,
    server_generation: u64,
    client_timeout: Option<SimDuration>,
}

impl TcpSession {
    /// Opens a session against a server process of the given generation
    /// (see [`Service::generation`](crate::services::Service::generation)).
    pub fn open(opened_at: SimTime, server_generation: u64) -> Self {
        TcpSession {
            opened_at,
            server_generation,
            client_timeout: None,
        }
    }

    /// Sets a client-side inactivity timeout (the paper tests 60 s).
    pub fn with_client_timeout(mut self, timeout: SimDuration) -> Self {
        self.client_timeout = Some(timeout);
        self
    }

    /// Decides the session's fate after an `outage` of the given length,
    /// given the server process generation observed afterwards.
    ///
    /// Precedence: a restarted server resets the session regardless of
    /// timeouts; otherwise a too-long outage times out; otherwise TCP
    /// retransmission wins.
    pub fn fate(&self, outage: SimDuration, server_generation_after: u64) -> SessionFate {
        if server_generation_after != self.server_generation {
            return SessionFate::Reset;
        }
        if let Some(timeout) = self.client_timeout {
            if outage > timeout {
                return SessionFate::TimedOut;
            }
        }
        SessionFate::Survived
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn warm_reboot_preserves_session() {
        // Warm reboot at 11 VMs: 42 s outage, process preserved.
        let s = TcpSession::open(SimTime::ZERO, 1).with_client_timeout(secs(60));
        assert_eq!(s.fate(secs(42), 1), SessionFate::Survived);
    }

    #[test]
    fn saved_reboot_times_out_with_sixty_second_client() {
        // Saved-VM reboot at 11 VMs: 429 s outage > 60 s client timeout.
        let s = TcpSession::open(SimTime::ZERO, 1).with_client_timeout(secs(60));
        assert_eq!(s.fate(secs(429), 1), SessionFate::TimedOut);
    }

    #[test]
    fn saved_reboot_survives_without_client_timeout() {
        let s = TcpSession::open(SimTime::ZERO, 1);
        assert_eq!(s.fate(secs(429), 1), SessionFate::Survived);
    }

    #[test]
    fn cold_reboot_always_resets() {
        // The server process restarted: generation moved 1 → 2.
        let s = TcpSession::open(SimTime::ZERO, 1).with_client_timeout(secs(60));
        assert_eq!(s.fate(secs(10), 2), SessionFate::Reset);
        // Even a zero-length outage cannot save it.
        assert_eq!(s.fate(SimDuration::ZERO, 2), SessionFate::Reset);
    }

    #[test]
    fn outage_exactly_at_timeout_survives() {
        let s = TcpSession::open(SimTime::ZERO, 1).with_client_timeout(secs(60));
        assert_eq!(s.fate(secs(60), 1), SessionFate::Survived);
        assert_eq!(s.fate(secs(61), 1), SessionFate::TimedOut);
    }

    #[test]
    fn fate_display() {
        assert_eq!(SessionFate::Reset.to_string(), "reset");
    }
}
