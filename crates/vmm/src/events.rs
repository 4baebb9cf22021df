//! Event channels — the VMM↔guest notification fabric.
//!
//! Paravirtualized guests and the VMM signal each other through *event
//! channels* (Xen's interrupt-like primitive). They matter to the warm-VM
//! reboot twice (paper §4.2):
//!
//! * the VMM delivers the **suspend event** to each domain U over a
//!   channel, triggering the in-guest suspend handler;
//! * the suspend hypercall saves "shared information such as the status of
//!   event channels" into the preserved execution state, and the resume
//!   handler "re-establish\[es\] the communication channels to the VMM".
//!
//! [`EventChannelTable`] models one domain's channel table: binding,
//! notification, masking, the suspend-time detach and the resume-time
//! re-establishment, plus a digest that feeds the preserved execution
//! state.

use std::collections::BTreeMap;
use std::fmt;

use rh_sim::rng::splitmix64;

/// What a channel is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// The suspend-request channel from the VMM (one per domain U).
    Suspend,
    /// A virtual IRQ (timer, console, ...).
    Virq(u8),
    /// An interdomain channel to another domain (device frontends to
    /// domain 0's backends).
    Interdomain {
        /// Peer domain id.
        peer: u32,
    },
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelKind::Suspend => write!(f, "suspend"),
            ChannelKind::Virq(n) => write!(f, "virq{n}"),
            ChannelKind::Interdomain { peer } => write!(f, "interdomain->dom{peer}"),
        }
    }
}

/// One bound channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventChannel {
    /// Port number within the domain's table.
    pub port: u32,
    /// Binding.
    pub kind: ChannelKind,
    /// An event is pending delivery.
    pub pending: bool,
    /// Delivery is masked.
    pub masked: bool,
}

/// Errors from channel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The port is not bound.
    BadPort(u32),
    /// A second suspend channel was requested.
    SuspendAlreadyBound,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::BadPort(p) => write!(f, "event channel port {p} is not bound"),
            ChannelError::SuspendAlreadyBound => write!(f, "suspend channel already bound"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// One domain's event-channel table.
///
/// # Examples
///
/// ```
/// use rh_vmm::events::EventChannelTable;
///
/// let mut table = EventChannelTable::standard_domu();
/// let suspend = table.suspend_port().expect("a domU binds the suspend channel");
/// table.notify(suspend)?;                       // the VMM requests suspend
/// assert!(table.take_pending(suspend)?);        // the guest handler sees it
/// # Ok::<(), rh_vmm::events::ChannelError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventChannelTable {
    channels: BTreeMap<u32, EventChannel>,
    next_port: u32,
    notifications: u64,
}

impl EventChannelTable {
    /// An empty table.
    pub fn new() -> Self {
        EventChannelTable::default()
    }

    /// The standard set a freshly booted domain U binds: the suspend
    /// channel, timer and console VIRQs, and block/net frontends to
    /// domain 0.
    pub fn standard_domu() -> Self {
        let mut t = EventChannelTable::new();
        let standard = [
            ChannelKind::Suspend,
            ChannelKind::Virq(0),                 // timer
            ChannelKind::Virq(1),                 // console
            ChannelKind::Interdomain { peer: 0 }, // blkfront
            ChannelKind::Interdomain { peer: 0 }, // netfront
        ];
        for kind in standard {
            // Binding into a fresh table cannot collide or run out of
            // ports, so the error arm is unreachable; ignoring it keeps
            // this constructor panic-free.
            let _ = t.bind(kind);
        }
        t
    }

    /// Number of bound channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if no channels are bound.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Total notifications delivered over the table's lifetime.
    pub fn notifications(&self) -> u64 {
        self.notifications
    }

    /// Binds a new channel, returning its port.
    ///
    /// # Errors
    ///
    /// [`ChannelError::SuspendAlreadyBound`] for a duplicate suspend
    /// channel — a domain has exactly one.
    fn bind(&mut self, kind: ChannelKind) -> Result<u32, ChannelError> {
        if kind == ChannelKind::Suspend && self.suspend_port().is_some() {
            return Err(ChannelError::SuspendAlreadyBound);
        }
        let port = self.next_port;
        self.next_port += 1;
        self.channels.insert(
            port,
            EventChannel {
                port,
                kind,
                pending: false,
                masked: false,
            },
        );
        Ok(port)
    }

    /// Closes a channel.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadPort`] if unbound.
    pub fn close(&mut self, port: u32) -> Result<(), ChannelError> {
        self.channels
            .remove(&port)
            .map(|_| ())
            .ok_or(ChannelError::BadPort(port))
    }

    /// The suspend channel's port, if bound.
    pub fn suspend_port(&self) -> Option<u32> {
        self.channels
            .values()
            .find(|c| c.kind == ChannelKind::Suspend)
            .map(|c| c.port)
    }

    /// Looks up a channel.
    pub fn get(&self, port: u32) -> Option<&EventChannel> {
        self.channels.get(&port)
    }

    /// Raises an event on `port` (unless masked).
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadPort`] if unbound.
    pub fn notify(&mut self, port: u32) -> Result<(), ChannelError> {
        let c = self
            .channels
            .get_mut(&port)
            .ok_or(ChannelError::BadPort(port))?;
        if !c.masked {
            c.pending = true;
            self.notifications += 1;
        }
        Ok(())
    }

    /// Consumes a pending event on `port`, returning whether one was
    /// pending.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadPort`] if unbound.
    pub fn take_pending(&mut self, port: u32) -> Result<bool, ChannelError> {
        let c = self
            .channels
            .get_mut(&port)
            .ok_or(ChannelError::BadPort(port))?;
        Ok(std::mem::take(&mut c.pending))
    }

    /// Masks or unmasks a channel.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadPort`] if unbound.
    #[cfg(test)]
    fn set_masked(&mut self, port: u32, masked: bool) -> Result<(), ChannelError> {
        let c = self
            .channels
            .get_mut(&port)
            .ok_or(ChannelError::BadPort(port))?;
        c.masked = masked;
        Ok(())
    }

    /// The suspend handler's device-detach step (§4.2): interdomain
    /// channels (device frontends) are closed; the suspend channel and
    /// VIRQs stay, their status going into the saved execution state.
    /// Returns the number of channels detached.
    pub fn detach_for_suspend(&mut self) -> usize {
        let victims: Vec<u32> = self
            .channels
            .values()
            .filter(|c| matches!(c.kind, ChannelKind::Interdomain { .. }))
            .map(|c| c.port)
            .collect();
        for p in &victims {
            self.channels.remove(p);
        }
        victims.len()
    }

    /// The resume handler's re-establishment step (§4.2): rebinds the
    /// device frontends to domain 0 and clears stale pending bits.
    pub fn reestablish_after_resume(&mut self) {
        for c in self.channels.values_mut() {
            c.pending = false;
        }
        let _ = self.bind(ChannelKind::Interdomain { peer: 0 });
        let _ = self.bind(ChannelKind::Interdomain { peer: 0 });
    }

    /// Digest of the table's status — the "shared information" the suspend
    /// hypercall folds into the preserved execution state.
    pub fn digest(&self) -> u64 {
        let mut acc = splitmix64(self.channels.len() as u64);
        for c in self.channels.values() {
            let kind_tag = match c.kind {
                ChannelKind::Suspend => 1u64 << 32,
                ChannelKind::Virq(n) => (2u64 << 32) | n as u64,
                ChannelKind::Interdomain { peer } => (3u64 << 32) | peer as u64,
            };
            let flags = (c.pending as u64) | ((c.masked as u64) << 1);
            acc = splitmix64(acc ^ splitmix64(c.port as u64 ^ kind_tag) ^ flags);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_shape() {
        let t = EventChannelTable::standard_domu();
        assert_eq!(t.len(), 5);
        assert!(t.suspend_port().is_some());
        let interdomain = t
            .channels
            .values()
            .filter(|c| matches!(c.kind, ChannelKind::Interdomain { .. }))
            .count();
        assert_eq!(interdomain, 2);
    }

    #[test]
    fn notify_and_take_pending() {
        let mut t = EventChannelTable::new();
        let p = t.bind(ChannelKind::Virq(0)).unwrap();
        assert!(!t.take_pending(p).unwrap());
        t.notify(p).unwrap();
        assert!(t.get(p).unwrap().pending);
        assert!(t.take_pending(p).unwrap());
        assert!(!t.take_pending(p).unwrap(), "pending is consumed");
        assert_eq!(t.notifications(), 1);
    }

    #[test]
    fn masked_channels_drop_events() {
        let mut t = EventChannelTable::new();
        let p = t.bind(ChannelKind::Virq(3)).unwrap();
        t.set_masked(p, true).unwrap();
        t.notify(p).unwrap();
        assert!(!t.take_pending(p).unwrap());
        assert_eq!(t.notifications(), 0);
        t.set_masked(p, false).unwrap();
        t.notify(p).unwrap();
        assert!(t.take_pending(p).unwrap());
    }

    #[test]
    fn only_one_suspend_channel() {
        let mut t = EventChannelTable::new();
        t.bind(ChannelKind::Suspend).unwrap();
        assert_eq!(
            t.bind(ChannelKind::Suspend),
            Err(ChannelError::SuspendAlreadyBound)
        );
    }

    #[test]
    fn bad_ports_are_rejected() {
        let mut t = EventChannelTable::new();
        assert_eq!(t.notify(7), Err(ChannelError::BadPort(7)));
        assert_eq!(t.close(7), Err(ChannelError::BadPort(7)));
        assert_eq!(t.take_pending(7), Err(ChannelError::BadPort(7)));
        assert_eq!(t.set_masked(7, true), Err(ChannelError::BadPort(7)));
    }

    #[test]
    fn suspend_detach_and_resume_reestablish_round_trip() {
        // The §4.2 handler sequence: detach frontends at suspend, rebind
        // at resume; the table ends structurally equivalent.
        let mut t = EventChannelTable::standard_domu();
        let suspend = t.suspend_port().unwrap();
        // The VMM requests suspend over the channel.
        t.notify(suspend).unwrap();
        assert!(t.take_pending(suspend).unwrap());
        let detached = t.detach_for_suspend();
        assert_eq!(detached, 2, "both frontends detach");
        assert_eq!(t.len(), 3, "suspend + 2 virqs remain");
        // ... VMM reboots; the remaining table status was preserved ...
        let frozen_digest = t.digest();
        t.reestablish_after_resume();
        assert_eq!(t.len(), 5, "frontends rebound");
        assert_ne!(t.digest(), frozen_digest, "rebinding changes the status");
        assert!(t.suspend_port().is_some(), "suspend channel persists");
    }

    #[test]
    fn repeated_suspend_resume_cycles_do_not_leak_channels() {
        // Recovery can suspend and resume the same guest several times
        // (fallback retries); the table must end each cycle with exactly
        // the standard shape — no accumulated frontends, no stale bits.
        let mut t = EventChannelTable::standard_domu();
        for cycle in 0..10 {
            let virq = t
                .channels
                .values()
                .find(|c| matches!(c.kind, ChannelKind::Virq(_)))
                .map(|c| c.port)
                .unwrap();
            t.notify(virq).unwrap();
            assert_eq!(t.detach_for_suspend(), 2, "cycle {cycle}");
            t.reestablish_after_resume();
            assert_eq!(t.len(), 5, "cycle {cycle} leaked channels");
            let interdomain = t
                .channels
                .values()
                .filter(|c| matches!(c.kind, ChannelKind::Interdomain { .. }))
                .count();
            assert_eq!(interdomain, 2, "cycle {cycle}");
            assert!(
                t.channels.values().all(|c| !c.pending),
                "cycle {cycle} left a stale pending bit"
            );
        }
    }

    #[test]
    fn digest_captures_status_changes() {
        let mut t = EventChannelTable::standard_domu();
        let d0 = t.digest();
        let p = t.suspend_port().unwrap();
        t.notify(p).unwrap();
        let d1 = t.digest();
        assert_ne!(d0, d1, "pending bit is part of the status");
        t.take_pending(p).unwrap();
        assert_eq!(t.digest(), d0, "acking restores the status");
        t.set_masked(p, true).unwrap();
        assert_ne!(t.digest(), d0, "mask bit is part of the status");
    }

    #[test]
    fn close_frees_the_port_for_reuse_detection() {
        let mut t = EventChannelTable::new();
        let p = t.bind(ChannelKind::Virq(9)).unwrap();
        t.close(p).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.notify(p), Err(ChannelError::BadPort(p)));
        // Ports are not reused: a fresh bind gets a new number.
        let q = t.bind(ChannelKind::Virq(9)).unwrap();
        assert_ne!(p, q);
    }
}
