//! Guest operating-system aging.
//!
//! The paper's §2 cites the classic result that operating systems age too:
//! "it has been reported that system resources such as kernel memory and
//! swap spaces were exhausted with time" (Garg et al.). That is *why* the
//! weekly OS rejuvenation of §3.2/§5.3 exists in the first place — and why
//! the warm-VM reboot's property of leaving the OS rejuvenation schedule
//! untouched (Fig. 2a) matters.
//!
//! [`GuestAging`] models a guest kernel's two aging resources — kernel
//! memory and swap — depleting with uptime and with served requests, the
//! resulting service slowdown, and the reset an OS reboot performs.

use std::fmt;

use rh_sim::time::SimDuration;

/// Health of an aging guest kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuestHealth {
    /// Plenty of both resources.
    Healthy,
    /// One resource past its pressure threshold: requests slow down.
    Degraded,
    /// A resource ran out: the kernel is effectively hung.
    Exhausted,
}

impl fmt::Display for GuestHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestHealth::Healthy => write!(f, "healthy"),
            GuestHealth::Degraded => write!(f, "degraded"),
            GuestHealth::Exhausted => write!(f, "exhausted"),
        }
    }
}

/// Aging state of one guest kernel.
///
/// # Examples
///
/// ```
/// use rh_guest::aging::{GuestAging, GuestHealth};
/// use rh_sim::time::SimDuration;
///
/// let mut aging = GuestAging::typical_2007_linux();
/// assert_eq!(aging.health(), GuestHealth::Healthy);
/// // A week of uptime plus a few million requests leaves wear.
/// aging.advance(SimDuration::from_secs(7 * 24 * 3600));
/// aging.on_requests(3_000_000);
/// assert_ne!(aging, GuestAging::typical_2007_linux());
/// aging.rejuvenate(); // the weekly OS reboot
/// assert_eq!(aging.rejuvenations(), 1);
/// assert_eq!(aging.health(), GuestHealth::Healthy);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GuestAging {
    kernel_mem_capacity: f64,
    swap_capacity: f64,
    kernel_mem_used: f64,
    swap_used: f64,
    /// Kernel-memory leak per second of uptime (bytes).
    pub leak_per_sec: f64,
    /// Kernel-memory leak per served request (bytes).
    pub leak_per_request: f64,
    /// Swap growth per second of uptime (bytes).
    pub swap_per_sec: f64,
    rejuvenations: u64,
}

/// Pressure above which service degrades.
pub const DEGRADE_THRESHOLD: f64 = 0.7;

impl GuestAging {
    /// Creates an aging model with the given capacities (bytes).
    ///
    /// # Panics
    ///
    /// Panics unless both capacities are positive.
    pub fn new(kernel_mem_capacity: f64, swap_capacity: f64) -> Self {
        assert!(
            kernel_mem_capacity > 0.0 && swap_capacity > 0.0,
            "capacities must be positive"
        );
        GuestAging {
            kernel_mem_capacity,
            swap_capacity,
            kernel_mem_used: 0.0,
            swap_used: 0.0,
            leak_per_sec: 0.0,
            leak_per_request: 0.0,
            swap_per_sec: 0.0,
            rejuvenations: 0,
        }
    }

    /// A 2007-era Linux guest: 128 MB of kernel lowmem, 1 GB of swap,
    /// leaking ~150 B/s of uptime and ~4 B/request — wearing out over
    /// roughly ten days of loaded uptime (hence the paper's weekly
    /// rejuvenation cadence keeps it comfortably healthy).
    pub fn typical_2007_linux() -> Self {
        GuestAging {
            leak_per_sec: 150.0,
            leak_per_request: 4.0,
            swap_per_sec: 600.0,
            ..GuestAging::new(128.0 * 1024.0 * 1024.0, 1024.0 * 1024.0 * 1024.0)
        }
    }

    /// Ages by `dt` of uptime.
    pub fn advance(&mut self, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        self.kernel_mem_used =
            (self.kernel_mem_used + self.leak_per_sec * secs).min(self.kernel_mem_capacity);
        self.swap_used = (self.swap_used + self.swap_per_sec * secs).min(self.swap_capacity);
    }

    /// Ages by `count` served requests.
    pub fn on_requests(&mut self, count: u64) {
        self.kernel_mem_used = (self.kernel_mem_used + self.leak_per_request * count as f64)
            .min(self.kernel_mem_capacity);
    }

    /// Kernel-memory pressure in `[0, 1]`.
    fn kernel_mem_pressure(&self) -> f64 {
        self.kernel_mem_used / self.kernel_mem_capacity
    }

    /// Swap pressure in `[0, 1]`.
    fn swap_pressure(&self) -> f64 {
        self.swap_used / self.swap_capacity
    }

    /// Current health.
    pub fn health(&self) -> GuestHealth {
        let worst = self.kernel_mem_pressure().max(self.swap_pressure());
        if worst >= 1.0 {
            GuestHealth::Exhausted
        } else if worst >= DEGRADE_THRESHOLD {
            GuestHealth::Degraded
        } else {
            GuestHealth::Healthy
        }
    }

    /// Service-time multiplier from aging: 1.0 healthy, rising linearly to
    /// 3.0 at exhaustion (thrashing).
    pub fn service_slowdown(&self) -> f64 {
        let worst = self
            .kernel_mem_pressure()
            .max(self.swap_pressure())
            .min(1.0);
        if worst < DEGRADE_THRESHOLD {
            1.0
        } else {
            1.0 + 2.0 * (worst - DEGRADE_THRESHOLD) / (1.0 - DEGRADE_THRESHOLD)
        }
    }

    /// An OS reboot: all aged state is reclaimed.
    pub fn rejuvenate(&mut self) {
        self.kernel_mem_used = 0.0;
        self.swap_used = 0.0;
        self.rejuvenations += 1;
    }

    /// OS rejuvenations performed.
    pub fn rejuvenations(&self) -> u64 {
        self.rejuvenations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn days(d: u64) -> SimDuration {
        SimDuration::from_secs(d * 24 * 3600)
    }

    #[test]
    fn fresh_guest_is_healthy() {
        let a = GuestAging::typical_2007_linux();
        assert_eq!(a.health(), GuestHealth::Healthy);
        assert_eq!(a.service_slowdown(), 1.0);
        assert_eq!(a.kernel_mem_pressure(), 0.0);
    }

    #[test]
    fn weekly_rejuvenation_outpaces_typical_wear() {
        // The paper's §5.3 cadence: with weekly OS reboots the guest never
        // leaves Healthy territory.
        let mut a = GuestAging::typical_2007_linux();
        for _week in 0..8 {
            a.advance(days(7));
            a.on_requests(5_000_000);
            assert_ne!(a.health(), GuestHealth::Exhausted);
            a.rejuvenate();
            assert_eq!(a.health(), GuestHealth::Healthy);
        }
        assert_eq!(a.rejuvenations(), 8);
    }

    #[test]
    fn unrejuvenated_guest_degrades_then_exhausts() {
        let mut a = GuestAging::typical_2007_linux();
        let mut saw_degraded = false;
        for _ in 0..40 {
            a.advance(days(1));
            a.on_requests(2_000_000);
            if a.health() == GuestHealth::Degraded {
                saw_degraded = true;
            }
        }
        assert!(saw_degraded, "must pass through Degraded");
        assert_eq!(a.health(), GuestHealth::Exhausted);
        assert!((a.service_slowdown() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_rises_monotonically() {
        let mut a = GuestAging::typical_2007_linux();
        let mut last = 1.0;
        for _ in 0..30 {
            a.advance(days(1));
            a.on_requests(1_000_000);
            let s = a.service_slowdown();
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn request_driven_wear_is_independent_of_uptime() {
        let mut a = GuestAging::new(1000.0, 1_000_000.0);
        a.leak_per_request = 1.0;
        a.on_requests(700);
        assert_eq!(a.health(), GuestHealth::Degraded);
        a.on_requests(1_000_000);
        assert_eq!(
            a.health(),
            GuestHealth::Exhausted,
            "wear clamps at capacity"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        GuestAging::new(0.0, 1.0);
    }
}
