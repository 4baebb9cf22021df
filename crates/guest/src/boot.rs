//! Boot, shutdown and suspend/resume work profiles.
//!
//! A [`WorkProfile`] decomposes a guest lifecycle operation into
//!
//! * a **fixed latency** (timeouts, probes, sequential kernel init) that
//!   does not contend with other guests, and
//! * **shared work** (disk bytes, CPU core-seconds) that flows through the
//!   host's shared resources and therefore slows down as more guests do the
//!   same thing at once.
//!
//! This decomposition is what makes the paper's linear-in-`n` behaviour
//! *emerge*: `n` guests booting in parallel each get `1/n` of the shared
//! capacity, so completion time is `fixed + n · (work / capacity)` — the
//! paper measured `boot(n) = 3.4 n + 2.8` (§5.6).
//!
//! Calibration (DESIGN.md §5) against the paper's fitted functions:
//!
//! | operation        | fixed  | shared                      | paper target |
//! |------------------|--------|-----------------------------|--------------|
//! | guest boot       | 4.0 s  | 184 MB disk read            | `3.4n + 2.8` (fit over 1..=11) |
//! | guest shutdown   | 10.3 s | 22 MB disk write            | `reboot_os − boot = 0.4n + 10.2` |
//! | suspend handler  | 20 ms  | —                           | ≈0.04 s at n = 11 |
//! | resume handler   | 60 ms  | —                           | part of `resume(n) = 0.43n − 0.07` |

use rh_sim::time::SimDuration;

/// One lifecycle operation's resource demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// Uncontended latency.
    pub fixed: SimDuration,
    /// Bytes read from the shared disk.
    pub disk_read_bytes: f64,
    /// Bytes written to the shared disk.
    pub disk_write_bytes: f64,
    /// CPU work in core-seconds on the shared CPU pool.
    pub cpu_work: f64,
}

impl WorkProfile {
    /// A profile with only fixed latency.
    pub fn fixed_only(fixed: SimDuration) -> Self {
        WorkProfile {
            fixed,
            disk_read_bytes: 0.0,
            disk_write_bytes: 0.0,
            cpu_work: 0.0,
        }
    }

    /// Total disk traffic.
    pub fn disk_bytes(&self) -> f64 {
        self.disk_read_bytes + self.disk_write_bytes
    }

    /// True if the profile demands shared resources.
    #[cfg(test)]
    fn has_shared_work(&self) -> bool {
        self.disk_bytes() > 0.0 || self.cpu_work > 0.0
    }
}

/// Boot of a paravirtualized Linux guest (kernel + base services).
///
/// 184 MB of boot-time disk reads over an 85 MB/s disk gives the ≈2.2 s/VM
/// contention slope that, combined with the disk seek penalty, reproduces
/// the paper's steep boot line in Fig. 5.
pub fn linux_guest_boot() -> WorkProfile {
    WorkProfile {
        fixed: SimDuration::from_millis(4_000),
        disk_read_bytes: 184.0e6,
        disk_write_bytes: 0.0,
        cpu_work: 0.0,
    }
}

/// Shutdown of a paravirtualized Linux guest (service stop timeouts +
/// filesystem sync).
pub fn linux_guest_shutdown() -> WorkProfile {
    WorkProfile {
        fixed: SimDuration::from_millis(10_300),
        disk_read_bytes: 0.0,
        disk_write_bytes: 22.0e6,
        cpu_work: 0.0,
    }
}

/// The suspend handler: detach paravirtual devices, then issue the suspend
/// hypercall. Near-constant — the whole point of on-memory suspend is that
/// no per-byte work happens (paper Fig. 4: 0.08 s at 11 GB).
pub fn suspend_handler() -> WorkProfile {
    WorkProfile::fixed_only(SimDuration::from_millis(20))
}

/// The resume handler: re-establish event channels, re-attach devices.
/// The per-domain serialized work in domain 0 (`resume(n) = 0.43n − 0.07`)
/// is modelled in the VMM layer; this is only the in-guest part.
pub fn resume_handler() -> WorkProfile {
    WorkProfile::fixed_only(SimDuration::from_millis(60))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completion time of `n` guests running `profile` simultaneously over
    /// shared capacities — the closed-form the simulation should reproduce.
    fn parallel_secs(profile: &WorkProfile, n: usize, disk_bps: f64, cpu_cores: f64) -> f64 {
        let mut t = profile.fixed.as_secs_f64();
        if profile.disk_bytes() > 0.0 {
            t += profile.disk_bytes() * n as f64 / disk_bps;
        }
        if profile.cpu_work > 0.0 {
            t += profile.cpu_work * n as f64 / cpu_cores;
        }
        t
    }

    #[test]
    fn boot_profile_matches_paper_fit_shape() {
        let boot = linux_guest_boot();
        // Ideal sharing (no seek penalty): slope = 184 MB / 85 MB/s ≈ 2.16,
        // intercept 4.0. With the disk's seek penalty the effective slope
        // rises to ≈3.4 (verified end-to-end in the vmm crate).
        let t1 = parallel_secs(&boot, 1, 85.0e6, 4.0);
        let t11 = parallel_secs(&boot, 11, 85.0e6, 4.0);
        assert!((t1 - 6.2).abs() < 0.3, "boot(1) = {t1:.2}");
        let slope = (t11 - t1) / 10.0;
        assert!((1.9..=3.6).contains(&slope), "boot slope {slope:.2}");
    }

    #[test]
    fn shutdown_profile_matches_paper_fit_shape() {
        let sd = linux_guest_shutdown();
        let t1 = parallel_secs(&sd, 1, 85.0e6, 4.0);
        let t11 = parallel_secs(&sd, 11, 85.0e6, 4.0);
        assert!((t1 - 10.6).abs() < 0.3, "shutdown(1) = {t1:.2}");
        assert!(t11 - t1 < 5.0, "shutdown grows gently: {:.2}", t11 - t1);
    }

    #[test]
    fn suspend_is_memory_size_independent() {
        // The profile carries no per-byte work at all.
        let s = suspend_handler();
        assert_eq!(s.disk_bytes(), 0.0);
        assert_eq!(s.cpu_work, 0.0);
        assert!(s.fixed.as_secs_f64() < 0.1);
        assert!(!s.has_shared_work());
    }

    #[test]
    fn resume_handler_is_light() {
        let r = resume_handler();
        assert!(r.fixed.as_secs_f64() < 0.1);
        assert!(!r.has_shared_work());
    }

    #[test]
    fn profile_helpers() {
        let p = WorkProfile {
            fixed: SimDuration::from_secs(1),
            disk_read_bytes: 10.0,
            disk_write_bytes: 5.0,
            cpu_work: 2.0,
        };
        assert_eq!(p.disk_bytes(), 15.0);
        assert!(p.has_shared_work());
    }
}
