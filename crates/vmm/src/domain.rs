//! Domains: the VMM's unit of virtualization.
//!
//! Following Xen's terminology (paper §4): the privileged VM that manages
//! the others and performs I/O is *domain 0*; ordinary guests are *domain
//! U*s. The paper treats domain 0 as part of the VMM for rejuvenation
//! purposes — rebooting it implies rebooting the VMM — so domain 0 carries
//! no service and is never suspended.

use std::fmt;

use rh_guest::aging::GuestAging;
use rh_guest::fs::{FileSet, FileSystem};
use rh_guest::kernel::GuestKernel;
use rh_guest::pagecache::PageCache;
use rh_guest::services::{Service, ServiceKind};
use rh_memory::p2m::P2mTable;

/// Identifies a domain. Domain 0 is the privileged VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The privileged domain.
    pub const DOM0: DomainId = DomainId(0);

    /// True for domain 0.
    pub fn is_dom0(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dom0() {
            write!(f, "dom0")
        } else {
            write!(f, "domU{}", self.0)
        }
    }
}

impl From<DomainId> for rh_obs::DomId {
    fn from(id: DomainId) -> Self {
        rh_obs::DomId(id.0)
    }
}

/// The execution state saved by the suspend hypercall (§4.2): "execution
/// context such as CPU registers and shared information such as the status
/// of event channels", plus the domain configuration. 16 KB in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecState {
    /// Digest of CPU register state.
    pub cpu_context: u64,
    /// Digest of event-channel status.
    pub event_channels: u64,
    /// Digest of the device configuration.
    pub device_config: u64,
    /// Size of the saved record in bytes.
    pub bytes: u64,
}

impl ExecState {
    /// Maximum size of a saved execution-state record: the 16 KB the paper
    /// budgets per domain (§4.2). The suspend hypercall rejects anything
    /// larger — the preserved slots are fixed-size, and an oversized record
    /// would spill into memory the quick reload does not protect.
    pub const MAX_BYTES: u64 = 16 * 1024;

    /// Captures a synthetic execution state derived from `seed`.
    pub fn capture(seed: u64, bytes: u64) -> Self {
        use rh_sim::rng::splitmix64;
        ExecState {
            cpu_context: splitmix64(seed ^ 0x1),
            event_channels: splitmix64(seed ^ 0x2),
            device_config: splitmix64(seed ^ 0x3),
            bytes,
        }
    }
}

/// Static configuration of a domain U.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpec {
    /// Human-readable name.
    pub name: String,
    /// Pseudo-physical memory size in bytes.
    pub mem_bytes: u64,
    /// The service this guest runs, if any.
    pub service: Option<ServiceKind>,
    /// File corpus on the guest's virtual disk, if any.
    pub files: Option<FileSet>,
    /// A *driver domain* (paper §7): a domain U that hosts device drivers.
    /// Driver domains localize driver faults, but they "cannot be
    /// suspended" — a warm VMM reboot must shut them down and boot them
    /// like the cold path, increasing downtime for the services they run.
    pub driver_domain: bool,
    /// The domain whose backends serve this guest's I/O: domain 0 by
    /// default (`None`), or a driver domain. While the backend is down,
    /// this guest's service is unreachable even if the guest itself runs.
    pub backend: Option<u32>,
}

impl DomainSpec {
    /// A 1 GiB guest running `service` — the paper's standard VM.
    pub fn standard(name: impl Into<String>, service: ServiceKind) -> Self {
        DomainSpec {
            name: name.into(),
            mem_bytes: 1 << 30,
            service: Some(service),
            files: match service {
                ServiceKind::ApacheWeb => Some(FileSet::apache_corpus()),
                _ => None,
            },
            driver_domain: false,
            backend: None,
        }
    }

    /// Marks this guest as a driver domain (cannot be suspended; see the
    /// field docs and paper §7).
    pub fn as_driver_domain(mut self) -> Self {
        self.driver_domain = true;
        self
    }

    /// Routes this guest's device I/O through the given driver domain
    /// instead of domain 0.
    pub fn with_backend(mut self, backend: u32) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Overrides the memory size.
    pub fn with_mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Overrides the file corpus.
    pub fn with_files(mut self, files: FileSet) -> Self {
        self.files = Some(files);
        self
    }
}

/// A live domain: spec + all mutable guest/VMM state.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Identifier.
    pub id: DomainId,
    /// Static configuration.
    pub spec: DomainSpec,
    /// Guest kernel lifecycle.
    pub kernel: GuestKernel,
    /// The guest's service process, if configured.
    pub service: Option<Service>,
    /// The guest's page cache. Preserved by suspend/resume, emptied by an
    /// OS boot.
    pub cache: PageCache,
    /// The guest's filesystem over its virtual disk partition.
    pub fs: Option<FileSystem>,
    /// The PFN→MFN mapping maintained by the VMM for this domain.
    pub p2m: P2mTable,
    /// Content salt used to (re)fill this domain's memory at boot; changes
    /// each boot generation so stale images are detectable.
    pub salt: u64,
    /// Saved execution state while suspended.
    pub exec_state: Option<ExecState>,
    /// OS-level aging state (kernel memory / swap wear), when enabled.
    /// Preserved by suspend/resume — a warm VMM reboot does *not*
    /// rejuvenate the guest OS (that is exactly Fig. 2's point) — and
    /// reset by an OS boot.
    pub aging: Option<GuestAging>,
    /// The domain's event-channel table (§4.2: its status is part of the
    /// preserved execution state; device channels detach at suspend and
    /// re-establish at resume).
    pub channels: crate::events::EventChannelTable,
}

/// Fraction of guest memory used as page cache ("modern operating systems
/// use most of free memory as the file cache", §2).
const CACHE_FRACTION: f64 = 0.85;

impl Domain {
    /// Creates a not-yet-booted domain.
    pub fn new(id: DomainId, spec: DomainSpec, salt: u64) -> Self {
        let cache = PageCache::new((spec.mem_bytes as f64 * CACHE_FRACTION) as u64);
        let fs = spec.files.map(|set| FileSystem::new(set, &cache));
        let service = spec.service.map(Service::new);
        Domain {
            id,
            spec,
            kernel: GuestKernel::new(),
            service,
            cache,
            fs,
            p2m: P2mTable::new(),
            salt,
            exec_state: None,
            aging: None,
            channels: crate::events::EventChannelTable::new(),
        }
    }

    /// Memory size in whole pages.
    pub fn mem_pages(&self) -> u64 {
        self.spec.mem_bytes / rh_memory::frame::PAGE_SIZE
    }

    /// Memory size in GiB (fractional).
    pub fn mem_gib(&self) -> f64 {
        self.spec.mem_bytes as f64 / (1u64 << 30) as f64
    }

    /// Pages actually mapped in the P2M right now. Differs from
    /// [`mem_pages`](Self::mem_pages) when a balloon is inflated: the
    /// spec still says the configured size, but ballooned-out pages are
    /// no longer owned by the domain.
    pub fn resident_pages(&self) -> u64 {
        self.p2m.total_pages()
    }

    /// Resident memory in GiB (fractional) — the P2M-mapped size, which
    /// excludes ballooned-out pages.
    pub fn resident_gib(&self) -> f64 {
        (self.p2m.total_pages() * rh_memory::frame::PAGE_SIZE) as f64 / (1u64 << 30) as f64
    }

    /// True if the guest kernel is running and its service (if any) is
    /// serving — i.e. the domain is observable as "up" from the network.
    pub fn service_up(&self) -> bool {
        self.kernel.is_running()
            && self
                .service
                .as_ref()
                .map(|s| s.is_running())
                .unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_identity() {
        assert!(DomainId::DOM0.is_dom0());
        assert!(!DomainId(3).is_dom0());
        assert_eq!(DomainId::DOM0.to_string(), "dom0");
        assert_eq!(DomainId(7).to_string(), "domU7");
    }

    #[test]
    fn standard_spec_is_one_gib() {
        let spec = DomainSpec::standard("vm1", ServiceKind::Ssh);
        assert_eq!(spec.mem_bytes, 1 << 30);
        assert_eq!(spec.service, Some(ServiceKind::Ssh));
        assert!(spec.files.is_none());
        let web = DomainSpec::standard("web", ServiceKind::ApacheWeb);
        assert!(web.files.is_some(), "web guests get the apache corpus");
    }

    #[test]
    fn spec_overrides() {
        let spec = DomainSpec::standard("big", ServiceKind::Ssh)
            .with_mem_bytes(11 << 30)
            .with_files(FileSet::single_large_file());
        assert_eq!(spec.mem_bytes, 11 << 30);
        assert_eq!(spec.files.unwrap().files, 1);
    }

    #[test]
    fn domain_geometry() {
        let d = Domain::new(
            DomainId(1),
            DomainSpec::standard("vm", ServiceKind::Ssh),
            42,
        );
        assert_eq!(d.mem_pages(), 262_144);
        assert!((d.mem_gib() - 1.0).abs() < 1e-9);
        // Page cache sized to 85 % of guest memory.
        let expect = ((1u64 << 30) as f64 * CACHE_FRACTION) as u64;
        assert_eq!(d.cache.capacity_bytes(), expect);
    }

    #[test]
    fn service_up_requires_kernel_and_service() {
        let mut d = Domain::new(DomainId(1), DomainSpec::standard("vm", ServiceKind::Ssh), 1);
        assert!(!d.service_up());
        d.kernel.begin_boot().unwrap();
        d.kernel.finish_boot().unwrap();
        assert!(!d.service_up(), "kernel up but sshd not started");
        let svc = d.service.as_mut().unwrap();
        svc.begin_start().unwrap();
        svc.finish_start().unwrap();
        assert!(d.service_up());
    }

    #[test]
    fn exec_state_capture_is_deterministic() {
        let a = ExecState::capture(7, 16 * 1024);
        let b = ExecState::capture(7, 16 * 1024);
        assert_eq!(a, b);
        let c = ExecState::capture(8, 16 * 1024);
        assert_ne!(a, c);
        assert_eq!(a.bytes, 16 * 1024);
    }
}
