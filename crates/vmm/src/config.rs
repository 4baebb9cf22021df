//! Host configuration.
//!
//! [`HostConfig`] describes one simulated server: installed RAM, the set of
//! guest domains, the timing calibration, and the knobs the paper's
//! experiments (and our ablations) turn.

use rh_guest::services::ServiceKind;
use rh_memory::frame::{frames_for_bytes, PAGE_SIZE};
use rh_memory::heap::VmmHeap;
use rh_obs::Phase;
use rh_sim::time::SimDuration;

use crate::domain::DomainSpec;
use crate::timing::TimingParams;
use crate::vmm::{HEAP_PER_DOMAIN, VMM_RESERVED_FRAMES};

/// The VMM rejuvenation strategies: the paper's three plus two
/// disk-image refinements (streamed post-copy restore and incremental
/// delta saves). Each is one point on three axes (image, reload,
/// resume), tabulated in the [`host`](crate::host) module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebootStrategy {
    /// The paper's warm-VM reboot: on-memory suspend + quick reload.
    Warm,
    /// Xen's suspend-to-disk, hardware reset, restore-from-disk.
    Saved,
    /// Ordinary shutdown, hardware reset, boot.
    Cold,
    /// Saved reboot with a post-copy restore: only the working set is
    /// read before resume; the rest streams in while the guest serves
    /// (degraded, Fig. 8-style).
    Streamed,
    /// Saved reboot with periodic background delta snapshots, so the
    /// at-reboot save writes only extents dirtied since the last delta.
    Incremental,
}

impl RebootStrategy {
    /// All strategies, in paper-then-refinement order.
    pub const ALL: [RebootStrategy; 5] = [
        RebootStrategy::Warm,
        RebootStrategy::Saved,
        RebootStrategy::Cold,
        RebootStrategy::Streamed,
        RebootStrategy::Incremental,
    ];

    /// Where this strategy keeps each guest's memory image.
    pub(crate) const fn image(self) -> Image {
        match self {
            Self::Warm => Image::InPlace,
            Self::Saved | Self::Streamed => Image::DiskFull,
            Self::Incremental => Image::DiskDelta,
            Self::Cold => Image::Dropped,
        }
    }

    /// How this strategy restarts the VMM.
    pub(crate) const fn reload(self) -> Reload {
        match self {
            Self::Warm => Reload::Quick,
            Self::Saved | Self::Cold | Self::Streamed | Self::Incremental => Reload::Reset,
        }
    }

    /// How this strategy brings each guest back once dom0 is up.
    pub(crate) const fn resume(self) -> Resume {
        match self {
            Self::Warm => Resume::Attach,
            Self::Saved | Self::Incremental => Resume::Restore,
            Self::Streamed => Resume::StreamIn,
            Self::Cold => Resume::Boot,
        }
    }
}

/// Where a guest's memory image goes across the VMM reboot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Image {
    /// Suspended on memory: the frames stay in place through the reload.
    InPlace,
    /// Suspended and written to disk in full.
    DiskFull,
    /// Suspended and written to disk as the extents dirtied since the
    /// last delta snapshot (in full when there is none).
    DiskDelta,
    /// Dropped: the guest shuts down.
    Dropped,
}

impl Image {
    /// True when the image is parked on disk. Dom0 then suspends and
    /// saves the guests while it is still up, and shuts down after the
    /// saves (original Xen); otherwise dom0 shuts down first.
    pub(crate) const fn on_disk(self) -> bool {
        matches!(self, Image::DiskFull | Image::DiskDelta)
    }
}

/// How the VMM restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reload {
    /// xexec quick reload of a staged VMM, skipping the hardware reset and
    /// the frozen memory (§4.1).
    Quick,
    /// Hardware reset (BIOS POST, SCSI init), then a VMM boot.
    Reset,
}

/// How a guest comes back once dom0 is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// Resume the image frozen in place.
    Attach,
    /// Read the saved image back in full, then resume.
    Restore,
    /// Read the saved image's working set, resume, and stream the rest
    /// in behind the running guest (post-copy).
    StreamIn,
    /// Create and boot a fresh guest, then start its service.
    Boot,
}

impl Resume {
    /// The Fig. 7 span that opens when dom0 is up and closes when the last
    /// domain is back.
    pub(crate) const fn phase(self) -> Phase {
        match self {
            Resume::Attach => Phase::Resume,
            Resume::Restore | Resume::StreamIn => Phase::Restore,
            Resume::Boot => Phase::GuestBoot,
        }
    }

    /// True when domains are set up one at a time. Xen's `xm restore`
    /// streams one image back at a time, so the next restore starts only
    /// after this one's (foreground) disk read completes; resumes and
    /// boots are dom0-serialized but their in-guest work overlaps.
    pub(crate) const fn serial(self) -> bool {
        matches!(self, Resume::Restore | Resume::StreamIn)
    }
}

impl std::fmt::Display for RebootStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebootStrategy::Warm => write!(f, "warm"),
            RebootStrategy::Saved => write!(f, "saved"),
            RebootStrategy::Cold => write!(f, "cold"),
            RebootStrategy::Streamed => write!(f, "streamed"),
            RebootStrategy::Incremental => write!(f, "incremental"),
        }
    }
}

impl From<RebootStrategy> for rh_obs::StrategyKind {
    fn from(s: RebootStrategy) -> Self {
        match s {
            RebootStrategy::Warm => rh_obs::StrategyKind::Warm,
            RebootStrategy::Saved => rh_obs::StrategyKind::Saved,
            RebootStrategy::Cold => rh_obs::StrategyKind::Cold,
            RebootStrategy::Streamed => rh_obs::StrategyKind::Streamed,
            RebootStrategy::Incremental => rh_obs::StrategyKind::Incremental,
        }
    }
}

/// Who initiates the on-memory suspend, and when (a DESIGN.md ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuspendOrder {
    /// The paper's RootHammer ordering: the VMM suspends domain Us *after*
    /// domain 0 has shut down, so guests keep serving ~14 s longer (§4.2,
    /// Fig. 7 credits ≈7 s of downtime to this).
    VmmAfterDom0Shutdown,
    /// The original Xen ordering: domain 0 suspends the guests while it is
    /// itself shutting down, stopping them earlier.
    Dom0DuringShutdown,
}

/// Full description of one simulated host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Installed machine memory in bytes (the paper's host: 12 GiB).
    pub ram_bytes: u64,
    /// Guest domain specs (domain 0 is implicit).
    pub domains: Vec<DomainSpec>,
    /// Timing calibration.
    pub timing: TimingParams,
    /// Experiment RNG seed.
    pub seed: u64,
    /// Suspend-ordering ablation.
    pub suspend_order: SuspendOrder,
    /// Retain a full event trace (disable for long benchmark runs).
    pub trace: bool,
    /// Send liveness probes every `timing.probe_interval` (client-side
    /// sampled downtime, cross-checking the exact meters).
    pub probes: bool,
    /// Model OS-level aging inside guests (kernel-memory/swap wear that
    /// slows request service until an OS reboot).
    pub guest_aging: bool,
    /// Fraction of each image read before resume under
    /// [`RebootStrategy::Streamed`] (the restored working set).
    pub stream_working_set: f64,
    /// Probability that a request touches only the restored working set
    /// while a domain is still streaming; the complement of each
    /// request's bytes is faulted in through the disk.
    pub stream_locality: f64,
    /// Interval between background delta snapshots under
    /// [`RebootStrategy::Incremental`] (`None` disarms the ticker, so an
    /// incremental reboot degenerates to a full saved reboot).
    pub snapshot_interval: Option<SimDuration>,
}

impl HostConfig {
    /// The paper's testbed: 12 GiB RAM, no guests yet.
    pub fn paper_testbed() -> Self {
        HostConfig {
            ram_bytes: 12 << 30,
            domains: Vec::new(),
            timing: TimingParams::paper_testbed(),
            seed: 0x5EED,
            suspend_order: SuspendOrder::VmmAfterDom0Shutdown,
            trace: true,
            probes: false,
            guest_aging: false,
            stream_working_set: 0.15,
            stream_locality: 0.9,
            snapshot_interval: None,
        }
    }

    /// Adds `n` standard 1 GiB guests running `service`.
    pub fn with_vms(mut self, n: u32, service: ServiceKind) -> Self {
        let base = self.domains.len() as u32;
        for i in 0..n {
            self.domains
                .push(DomainSpec::standard(format!("vm{}", base + i + 1), service));
        }
        self
    }

    /// Adds one custom domain.
    pub fn with_domain(mut self, spec: DomainSpec) -> Self {
        self.domains.push(spec);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the suspend ordering (ablation).
    pub fn with_suspend_order(mut self, order: SuspendOrder) -> Self {
        self.suspend_order = order;
        self
    }

    /// Enables or disables tracing.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables or disables client-side probes.
    pub fn with_probes(mut self, on: bool) -> Self {
        self.probes = on;
        self
    }

    /// Enables or disables guest OS aging.
    pub fn with_guest_aging(mut self, on: bool) -> Self {
        self.guest_aging = on;
        self
    }

    /// Overrides the streaming request locality (clamped to `[0, 1]`).
    pub fn with_stream_locality(mut self, locality: f64) -> Self {
        self.stream_locality = locality.clamp(0.0, 1.0);
        self
    }

    /// Arms (or disarms) the background delta-snapshot ticker.
    pub fn with_snapshot_interval(mut self, interval: Option<SimDuration>) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Installed RAM in GiB.
    pub fn ram_gib(&self) -> f64 {
        self.ram_bytes as f64 / (1u64 << 30) as f64
    }

    /// Checks that the VMM can allocate every guest domain at power-on.
    ///
    /// The VMM boot reserves [`VMM_RESERVED_FRAMES`] of the installed RAM
    /// for itself, and creating a domain takes [`HEAP_PER_DOMAIN`] of the
    /// VMM heap plus the domain's whole memory in free frames. A domain
    /// set that does not fit would otherwise fail the power-on, so the
    /// error names the shortfall.
    pub fn validate(&self) -> Result<(), String> {
        let mib = |frames: u64| (frames * PAGE_SIZE) as f64 / f64::from(1u32 << 20);
        let total = frames_for_bytes(self.ram_bytes);
        let reserved = VMM_RESERVED_FRAMES.min(total);
        let free = total - reserved;
        let needed: u64 = self.domains.iter().map(|d| d.mem_bytes / PAGE_SIZE).sum();
        if needed > free {
            return Err(format!(
                "{} guest domains need {} MiB of memory, but {} MiB of RAM leave {} MiB \
                 once the VMM reserves {} MiB: {} MiB short",
                self.domains.len(),
                mib(needed),
                mib(total),
                mib(free),
                mib(reserved),
                mib(needed - free)
            ));
        }
        let heap = VmmHeap::xen_default().capacity();
        let heap_needed = self.domains.len() as u64 * HEAP_PER_DOMAIN;
        if heap_needed > heap {
            return Err(format!(
                "{} guest domains need {} KiB of VMM heap, but the heap holds {} KiB: {} KiB short",
                self.domains.len(),
                heap_needed >> 10,
                heap >> 10,
                (heap_needed - heap) >> 10
            ));
        }
        Ok(())
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_defaults() {
        let c = HostConfig::paper_testbed();
        assert_eq!(c.ram_bytes, 12 << 30);
        assert!((c.ram_gib() - 12.0).abs() < 1e-9);
        assert!(c.domains.is_empty());
        assert_eq!(c.suspend_order, SuspendOrder::VmmAfterDom0Shutdown);
    }

    #[test]
    fn with_vms_appends_specs() {
        let c = HostConfig::paper_testbed().with_vms(11, ServiceKind::Ssh);
        assert_eq!(c.domains.len(), 11);
        assert_eq!(c.domains[0].name, "vm1");
        assert_eq!(c.domains[10].name, "vm11");
        for d in &c.domains {
            assert_eq!(d.mem_bytes, 1 << 30);
        }
    }

    #[test]
    fn builder_overrides() {
        let c = HostConfig::paper_testbed()
            .with_seed(99)
            .with_trace(false)
            .with_probes(true)
            .with_suspend_order(SuspendOrder::Dom0DuringShutdown);
        assert_eq!(c.seed, 99);
        assert!(!c.trace);
        assert!(c.probes);
        assert_eq!(c.suspend_order, SuspendOrder::Dom0DuringShutdown);
    }

    #[test]
    fn validate_rejects_a_domain_set_that_does_not_fit() {
        // Eleven 1 GiB guests fit the 12 GiB testbed beside the VMM's
        // 64 MiB; a twelfth does not.
        let eleven = HostConfig::paper_testbed().with_vms(11, ServiceKind::Ssh);
        assert_eq!(eleven.validate(), Ok(()));
        let twelve = eleven.with_vms(1, ServiceKind::Ssh);
        assert_eq!(
            twelve.validate(),
            Err(
                "12 guest domains need 12288 MiB of memory, but 12288 MiB of RAM leave \
                 12224 MiB once the VMM reserves 64 MiB: 64 MiB short"
                    .to_string()
            )
        );
        // The heap runs out at 257 domains of any size.
        let tiny = DomainSpec::standard("tiny", ServiceKind::Ssh).with_mem_bytes(1 << 20);
        let mut many = HostConfig::paper_testbed();
        many.domains = vec![tiny; 257];
        assert_eq!(
            many.validate(),
            Err(
                "257 guest domains need 16448 KiB of VMM heap, but the heap holds 16384 KiB: \
                 64 KiB short"
                    .to_string()
            )
        );
        many.domains.pop();
        assert_eq!(many.validate(), Ok(()));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(RebootStrategy::Warm.to_string(), "warm");
        assert_eq!(RebootStrategy::Saved.to_string(), "saved");
        assert_eq!(RebootStrategy::Cold.to_string(), "cold");
        assert_eq!(RebootStrategy::Streamed.to_string(), "streamed");
        assert_eq!(RebootStrategy::Incremental.to_string(), "incremental");
    }

    #[test]
    fn strategy_display_matches_obs_kind() {
        for s in RebootStrategy::ALL {
            let kind: rh_obs::StrategyKind = s.into();
            assert_eq!(s.to_string(), kind.name(), "{s:?}");
        }
    }

    #[test]
    fn streaming_knob_defaults_and_clamps() {
        let c = HostConfig::paper_testbed();
        assert!((c.stream_working_set - 0.15).abs() < 1e-12);
        assert!((c.stream_locality - 0.9).abs() < 1e-12);
        assert_eq!(c.snapshot_interval, None);

        let c = c
            .with_stream_locality(-0.5)
            .with_snapshot_interval(Some(SimDuration::from_secs(120)));
        assert_eq!(c.stream_locality, 0.0);
        assert_eq!(c.snapshot_interval, Some(SimDuration::from_secs(120)));
    }
}
