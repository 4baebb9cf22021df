//! The simulated host: VMM + domains + disk + CPU + network + clients.
//!
//! [`Host`] implements [`rh_sim::World`] and drives, event by event, every
//! [`RebootStrategy`] through one pipeline, [`Host::reboot`]. A strategy
//! is data: one value on each of three axes, after the paper's §3
//! decomposition (suspend → reload → resume), and each step of the
//! pipeline reads one axis:
//!
//! | strategy    | image     | reload | resume   |
//! |-------------|-----------|--------|----------|
//! | warm        | InPlace   | Quick  | Attach   |
//! | saved       | DiskFull  | Reset  | Restore  |
//! | cold        | Dropped   | Reset  | Boot     |
//! | streamed    | DiskFull  | Reset  | StreamIn |
//! | incremental | DiskDelta | Reset  | Restore  |
//!
//! * **image** — where each guest's memory goes. `InPlace` suspends it on
//!   memory after dom0 has shut down (RootHammer ordering; the
//!   [`SuspendOrder`] ablation suspends during dom0's shutdown). The disk
//!   images suspend while dom0 is still up, write the frozen image — in
//!   full, or only the extents dirtied since the last delta snapshot —
//!   and shut dom0 down after the saves. `Dropped` shuts the guests down
//!   during dom0's shutdown. Driver domains cannot be suspended (§7), so
//!   they shut down under every strategy.
//! * **reload** — how the VMM restarts once dom0 is down and every guest
//!   has stopped: `Quick` stages the next VMM with xexec at the command
//!   and quick-reloads it, skipping frozen memory; `Reset` pulls the
//!   hardware reset and boots the VMM.
//! * **resume** — how each domain comes back after dom0 boots: `Attach`
//!   resumes the frozen image, `Restore` reads the saved image back,
//!   `StreamIn` reads only its working set and streams the rest in behind
//!   the running guest, `Boot` creates and boots a fresh guest. Restores
//!   run one domain at a time. A domain with no kept image comes back
//!   cold.
//!
//! Every timing result in the paper's §5 is produced by driving this world:
//! downtime meters record service outages, a [`Timeline`] records the
//! Fig. 7 phase breakdown, the httperf client records the throughput
//! traces, and memory-image captures verify (not assume!) image
//! preservation: each memory-preserving reboot captures every guest's
//! logical image at freeze and compares a re-capture at resume, falling
//! back to full digests only when the two captures differ.
//!
//! The host runs on `rh_sim`'s one event core, which cannot cancel an
//! event. Its only cancellable events are the disk, CPU and network
//! wake-ups: each carries the generation of its [`Retick`], and
//! [`World::is_live`] reports a wake that has since moved as stale, so the
//! simulation drops it unfired. Reboot steps carry the host epoch instead
//! and are dropped in `handle` (see [`HostEvent::Reboot`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use rh_guest::boot::{
    linux_guest_boot, linux_guest_shutdown, resume_handler, suspend_handler, WorkProfile,
};
use rh_memory::contents::FrameContents;
use rh_memory::frame::frames_for_bytes;
use rh_net::downtime::{DowntimeMeter, ProbeLog};
use rh_net::httperf::HttperfClient;
use rh_obs::{Event, EventLog, Metrics, Phase, RecoveryKind, Timeline};
use rh_sim::engine::{Scheduler, World};
use rh_sim::histogram::LatencyHistogram;
use rh_sim::resource::{JobId, PsResource, Retick};
use rh_sim::rng::SimRng;
use rh_sim::time::{SimDuration, SimTime};
use rh_storage::disk::{Disk, IoKind};
use rh_storage::image::{dirty_extent_bytes, DeltaChain, MemoryImage};
use rh_storage::partition::{PartitionId, PartitionTable};

use crate::config::{HostConfig, Image, RebootStrategy, Reload, Resume, SuspendOrder};
use crate::domain::{Domain, DomainId, ExecState};
use crate::fault::{FaultAction, FaultContext, FaultHook, InjectPoint};
use crate::idmap::IdMap;
use crate::timing::TimingParams;
use crate::vmm::{Vmm, VmmError};

/// Events of the host world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// The shared disk may have completed transfers. Carries the
    /// generation of the disk's [`Retick`]; a wake that moved is stale.
    DiskWake(u64),
    /// The shared CPU pool may have completed work (generation-tagged
    /// like [`HostEvent::DiskWake`]).
    CpuWake(u64),
    /// The network may have completed transfers (generation-tagged like
    /// [`HostEvent::DiskWake`]).
    NetWake(u64),
    /// A lifecycle operation's fixed-latency part elapsed.
    WorkFixedDone(DomainId, WorkTag),
    /// A step of the VMM reboot sequence, tagged with the host epoch that
    /// scheduled it. A crash mid-reboot bumps the epoch; queued steps from
    /// the interrupted run arrive with a stale tag and are dropped.
    Reboot(RebootStep, u64),
    /// Issue httperf requests for free workers.
    HttperfKick,
    /// Send a round of liveness probes.
    ProbeTick,
    /// A guest's dirty-page writer fires.
    DirtyTick(DomainId),
    /// Periodic background delta snapshot (incremental strategy).
    SnapshotTick,
}

/// Lifecycle operations that flow through the work pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkTag {
    /// Guest OS boot.
    BootOs,
    /// Guest OS shutdown (includes clean service stop).
    ShutdownOs,
    /// The in-guest suspend handler.
    SuspendHandler,
    /// The in-guest resume handler.
    ResumeHandler,
    /// Service start after boot.
    StartService,
}

/// Steps of a VMM reboot sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebootStep {
    /// Cold path: guests begin shutting down.
    GuestsStop,
    /// Domain 0 finished its shutdown scripts.
    Dom0ShutdownDone,
    /// The new VMM instance is up (quick reload path).
    QuickReloadDone,
    /// The hardware reset (BIOS POST + SCSI init) completed.
    HwResetDone,
    /// The VMM initialized after a hardware reset.
    VmmBootDone,
    /// Domain 0 finished booting.
    Dom0BootDone,
    /// Serialized per-domain setup (create/resume/restore) slot.
    NextDomainSetup,
    /// Single-domain OS rejuvenation: create + boot after shutdown.
    SingleSetup(DomainId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskPurpose {
    Work(DomainId),
    SaveImage(DomainId),
    RestoreImage(DomainId),
    RequestMiss(u64),
    FileRead(DomainId),
    /// Background post-copy fault-in of a streamed domain's residual image.
    StreamIn(DomainId),
    /// Background delta-snapshot write (incremental strategy).
    SnapshotDelta(DomainId),
}

#[derive(Debug, Clone, Copy)]
struct WorkState {
    tag: WorkTag,
    profile: WorkProfile,
}

/// Outcome of one fault-hook consultation (see [`Host`]'s `inject`).
#[derive(Debug, Clone, Copy, Default)]
struct Injected {
    crashed: bool,
    fail_resume: bool,
    dom0_extra: SimDuration,
}

#[derive(Debug)]
struct RebootRun {
    strategy: RebootStrategy,
    commanded_at: SimTime,
    dom0_shutdown_done: bool,
    reset_started: bool,
    /// True for runs driven by crash recovery (micro-reboot or cold): a
    /// domain that fails validation falls back to a cold boot (with bounded
    /// retries) instead of being resumed corrupted or abandoned.
    recovery: bool,
    pending_stops: BTreeSet<DomainId>,
    setup_queue: VecDeque<DomainId>,
    pending_setup: BTreeSet<DomainId>,
    /// Each frozen domain's memory image, captured at freeze; resume
    /// verifies the domain against it (see `Host::verify_preserved`).
    frozen: BTreeMap<DomainId, MemoryImage>,
    /// Domains that resumed with memory other than their frozen image.
    corrupted: BTreeSet<DomainId>,
    /// Domains that lost their frozen image and were (or will be) rebuilt
    /// from scratch during this run.
    cold_fallbacks: BTreeSet<DomainId>,
    /// Per-domain cold-boot retry counts (recovery runs only).
    retries: BTreeMap<DomainId, u32>,
}

impl RebootRun {
    fn new(strategy: RebootStrategy, commanded_at: SimTime) -> Self {
        RebootRun {
            strategy,
            commanded_at,
            dom0_shutdown_done: false,
            reset_started: false,
            recovery: false,
            pending_stops: BTreeSet::new(),
            setup_queue: VecDeque::new(),
            pending_setup: BTreeSet::new(),
            frozen: BTreeMap::new(),
            corrupted: BTreeSet::new(),
            cold_fallbacks: BTreeSet::new(),
            retries: BTreeMap::new(),
        }
    }
}

/// A completed reboot, summarized.
#[derive(Debug, Clone)]
pub struct RebootReport {
    /// Strategy used.
    pub strategy: RebootStrategy,
    /// When the reboot command was issued.
    pub commanded_at: SimTime,
    /// When the last domain came back up.
    pub completed_at: SimTime,
    /// Per-domain service outage across this reboot.
    pub downtime: BTreeMap<DomainId, SimDuration>,
    /// Domains whose post-reboot memory did not match the image frozen at
    /// suspend (must be empty for warm and saved reboots).
    pub corrupted: Vec<DomainId>,
    /// Domains that lost their memory image during this reboot and came
    /// back via a cold boot (driver domains on the warm path, and recovery
    /// fallbacks after a VMM failure).
    pub cold_booted: Vec<DomainId>,
}

impl RebootReport {
    /// Mean per-domain downtime.
    pub fn mean_downtime(&self) -> SimDuration {
        if self.downtime.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.downtime.values().copied().sum();
        total / self.downtime.len() as u64
    }

    /// Maximum per-domain downtime.
    pub fn max_downtime(&self) -> SimDuration {
        self.downtime
            .values()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[derive(Debug, Clone)]
struct SavedDomain {
    image: MemoryImage,
    exec: ExecState,
    snapshot: Domain,
}

/// A background delta snapshot whose disk write is in flight.
#[derive(Debug, Clone)]
struct PendingSnapshot {
    image: MemoryImage,
    bytes: u64,
    contents_epoch: u64,
    p2m_epoch: u64,
    /// True when this is a full (re)base rather than a delta on an
    /// existing chain.
    full: bool,
}

#[derive(Debug, Clone, Copy)]
struct Request {
    dom: DomainId,
    bytes: u64,
    issued: SimTime,
}

/// One completed in-guest file read (the Fig. 8a workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileReadResult {
    /// Domain that read.
    pub dom: DomainId,
    /// Read start.
    pub start: SimTime,
    /// Read end.
    pub end: SimTime,
    /// Bytes read.
    pub bytes: u64,
}

impl FileReadResult {
    /// Observed throughput in bytes/second.
    pub fn throughput_bps(&self) -> f64 {
        self.bytes as f64 / (self.end - self.start).as_secs_f64()
    }
}

/// The simulated host.
#[derive(Debug)]
pub struct Host {
    cfg: HostConfig,
    t: TimingParams,
    vmm: Vmm,
    contents: FrameContents,
    domains: BTreeMap<DomainId, Domain>,
    disk: Disk,
    disk_wake: Retick,
    cpu: PsResource,
    cpu_wake: Retick,
    net: PsResource,
    net_wake: Retick,
    disk_jobs: IdMap<JobId, DiskPurpose>,
    cpu_jobs: IdMap<JobId, DomainId>,
    net_jobs: IdMap<JobId, u64>,
    work: BTreeMap<DomainId, WorkState>,
    run: Option<RebootRun>,
    saved: BTreeMap<DomainId, SavedDomain>,
    /// Domains resumed from a partial (working-set) restore whose residual
    /// image is still streaming in from disk — served degraded meanwhile.
    streaming: BTreeSet<DomainId>,
    /// Per-domain incremental snapshot chains (consolidated image + write
    /// ledger).
    delta_chains: BTreeMap<DomainId, DeltaChain>,
    /// Delta snapshots whose disk write has not completed yet.
    pending_snapshots: BTreeMap<DomainId, PendingSnapshot>,
    meters: BTreeMap<DomainId, DowntimeMeter>,
    probes: BTreeMap<DomainId, ProbeLog>,
    httperf: Option<(DomainId, HttperfClient)>,
    requests: IdMap<u64, Request>,
    next_req: u64,
    /// Pending guest file reads: start, logical bytes, and the memory-copy
    /// tail still owed after any disk stage (zero on the cache-miss path).
    file_reads: BTreeMap<DomainId, (SimTime, u64, SimDuration)>,
    file_read_results: Vec<FileReadResult>,
    /// Phase timeline of the most recent reboot (Fig. 7 data).
    pub metrics: Timeline,
    /// Typed structured event trace.
    pub trace: EventLog,
    /// Counters and timers accumulated across the host's whole life
    /// (reboot counts per strategy, per-strategy duration histograms,
    /// guest suspend/resume tallies, fault and recovery tallies).
    pub stats: Metrics,
    reports: Vec<RebootReport>,
    errors: Vec<VmmError>,
    single_rejuvs: BTreeSet<DomainId>,
    latencies: LatencyHistogram,
    dirty_writers: BTreeMap<DomainId, (u64, SimDuration)>,
    rng: SimRng,
    partitions: PartitionTable,
    partition_of: BTreeMap<DomainId, PartitionId>,
    aging_clock: BTreeMap<DomainId, SimTime>,
    hook: Option<Box<dyn FaultHook>>,
    /// Bumped whenever a crash abandons an in-flight reboot; scheduled
    /// `Reboot` events carry the epoch they were created under and stale
    /// ones are dropped.
    epoch: u64,
    last_fault_at: Option<SimTime>,
}

impl Host {
    /// Builds a host from `cfg`. Call [`power_on`](Self::power_on) to bring
    /// it up.
    pub fn new(cfg: HostConfig) -> Self {
        let t = cfg.timing.clone();
        let vmm = Vmm::new(frames_for_bytes(cfg.ram_bytes));
        let mut domains = BTreeMap::new();
        // Domain 0: 512 MB, no service (paper §5).
        let dom0_spec = crate::domain::DomainSpec {
            name: "dom0".to_string(),
            mem_bytes: 512 << 20,
            service: None,
            files: None,
            driver_domain: false,
            backend: None,
        };
        domains.insert(DomainId::DOM0, Domain::new(DomainId::DOM0, dom0_spec, 0));
        let mut meters = BTreeMap::new();
        let mut probes = BTreeMap::new();
        for (i, spec) in cfg.domains.iter().enumerate() {
            let id = DomainId(i as u32 + 1);
            let mut dom = Domain::new(id, spec.clone(), 0);
            if cfg.guest_aging {
                dom.aging = Some(rh_guest::aging::GuestAging::typical_2007_linux());
            }
            domains.insert(id, dom);
            meters.insert(id, DowntimeMeter::new());
            probes.insert(id, ProbeLog::new(t.probe_interval));
        }
        let trace = if cfg.trace {
            EventLog::new()
        } else {
            EventLog::disabled()
        };
        // One physical partition per VM on the 36.7 GB disk (paper §5).
        let mut partitions = PartitionTable::new(36_700_000_000);
        let mut partition_of = BTreeMap::new();
        let slice = 36_700_000_000 / (cfg.domains.len() as u64 + 1).max(1);
        for i in 0..cfg.domains.len() {
            let id = DomainId(i as u32 + 1);
            if let Ok(pid) = partitions.create(slice) {
                partition_of.insert(id, pid);
            }
        }
        Host {
            disk: Disk::new(t.disk),
            cpu: PsResource::new(t.cpu_cores),
            net: PsResource::new(t.net_bandwidth_bps),
            t,
            vmm,
            contents: FrameContents::new(),
            domains,
            disk_wake: Retick::new(),
            cpu_wake: Retick::new(),
            net_wake: Retick::new(),
            disk_jobs: IdMap::new(),
            cpu_jobs: IdMap::new(),
            net_jobs: IdMap::new(),
            work: BTreeMap::new(),
            run: None,
            saved: BTreeMap::new(),
            streaming: BTreeSet::new(),
            delta_chains: BTreeMap::new(),
            pending_snapshots: BTreeMap::new(),
            meters,
            probes,
            httperf: None,
            requests: IdMap::new(),
            next_req: 0,
            file_reads: BTreeMap::new(),
            file_read_results: Vec::new(),
            metrics: Timeline::new(),
            trace,
            stats: Metrics::new(),
            reports: Vec::new(),
            errors: Vec::new(),
            single_rejuvs: BTreeSet::new(),
            latencies: LatencyHistogram::new(),
            dirty_writers: BTreeMap::new(),
            rng: SimRng::from_seed(cfg.seed),
            partitions,
            partition_of,
            aging_clock: BTreeMap::new(),
            hook: None,
            epoch: 0,
            last_fault_at: None,
            cfg,
        }
    }

    /// Arms a fault-injection hook; the host consults it at every
    /// [`InjectPoint`]. With no hook armed the host behaves byte-identically
    /// to one built before fault injection existed.
    pub fn arm_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.hook = Some(hook);
    }

    /// Disarms the fault hook, returning it (to read hit counters).
    pub fn disarm_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.hook.take()
    }

    /// When the last injected VMM failure struck, if any.
    pub fn last_fault_at(&self) -> Option<SimTime> {
        self.last_fault_at
    }

    /// Schedules a reboot step tagged with the current host epoch.
    fn sched_reboot(&self, sched: &mut Scheduler<HostEvent>, delay: SimDuration, step: RebootStep) {
        sched.schedule_in(delay, HostEvent::Reboot(step, self.epoch));
    }

    /// Opens `phase` on the Fig. 7 timeline and mirrors the transition
    /// into the event trace.
    fn phase_begin(&mut self, at: SimTime, phase: Phase) {
        self.metrics.begin(at, phase);
        self.trace.emit(at, Event::PhaseBegin(phase));
    }

    /// Closes `phase` on the timeline and mirrors the transition into the
    /// event trace.
    fn phase_end(&mut self, at: SimTime, phase: Phase) {
        self.metrics.end(at, phase);
        self.trace.emit(at, Event::PhaseEnd(phase));
    }

    /// Closes `phase` if it is open; the end event is emitted only when a
    /// span was actually closed.
    fn phase_end_if_open(&mut self, at: SimTime, phase: Phase) {
        if self.metrics.end_if_open(at, phase) {
            self.trace.emit(at, Event::PhaseEnd(phase));
        }
    }

    /// Consults the armed fault hook (if any) at `point` and applies the
    /// actions it returns. With no hook armed this is a single `Option`
    /// check. Corruption actions apply immediately; `CrashVmm` tears the
    /// VMM down via [`fault_vmm_crash`](Self::fault_vmm_crash) and the
    /// caller must stop its pipeline step when `crashed` comes back true.
    fn inject(
        &mut self,
        sched: &mut Scheduler<HostEvent>,
        point: InjectPoint,
        domain: Option<DomainId>,
    ) -> Injected {
        let mut out = Injected::default();
        let Some(mut hook) = self.hook.take() else {
            return out;
        };
        let ctx = FaultContext {
            now: sched.now(),
            domain,
        };
        let actions = hook.consult(point, &ctx);
        self.hook = Some(hook);
        for action in actions {
            match action {
                FaultAction::CrashVmm => out.crashed = true,
                FaultAction::CorruptStagedImage { xor } => {
                    if self.vmm.xexec_mut().corrupt_staged_with(xor) {
                        self.stats.inc("fault.injected");
                        self.trace.emit(sched.now(), Event::StagedImageCorrupted);
                    }
                }
                FaultAction::CorruptP2m { dom, extent, xor } => {
                    if let Some(d) = self.domains.get_mut(&dom) {
                        if d.p2m.corrupt_extent(extent, xor) {
                            self.stats.inc("fault.injected");
                            self.trace
                                .emit(sched.now(), Event::P2mCorrupted(dom.into()));
                        }
                    }
                }
                FaultAction::CorruptFrame { dom, page, xor } => {
                    let Some(d) = self.domains.get(&dom) else {
                        continue;
                    };
                    let total = d.p2m.total_pages();
                    if total == 0 {
                        continue;
                    }
                    let pfn = rh_memory::frame::Pfn(page % total);
                    if let Some(mfn) = d.p2m.lookup(pfn) {
                        self.contents.corrupt(mfn, xor);
                        self.stats.inc("fault.injected");
                        self.trace.emit(
                            sched.now(),
                            Event::FrameCorrupted {
                                dom: dom.into(),
                                pfn: pfn.0,
                            },
                        );
                    }
                }
                FaultAction::DropExecState { dom } => {
                    let Some(mut d) = self.domains.remove(&dom) else {
                        continue;
                    };
                    d.exec_state = None;
                    if let Err(e) = self.vmm.release_domain_memory(&mut d, &mut self.contents) {
                        self.errors.push(e);
                    }
                    self.domains.insert(dom, d);
                    self.stats.inc("fault.injected");
                    self.trace
                        .emit(sched.now(), Event::ExecStateLost(dom.into()));
                }
                FaultAction::FailResume { dom } => {
                    if domain == Some(dom) {
                        out.fail_resume = true;
                    }
                }
                FaultAction::HangDom0 { extra_ms } => {
                    out.dom0_extra += SimDuration::from_millis(extra_ms);
                }
            }
        }
        if out.crashed {
            self.fault_vmm_crash(sched);
        }
        out
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Mutable access to domain 0.
    ///
    /// # Panics
    ///
    /// Panics if domain 0 is missing — it is inserted in [`Host::new`] and
    /// never removed, so that indicates a corrupted host.
    fn dom0_mut(&mut self) -> &mut Domain {
        self.domains
            .get_mut(&DomainId::DOM0)
            // lint:allow(unwrap-panic): dom0 is inserted in new() and never removed
            .expect("dom0 exists")
    }

    /// Mutable access to the domain `id`, which the work pipeline has
    /// already validated.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id — the work pipeline only queues operations
    /// for live domains, so that indicates a sequencing bug.
    fn dom_mut(&mut self, id: DomainId) -> &mut Domain {
        self.domains
            .get_mut(&id)
            // lint:allow(unwrap-panic): the work pipeline only queues ops for live domains
            .expect("domain exists")
    }

    /// Mutable access to the in-flight reboot run.
    ///
    /// # Panics
    ///
    /// Panics when no reboot is in progress — run-phase handlers are only
    /// dispatched while `self.run` is populated.
    fn run_mut(&mut self) -> &mut RebootRun {
        self.run
            .as_mut()
            // lint:allow(unwrap-panic): run-phase handlers only fire while a run is active
            .expect("run active")
    }

    /// The configuration this host was built from.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// The VMM.
    pub fn vmm(&self) -> &Vmm {
        &self.vmm
    }

    /// Mutable VMM access (aging injection).
    pub fn vmm_mut(&mut self) -> &mut Vmm {
        &mut self.vmm
    }

    /// All domains (including dom0).
    pub fn domains(&self) -> &BTreeMap<DomainId, Domain> {
        &self.domains
    }

    /// One domain.
    pub fn domain(&self, id: DomainId) -> Option<&Domain> {
        self.domains.get(&id)
    }

    /// Mutable access to one domain (experiment setup, e.g. cache warming).
    pub fn domain_mut(&mut self, id: DomainId) -> Option<&mut Domain> {
        self.domains.get_mut(&id)
    }

    /// Ids of all domain Us, ascending.
    pub fn domu_ids(&self) -> Vec<DomainId> {
        self.domains
            .keys()
            .copied()
            .filter(|d| !d.is_dom0())
            .collect()
    }

    /// The exact downtime meter of a domain U.
    pub fn meter(&self, id: DomainId) -> Option<&DowntimeMeter> {
        self.meters.get(&id)
    }

    /// The sampled probe log of a domain U.
    pub fn probe_log(&self, id: DomainId) -> Option<&ProbeLog> {
        self.probes.get(&id)
    }

    /// Completed reboot reports, oldest first.
    pub fn reports(&self) -> &[RebootReport] {
        &self.reports
    }

    /// The most recent reboot report.
    pub fn last_report(&self) -> Option<&RebootReport> {
        self.reports.last()
    }

    /// Errors the VMM raised (heap exhaustion under aging, ...).
    pub fn errors(&self) -> &[VmmError] {
        &self.errors
    }

    /// Completed file-read measurements.
    pub fn file_read_results(&self) -> &[FileReadResult] {
        &self.file_read_results
    }

    /// The httperf client, if attached.
    pub fn httperf(&self) -> Option<&HttperfClient> {
        self.httperf.as_ref().map(|(_, c)| c)
    }

    /// The shared physical disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// True when every configured domain U is up and serving.
    pub fn all_services_up(&self) -> bool {
        self.vmm.is_running()
            && self
                .domains
                .values()
                .filter(|d| !d.id.is_dom0())
                .all(|d| d.service_up())
    }

    /// True while a VMM reboot is in progress.
    pub fn reboot_in_progress(&self) -> bool {
        self.run.is_some()
    }

    /// Domains whose residual image is still streaming in from disk after
    /// a streamed (post-copy) resume.
    pub fn streaming_domains(&self) -> &BTreeSet<DomainId> {
        &self.streaming
    }

    /// A domain's incremental snapshot chain, if one has been based.
    pub fn delta_chain(&self, id: DomainId) -> Option<&DeltaChain> {
        self.delta_chains.get(&id)
    }

    /// True while any background delta-snapshot write is in flight.
    pub fn snapshot_in_flight(&self) -> bool {
        !self.pending_snapshots.is_empty()
    }

    /// Digest of a domain's current memory image.
    pub fn domain_digest(&self, id: DomainId) -> Option<u64> {
        self.domains
            .get(&id)
            .map(|d| self.vmm.domain_digest(d, &self.contents))
    }

    /// Histogram of completed web-request latencies.
    pub fn request_latencies(&self) -> &LatencyHistogram {
        &self.latencies
    }

    /// The disk partition table (one slice per VM, paper §5).
    pub fn partitions(&self) -> &PartitionTable {
        &self.partitions
    }

    /// The partition backing a domain's virtual disk.
    pub fn partition_of(&self, id: DomainId) -> Option<PartitionId> {
        self.partition_of.get(&id).copied()
    }

    /// Advances a domain's OS aging to `now` (uptime wear + one served
    /// request) and returns the current service-time multiplier.
    fn aging_slowdown(&mut self, id: DomainId, now: SimTime) -> f64 {
        let Some(dom) = self.domains.get_mut(&id) else {
            return 1.0;
        };
        let Some(aging) = dom.aging.as_mut() else {
            return 1.0;
        };
        let last = self.aging_clock.get(&id).copied().unwrap_or(now);
        if now > last {
            aging.advance(now - last);
        }
        aging.on_requests(1);
        self.aging_clock.insert(id, now);
        aging.service_slowdown()
    }

    fn account_read(&mut self, id: DomainId, bytes: f64) {
        if let Some(pid) = self.partition_of.get(&id) {
            let _ = self.partitions.record_read(*pid, bytes);
        }
    }

    /// Starts a dirty-page writer inside a guest: every `interval`,
    /// `pages_per_tick` random pages of the domain are overwritten. This
    /// models a working set that mutates continuously — the state the
    /// warm-VM reboot must carry across intact (and the load a pre-copy
    /// migration would have to chase).
    ///
    /// # Panics
    ///
    /// Panics if the domain is unknown or a writer is already attached.
    pub fn start_dirty_writer(
        &mut self,
        sched: &mut Scheduler<HostEvent>,
        id: DomainId,
        pages_per_tick: u64,
        interval: SimDuration,
    ) {
        assert!(self.domains.contains_key(&id), "unknown domain {id}");
        let prev = self.dirty_writers.insert(id, (pages_per_tick, interval));
        assert!(prev.is_none(), "{id} already has a dirty writer");
        sched.schedule_in(interval, HostEvent::DirtyTick(id));
    }

    /// Stops a domain's dirty-page writer.
    pub fn stop_dirty_writer(&mut self, id: DomainId) {
        self.dirty_writers.remove(&id);
    }

    fn on_dirty_tick(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some(&(pages, interval)) = self.dirty_writers.get(&id) else {
            return; // writer stopped; stale event
        };
        // Only a *running* kernel dirties memory; a frozen or rebooting
        // guest must not (that would falsify the preservation digests).
        if let Some(dom) = self.domains.get_mut(&id) {
            if dom.kernel.is_running() {
                let total = dom.p2m.total_pages();
                if total > 0 {
                    for _ in 0..pages {
                        let pfn = rh_memory::frame::Pfn(self.rng.below(total));
                        if let Some(mfn) = dom.p2m.lookup(pfn) {
                            self.contents.write(mfn, self.rng.next_u64());
                        }
                    }
                }
            }
        }
        sched.schedule_in(interval, HostEvent::DirtyTick(id));
    }

    fn observable_up(&self, id: DomainId) -> bool {
        if !self.vmm.is_running() {
            return false;
        }
        let Some(dom) = self.domains.get(&id) else {
            return false;
        };
        if !dom.service_up() {
            return false;
        }
        // I/O flows through the backend domain's drivers (§7): a guest
        // behind a down driver domain is unreachable.
        match dom.spec.backend {
            Some(b) => self
                .domains
                .get(&DomainId(b))
                .map(|d| d.kernel.is_running())
                .unwrap_or(false),
            None => true,
        }
    }

    fn refresh(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        if id.is_dom0() {
            return;
        }
        // A backend's state change changes its dependents' reachability.
        let dependents: Vec<DomainId> = self
            .domains
            .values()
            .filter(|d| d.spec.backend == Some(id.0))
            .map(|d| d.id)
            .collect();
        for dep in dependents {
            self.refresh_one(sched, dep);
        }
        self.refresh_one(sched, id);
    }

    fn refresh_one(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let up = self.observable_up(id);
        let was_up = self.meters.get(&id).map(|m| m.is_up()).unwrap_or(false);
        if let Some(m) = self.meters.get_mut(&id) {
            if up {
                m.mark_up(sched.now());
            } else {
                m.mark_down(sched.now());
            }
        }
        if up && !was_up {
            if let Some((dom, _)) = &self.httperf {
                if *dom == id {
                    sched.schedule_in(SimDuration::ZERO, HostEvent::HttperfKick);
                }
            }
        }
        if !up && was_up {
            self.abort_requests_for(sched, id);
        }
    }

    // ------------------------------------------------------------------
    // Bring-up and reboots (public commands)
    // ------------------------------------------------------------------

    /// Powers the host on: dom0 boots, then every guest is created, booted
    /// and its service started. Run the simulation until
    /// [`all_services_up`](Self::all_services_up).
    pub fn power_on(&mut self, sched: &mut Scheduler<HostEvent>) {
        assert!(self.run.is_none(), "already powering on or rebooting");
        self.trace.emit(sched.now(), Event::PowerOn);
        if self.dom0_mut().kernel.begin_boot().is_err() {
            // dom0 is not off: a repeated power-on. Record and refuse
            // rather than panicking.
            self.errors.push(VmmError::BadDomainState(
                DomainId::DOM0,
                "dom0 not off at power on",
            ));
            return;
        }
        let mut run = RebootRun::new(RebootStrategy::Cold, sched.now());
        run.dom0_shutdown_done = true;
        run.reset_started = true;
        self.run = Some(run);
        self.phase_begin(sched.now(), Phase::Dom0Boot);
        self.sched_reboot(sched, self.t.dom0_boot, RebootStep::Dom0BootDone);
        if self.cfg.probes {
            sched.schedule_in(self.t.probe_interval, HostEvent::ProbeTick);
        }
        if let Some(interval) = self.cfg.snapshot_interval {
            sched.schedule_in(interval, HostEvent::SnapshotTick);
        }
    }

    /// Initiates a VMM reboot with `strategy`, along its three axes (see
    /// the module docs). A `Quick` reload first stages the next VMM with
    /// xexec while everything still runs. Disk images are then saved while
    /// dom0 is still up; otherwise dom0 starts shutting down at once.
    ///
    /// # Panics
    ///
    /// Panics if a reboot is already in progress.
    pub fn reboot(&mut self, sched: &mut Scheduler<HostEvent>, strategy: RebootStrategy) {
        assert!(self.run.is_none(), "reboot already in progress");
        let now = sched.now();
        self.trace
            .emit(now, Event::RebootCommanded(strategy.into()));
        self.stats.inc(&format!("reboot.commanded.{strategy}"));
        self.metrics.clear();
        self.phase_begin(now, Phase::Reboot);
        self.run = Some(RebootRun::new(strategy, now));
        if strategy.reload() == Reload::Quick {
            // xexec: load the new VMM executable while everything still
            // runs; its end event is recorded eagerly with its completion
            // timestamp.
            self.phase_begin(now, Phase::XexecLoad);
            self.phase_end(now + self.t.xexec_load, Phase::XexecLoad);
            let next_version = self.vmm.running_version() + 1;
            self.vmm
                .stage_next_image(crate::xexec::XexecImage::build(next_version));
            self.trace.emit(
                now,
                Event::XexecStaged {
                    version: u64::from(next_version),
                },
            );
            if self.inject(sched, InjectPoint::StageImage, None).crashed {
                return;
            }
        }
        let image = strategy.image();
        if image.on_disk() {
            // Original Xen: dom0 suspends and saves every guest while it is
            // still up; its own shutdown comes after the saves.
            self.phase_begin(now, Phase::Save);
            self.begin_guest_stops(sched);
            return;
        }
        if self.dom0_mut().kernel.begin_shutdown().is_err() {
            // dom0 was not running: abandon the reboot instead of panicking.
            self.errors.push(VmmError::BadDomainState(
                DomainId::DOM0,
                "dom0 not running at reboot",
            ));
            self.run = None;
            return;
        }
        self.phase_begin(now, Phase::Dom0Shutdown);
        self.sched_reboot(sched, self.t.dom0_shutdown, RebootStep::Dom0ShutdownDone);
        if image == Image::Dropped || self.cfg.suspend_order == SuspendOrder::Dom0DuringShutdown {
            // The guests stop while dom0 is still shutting down: a cold
            // reboot's shutdowns, or the original-Xen ordering ablation.
            self.sched_reboot(sched, self.t.cold_guest_stop_delay, RebootStep::GuestsStop);
        }
    }

    /// Crashes the VMM — the aging failure the paper's proactive
    /// rejuvenation exists to preempt (§2: out-of-memory errors "can lead
    /// \[to\] performance degradation or crash failure of the VMM. Such
    /// problems of the VMM directly affect all the VMs").
    ///
    /// Every guest dies with it; recovery is reactive: a hardware reset
    /// followed by a full cold boot, driven automatically. A
    /// [`RebootReport`] with `strategy == Cold` is pushed when the host is
    /// back up.
    ///
    /// A crash may land while a reboot is already in progress: the
    /// interrupted run is abandoned and its queued steps are cancelled (the
    /// epoch bump makes them arrive stale), then the usual reactive cold
    /// recovery takes over.
    pub fn crash_vmm(&mut self, sched: &mut Scheduler<HostEvent>) {
        let now = sched.now();
        self.trace.emit(now, Event::VmmCrashed);
        self.stats.inc("fault.vmm_crash");
        self.metrics.clear();
        self.phase_begin(now, Phase::Reboot);
        self.kill_domains();
        self.vmm_died(sched);
        // Reactive recovery: watchdog-initiated hardware reset, then the
        // ordinary cold bring-up. The reset wipes the crashed domains'
        // memory wholesale.
        let mut run = RebootRun::new(RebootStrategy::Cold, now);
        run.dom0_shutdown_done = true;
        self.run = Some(run);
        self.maybe_start_reload(sched);
    }

    /// An unplanned VMM failure (the fault-injection path): the VMM dies in
    /// place and *nothing* is driven automatically. Guest kernels are left
    /// frozen where they sit — their memory images, P2M tables and exec
    /// state survive in RAM exactly as at the instant of failure — while
    /// every service becomes unreachable (the meters go down). A recovery
    /// engine must notice ([`Vmm::is_running`] false with
    /// [`reboot_in_progress`](Self::reboot_in_progress) false) and command
    /// [`recover_microreboot`](Self::recover_microreboot) or
    /// [`recover_cold`](Self::recover_cold).
    ///
    /// Safe to call at any instant, including mid-reboot: the interrupted
    /// run is abandoned and its queued steps cancelled via the epoch bump.
    pub fn fault_vmm_crash(&mut self, sched: &mut Scheduler<HostEvent>) {
        let now = sched.now();
        self.last_fault_at = Some(now);
        self.trace.emit(now, Event::VmmFailed);
        self.stats.inc("fault.vmm_failed");
        // In-flight work and I/O stall with the VMM; the frozen guests do
        // not execute, so nothing completes.
        self.vmm_died(sched);
    }

    /// Everything running dies instantly: no clean shutdowns, no suspend
    /// handlers, no flushed caches.
    fn kill_domains(&mut self) {
        for dom in self.domains.values_mut() {
            if let Some(svc) = dom.service.as_mut() {
                svc.kill();
            }
            dom.kernel.crash();
        }
    }

    /// The VMM goes down mid-flight. Any in-flight run is cancelled: the
    /// epoch bump makes its queued `Reboot` events arrive stale. In-flight
    /// work, I/O, requests (whose httperf workers are freed), file reads,
    /// streams, delta snapshots and single-domain rejuvenations die with
    /// it; delta chains survive on disk but go stale at the next restore.
    /// Every domain then reads as down.
    fn vmm_died(&mut self, sched: &mut Scheduler<HostEvent>) {
        let now = sched.now();
        self.epoch = self.epoch.wrapping_add(1);
        self.run = None;
        self.vmm.set_down();
        self.work.clear();
        self.disk.cancel_all(now);
        self.disk_jobs.clear();
        self.cpu.cancel_all(now);
        self.cpu_jobs.clear();
        self.net.cancel_all(now);
        self.net_jobs.clear();
        self.rearm_disk(sched);
        self.rearm_cpu(sched);
        self.rearm_net(sched);
        if let Some((_, client)) = self.httperf.as_mut() {
            for _ in self.requests.iter() {
                client.abort();
            }
        }
        self.requests.clear();
        self.file_reads.clear();
        self.streaming.clear();
        self.pending_snapshots.clear();
        self.single_rejuvs.clear();
        let ids: Vec<DomainId> = self.domains.keys().copied().collect();
        for id in ids {
            self.refresh(sched, id);
        }
    }

    /// ReHype-style recovery (Le & Tamir): micro-reboot the failed VMM via
    /// quick reload and salvage every domain whose memory image is still
    /// coherent. Domains caught mid-transition (booting, shutting down,
    /// resuming) or already dead are unsalvageable and fall back to a cold
    /// boot; so does any salvaged domain whose post-resume digest fails
    /// validation. Completion pushes a [`RebootReport`] whose
    /// `cold_booted` lists the fallbacks.
    ///
    /// # Panics
    ///
    /// Panics if the VMM is still running or a reboot is in progress — the
    /// caller detects the failure first.
    pub fn recover_microreboot(&mut self, sched: &mut Scheduler<HostEvent>) {
        assert!(!self.vmm.is_running(), "recovery requires a failed VMM");
        assert!(self.run.is_none(), "recovery already in progress");
        let now = sched.now();
        self.trace
            .emit(now, Event::RecoveryCommanded(RecoveryKind::Microreboot));
        self.metrics.clear();
        self.phase_begin(now, Phase::Reboot);
        // Recovery boots the same build that was running (no staged image
        // survives a crash reliably; restage deterministically).
        self.vmm
            .stage_next_image(crate::xexec::XexecImage::build(self.vmm.running_version()));
        let mut run = RebootRun::new(RebootStrategy::Warm, now);
        run.recovery = true;
        run.dom0_shutdown_done = true;
        // Triage every domain U in place.
        for id in self.domu_ids() {
            let Some(mut dom) = self.domains.remove(&id) else {
                continue;
            };
            let salvageable = !dom.spec.driver_domain
                && matches!(
                    dom.kernel.state(),
                    rh_guest::kernel::KernelState::Running
                        | rh_guest::kernel::KernelState::Suspending
                        | rh_guest::kernel::KernelState::Suspended
                );
            let frozen = if !salvageable {
                false
            } else if dom.kernel.state() == rh_guest::kernel::KernelState::Suspended {
                // Already frozen (the crash hit mid-warm-reboot); its image
                // is intact iff the exec state survived.
                dom.exec_state.is_some()
            } else {
                // Freeze the interrupted guest exactly where it stopped:
                // the frontends never detached cleanly, so force-detach,
                // then capture exec state from the frozen registers.
                if dom.kernel.state() == rh_guest::kernel::KernelState::Running {
                    let _ = dom.kernel.begin_suspend();
                }
                dom.channels.detach_for_suspend();
                match self
                    .vmm
                    .on_memory_suspend(&mut dom, self.t.exec_state_bytes)
                {
                    Ok(()) => dom.kernel.finish_suspend().is_ok(),
                    Err(e) => {
                        self.errors.push(e);
                        false
                    }
                }
            };
            if frozen {
                run.frozen.insert(id, self.capture_frozen(&dom));
                self.stats.inc("recovery.salvaged");
                self.trace.emit(now, Event::Salvaged(id.into()));
            } else {
                // Unsalvageable: release what is left and plan a cold boot.
                self.wipe(&mut dom);
                run.cold_fallbacks.insert(id);
                self.stats.inc("recovery.cold_fallback");
                self.trace.emit(now, Event::LostColdBoot(id.into()));
            }
            self.domains.insert(id, dom);
        }
        // dom0 is rebuilt from scratch on every reboot; it holds no
        // preserved memory.
        self.dom0_mut().kernel.destroy();
        self.run = Some(run);
        self.begin_quick_reload(sched);
    }

    /// Baseline reactive recovery: give up on all preserved state and drive
    /// the ordinary crash path (hardware reset + full cold boot).
    ///
    /// # Panics
    ///
    /// Panics if the VMM is still running or a reboot is in progress.
    pub fn recover_cold(&mut self, sched: &mut Scheduler<HostEvent>) {
        assert!(!self.vmm.is_running(), "recovery requires a failed VMM");
        assert!(self.run.is_none(), "recovery already in progress");
        let now = sched.now();
        self.trace
            .emit(now, Event::RecoveryCommanded(RecoveryKind::Cold));
        self.metrics.clear();
        self.phase_begin(now, Phase::Reboot);
        let mut run = RebootRun::new(RebootStrategy::Cold, now);
        run.dom0_shutdown_done = true;
        run.recovery = true;
        for id in self.domu_ids() {
            run.cold_fallbacks.insert(id);
        }
        self.kill_domains();
        self.run = Some(run);
        self.maybe_start_reload(sched);
    }

    /// Rejuvenates a single guest OS (time-based OS rejuvenation, §3.2/§5.3)
    /// without touching the VMM.
    ///
    /// # Panics
    ///
    /// Panics if the domain is unknown, is dom0, or a VMM reboot is in
    /// progress.
    pub fn os_reboot(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        assert!(!id.is_dom0(), "dom0 rejuvenation implies a VMM reboot");
        assert!(self.run.is_none(), "VMM reboot in progress");
        assert!(self.domains.contains_key(&id), "unknown domain {id}");
        let running = self
            .domains
            .get(&id)
            .map(|d| d.kernel.is_running())
            .unwrap_or(false);
        if !running {
            // Nothing to rejuvenate: the guest is already down (e.g. wedged
            // by heap exhaustion). Leave it to crash recovery.
            self.trace
                .emit(sched.now(), Event::OsRejuvenationSkipped(id.into()));
            return;
        }
        self.trace
            .emit(sched.now(), Event::OsRejuvenation(id.into()));
        self.single_rejuvs.insert(id);
        self.begin_guest_shutdown(sched, id);
    }

    /// Starts the Fig. 8(a) workload: the guest reads `file` from its
    /// corpus; the result lands in [`file_read_results`](Self::file_read_results).
    ///
    /// # Panics
    ///
    /// Panics if the domain has no filesystem, is not running, or already
    /// has a read in flight.
    pub fn file_read(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId, file: u32) {
        let now = sched.now();
        // Direct field access (not dom_mut) so file_reads stays borrowable.
        // lint:allow(unwrap-panic): documented panicking API, see doc comment
        let dom = self.domains.get_mut(&id).expect("unknown domain");
        assert!(dom.kernel.is_running(), "{id} is not running");
        assert!(!self.file_reads.contains_key(&id), "{id} already reading");
        // lint:allow(unwrap-panic): documented panicking API, see doc comment
        let fs = dom.fs.as_ref().expect("domain has no filesystem").clone();
        let plan = fs.plan_read(&mut dom.cache, file);
        let bytes = plan.total_bytes();
        // Post-copy degradation: the non-local fraction of the read faults
        // its pages in from the streaming image first.
        let fault_bytes = if self.streaming.contains(&id) {
            bytes as f64 * (1.0 - self.cfg.stream_locality)
        } else {
            0.0
        };
        if fault_bytes > 0.0 {
            self.stats.add("stream.fault_bytes", fault_bytes as u64);
        }
        let memcpy = SimDuration::from_secs_f64(bytes as f64 / self.t.mem_bandwidth_bps);
        // A faulting read still copies the whole file out of memory after
        // the fault-in; without this tail a small fault at a fast disk
        // would finish *before* the warm-cache read it degrades.
        let faulting = fault_bytes > 0.0;
        let tail = if faulting { memcpy } else { SimDuration::ZERO };
        self.file_reads.insert(id, (now, bytes, tail));
        if plan.miss_bytes == 0 && !faulting {
            // Pure memory read: finishes after bytes / memcpy bandwidth.
            // Completion is routed through a timer event; handle() matches
            // the pending entry in `file_reads` before the work table.
            sched.schedule_in(memcpy, HostEvent::WorkFixedDone(id, WorkTag::ResumeHandler));
        } else {
            if plan.miss_bytes > 0 {
                fs.commit_read(&mut dom.cache, file);
                self.account_read(id, plan.miss_bytes as f64);
            }
            let slow = self.vmm.xenstored().io_slowdown();
            let work = (plan.miss_bytes as f64 / self.t.file_read_efficiency + fault_bytes) * slow;
            let job = self.disk.submit(now, IoKind::Read, work);
            self.disk_jobs.insert(job, DiskPurpose::FileRead(id));
            self.rearm_disk(sched);
        }
    }

    /// Attaches an httperf fleet to `target`.
    ///
    /// The target must serve files. Against a domain without a file set
    /// the fleet issues no request, and the host reports a
    /// [`VmmError::BadDomainState`] in [`errors`](Self::errors) once the
    /// target is up.
    ///
    /// # Panics
    ///
    /// Panics if a fleet is already attached.
    pub fn attach_httperf(
        &mut self,
        sched: &mut Scheduler<HostEvent>,
        target: DomainId,
        client: HttperfClient,
    ) {
        assert!(self.httperf.is_none(), "httperf already attached");
        self.httperf = Some((target, client));
        sched.schedule_in(SimDuration::ZERO, HostEvent::HttperfKick);
    }

    /// Detaches the httperf fleet, aborting its in-flight requests, and
    /// returns the client with its completion log for analysis.
    pub fn detach_httperf(&mut self, sched: &mut Scheduler<HostEvent>) -> Option<HttperfClient> {
        let target = self.httperf.as_ref().map(|(d, _)| *d)?;
        self.abort_requests_for(sched, target);
        self.httperf.take().map(|(_, c)| c)
    }

    /// Runtime ballooning: adjusts a domain's resident memory by
    /// `delta_pages` (positive = balloon in / grow, negative = balloon
    /// out / shrink). Instantaneous in simulated time — ballooning is a
    /// background activity whose cost the paper does not model.
    ///
    /// # Errors
    ///
    /// Propagates VMM allocator/P2M failures; the domain is unchanged on
    /// error.
    pub fn balloon(&mut self, id: DomainId, delta_pages: i64) -> Result<(), VmmError> {
        let mut dom = self
            .domains
            .remove(&id)
            .ok_or(VmmError::BadDomainState(id, "balloon unknown domain"))?;
        let result = if delta_pages >= 0 {
            self.vmm
                .balloon_in(&mut dom, &mut self.contents, delta_pages as u64)
        } else {
            self.vmm
                .balloon_out(&mut dom, &mut self.contents, (-delta_pages) as u64)
        };
        self.domains.insert(id, dom);
        result
    }

    /// Host-side reclaim-under-pressure: balloons guest pages out of
    /// running domains, in domain-id order, until `want` pages are freed
    /// or every candidate is exhausted. Returns the pages actually freed
    /// (counted in `stats` as `balloon.reclaimed`).
    ///
    /// Two fences keep this safe against the warm reboot (invariant I8,
    /// proved exhaustively by `rh-lint balloon`): nothing is reclaimed
    /// while a VMM reboot is in flight, and a domain whose image is
    /// frozen (`exec_state` held for quick reload) is skipped — its
    /// frames must stay exactly where the preserved P2M table says.
    /// No domain is squeezed below `min_resident` pages.
    pub fn reclaim_under_pressure(&mut self, want: u64, min_resident: u64) -> u64 {
        if self.reboot_in_progress() {
            return 0;
        }
        let mut freed = 0;
        for id in self.domu_ids() {
            if freed >= want {
                break;
            }
            let spare = match self.domains.get(&id) {
                Some(dom) if dom.exec_state.is_none() => {
                    dom.p2m.total_pages().saturating_sub(min_resident)
                }
                _ => continue, // frozen image (or gone): I8's fence
            };
            let take = spare.min(want - freed);
            if take > 0 && self.balloon(id, -(take as i64)).is_ok() {
                freed += take;
            }
        }
        if freed > 0 {
            self.stats.add("balloon.reclaimed", freed);
        }
        freed
    }

    /// Pre-warms a domain's page cache with the first `files` files of its
    /// corpus (experiment setup; costs no simulated time, standing in for a
    /// long-running service's history).
    ///
    /// # Panics
    ///
    /// Panics if the domain has no filesystem.
    pub fn warm_cache(&mut self, id: DomainId, files: u32) {
        let dom = self.dom_mut(id);
        // lint:allow(unwrap-panic): documented panicking API, see doc comment
        let fs = dom.fs.as_ref().expect("domain has no filesystem").clone();
        fs.warm(&mut dom.cache, files);
    }

    // ------------------------------------------------------------------
    // Internal: work pipeline
    // ------------------------------------------------------------------

    fn begin_work(
        &mut self,
        sched: &mut Scheduler<HostEvent>,
        id: DomainId,
        tag: WorkTag,
        profile: WorkProfile,
    ) {
        let prev = self.work.insert(id, WorkState { tag, profile });
        debug_assert!(prev.is_none(), "{id} already has {:?} in flight", prev);
        sched.schedule_in(profile.fixed, HostEvent::WorkFixedDone(id, tag));
    }

    fn work_fixed_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId, tag: WorkTag) {
        let Some(state) = self.work.get(&id).copied() else {
            return; // stale event (work aborted)
        };
        if state.tag != tag {
            return; // stale event from a previous op
        }
        let now = sched.now();
        if state.profile.disk_bytes() > 0.0 {
            let kind = if state.profile.disk_read_bytes > 0.0 {
                IoKind::Read
            } else {
                IoKind::Write
            };
            let job = self.disk.submit(now, kind, state.profile.disk_bytes());
            self.disk_jobs.insert(job, DiskPurpose::Work(id));
            self.rearm_disk(sched);
        } else if state.profile.cpu_work > 0.0 {
            let job = self.cpu.submit(now, state.profile.cpu_work);
            self.cpu_jobs.insert(job, id);
            self.rearm_cpu(sched);
        } else {
            self.work_done(sched, id, tag);
        }
    }

    fn work_shared_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId, was_disk: bool) {
        let Some(state) = self.work.get(&id).copied() else {
            return;
        };
        if was_disk && state.profile.cpu_work > 0.0 {
            let job = self.cpu.submit(sched.now(), state.profile.cpu_work);
            self.cpu_jobs.insert(job, id);
            self.rearm_cpu(sched);
        } else {
            self.work_done(sched, id, state.tag);
        }
    }

    fn work_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId, tag: WorkTag) {
        self.work.remove(&id);
        match tag {
            WorkTag::ShutdownOs => self.on_guest_shutdown_done(sched, id),
            WorkTag::BootOs => self.on_guest_boot_done(sched, id),
            WorkTag::SuspendHandler => self.on_suspend_handler_done(sched, id),
            WorkTag::ResumeHandler => self.on_resume_handler_done(sched, id),
            WorkTag::StartService => self.on_service_started(sched, id),
        }
    }

    // ------------------------------------------------------------------
    // Internal: resource wake-ups
    // ------------------------------------------------------------------

    fn rearm_disk(&mut self, sched: &mut Scheduler<HostEvent>) {
        let at = self.disk.next_completion(sched.now());
        self.disk_wake.reschedule(sched, at, HostEvent::DiskWake);
    }

    fn rearm_cpu(&mut self, sched: &mut Scheduler<HostEvent>) {
        let at = self.cpu.next_completion(sched.now());
        self.cpu_wake.reschedule(sched, at, HostEvent::CpuWake);
    }

    fn rearm_net(&mut self, sched: &mut Scheduler<HostEvent>) {
        let at = self.net.next_completion(sched.now());
        self.net_wake.reschedule(sched, at, HostEvent::NetWake);
    }

    fn on_disk_wake(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.disk_wake.fired();
        let done = self.disk.take_completed(sched.now());
        for job in done {
            match self.disk_jobs.remove(job) {
                Some(DiskPurpose::Work(id)) => self.work_shared_done(sched, id, true),
                Some(DiskPurpose::SaveImage(id)) => self.on_save_written(sched, id),
                Some(DiskPurpose::RestoreImage(id)) => self.on_restore_read(sched, id),
                Some(DiskPurpose::RequestMiss(rid)) => self.on_request_disk_done(sched, rid),
                Some(DiskPurpose::FileRead(id)) => self.on_file_read_disk_done(sched, id),
                Some(DiskPurpose::StreamIn(id)) => self.on_stream_in_done(sched, id),
                Some(DiskPurpose::SnapshotDelta(id)) => self.on_snapshot_written(sched, id),
                None => {}
            }
        }
        self.rearm_disk(sched);
    }

    fn on_cpu_wake(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.cpu_wake.fired();
        let done = self.cpu.take_completed(sched.now());
        for job in done {
            if let Some(id) = self.cpu_jobs.remove(job) {
                self.work_shared_done(sched, id, false);
            }
        }
        self.rearm_cpu(sched);
    }

    fn on_net_wake(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.net_wake.fired();
        let done = self.net.take_completed(sched.now());
        for job in done {
            if let Some(rid) = self.net_jobs.remove(job) {
                self.on_request_net_done(sched, rid);
            }
        }
        self.rearm_net(sched);
    }

    // ------------------------------------------------------------------
    // Internal: guest lifecycle steps
    // ------------------------------------------------------------------

    fn begin_guest_shutdown(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let dom = self.dom_mut(id);
        if !dom.kernel.is_running() {
            return;
        }
        // lint:allow(unwrap-panic): running checked immediately above
        dom.kernel.begin_shutdown().expect("running checked");
        let mut profile = linux_guest_shutdown();
        if let Some(svc) = dom.service.as_mut() {
            if svc.is_running() && svc.begin_stop().is_ok() {
                // The clean service stop is part of the shutdown scripts.
                profile.fixed += svc.spec().stop.fixed;
            }
        }
        self.trace
            .emit(sched.now(), Event::GuestShuttingDown(id.into()));
        self.refresh(sched, id);
        self.begin_work(sched, id, WorkTag::ShutdownOs, profile);
    }

    fn on_guest_shutdown_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let dom = self.dom_mut(id);
        if dom.kernel.finish_shutdown().is_err() {
            return; // stale completion: the domain was crashed meanwhile
        }
        if let Some(svc) = dom.service.as_mut() {
            if svc.status() == rh_guest::services::ServiceStatus::Stopping {
                // Stopping was checked immediately above.
                let _ = svc.finish_stop();
            }
        }
        dom.cache.clear();
        self.trace.emit(sched.now(), Event::GuestOff(id.into()));
        // Release its memory.
        let Some(mut dom) = self.domains.remove(&id) else {
            return;
        };
        if let Err(e) = self.vmm.destroy_domain(&mut dom, &mut self.contents) {
            self.errors.push(e);
        }
        self.domains.insert(id, dom);
        if self.single_rejuvs.contains(&id) {
            // Single-domain OS rejuvenation: bring it right back.
            self.sched_reboot(sched, self.t.domain_create, RebootStep::SingleSetup(id));
            return;
        }
        self.guest_stopped(sched, id);
    }

    fn setup_cold_boot(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some(mut dom) = self.domains.remove(&id) else {
            // Unknown domain (stale event).
            self.setup_lost(sched, id);
            return;
        };
        match self.vmm.create_domain(&mut dom, &mut self.contents) {
            Ok(()) => {
                if dom.kernel.begin_boot().is_err() {
                    // The shell is not off (crashed underneath the setup):
                    // count this one as lost rather than panicking.
                    self.errors.push(VmmError::BadDomainState(
                        id,
                        "cold boot from non-off kernel",
                    ));
                    self.domains.insert(id, dom);
                    self.setup_lost(sched, id);
                    return;
                }
                dom.cache.clear();
                dom.channels = crate::events::EventChannelTable::standard_domu();
                self.domains.insert(id, dom);
                if let Some(run) = self.run.as_mut() {
                    if run.strategy.image() != Image::Dropped {
                        // A cold boot inside a run that keeps images means
                        // the domain's image was lost (driver domain, dead
                        // guest, or recovery fallback).
                        run.cold_fallbacks.insert(id);
                    }
                }
                self.trace.emit(sched.now(), Event::GuestCreated(id.into()));
                self.begin_work(sched, id, WorkTag::BootOs, linux_guest_boot());
            }
            Err(e) => {
                self.trace.emit(
                    sched.now(),
                    Event::note("vmm", format!("create {id} failed: {e}")),
                );
                self.errors.push(e);
                self.domains.insert(id, dom);
                // Recovery runs retry with exponential backoff before
                // declaring the domain lost: the first attempts can race
                // transient allocator pressure while salvage settles.
                let retrying = self.run.as_ref().map(|r| r.recovery).unwrap_or(false);
                if retrying {
                    let attempts = {
                        let Some(run) = self.run.as_mut() else {
                            return;
                        };
                        let n = run.retries.entry(id).or_insert(0);
                        *n += 1;
                        *n
                    };
                    if attempts <= 3 {
                        let delay = self.t.domain_create * (1u64 << (attempts - 1));
                        self.trace.emit(
                            sched.now(),
                            Event::ColdBootRetry {
                                dom: id.into(),
                                attempt: attempts,
                            },
                        );
                        self.sched_reboot(sched, delay, RebootStep::SingleSetup(id));
                        return;
                    }
                    self.stats.inc("recovery.lost");
                    self.trace
                        .emit(sched.now(), Event::RetriesExhausted(id.into()));
                }
                self.setup_lost(sched, id);
            }
        }
    }

    /// Counts domain `id`'s setup as done although it did not come up, so
    /// the reboot still completes.
    fn setup_lost(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        self.single_rejuvs.remove(&id);
        if let Some(run) = self.run.as_mut() {
            run.pending_setup.remove(&id);
        }
        self.maybe_finish_reboot(sched);
    }

    fn on_guest_boot_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        // Direct field access (not dom_mut) so aging_clock/trace stay borrowable.
        // lint:allow(unwrap-panic): the work pipeline only queues ops for live domains
        let dom = self.domains.get_mut(&id).expect("domain exists");
        if dom.kernel.finish_boot().is_err() {
            return; // stale completion: the domain was crashed meanwhile
        }
        // A fresh kernel has no aged state; a resume keeps it (Fig. 2).
        if let Some(aging) = dom.aging.as_mut() {
            aging.rejuvenate();
        }
        self.aging_clock.insert(id, sched.now());
        self.trace.emit(sched.now(), Event::GuestBooted(id.into()));
        let start = dom
            .service
            .as_mut()
            .and_then(|svc| svc.begin_start().ok().map(|_| *svc.spec()));
        match start {
            Some(spec) => self.begin_work(sched, id, WorkTag::StartService, spec.start),
            None => self.on_domain_ready(sched, id),
        }
    }

    fn on_service_started(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let dom = self.dom_mut(id);
        if let Some(svc) = dom.service.as_mut() {
            // begin_start preceded this completion; Starting is guaranteed.
            let _ = svc.finish_start();
        }
        self.trace.emit(sched.now(), Event::ServiceUp(id.into()));
        self.on_domain_ready(sched, id);
    }

    fn on_domain_ready(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        self.refresh(sched, id);
        if self.single_rejuvs.remove(&id) {
            return;
        }
        if let Some(run) = self.run.as_mut() {
            run.pending_setup.remove(&id);
        }
        self.maybe_finish_reboot(sched);
    }

    // ------------------------------------------------------------------
    // Internal: suspend/resume (warm) and save/restore (saved)
    // ------------------------------------------------------------------

    /// Stops every running guest by the run's `image` axis: a kept image
    /// suspends, a dropped one shuts down.
    fn begin_guest_stops(&mut self, sched: &mut Scheduler<HostEvent>) {
        let ids = self.domu_ids();
        let Some(run) = self.run.as_ref() else {
            return; // no run active: stale call
        };
        let image = run.strategy.image();
        for id in ids {
            let Some(dom) = self.domains.get(&id) else {
                continue;
            };
            if !dom.kernel.is_running() {
                continue;
            }
            // Driver domains "cannot be suspended" (paper §7): a strategy
            // that keeps images must still shut them down, losing theirs.
            let shut_down = image == Image::Dropped || dom.spec.driver_domain;
            self.run_mut().pending_stops.insert(id);
            if shut_down {
                self.begin_guest_shutdown(sched, id);
            } else {
                self.begin_guest_suspend(sched, id);
            }
        }
        // No running guests at all: proceed straight on.
        if self
            .run
            .as_ref()
            .is_some_and(|r| r.pending_stops.is_empty())
        {
            self.all_guests_stopped(sched);
        }
    }

    fn begin_guest_suspend(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let dom = self.dom_mut(id);
        // The suspend request travels over the domain's suspend event
        // channel (§4.2).
        if let Some(port) = dom.channels.suspend_port() {
            let _ = dom.channels.notify(port);
            let _ = dom.channels.take_pending(port);
        }
        // lint:allow(unwrap-panic): the caller checked that the guest runs
        dom.kernel.begin_suspend().expect("running checked");
        self.stats.inc("guest.suspended");
        self.trace.emit(sched.now(), Event::Suspending(id.into()));
        self.refresh(sched, id);
        let mut profile = suspend_handler();
        profile.fixed += self.t.suspend_hypercall;
        self.begin_work(sched, id, WorkTag::SuspendHandler, profile);
    }

    /// Guest `id` has stopped: frozen in place, saved, or shut down.
    fn guest_stopped(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        run.pending_stops.remove(&id);
        if run.pending_stops.is_empty() {
            self.all_guests_stopped(sched);
        }
    }

    /// Every guest has stopped. After disk saves dom0 shuts down;
    /// otherwise the VMM reloads as soon as dom0 is down as well.
    fn all_guests_stopped(&mut self, sched: &mut Scheduler<HostEvent>) {
        let Some(run) = self.run.as_ref() else {
            return;
        };
        if run.strategy.image().on_disk() {
            self.after_saves(sched);
        } else {
            self.phase_end_if_open(sched.now(), Phase::GuestShutdown);
            self.maybe_start_reload(sched);
        }
    }

    fn on_suspend_handler_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let image_axis = self.run.as_ref().map(|r| r.strategy.image());
        let Some(mut dom) = self.domains.remove(&id) else {
            return;
        };
        // The suspend handler detaches the device frontends before the
        // hypercall freezes the image (§4.2).
        dom.channels.detach_for_suspend();
        let result = self
            .vmm
            .on_memory_suspend(&mut dom, self.t.exec_state_bytes);
        if let Err(e) = result {
            self.errors.push(e);
            self.domains.insert(id, dom);
            return;
        }
        // on_memory_suspend just succeeded, so the kernel is Suspending and
        // this transition cannot fail.
        let _ = dom.kernel.finish_suspend();
        let image = self.capture_frozen(&dom);
        self.trace.emit(sched.now(), Event::Frozen(id.into()));
        match image_axis {
            Some(Image::InPlace) => {
                self.run_mut().frozen.insert(id, image);
                self.domains.insert(id, dom);
                // The image is frozen: the classic window for a stray write
                // or a VMM failure before the reload begins.
                if self
                    .inject(sched, InjectPoint::SuspendEnd, Some(id))
                    .crashed
                {
                    return;
                }
                self.guest_stopped(sched, id);
            }
            Some(axis @ (Image::DiskFull | Image::DiskDelta)) => {
                // Stream the frozen image to disk. A delta save writes only
                // the extents dirtied since the domain's delta chain was
                // last current (plus the exec-state record); no current
                // chain means a full save.
                self.run_mut().frozen.insert(id, image.clone());
                let full_bytes = image.size_bytes();
                let write_bytes = if axis == Image::DiskDelta {
                    let dirty = match self.delta_chains.get(&id) {
                        Some(chain) if chain.p2m_epoch() == dom.p2m.epoch() => {
                            dirty_extent_bytes(&dom.p2m, &self.contents, chain.contents_epoch())
                        }
                        _ => full_bytes,
                    };
                    self.stats.add("incremental.save_bytes", dirty);
                    (dirty + self.t.exec_state_bytes) as f64
                } else {
                    full_bytes as f64
                };
                let Some(exec) = dom.exec_state else {
                    self.errors
                        .push(VmmError::BadDomainState(id, "save without exec state"));
                    self.domains.insert(id, dom);
                    return;
                };
                self.saved.insert(
                    id,
                    SavedDomain {
                        image,
                        exec,
                        snapshot: dom.clone(),
                    },
                );
                self.domains.insert(id, dom);
                let job = self.disk.submit(sched.now(), IoKind::Write, write_bytes);
                self.disk_jobs.insert(job, DiskPurpose::SaveImage(id));
                self.rearm_disk(sched);
                self.trace.emit(sched.now(), Event::SaveStarted(id.into()));
            }
            Some(Image::Dropped) | None => {
                self.domains.insert(id, dom);
            }
        }
    }

    fn on_save_written(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        // The image is on disk; discard the resident copy (keeping the
        // snapshot for restore).
        let Some(mut dom) = self.domains.remove(&id) else {
            return;
        };
        // Update the snapshot to the final frozen state (post-suspend).
        if let Some(s) = self.saved.get_mut(&id) {
            let mut snap = dom.clone();
            snap.p2m.clear();
            s.snapshot = snap;
        }
        if let Err(e) = self.vmm.release_domain_memory(&mut dom, &mut self.contents) {
            self.errors.push(e);
        }
        self.domains.insert(id, dom);
        self.trace.emit(sched.now(), Event::Saved(id.into()));
        self.guest_stopped(sched, id);
    }

    fn after_saves(&mut self, sched: &mut Scheduler<HostEvent>) {
        if self.dom0_mut().kernel.begin_shutdown().is_err() {
            return; // stale step from an abandoned run
        }
        self.phase_end(sched.now(), Phase::Save);
        self.phase_begin(sched.now(), Phase::Dom0Shutdown);
        self.sched_reboot(sched, self.t.dom0_shutdown, RebootStep::Dom0ShutdownDone);
    }

    /// Restarts the VMM by the run's `reload` axis once dom0 is down and
    /// every guest has stopped; whichever of the two lands last gets here
    /// with both done.
    fn maybe_start_reload(&mut self, sched: &mut Scheduler<HostEvent>) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        if !run.dom0_shutdown_done || !run.pending_stops.is_empty() {
            return; // the other precondition will trigger us again
        }
        match run.strategy.reload() {
            Reload::Quick => self.begin_quick_reload(sched),
            Reload::Reset if !run.reset_started => {
                run.reset_started = true;
                self.begin_hw_reset(sched);
            }
            Reload::Reset => {}
        }
    }

    fn begin_quick_reload(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.phase_end_if_open(sched.now(), Phase::Suspend);
        self.phase_begin(sched.now(), Phase::QuickReload);
        self.vmm.set_down();
        // Size the frozen set from the P2M (resident pages), not the spec:
        // a domain with an inflated balloon no longer owns the ballooned-out
        // pseudo-physical pages, and they must not be counted (or digested)
        // as part of the frozen image.
        let preserved_gib: f64 = self
            .domains
            .values()
            .filter(|d| !d.id.is_dom0() && d.exec_state.is_some())
            .map(|d| d.resident_gib())
            .sum();
        // Account the preserved metadata exactly (P2M tables at 2 MB/GB +
        // 16 KB exec slots), via the machine layout model.
        let frozen: Vec<(u32, u64)> = self
            .domains
            .values()
            .filter(|d| !d.id.is_dom0() && d.exec_state.is_some())
            .map(|d| (d.id.0, d.resident_pages() * rh_memory::frame::PAGE_SIZE))
            .collect();
        let layout =
            rh_memory::layout::MemoryLayout::plan(64 << 20, &frozen, self.t.exec_state_bytes);
        self.trace.emit(
            sched.now(),
            Event::note(
                "vmm",
                format!(
                    "quick reload ({preserved_gib:.0} GiB frozen; {} KiB of P2M tables + {} KiB exec state preserved)",
                    layout.p2m_bytes() / 1024,
                    layout.exec_state_bytes() / 1024
                ),
            ),
        );
        // Free memory (from the allocator's live view) gets scrubbed by
        // the new instance's init; frozen memory is skipped.
        let free_gib = self.vmm.ram().free_frames() as f64 * rh_memory::frame::PAGE_SIZE as f64
            / (1u64 << 30) as f64;
        self.sched_reboot(
            sched,
            self.t.quick_reload(preserved_gib, free_gib),
            RebootStep::QuickReloadDone,
        );
    }

    fn on_quick_reload_done(&mut self, sched: &mut Scheduler<HostEvent>) {
        // The new instance is coming up: a fault here models the reload
        // itself failing (or frozen state being hit by a stray write while
        // the allocator rebuilds around it).
        if self.inject(sched, InjectPoint::QuickReload, None).crashed {
            return;
        }
        let suspended: Vec<DomainId> = self
            .domains
            .values()
            .filter(|d| !d.id.is_dom0() && d.exec_state.is_some())
            .map(|d| d.id)
            .collect();
        let result = self.vmm.quick_reload(&mut self.domains, &suspended);
        if let Err(e) = result {
            let recovery = self.run.as_ref().map(|r| r.recovery).unwrap_or(false);
            if self.hook.is_some() || recovery {
                // Under fault injection a failed reload (corrupted staged
                // image, violated preservation) is a VMM failure: abandon
                // the run and leave the VMM down for the recovery engine.
                self.trace.emit(
                    sched.now(),
                    Event::note("vmm", format!("quick reload failed: {e}")),
                );
                self.errors.push(e);
                self.epoch = self.epoch.wrapping_add(1);
                self.run = None;
                self.last_fault_at = Some(sched.now());
                return;
            }
            self.errors.push(e);
        }
        self.phase_end(sched.now(), Phase::QuickReload);
        self.trace.emit(
            sched.now(),
            Event::VmmUp {
                generation: self.vmm.generation(),
            },
        );
        self.begin_dom0_boot(sched);
    }

    fn begin_hw_reset(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.phase_begin(sched.now(), Phase::HardwareReset);
        self.vmm.set_down();
        self.trace.emit(sched.now(), Event::HardwareReset);
        let reset = self.t.hw_reset(self.cfg.ram_gib());
        self.sched_reboot(sched, reset, RebootStep::HwResetDone);
    }

    fn on_hw_reset_done(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.vmm
            .hardware_reset(&mut self.domains, &mut self.contents);
        self.phase_end(sched.now(), Phase::HardwareReset);
        self.phase_begin(sched.now(), Phase::VmmBoot);
        self.trace.emit(
            sched.now(),
            Event::VmmBooting {
                generation: self.vmm.generation(),
            },
        );
        self.sched_reboot(sched, self.t.vmm_boot_hw, RebootStep::VmmBootDone);
    }

    fn on_vmm_boot_done(&mut self, sched: &mut Scheduler<HostEvent>) {
        self.phase_end(sched.now(), Phase::VmmBoot);
        self.begin_dom0_boot(sched);
    }

    /// The new VMM instance is up (either reload path): boot dom0.
    fn begin_dom0_boot(&mut self, sched: &mut Scheduler<HostEvent>) {
        let inj = self.inject(sched, InjectPoint::Dom0Boot, None);
        if inj.crashed {
            return;
        }
        if self.dom0_mut().kernel.begin_boot().is_err() {
            return; // stale step from an abandoned run
        }
        self.phase_begin(sched.now(), Phase::Dom0Boot);
        self.sched_reboot(
            sched,
            self.t.dom0_boot + inj.dom0_extra,
            RebootStep::Dom0BootDone,
        );
    }

    fn on_dom0_boot_done(&mut self, sched: &mut Scheduler<HostEvent>) {
        // Direct field access (not dom0_mut/run_mut) so domains stays borrowable.
        // lint:allow(unwrap-panic): dom0 is inserted in new() and never removed
        let dom0 = self.domains.get_mut(&DomainId::DOM0).expect("dom0 exists");
        if dom0.kernel.finish_boot().is_err() {
            return; // stale step from an abandoned run
        }
        self.phase_end(sched.now(), Phase::Dom0Boot);
        self.trace.emit(sched.now(), Event::Dom0Up);
        // lint:allow(unwrap-panic): run-phase handlers only fire while a run is active
        let run = self.run.as_mut().expect("run active");
        run.setup_queue = self
            .domains
            .keys()
            .copied()
            .filter(|d| !d.is_dom0())
            .collect();
        run.pending_setup = run.setup_queue.iter().copied().collect();
        let phase = run.strategy.resume().phase();
        self.phase_begin(sched.now(), phase);
        self.schedule_next_setup(sched);
        // A host with no domain U is back at once.
        self.maybe_finish_reboot(sched);
    }

    /// Schedules the next domain's setup slot if any domain is left.
    fn schedule_next_setup(&mut self, sched: &mut Scheduler<HostEvent>) {
        if self.run.as_ref().is_some_and(|r| !r.setup_queue.is_empty()) {
            self.sched_reboot(sched, self.t.domain_create, RebootStep::NextDomainSetup);
        }
    }

    /// Sets the next queued domain up by the run's `resume` axis.
    fn on_next_domain_setup(&mut self, sched: &mut Scheduler<HostEvent>) {
        let Some(run) = self.run.as_mut() else { return };
        let Some(id) = run.setup_queue.pop_front() else {
            return;
        };
        let resume = run.strategy.resume();
        if !resume.serial() {
            self.schedule_next_setup(sched);
        }
        let kept = match resume {
            Resume::Attach => self.begin_attach(sched, id),
            Resume::Restore | Resume::StreamIn => self.begin_restore(sched, id, resume),
            Resume::Boot => false,
        };
        if !kept {
            // No kept image (a driver domain, a guest dead before the
            // reboot, exec state lost to a fault, or a dropping strategy):
            // the domain comes back cold.
            self.setup_cold_boot(sched, id);
            if resume.serial() {
                self.schedule_next_setup(sched);
            }
        }
    }

    /// Resumes domain `id` from its image frozen in place. False when it
    /// has none: no exec state, or a kernel that is not suspended.
    fn begin_attach(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) -> bool {
        let resumable = self
            .domains
            .get_mut(&id)
            .map(|d| d.exec_state.is_some() && d.kernel.begin_resume().is_ok())
            .unwrap_or(false);
        if resumable {
            self.trace.emit(sched.now(), Event::Resuming(id.into()));
            self.begin_work(sched, id, WorkTag::ResumeHandler, resume_handler());
        }
        resumable
    }

    /// Recreates domain `id`'s shell from its snapshot and reads its saved
    /// image back from disk; a `StreamIn` restore reads only the working
    /// set, and the residual streams in once this read lands. False when
    /// no image of the domain is on disk.
    fn begin_restore(
        &mut self,
        sched: &mut Scheduler<HostEvent>,
        id: DomainId,
        resume: Resume,
    ) -> bool {
        let Some(saved) = self.saved.get(&id) else {
            return false;
        };
        let mut dom = saved.snapshot.clone();
        let full = saved.image.size_bytes() as f64;
        let bytes = if resume == Resume::StreamIn {
            (full * self.cfg.stream_working_set).max(1.0)
        } else {
            full
        };
        match self.vmm.create_domain_empty(&mut dom, saved.image.pages()) {
            Ok(()) => {
                self.domains.insert(id, dom);
                let job = self.disk.submit(sched.now(), IoKind::Read, bytes);
                self.disk_jobs.insert(job, DiskPurpose::RestoreImage(id));
                self.rearm_disk(sched);
                self.trace
                    .emit(sched.now(), Event::RestoreStarted(id.into()));
            }
            Err(e) => {
                self.errors.push(e);
                self.domains.insert(id, dom);
                self.run_mut().pending_setup.remove(&id);
                self.schedule_next_setup(sched);
                self.maybe_finish_reboot(sched);
            }
        }
        true
    }

    fn on_restore_read(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some(saved) = self.saved.remove(&id) else {
            return;
        };
        let total_bytes = saved.image.size_bytes();
        // Direct field access (not dom_mut) so contents stays borrowable.
        let Some(dom) = self.domains.get_mut(&id) else {
            return;
        };
        let restored = match saved.image.restore(&dom.p2m, &mut self.contents) {
            Ok(()) => {
                dom.exec_state = Some(saved.exec);
                // The snapshot was captured frozen (Suspended).
                let _ = dom.kernel.begin_resume();
                self.trace.emit(sched.now(), Event::Restored(id.into()));
                self.begin_work(sched, id, WorkTag::ResumeHandler, resume_handler());
                true
            }
            Err(e) => {
                // The image no longer matches the recreated shell's
                // geometry; surface the error instead of resuming garbage.
                self.errors
                    .push(VmmError::BadDomainState(id, "restore geometry mismatch"));
                self.trace.emit(
                    sched.now(),
                    Event::note("vmm", format!("{id} image restore failed: {e}")),
                );
                if let Some(run) = self.run.as_mut() {
                    run.pending_setup.remove(&id);
                }
                false
            }
        };
        // Post-copy: the working set is resident and the guest resumes
        // now; the residual image streams in behind it. The *logical*
        // contents were restored in full above — the stream models disk
        // occupancy and the fault-in window, never a correctness gap (the
        // postcopy protocol checker guards the never-serve-unvalidated
        // invariant at the page level).
        if restored && self.run.as_ref().map(|r| r.strategy.resume()) == Some(Resume::StreamIn) {
            let residual = total_bytes as f64 * (1.0 - self.cfg.stream_working_set);
            if residual > 0.0 {
                let was_streaming = !self.streaming.is_empty();
                self.streaming.insert(id);
                let job = self.disk.submit(sched.now(), IoKind::Read, residual);
                self.disk_jobs.insert(job, DiskPurpose::StreamIn(id));
                self.rearm_disk(sched);
                self.stats.inc("stream.started");
                self.trace
                    .emit(sched.now(), Event::StreamStarted(id.into()));
                if !was_streaming {
                    self.phase_begin(sched.now(), Phase::StreamIn);
                }
            }
        }
        // Serial restore: kick the next domain's restore now that this
        // image('s working set) is fully read back.
        self.schedule_next_setup(sched);
        if !restored {
            self.maybe_finish_reboot(sched);
        }
    }

    /// A streamed domain's residual image finished faulting in: it is
    /// fully resident again and serves at full speed.
    fn on_stream_in_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        if !self.streaming.remove(&id) {
            return; // stale completion (crash cleared the stream)
        }
        self.stats.inc("stream.completed");
        self.trace
            .emit(sched.now(), Event::StreamCompleted(id.into()));
        if self.streaming.is_empty() {
            self.phase_end_if_open(sched.now(), Phase::StreamIn);
        }
    }

    /// One background snapshot round: for every running domain U, write
    /// the extents dirtied since its chain was last current (a full base
    /// when no current chain exists). Quiesced while a reboot is in
    /// flight; a domain whose previous snapshot write is still on the
    /// disk is skipped this round.
    fn on_snapshot_tick(&mut self, sched: &mut Scheduler<HostEvent>) {
        let Some(interval) = self.cfg.snapshot_interval else {
            return; // ticker disarmed
        };
        sched.schedule_in(interval, HostEvent::SnapshotTick);
        if self.run.is_some() || !self.vmm.is_running() {
            return;
        }
        for id in self.domu_ids() {
            if self.pending_snapshots.contains_key(&id) {
                continue;
            }
            let Some(dom) = self.domains.get(&id) else {
                continue;
            };
            if !dom.kernel.is_running() {
                continue;
            }
            let dirty =
                match self.delta_chains.get(&id) {
                    // A restore rebuilds the P2M (new epoch), so chains go
                    // conservatively stale across reboots: full re-base.
                    Some(chain) if chain.p2m_epoch() == dom.p2m.epoch() => Some(
                        dirty_extent_bytes(&dom.p2m, &self.contents, chain.contents_epoch()),
                    ),
                    _ => None,
                };
            let contents_epoch = self.contents.epoch();
            let p2m_epoch = dom.p2m.epoch();
            if dirty == Some(0) {
                // Provably clean since the chain's epoch: advance the
                // chain without touching the disk.
                if let Some(chain) = self.delta_chains.get_mut(&id) {
                    chain.mark_current(contents_epoch, p2m_epoch);
                }
                self.stats.inc("snapshot.clean_tick");
                continue;
            }
            let image = MemoryImage::capture(&dom.p2m, &self.contents);
            let full = dirty.is_none();
            let bytes = dirty.unwrap_or_else(|| image.size_bytes());
            self.pending_snapshots.insert(
                id,
                PendingSnapshot {
                    image,
                    bytes,
                    contents_epoch,
                    p2m_epoch,
                    full,
                },
            );
            let job = self.disk.submit(sched.now(), IoKind::Write, bytes as f64);
            self.disk_jobs.insert(job, DiskPurpose::SnapshotDelta(id));
        }
        self.rearm_disk(sched);
    }

    /// A background snapshot's disk write landed: fold it into the
    /// domain's chain.
    fn on_snapshot_written(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some(p) = self.pending_snapshots.remove(&id) else {
            return; // stale completion (crash cleared the snapshot)
        };
        match self.delta_chains.get_mut(&id) {
            Some(chain) if !p.full => {
                chain.record_delta(p.image, p.bytes, p.contents_epoch, p.p2m_epoch)
            }
            _ => {
                self.delta_chains
                    .insert(id, DeltaChain::new(p.image, p.contents_epoch, p.p2m_epoch));
            }
        }
        self.stats.inc("snapshot.delta");
        self.stats.add("snapshot.bytes", p.bytes);
        self.trace.emit(
            sched.now(),
            Event::DeltaSnapshot {
                dom: id.into(),
                bytes: p.bytes,
            },
        );
    }

    fn on_resume_handler_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        // A cached file read completes through the same event; check first.
        if self.file_reads.contains_key(&id) && !self.work.contains_key(&id) {
            self.finish_file_read(sched, id);
            return;
        }
        let inj = self.inject(sched, InjectPoint::ResumeStart, Some(id));
        if inj.crashed {
            return;
        }
        let Some(mut dom) = self.domains.remove(&id) else {
            return;
        };
        let result = if inj.fail_resume {
            Err(VmmError::BadDomainState(id, "resume failed (injected)"))
        } else {
            self.vmm.on_memory_resume(&mut dom).map(|_exec| ())
        };
        let failed = result.is_err();
        match result {
            Ok(()) => {
                // on_memory_resume only succeeds from Resuming; this
                // transition cannot fail.
                let _ = dom.kernel.finish_resume();
                // Re-establish the communication channels to the VMM and
                // re-attach the detached devices (§4.2).
                dom.channels.reestablish_after_resume();
                self.stats.inc("guest.resumed");
                self.trace.emit(sched.now(), Event::Resumed(id.into()));
            }
            Err(e) => {
                self.errors.push(e);
                dom.kernel.crash();
            }
        }
        self.domains.insert(id, dom);
        let corrupted = self.verify_preserved(id);
        let recovery = self.run.as_ref().map(|r| r.recovery).unwrap_or(false);
        if recovery && (failed || corrupted) {
            // Recovery invariant: a domain is never handed back corrupted.
            // Tear it down and rebuild from scratch instead.
            self.stats.inc("recovery.cold_fallback");
            self.trace
                .emit(sched.now(), Event::ValidationFailed(id.into()));
            if let Some(mut dom) = self.domains.remove(&id) {
                self.wipe(&mut dom);
                self.domains.insert(id, dom);
            }
            if let Some(run) = self.run.as_mut() {
                run.frozen.remove(&id);
                run.cold_fallbacks.insert(id);
                // pending_setup keeps the id: the cold boot completes it.
            }
            self.sched_reboot(sched, self.t.domain_create, RebootStep::SingleSetup(id));
            self.refresh(sched, id);
            return;
        }
        if corrupted {
            self.trace.emit(sched.now(), Event::Corrupted(id.into()));
        }
        if let Some(run) = self.run.as_mut() {
            if corrupted {
                run.corrupted.insert(id);
            }
            run.frozen.remove(&id);
            run.pending_setup.remove(&id);
        }
        self.refresh(sched, id);
        self.maybe_finish_reboot(sched);
    }

    /// Tears `dom` down for a cold rebuild: its memory is released and its
    /// kernel destroyed. The service process dies with it; the cold boot
    /// starts a fresh one (and a fresh generation — sessions are lost).
    fn wipe(&mut self, dom: &mut Domain) {
        if let Err(e) = self.vmm.destroy_domain(dom, &mut self.contents) {
            self.errors.push(e);
        }
        dom.kernel.destroy();
        if let Some(svc) = dom.service.as_mut() {
            svc.kill();
        }
        dom.cache.clear();
    }

    /// Captures frozen domain `dom`'s memory image, the reference its
    /// resume is verified against.
    fn capture_frozen(&self, dom: &Domain) -> MemoryImage {
        let image = MemoryImage::capture(&dom.p2m, &self.contents);
        debug_assert_eq!(
            image.digest(),
            self.vmm.domain_digest(dom, &self.contents),
            "{} capture disagrees with its digest",
            dom.id
        );
        image
    }

    /// Checks that domain `id` resumed with the memory frozen at suspend;
    /// returns true if it did not. A domain with no frozen image has
    /// nothing to verify.
    ///
    /// Equal captures describe equal logical views, so they settle the
    /// check in O(extents) (`digest.early_out`). Unequal captures may
    /// still describe equal memory, so they fall back to comparing the
    /// frozen image's digest with a full digest of the live domain
    /// (`digest.full_rehash`). Either way the verdict is the full-digest
    /// comparison's.
    fn verify_preserved(&mut self, id: DomainId) -> bool {
        let (Some(frozen), Some(dom)) = (
            self.run.as_ref().and_then(|r| r.frozen.get(&id)),
            self.domains.get(&id),
        ) else {
            return false;
        };
        let corrupted = if MemoryImage::capture(&dom.p2m, &self.contents) == *frozen {
            self.stats.inc("digest.early_out");
            false
        } else {
            self.stats.inc("digest.full_rehash");
            frozen.digest() != self.vmm.domain_digest(dom, &self.contents)
        };
        debug_assert_eq!(
            corrupted,
            frozen.digest() != self.vmm.domain_digest(dom, &self.contents),
            "{id} capture verdict disagrees with the full digests"
        );
        corrupted
    }

    fn on_dom0_shutdown_done(&mut self, sched: &mut Scheduler<HostEvent>) {
        let dom0 = self.dom0_mut();
        if dom0.kernel.finish_shutdown().is_err() {
            return; // stale step from an abandoned run
        }
        self.phase_end(sched.now(), Phase::Dom0Shutdown);
        self.trace.emit(sched.now(), Event::Dom0Down);
        let run = self.run_mut();
        run.dom0_shutdown_done = true;
        // RootHammer ordering: the VMM itself now suspends the guests it
        // keeps in place (unless the ablation already did).
        if run.strategy.image() == Image::InPlace
            && self
                .domains
                .values()
                .any(|d| !d.id.is_dom0() && d.kernel.is_running())
        {
            self.phase_begin(sched.now(), Phase::Suspend);
            self.begin_guest_stops(sched);
        } else {
            self.maybe_start_reload(sched);
        }
    }

    fn maybe_finish_reboot(&mut self, sched: &mut Scheduler<HostEvent>) {
        let Some(run) = self.run.take() else { return };
        if !run.pending_setup.is_empty() || !run.setup_queue.is_empty() {
            self.run = Some(run);
            return;
        }
        self.phase_end_if_open(sched.now(), run.strategy.resume().phase());
        // Power-on flows through here too and opens no "reboot" span.
        self.phase_end_if_open(sched.now(), Phase::Reboot);
        let mut downtime = BTreeMap::new();
        for (id, m) in &self.meters {
            if let Some(outage) = m.outages().iter().rev().find(|o| o.end >= run.commanded_at) {
                downtime.insert(*id, outage.duration());
            }
        }
        self.trace
            .emit(sched.now(), Event::RebootComplete(run.strategy.into()));
        self.stats
            .inc(&format!("reboot.completed.{}", run.strategy));
        self.stats.record(
            &format!("reboot.duration.{}", run.strategy),
            sched.now() - run.commanded_at,
        );
        self.reports.push(RebootReport {
            strategy: run.strategy,
            commanded_at: run.commanded_at,
            completed_at: sched.now(),
            downtime,
            corrupted: run.corrupted.into_iter().collect(),
            cold_booted: run.cold_fallbacks.iter().copied().collect(),
        });
    }

    // ------------------------------------------------------------------
    // Internal: httperf requests and file reads
    // ------------------------------------------------------------------

    fn on_httperf_kick(&mut self, sched: &mut Scheduler<HostEvent>) {
        let now = sched.now();
        let Some((target, _)) = self.httperf.as_ref().map(|(d, _)| (*d, ())) else {
            return;
        };
        if !self.observable_up(target) {
            return;
        }
        // Check before drawing a request: the client counts every request
        // it draws as in flight, and one with no file to read would never
        // complete.
        let Some(fs) = self.domains.get(&target).and_then(|d| d.fs.clone()) else {
            let err = VmmError::BadDomainState(target, "serve httperf without files");
            if !self.errors.contains(&err) {
                self.errors.push(err);
            }
            return;
        };
        loop {
            let Some((_, client)) = self.httperf.as_mut() else {
                return;
            };
            let Some(file) = client.next_request(now) else {
                break;
            };
            let rid = self.next_req;
            self.next_req += 1;
            let os_slow = self.aging_slowdown(target, now);
            let Some(dom) = self.domains.get_mut(&target) else {
                break; // unreachable: the file check above found the domain
            };
            let plan = fs.plan_read(&mut dom.cache, file);
            let bytes = plan.total_bytes();
            self.requests.insert(
                rid,
                Request {
                    dom: target,
                    bytes,
                    issued: now,
                },
            );
            // While the domain's residual image is still streaming in, the
            // non-local fraction of every request faults its pages in
            // through the disk first (post-copy degradation, Fig. 8).
            let fault_bytes = if self.streaming.contains(&target) {
                bytes as f64 * (1.0 - self.cfg.stream_locality)
            } else {
                0.0
            };
            if fault_bytes > 0.0 {
                self.stats.add("stream.fault_bytes", fault_bytes as u64);
            }
            if plan.miss_bytes > 0 || fault_bytes > 0.0 {
                if plan.miss_bytes > 0 {
                    fs.commit_read(&mut dom.cache, file);
                    self.account_read(target, plan.miss_bytes as f64);
                }
                let slow = self.vmm.xenstored().io_slowdown();
                let work = (plan.miss_bytes as f64 / self.t.file_read_efficiency + fault_bytes)
                    * slow
                    * os_slow;
                let job = self.disk.submit(now, IoKind::Read, work);
                self.disk_jobs.insert(job, DiskPurpose::RequestMiss(rid));
            } else {
                let job = self.net.submit(now, bytes as f64 * os_slow);
                self.net_jobs.insert(job, rid);
            }
        }
        self.rearm_disk(sched);
        self.rearm_net(sched);
    }

    fn on_request_disk_done(&mut self, sched: &mut Scheduler<HostEvent>, rid: u64) {
        let Some(req) = self.requests.get(rid).copied() else {
            return;
        };
        let job = self.net.submit(sched.now(), req.bytes as f64);
        self.net_jobs.insert(job, rid);
        self.rearm_net(sched);
    }

    fn on_request_net_done(&mut self, sched: &mut Scheduler<HostEvent>, rid: u64) {
        let now = sched.now();
        let overhead = self.t.request_overhead;
        if let Some(req) = self.requests.remove(rid) {
            self.latencies.record(now + overhead - req.issued);
            if let Some((_, client)) = self.httperf.as_mut() {
                client.complete(now + overhead);
            }
            sched.schedule_in(overhead, HostEvent::HttperfKick);
        }
    }

    fn abort_requests_for(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let now = sched.now();
        let stale: Vec<u64> = self
            .requests
            .iter()
            .filter(|(_, r)| r.dom == id)
            .map(|(rid, _)| rid)
            .collect();
        if stale.is_empty() {
            return;
        }
        let disk_jobs: Vec<JobId> = self
            .disk_jobs
            .iter()
            .filter(|(_, p)| matches!(p, DiskPurpose::RequestMiss(rid) if stale.contains(rid)))
            .map(|(j, _)| j)
            .collect();
        for j in disk_jobs {
            self.disk.cancel(now, j);
            self.disk_jobs.remove(j);
        }
        let net_jobs: Vec<JobId> = self
            .net_jobs
            .iter()
            .filter(|(_, rid)| stale.contains(rid))
            .map(|(j, _)| j)
            .collect();
        for j in net_jobs {
            self.net.cancel(now, j);
            self.net_jobs.remove(j);
        }
        for rid in stale {
            self.requests.remove(rid);
            if let Some((_, client)) = self.httperf.as_mut() {
                client.abort();
            }
        }
        self.rearm_disk(sched);
        self.rearm_net(sched);
    }

    /// The disk stage of a faulting/missing file read finished; pay the
    /// remaining memory-copy tail (if any) before reporting the result.
    fn on_file_read_disk_done(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some(entry) = self.file_reads.get_mut(&id) else {
            return;
        };
        let tail = std::mem::replace(&mut entry.2, SimDuration::ZERO);
        if tail == SimDuration::ZERO {
            self.finish_file_read(sched, id);
        } else {
            sched.schedule_in(tail, HostEvent::WorkFixedDone(id, WorkTag::ResumeHandler));
        }
    }

    fn finish_file_read(&mut self, sched: &mut Scheduler<HostEvent>, id: DomainId) {
        let Some((start, bytes, _)) = self.file_reads.remove(&id) else {
            return;
        };
        self.file_read_results.push(FileReadResult {
            dom: id,
            start,
            end: sched.now(),
            bytes,
        });
    }

    fn on_probe_tick(&mut self, sched: &mut Scheduler<HostEvent>) {
        let now = sched.now();
        let ids: Vec<DomainId> = self.probes.keys().copied().collect();
        for id in ids {
            let up = self.observable_up(id);
            if let Some(log) = self.probes.get_mut(&id) {
                log.record(now, up);
            }
        }
        sched.schedule_in(self.t.probe_interval, HostEvent::ProbeTick);
    }
}

impl World for Host {
    type Event = HostEvent;

    fn handle(&mut self, sched: &mut Scheduler<HostEvent>, event: HostEvent) {
        match event {
            HostEvent::DiskWake(_) => self.on_disk_wake(sched),
            HostEvent::CpuWake(_) => self.on_cpu_wake(sched),
            HostEvent::NetWake(_) => self.on_net_wake(sched),
            HostEvent::WorkFixedDone(id, tag) => {
                // Cached file reads complete through a ResumeHandler-tagged
                // timer without a work-table entry; route them first.
                if tag == WorkTag::ResumeHandler
                    && self.file_reads.contains_key(&id)
                    && !self.work.contains_key(&id)
                {
                    self.finish_file_read(sched, id);
                } else {
                    self.work_fixed_done(sched, id, tag);
                }
            }
            HostEvent::Reboot(step, epoch) => {
                if epoch != self.epoch {
                    return; // queued by a run a crash has since abandoned
                }
                match step {
                    RebootStep::GuestsStop => {
                        let dropped =
                            self.run.as_ref().map(|r| r.strategy.image()) == Some(Image::Dropped);
                        let phase = if dropped {
                            Phase::GuestShutdown
                        } else {
                            Phase::Suspend
                        };
                        self.phase_begin(sched.now(), phase);
                        self.begin_guest_stops(sched);
                    }
                    RebootStep::Dom0ShutdownDone => self.on_dom0_shutdown_done(sched),
                    RebootStep::QuickReloadDone => self.on_quick_reload_done(sched),
                    RebootStep::HwResetDone => self.on_hw_reset_done(sched),
                    RebootStep::VmmBootDone => self.on_vmm_boot_done(sched),
                    RebootStep::Dom0BootDone => self.on_dom0_boot_done(sched),
                    RebootStep::NextDomainSetup => self.on_next_domain_setup(sched),
                    RebootStep::SingleSetup(id) => self.setup_cold_boot(sched, id),
                }
            }
            HostEvent::HttperfKick => self.on_httperf_kick(sched),
            HostEvent::ProbeTick => self.on_probe_tick(sched),
            HostEvent::DirtyTick(id) => self.on_dirty_tick(sched, id),
            HostEvent::SnapshotTick => self.on_snapshot_tick(sched),
        }
    }

    /// A resource wake is stale once its [`Retick`] has moved or disarmed
    /// it. Every other event fires; a `Reboot` step of an abandoned run is
    /// dropped by `handle` instead, after it has counted as fired.
    fn is_live(&self, event: &HostEvent) -> bool {
        match *event {
            HostEvent::DiskWake(gen) => self.disk_wake.is_live(gen),
            HostEvent::CpuWake(gen) => self.cpu_wake.is_live(gen),
            HostEvent::NetWake(gen) => self.net_wake.is_live(gen),
            _ => true,
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Host(gen {}, {} domUs, vmm {:?})",
            self.vmm.generation(),
            self.domains.len() - 1,
            self.vmm.state()
        )
    }
}
