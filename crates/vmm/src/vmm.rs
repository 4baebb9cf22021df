//! The VMM core: RootHammer's memory-side logic.
//!
//! This module implements the *mechanisms* of the paper with real
//! algorithms over the simulated machine memory — the event-driven timing
//! lives in [`crate::host`]. The three pillars:
//!
//! * **On-memory suspend** (§4.2): freeze a domain's memory image in place
//!   — no copy, no disk — and save its 16 KB execution state into memory
//!   that is preserved across the VMM reboot.
//! * **Quick reload** (§4.3): start a new VMM instance without a hardware
//!   reset. The new instance first re-reserves, from the preserved
//!   P2M-mapping tables, every frame belonging to a frozen domain, *before*
//!   its allocator services anything else — so the frozen images cannot be
//!   corrupted by VMM initialization.
//! * **Hardware reset** (the cold path): machine memory contents are *not*
//!   preserved; every domain's image, P2M table and execution state are
//!   lost.
//!
//! Content signatures ([`rh_memory::contents`]) make preservation a
//! checkable property: [`Vmm::domain_digest`] before suspend must equal the
//! digest after resume for the warm path, and must be *unobtainable* after
//! a hardware reset.

use std::collections::BTreeMap;
use std::fmt;

use rh_memory::contents::FrameContents;
use rh_memory::frame::{frames_for_bytes, FrameRange, Mfn, Pfn};
use rh_memory::heap::VmmHeap;
use rh_memory::machine::{MachineMemory, MemoryError};
use rh_memory::p2m::P2mError;
use rh_sim::rng::splitmix64;
use rh_storage::image::logical_digest;

use crate::domain::{Domain, DomainId, ExecState};
use crate::xenstored::XenStored;
use crate::xexec::{XexecError, XexecImage, XexecState};

/// Heap cost of one domain's bookkeeping structures.
pub const HEAP_PER_DOMAIN: u64 = 64 * 1024;

/// Frames reserved for the VMM's own text, data and heap (64 MiB).
pub const VMM_RESERVED_FRAMES: u64 = (64 * 1024 * 1024) / rh_memory::frame::PAGE_SIZE;

/// Errors from VMM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmmError {
    /// Machine memory exhausted or inconsistent.
    Memory(MemoryError),
    /// A P2M table operation failed.
    P2m(P2mError),
    /// The VMM heap is exhausted (the §2 aging failure).
    HeapExhausted(rh_memory::heap::HeapExhausted),
    /// The domain is not in a state that allows the operation.
    BadDomainState(DomainId, &'static str),
    /// Quick reload found a frozen domain whose frames could not be
    /// re-reserved (they were stolen — the §4.3 corruption scenario).
    PreservationViolated(DomainId),
    /// The xexec staging slot was empty or its image corrupted.
    Xexec(XexecError),
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::Memory(e) => write!(f, "vmm: {e}"),
            VmmError::P2m(e) => write!(f, "vmm: {e}"),
            VmmError::HeapExhausted(e) => write!(f, "vmm: {e}"),
            VmmError::BadDomainState(id, what) => write!(f, "vmm: {id} cannot {what}"),
            VmmError::PreservationViolated(id) => write!(
                f,
                "vmm: preserved memory of {id} was corrupted during reload"
            ),
            VmmError::Xexec(e) => write!(f, "vmm: {e}"),
        }
    }
}

impl std::error::Error for VmmError {}

impl From<MemoryError> for VmmError {
    fn from(e: MemoryError) -> Self {
        VmmError::Memory(e)
    }
}

impl From<P2mError> for VmmError {
    fn from(e: P2mError) -> Self {
        VmmError::P2m(e)
    }
}

impl From<rh_memory::heap::HeapExhausted> for VmmError {
    fn from(e: rh_memory::heap::HeapExhausted) -> Self {
        VmmError::HeapExhausted(e)
    }
}

impl From<XexecError> for VmmError {
    fn from(e: XexecError) -> Self {
        VmmError::Xexec(e)
    }
}

/// Whether the VMM instance is alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmmState {
    /// Serving hypercalls.
    Running,
    /// Between instances (rebooting).
    Down,
}

/// The virtual machine monitor.
///
/// Owns machine memory management (allocator, heap, xenstored) but not the
/// domains themselves — those belong to the host, mirroring how the real
/// RootHammer keeps domain metadata in memory regions that outlive a VMM
/// instance.
#[derive(Debug)]
pub struct Vmm {
    state: VmmState,
    generation: u64,
    ram: MachineMemory,
    heap: VmmHeap,
    xenstored: XenStored,
    /// Heap bytes leaked every time a domain is destroyed — the Xen
    /// changeset-9392 bug ("available heap memory decreased whenever a VM
    /// was rebooted"). Zero by default; aging experiments raise it.
    pub leak_per_domain_destroy: u64,
    heap_allocs: BTreeMap<DomainId, rh_memory::heap::HeapAlloc>,
    salt_counter: u64,
    xexec: XexecState,
    running_version: u32,
}

impl Vmm {
    /// Boots a fresh VMM over `total_frames` of machine memory.
    pub fn new(total_frames: u64) -> Self {
        let mut ram = MachineMemory::new(total_frames);
        ram.reserve_exact(FrameRange::new(
            Mfn(0),
            VMM_RESERVED_FRAMES.min(total_frames),
        ))
        // lint:allow(unwrap-panic): a fresh allocator is all-free and the range is clamped to it
        .expect("fresh memory must accommodate the VMM image");
        Vmm {
            state: VmmState::Running,
            generation: 1,
            ram,
            heap: VmmHeap::xen_default(),
            xenstored: XenStored::realistic(),
            leak_per_domain_destroy: 0,
            heap_allocs: BTreeMap::new(),
            salt_counter: 0,
            xexec: XexecState::new(),
            running_version: 1,
        }
    }

    /// Current state.
    pub fn state(&self) -> VmmState {
        self.state
    }

    /// True if serving hypercalls.
    pub fn is_running(&self) -> bool {
        self.state == VmmState::Running
    }

    /// Marks the VMM down (a reboot is in progress).
    pub fn set_down(&mut self) {
        self.state = VmmState::Down;
    }

    /// Boot generation (1 for the first instance).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The machine memory allocator.
    pub fn ram(&self) -> &MachineMemory {
        &self.ram
    }

    /// The hypervisor heap.
    pub fn heap(&self) -> &VmmHeap {
        &self.heap
    }

    /// Mutable heap access (for aging injection).
    pub fn heap_mut(&mut self) -> &mut VmmHeap {
        &mut self.heap
    }

    /// The xenstored daemon.
    pub fn xenstored(&self) -> &XenStored {
        &self.xenstored
    }

    /// The xexec staging slot.
    pub fn xexec(&self) -> &XexecState {
        &self.xexec
    }

    /// Mutable xexec access (staging images, corruption injection).
    pub fn xexec_mut(&mut self) -> &mut XexecState {
        &mut self.xexec
    }

    /// Version of the VMM build currently running.
    pub fn running_version(&self) -> u32 {
        self.running_version
    }

    /// Stages the next VMM build for quick reload — the xexec system call
    /// + hypercall pair (§4.3).
    pub fn stage_next_image(&mut self, image: XexecImage) {
        self.xexec.load(image);
    }

    fn next_salt(&mut self) -> u64 {
        self.salt_counter += 1;
        splitmix64(self.salt_counter ^ (self.generation << 32))
    }

    /// Creates (allocates and initializes) a domain's memory and registers
    /// it with xenstored. The domain's previous P2M mapping must be empty.
    ///
    /// # Errors
    ///
    /// Propagates allocator/heap exhaustion; heap exhaustion here is the
    /// §2 aging failure mode.
    pub fn create_domain(
        &mut self,
        dom: &mut Domain,
        contents: &mut FrameContents,
    ) -> Result<(), VmmError> {
        if !dom.p2m.is_empty() {
            return Err(VmmError::BadDomainState(
                dom.id,
                "create with mapped memory",
            ));
        }
        let alloc = self.heap.alloc(HEAP_PER_DOMAIN)?;
        let frames = match self.ram.allocate(dom.mem_pages()) {
            Ok(f) => f,
            Err(e) => {
                self.heap.free(alloc);
                return Err(e.into());
            }
        };
        // Bookkeeping: remember the heap allocation for this domain.
        self.heap_allocs.insert(dom.id, alloc);
        dom.salt = self.next_salt();
        dom.p2m.map_contiguous(Pfn(0), &frames)?;
        for (i, r) in frames.iter().enumerate() {
            contents.fill_pattern(*r, dom.salt.wrapping_add(i as u64));
        }
        self.xenstored.transact();
        Ok(())
    }

    /// Releases a domain's machine frames (scrubbing their contents) and
    /// heap bookkeeping, but keeps the saved execution state. This is the
    /// tail of Xen's `xm save`: once the image is on disk, the resident
    /// copy is discarded.
    ///
    /// # Errors
    ///
    /// Propagates allocator inconsistencies (double release).
    pub fn release_domain_memory(
        &mut self,
        dom: &mut Domain,
        contents: &mut FrameContents,
    ) -> Result<(), VmmError> {
        let ranges = dom.p2m.machine_ranges();
        for r in &ranges {
            contents.scrub(*r);
        }
        self.ram.release(&ranges)?;
        dom.p2m.clear();
        if let Some(alloc) = self.heap_allocs.remove(&dom.id) {
            self.heap.free(alloc);
            if self.leak_per_domain_destroy > 0 {
                self.heap.leak(self.leak_per_domain_destroy);
            }
        }
        Ok(())
    }

    /// Creates a domain's memory mapping *without* initializing contents —
    /// the restore path allocates empty frames and fills them from the
    /// saved image afterwards. `pages` is the saved image's geometry, not
    /// the spec size: a domain saved with an inflated balloon owns fewer
    /// pages than its spec says, and restoring it spec-sized would make
    /// the image's page count mismatch the recreated shell.
    ///
    /// # Errors
    ///
    /// Propagates allocator/heap exhaustion.
    pub fn create_domain_empty(&mut self, dom: &mut Domain, pages: u64) -> Result<(), VmmError> {
        if !dom.p2m.is_empty() {
            return Err(VmmError::BadDomainState(
                dom.id,
                "create with mapped memory",
            ));
        }
        let alloc = self.heap.alloc(HEAP_PER_DOMAIN)?;
        let frames = match self.ram.allocate(pages) {
            Ok(f) => f,
            Err(e) => {
                self.heap.free(alloc);
                return Err(e.into());
            }
        };
        self.heap_allocs.insert(dom.id, alloc);
        dom.p2m.map_contiguous(Pfn(0), &frames)?;
        self.xenstored.transact();
        Ok(())
    }

    /// Destroys a domain: releases its frames, scrubs their contents and
    /// frees (or leaks, per [`leak_per_domain_destroy`](Self::leak_per_domain_destroy))
    /// its heap bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates allocator inconsistencies (double release).
    pub fn destroy_domain(
        &mut self,
        dom: &mut Domain,
        contents: &mut FrameContents,
    ) -> Result<(), VmmError> {
        let ranges = dom.p2m.machine_ranges();
        for r in &ranges {
            contents.scrub(*r);
        }
        self.ram.release(&ranges)?;
        dom.p2m.clear();
        dom.exec_state = None;
        if let Some(alloc) = self.heap_allocs.remove(&dom.id) {
            self.heap.free(alloc);
            // The changeset-9392 bug: part of the freed memory is lost
            // again on every domain teardown.
            if self.leak_per_domain_destroy > 0 {
                self.heap.leak(self.leak_per_domain_destroy);
            }
        }
        self.xenstored.transact();
        Ok(())
    }

    /// Balloons `pages` pages *out* of a domain: the balloon driver hands
    /// its highest pseudo-physical pages back to the VMM (paper §4.1 /
    /// Waldspurger). The freed frames are scrubbed and returned to the
    /// allocator; the P2M table shrinks accordingly and stays correct
    /// across a subsequent quick reload.
    ///
    /// # Errors
    ///
    /// [`VmmError::P2m`] if the domain has fewer than `pages` mapped.
    pub fn balloon_out(
        &mut self,
        dom: &mut Domain,
        contents: &mut FrameContents,
        pages: u64,
    ) -> Result<(), VmmError> {
        let released = dom.p2m.unmap_top(pages)?;
        for r in &released {
            contents.scrub(*r);
        }
        self.ram.release(&released)?;
        self.xenstored.transact();
        Ok(())
    }

    /// Balloons `pages` pages back *in*: fresh frames are allocated,
    /// mapped at the domain's current PFN limit, and zero-initialized
    /// (modelled as a fresh content pattern).
    ///
    /// # Errors
    ///
    /// [`VmmError::Memory`] if machine memory is exhausted.
    pub fn balloon_in(
        &mut self,
        dom: &mut Domain,
        contents: &mut FrameContents,
        pages: u64,
    ) -> Result<(), VmmError> {
        let frames = self.ram.allocate(pages)?;
        let pfn = Pfn(dom.p2m.pfn_limit());
        if let Err(e) = dom.p2m.map_contiguous(pfn, &frames) {
            let _ = self.ram.release(&frames);
            return Err(e.into());
        }
        let salt = self.next_salt();
        for (i, r) in frames.iter().enumerate() {
            contents.fill_pattern(*r, salt.wrapping_add(i as u64));
        }
        self.xenstored.transact();
        Ok(())
    }

    /// The suspend hypercall (§4.2): freezes the domain's memory image *in
    /// place* — the frames stay allocated and the P2M table keeps them —
    /// and saves the execution state into preserved memory.
    ///
    /// Deliberately O(1) in the domain's memory size: no frame is read,
    /// copied or written.
    ///
    /// # Errors
    ///
    /// [`VmmError::BadDomainState`] if the domain has no mapped memory or
    /// the execution-state record exceeds [`ExecState::MAX_BYTES`] (the
    /// preserved slots are fixed at 16 KB, §4.2).
    pub fn on_memory_suspend(
        &mut self,
        dom: &mut Domain,
        exec_state_bytes: u64,
    ) -> Result<(), VmmError> {
        if dom.p2m.is_empty() {
            return Err(VmmError::BadDomainState(dom.id, "suspend without memory"));
        }
        if exec_state_bytes > ExecState::MAX_BYTES {
            return Err(VmmError::BadDomainState(
                dom.id,
                "save an oversized execution state",
            ));
        }
        // The saved record covers CPU context plus "shared information
        // such as the status of event channels" — fold the live channel
        // digest in so the preserved state reflects it.
        dom.exec_state = Some(ExecState::capture(
            dom.salt ^ self.generation ^ dom.channels.digest(),
            exec_state_bytes,
        ));
        Ok(())
    }

    /// The resume path's VMM half (§4.2): verifies the preserved mapping
    /// still resolves and the execution state exists, then hands the frozen
    /// image back to a fresh domain shell. O(#extents), not O(bytes).
    ///
    /// # Errors
    ///
    /// [`VmmError::BadDomainState`] if the domain has no saved execution
    /// state or no preserved mapping (e.g. after a hardware reset).
    pub fn on_memory_resume(&mut self, dom: &mut Domain) -> Result<ExecState, VmmError> {
        let exec = dom.exec_state.take().ok_or(VmmError::BadDomainState(
            dom.id,
            "resume without saved state",
        ))?;
        if dom.p2m.is_empty() {
            dom.exec_state = Some(exec);
            return Err(VmmError::BadDomainState(dom.id, "resume without memory"));
        }
        self.xenstored.transact();
        Ok(exec)
    }

    /// Quick reload (§4.3): replaces this VMM instance with a new one
    /// without a hardware reset. `suspended` lists the frozen domains whose
    /// memory must be preserved.
    ///
    /// The new instance's allocator starts empty; the preserved P2M tables
    /// are replayed through `reserve_exact` *first*, then the VMM's own
    /// region is claimed from what remains. Frame contents are never
    /// touched — that is the entire point.
    ///
    /// # Errors
    ///
    /// [`VmmError::PreservationViolated`] if a frozen domain's frames
    /// cannot be re-reserved (overlap with another reservation — table
    /// corruption).
    pub fn quick_reload(
        &mut self,
        domains: &mut BTreeMap<DomainId, Domain>,
        suspended: &[DomainId],
    ) -> Result<(), VmmError> {
        // Verify and consume the staged executable image first: without
        // one there is nothing to jump to, and a corrupted one must be
        // rejected before memory is handed over.
        let image = self.xexec.take_for_boot()?;
        let mut ram = MachineMemory::new(self.ram.total_frames());
        // Re-reserve every frozen domain's frames from the preserved
        // P2M-mapping tables before anything else can allocate.
        for id in suspended {
            let dom = domains
                .get(id)
                .ok_or(VmmError::BadDomainState(*id, "reload unknown domain"))?;
            for r in dom.p2m.machine_ranges() {
                ram.reserve_exact(r)
                    .map_err(|_| VmmError::PreservationViolated(dom.id))?;
            }
            // The saved execution states live in preserved memory too;
            // their footprint is tiny (16 KB/domain) and accounted here.
            if dom.exec_state.is_none() {
                return Err(VmmError::BadDomainState(
                    dom.id,
                    "reload without saved state",
                ));
            }
        }
        // Now the VMM claims its own image region. The boot protocol loads
        // the new executable where the old one was, which never overlaps
        // domain memory.
        ram.reserve_exact(FrameRange::new(
            Mfn(0),
            VMM_RESERVED_FRAMES.min(ram.total_frames()),
        ))?;
        self.ram = ram;
        self.generation += 1;
        self.heap.reset();
        self.heap_allocs.clear();
        self.xenstored.reboot();
        self.state = VmmState::Running;
        self.running_version = image.version;
        // Re-register preserved domains' bookkeeping in the fresh heap.
        for id in suspended {
            let alloc = self.heap.alloc(HEAP_PER_DOMAIN)?;
            self.heap_allocs.insert(*id, alloc);
        }
        Ok(())
    }

    /// A *buggy* reload that initializes the VMM (scribbling over free —
    /// and, wrongly, not-yet-re-reserved — memory) **before** replaying the
    /// P2M tables. This is exactly the hazard §4.3 warns about ("the quick
    /// reload mechanism prevents the frozen memory images of VMs from
    /// being corrupted when the VMM initializes itself"); kept for the
    /// ablation tests that show the digests detecting the corruption.
    pub fn quick_reload_wrong_order(
        &mut self,
        domains: &mut BTreeMap<DomainId, Domain>,
        suspended: &[DomainId],
        contents: &mut FrameContents,
        scratch_frames: u64,
    ) -> Result<(), VmmError> {
        let mut ram = MachineMemory::new(self.ram.total_frames());
        ram.reserve_exact(FrameRange::new(
            Mfn(0),
            VMM_RESERVED_FRAMES.min(ram.total_frames()),
        ))?;
        // VMM init scribbles over "free" memory that actually holds frozen
        // domain images.
        let scratch = ram.allocate(scratch_frames)?;
        for r in &scratch {
            contents.fill_pattern(*r, 0xDEAD_0000 ^ self.generation);
        }
        ram.release(&scratch)?;
        // Only now replay the tables — too late: contents already changed.
        for id in suspended {
            let dom = domains
                .get(id)
                .ok_or(VmmError::BadDomainState(*id, "reload unknown domain"))?;
            for r in dom.p2m.machine_ranges() {
                ram.reserve_exact(r)
                    .map_err(|_| VmmError::PreservationViolated(dom.id))?;
            }
        }
        self.ram = ram;
        self.generation += 1;
        self.heap.reset();
        self.heap_allocs.clear();
        self.xenstored.reboot();
        self.state = VmmState::Running;
        Ok(())
    }

    /// A hardware reset (cold path): machine memory contents are lost, and
    /// with them every domain's image, mapping and execution state.
    pub fn hardware_reset(
        &mut self,
        domains: &mut BTreeMap<DomainId, Domain>,
        contents: &mut FrameContents,
    ) {
        contents.scrub_all();
        for dom in domains.values_mut() {
            dom.p2m.clear();
            dom.exec_state = None;
            dom.cache.clear();
            if let Some(svc) = dom.service.as_mut() {
                svc.kill();
            }
            dom.kernel.destroy();
        }
        let mut ram = MachineMemory::new(self.ram.total_frames());
        ram.reserve_exact(FrameRange::new(
            Mfn(0),
            VMM_RESERVED_FRAMES.min(ram.total_frames()),
        ))
        // lint:allow(unwrap-panic): a fresh allocator is all-free and the range is clamped to it
        .expect("fresh memory accommodates the VMM image");
        self.ram = ram;
        self.generation += 1;
        self.heap.reset();
        self.heap_allocs.clear();
        self.xenstored.reboot();
        self.state = VmmState::Running;
    }

    /// Digest of a domain's memory in pseudo-physical order.
    pub fn domain_digest(&self, dom: &Domain, contents: &FrameContents) -> u64 {
        logical_digest(&dom.p2m, contents)
    }

    /// Checks cross-domain machine-frame disjointness — no frame may belong
    /// to two domains.
    pub fn check_domain_isolation(domains: &BTreeMap<DomainId, Domain>) -> Result<(), String> {
        let mut all: Vec<(DomainId, FrameRange)> = Vec::new();
        for (id, d) in domains {
            for r in d.p2m.machine_ranges() {
                all.push((*id, r));
            }
        }
        all.sort_by_key(|(_, r)| r.start);
        for w in all.windows(2) {
            let (ida, a) = w[0];
            let (idb, b) = w[1];
            if a.overlaps(&b) {
                return Err(format!("{ida} range {a} overlaps {idb} range {b}"));
            }
        }
        Ok(())
    }

    /// Frames needed for a memory size in bytes — re-exported convenience.
    pub fn frames_for(bytes: u64) -> u64 {
        frames_for_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainSpec;
    use rh_guest::services::ServiceKind;
    use rh_memory::frame::FRAMES_PER_GIB;

    fn gib(n: u64) -> u64 {
        n << 30
    }

    fn setup(total_gib: u64) -> (Vmm, FrameContents) {
        (Vmm::new(total_gib * FRAMES_PER_GIB), FrameContents::new())
    }

    fn make_dom(id: u32, mem_gib: u64) -> Domain {
        Domain::new(
            DomainId(id),
            DomainSpec::standard(format!("vm{id}"), ServiceKind::Ssh).with_mem_bytes(gib(mem_gib)),
            0,
        )
    }

    #[test]
    fn create_allocates_and_fills() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        assert_eq!(dom.p2m.total_pages(), FRAMES_PER_GIB);
        let mfn = dom.p2m.lookup(Pfn(0)).unwrap();
        assert!(contents.read(mfn).is_some());
        assert_eq!(vmm.heap().used_bytes(), HEAP_PER_DOMAIN);
        assert_eq!(vmm.xenstored().ops(), 1);
    }

    #[test]
    fn create_twice_rejected() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let err = vmm.create_domain(&mut dom, &mut contents).unwrap_err();
        assert!(matches!(err, VmmError::BadDomainState(_, _)));
    }

    #[test]
    fn destroy_releases_and_scrubs() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let mfn = dom.p2m.lookup(Pfn(0)).unwrap();
        let free_before = vmm.ram().free_frames();
        vmm.destroy_domain(&mut dom, &mut contents).unwrap();
        assert_eq!(vmm.ram().free_frames(), free_before + FRAMES_PER_GIB);
        assert_eq!(contents.read(mfn), None, "destroy scrubs contents");
        assert!(dom.p2m.is_empty());
        assert_eq!(vmm.heap().used_bytes(), 0);
    }

    #[test]
    fn warm_cycle_preserves_digest() {
        // The paper's core invariant, at the mechanism level.
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 2);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let before = vmm.domain_digest(&dom, &contents);

        vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
        vmm.set_down();
        let before_digest_dom = dom.id;
        let mut domains = BTreeMap::from([(dom.id, dom)]);
        vmm.stage_next_image(XexecImage::build(2));
        vmm.quick_reload(&mut domains, &[before_digest_dom])
            .unwrap();
        assert_eq!(vmm.running_version(), 2, "booted into the staged build");
        let dom = domains.get_mut(&before_digest_dom).unwrap();
        let exec = vmm.on_memory_resume(dom).unwrap();

        assert_eq!(vmm.domain_digest(dom, &contents), before);
        assert_eq!(exec.bytes, 16 * 1024);
        assert_eq!(vmm.generation(), 2);
        assert!(vmm.is_running());
    }

    #[test]
    fn quick_reload_reserves_before_allocating() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let dom_ranges = dom.p2m.machine_ranges();
        vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
        let id = dom.id;
        let mut domains = BTreeMap::from([(dom.id, dom)]);
        vmm.stage_next_image(XexecImage::build(2));
        vmm.quick_reload(&mut domains, &[id]).unwrap();
        // A fresh allocation in the new instance must avoid the frozen
        // domain's frames.
        let scratch = vmm.ram.allocate(FRAMES_PER_GIB).unwrap();
        for s in &scratch {
            for d in &dom_ranges {
                assert!(!s.overlaps(d), "new allocation {s} stole frozen {d}");
            }
        }
    }

    #[test]
    fn wrong_order_reload_corrupts_and_is_detected() {
        let (mut vmm, mut contents) = setup(2);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let before = vmm.domain_digest(&dom, &contents);
        vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
        // Scratch bigger than the free space forces the buggy allocator
        // into the frozen image.
        let free = vmm.ram().free_frames();
        let id = dom.id;
        let mut domains = BTreeMap::from([(dom.id, dom)]);
        vmm.quick_reload_wrong_order(
            &mut domains,
            &[id],
            &mut contents,
            free + FRAMES_PER_GIB / 2,
        )
        .unwrap();
        let after = vmm.domain_digest(&domains[&id], &contents);
        assert_ne!(after, before, "digest must expose the corruption");
    }

    #[test]
    fn hardware_reset_destroys_everything() {
        let (mut vmm, mut contents) = setup(4);
        let mut domains = BTreeMap::new();
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
        domains.insert(dom.id, dom);
        vmm.hardware_reset(&mut domains, &mut contents);
        let dom = domains.get_mut(&DomainId(1)).unwrap();
        assert!(dom.p2m.is_empty());
        assert!(dom.exec_state.is_none());
        // Resume after a hardware reset must fail.
        assert!(matches!(
            vmm.on_memory_resume(dom),
            Err(VmmError::BadDomainState(_, _))
        ));
        assert_eq!(vmm.generation(), 2);
    }

    #[test]
    fn resume_without_suspend_fails() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        assert!(matches!(
            vmm.on_memory_resume(&mut dom),
            Err(VmmError::BadDomainState(_, _))
        ));
    }

    #[test]
    fn heap_leak_injection_ages_the_vmm() {
        let (mut vmm, mut contents) = setup(8);
        vmm.leak_per_domain_destroy = 1024;
        let free0 = vmm.heap().free_bytes();
        for i in 0..10 {
            let mut dom = make_dom(10 + i, 1);
            vmm.create_domain(&mut dom, &mut contents).unwrap();
            vmm.destroy_domain(&mut dom, &mut contents).unwrap();
        }
        assert_eq!(vmm.heap().leaked_bytes(), 10 * 1024);
        assert_eq!(vmm.heap().free_bytes(), free0 - 10 * 1024);
        // Rejuvenation clears the leak.
        vmm.hardware_reset(&mut BTreeMap::new(), &mut contents);
        assert_eq!(vmm.heap().leaked_bytes(), 0);
    }

    #[test]
    fn multi_domain_isolation_holds_across_reload() {
        let (mut vmm, mut contents) = setup(8);
        let mut domains: BTreeMap<DomainId, Domain> = BTreeMap::new();
        for i in 1..=4 {
            let mut dom = make_dom(i, 1);
            vmm.create_domain(&mut dom, &mut contents).unwrap();
            vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
            domains.insert(dom.id, dom);
        }
        Vmm::check_domain_isolation(&domains).unwrap();
        let digests: Vec<u64> = domains
            .values()
            .map(|d| vmm.domain_digest(d, &contents))
            .collect();
        let ids: Vec<DomainId> = domains.keys().copied().collect();
        vmm.stage_next_image(XexecImage::build(2));
        vmm.quick_reload(&mut domains, &ids).unwrap();
        Vmm::check_domain_isolation(&domains).unwrap();
        let after: Vec<u64> = domains
            .values()
            .map(|d| vmm.domain_digest(d, &contents))
            .collect();
        assert_eq!(digests, after);
    }

    #[test]
    fn balloon_cycle_keeps_table_correct_across_reload() {
        // §4.1: "Even when the total size of pseudo-physical memory is
        // larger than that of machine memory due to using a ballooning
        // technique, this table can maintain the mapping properly."
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 2);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let free0 = vmm.ram().free_frames();
        // Balloon half the domain out...
        vmm.balloon_out(&mut dom, &mut contents, FRAMES_PER_GIB)
            .unwrap();
        assert_eq!(vmm.ram().free_frames(), free0 + FRAMES_PER_GIB);
        assert_eq!(dom.p2m.total_pages(), FRAMES_PER_GIB);
        // ...then a quarter back in.
        vmm.balloon_in(&mut dom, &mut contents, FRAMES_PER_GIB / 2)
            .unwrap();
        assert_eq!(dom.p2m.total_pages(), FRAMES_PER_GIB + FRAMES_PER_GIB / 2);
        dom.p2m.check_machine_disjoint().unwrap();
        // The ballooned domain survives a warm cycle intact.
        let before = vmm.domain_digest(&dom, &contents);
        vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
        let id = dom.id;
        let mut domains = BTreeMap::from([(id, dom)]);
        vmm.stage_next_image(XexecImage::build(2));
        vmm.quick_reload(&mut domains, &[id]).unwrap();
        let dom = domains.get_mut(&id).unwrap();
        vmm.on_memory_resume(dom).unwrap();
        assert_eq!(vmm.domain_digest(dom, &contents), before);
    }

    #[test]
    fn balloon_out_too_many_pages_fails() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let err = vmm
            .balloon_out(&mut dom, &mut contents, 2 * FRAMES_PER_GIB)
            .unwrap_err();
        assert!(matches!(err, VmmError::P2m(_)));
        assert_eq!(dom.p2m.total_pages(), FRAMES_PER_GIB, "unchanged on error");
    }

    #[test]
    fn balloon_in_fails_when_machine_memory_exhausted() {
        let (mut vmm, mut contents) = setup(2);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let free = vmm.ram().free_frames();
        let err = vmm
            .balloon_in(&mut dom, &mut contents, free + 1)
            .unwrap_err();
        assert!(matches!(err, VmmError::Memory(_)));
    }

    #[test]
    fn ballooned_out_pages_are_scrubbed() {
        let (mut vmm, mut contents) = setup(4);
        let mut dom = make_dom(1, 1);
        vmm.create_domain(&mut dom, &mut contents).unwrap();
        let top_pfn = Pfn(dom.p2m.total_pages() - 1);
        let top_mfn = dom.p2m.lookup(top_pfn).unwrap();
        assert!(contents.read(top_mfn).is_some());
        vmm.balloon_out(&mut dom, &mut contents, 16).unwrap();
        assert_eq!(contents.read(top_mfn), None, "released frames are scrubbed");
    }

    #[test]
    fn frames_for_helper() {
        assert_eq!(Vmm::frames_for(gib(1)), FRAMES_PER_GIB);
    }
}
