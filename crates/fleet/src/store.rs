//! The central placement store: which VM lives on which host.
//!
//! One [`PlacementStore`] is the fleet's single source of truth for VM
//! residency. It is deliberately plain `Vec` state — no hash maps, no
//! interior mutability — so iteration order (and therefore every consumer
//! of it) is deterministic, and the hot-path operations are O(1) except
//! the per-host VM list edits, which are O(VMs-on-host).
//!
//! Capacity is reservation-based: a migrating VM holds a slot on **both**
//! its source (where it still resides) and its target (where it will
//! land), so concurrent evacuations can never oversubscribe a host — the
//! invariant the placement property tests pin down.
//!
//! The store also keeps a [`FreeSlots`] index — one bitset per used-slot
//! level over the serving hosts with a free slot — updated in O(1)
//! wherever occupancy or a host's serving flag changes, so placement
//! policies answer with word operations instead of a scan over every host
//! (DESIGN.md §16).

/// Where a VM is, from the store's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Resident and accounted on `host`.
    Placed {
        /// The VM's host.
        host: u32,
    },
    /// Live migration in flight: resident on `from`, slot reserved on `to`.
    Migrating {
        /// Source host (still runs the VM).
        from: u32,
        /// Target host (slot reserved).
        to: u32,
    },
    /// Departed; the id is never reused.
    Gone,
}

/// Bits per index word.
const WORD: u32 = u64::BITS;

/// The free-slot index: for every used-slot level `0..capacity`, a bitset
/// over the hosts that are serving and have exactly that many slots used,
/// plus each level's host count.
///
/// A host sits in at most one level, and in none when it is full or not
/// serving, so "serving with a free slot" is the union of the levels and
/// "fullest host that fits" is the highest non-empty one. Bits past the
/// last host are always clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeSlots {
    words: usize,
    /// One row of `words` words per level, level-major.
    bits: Vec<u64>,
    /// Hosts per level (lets searches skip empty levels).
    counts: Vec<u32>,
}

impl FreeSlots {
    fn zeroed(hosts: u32, capacity: u32) -> Self {
        let words = hosts.div_ceil(WORD) as usize;
        FreeSlots {
            words,
            bits: vec![0; capacity as usize * words],
            counts: vec![0; capacity as usize],
        }
    }

    /// An index with all `hosts` hosts serving and empty, filled a word at
    /// a time.
    fn all_empty(hosts: u32, capacity: u32) -> Self {
        let mut free = FreeSlots::zeroed(hosts, capacity);
        if let Some(count) = free.counts.first_mut() {
            *count = hosts;
            let level0 = &mut free.bits[..free.words];
            level0.fill(!0);
            if let (Some(last), tail @ 1..) = (level0.last_mut(), hosts % WORD) {
                *last = (1u64 << tail) - 1;
            }
        }
        free
    }

    /// The index of `used.len()` hosts with `used[h]` slots taken, where
    /// only the hosts with `serving[h]` accept VMs — the reference the
    /// incrementally maintained index must always equal.
    ///
    /// # Panics
    ///
    /// Panics if `used` and `serving` differ in length.
    pub fn build(capacity: u32, used: &[u32], serving: &[bool]) -> Self {
        assert_eq!(used.len(), serving.len(), "one serving flag per host");
        let mut free = FreeSlots::zeroed(used.len() as u32, capacity);
        for (h, (&u, &on)) in used.iter().zip(serving).enumerate() {
            if on {
                free.insert(h as u32, u);
            }
        }
        free
    }

    /// The bitsets of the non-empty levels, fewest used slots first: each
    /// holds the serving hosts with one particular number of slots taken,
    /// host `h` as bit `h % 64` of word `h / 64`.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = &[u64]> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, hosts)| **hosts > 0)
            .map(|(l, _)| &self.bits[l * self.words..(l + 1) * self.words])
    }

    /// Level `used`'s host count, the word holding `host` in it, and the
    /// host's bit; `None` for a full host, which sits in no level.
    fn cell(&mut self, host: u32, used: u32) -> Option<(&mut u32, &mut u64, u64)> {
        let count = self.counts.get_mut(used as usize)?;
        let word = &mut self.bits[used as usize * self.words + (host / WORD) as usize];
        Some((count, word, 1u64 << (host % WORD)))
    }

    /// Adds `host` at level `used`.
    fn insert(&mut self, host: u32, used: u32) {
        if let Some((count, word, bit)) = self.cell(host, used) {
            *count += u32::from(*word & bit == 0);
            *word |= bit;
        }
    }

    /// Removes `host` from level `used`.
    fn remove(&mut self, host: u32, used: u32) {
        if let Some((count, word, bit)) = self.cell(host, used) {
            *count -= u32::from(*word & bit != 0);
            *word &= !bit;
        }
    }

    /// Moves `host` from level `from` to level `to`.
    fn relevel(&mut self, host: u32, from: u32, to: u32) {
        self.remove(host, from);
        self.insert(host, to);
    }
}

#[derive(Debug, Clone, Copy)]
struct VmEntry {
    state: VmState,
    peer: Option<u32>,
}

/// The fleet-wide VM → host map plus per-host occupancy.
#[derive(Debug, Clone)]
pub struct PlacementStore {
    capacity: u32,
    /// Slots consumed per host, including migration reservations.
    used: Vec<u32>,
    /// VMs physically resident per host (what a reboot suspends).
    resident: Vec<u32>,
    /// Resident VM ids per host (evacuation lists, pair audits).
    on_host: Vec<Vec<u32>>,
    /// Whether each host accepts new VMs (mirrors the campaign phase).
    serving: Vec<bool>,
    /// Serving hosts with a free slot, by used-slot level.
    free: FreeSlots,
    vms: Vec<VmEntry>,
    live: u32,
    peak_live: u32,
    max_used: u32,
}

impl PlacementStore {
    /// An empty store for `hosts` hosts of `capacity` slots each, every
    /// host serving.
    pub fn new(hosts: u32, capacity: u32) -> Self {
        PlacementStore {
            capacity,
            used: vec![0; hosts as usize],
            resident: vec![0; hosts as usize],
            on_host: vec![Vec::new(); hosts as usize],
            serving: vec![true; hosts as usize],
            free: FreeSlots::all_empty(hosts, capacity),
            vms: Vec::new(),
            live: 0,
            peak_live: 0,
            max_used: 0,
        }
    }

    /// Per-host slot capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots consumed per host (including migration reservations).
    pub fn used(&self) -> &[u32] {
        &self.used
    }

    /// The free-slot index placement policies search.
    pub fn free_slots(&self) -> &FreeSlots {
        &self.free
    }

    /// Marks `host` as accepting new VMs (`true`) or not, moving it into
    /// or out of the free-slot index. Occupancy is tracked either way.
    pub fn set_serving(&mut self, host: u32, serving: bool) {
        let h = host as usize;
        if self.serving[h] == serving {
            return;
        }
        self.serving[h] = serving;
        if serving {
            self.free.insert(host, self.used[h]);
        } else {
            self.free.remove(host, self.used[h]);
        }
    }

    /// VMs physically resident on `host`.
    pub fn resident(&self, host: u32) -> u32 {
        self.resident[host as usize]
    }

    /// Resident VM ids on `host`, in placement order.
    pub fn vms_on(&self, host: u32) -> &[u32] {
        &self.on_host[host as usize]
    }

    /// Currently live (placed or migrating) VMs.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// High-water mark of live VMs.
    pub fn peak_live(&self) -> u32 {
        self.peak_live
    }

    /// High-water mark of any host's used slots — the capacity-invariant
    /// audit the property tests read back (must never exceed
    /// [`capacity`](Self::capacity)).
    pub fn max_used(&self) -> u32 {
        self.max_used
    }

    /// The VM's current state.
    pub fn state(&self, vm: u32) -> VmState {
        self.vms[vm as usize].state
    }

    /// The VM's replica peer, if it arrived as half of a pair.
    pub fn peer(&self, vm: u32) -> Option<u32> {
        self.vms[vm as usize].peer
    }

    /// The host a VM currently resides on (source host while migrating).
    pub fn resident_host(&self, vm: u32) -> Option<u32> {
        match self.vms[vm as usize].state {
            VmState::Placed { host } => Some(host),
            VmState::Migrating { from, .. } => Some(from),
            VmState::Gone => None,
        }
    }

    fn occupy(&mut self, host: u32) {
        let h = host as usize;
        let u = self.used[h] + 1;
        assert!(
            u <= self.capacity,
            "host {host} oversubscribed: {u} > {} slots",
            self.capacity
        );
        self.used[h] = u;
        self.max_used = self.max_used.max(u);
        if self.serving[h] {
            self.free.relevel(host, u - 1, u);
        }
    }

    fn release(&mut self, host: u32) {
        let h = host as usize;
        let u = self.used[h] - 1;
        self.used[h] = u;
        if self.serving[h] {
            self.free.relevel(host, u + 1, u);
        }
    }

    /// Places a new VM on `host`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the placement would exceed the host's capacity — the
    /// placement algorithms guarantee they never pick a full host.
    pub fn insert(&mut self, host: u32) -> u32 {
        let vm = self.vms.len() as u32;
        self.occupy(host);
        self.resident[host as usize] += 1;
        self.on_host[host as usize].push(vm);
        self.vms.push(VmEntry {
            state: VmState::Placed { host },
            peer: None,
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        vm
    }

    /// Links two VMs as replica peers.
    pub fn link_pair(&mut self, a: u32, b: u32) {
        self.vms[a as usize].peer = Some(b);
        self.vms[b as usize].peer = Some(a);
    }

    fn drop_resident(&mut self, host: u32, vm: u32) {
        self.resident[host as usize] -= 1;
        let list = &mut self.on_host[host as usize];
        let i = list
            .iter()
            .position(|v| *v == vm)
            // lint:allow(unwrap-panic): resident/on_host are updated together; a miss is store corruption
            .expect("resident VM must be on its host's list");
        list.swap_remove(i);
    }

    /// Removes a departing VM, releasing every slot it holds.
    ///
    /// # Panics
    ///
    /// Panics if the VM is already gone.
    pub fn remove(&mut self, vm: u32) {
        let entry = self.vms[vm as usize];
        match entry.state {
            VmState::Placed { host } => {
                self.release(host);
                self.drop_resident(host, vm);
            }
            VmState::Migrating { from, to } => {
                self.release(from);
                self.release(to);
                self.drop_resident(from, vm);
            }
            // lint:allow(unwrap-panic): documented contract (`# Panics`); double-remove is a caller bug
            VmState::Gone => panic!("VM {vm} removed twice"),
        }
        if let Some(p) = entry.peer {
            self.vms[p as usize].peer = None;
        }
        self.vms[vm as usize].state = VmState::Gone;
        self.vms[vm as usize].peer = None;
        self.live -= 1;
    }

    /// Starts migrating `vm` to `to`: reserves the target slot while the
    /// VM keeps running (and keeps its source slot) on `from`.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not currently placed, the target is the source,
    /// or the reservation would oversubscribe the target.
    pub fn begin_migration(&mut self, vm: u32, to: u32) {
        let VmState::Placed { host: from } = self.vms[vm as usize].state else {
            // lint:allow(unwrap-panic): documented contract (`# Panics`); the caller checks placement first
            panic!("VM {vm} is not in a migratable state");
        };
        assert_ne!(from, to, "migration target must differ from the source");
        self.occupy(to);
        self.vms[vm as usize].state = VmState::Migrating { from, to };
    }

    /// Completes a migration: the VM becomes resident on its target and
    /// the source slot is released.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not migrating.
    pub fn finish_migration(&mut self, vm: u32) {
        let VmState::Migrating { from, to } = self.vms[vm as usize].state else {
            // lint:allow(unwrap-panic): documented contract (`# Panics`); only migration completions land here
            panic!("VM {vm} is not migrating");
        };
        self.release(from);
        self.drop_resident(from, vm);
        self.resident[to as usize] += 1;
        self.on_host[to as usize].push(vm);
        self.vms[vm as usize].state = VmState::Placed { host: to };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_depart_roundtrip_frees_slots() {
        let mut s = PlacementStore::new(2, 2);
        let a = s.insert(0);
        let b = s.insert(0);
        assert_eq!(s.used(), &[2, 0]);
        assert_eq!(s.resident(0), 2);
        assert_eq!(s.live(), 2);
        s.remove(a);
        assert_eq!(s.used(), &[1, 0]);
        assert_eq!(s.vms_on(0), &[b]);
        s.remove(b);
        assert_eq!(s.live(), 0);
        assert_eq!(s.peak_live(), 2);
        assert_eq!(s.max_used(), 2);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn overcommit_panics() {
        let mut s = PlacementStore::new(1, 1);
        s.insert(0);
        s.insert(0);
    }

    #[test]
    fn migration_reserves_both_ends() {
        let mut s = PlacementStore::new(2, 2);
        let vm = s.insert(0);
        s.begin_migration(vm, 1);
        assert_eq!(s.used(), &[1, 1], "double-booked while in flight");
        assert_eq!(s.resident(0), 1, "still resident at the source");
        assert_eq!(s.state(vm), VmState::Migrating { from: 0, to: 1 });
        assert_eq!(s.resident_host(vm), Some(0));
        s.finish_migration(vm);
        assert_eq!(s.used(), &[0, 1]);
        assert_eq!(s.resident(1), 1);
        assert_eq!(s.vms_on(1), &[vm]);
        assert_eq!(s.state(vm), VmState::Placed { host: 1 });
    }

    #[test]
    fn departing_mid_migration_releases_both_slots() {
        let mut s = PlacementStore::new(2, 1);
        let vm = s.insert(0);
        s.begin_migration(vm, 1);
        s.remove(vm);
        assert_eq!(s.used(), &[0, 0]);
        assert_eq!(s.state(vm), VmState::Gone);
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn pairs_link_and_unlink() {
        let mut s = PlacementStore::new(2, 1);
        let a = s.insert(0);
        let b = s.insert(1);
        s.link_pair(a, b);
        assert_eq!(s.peer(a), Some(b));
        assert_eq!(s.peer(b), Some(a));
        s.remove(a);
        assert_eq!(s.peer(b), None, "survivor is unlinked");
    }

    #[test]
    fn ids_are_never_reused() {
        let mut s = PlacementStore::new(1, 4);
        let a = s.insert(0);
        s.remove(a);
        let b = s.insert(0);
        assert_ne!(a, b);
    }
}
