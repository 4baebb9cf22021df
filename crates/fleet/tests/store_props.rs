//! `PlacementStore` against a per-host list model.
//!
//! The model keeps each host's resident VMs as its own `Vec`, edited
//! with `push` on arrival and `swap_remove` on departure, which is the
//! order `vms_on` promises: evacuations migrate in it and pair audits
//! read it, so the store must reproduce it exactly, whatever its own
//! layout. Random sequences of inserts, removals, migrations, serving
//! changes and pair links run on both, and after every step the store's
//! every observable must equal the model's.

use rh_fleet::store::{FreeSlots, PlacementStore, VmState};
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::{prop_ensure, prop_ensure_eq};

/// The reference: per-host lists and per-VM records, nothing shared.
struct Model {
    capacity: u32,
    used: Vec<u32>,
    on_host: Vec<Vec<u32>>,
    serving: Vec<bool>,
    state: Vec<VmState>,
    peer: Vec<Option<u32>>,
    live: u32,
    peak_live: u32,
    max_used: u32,
}

impl Model {
    fn new(hosts: u32, capacity: u32) -> Self {
        Model {
            capacity,
            used: vec![0; hosts as usize],
            on_host: vec![Vec::new(); hosts as usize],
            serving: vec![true; hosts as usize],
            state: Vec::new(),
            peer: Vec::new(),
            live: 0,
            peak_live: 0,
            max_used: 0,
        }
    }

    fn occupy(&mut self, host: u32) {
        self.used[host as usize] += 1;
        self.max_used = self.max_used.max(self.used[host as usize]);
    }

    fn leave(&mut self, host: u32, vm: u32) {
        let list = &mut self.on_host[host as usize];
        let i = list.iter().position(|v| *v == vm).expect("resident");
        list.swap_remove(i);
    }

    fn insert(&mut self, host: u32) -> u32 {
        let vm = self.state.len() as u32;
        self.occupy(host);
        self.on_host[host as usize].push(vm);
        self.state.push(VmState::Placed { host });
        self.peer.push(None);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        vm
    }

    fn remove(&mut self, vm: u32) {
        match self.state[vm as usize] {
            VmState::Placed { host } => {
                self.used[host as usize] -= 1;
                self.leave(host, vm);
            }
            VmState::Migrating { from, to } => {
                self.used[from as usize] -= 1;
                self.used[to as usize] -= 1;
                self.leave(from, vm);
            }
            VmState::Gone => unreachable!("only live VMs are removed"),
        }
        if let Some(p) = self.peer[vm as usize].take() {
            self.peer[p as usize] = None;
        }
        self.state[vm as usize] = VmState::Gone;
        self.live -= 1;
    }

    fn begin_migration(&mut self, vm: u32, to: u32) {
        let VmState::Placed { host: from } = self.state[vm as usize] else {
            unreachable!("only placed VMs migrate");
        };
        self.occupy(to);
        self.state[vm as usize] = VmState::Migrating { from, to };
    }

    fn finish_migration(&mut self, vm: u32) {
        let VmState::Migrating { from, to } = self.state[vm as usize] else {
            unreachable!("only migrating VMs land");
        };
        self.used[from as usize] -= 1;
        self.leave(from, vm);
        self.on_host[to as usize].push(vm);
        self.state[vm as usize] = VmState::Placed { host: to };
    }

    fn link_pair(&mut self, a: u32, b: u32) {
        self.peer[a as usize] = Some(b);
        self.peer[b as usize] = Some(a);
    }

    /// Hosts with a free slot, other than `except`.
    fn roomy(&self, except: Option<u32>) -> Vec<u32> {
        (0..self.used.len() as u32)
            .filter(|&h| self.used[h as usize] < self.capacity && Some(h) != except)
            .collect()
    }

    /// VM ids whose state satisfies `keep`.
    fn vms(&self, keep: impl Fn(VmState) -> bool) -> Vec<u32> {
        (0..self.state.len() as u32)
            .filter(|&vm| keep(self.state[vm as usize]))
            .collect()
    }

    /// Live VMs without a peer.
    fn unpaired(&self) -> Vec<u32> {
        (0..self.state.len() as u32)
            .filter(|&vm| self.state[vm as usize] != VmState::Gone)
            .filter(|&vm| self.peer[vm as usize].is_none())
            .collect()
    }

    fn resident_host(&self, vm: u32) -> Option<u32> {
        match self.state[vm as usize] {
            VmState::Placed { host } => Some(host),
            VmState::Migrating { from, .. } => Some(from),
            VmState::Gone => None,
        }
    }
}

/// Every observable of `store` against `model`.
fn agree(store: &PlacementStore, model: &Model) -> Result<(), String> {
    prop_ensure_eq!(store.capacity(), model.capacity, "capacity");
    prop_ensure_eq!(store.used(), &model.used[..], "used");
    for (h, list) in model.on_host.iter().enumerate() {
        let host = h as u32;
        prop_ensure_eq!(store.vms_on(host), &list[..], "vms_on({host})");
        prop_ensure_eq!(store.resident(host), list.len() as u32, "resident({host})");
    }
    prop_ensure_eq!(store.live(), model.live, "live");
    prop_ensure_eq!(store.peak_live(), model.peak_live, "peak_live");
    prop_ensure_eq!(store.max_used(), model.max_used, "max_used");
    for vm in 0..model.state.len() as u32 {
        prop_ensure_eq!(store.state(vm), model.state[vm as usize], "state({vm})");
        prop_ensure_eq!(
            store.resident_host(vm),
            model.resident_host(vm),
            "resident_host({vm})"
        );
        prop_ensure_eq!(store.peer(vm), model.peer[vm as usize], "peer({vm})");
    }
    prop_ensure!(
        *store.free_slots() == FreeSlots::build(model.capacity, &model.used, &model.serving),
        "free-slot index differs from a rebuild over the model"
    );
    Ok(())
}

/// One of `xs`, uniformly, or `None` when it is empty.
fn pick(g: &mut Gen, xs: &[u32]) -> Option<u32> {
    (!xs.is_empty()).then(|| xs[g.usize_in(0, xs.len())])
}

/// Random store operations on up to 16 hosts of 1–8 slots, checked
/// against the model after every step. Each step draws one operation
/// kind and applies it where it is legal: an insert or a migration
/// target needs a host with a free slot, a link two distinct live VMs
/// with no peer; a step whose kind has no legal target changes nothing.
#[test]
fn the_store_matches_per_host_lists() {
    check(
        "the_store_matches_per_host_lists",
        &Config::with_cases(256),
        |g: &mut Gen| {
            let hosts = g.u32_in(1, 17);
            let capacity = g.u32_in(1, 9);
            let mut store = PlacementStore::new(hosts, capacity);
            let mut model = Model::new(hosts, capacity);
            let steps = g.usize_in(0, 400);
            for step in 0..steps {
                let placed = |s| matches!(s, VmState::Placed { .. });
                let migrating = |s| matches!(s, VmState::Migrating { .. });
                let op = match g.u32_in(0, 8) {
                    0..=2 => pick(g, &model.roomy(None)).map(|host| {
                        let (vm, expected) = (store.insert(host), model.insert(host));
                        format!("insert vm {vm} (model {expected}) on host {host}")
                    }),
                    3 => pick(g, &model.vms(|s| s != VmState::Gone)).map(|vm| {
                        store.remove(vm);
                        model.remove(vm);
                        format!("remove vm {vm}")
                    }),
                    4 => pick(g, &model.vms(placed)).and_then(|vm| {
                        let to = pick(g, &model.roomy(model.resident_host(vm)))?;
                        store.begin_migration(vm, to);
                        model.begin_migration(vm, to);
                        Some(format!("migrate vm {vm} to host {to}"))
                    }),
                    5 => pick(g, &model.vms(migrating)).map(|vm| {
                        store.finish_migration(vm);
                        model.finish_migration(vm);
                        format!("land vm {vm}")
                    }),
                    6 => {
                        let host = g.u32_in(0, hosts);
                        let on = g.any_bool();
                        store.set_serving(host, on);
                        model.serving[host as usize] = on;
                        Some(format!("serving({host}) = {on}"))
                    }
                    _ => {
                        let unpaired = model.unpaired();
                        pick(g, &unpaired).and_then(|a| {
                            let others: Vec<u32> =
                                unpaired.iter().copied().filter(|&vm| vm != a).collect();
                            let b = pick(g, &others)?;
                            store.link_pair(a, b);
                            model.link_pair(a, b);
                            Some(format!("link vms {a} and {b}"))
                        })
                    }
                }
                .unwrap_or_else(|| "no legal target".into());
                agree(&store, &model).map_err(|e| {
                    format!("{hosts} hosts x {capacity} slots, step {step} ({op}): {e}")
                })?;
            }
            Ok(())
        },
    );
}
