//! Property-based tests over the core invariants listed in DESIGN.md §7.
//!
//! Ported from `proptest` to the in-repo [`rh_sim::testkit`] harness
//! (README §"Hermetic build"): each property is a closure over a seeded
//! [`Gen`], failures report the case seed and shrink by halving the
//! generation scale, and `TESTKIT_SEED=0x…` replays a single case.

use rh_sim::testkit::{check, Config, Gen};
use rh_sim::{prop_ensure, prop_ensure_eq};
use roothammer::memory::contents::FrameContents;
use roothammer::memory::frame::{FrameRange, Mfn, Pfn, FRAMES_PER_GIB};
use roothammer::memory::machine::MachineMemory;
use roothammer::memory::p2m::P2mTable;
use roothammer::prelude::*;
use roothammer::sim::resource::PsResource;
use roothammer::sim::time::SimTime;
use roothammer::storage::image::{logical_digest, MemoryImage};
use roothammer::vmm::domain::Domain;
use roothammer::vmm::vmm::Vmm;

/// The allocator never hands out overlapping ranges and conserves
/// frames across arbitrary allocate/release interleavings.
#[test]
fn allocator_conserves_frames() {
    check(
        "allocator_conserves_frames",
        &Config::default(),
        |g: &mut Gen| {
            let ops = g.vec_of(1, 40, |g| g.u64_in(0, 400));
            let total = 4096;
            let mut ram = MachineMemory::new(total);
            let mut live: Vec<Vec<FrameRange>> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let victim = live.remove((*op as usize) % live.len());
                    ram.release(&victim).unwrap();
                } else if let Ok(ranges) = ram.allocate(*op) {
                    // No overlap with anything live.
                    for r in &ranges {
                        for group in &live {
                            for l in group {
                                prop_ensure!(!r.overlaps(l), "{r} overlaps {l}");
                            }
                        }
                    }
                    live.push(ranges);
                }
            }
            let live_frames: u64 = live.iter().flatten().map(|r| r.count).sum();
            prop_ensure_eq!(ram.allocated_frames(), live_frames);
            prop_ensure!(
                ram.check_invariants().is_ok(),
                "allocator invariants violated"
            );
            Ok(())
        },
    );
}

/// P2M lookup agrees with a naive model under random map/unmap.
#[test]
fn p2m_matches_naive_model() {
    check(
        "p2m_matches_naive_model",
        &Config::default(),
        |g: &mut Gen| {
            let segments = g.vec_of(1, 12, |g| (g.u64_in(0, 64), g.u64_in(1, 16)));
            let mut table = P2mTable::new();
            let mut model = std::collections::BTreeMap::new();
            let mut next_mfn = 1000u64;
            for (slot, count) in segments {
                let pfn_start = slot * 16;
                let range = FrameRange::new(Mfn(next_mfn), count);
                if table.map(Pfn(pfn_start), range).is_ok() {
                    for i in 0..count {
                        model.insert(pfn_start + i, next_mfn + i);
                    }
                    next_mfn += count;
                }
            }
            for pfn in 0..1200u64 {
                prop_ensure_eq!(
                    table.lookup(Pfn(pfn)),
                    model.get(&pfn).map(|&m| Mfn(m)),
                    "pfn {}",
                    pfn
                );
            }
            prop_ensure_eq!(table.total_pages(), model.len() as u64);
            Ok(())
        },
    );
}

/// Memory images restore bit-identically onto arbitrary new layouts.
#[test]
fn memory_image_round_trips() {
    check(
        "memory_image_round_trips",
        &Config::default(),
        |g: &mut Gen| {
            let pages = g.u64_in(16, 256);
            let writes = g.vec_of(0, 20, |g| (g.u64_in(0, 256), g.any_u64()));
            let hole = g.u64_in(1, 64);
            let mut ram = MachineMemory::new(1 << 14);
            let mut mem = FrameContents::new();
            let frames = ram.allocate(pages).unwrap();
            let mut p2m = P2mTable::new();
            p2m.map_contiguous(Pfn(0), &frames).unwrap();
            for r in &frames {
                mem.fill_pattern(*r, 0xAB);
            }
            for (pfn, value) in &writes {
                if *pfn < pages {
                    let mfn = p2m.lookup(Pfn(*pfn)).unwrap();
                    mem.write(mfn, *value);
                }
            }
            let before = logical_digest(&p2m, &mem);
            let image = MemoryImage::capture(&p2m, &mem);
            // Fragment the free space so the new allocation lands elsewhere.
            let shim = ram.allocate(hole).unwrap();
            let frames2 = ram.allocate(pages).unwrap();
            ram.release(&shim).unwrap();
            let mut p2m2 = P2mTable::new();
            p2m2.map_contiguous(Pfn(0), &frames2).unwrap();
            image.restore(&p2m2, &mut mem).unwrap();
            prop_ensure_eq!(logical_digest(&p2m2, &mem), before);
            Ok(())
        },
    );
}

/// Processor sharing conserves work for arbitrary job mixes.
#[test]
fn ps_resource_conserves_work() {
    check(
        "ps_resource_conserves_work",
        &Config::default(),
        |g: &mut Gen| {
            let jobs = g.vec_of(1, 20, |g| g.f64_in(1.0, 1000.0));
            let mut r = PsResource::new(100.0).with_contention_penalty(0.1);
            let mut now = SimTime::ZERO;
            for w in &jobs {
                r.submit(now, *w);
            }
            let mut drained = 0;
            while let Some(next) = r.next_completion(now) {
                now = next;
                drained += r.take_completed(now).len();
            }
            prop_ensure_eq!(drained, jobs.len());
            let total: f64 = jobs.iter().sum();
            prop_ensure!(
                (r.total_completed_work() - total).abs() < total * 1e-6 + 1e-3,
                "work not conserved: completed {} vs submitted {}",
                r.total_completed_work(),
                total
            );
            Ok(())
        },
    );
}

/// Quick reload preserves digests for arbitrary multi-domain layouts.
#[test]
fn quick_reload_preserves_arbitrary_layouts() {
    check(
        "quick_reload_preserves_arbitrary_layouts",
        &Config::default(),
        |g: &mut Gen| {
            let sizes = g.vec_of(1, 6, |g| g.u64_in(32, 512));
            let mut vmm = Vmm::new(2 * FRAMES_PER_GIB);
            let mut contents = FrameContents::new();
            let mut domains = std::collections::BTreeMap::new();
            for (i, pages) in sizes.iter().enumerate() {
                let id = DomainId(i as u32 + 1);
                let spec = DomainSpec::standard(format!("vm{i}"), ServiceKind::Ssh)
                    .with_mem_bytes(pages * 4096);
                let mut dom = Domain::new(id, spec, 0);
                vmm.create_domain(&mut dom, &mut contents).unwrap();
                vmm.on_memory_suspend(&mut dom, 16 * 1024).unwrap();
                domains.insert(id, dom);
            }
            let before: Vec<u64> = domains
                .values()
                .map(|d| vmm.domain_digest(d, &contents))
                .collect();
            let ids: Vec<DomainId> = domains.keys().copied().collect();
            vmm.stage_next_image(roothammer::vmm::xexec::XexecImage::build(2));
            vmm.quick_reload(&mut domains, &ids).unwrap();
            let after: Vec<u64> = domains
                .values()
                .map(|d| vmm.domain_digest(d, &contents))
                .collect();
            prop_ensure_eq!(before, after);
            prop_ensure!(
                Vmm::check_domain_isolation(&domains).is_ok(),
                "domain isolation violated after quick reload"
            );
            Ok(())
        },
    );
}

/// The cluster rejuvenation planner always satisfies its own
/// constraints, covers every host exactly once, and its makespan
/// scales with downtime.
#[test]
fn rejuvenation_plans_satisfy_constraints() {
    check(
        "rejuvenation_plans_satisfy_constraints",
        &Config::default(),
        |g: &mut Gen| {
            let hosts = g.u32_in(1, 40);
            let downtime_secs = g.u64_in(5, 600);
            let max_down = g.u32_in(1, 6);
            let floor_pct = g.u32_in(0, 80);
            use roothammer::cluster::schedule::{plan_uniform, verify, ScheduleConstraints};
            let constraints = ScheduleConstraints {
                max_down,
                capacity_floor: floor_pct as f64 / 100.0,
                slack: SimDuration::from_secs(5),
            };
            match plan_uniform(hosts, SimDuration::from_secs(downtime_secs), &constraints) {
                Ok(plan) => {
                    prop_ensure!(
                        verify(&plan, hosts, &constraints).is_ok(),
                        "plan fails its own verify"
                    );
                    prop_ensure!(
                        plan.peak_down <= max_down,
                        "peak {} > max {max_down}",
                        plan.peak_down
                    );
                    prop_ensure!(
                        plan.makespan >= SimDuration::from_secs(downtime_secs),
                        "makespan shorter than a single downtime"
                    );
                }
                Err(_) => {
                    // Only tight floors may make planning impossible.
                    let allowed = ((1.0 - floor_pct as f64 / 100.0) * hosts as f64).floor();
                    prop_ensure!(allowed < 1.0, "spurious planning failure");
                }
            }
            Ok(())
        },
    );
}

/// The LRU page cache agrees with a naive reference model under
/// arbitrary access/insert/clear interleavings, at capacities from none
/// (including one smaller than a chunk) to 20 chunks and key ranges from
/// a handful to a few thousand chunks. File ids are dense from 0 half the
/// time, and otherwise sparse up to 10,000 (the Fig. 8(b) corpus), which
/// grows the cache's slot table in jumps.
#[test]
fn page_cache_matches_reference_lru() {
    check(
        "page_cache_matches_reference_lru",
        &Config::default(),
        |g: &mut Gen| {
            use roothammer::guest::pagecache::{ChunkKey, PageCache};
            const CHUNK: u64 = 1024;
            // Whole chunks plus, half the time, a fraction of one that
            // must go unused.
            let capacity_chunks = g.usize_in(0, 21);
            let slack = if g.any_bool() { g.u64_in(1, CHUNK) } else { 0 };
            let mut cache =
                PageCache::with_chunk_size(capacity_chunks as u64 * CHUNK + slack, CHUNK);
            let (files, chunks) = (g.u32_in(1, 64), g.u32_in(1, 48));
            let file_ids: Vec<u32> = if g.any_bool() {
                (0..files).collect()
            } else {
                (0..files).map(|_| g.u32_in(0, 10_001)).collect()
            };
            // 0 = clear, 1..=19 = insert, 20..40 = access.
            let ops = g.vec_of(1, 300, |g| {
                let file = file_ids[g.usize_in(0, file_ids.len())];
                (g.u32_in(0, 40), file, g.u32_in(0, chunks))
            });
            // Reference: Vec kept in LRU order (front = oldest).
            let mut model: Vec<ChunkKey> = Vec::new();
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            for (op, file, chunk) in ops {
                let key = ChunkKey { file, chunk };
                let cached = model.contains(&key);
                match op {
                    0 => {
                        cache.clear();
                        model.clear();
                    }
                    1..=19 => {
                        cache.insert(key);
                        if cached || capacity_chunks > 0 {
                            model.retain(|k| *k != key);
                            if model.len() == capacity_chunks {
                                model.remove(0);
                                evictions += 1;
                            }
                            model.push(key);
                        }
                    }
                    _ => {
                        prop_ensure_eq!(cache.access(key), cached, "access {:?}", key);
                        if cached {
                            hits += 1;
                            model.retain(|k| *k != key);
                            model.push(key);
                        } else {
                            misses += 1;
                        }
                    }
                }
                prop_ensure_eq!(cache.len(), model.len());
                prop_ensure_eq!(cache.used_bytes(), model.len() as u64 * CHUNK);
                prop_ensure_eq!(
                    (cache.hits(), cache.misses(), cache.evictions()),
                    (hits, misses, evictions)
                );
                for k in &model {
                    prop_ensure!(cache.contains(*k), "model has {:?} but cache lost it", k);
                }
            }
            // The survivors leave in LRU order: once the cache is full,
            // each fresh key evicts the oldest of them.
            let fresh = |i: usize| ChunkKey {
                file: files,
                chunk: i as u32,
            };
            for i in model.len()..capacity_chunks {
                cache.insert(fresh(i));
            }
            for (i, k) in model.iter().enumerate() {
                prop_ensure!(cache.contains(*k), "{:?} left too early", k);
                cache.insert(fresh(capacity_chunks + i));
                prop_ensure!(!cache.contains(*k), "{:?} outlived a newer chunk", k);
            }
            Ok(())
        },
    );
}

/// Latency histograms bracket exact percentiles from above by at most
/// one power-of-two bucket.
#[test]
fn histogram_percentiles_bracket_exact() {
    check(
        "histogram_percentiles_bracket_exact",
        &Config::default(),
        |g: &mut Gen| {
            let samples = g.vec_of(1, 300, |g| g.u64_in(1, 10_000_000));
            use roothammer::sim::histogram::LatencyHistogram;
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(SimDuration::from_micros(s));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [10.0, 50.0, 90.0, 99.0, 100.0] {
                let rank = (((p / 100.0) * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let bucketed = h.percentile(p).unwrap().as_micros();
                prop_ensure!(
                    bucketed >= exact,
                    "p{p}: bucketed {bucketed} < exact {exact}"
                );
                prop_ensure!(
                    bucketed <= exact.next_power_of_two().max(1),
                    "p{p}: over-wide bracket ({bucketed} > {})",
                    exact.next_power_of_two().max(1)
                );
            }
            Ok(())
        },
    );
}

// Whole-host simulations are heavier; fewer cases (the old
// `ProptestConfig::with_cases(8)` group).

/// The paper's ordering warm < cold < saved holds for arbitrary small
/// configurations, and warm/saved never corrupt memory.
#[test]
fn downtime_ordering_holds_for_arbitrary_configs() {
    check(
        "downtime_ordering_holds_for_arbitrary_configs",
        &Config::with_cases(8),
        |g: &mut Gen| {
            let n = g.u32_in(1, 6);
            let jboss = g.any_bool();
            let service = if jboss {
                ServiceKind::Jboss
            } else {
                ServiceKind::Ssh
            };
            let warm = booted_host(n, service).reboot_and_wait(RebootStrategy::Warm);
            let cold = booted_host(n, service).reboot_and_wait(RebootStrategy::Cold);
            let saved = booted_host(n, service).reboot_and_wait(RebootStrategy::Saved);
            prop_ensure!(
                warm.mean_downtime() < cold.mean_downtime(),
                "warm !< cold at n={n}"
            );
            prop_ensure!(
                cold.mean_downtime() < saved.mean_downtime(),
                "cold !< saved at n={n}"
            );
            prop_ensure!(warm.corrupted.is_empty(), "warm reboot corrupted memory");
            prop_ensure!(saved.corrupted.is_empty(), "saved reboot corrupted memory");
            Ok(())
        },
    );
}

/// r(n) > 0: the analytic saving derived from any measured sweep of
/// this simulator stays positive (the paper's §5.6 conclusion).
#[test]
fn measured_saving_is_positive() {
    check(
        "measured_saving_is_positive",
        &Config::with_cases(8),
        |g: &mut Gen| {
            let alpha = g.f64_in(0.05, 1.0);
            let model = roothammer::rejuv::model::DowntimeModel::paper();
            for n in 1..=16 {
                prop_ensure!(
                    model.saving(n as f64, alpha) > 0.0,
                    "r({n}) <= 0 at alpha {alpha}"
                );
            }
            Ok(())
        },
    );
}

/// Arbitrary reboot sequences leave the host consistent: memory
/// digests unchanged across every warm/saved segment, guests rebooted
/// exactly once per cold segment, generation = power-on + reboots.
#[test]
fn arbitrary_reboot_sequences_stay_consistent() {
    check(
        "arbitrary_reboot_sequences_stay_consistent",
        &Config::with_cases(8),
        |g: &mut Gen| {
            let seq = g.vec_of(1, 5, |g| g.u32_in(0, 3) as u8);
            let mut sim = booted_host(2, ServiceKind::Ssh);
            let mut expected_boots = 1u64;
            for s in &seq {
                let strategy = match s {
                    0 => RebootStrategy::Warm,
                    1 => RebootStrategy::Saved,
                    _ => RebootStrategy::Cold,
                };
                let digest_before = sim.host().domain_digest(DomainId(1)).unwrap();
                let report = sim.reboot_and_wait(strategy);
                prop_ensure!(report.corrupted.is_empty(), "{strategy} corrupted memory");
                prop_ensure!(
                    sim.host().all_services_up(),
                    "services down after {strategy}"
                );
                let digest_after = sim.host().domain_digest(DomainId(1)).unwrap();
                match strategy {
                    RebootStrategy::Cold => {
                        expected_boots += 1;
                        prop_ensure!(
                            digest_before != digest_after,
                            "cold reboot left the digest unchanged"
                        );
                    }
                    _ => prop_ensure_eq!(
                        digest_before,
                        digest_after,
                        "{} changed the digest",
                        strategy
                    ),
                }
            }
            prop_ensure_eq!(sim.host().vmm().generation(), 1 + seq.len() as u64);
            prop_ensure_eq!(
                sim.host().domain(DomainId(1)).unwrap().kernel.boots(),
                expected_boots
            );
            Ok(())
        },
    );
}
