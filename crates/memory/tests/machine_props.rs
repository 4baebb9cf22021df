//! Property test for `rh_memory::machine`: arbitrary SimRng-driven
//! sequences of allocate, reserve_exact, release and hardware_reset,
//! failing calls included, against a model that keeps one free/allocated
//! flag per frame. After every step the running `free_frames()` count must
//! equal the model's free frames, and `check_invariants()` (which also
//! sums the free extents against that count) must pass.

use rh_memory::frame::{FrameRange, Mfn};
use rh_memory::machine::MachineMemory;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::{prop_ensure, prop_ensure_eq};

/// A range anywhere around the machine, possibly past its end.
fn arb_range(g: &mut Gen, total: u64) -> FrameRange {
    FrameRange::new(Mfn(g.u64_in(0, total + 4)), g.u64_in(1, 32))
}

/// A run of allocated frames starting at a random allocated frame, if
/// any frame is allocated.
fn allocated_run(g: &mut Gen, free: &[bool]) -> Option<FrameRange> {
    let allocated: Vec<usize> = (0..free.len()).filter(|&i| !free[i]).collect();
    if allocated.is_empty() {
        return None;
    }
    let start = allocated[g.usize_in(0, allocated.len())];
    let max = g.usize_in(1, 32);
    let len = free[start..].iter().take(max).take_while(|f| !**f).count();
    Some(FrameRange::new(Mfn(start as u64), len as u64))
}

/// The frames of `r`, or `None` if it runs past the machine.
fn frames(r: &FrameRange, total: u64) -> Option<std::ops::Range<usize>> {
    (r.end().0 <= total).then(|| r.start.0 as usize..r.end().0 as usize)
}

#[test]
fn free_count_tracks_the_extents() {
    check(
        "free_count_tracks_the_extents",
        &Config::with_cases(256),
        |g: &mut Gen| {
            let total = g.u64_in(1, 300);
            let mut ram = MachineMemory::new(total);
            let mut free = vec![true; total as usize];
            let steps = g.usize_in(1, 80);
            for step in 0..steps {
                let model_free = free.iter().filter(|f| **f).count() as u64;
                match g.u32_in(0, 10) {
                    0..=2 => {
                        let n = g.u64_in(0, total + 8);
                        match ram.allocate(n) {
                            Ok(ranges) => {
                                // First fit: the n lowest free frames.
                                let expect: Vec<usize> = (0..free.len())
                                    .filter(|&i| free[i])
                                    .take(n as usize)
                                    .collect();
                                let got: Vec<usize> = ranges
                                    .iter()
                                    .flat_map(|r| r.start.0 as usize..r.end().0 as usize)
                                    .collect();
                                prop_ensure_eq!(got, expect, "step {step}: allocate({n})");
                                for i in got {
                                    free[i] = false;
                                }
                            }
                            Err(e) => prop_ensure!(
                                n > model_free,
                                "step {step}: allocate({n}) with {model_free} free: {e}"
                            ),
                        }
                    }
                    3..=5 => {
                        let r = arb_range(g, total);
                        let ok = frames(&r, total).is_some_and(|f| free[f].iter().all(|x| *x));
                        let got = ram.reserve_exact(r);
                        prop_ensure_eq!(got.is_ok(), ok, "step {step}: reserve_exact({r})");
                        if ok {
                            for i in r.start.0..r.end().0 {
                                free[i as usize] = false;
                            }
                        }
                    }
                    6..=8 => {
                        let ranges: Vec<FrameRange> = (0..g.usize_in(1, 4))
                            .map(|_| match g.u32_in(0, 3) {
                                0 => arb_range(g, total),
                                _ => allocated_run(g, &free).unwrap_or_else(|| arb_range(g, total)),
                            })
                            .collect();
                        let all_allocated = ranges
                            .iter()
                            .all(|r| frames(r, total).is_some_and(|f| free[f].iter().all(|x| !*x)));
                        let disjoint = ranges
                            .iter()
                            .enumerate()
                            .all(|(i, a)| ranges[i + 1..].iter().all(|b| !a.overlaps(b)));
                        let ok = all_allocated && disjoint;
                        let got = ram.release(&ranges);
                        prop_ensure_eq!(got.is_ok(), ok, "step {step}: release({ranges:?})");
                        if ok {
                            for r in &ranges {
                                for i in r.start.0..r.end().0 {
                                    free[i as usize] = true;
                                }
                            }
                        }
                    }
                    _ => {
                        ram.hardware_reset();
                        free.fill(true);
                    }
                }
                let model_free = free.iter().filter(|f| **f).count() as u64;
                prop_ensure_eq!(ram.free_frames(), model_free, "step {step}: free count");
                prop_ensure_eq!(ram.allocated_frames(), total - model_free, "step {step}");
                if let Err(e) = ram.check_invariants() {
                    return Err(format!("step {step}: {e}"));
                }
            }
            Ok(())
        },
    );
}
