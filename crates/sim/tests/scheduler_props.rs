//! Property test: the engine fires exactly the events the world still
//! calls live, in stable `(time, insertion)` order.
//!
//! Few distinct timestamps make ties common, so every case exercises the
//! FIFO tie-break. A `run_for` deadline splits each run: on an event time,
//! one microsecond before one, or in between, a third of the cases each,
//! so an off-by-one at the deadline shows. A quarter of the events go stale
//! through [`World::is_live`], half of those before the split and half
//! after it. At the split and at the end the checks cover the fired order,
//! `fired()`, `pending()` (stale entries still queued included) and the
//! clock, and after the split `peek_next_time()`: a stale entry never
//! fires, never moves the clock and never counts as fired.

use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::prop_ensure_eq;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::{SimDuration, SimTime};

/// Records every event it fires; `stale[id]` makes event `id` stale.
struct Recorder {
    stale: Vec<bool>,
    seen: Vec<(SimTime, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, sched: &mut Scheduler<u32>, event: u32) {
        self.seen.push((sched.now(), event));
    }

    fn is_live(&self, event: &u32) -> bool {
        !self.stale[*event as usize]
    }
}

/// What becomes of a scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Live,
    /// Made stale before the `run_for` split.
    StaleEarly,
    /// Made stale after the split: it fires only if due by then.
    StaleLate,
}

fn mark_stale(sim: &mut Simulation<Recorder>, script: &[(SimTime, u32, Fate)], fate: Fate) {
    for &(_, id, f) in script {
        if f == fate {
            sim.world_mut().stale[id as usize] = true;
        }
    }
}

#[test]
fn scheduler_fires_survivors_in_stable_time_order() {
    check(
        "scheduler_fires_survivors_in_stable_time_order",
        &Config::default(),
        |g: &mut Gen| {
            let n = g.usize_in(0, 300);
            let ticks = g.u64_in(1, 20);
            let script: Vec<(SimTime, u32, Fate)> = (0..n as u32)
                .map(|id| {
                    let at = SimTime::from_micros(g.u64_in(0, ticks) * 100);
                    let fate = if !g.rng().chance(0.25) {
                        Fate::Live
                    } else if g.any_bool() {
                        Fate::StaleEarly
                    } else {
                        Fate::StaleLate
                    };
                    (at, id, fate)
                })
                .collect();
            let tick = g.u64_in(0, ticks + 1) * 100;
            let split_us = match g.u64_in(0, 3) {
                0 => tick,
                1 => tick + 99,
                _ => tick + g.u64_in(1, 99),
            };
            let split = SimDuration::from_micros(split_us);
            let deadline = SimTime::ZERO + split;

            let mut sim = Simulation::new(Recorder {
                stale: vec![false; n],
                seen: Vec::new(),
            });
            for &(at, id, _) in &script {
                sim.scheduler_mut().schedule_at(at, id);
            }
            mark_stale(&mut sim, &script, Fate::StaleEarly);

            // The queue's order: `sort_by_key` is stable, so equal times
            // keep insertion order.
            let mut queue = script.clone();
            queue.sort_by_key(|&(at, _, _)| at);
            let early: Vec<(SimTime, u32)> = queue
                .iter()
                .filter(|&&(at, _, fate)| at <= deadline && fate != Fate::StaleEarly)
                .map(|&(at, id, _)| (at, id))
                .collect();
            let late: Vec<(SimTime, u32)> = queue
                .iter()
                .filter(|&&(at, _, fate)| at > deadline && fate == Fate::Live)
                .map(|&(at, id, _)| (at, id))
                .collect();
            // Stale entries ahead of the first event still live and due
            // after the split are dropped; the rest stay queued.
            let queued = queue
                .iter()
                .position(|&(at, _, fate)| at > deadline && fate != Fate::StaleEarly)
                .map_or(0, |first| n - first);

            sim.run_for(split);
            prop_ensure_eq!(&sim.world().seen, &early, "run_for order");
            prop_ensure_eq!(
                sim.scheduler().fired(),
                early.len() as u64,
                "fired at split"
            );
            prop_ensure_eq!(sim.scheduler().pending(), queued, "pending at split");
            prop_ensure_eq!(sim.now(), deadline, "now at split");

            mark_stale(&mut sim, &script, Fate::StaleLate);
            let next = late.first().map(|&(at, _)| at);
            prop_ensure_eq!(sim.peek_next_time(), next, "next live time");
            prop_ensure_eq!(sim.now(), deadline, "now after peek");

            let end = late.last().map_or(deadline, |&(at, _)| at);
            let all: Vec<(SimTime, u32)> = early.iter().chain(&late).copied().collect();
            sim.run_until_idle();
            prop_ensure_eq!(&sim.world().seen, &all, "full fire order");
            prop_ensure_eq!(sim.scheduler().fired(), all.len() as u64, "fired");
            prop_ensure_eq!(sim.scheduler().pending(), 0, "pending after idle");
            prop_ensure_eq!(sim.now(), end, "now after idle");
            Ok(())
        },
    );
}
