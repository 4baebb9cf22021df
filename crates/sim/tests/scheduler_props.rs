//! Property test: the general engine fires exactly the events that were
//! scheduled and not cancelled, in stable `(time, insertion)` order.
//!
//! Few distinct timestamps make ties common, so every case exercises the
//! FIFO tie-break; a quarter of the events are cancelled before they fire;
//! and a `run_for` deadline splits each run, checking that it stops at the
//! right event and leaves the rest pending.

use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::prop_ensure_eq;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::{SimDuration, SimTime};

#[derive(Default)]
struct Recorder {
    seen: Vec<(SimTime, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, sched: &mut Scheduler<u32>, event: u32) {
        self.seen.push((sched.now(), event));
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
            let script: Vec<(SimTime, u32, bool)> = (0..n as u32)
                .map(|id| {
                    let at = SimTime::from_micros(g.u64_in(0, ticks) * 100);
                    (at, id, g.rng().chance(0.25))
                })
                .collect();
            let split = SimDuration::from_micros(g.u64_in(0, ticks * 100));

            let mut sim = Simulation::new(Recorder::default());
            let mut doomed = Vec::new();
            for &(at, id, cancel) in &script {
                let h = sim.scheduler_mut().schedule_at(at, id);
                if cancel {
                    doomed.push(h);
                }
            }
            for h in doomed {
                sim.scheduler_mut().cancel(h);
            }

            // `sort_by_key` is stable, so equal times keep insertion order.
            let mut expected: Vec<(SimTime, u32)> = script
                .iter()
                .filter(|&&(_, _, cancel)| !cancel)
                .map(|&(at, id, _)| (at, id))
                .collect();
            expected.sort_by_key(|&(at, _)| at);
            let early = expected
                .iter()
                .filter(|&&(at, _)| at <= SimTime::ZERO + split)
                .count();

            sim.run_for(split);
            prop_ensure_eq!(&sim.world().seen[..], &expected[..early], "run_for order");
            prop_ensure_eq!(sim.scheduler().fired(), early as u64, "fired at split");
            prop_ensure_eq!(
                sim.scheduler().pending(),
                expected.len() - early,
                "pending at split"
            );

            sim.run_until_idle();
            prop_ensure_eq!(&sim.world().seen, &expected, "full fire order");
            prop_ensure_eq!(sim.scheduler().fired(), expected.len() as u64, "fired");
            prop_ensure_eq!(sim.scheduler().pending(), 0, "pending after idle");
            Ok(())
        },
    );
}
