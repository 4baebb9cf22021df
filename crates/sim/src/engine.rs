//! The discrete-event simulation engine: the one event core every world
//! runs on (the host, the fleet, the benchmark chains).
//!
//! The engine is deliberately minimal and fully deterministic:
//!
//! * A [`Scheduler`] keeps a binary min-heap of pending events. The payload
//!   rides inside the heap entry beside its `(time, seq)` key, so
//!   scheduling is one push and firing one pop. Ties at the same instant
//!   are broken by insertion order (the monotonically increasing `seq`), so
//!   the firing order never depends on hash ordering or allocation
//!   addresses.
//! * Application state implements [`World`]; its `handle` method receives
//!   each fired event together with mutable access to the scheduler so
//!   that it can schedule follow-up events.
//! * Events are plain values of the world's `Event` associated type — not
//!   closures — which keeps them inspectable, loggable and testable.
//! * The scheduler cannot cancel. A world whose events can go stale (a
//!   wake-up timer that moved, a step of an abandoned run) says which ones
//!   through [`World::is_live`]. The simulation drops a stale entry when it
//!   reaches the front of the queue, before the clock moves, so the entry
//!   neither advances [`Scheduler::now`] nor counts in
//!   [`Scheduler::fired`]. Worlds that never cancel keep the default, which
//!   compiles away.
//!
//! # Examples
//!
//! A two-event ping/pong world:
//!
//! ```
//! use rh_sim::engine::{Scheduler, Simulation, World};
//! use rh_sim::time::SimDuration;
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! #[derive(Default)]
//! struct PingPong { pongs: u32 }
//!
//! impl World for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
//!         match event {
//!             Ev::Ping => {
//!                 sched.schedule_in(SimDuration::from_secs(1), Ev::Pong);
//!             }
//!             Ev::Pong => self.pongs += 1,
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(PingPong::default());
//! sim.scheduler_mut().schedule_in(SimDuration::ZERO, Ev::Ping);
//! sim.run_until_idle();
//! assert_eq!(sim.world().pongs, 1);
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A queued event: ordering key plus inline payload.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Ordering ignores the payload: `seq` is unique per scheduler, so
// `(time, seq)` is already a total order and ties fire FIFO.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The event queue and clock of a simulation.
///
/// The scheduler is handed to [`World::handle`] so event handlers can query
/// the current time and schedule follow-ups.
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    fired: u64,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            seq: 0,
            fired: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of queued entries. O(1).
    ///
    /// Stale entries are included: one the world has stopped calling live
    /// stays queued, and counted, until it reaches the front and is
    /// dropped.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Total number of events fired so far. Dropped stale entries do not
    /// count.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation never
    /// travels backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} before now ({})",
            self.now
        );
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq: self.seq,
            event,
        }));
    }

    /// Schedules `event` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Drops front entries that `live` rejects, without moving the clock,
    /// and returns the firing time of the first one it accepts.
    fn skim(&mut self, live: impl Fn(&E) -> bool) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if live(&entry.event) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the front entry, advancing the clock to its firing time.
    fn pop(&mut self) -> Option<E> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.fired += 1;
        Some(entry.event)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("fired", &self.fired)
            .finish()
    }
}

/// Application state driven by the simulation.
///
/// Implementors own all domain state; the engine owns only the clock and
/// the pending-event queue.
pub trait World: Sized {
    /// The event vocabulary of this world.
    type Event;

    /// Reacts to `event` firing at `sched.now()`.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);

    /// Whether a queued event should still fire.
    ///
    /// Asked for the entry at the front of the queue before the clock moves
    /// to it. An entry that is not live is dropped: it never reaches
    /// [`handle`](World::handle), leaves the clock where it is and does not
    /// count in [`Scheduler::fired`]. The default calls every event live.
    fn is_live(&self, _event: &Self::Event) -> bool {
        true
    }
}

/// A world plus its scheduler: the complete simulation.
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with the given world.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the scheduler.
    pub fn scheduler(&self) -> &Scheduler<W::Event> {
        &self.sched
    }

    /// Mutable access to the scheduler (for seeding initial events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Mutable access to both the world and the scheduler at once.
    ///
    /// Useful for driver code that must call world methods which themselves
    /// need the scheduler (the same shape as [`World::handle`]).
    pub fn parts_mut(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.sched)
    }

    /// The firing time of the next live event, if any. Stale entries ahead
    /// of it are dropped on the way; the clock does not move.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        let world = &self.world;
        self.sched.skim(|event| world.is_live(event))
    }

    /// Fires the single next live event, if any. Returns `true` if one
    /// fired.
    pub fn step(&mut self) -> bool {
        if self.peek_next_time().is_none() {
            return false;
        }
        self.fire_front();
        true
    }

    /// Fires the front entry, which [`peek_next_time`](Self::peek_next_time)
    /// has just found live.
    fn fire_front(&mut self) {
        if let Some(event) = self.sched.pop() {
            self.world.handle(&mut self.sched, event);
        }
    }

    /// Runs until no events remain, then returns the final time.
    ///
    /// There is no step limit: for a world that keeps scheduling forever
    /// this never returns, so bound such runs with
    /// [`run_until`](Self::run_until).
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }

    /// Fires every event scheduled at or before `deadline`, then advances the
    /// clock to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.peek_next_time().is_some_and(|t| t <= deadline) {
            self.fire_front();
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
    }

    /// Fires events for the next `span` of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

impl<W: World + fmt::Debug> fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        Mark(u32),
        Chain(u32),
        /// Dropped by [`Recorder::is_live`] without firing.
        Stale(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, Ev)>,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
            if let Ev::Chain(n) = event {
                if n > 0 {
                    sched.schedule_in(SimDuration::from_secs(1), Ev::Chain(n - 1));
                }
            }
            self.seen.push((sched.now(), event));
        }

        fn is_live(&self, event: &Ev) -> bool {
            !matches!(event, Ev::Stale(_))
        }
    }

    fn marks(sim: &Simulation<Recorder>) -> Vec<u32> {
        sim.world()
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Mark(n) => *n,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        for n in [3, 1, 2] {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_secs(u64::from(n)), Ev::Mark(n));
        }
        sim.run_until_idle();
        assert_eq!(marks(&sim), vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut sim = Simulation::new(Recorder::default());
        for n in 0..10 {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_secs(5), Ev::Mark(n));
        }
        sim.run_until_idle();
        assert_eq!(marks(&sim), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(7), Ev::Mark(0));
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_secs(7));
        assert_eq!(sim.world().seen[0].0, SimTime::from_secs(7));
    }

    #[test]
    fn stale_events_never_fire_nor_move_the_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Stale(2));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(3), Ev::Stale(3));
        // Stale entries stay counted until they reach the front.
        assert_eq!(sim.scheduler().pending(), 3);
        assert_eq!(sim.run_until_idle(), SimTime::from_secs(1));
        assert_eq!(marks(&sim), vec![1]);
        assert_eq!(sim.scheduler().fired(), 1);
        assert_eq!(sim.scheduler().pending(), 0);
    }

    #[test]
    fn peek_skips_stale_entries() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Stale(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(4), Ev::Mark(4));
        assert_eq!(sim.peek_next_time(), Some(SimTime::from_secs(4)));
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.scheduler().pending(), 1);
        assert!(sim.step());
        assert!(!sim.step());
        assert_eq!(sim.peek_next_time(), None);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Chain(3));
        sim.run_until_idle();
        assert_eq!(sim.world().seen.len(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(10), Ev::Mark(10));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.world().seen.len(), 1);
        assert_eq!(sim.scheduler().pending(), 1);
        sim.run_until_idle();
        assert_eq!(sim.world().seen.len(), 2);
        assert_eq!(sim.scheduler().fired(), 2);
    }

    #[test]
    fn run_for_advances_relative_span() {
        let mut sim = Simulation::new(Recorder::default());
        sim.run_for(SimDuration::from_secs(4));
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(5), Ev::Mark(0));
        sim.run_until_idle();
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
    }

    #[test]
    fn pending_and_fired_counters() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        assert_eq!(sim.scheduler().pending(), 2);
        sim.run_until_idle();
        assert_eq!(sim.scheduler().pending(), 0);
        assert_eq!(sim.scheduler().fired(), 2);
    }

    #[test]
    fn into_world_returns_state() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Mark(7));
        sim.run_until_idle();
        assert_eq!(sim.into_world().seen, vec![(SimTime::ZERO, Ev::Mark(7))]);
    }
}
