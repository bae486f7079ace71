//! The event calendar and execution loop.
//!
//! An [`Engine`] owns a user-supplied [`World`] (the model state) and a
//! time-ordered calendar of the world's events. Execution repeatedly pops
//! the earliest event and hands it to [`World::handle`] together with a
//! [`Context`] through which the handler reads the clock, schedules or
//! cancels future events, and draws randomness.
//!
//! Determinism: events at equal times run in the order they were scheduled
//! (a FIFO tie-break), and all randomness comes from the engine's seeded
//! RNG, so a simulation is a pure function of the initial world, the seed,
//! and the initial events.
//!
//! Layout: the calendar is a radix heap. It is keyed on event time and
//! relies on the clock never running backwards. Each pending event sits
//! in a slab slot that does not move while the event waits; the slot
//! records the event's time and its links in one of 65 bucket lists.
//! Scheduling and cancelling touch one list, O(1). Taking the next event
//! pops the same-instant list or, when that is empty, splits the lowest
//! non-empty bucket. The pop order is `(time, scheduling order)`, a total
//! order, so it never depends on how events are spread over the buckets.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A handle to a scheduled event, usable to [cancel](Context::cancel) it.
///
/// Internally an id packs a slab slot index with that slot's generation
/// tag, so a handle stays valid exactly as long as its event is pending:
/// once the event runs or is cancelled the slot's generation is bumped and
/// the old handle can never alias a later event occupying the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, generation: u32) -> Self {
        EventId(((generation as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// The model driven by an [`Engine`].
///
/// Implementors hold all mutable simulation state; the engine owns the
/// calendar and the clock. `Event` is typically an enum describing
/// everything that can happen in the model.
pub trait World {
    /// The event type dispatched to [`handle`](World::handle).
    type Event;

    /// Processes one event at the current virtual time.
    fn handle(&mut self, ctx: &mut Context<Self::Event>, event: Self::Event);

    /// Called by [`Engine::run_until`] after the clock has advanced to the
    /// deadline, before control returns to the caller.
    ///
    /// Models that defer work between events (e.g. closed-form fast paths
    /// that account skipped spans lazily) override this to bring their
    /// externally observable state up to date with `ctx.now()`, so a
    /// caller inspecting the world between `run_until` calls sees exactly
    /// the state a step-by-step execution would have produced. The default
    /// does nothing.
    fn quiesce(&mut self, ctx: &mut Context<Self::Event>) {
        let _ = ctx;
    }
}

/// A passive probe notified around every event the engine executes.
///
/// Observers see each event immediately before it is handed to
/// [`World::handle`] and are told the resulting calendar state right
/// after. They receive **no** access to the [`Context`] — they cannot
/// schedule, cancel, or draw randomness — so by construction an attached
/// observer cannot perturb the simulation: a run with an observer is
/// bit-identical to the same run without one. (The determinism test in
/// `tests/observability.rs` checks this end to end.)
///
/// Attach with [`Engine::attach_observer`]; when no observer is attached
/// the engine's hot loop does not pay for the hooks beyond one `Option`
/// check per event.
pub trait Observer<E> {
    /// Called after the clock has advanced to `at`, immediately before the
    /// event is handled (the event is consumed by the world, so this is
    /// the only chance to inspect it).
    fn on_event_dispatched(&mut self, at: SimTime, event: &E);

    /// Called right after the event was handled. `queue_depth` is the
    /// number of events then pending and `steps` the total executed so
    /// far. The default does nothing.
    fn on_event_handled(&mut self, at: SimTime, queue_depth: usize, steps: u64) {
        let _ = (at, queue_depth, steps);
    }
}

/// Link value meaning "no slot": the end of a bucket list.
const NIL: u32 = u32::MAX;

/// `bucket` value marking a vacant slab slot.
const VACANT: u8 = u8::MAX;

/// Bucket 0 holds the events at `last`; bucket `b` in 1..=64 holds those
/// whose time first differs from `last` at bit `b - 1`.
const BUCKETS: usize = 65;

/// One slab slot: the pending event's time, its links in the list of its
/// bucket, and a generation tag bumped every time the slot is vacated.
#[derive(Clone, Copy)]
struct Slot {
    at: SimTime,
    generation: u32,
    prev: u32,
    next: u32,
    /// The bucket whose list holds the slot, or [`VACANT`].
    bucket: u8,
}

/// The engine surface visible to event handlers: the clock, the calendar and
/// the random stream.
///
/// A `Context` is passed by the engine into [`World::handle`]; handlers use
/// it to schedule follow-up events with [`schedule_in`](Context::schedule_in)
/// or [`schedule_at`](Context::schedule_at), to [`cancel`](Context::cancel)
/// pending events, and to draw random values via [`rng`](Context::rng).
///
/// The calendar is a radix heap over event times. Scheduling and
/// cancelling are O(1): an event is linked into, or unlinked from, the
/// bucket `64 - lzcnt(at ^ last)`, where `last` is the time of the last
/// minimum taken. Taking the next event pops the head of bucket 0 (the
/// events at `last`); when that is empty, the lowest non-empty bucket's
/// earliest time becomes `last` and its events move to lower buckets.
/// Every event only ever moves down, so each is moved at most 64 times.
/// The lists are threaded through the slab that holds the events, so the
/// calendar allocates nothing beyond the slab.
pub struct Context<E> {
    now: SimTime,
    /// Time of the last minimum taken; no pending event is earlier.
    last: SimTime,
    /// First and last slot of each bucket's list, or [`NIL`].
    head: [u32; BUCKETS],
    tail: [u32; BUCKETS],
    /// Bit `b - 1` is set exactly when bucket `b` (1..=64) is non-empty.
    occupied: u64,
    /// Number of pending events.
    len: usize,
    /// Slab of slot records. Grows to the high-water mark of
    /// simultaneously pending events and is reused thereafter.
    slots: Vec<Slot>,
    /// The pending events, parallel to `slots`: `Some` exactly for the
    /// occupied slots.
    events: Vec<Option<E>>,
    /// Vacant slab slots, reused LIFO.
    free: Vec<u32>,
    rng: SimRng,
}

impl<E> Context<E> {
    fn new(rng: SimRng) -> Self {
        Context {
            now: SimTime::ZERO,
            last: SimTime::ZERO,
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            occupied: 0,
            len: 0,
            slots: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            rng,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Context::now) — the calendar
    /// cannot rewind.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(s) => {
                self.events[s as usize] = Some(event);
                s
            }
            None => {
                let s = self.slots.len();
                assert!(s < NIL as usize, "calendar slot index overflow");
                self.slots.push(Slot {
                    at,
                    generation: 0,
                    prev: NIL,
                    next: NIL,
                    bucket: VACANT,
                });
                self.events.push(Some(event));
                s as u32
            }
        };
        let record = &mut self.slots[slot as usize];
        record.at = at;
        let generation = record.generation;
        self.link(slot, self.bucket_of(at));
        self.len += 1;
        EventId::pack(slot, generation)
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to run after all events already scheduled for the
    /// current instant.
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule_at(self.now, event)
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending, `false` if it already ran or was already cancelled.
    ///
    /// Cancellation is *eager* and O(1): the event is unlinked from its
    /// bucket, dropped, and its slab slot reclaimed immediately, so
    /// cancelled events cost neither memory nor pop-time tombstone skips.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        let Some(meta) = self.slots.get(slot as usize) else {
            return false;
        };
        if meta.generation != id.generation() || meta.bucket == VACANT {
            return false;
        }
        self.unlink(slot);
        self.release_slot(slot);
        true
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Number of slab slots backing the calendar: the high-water mark of
    /// simultaneously pending events, *not* the total ever scheduled.
    /// Schedule/cancel churn must not grow this (see the memory-reclaim
    /// regression test).
    pub fn calendar_slots(&self) -> usize {
        self.slots.len()
    }

    /// The deterministic random stream of this engine.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The bucket an event at `at` belongs in: one more than the index of
    /// the highest bit in which `at` differs from `last`, 0 if equal.
    /// Taking a new minimum from bucket `b` changes only bits below
    /// `b - 1` of `last`, so events in buckets above `b` stay put.
    #[inline]
    fn bucket_of(&self, at: SimTime) -> u8 {
        (u64::BITS - (at.units() ^ self.last.units()).leading_zeros()) as u8
    }

    /// Appends `slot` to the list of `bucket`. Appending keeps every list
    /// in scheduling order (see [`Context::pop_through`]).
    #[inline]
    fn link(&mut self, slot: u32, bucket: u8) {
        let b = bucket as usize;
        let tail = std::mem::replace(&mut self.tail[b], slot);
        let s = &mut self.slots[slot as usize];
        s.bucket = bucket;
        s.prev = tail;
        s.next = NIL;
        match self.slots.get_mut(tail as usize) {
            Some(t) => t.next = slot,
            None => {
                self.head[b] = slot;
                if b > 0 {
                    self.occupied |= 1 << (b - 1);
                }
            }
        }
    }

    /// Removes `slot` from its bucket's list. Does not touch the slot's
    /// event or generation — the caller releases it.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot {
            prev, next, bucket, ..
        } = self.slots[slot as usize];
        let b = bucket as usize;
        match self.slots.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => self.head[b] = next,
        }
        match self.slots.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => self.tail[b] = prev,
        }
        if prev == NIL && next == NIL && b > 0 {
            self.occupied &= !(1 << (b - 1));
        }
    }

    /// Marks `slot` vacant, invalidating all outstanding ids for it, and
    /// returns the event it held.
    fn release_slot(&mut self, slot: u32) -> E {
        let meta = &mut self.slots[slot as usize];
        meta.generation = meta.generation.wrapping_add(1);
        meta.bucket = VACANT;
        self.free.push(slot);
        self.len -= 1;
        self.events[slot as usize]
            .take()
            .expect("an occupied slot holds its event")
    }

    /// Takes the earliest pending event if it is due at or before `limit`.
    ///
    /// Events at equal times come out in scheduling order with no
    /// sequence number stored: every bucket list is in scheduling order.
    /// A schedule appends the newest event to a tail, and a
    /// redistribution walks one list in order into lower buckets that are
    /// all empty, so no list is ever out of order.
    ///
    /// When the earliest event is after `limit`, nothing moves and `last`
    /// stays put, so the caller may still schedule into `(limit, earliest)`.
    #[inline]
    fn pop_through(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.head[0] != NIL {
            if self.last > limit {
                return None;
            }
            let slot = self.head[0];
            self.unlink(slot);
            return Some((self.last, self.release_slot(slot)));
        }
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize + 1;
        let head = self.head[b];
        let first = self.slots[head as usize];
        let mut min = first.at;
        let mut i = first.next;
        while let Some(s) = self.slots.get(i as usize) {
            min = min.min(s.at);
            i = s.next;
        }
        if min > limit {
            return None;
        }
        self.last = min;
        self.head[b] = NIL;
        self.tail[b] = NIL;
        self.occupied &= !(1 << (b - 1));
        if first.next == NIL {
            // A lone event skips the split loop: with few events pending
            // this is the common pop.
            return Some((min, self.release_slot(head)));
        }
        // The first event at `min` is taken; the rest move down, those at
        // `min` into bucket 0 behind it.
        let mut taken = NIL;
        let mut i = head;
        while let Some(&s) = self.slots.get(i as usize) {
            if taken == NIL && s.at == min {
                taken = i;
            } else {
                self.link(i, self.bucket_of(s.at));
            }
            i = s.next;
        }
        Some((min, self.release_slot(taken)))
    }

    // Debug cannot be derived (events in the calendar need not be Debug),
    // so render a summary instead.
    fn debug_summary(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("pending", &self.len)
            .finish_non_exhaustive()
    }
}

/// A discrete-event simulation engine: a [`World`] plus its event calendar.
///
/// # Example
///
/// ```
/// use desim::{Engine, World, Context, SimTime, SimDuration};
///
/// struct Pinger { pongs: u32 }
/// enum Ev { Ping, Pong }
///
/// impl World for Pinger {
///     type Event = Ev;
///     fn handle(&mut self, ctx: &mut Context<Ev>, ev: Ev) {
///         match ev {
///             Ev::Ping => { ctx.schedule_in(SimDuration::from_micros(625), Ev::Pong); }
///             Ev::Pong => self.pongs += 1,
///         }
///     }
/// }
///
/// let mut e = Engine::new(Pinger { pongs: 0 }, 7);
/// e.schedule(SimTime::ZERO, Ev::Ping);
/// e.run();
/// assert_eq!(e.world().pongs, 1);
/// ```
pub struct Engine<W: World> {
    world: W,
    ctx: Context<W::Event>,
    steps: u64,
    observer: Option<Box<dyn Observer<W::Event>>>,
}

impl<E> std::fmt::Debug for Context<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.debug_summary(f)
    }
}

impl<W: World + std::fmt::Debug> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("world", &self.world)
            .field("ctx", &self.ctx)
            .field("steps", &self.steps)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<W: World> Engine<W> {
    /// Creates an engine over `world` with deterministic randomness derived
    /// from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Engine {
            world,
            ctx: Context::new(SimRng::seed_from(seed)),
            steps: 0,
            observer: None,
        }
    }

    /// Attaches a passive [`Observer`], replacing and returning any
    /// previous one. Observers cannot influence the run (see the trait
    /// docs); attach and detach at any point between events.
    pub fn attach_observer(
        &mut self,
        observer: Box<dyn Observer<W::Event>>,
    ) -> Option<Box<dyn Observer<W::Event>>> {
        self.observer.replace(observer)
    }

    /// Removes and returns the attached observer, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn Observer<W::Event>>> {
        self.observer.take()
    }

    /// Whether an observer is currently attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Current virtual time (time of the last executed event).
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Number of events executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shared access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the model, e.g. to inspect or tweak state
    /// between [`run_until`](Engine::run_until) calls.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Schedules an event from outside any handler (e.g. initial events).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) -> EventId {
        self.ctx.schedule_at(at, event)
    }

    /// The engine's [`Context`], for seeding randomness or scheduling
    /// before the run starts.
    pub fn context_mut(&mut self) -> &mut Context<W::Event> {
        &mut self.ctx
    }

    /// Executes a single event if one is pending. Returns `false` when the
    /// calendar is empty.
    pub fn step(&mut self) -> bool {
        match self.ctx.pop_through(SimTime::MAX) {
            Some((at, event)) => {
                self.dispatch(at, event);
                true
            }
            None => false,
        }
    }

    /// Advances the clock to `at` and hands `event` to the world.
    #[inline]
    fn dispatch(&mut self, at: SimTime, event: W::Event) {
        debug_assert!(at >= self.ctx.now);
        self.ctx.now = at;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event_dispatched(at, &event);
        }
        self.world.handle(&mut self.ctx, event);
        self.steps += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event_handled(at, self.ctx.pending(), self.steps);
        }
    }

    /// Runs until the calendar is empty. Returns the number of events
    /// executed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.steps;
        while self.step() {}
        self.steps - before
    }

    /// Runs every event scheduled strictly before `deadline`, then advances
    /// the clock to `deadline`. Returns the number of events executed.
    ///
    /// Events scheduled exactly at `deadline` are *not* executed, so
    /// repeated calls with increasing deadlines partition the timeline.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.steps;
        if deadline > SimTime::ZERO {
            let last_due = deadline - SimDuration::from_units_0125us(1);
            while let Some((at, event)) = self.ctx.pop_through(last_due) {
                self.dispatch(at, event);
            }
        }
        if self.ctx.now < deadline {
            self.ctx.now = deadline;
        }
        self.world.quiesce(&mut self.ctx);
        self.steps - before
    }

    /// Runs every event scheduled within the next `span` of virtual time
    /// (exclusive of the end instant), advancing the clock to `now() +
    /// span`. Returns the number of events executed.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let deadline = self.ctx.now + span;
        self.run_until(deadline)
    }

    /// Runs until the calendar is empty or `max_steps` more events have
    /// executed; returns the number executed.
    pub fn run_steps(&mut self, max_steps: u64) -> u64 {
        let before = self.steps;
        while self.steps - before < max_steps && self.step() {}
        self.steps - before
    }

    /// Consumes the engine, returning the final world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<u32>, ev: u32) {
            self.seen.push((ctx.now(), ev));
        }
    }

    fn recorder() -> Engine<Recorder> {
        Engine::new(Recorder { seen: Vec::new() }, 1)
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = recorder();
        e.schedule(SimTime::from_micros(30), 3);
        e.schedule(SimTime::from_micros(10), 1);
        e.schedule(SimTime::from_micros(20), 2);
        e.run();
        let evs: Vec<u32> = e.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(evs, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut e = recorder();
        let t = SimTime::from_millis(5);
        for v in 0..100 {
            e.schedule(t, v);
        }
        e.run();
        let evs: Vec<u32> = e.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(evs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut e = recorder();
        let keep = e.schedule(SimTime::from_micros(10), 1);
        let drop_ = e.schedule(SimTime::from_micros(20), 2);
        assert!(e.context_mut().cancel(drop_));
        assert!(!e.context_mut().cancel(drop_), "double cancel is a no-op");
        e.run();
        assert_eq!(e.world().seen.len(), 1);
        assert!(!e.context_mut().cancel(keep), "already ran");
    }

    #[test]
    fn run_until_is_exclusive_and_advances_clock() {
        let mut e = recorder();
        e.schedule(SimTime::from_micros(10), 1);
        e.schedule(SimTime::from_micros(50), 2);
        let n = e.run_until(SimTime::from_micros(50));
        assert_eq!(n, 1);
        assert_eq!(e.now(), SimTime::from_micros(50));
        e.run();
        assert_eq!(e.world().seen.len(), 2);
    }

    #[test]
    fn pending_counts_live_events() {
        let mut e = recorder();
        let a = e.schedule(SimTime::from_micros(10), 1);
        e.schedule(SimTime::from_micros(20), 2);
        assert_eq!(e.context_mut().pending(), 2);
        e.context_mut().cancel(a);
        assert_eq!(e.context_mut().pending(), 1);
        e.run();
        assert_eq!(e.context_mut().pending(), 0);
    }

    struct Chainer {
        depth: u32,
        max: u32,
    }
    impl World for Chainer {
        type Event = ();
        fn handle(&mut self, ctx: &mut Context<()>, _: ()) {
            self.depth += 1;
            if self.depth < self.max {
                ctx.schedule_now(());
            }
        }
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut e = Engine::new(Chainer { depth: 0, max: 10 }, 0);
        e.schedule(SimTime::ZERO, ());
        e.run();
        assert_eq!(e.world().depth, 10);
        assert_eq!(e.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<()>, _: ()) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut e = Engine::new(Bad, 0);
        e.schedule(SimTime::from_secs(1), ());
        e.run();
    }

    #[test]
    fn run_for_advances_relative_spans() {
        let mut e = recorder();
        e.schedule(SimTime::from_micros(10), 1);
        e.schedule(SimTime::from_micros(30), 2);
        assert_eq!(e.run_for(SimDuration::from_micros(20)), 1);
        assert_eq!(e.now(), SimTime::from_micros(20));
        assert_eq!(e.run_for(SimDuration::from_micros(20)), 1);
        assert_eq!(e.now(), SimTime::from_micros(40));
    }

    #[test]
    fn run_steps_bounds_execution() {
        let mut e = Engine::new(
            Chainer {
                depth: 0,
                max: u32::MAX,
            },
            0,
        );
        e.schedule(SimTime::ZERO, ());
        let n = e.run_steps(1000);
        assert_eq!(n, 1000);
        assert_eq!(e.world().depth, 1000);
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Spy {
            log: Rc<RefCell<Vec<(SimTime, u32, usize)>>>,
        }
        impl Observer<u32> for Spy {
            fn on_event_dispatched(&mut self, at: SimTime, event: &u32) {
                self.log.borrow_mut().push((at, *event, usize::MAX));
            }
            fn on_event_handled(&mut self, _at: SimTime, queue_depth: usize, _steps: u64) {
                self.log
                    .borrow_mut()
                    .last_mut()
                    .expect("dispatched first")
                    .2 = queue_depth;
            }
        }

        let log = Rc::new(RefCell::new(Vec::new()));
        let mut e = recorder();
        e.attach_observer(Box::new(Spy {
            log: Rc::clone(&log),
        }));
        e.schedule(SimTime::from_micros(10), 1);
        e.schedule(SimTime::from_micros(20), 2);
        e.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (SimTime::from_micros(10), 1, 1),
                (SimTime::from_micros(20), 2, 0)
            ]
        );
        assert!(e.detach_observer().is_some());
        assert!(!e.has_observer());
    }

    #[test]
    fn observer_does_not_change_the_run() {
        struct Noisy;
        impl Observer<u32> for Noisy {
            fn on_event_dispatched(&mut self, _at: SimTime, _event: &u32) {}
        }
        fn run(observed: bool) -> (Vec<(SimTime, u32)>, Vec<u64>) {
            let mut e = recorder();
            if observed {
                e.attach_observer(Box::new(Noisy));
            }
            e.schedule(SimTime::from_micros(5), 7);
            e.schedule(SimTime::from_micros(5), 8);
            e.run();
            let draws = (0..8).map(|_| e.context_mut().rng().next_u64()).collect();
            (e.world().seen.clone(), draws)
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn quiesce_runs_at_every_run_until_boundary() {
        struct Deferred {
            handled: u32,
            quiesced_at: Vec<SimTime>,
        }
        impl World for Deferred {
            type Event = ();
            fn handle(&mut self, _ctx: &mut Context<()>, _: ()) {
                self.handled += 1;
            }
            fn quiesce(&mut self, ctx: &mut Context<()>) {
                self.quiesced_at.push(ctx.now());
            }
        }
        let mut e = Engine::new(
            Deferred {
                handled: 0,
                quiesced_at: vec![],
            },
            3,
        );
        e.schedule(SimTime::from_micros(10), ());
        e.run_until(SimTime::from_micros(5));
        e.run_until(SimTime::from_micros(20));
        assert_eq!(e.world().handled, 1);
        // Quiesce fires after the clock reaches each deadline, including
        // deadlines with no events.
        assert_eq!(
            e.world().quiesced_at,
            vec![SimTime::from_micros(5), SimTime::from_micros(20)]
        );
    }

    #[test]
    fn cancel_reclaims_calendar_memory() {
        // Regression: the old tombstone calendar kept every cancelled id in
        // a HashSet until the entry popped; a schedule/cancel churn loop
        // grew memory without bound. The slab calendar must reuse the same
        // slot(s) forever.
        let mut e = recorder();
        let keep = e.schedule(SimTime::from_secs(10), 0);
        for i in 0..1_000_000u64 {
            let id = e.schedule(SimTime::from_micros(i % 1000), i as u32 + 1);
            assert!(e.context_mut().cancel(id));
        }
        assert_eq!(e.context_mut().pending(), 1);
        assert!(
            e.context_mut().calendar_slots() <= 2,
            "schedule/cancel churn grew the slab to {} slots",
            e.context_mut().calendar_slots()
        );
        assert!(e.context_mut().cancel(keep));
        assert_eq!(e.context_mut().pending(), 0);
    }

    #[test]
    fn stale_id_does_not_cancel_slot_reuser() {
        let mut e = recorder();
        let t = SimTime::from_micros(10);
        let a = e.schedule(t, 1);
        assert!(e.context_mut().cancel(a));
        // `b` reuses a's slab slot; the stale handle must not alias it.
        let b = e.schedule(t, 2);
        assert!(
            !e.context_mut().cancel(a),
            "stale id cancelled a live event"
        );
        assert!(e.context_mut().cancel(b));
        e.run();
        assert!(e.world().seen.is_empty());
    }

    #[test]
    fn id_of_an_event_that_ran_does_not_cancel_slot_reuser() {
        let mut e = recorder();
        let a = e.schedule(SimTime::from_micros(10), 1);
        e.run();
        // `b` reuses the slot `a` vacated when it ran.
        let b = e.schedule(SimTime::from_micros(20), 2);
        assert_eq!(e.context_mut().calendar_slots(), 1, "slot not reused");
        assert!(
            !e.context_mut().cancel(a),
            "spent id cancelled a live event"
        );
        assert_eq!(e.context_mut().pending(), 1);
        e.run();
        assert_eq!(
            e.world().seen,
            vec![(SimTime::from_micros(10), 1), (SimTime::from_micros(20), 2)]
        );
        assert!(!e.context_mut().cancel(b), "already ran");
    }

    /// An event payload the churn model check can build and identify.
    trait Payload: Sized {
        fn make(v: u32) -> Self;
        fn id(&self) -> u32;
    }

    impl Payload for u32 {
        fn make(v: u32) -> u32 {
            v
        }
        fn id(&self) -> u32 {
            *self
        }
    }

    /// A 64-byte payload whose every word derives from its id, so a
    /// calendar that tore, swapped or lost a payload fails the check.
    struct Wide([u64; 8]);

    impl Payload for Wide {
        fn make(v: u32) -> Wide {
            Wide(std::array::from_fn(|i| (u64::from(v) << 8) | i as u64))
        }
        fn id(&self) -> u32 {
            let v = (self.0[0] >> 8) as u32;
            assert_eq!(self.0, Wide::make(v).0, "torn payload");
            v
        }
    }

    struct Tagged<P> {
        seen: Vec<(SimTime, u32)>,
        payload: std::marker::PhantomData<P>,
    }

    impl<P: Payload> World for Tagged<P> {
        type Event = P;
        fn handle(&mut self, ctx: &mut Context<P>, ev: P) {
            self.seen.push((ctx.now(), ev.id()));
        }
    }

    /// Model-checks the calendar against a sorted reference:
    /// random interleavings of schedule / cancel / step must pop events
    /// in exactly (time, insertion) order.
    fn churn_matches_reference<P: Payload>() {
        let world = Tagged::<P> {
            seen: Vec::new(),
            payload: std::marker::PhantomData,
        };
        let mut e = Engine::new(world, 1);
        let mut rng = crate::SimRng::seed_from(42);
        let mut live: Vec<(SimTime, u64, EventId, u32)> = Vec::new();
        let mut expected: Vec<(SimTime, u32)> = Vec::new();
        let mut seq = 0u64;
        for round in 0..5_000u32 {
            match rng.below(4) {
                0 | 1 => {
                    let at = e.now() + SimDuration::from_micros(rng.below(500));
                    let id = e.schedule(at, P::make(round));
                    live.push((at, seq, id, round));
                    seq += 1;
                }
                2 => {
                    if !live.is_empty() {
                        let k = rng.below(live.len() as u64) as usize;
                        let (_, _, id, _) = live.swap_remove(k);
                        assert!(e.context_mut().cancel(id));
                    }
                }
                _ => {
                    live.sort_by_key(|&(at, s, _, _)| (at, s));
                    let stepped = e.step();
                    assert_eq!(stepped, !live.is_empty());
                    if stepped {
                        let (at, _, _, v) = live.remove(0);
                        expected.push((at, v));
                    }
                }
            }
            assert_eq!(e.context_mut().pending(), live.len());
        }
        live.sort_by_key(|&(at, s, _, _)| (at, s));
        e.run();
        expected.extend(live.iter().map(|&(at, _, _, v)| (at, v)));
        assert_eq!(e.world().seen, expected);
    }

    #[test]
    fn heap_matches_reference_model_under_churn() {
        churn_matches_reference::<u32>();
    }

    #[test]
    fn heap_matches_reference_model_under_churn_with_wide_payload() {
        assert!(std::mem::size_of::<Wide>() >= 64);
        churn_matches_reference::<Wide>();
    }

    #[test]
    fn every_event_is_dropped_exactly_once() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Owns heap memory and counts its drops per id.
        struct Counted {
            id: usize,
            _heap: Vec<u8>,
            drops: Rc<RefCell<Vec<u32>>>,
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.drops.borrow_mut()[self.id] += 1;
            }
        }
        struct Sink {
            handled: Vec<usize>,
        }
        impl World for Sink {
            type Event = Counted;
            fn handle(&mut self, _ctx: &mut Context<Counted>, ev: Counted) {
                self.handled.push(ev.id);
            }
        }

        const N: usize = 600;
        let drops = Rc::new(RefCell::new(vec![0u32; N]));
        let counted = |id: usize| Counted {
            id,
            _heap: vec![id as u8; 48],
            drops: Rc::clone(&drops),
        };
        let mut e = Engine::new(Sink { handled: vec![] }, 5);
        let mut rng = crate::SimRng::seed_from(9);
        let mut cancelled = Vec::new();
        // Two waves, so the second reuses slots the first vacated by
        // running or by being cancelled.
        for wave in 0..2 {
            let base = e.now();
            let mut ids = Vec::new();
            for id in wave * N / 2..(wave + 1) * N / 2 {
                let at = base + SimDuration::from_micros(rng.below(1_000));
                ids.push((id, e.schedule(at, counted(id))));
            }
            for &(id, ev) in ids.iter().step_by(3) {
                assert!(e.context_mut().cancel(ev));
                assert_eq!(drops.borrow()[id], 1, "cancel drops the event");
                cancelled.push(id);
            }
            e.run_until(base + SimDuration::from_micros(500));
        }
        let handled = e.world().handled.clone();
        let pending = e.context_mut().pending();
        assert!(!handled.is_empty() && pending > 0);
        assert_eq!(handled.len() + cancelled.len() + pending, N);
        let dropped = drops.borrow().iter().filter(|&&d| d == 1).count();
        assert_eq!(dropped, handled.len() + cancelled.len());
        assert!(drops.borrow().iter().all(|&d| d <= 1));
        drop(e);
        assert!(
            drops.borrow().iter().all(|&d| d == 1),
            "pending events are dropped with the engine"
        );
    }

    /// A delay spread log-uniformly over 0..2^40 units (0 to ~38 hours),
    /// zero one time in twenty, so events land in every bucket from the
    /// same-instant list up.
    fn spread_delay(rng: &mut crate::SimRng) -> SimDuration {
        if rng.below(20) == 0 {
            return SimDuration::ZERO;
        }
        let bits = rng.below(41);
        SimDuration::from_units_0125us(rng.below(1 << bits))
    }

    /// Model-checks the calendar against a sorted reference under
    /// schedule / cancel / step / `run_until` churn with delays across
    /// the whole radix range, and checks the slab never outgrows the
    /// high-water mark of pending events.
    #[test]
    fn radix_calendar_matches_reference_model_with_spread_delays() {
        let mut e = recorder();
        let mut rng = crate::SimRng::seed_from(0xCA1E);
        let mut live: Vec<(SimTime, u64, EventId, u32)> = Vec::new();
        let mut expected: Vec<(SimTime, u32)> = Vec::new();
        let mut high_water = 0;
        for round in 0..20_000u32 {
            match rng.below(20) {
                0..=9 => {
                    let at = e.now() + spread_delay(&mut rng);
                    let id = e.schedule(at, round);
                    live.push((at, u64::from(round), id, round));
                }
                10..=13 => {
                    if !live.is_empty() {
                        let k = rng.below(live.len() as u64) as usize;
                        let (_, _, id, _) = live.swap_remove(k);
                        assert!(e.context_mut().cancel(id));
                        assert!(!e.context_mut().cancel(id));
                    }
                }
                14..=18 => {
                    live.sort_by_key(|&(at, s, _, _)| (at, s));
                    assert_eq!(e.step(), !live.is_empty());
                    if !live.is_empty() {
                        let (at, _, _, v) = live.remove(0);
                        expected.push((at, v));
                    }
                }
                _ => {
                    let deadline = e.now() + spread_delay(&mut rng);
                    live.sort_by_key(|&(at, s, _, _)| (at, s));
                    let due = live.iter().take_while(|&&(at, ..)| at < deadline).count();
                    expected.extend(live.drain(..due).map(|(at, _, _, v)| (at, v)));
                    assert_eq!(e.run_until(deadline), due as u64);
                    assert_eq!(e.now(), deadline);
                }
            }
            high_water = high_water.max(live.len());
            assert_eq!(e.context_mut().pending(), live.len());
            assert_eq!(e.context_mut().calendar_slots(), high_water);
        }
        live.sort_by_key(|&(at, s, _, _)| (at, s));
        e.run();
        expected.extend(live.iter().map(|&(at, _, _, v)| (at, v)));
        assert_eq!(e.world().seen, expected);
    }

    #[test]
    fn cancels_hit_the_same_instant_list_and_higher_buckets() {
        let mut e = recorder();
        let t = SimTime::from_micros(100);
        e.schedule(t, 0);
        let same: Vec<EventId> = (1..=4).map(|v| e.schedule(t, v)).collect();
        let later = e.schedule(t + SimDuration::from_micros(1), 5);
        let far = e.schedule(t + SimDuration::from_secs(60), 6);
        let farther = e.schedule(t + SimDuration::from_secs(3_600), 7);
        assert!(e.step());
        // Taking the first event at `t` moved its peers into bucket 0.
        let bucket = |e: &Engine<Recorder>, id: EventId| e.ctx.slots[id.slot() as usize].bucket;
        assert!(same.iter().all(|&id| bucket(&e, id) == 0));
        assert!([later, far, farther].iter().all(|&id| bucket(&e, id) > 0));
        // Head, middle and tail of the same-instant list.
        assert!(e.context_mut().cancel(same[0]));
        assert!(e.context_mut().cancel(same[2]));
        assert!(e.context_mut().cancel(same[3]));
        // A higher bucket, emptied, and then refilled by a new schedule.
        assert!(e.context_mut().cancel(far));
        let again = e.schedule(t + SimDuration::from_secs(60), 8);
        assert!(e.context_mut().cancel(farther));
        e.schedule(t, 9);
        e.run();
        let order: Vec<u32> = e.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![0, 2, 9, 5, 8]);
        assert!(!e.context_mut().cancel(again), "already ran");
    }

    #[test]
    fn run_until_short_of_the_next_event_leaves_the_gap_open() {
        let mut e = recorder();
        e.schedule(SimTime::from_micros(100), 1);
        e.schedule(SimTime::from_micros(1_000), 2);
        assert_eq!(e.run_until(SimTime::from_micros(40)), 0);
        // The gap between the deadline and the next event still takes
        // schedules, including at the deadline itself and ties after it.
        e.schedule(SimTime::from_micros(60), 3);
        e.schedule(SimTime::from_micros(40), 4);
        e.schedule(SimTime::from_micros(100), 5);
        e.schedule(SimTime::from_micros(41), 6);
        assert_eq!(e.run_until(SimTime::from_micros(100)), 3);
        e.schedule(SimTime::from_micros(100), 7);
        e.run();
        let order: Vec<u32> = e.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![4, 6, 3, 1, 5, 7, 2]);
    }

    #[test]
    fn an_event_at_the_end_of_time_still_runs() {
        let mut e = recorder();
        e.schedule(SimTime::MAX, 1);
        e.schedule(SimTime::ZERO, 0);
        assert_eq!(e.run_until(SimTime::MAX), 1);
        assert_eq!(e.run(), 1);
        assert_eq!(e.now(), SimTime::MAX);
    }

    #[test]
    fn determinism_same_seed_same_randoms() {
        fn draw(seed: u64) -> Vec<u64> {
            let mut e = Engine::new(Recorder { seen: vec![] }, seed);
            (0..16).map(|_| e.context_mut().rng().next_u64()).collect()
        }
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
    }
}
