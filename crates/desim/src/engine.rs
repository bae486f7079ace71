//! The event calendar and execution loop.
//!
//! An [`Engine`] owns a user-supplied [`World`] (the model state) and a
//! time-ordered calendar of the world's events. Execution repeatedly pops
//! the earliest event and hands it to [`World::handle`] together with a
//! [`Context`] through which the handler reads the clock, schedules or
//! cancels future events, and draws randomness.
//!
//! Determinism: events at equal times run in the order they were scheduled
//! (FIFO tie-break by a monotone sequence number), and all randomness comes
//! from the engine's seeded RNG, so a simulation is a pure function of the
//! initial world, the seed, and the initial events.
//!
//! Layout: the calendar keeps ordering and storage apart. The heap holds
//! 24-byte `(at, seq, slot)` keys; each pending event sits in a slab slot
//! that does not move while the event waits. Because `(at, seq)` is a
//! total order, the pop sequence depends only on the keys, never on the
//! heap's internal shape.

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

/// One entry in the calendar heap: the ordering key and the slab slot
/// holding the event. Ordered by `(at, seq)`: time order with a FIFO
/// tie-break through the monotone sequence number. Small and `Copy`, so
/// sifting moves 24 bytes per level whatever the event type.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn order(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Per-slot slab metadata: where the slot's key currently sits in the
/// heap, and a generation tag bumped every time the slot is vacated.
#[derive(Clone, Copy)]
struct SlotMeta {
    generation: u32,
    /// Current index in the heap `Vec`, or [`FREE`] when vacant.
    heap_pos: u32,
}

/// Sentinel `heap_pos` marking a vacant slab slot.
const FREE: u32 = u32::MAX;

/// Branching factor of the calendar heap. A 4-ary layout halves the tree
/// depth of a binary heap and keeps each key's children in 96 contiguous
/// bytes, which measurably helps the schedule/pop churn of the hot loop.
const ARITY: usize = 4;

/// The engine surface visible to event handlers: the clock, the calendar and
/// the random stream.
///
/// A `Context` is passed by the engine into [`World::handle`]; handlers use
/// it to schedule follow-up events with [`schedule_in`](Context::schedule_in)
/// or [`schedule_at`](Context::schedule_at), to [`cancel`](Context::cancel)
/// pending events, and to draw random values via [`rng`](Context::rng).
///
/// The calendar is split in two. A 4-ary min-heap orders small `Copy`
/// keys `(at, seq, slot)`; the events themselves stay put in a slab
/// indexed by `slot`, next to that slot's metadata. Sifting moves a hole
/// through the heap, one key write per level, and never touches an event,
/// so the per-operation cost does not grow with the event type.
pub struct Context<E> {
    now: SimTime,
    /// Index-tracked min-heap of pending event keys.
    heap: Vec<Key>,
    /// Slab of slot metadata; `heap[slots[s].heap_pos].slot == s` for every
    /// occupied slot `s`. Grows to the high-water mark of simultaneously
    /// pending events and is reused thereafter.
    slots: Vec<SlotMeta>,
    /// The pending events, parallel to `slots`: `Some` exactly for the
    /// occupied slots.
    events: Vec<Option<E>>,
    /// Vacant slab slots, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
    rng: SimRng,
}

impl<E> Context<E> {
    fn new(rng: SimRng) -> Self {
        Context {
            now: SimTime::ZERO,
            heap: Vec::new(),
            slots: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.events[s as usize] = Some(event);
                s
            }
            None => {
                let s = self.slots.len();
                assert!(s < FREE as usize, "calendar slot index overflow");
                self.slots.push(SlotMeta {
                    generation: 0,
                    heap_pos: FREE,
                });
                self.events.push(Some(event));
                s as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        let pos = self.heap.len();
        let key = Key { at, seq, slot };
        self.heap.push(key);
        self.sift_up(pos, key);
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
    /// Cancellation is *eager*: the key is removed from the heap in
    /// O(log n), the event is dropped and its slab slot reclaimed
    /// immediately, so cancelled events cost neither memory nor pop-time
    /// tombstone skips.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        let Some(meta) = self.slots.get(slot as usize) else {
            return false;
        };
        if meta.generation != id.generation() || meta.heap_pos == FREE {
            return false;
        }
        let pos = meta.heap_pos as usize;
        self.remove_at(pos);
        self.release_slot(slot);
        true
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.heap.len()
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

    /// Writes `key` at heap index `pos` and records the position in its
    /// slot.
    #[inline]
    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        self.slots[key.slot as usize].heap_pos = pos as u32;
    }

    /// Settles `key` into the hole at `pos`, moving the hole upward past
    /// every larger ancestor.
    fn sift_up(&mut self, mut pos: usize, key: Key) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = self.heap[parent];
            if key.order() >= above.order() {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, key);
    }

    /// Settles `key` into the hole at `pos`, moving the hole downward past
    /// every smaller child.
    fn sift_down(&mut self, mut pos: usize, key: Key) {
        let len = self.heap.len();
        loop {
            let first = pos * ARITY + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.heap[child].order() < self.heap[best].order() {
                    best = child;
                }
            }
            let below = self.heap[best];
            if below.order() >= key.order() {
                break;
            }
            self.place(pos, below);
            pos = best;
        }
        self.place(pos, key);
    }

    /// Removes the key at heap index `pos`, re-settling the last key into
    /// the hole it leaves. Does not touch the removed key's slab slot —
    /// the caller releases it.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("heap non-empty");
        if pos == self.heap.len() {
            return;
        }
        // The displaced key may belong above or below `pos`.
        if pos > 0 && last.order() < self.heap[(pos - 1) / ARITY].order() {
            self.sift_up(pos, last);
        } else {
            self.sift_down(pos, last);
        }
    }

    /// Marks `slot` vacant, invalidating all outstanding ids for it, and
    /// returns the event it held.
    fn release_slot(&mut self, slot: u32) -> E {
        let meta = &mut self.slots[slot as usize];
        meta.generation = meta.generation.wrapping_add(1);
        meta.heap_pos = FREE;
        self.free.push(slot);
        self.events[slot as usize]
            .take()
            .expect("an occupied slot holds its event")
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let &Key { at, slot, .. } = self.heap.first()?;
        self.remove_at(0);
        Some((at, self.release_slot(slot)))
    }

    // Debug cannot be derived (events in the calendar need not be Debug),
    // so render a summary instead.
    fn debug_summary(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish_non_exhaustive()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
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
        match self.ctx.pop() {
            Some((at, event)) => {
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
                true
            }
            None => false,
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
        while let Some(t) = self.ctx.peek_time() {
            if t >= deadline {
                break;
            }
            self.step();
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

    /// Model-checks the index-tracked heap against a sorted reference:
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
