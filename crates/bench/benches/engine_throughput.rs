//! Criterion bench for the desim engine itself: raw event throughput,
//! the cost of the calendar under cancellation churn, a small calendar,
//! and calendars shaped like the simulated department's — the numbers
//! that bound how much virtual time per wall second every experiment
//! gets.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use desim::{Context, Engine, EventId, SimDuration, SimRng, SimTime, World};

struct SelfScheduler {
    remaining: u64,
}

impl World for SelfScheduler {
    type Event = ();
    fn handle(&mut self, ctx: &mut Context<()>, _: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimDuration::from_micros(625), ());
        }
    }
}

struct Canceller {
    remaining: u64,
}

impl World for Canceller {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Context<u32>, _: u32) {
        if self.remaining > 0 {
            self.remaining -= 1;
            // Schedule two, cancel one: constant lazy-deletion churn.
            let _keep = ctx.schedule_in(SimDuration::from_micros(625), 0);
            let drop_ = ctx.schedule_in(SimDuration::from_micros(1250), 1);
            ctx.cancel(drop_);
        }
    }
}

/// A 64-byte event, the size of the full-system event enum.
struct Payload([u64; 8]);

/// Events pending at once in the department calendar: what the
/// `paper_dept` deployment keeps queued (~685 on average).
const DEPT_PENDING: u64 = 700;

/// Ids a re-aim may pick from: the most recently scheduled ones.
const RECENT: usize = 256;

/// A calendar like the department deployment's: `DEPT_PENDING` events
/// in flight, each handled one re-arming at a slot-grid delay (most
/// events) or a long timer delay (one in eight), and one in eight
/// handlers re-aiming, which cancels a recent event and schedules its
/// replacement.
struct Department {
    remaining: u64,
    recent: Vec<EventId>,
    next: usize,
}

impl Department {
    fn remember(&mut self, id: EventId) {
        if self.recent.len() < RECENT {
            self.recent.push(id);
        } else {
            self.recent[self.next] = id;
            self.next = (self.next + 1) % RECENT;
        }
    }
}

impl World for Department {
    type Event = Payload;
    fn handle(&mut self, ctx: &mut Context<Payload>, ev: Payload) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let kind = ctx.rng().below(8);
        let delay = if kind == 0 {
            SimDuration::from_millis(10 + ctx.rng().below(5_000))
        } else {
            SimDuration::from_micros(625 * (1 + ctx.rng().below(64)))
        };
        let mut next = ev.0;
        next[0] += 1;
        let id = ctx.schedule_in(delay, Payload(next));
        self.remember(id);
        if kind == 1 {
            let k = ctx.rng().below(self.recent.len() as u64) as usize;
            if ctx.cancel(self.recent[k]) {
                let delay = SimDuration::from_micros(625 * (1 + ctx.rng().below(64)));
                let id = ctx.schedule_in(delay, Payload(next));
                self.recent[k] = id;
            }
        }
    }
}

fn department(events: u64) -> Engine<Department> {
    let world = Department {
        remaining: events,
        recent: Vec::new(),
        next: 0,
    };
    let mut e = Engine::new(world, 1);
    for i in 0..DEPT_PENDING {
        let at = SimTime::from_micros(625 * e.context_mut().rng().below(80));
        let id = e.schedule(at, Payload([i; 8]));
        e.world_mut().remember(id);
    }
    e
}

/// A fixed number of events in flight, each re-arming once when handled
/// after a delay drawn by `delay`.
struct Rearm {
    remaining: u64,
    delay: fn(&mut SimRng) -> SimDuration,
}

impl World for Rearm {
    type Event = Payload;
    fn handle(&mut self, ctx: &mut Context<Payload>, ev: Payload) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let delay = (self.delay)(ctx.rng());
        ctx.schedule_in(delay, ev);
    }
}

fn rearm(events: u64, pending: u64, delay: fn(&mut SimRng) -> SimDuration) -> Engine<Rearm> {
    let mut e = Engine::new(
        Rearm {
            remaining: events,
            delay,
        },
        1,
    );
    for i in 0..pending {
        let at = SimTime::ZERO + delay(e.context_mut().rng());
        e.schedule(at, Payload([i; 8]));
    }
    e
}

/// A re-arm one to eight slots ahead.
fn slot_delay(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_micros(625 * (1 + rng.below(8)))
}

/// The delay mix the `paper_dept` deployment schedules with: about 1%
/// at the same instant, 35% between 128 µs and 1 ms (slot-grid
/// follow-ups), and the rest spread log-uniformly from 1 ms to 60 s
/// (timers, LAN, mobility).
fn dept_delay(rng: &mut SimRng) -> SimDuration {
    match rng.below(100) {
        0 => SimDuration::ZERO,
        1..=35 => SimDuration::from_micros(128 + rng.below(1_000 - 128)),
        _ => {
            let floor = 1_000u64 << rng.below(16);
            SimDuration::from_micros((floor + rng.below(floor)).min(60_000_000))
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("100k_chained_events", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::new(SelfScheduler { remaining: 100_000 }, 1);
                e.schedule(SimTime::ZERO, ());
                e
            },
            |mut e| e.run(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("50k_events_with_cancellation", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::new(Canceller { remaining: 50_000 }, 1);
                e.schedule(SimTime::ZERO, 0);
                e
            },
            |mut e| e.run(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("100k_events_department_calendar", |b| {
        b.iter_batched(
            || department(100_000),
            |mut e| e.run(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("100k_events_8_pending", |b| {
        b.iter_batched(
            || rearm(100_000, 8, slot_delay),
            |mut e| e.run(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("100k_events_700_pending_dept_delays", |b| {
        b.iter_batched(
            || rearm(100_000, DEPT_PENDING, dept_delay),
            |mut e| e.run(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
