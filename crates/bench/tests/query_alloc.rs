//! Pins the "zero allocations per steady-state WhereIs query" claim.
//!
//! A counting global allocator wraps the system one; after warming the
//! caller-owned path buffer, a burst of `where_is` queries across the
//! whole outcome spectrum must not allocate at all. The test harness runs
//! this file's tests on parallel threads, so the counter is per thread:
//! `where_is` runs on the caller's thread, and each test reads only the
//! allocations its own thread made. The allocator lives in an integration
//! test (its own crate root) because `bips-core` forbids unsafe code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bips_core::graph::{PathEngine, PathEngineKind, WsGraph};
use bips_core::registry::{AccessRights, Registry};
use bips_core::service::{ReadPath, ShardedService, WhereIs};
use bt_baseband::BdAddr;
use desim::tracing::Tracer;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // bump it without allocating, even during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (reallocations included) made so far on this thread.
fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: defers all allocation to the system allocator; the counter is
// a thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is forwarded verbatim from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s pointer/layout contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (which defers to
        // `System`) with the same `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s pointer/layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded verbatim from
        // our caller, and `ptr` was allocated by `System` (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USERS: u64 = 512;
const CELLS: usize = 64;

/// The shared fixture: a line-graph building with the whole outcome
/// spectrum reachable. With `tracer`, trace rings are attached and
/// every query gets a fresh span — the hot path must stay
/// allocation-free either way.
fn build_service(tracer: Option<Arc<Tracer>>) -> ShardedService {
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let mut svc = ShardedService::new(&reg, g.precompute_all_pairs(), 8);
    if let Some(t) = tracer {
        svc.attach_tracer(t);
    }
    let mut ts = 0;
    // User 0 stays logged out (NotLoggedIn answers); user 1 stays out
    // of coverage (no presence).
    for uid in 1..USERS {
        svc.login(uid, "pw", BdAddr::new(1000 + uid)).unwrap();
    }
    for uid in 2..USERS {
        ts += 1;
        svc.ingest(
            BdAddr::new(1000 + uid),
            (uid % CELLS as u64) as u32,
            true,
            ts,
        );
    }
    svc.flush(1);
    svc
}

/// 400 queries across the outcome spectrum; fresh spans when traced.
fn run_burst(svc: &ShardedService, path: &mut Vec<usize>, count: &mut u64) {
    let mut state = 7u64;
    for q in 0..400u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let querier = 2 + state % (USERS - 2);
        // Mix of found, not-logged-in, out-of-coverage, no-such-user
        // and malformed queries: the whole spectrum must be
        // allocation-free, worst paths included (the line graph's
        // longest path is CELLS nodes).
        let (target, from_cell) = match q % 8 {
            0 => (0, 0),               // NotLoggedIn
            1 => (1, 0),               // OutOfCoverage
            2 => (USERS + 5, 0),       // NoSuchUser
            3 => (querier, CELLS + 3), // BadQuery
            _ => ((state >> 7) % USERS, (state >> 13) as usize % CELLS),
        };
        let out = match svc.tracer() {
            Some(t) => {
                let span = t.next_span();
                svc.where_is_traced(querier, target, from_cell, path, span)
            }
            None => svc.where_is(querier, target, from_cell, path),
        };
        match out {
            WhereIs::Found { cell, distance } => {
                assert!((cell as usize) < CELLS && distance.is_finite());
                *count += 1;
            }
            WhereIs::NotLoggedIn
            | WhereIs::OutOfCoverage
            | WhereIs::NoSuchUser
            | WhereIs::BadQuery(_)
            | WhereIs::Denied
            | WhereIs::QuerierNotLoggedIn => {}
        }
    }
}

fn assert_zero_alloc_burst(svc: &ShardedService) {
    let mut path = Vec::new();
    let mut answered = 0u64;

    // Warm-up: grows the path buffer to the longest answer once.
    run_burst(svc, &mut path, &mut answered);
    assert!(answered > 0, "warm-up answered no queries");

    let before = allocations();
    run_burst(svc, &mut path, &mut answered);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state where_is allocated {} times over 400 queries",
        after - before
    );
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let svc = build_service(None);
    assert_zero_alloc_burst(&svc);
}

/// The same fixture over a dynamic path engine instead of the frozen
/// table. `seed` logins/presence are identical to [`build_service`].
fn build_dynamic_service(kind: PathEngineKind) -> ShardedService {
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let svc = ShardedService::new_dynamic(&reg, PathEngine::new(kind, g), 8, ReadPath::Seqlock);
    let mut ts = 0;
    for uid in 1..USERS {
        svc.login(uid, "pw", BdAddr::new(1000 + uid)).unwrap();
    }
    for uid in 2..USERS {
        ts += 1;
        svc.ingest(
            BdAddr::new(1000 + uid),
            (uid % CELLS as u64) as u32,
            true,
            ts,
        );
    }
    svc.flush(1);
    svc
}

/// Dense dynamic mode answers every query from the incrementally
/// maintained flat table: the zero-alloc pin holds across the whole
/// outcome spectrum, exactly like the frozen `Apsp`.
#[test]
fn dynamic_dense_steady_state_queries_do_not_allocate() {
    let svc = build_dynamic_service(PathEngineKind::DynamicDense);
    assert_zero_alloc_burst(&svc);
}

/// Sparse mode: once a source's tree is warm, queries walk the cached
/// `prev` row under the engine's read lock — no allocation. Sources are
/// confined to fewer cells than the cache has slots so the steady-state
/// burst never takes a cold miss.
#[test]
fn dynamic_sparse_warm_tree_queries_do_not_allocate() {
    const SOURCES: usize = 16; // < DEFAULT_CACHE_SLOTS
    let svc = build_dynamic_service(PathEngineKind::DynamicSparse);
    let mut path = Vec::new();
    let mut answered = 0u64;
    let run_warm_burst = |path: &mut Vec<usize>, answered: &mut u64| {
        let mut state = 7u64;
        for _ in 0..400u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let querier = 2 + state % (USERS - 2);
            let target = (state >> 7) % USERS;
            let from_cell = (state >> 13) as usize % SOURCES;
            if let WhereIs::Found { cell, distance } =
                svc.where_is(querier, target, from_cell, path)
            {
                assert!((cell as usize) < CELLS && distance.is_finite());
                *answered += 1;
            }
        }
    };

    // Warm-up: populates ≤ SOURCES cache slots and grows the buffer.
    run_warm_burst(&mut path, &mut answered);
    assert!(answered > 0, "warm-up answered no queries");

    let before = allocations();
    run_warm_burst(&mut path, &mut answered);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm-tree where_is allocated {} times over 400 queries",
        after - before
    );
}

/// Tracing records two ring events and allocates a span per query; the
/// rings are preallocated, so the pin holds with tracing on too.
#[test]
fn steady_state_traced_queries_do_not_allocate() {
    let tracer = Arc::new(Tracer::new(8, 1024));
    let svc = build_service(Some(Arc::clone(&tracer)));
    assert_zero_alloc_burst(&svc);
    assert!(tracer.recorded() >= 800, "traced burst recorded no events");
    assert_eq!(tracer.dropped(), 0);
}
