//! `open_churn`: open-loop queries racing presence writes and topology
//! churn on a live path engine.
//!
//! 100k users on the 256-cell grid behind `ShardedService::new_dynamic`
//! (256 nodes keeps the incremental engine in its dense mode). One
//! client thread drives two connections from a fixed wall-clock
//! schedule:
//!
//! * the query connection sends `WhereIs` requests at `RATE` per
//!   second, due in bursts of `BURST`, with no in-flight cap, so the
//!   server cuts several frames per read and coalesces its writes; each
//!   request's latency counts from the instant it was due, so a stall
//!   also delays the requests queued behind it;
//! * the control connection runs the 50:50 presence writer (as many
//!   moves per second as queries): every `160 / RATE` seconds one
//!   `IngestBatch` of 160 moves and a `Flush`, pipelined, and once the
//!   flush is acked, `MUTS_PER_TICK` seeded `SetEdgeWeight` /
//!   `SetNodeUp` mutations.
//!
//! Reads race writes here, so answers are checked for form and for
//! naming a cell the target held during the request, not against a
//! replay; the write acks and topology acks are deterministic and must
//! equal an in-process replay bit for bit.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bips_bench::loadgen::{addr, fold_acks, generate_trace, grid, registry, Trace, Workload};
use bips_core::graph::{PathEngine, PathEngineKind};
use bips_core::protocol::{LocateOutcome, Notice, Request, Response};
use bips_core::service::{ReadPath, ShardedService};
use desim::{SeedDeriver, SimRng};

use crate::net::{export_serve, export_service, proto_err, Client, ClientTimers, Session, SLO_US};
use crate::report::{median, now, quantile, trimmed_mean, Report};
use crate::stages::{self, Folds, FrameLog, Stages};

const USERS: u64 = 100_000;
const SIDE: usize = 16;
const SHARDS: usize = 8;
const POOL: u64 = 1024;
/// Moves (and queries) per writer tick: the 50:50 mix.
const MOVES_PER_TICK: usize = 160;
/// Offered query rate, per second. At 20,000/s a slow spell on the
/// reference host built a backlog: up to 9% of queries waited over
/// 10 ms.
pub const RATE: f64 = 10_000.0;
/// Queries fall due in bursts of this many, `BURST / RATE` apart.
pub const BURST: usize = 8;
/// Topology mutations per writer tick.
const MUTS_PER_TICK: usize = 2;
/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// How long stragglers may take once a phase stops sending.
const DRAIN: Duration = Duration::from_secs(10);

fn workload(seed: u64, ticks: usize) -> Workload {
    Workload {
        name: "open_churn",
        users: USERS,
        side: SIDE,
        updates_per_tick: MOVES_PER_TICK,
        queries_per_tick: MOVES_PER_TICK,
        ticks,
        pool: POOL,
        shards: SHARDS,
        seed,
    }
}

/// Every user logged in on a dynamic path engine over the grid.
fn build_service(w: &Workload) -> io::Result<ShardedService> {
    let engine = PathEngine::new(PathEngineKind::Dynamic, grid(w.side));
    let svc = ShardedService::new_dynamic(&registry(w.users), engine, w.shards, ReadPath::Seqlock);
    for uid in 0..w.users {
        svc.login(uid, "pw", addr(uid))
            .map_err(|e| proto_err(format!("login {uid}: {e}")))?;
    }
    Ok(svc)
}

/// The seeded topology churn: grid-edge reweights, and now and then
/// one cell taken down for a single writer tick.
struct Churn {
    rng: SimRng,
    down: Option<u32>,
}

impl Churn {
    fn new(seed: u64) -> Churn {
        Churn {
            rng: SeedDeriver::new(seed).rng(7),
            down: None,
        }
    }

    fn tick(&mut self) -> Vec<Request> {
        let n = (SIDE * SIDE) as u64;
        let mut muts = Vec::with_capacity(MUTS_PER_TICK);
        if let Some(node) = self.down.take() {
            muts.push(Request::SetNodeUp { node, up: true });
        }
        while muts.len() < MUTS_PER_TICK {
            let a = self.rng.below(n) as usize;
            if self.down.is_none() && self.rng.below(8) == 0 {
                self.down = Some(a as u32);
                muts.push(Request::SetNodeUp {
                    node: a as u32,
                    up: false,
                });
                continue;
            }
            let (r, c) = (a / SIDE, a % SIDE);
            let b = match self.rng.below(4) {
                0 if c + 1 < SIDE => a + 1,
                1 if r + 1 < SIDE => a + SIDE,
                2 if c > 0 => a - 1,
                _ if r > 0 => a - SIDE,
                _ => a + SIDE,
            };
            muts.push(Request::SetEdgeWeight {
                a: a as u32,
                b: b as u32,
                weight: self.rng.uniform(5.0, 15.0),
            });
        }
        muts
    }
}

fn notices(moves: &[(u64, u32, u32)]) -> Vec<Notice> {
    let mut items = Vec::with_capacity(2 * moves.len());
    for &(uid, old, new) in moves {
        items.push(Notice {
            cell: new,
            addr: addr(uid),
            present: true,
        });
        items.push(Notice {
            cell: old,
            addr: addr(uid),
            present: false,
        });
    }
    items
}

// ---------------------------------------------------------------------
// Readiness waiting. std has no poll; ppoll takes a nanosecond timeout,
// and a 1 µs timer slack lets the schedule be kept to microseconds.
// ---------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap pages to the kernel, so each setup starts from the
/// live data alone. Without it the peak RSS grew with whatever the
/// earlier setups left fragmented: 74–97 MB across seeds.
fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` only releases free heap memory; it
    // takes a padding size and touches no caller memory.
    unsafe {
        malloc_trim(0);
    }
}

fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes its value in arg2 and ignores the
    // rest; it changes only this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

/// Waits until one of `conns` is readable (or writable, while it has
/// bytes to send) or `timeout` passes.
fn wait(conns: [&Client; 2], timeout: Duration) -> io::Result<()> {
    let mut fds = conns.map(|c| PollFd {
        fd: c.stream.as_raw_fd(),
        events: if c.wbuf.is_empty() {
            POLLIN
        } else {
            POLLIN | POLLOUT
        },
        revents: 0,
    });
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is an array of two initialized `struct pollfd`
    // (same layout as `PollFd`) that outlives the call, `ts` is a valid
    // `struct timespec`, and a null sigmask leaves the mask unchanged.
    let r = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if r < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Writes what the socket accepts now.
fn write_some(c: &mut Client) -> io::Result<()> {
    while !c.wbuf.is_empty() {
        match c.stream.write(&c.wbuf) {
            Ok(0) => return Err(proto_err("server stopped reading".into())),
            Ok(n) => {
                c.wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads what the socket has now.
fn read_some(c: &mut Client) -> io::Result<()> {
    loop {
        match c.fill() {
            Ok(0) => return Err(proto_err("server closed the connection".into())),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// Ground truth for racing reads.
// ---------------------------------------------------------------------

/// Each user's last two cell assignments, newest first, stamped with
/// the writer tick that sent them (0 = the initial presence).
struct Truth {
    hist: Vec<[(u32, u32); 2]>,
}

impl Truth {
    fn new(initial: &[u32]) -> Truth {
        Truth {
            hist: initial.iter().map(|&c| [(0, c), (0, c)]).collect(),
        }
    }

    fn moved(&mut self, tick: u32, uid: u64, cell: u32) {
        let h = &mut self.hist[uid as usize];
        *h = [(tick, cell), h[0]];
    }

    /// Whether `cell` is a cell the user held at some point between
    /// writer tick `acked` (fully visible when the query was sent) and
    /// the newest tick sent. `None` when the window reaches past the
    /// two assignments kept.
    fn holds(&self, uid: u64, acked: u32, cell: u32) -> Option<bool> {
        let [newest, older] = self.hist[uid as usize];
        if newest.0 <= acked {
            Some(cell == newest.1)
        } else if older.0 <= acked {
            Some(cell == newest.1 || cell == older.1)
        } else {
            None
        }
    }
}

/// A `WhereIs` answer is well formed: a found cell is on the grid and
/// its path is a walk of adjacent grid cells from the querier's cell.
fn well_formed(from_cell: u32, out: &LocateOutcome) -> bool {
    let n = (SIDE * SIDE) as u32;
    match out {
        LocateOutcome::Found {
            cell,
            path,
            distance,
        } => {
            let adjacent = path.windows(2).all(|p| {
                let (a, b) = (p[0] as usize, p[1] as usize);
                a.abs_diff(b) == 1 && a / SIDE == b / SIDE || a.abs_diff(b) == SIDE
            });
            *cell < n
                && distance.is_finite()
                && *distance >= 0.0
                && path.first() == Some(&from_cell)
                && path.last() == Some(cell)
                && path.iter().all(|&c| c < n)
                && adjacent
        }
        LocateOutcome::OutOfCoverage => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// The open loop.
// ---------------------------------------------------------------------

/// A query in flight: its due and send instants, and what it asked.
struct Pending {
    corr: u64,
    due: Instant,
    sent: Instant,
    target: u64,
    from_cell: u32,
    acked: u32,
}

/// Where the schedule stands between phases.
struct Cursor {
    query: usize,
    tick: usize,
    churn: Churn,
    /// Writer ticks fully flushed and acked.
    acked: u32,
}

#[derive(Default)]
struct Phase {
    lat_ns: Vec<u64>,
    visible_ns: Vec<u64>,
    rtt_ns: Vec<u64>,
    late_ns: Vec<u64>,
    secs: f64,
    attempted: u64,
    failed: u64,
    answered: u64,
    /// Answered within `SLO_US` of their due time.
    within: u64,
    accurate: u64,
    verified: u64,
}

/// Runs the schedule for `seconds`, then drains what is in flight.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    s: &mut Session,
    trace: &Trace,
    truth: &mut Truth,
    cur: &mut Cursor,
    seconds: f64,
    folds: &mut Folds,
    mut log: Option<&mut FrameLog>,
    mut tr: Option<&mut ClientTimers>,
) -> io::Result<Phase> {
    let burst_gap = Duration::from_secs_f64(BURST as f64 / RATE);
    let tick_gap = Duration::from_secs_f64(MOVES_PER_TICK as f64 / RATE);
    let queries_left = trace.queries.len() - cur.query;
    let ticks_left = trace.moves.len() / MOVES_PER_TICK - cur.tick;
    let mut ph = Phase::default();
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    // Control responses still due for the batch in flight, and when
    // that batch was sent.
    let mut ctl_expect: VecDeque<(u64, Request)> = VecDeque::new();
    let mut ctl_sent = now();
    let mut muts: Vec<Request> = Vec::new();
    let mut last_answer = now();
    let (mut sent_q, mut sent_t) = (0usize, 0usize);
    let t0 = now();
    let stop = t0 + Duration::from_secs_f64(seconds);
    let due_at = |j: usize| t0 + burst_gap * (j / BURST) as u32;
    loop {
        let at = now();
        let sending = at < stop;
        // Queries that have come due.
        while sending && sent_q < queries_left {
            let due = due_at(sent_q);
            if due > at {
                break;
            }
            let (querier, target, from_cell) = trace.queries[cur.query + sent_q];
            let req = Request::WhereIs {
                querier,
                target,
                from_cell,
            };
            let start = s.query.wbuf.len();
            let corr = match tr.as_deref_mut() {
                Some(t) => t.encode.time(|| s.query.push(&req.encode())),
                None => s.query.push(&req.encode()),
            };
            if let Some(log) = log.as_deref_mut() {
                log.push(&s.query.wbuf[start..]);
            }
            ph.late_ns.push((at - due).as_nanos() as u64);
            inflight.push_back(Pending {
                corr,
                due,
                sent: at,
                target,
                from_cell,
                acked: cur.acked,
            });
            sent_q += 1;
        }
        // The writer's next tick, once the previous one is fully acked.
        let tick_due = t0 + tick_gap * sent_t as u32;
        if sending && ctl_expect.is_empty() && sent_t < ticks_left && tick_due <= at {
            let tick = cur.tick + sent_t;
            let moves = &trace.moves[tick * MOVES_PER_TICK..(tick + 1) * MOVES_PER_TICK];
            let items = notices(moves);
            let base_us = s.ts + 1;
            s.ts += items.len() as u64;
            for req in [Request::IngestBatch { base_us, items }, Request::Flush] {
                push_control(&mut s.control, req, log.as_deref_mut(), &mut ctl_expect);
            }
            muts = cur.churn.tick();
            let stamp = (tick + 1) as u32;
            for &(uid, _, new) in moves {
                truth.moved(stamp, uid, new);
            }
            ctl_sent = at;
            sent_t += 1;
        }
        write_some(&mut s.query)?;
        write_some(&mut s.control)?;

        read_some(&mut s.query)?;
        let recv = now();
        loop {
            let next = match tr.as_deref_mut() {
                Some(t) => t.decode.time(|| s.query.next_response())?,
                None => s.query.next_response()?,
            };
            let Some((corr, resp)) = next else { break };
            let Some(p) = inflight.pop_front() else {
                return Err(proto_err("response with no query in flight".into()));
            };
            if p.corr != corr {
                return Err(proto_err(format!(
                    "correlation id {corr}, expected {}",
                    p.corr
                )));
            }
            ph.attempted += 1;
            last_answer = recv;
            ph.lat_ns.push((recv - p.due).as_nanos() as u64);
            ph.rtt_ns.push((recv - p.sent).as_nanos() as u64);
            match resp {
                Response::LocateResult(out) if well_formed(p.from_cell, &out) => {
                    ph.answered += 1;
                    ph.within += u64::from((recv - p.due).as_secs_f64() * 1e6 <= SLO_US);
                    if let LocateOutcome::Found { cell, .. } = out {
                        if let Some(ok) = truth.holds(p.target, p.acked, cell) {
                            ph.verified += 1;
                            ph.accurate += u64::from(ok);
                        }
                    }
                }
                _ => ph.failed += 1,
            }
        }
        read_some(&mut s.control)?;
        while let Some((corr, resp)) = s.control.next_response()? {
            let Some((expected, req)) = ctl_expect.pop_front() else {
                return Err(proto_err("control response with nothing in flight".into()));
            };
            if corr != expected {
                return Err(proto_err(format!(
                    "control correlation id {corr}, expected {expected}"
                )));
            }
            ph.attempted += 1;
            match (req, resp) {
                (Request::IngestBatch { items, .. }, Response::IngestAck { queued })
                    if queued as usize == items.len() => {}
                (Request::Flush, Response::FlushAck { acks }) => {
                    ph.visible_ns.push((recv - ctl_sent).as_nanos() as u64);
                    fold_acks(&mut folds.acks, &acks);
                    for req in muts.drain(..) {
                        push_control(&mut s.control, req, log.as_deref_mut(), &mut ctl_expect);
                    }
                }
                (
                    Request::SetEdgeWeight { .. } | Request::SetNodeUp { .. },
                    Response::TopologyAck { applied, epoch },
                ) => folds.topology_ack(applied, epoch),
                _ => ph.failed += 1,
            }
            if ctl_expect.is_empty() {
                cur.acked = (cur.tick + sent_t) as u32;
            }
        }
        write_some(&mut s.control)?;

        let idle = inflight.is_empty() && ctl_expect.is_empty();
        if !sending && idle {
            break;
        }
        if at > stop + DRAIN {
            ph.failed += (inflight.len() + ctl_expect.len()) as u64;
            ph.attempted += (inflight.len() + ctl_expect.len()) as u64;
            return Err(proto_err(format!(
                "{} queries and {} control requests unanswered {DRAIN:?} after the schedule ended",
                inflight.len(),
                ctl_expect.len()
            )));
        }
        let mut next = stop.max(at) + Duration::from_millis(1);
        if sending {
            if sent_q < queries_left {
                next = next.min(due_at(sent_q));
            }
            if ctl_expect.is_empty() && sent_t < ticks_left {
                next = next.min(t0 + tick_gap * sent_t as u32);
            }
        }
        wait(
            [&s.query, &s.control],
            next.saturating_duration_since(now()),
        )?;
    }
    ph.secs = last_answer.saturating_duration_since(t0).as_secs_f64();
    cur.query += sent_q;
    cur.tick += sent_t;
    Ok(ph)
}

/// Queues one control request, logging its frame.
fn push_control(
    c: &mut Client,
    req: Request,
    log: Option<&mut FrameLog>,
    expect: &mut VecDeque<(u64, Request)>,
) {
    let at = c.wbuf.len();
    let corr = c.push(&req.encode());
    if let Some(log) = log {
        log.push(&c.wbuf[at..]);
    }
    expect.push_back((corr, req));
}

fn set_nonblocking(s: &Session, on: bool) -> io::Result<()> {
    s.query.stream.set_nonblocking(on)?;
    s.control.stream.set_nonblocking(on)
}

/// Runs the workload; `traced` selects the per-layer run.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> io::Result<()> {
    set_timer_slack_ns(1_000);
    let ticks = (seconds * RATE / MOVES_PER_TICK as f64).ceil() as usize + 1;
    let trace = generate_trace(&workload(seed, ticks));
    let mut truth = Truth::new(&trace.initial);

    let setups = if traced { 1 } else { SETUPS };
    let (mut s, mut folds, setup_secs) = Session::open_timed(
        setups,
        || {
            release_free_memory();
            build_service(&workload(seed, 0))
        },
        &trace.initial,
        rep,
    )?;
    let mut cur = Cursor {
        query: 0,
        tick: 0,
        churn: Churn::new(seed),
        acked: 0,
    };
    let mut log = FrameLog::default();
    let mut ct = ClientTimers::default();
    let phases = set_nonblocking(&s, true).and_then(|()| {
        if traced {
            let plain = run_phase(
                &mut s,
                &trace,
                &mut truth,
                &mut cur,
                seconds / 2.0,
                &mut folds,
                Some(&mut log),
                None,
            )?;
            let traced = run_phase(
                &mut s,
                &trace,
                &mut truth,
                &mut cur,
                seconds / 2.0,
                &mut folds,
                Some(&mut log),
                Some(&mut ct),
            )?;
            Ok((plain, Some(traced)))
        } else {
            let plain = run_phase(
                &mut s, &trace, &mut truth, &mut cur, seconds, &mut folds, None, None,
            )?;
            Ok((plain, None))
        }
    });
    let (plain, traced_phase) = match phases.and_then(|p| set_nonblocking(&s, false).map(|()| p)) {
        Ok(p) => p,
        Err(e) => {
            s.abort();
            return Err(e);
        }
    };
    let bad = plain.failed + traced_phase.as_ref().map_or(0, |p| p.failed);
    if bad > 0 {
        rep.mismatch(format!(
            "{bad} responses were malformed, out of range or of the wrong kind"
        ));
    }
    // Before the in-process replay below builds a second service.
    rep.set("peak_rss_mb", crate::report::peak_rss_mb());
    export_service(&s.svc, rep);
    let svc = Arc::clone(&s.svc);
    let stats = s.close()?;
    export_serve(&stats, rep);
    drop(svc);

    // Correctness: the write and topology acks replayed in process.
    let mut replay_folds = Folds::default();
    let replay_svc = build_service(&workload(seed, 0))?;
    stages::load_initial(&replay_svc, &trace.initial, &mut replay_folds);
    if let Some(traced) = traced_phase {
        let mut st = Stages::default();
        let bad = stages::replay(&replay_svc, &log, &mut st, &mut replay_folds);
        if bad > 0 {
            rep.mismatch(format!("{bad} logged frames did not replay"));
        }
        st.export(rep);
        report_layers(&plain, &traced, &st, &ct, rep);
    } else {
        replay_control(&replay_svc, &trace, seed, cur.tick, &mut replay_folds);
        report_e2e(&plain, rep);
        rep.set("setup_s", median(&setup_secs));
    }
    if (replay_folds.acks, replay_folds.topology) != (folds.acks, folds.topology) {
        rep.mismatch(format!(
            "socket ack/topology folds {:016x}/{:016x} differ from the in-process replay {:016x}/{:016x} over {} writer ticks",
            folds.acks, folds.topology, replay_folds.acks, replay_folds.topology, cur.tick
        ));
    }
    println!(
        "open_churn: {} queries at {RATE}/s, {} writer ticks",
        cur.query, cur.tick
    );
    Ok(())
}

/// The writer's requests for `ticks` ticks, applied in process.
fn replay_control(svc: &ShardedService, trace: &Trace, seed: u64, ticks: usize, folds: &mut Folds) {
    let mut churn = Churn::new(seed);
    let mut ts = trace.initial.len() as u64;
    let Some(lock) = svc.path_engine() else {
        return;
    };
    for tick in 0..ticks {
        let moves = &trace.moves[tick * MOVES_PER_TICK..(tick + 1) * MOVES_PER_TICK];
        for (i, n) in notices(moves).iter().enumerate() {
            svc.ingest(n.addr, n.cell, n.present, ts + 1 + i as u64);
        }
        ts += 2 * moves.len() as u64;
        fold_acks(&mut folds.acks, &svc.flush(crate::net::FLUSH_JOBS));
        for m in churn.tick() {
            let mut eng = lock.write().unwrap_or_else(|e| e.into_inner());
            let applied = match m {
                Request::SetEdgeWeight { a, b, weight } => eng
                    .set_edge_weight(a as usize, b as usize, weight)
                    .unwrap_or(false),
                Request::SetNodeUp { node, up } => {
                    eng.set_node_up(node as usize, up).unwrap_or(false)
                }
                _ => false,
            };
            folds.topology_ack(applied, eng.epoch());
        }
    }
}

fn report_e2e(ph: &Phase, rep: &mut Report) {
    rep.attempted += ph.attempted;
    rep.failed += ph.failed;
    rep.set("qps", ph.answered as f64 / ph.secs.max(f64::MIN_POSITIVE));
    rep.set(
        "slo_met_ratio",
        ph.within as f64 / ph.lat_ns.len().max(1) as f64,
    );
    rep.set(
        "tracking_accuracy",
        ph.accurate as f64 / ph.verified.max(1) as f64,
    );
    rep.set(
        "success_ratio",
        (ph.attempted - ph.failed) as f64 / ph.attempted.max(1) as f64,
    );
}

fn report_layers(plain: &Phase, traced: &Phase, st: &Stages, ct: &ClientTimers, rep: &mut Report) {
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    rep.attempted += attempted;
    rep.failed += failed;
    rep.set("error_ratio", failed as f64 / attempted.max(1) as f64);
    let mut plain_rtt = plain.rtt_ns.clone();
    let mut plain_lat = plain.lat_ns.clone();
    let mut traced_lat = traced.lat_ns.clone();
    let mut late = plain.late_ns.clone();
    let e2e = quantile(&mut plain_rtt, 0.5) as f64;
    let stage_sum = ct.encode.p50_ns() + st.server_query_p50_ns() + ct.decode.p50_ns();
    let due_p50 = quantile(&mut plain_lat, 0.5) as f64;
    rep.set("lat_tmean_us", trimmed_mean(&plain.lat_ns) / 1e3);
    rep.set("lat_p50_us", due_p50 / 1e3);
    rep.set("lat_p99_us", quantile(&mut plain_lat, 0.99) as f64 / 1e3);
    let mut visible = plain.visible_ns.clone();
    rep.set("visible_us", quantile(&mut visible, 0.5) as f64 / 1e3);
    let due_p50_traced = quantile(&mut traced_lat, 0.5) as f64;
    rep.set("socket.e2e_p50_ns", e2e);
    rep.set("socket.stage_sum_ns", stage_sum);
    rep.set("socket.remainder_ns", e2e - stage_sum);
    rep.set(
        "trace.overhead_pct",
        (due_p50_traced - due_p50) / due_p50.max(1.0) * 100.0,
    );
    rep.set("bench.client.encode_ns", ct.encode.p50_ns());
    rep.set("bench.client.decode_ns", ct.decode.p50_ns());
    rep.set(
        "bench.client.encode.allocs_per_op",
        ct.encode.allocs_per_op(),
    );
    rep.set(
        "bench.client.decode.allocs_per_op",
        ct.decode.allocs_per_op(),
    );
    rep.set(
        "loadgen.late_p99_us",
        quantile(&mut late, 0.99) as f64 / 1e3,
    );
}
