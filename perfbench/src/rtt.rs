//! `rtt_1m`: closed-loop round trips over loopback TCP at paper scale.
//!
//! 1M users on the 256-cell grid behind the frozen all-pairs table. Each
//! barriered tick sends the 80:20 mix's 64 moves as one `IngestBatch`
//! plus a `Flush` on the control connection, then the tick's 256
//! `WhereIs` queries one at a time on the query connection. With one
//! request in flight, a request's latency is its fixed per-request
//! cost: encode, two socket crossings, serve, decode.
//!
//! The client and every server thread run pinned to one CPU. Left to
//! the scheduler, the two ends share a CPU in some runs and not in
//! others, and a round trip then takes ~9 µs or ~30 µs on the reference
//! host: the run would measure the placement.

use std::io;
use std::sync::Arc;

use bips_bench::loadgen::{self, addr, fold_acks, generate_trace, Trace, Workload};
use bips_core::protocol::{LocateOutcome, Notice, Request, Response};

use crate::net::{
    call_logged, export_serve, export_service, pin_to_one_cpu, proto_err, ClientTimers, Session,
    SLO_US,
};
use crate::report::{median, now, quantile, trimmed_mean, Report};
use crate::stages::{self, Folds, FrameLog, Stages};

const USERS: u64 = 1_000_000;
const SIDE: usize = 16;
const SHARDS: usize = 16;
const POOL: u64 = 4096;
/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Trace length per measured second: room for RTTs down to ~8 µs.
const TICKS_PER_SEC: usize = 500;

fn workload(seed: u64, ticks: usize) -> Workload {
    Workload {
        name: "rtt_1m",
        users: USERS,
        side: SIDE,
        updates_per_tick: 64,
        queries_per_tick: 256,
        ticks,
        pool: POOL,
        shards: SHARDS,
        seed,
    }
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    lat_ns: Vec<u64>,
    visible_ns: Vec<u64>,
    query_secs: f64,
    attempted: u64,
    failed: u64,
    answered: u64,
    /// Answered within `SLO_US`.
    within: u64,
    accurate: u64,
}

/// Runs barriered ticks from `*tick` until `seconds` elapse or the
/// trace ends.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    s: &mut Session,
    trace: &Trace,
    current: &mut [u32],
    tick: &mut usize,
    seconds: f64,
    folds: &mut Folds,
    mut log: Option<&mut FrameLog>,
    mut tr: Option<&mut ClientTimers>,
) -> io::Result<Phase> {
    let w = workload(0, 0);
    let (upt, qpt) = (w.updates_per_tick, w.queries_per_tick);
    let ticks = trace.queries.len() / qpt;
    let mut ph = Phase::default();
    let start = now();
    while *tick < ticks && start.elapsed().as_secs_f64() < seconds {
        let moves = &trace.moves[*tick * upt..(*tick + 1) * upt];
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
        let sent = items.len();
        let base_us = s.ts + 1;
        s.ts += sent as u64;
        let ingest = Request::IngestBatch { base_us, items }.encode();
        let t0 = now();
        ph.attempted += 2;
        match call_logged(&mut s.control, &ingest, log.as_deref_mut())? {
            Response::IngestAck { queued } if queued as usize == sent => {}
            _ => ph.failed += 1,
        }
        match call_logged(&mut s.control, &Request::Flush.encode(), log.as_deref_mut())? {
            Response::FlushAck { acks } if acks.len() == sent => {
                ph.visible_ns.push(t0.elapsed().as_nanos() as u64);
                fold_acks(&mut folds.acks, &acks);
            }
            _ => ph.failed += 1,
        }
        for &(uid, _, new) in moves {
            current[uid as usize] = new;
        }

        let block = now();
        for &(querier, target, from_cell) in &trace.queries[*tick * qpt..(*tick + 1) * qpt] {
            ph.attempted += 1;
            let req = Request::WhereIs {
                querier,
                target,
                from_cell,
            };
            let t0 = now();
            let resp = match tr.as_deref_mut() {
                None => {
                    let corr = s.query.push(&req.encode());
                    if let Some(log) = log.as_deref_mut() {
                        log.push(&s.query.wbuf);
                    }
                    s.query.flush()?;
                    let (got, r) = s.query.recv()?;
                    (got == corr).then_some(()).ok_or_else(|| {
                        proto_err(format!("correlation id {got}, expected {corr}"))
                    })?;
                    r
                }
                Some(t) => {
                    let corr = t.encode.time(|| s.query.push(&req.encode()));
                    if let Some(log) = log.as_deref_mut() {
                        log.push(&s.query.wbuf);
                    }
                    s.query.flush()?;
                    loop {
                        if s.query.fill()? == 0 {
                            return Err(proto_err("server closed the query connection".into()));
                        }
                        if let Some((got, r)) = t.decode.time(|| s.query.next_response())? {
                            if got != corr {
                                return Err(proto_err(format!(
                                    "correlation id {got}, expected {corr}"
                                )));
                            }
                            break r;
                        }
                    }
                }
            };
            let ns = t0.elapsed().as_nanos() as u64;
            ph.lat_ns.push(ns);
            let Response::LocateResult(out) = resp else {
                ph.failed += 1;
                continue;
            };
            ph.answered += 1;
            ph.within += u64::from(ns as f64 <= SLO_US * 1e3);
            if let LocateOutcome::Found { cell, path, .. } = &out {
                if *cell == current[target as usize]
                    && path.first() == Some(&from_cell)
                    && path.last() == Some(cell)
                {
                    ph.accurate += 1;
                }
            }
            folds.answer(&out);
        }
        ph.query_secs += block.elapsed().as_secs_f64();
        *tick += 1;
    }
    Ok(ph)
}

/// Runs the workload; `traced` selects the per-layer run.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> io::Result<()> {
    // Before the server starts, so its threads inherit the pin.
    match pin_to_one_cpu() {
        Some(cpu) => println!("rtt_1m: client and server pinned to CPU {cpu}"),
        None => println!("rtt_1m: could not pin to one CPU; running unpinned"),
    }
    let max_ticks = (seconds.ceil() as usize).max(1) * TICKS_PER_SEC;
    let trace = generate_trace(&workload(seed, max_ticks));
    let mut current = trace.initial.clone();

    let setups = if traced { 1 } else { SETUPS };
    let (mut s, mut folds, setup_secs) = Session::open_timed(
        setups,
        || Ok(loadgen::build_service(&workload(seed, 0))),
        &trace.initial,
        rep,
    )?;
    let mut tick = 0;

    let result = if traced {
        run_traced(
            &mut s,
            &trace,
            &mut current,
            &mut tick,
            seconds,
            &mut folds,
            rep,
        )
    } else {
        run_phase(
            &mut s,
            &trace,
            &mut current,
            &mut tick,
            seconds,
            &mut folds,
            None,
            None,
        )
        .map(Some)
    };
    let phase = match result {
        Ok(p) => p,
        Err(e) => {
            s.abort();
            return Err(e);
        }
    };
    export_service(&s.svc, rep);
    let svc = Arc::clone(&s.svc);
    let stats = s.close()?;
    export_serve(&stats, rep);
    drop(svc);

    let Some(ph) = phase else {
        return Ok(()); // traced run: everything is reported already
    };
    rep.attempted += ph.attempted;
    rep.failed += ph.failed;
    check_answers(ph.failed, ph.answered - ph.accurate, rep);
    report_e2e(&ph, rep);
    rep.set("setup_s", median(&setup_secs));

    // Correctness: the same ticks replayed in process by the
    // reference replay must produce bit-identical folds.
    let (reference, _) = loadgen::run_sharded(&workload(seed, tick), &trace, 1);
    if reference.checksum != folds.answers || reference.ack_checksum != folds.acks {
        rep.mismatch(format!(
            "socket folds {:016x}/{:016x} differ from run_sharded {:016x}/{:016x} over {tick} ticks",
            folds.answers, folds.acks, reference.checksum, reference.ack_checksum
        ));
    }
    println!("rtt_1m: {tick} ticks, {} queries", ph.lat_ns.len());
    Ok(())
}

/// Every response must be an answer, and every answer must name the
/// target's cell under the trace's ground truth.
fn check_answers(wrong_kind: u64, wrong_cell: u64, rep: &mut Report) {
    if wrong_kind > 0 {
        rep.mismatch(format!("{wrong_kind} responses were of the wrong kind"));
    }
    if wrong_cell > 0 {
        rep.mismatch(format!(
            "{wrong_cell} answers did not name the target's cell and a path to it"
        ));
    }
}

fn report_e2e(ph: &Phase, rep: &mut Report) {
    rep.set(
        "qps",
        ph.lat_ns.len() as f64 / ph.query_secs.max(f64::MIN_POSITIVE),
    );
    rep.set(
        "slo_met_ratio",
        ph.within as f64 / ph.lat_ns.len().max(1) as f64,
    );
    rep.set(
        "tracking_accuracy",
        ph.accurate as f64 / ph.answered.max(1) as f64,
    );
    rep.set(
        "success_ratio",
        (ph.attempted - ph.failed) as f64 / ph.attempted.max(1) as f64,
    );
    rep.set("peak_rss_mb", crate::report::peak_rss_mb());
}

/// The per-layer run: an untraced phase for the end-to-end baseline, a
/// traced phase with client stage timers, then the in-process replay of
/// every frame both phases sent. Returns `None`: it reports per-layer
/// metrics only.
fn run_traced(
    s: &mut Session,
    trace: &Trace,
    current: &mut [u32],
    tick: &mut usize,
    seconds: f64,
    folds: &mut Folds,
    rep: &mut Report,
) -> io::Result<Option<Phase>> {
    let mut log = FrameLog::default();
    let plain = run_phase(
        s,
        trace,
        current,
        tick,
        seconds / 2.0,
        folds,
        Some(&mut log),
        None,
    )?;
    let mut ct = ClientTimers::default();
    let traced = run_phase(
        s,
        trace,
        current,
        tick,
        seconds / 2.0,
        folds,
        Some(&mut log),
        Some(&mut ct),
    )?;

    let mut replay_folds = Folds::default();
    let svc = loadgen::build_service(&workload(0, 0));
    stages::load_initial(&svc, &trace.initial, &mut replay_folds);
    let mut st = Stages::default();
    let bad = stages::replay(&svc, &log, &mut st, &mut replay_folds);
    drop(svc);
    if bad > 0 || replay_folds != *folds {
        rep.mismatch(format!(
            "in-process replay folds {replay_folds:?} ({bad} bad frames) differ from socket folds {folds:?}"
        ));
    }
    st.export(rep);

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    rep.attempted += attempted;
    rep.failed += failed;
    check_answers(
        failed,
        plain.answered + traced.answered - plain.accurate - traced.accurate,
        rep,
    );
    rep.set("error_ratio", failed as f64 / attempted.max(1) as f64);
    let mut plain_lat = plain.lat_ns.clone();
    let mut traced_lat = traced.lat_ns.clone();
    let e2e = quantile(&mut plain_lat, 0.5) as f64;
    rep.set("lat_tmean_us", trimmed_mean(&plain.lat_ns) / 1e3);
    rep.set("lat_p50_us", e2e / 1e3);
    rep.set("lat_p99_us", quantile(&mut plain_lat, 0.99) as f64 / 1e3);
    let mut visible = plain.visible_ns.clone();
    rep.set("visible_us", quantile(&mut visible, 0.5) as f64 / 1e3);
    let e2e_traced = quantile(&mut traced_lat, 0.5) as f64;
    let stage_sum = ct.encode.p50_ns() + st.server_query_p50_ns() + ct.decode.p50_ns();
    rep.set("socket.e2e_p50_ns", e2e);
    rep.set("socket.stage_sum_ns", stage_sum);
    rep.set("socket.remainder_ns", e2e - stage_sum);
    rep.set(
        "trace.overhead_pct",
        (e2e_traced - e2e) / e2e.max(1.0) * 100.0,
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
    rep.set("loadgen.late_p99_us", 0.0);
    println!(
        "rtt_1m traced: {} untraced + {} traced queries; stage sum {stage_sum} ns + remainder {} ns = untraced e2e p50 {e2e} ns",
        plain.lat_ns.len(),
        traced.lat_ns.len(),
        e2e - stage_sum
    );
    Ok(None)
}
