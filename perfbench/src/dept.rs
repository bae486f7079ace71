//! `paper_dept`: the paper's deployment, simulated.
//!
//! `BipsSystem` on the academic department (9 rooms) at Fig. 2's
//! densest setting: 20 random-walking handhelds per cell, 180 users,
//! congestion weights on. After a 120 s warm-up in which everyone is
//! discovered and logs in, a seeded pair of users runs a `Locate` every
//! 5 simulated seconds for one simulated hour (plus five minutes for the
//! last answers to arrive). Each repetition is a fresh deployment with
//! its own seed; the run repeats until `--seconds` have passed.
//!
//! Latencies here are simulated time, so `slo_met_ratio` and
//! `tracking_accuracy` are deterministic for a seed
//! and are taken from the first `GUARD_REPS` repetitions only; a
//! performance change must not move them. `qps` (answers per wall
//! second) and `setup_s` are the wall-clock costs.

use std::io;

use bips_bench::loadgen::{fold, CHECKSUM_INIT};
use bips_core::protocol::LocateOutcome;
use bips_core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips_mobility::walker::WalkMode;
use desim::probe::{EngineProbe, ProbeHandle};
use desim::stats::OnlineStats;
use desim::{Engine, MetricSet, SeedDeriver, SimDuration, SimTime};

use crate::report::{median, now, quantile, trimmed_mean, Report};

const ROOMS: usize = 9;
const USERS: usize = 20 * ROOMS;
const WARMUP_S: u64 = 120;
const HORIZON_S: u64 = 3600;
/// Simulated time after the last `Locate` for its answer to arrive.
const GRACE_S: u64 = 300;
const LOCATE_EVERY_S: u64 = 5;
const ACCURACY_EVERY_S: u64 = 30;
/// Repetitions whose simulated outputs are reported.
const GUARD_REPS: u64 = 3;
/// Latency limit behind `slo_met_ratio`: one 15.4 s inquiry cycle (§5).
pub const SLO_S: f64 = 15.4;

/// What one simulated deployment produced.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    sim_s: f64,
    issued: u64,
    /// Simulated issue-to-answer latency of each answered `Locate`, µs.
    lat_us: Vec<u64>,
    accuracy: OnlineStats,
    detection: OnlineStats,
    metrics: MetricSet,
    /// FNV fold of every simulated-time output.
    fingerprint: u64,
}

fn classify(ev: &SysEvent) -> &'static str {
    match ev {
        SysEvent::Bb(_) => "bb",
        SysEvent::Lan(_) => "lan",
        SysEvent::Tr(_) => "tr",
        SysEvent::Mob(_) => "mob",
        SysEvent::Sweep { .. } => "sweep",
        SysEvent::Cmd(_) => "cmd",
    }
}

/// Each event class with its handler-time and event-count metrics.
const CLASSES: [(&str, &str, &str); 6] = [
    ("bb", "system.handle_ns.bb", "system.events.bb"),
    ("lan", "system.handle_ns.lan", "system.events.lan"),
    ("tr", "system.handle_ns.tr", "system.events.tr"),
    ("mob", "system.handle_ns.mob", "system.events.mob"),
    ("sweep", "system.handle_ns.sweep", "system.events.sweep"),
    ("cmd", "system.handle_ns.cmd", "system.events.cmd"),
];

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Builds the deployment and runs its warm-up.
fn setup(seed: u64) -> Engine<BipsSystem> {
    let cfg = SystemConfig {
        congestion_weights: true,
        ..SystemConfig::default()
    };
    let mut builder = BipsSystem::builder(cfg);
    for i in 0..USERS {
        builder = builder.user(UserSpec::new(format!("user{i}"), i % ROOMS).mode(
            WalkMode::RandomWalk {
                pause: (SimDuration::from_secs(10), SimDuration::from_secs(60)),
            },
        ));
    }
    let mut engine = builder.into_engine(seed);
    engine.run_until(secs(WARMUP_S));
    engine
}

/// Runs one repetition, with an `EngineProbe` attached after the
/// warm-up when `probe` is set.
fn run_rep(seed: u64, probe: bool) -> (Rep, Option<ProbeHandle>) {
    let t0 = now();
    let mut engine = setup(seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut rng = SeedDeriver::new(seed).rng(11);
    let mut issued = 0;
    let mut t = WARMUP_S + LOCATE_EVERY_S;
    while t < WARMUP_S + HORIZON_S {
        let a = rng.below(USERS as u64);
        let b = (a + 1 + rng.below(USERS as u64 - 1)) % USERS as u64;
        engine.schedule(
            secs(t),
            SysEvent::locate(format!("user{a}"), format!("user{b}")),
        );
        issued += 1;
        t += LOCATE_EVERY_S;
    }
    let handle = probe.then(|| {
        let p = EngineProbe::new(classify);
        let h = p.handle();
        engine.attach_observer(Box::new(p));
        h
    });

    let end = WARMUP_S + HORIZON_S + GRACE_S;
    let mut accuracy = OnlineStats::new();
    let t1 = now();
    let mut at = WARMUP_S;
    while at < end {
        at = (at + ACCURACY_EVERY_S).min(end);
        engine.run_until(secs(at));
        accuracy.push(engine.world().tracking_accuracy());
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let sys = engine.world();
    let mut fingerprint = CHECKSUM_INIT;
    let mut lat_us = Vec::new();
    for q in sys.queries() {
        let code = match &q.outcome {
            Some(LocateOutcome::Found { cell, .. }) => u64::from(*cell),
            Some(_) => 1 << 32,
            None => 2 << 32,
        };
        let answered = q.answered_at.map_or(u64::MAX, SimTime::as_micros);
        fold(
            &mut fingerprint,
            q.issued_at.as_micros(),
            answered,
            code,
            &[],
        );
        if let Some(a) = q.answered_at {
            lat_us.push((a - q.issued_at).as_micros());
        }
    }
    let detection = sys.detection_latency();
    fold(
        &mut fingerprint,
        accuracy.mean().to_bits(),
        detection.mean().to_bits(),
        detection.len(),
        &[],
    );
    let mut metrics = MetricSet::new();
    sys.export_metrics(&mut metrics, engine.now());
    for (name, _) in metrics.iter() {
        if let Some(v) = metrics.counter_value(name) {
            fold(&mut fingerprint, v, 0, 0, &[]);
        }
    }
    let rep = Rep {
        setup_s,
        wall_s,
        sim_s: (end - WARMUP_S) as f64,
        issued,
        lat_us,
        accuracy,
        detection,
        metrics,
        fingerprint,
    };
    (rep, handle)
}

fn rep_seed(seed: u64, rep: u64) -> u64 {
    SeedDeriver::new(seed).derive(1000 + rep)
}

/// Runs the workload; `traced` selects the per-layer run.
pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> io::Result<()> {
    if traced {
        run_traced(seed, rep);
        return Ok(());
    }
    let start = now();
    let mut reps = Vec::new();
    while (reps.len() as u64) < GUARD_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(rep_seed(seed, reps.len() as u64), false).0);
    }
    let issued: u64 = reps.iter().map(|r| r.issued).sum();
    let answered: u64 = reps.iter().map(|r| r.lat_us.len() as u64).sum();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.lat_us.len() as f64 / r.wall_s)
        .collect();
    rep.attempted += issued;
    rep.failed += issued - answered;

    let guard = &reps[..GUARD_REPS as usize];
    let guard_issued: u64 = guard.iter().map(|r| r.issued).sum();
    let lat: Vec<u64> = guard
        .iter()
        .flat_map(|r| r.lat_us.iter().copied())
        .collect();
    let within = lat.iter().filter(|&&us| us as f64 <= SLO_S * 1e6).count();
    let mut accuracy = OnlineStats::new();
    for r in guard {
        accuracy.merge(&r.accuracy);
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    rep.set("setup_s", median(&setups));
    rep.set("peak_rss_mb", crate::report::peak_rss_mb());
    rep.set("success_ratio", answered as f64 / issued.max(1) as f64);
    rep.set("qps", median(&rates));
    rep.set("slo_met_ratio", within as f64 / guard_issued.max(1) as f64);
    rep.set("tracking_accuracy", accuracy.mean());
    println!(
        "paper_dept: {} deployments of {USERS} users x {HORIZON_S} simulated s, {answered}/{issued} locates answered",
        reps.len()
    );
    Ok(())
}

/// The per-layer run: the first repetition untraced and again with an
/// `EngineProbe`; their simulated outputs must be bit-identical.
fn run_traced(seed: u64, rep: &mut Report) {
    let (plain, _) = run_rep(rep_seed(seed, 0), false);
    let (traced, handle) = run_rep(rep_seed(seed, 0), true);
    if plain.fingerprint != traced.fingerprint {
        rep.mismatch(format!(
            "probe perturbed the simulation: fingerprint {:016x} untraced, {:016x} traced",
            plain.fingerprint, traced.fingerprint
        ));
    }
    rep.attempted += plain.issued;
    rep.failed += plain.issued - plain.lat_us.len() as u64;
    rep.set(
        "error_ratio",
        (plain.issued - plain.lat_us.len() as u64) as f64 / plain.issued.max(1) as f64,
    );
    rep.set(
        "trace.overhead_pct",
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    rep.set("desim.sim_speed", plain.sim_s / plain.wall_s);
    let mut lat = plain.lat_us.clone();
    rep.set("lat_tmean_us", trimmed_mean(&lat));
    rep.set("lat_p50_us", quantile(&mut lat, 0.5) as f64);
    rep.set("lat_p99_us", quantile(&mut lat, 0.99) as f64);
    rep.set("visible_us", plain.detection.mean() * 1e6);

    let mut probe = MetricSet::new();
    if let Some(h) = handle {
        h.borrow()
            .export_into(&mut probe, secs(WARMUP_S + HORIZON_S + GRACE_S));
    }
    let mut handler_ns = 0.0;
    for (class, ns_name, count_name) in CLASSES {
        let count = probe
            .counter_value(&format!("engine.events.{class}"))
            .unwrap_or(0);
        let mean_ns = probe
            .stats(&format!("engine.handle_nanos.{class}"))
            .map_or(0.0, |s| s.mean());
        handler_ns += mean_ns * count as f64;
        rep.set(ns_name, mean_ns);
        rep.set(count_name, count as f64);
    }
    let events = probe.counter_value("engine.events_total").unwrap_or(0);
    rep.set(
        "desim.engine.calendar_ns",
        (traced.wall_s * 1e9 - handler_ns) / events.max(1) as f64,
    );
    for name in [
        "baseband.inquiry.ids_transmitted",
        "baseband.inquiry.fhs_received",
        "baseband.inquiry.fhs_collisions",
        "lan.transport.retransmissions",
        "core.system.rpc_round_trips",
    ] {
        rep.set(name, plain.metrics.counter_value(name).unwrap_or(0) as f64);
    }
    println!(
        "paper_dept traced: {events} events, {:.3} s untraced vs {:.3} s traced wall",
        plain.wall_s, traced.wall_s
    );
}
