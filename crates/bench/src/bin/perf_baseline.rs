//! Perf baseline for the skip-ahead inquiry scheduler (PR 3).
//!
//! Runs the Figure 2 inquiry workload twice — once with the naive
//! slot-ticking `InqTx` chain (`skip_ahead = false`) and once with the
//! skip-ahead scheduler — and reports dispatched-event counts and wall
//! time for both, plus the derived speedups. The two modes are
//! bit-identical in every observable (see
//! `crates/baseband/tests/skip_ahead_equivalence.rs`); this harness
//! measures only how much work the calendar avoids.
//!
//! Usage:
//!   cargo run -p bips-bench --bin perf_baseline --release -- \
//!       [--smoke] [--json PATH] [--check FILE]
//!
//! By default both the `full` section (the committed-baseline workload)
//! and the `smoke` section (a seconds-scale subset for CI) are run.
//! `--smoke` runs the smoke section only. `--json PATH` writes the run
//! as a `BENCH_PR3.json`-schema report (see `docs/PERF.md`). `--check
//! FILE` compares the run against a committed baseline: the job fails
//! if skip-ahead dispatches >20% more events than the baseline (event
//! counts are deterministic) or its simulated seconds per wall second
//! fall >20% below the baseline figure.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use bips_bench::telemetry::take_flag;
use bt_baseband::hop::Train;
use bt_baseband::params::{
    DutyCycle, MediumConfig, ScanFreqModel, ScanPattern, StartFreq, StartTrain, TrainPolicy,
};
use bt_baseband::world::BasebandWorld;
use bt_baseband::{BdAddr, MasterConfig, SlaveConfig};
use desim::{SeedDeriver, SimDuration, SimTime};

/// One benchmark workload: the Figure 2 scenario family.
struct Workload {
    name: &'static str,
    slave_counts: Vec<usize>,
    replications: u64,
    horizon: SimDuration,
    seed: u64,
}

impl Workload {
    fn full() -> Workload {
        Workload {
            name: "full",
            slave_counts: vec![2, 4, 6, 8, 10, 15, 20],
            replications: 50,
            horizon: SimDuration::from_secs(14),
            seed: 1967,
        }
    }

    fn smoke() -> Workload {
        // Still seconds-scale, but large enough that the wall-clock
        // denominator of the events/sec gate is not timer noise.
        Workload {
            name: "smoke",
            slave_counts: vec![2, 6, 10],
            replications: 25,
            horizon: SimDuration::from_secs(14),
            seed: 1967,
        }
    }
}

/// Aggregate measurements for one scheduler mode over a workload.
struct ModeResult {
    wall_secs: f64,
    events: u64,
    discoveries: u64,
    virtual_secs: f64,
}

impl ModeResult {
    fn events_per_wall_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn virtual_secs_per_wall_sec(&self) -> f64 {
        self.virtual_secs / self.wall_secs
    }
}

/// The Figure 2 scenario (1 s / 5 s duty cycle, single train A, shared
/// scan sequence, FHS collisions, halting slaves) with the scheduler
/// mode overridden.
fn build_world(n: usize, skip_ahead: bool) -> BasebandWorld {
    let mut builder = BasebandWorld::builder().medium(MediumConfig {
        fhs_collisions: true,
        scan_freq_model: ScanFreqModel::SharedSequence,
        skip_ahead,
        ..MediumConfig::default()
    });
    builder = builder.master(
        MasterConfig::new(BdAddr::new(0xA0_0000))
            .duty(DutyCycle::periodic(
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
            ))
            .trains(TrainPolicy::Single)
            .start_train(StartTrain::Fixed(Train::A)),
    );
    for i in 0..n {
        builder = builder.slave(
            SlaveConfig::new(BdAddr::new(0x10_0000 + i as u64))
                .scan(ScanPattern::continuous_inquiry())
                .start_freq(StartFreq::InTrain(Train::A))
                .halt_when_discovered(true),
        );
    }
    builder.build()
}

fn run_mode(w: &Workload, skip_ahead: bool) -> ModeResult {
    // Replication seeding mirrors `figure2::run_with_metrics`: one
    // SeedDeriver stream per curve, keyed by the slave count.
    let curve_seeds = SeedDeriver::new(w.seed);
    let start = Instant::now();
    let mut events = 0u64;
    let mut discoveries = 0u64;
    for &n in &w.slave_counts {
        let rep_seeds = SeedDeriver::new(curve_seeds.derive(n as u64));
        for i in 0..w.replications {
            let mut engine = build_world(n, skip_ahead).into_engine(rep_seeds.derive(i));
            engine.run_until(SimTime::ZERO + w.horizon);
            events += engine.steps();
            discoveries += engine.world().baseband().discoveries().len() as u64;
        }
    }
    ModeResult {
        wall_secs: start.elapsed().as_secs_f64(),
        events,
        discoveries,
        virtual_secs: w.horizon.as_secs_f64()
            * (w.replications * w.slave_counts.len() as u64) as f64,
    }
}

fn run_workload(w: &Workload) -> (ModeResult, ModeResult) {
    let naive = run_mode(w, false);
    let skip = run_mode(w, true);
    // The equivalence suite proves bit-identity; this cheap cross-check
    // catches a build that silently diverges.
    assert_eq!(
        naive.discoveries, skip.discoveries,
        "modes disagree on total discoveries — scheduler equivalence broken"
    );
    (naive, skip)
}

fn mode_json(r: &ModeResult) -> String {
    format!(
        "{{\"wall_secs\": {:.6}, \"events\": {}, \"events_per_wall_sec\": {:.1}, \"virtual_secs_per_wall_sec\": {:.1}}}",
        r.wall_secs,
        r.events,
        r.events_per_wall_sec(),
        r.virtual_secs_per_wall_sec()
    )
}

fn section_json(w: &Workload, naive: &ModeResult, skip: &ModeResult) -> String {
    let counts: Vec<String> = w.slave_counts.iter().map(|n| n.to_string()).collect();
    format!(
        "  \"{}\": {{\n    \"config\": {{\"slave_counts\": [{}], \"replications\": {}, \"horizon_s\": {}, \"seed\": {}}},\n    \"naive\": {},\n    \"skip_ahead\": {},\n    \"speedup\": {{\"events\": {:.2}, \"wall\": {:.2}}}\n  }}",
        w.name,
        counts.join(", "),
        w.replications,
        w.horizon.as_secs_f64(),
        w.seed,
        mode_json(naive),
        mode_json(skip),
        naive.events as f64 / skip.events as f64,
        naive.wall_secs / skip.wall_secs,
    )
}

/// Extracts `"key": <number>` from `section` of a BENCH_PR3-schema
/// report. The schema is flat enough (see `docs/PERF.md`) for textual
/// extraction; avoids a JSON-parser dependency.
fn lookup(json: &str, section: &str, path: &[&str]) -> Option<f64> {
    let mut at = json.find(&format!("\"{section}\""))?;
    for key in path {
        at += json[at..].find(&format!("\"{key}\""))?;
    }
    let rest = &json[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Compares the finished run against a committed baseline report;
/// returns the list of violated gates.
fn check_against(
    baseline: &str,
    sections: &[(&Workload, &ModeResult, &ModeResult)],
) -> Vec<String> {
    let mut violations = Vec::new();
    for (w, _naive, skip) in sections {
        let Some(base_events) = lookup(baseline, w.name, &["skip_ahead", "events"]) else {
            continue; // baseline lacks this section — nothing to gate on
        };
        if skip.events as f64 > base_events * 1.2 {
            violations.push(format!(
                "{}: skip-ahead dispatched {} events, >20% above baseline {}",
                w.name, skip.events, base_events
            ));
        }
        // Gate on simulated speed, not events per second: removing
        // events that do no work makes the simulation faster while
        // lowering the events-per-second proxy.
        if let Some(base_rate) = lookup(
            baseline,
            w.name,
            &["skip_ahead", "virtual_secs_per_wall_sec"],
        ) {
            let rate = skip.virtual_secs_per_wall_sec();
            if rate < base_rate * 0.8 {
                violations.push(format!(
                    "{}: skip-ahead simulates {rate:.1} virtual s per wall s, >20% below baseline {base_rate:.1}",
                    w.name
                ));
            }
        }
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, json_path) = take_flag(args, "--json");
    let (args, check_path) = take_flag(args, "--check");
    let smoke_only = args.iter().any(|a| a == "--smoke");

    let workloads = if smoke_only {
        vec![Workload::smoke()]
    } else {
        vec![Workload::full(), Workload::smoke()]
    };

    let mut results = Vec::new();
    for w in &workloads {
        eprintln!(
            "[{}] {} slave counts x {} replications, {:?} horizon ...",
            w.name,
            w.slave_counts.len(),
            w.replications,
            w.horizon
        );
        let (naive, skip) = run_workload(w);
        println!("== {} ==", w.name);
        println!(
            "  naive:      {:>10} events  {:>8.3} s wall  {:>12.0} ev/s",
            naive.events,
            naive.wall_secs,
            naive.events_per_wall_sec()
        );
        println!(
            "  skip-ahead: {:>10} events  {:>8.3} s wall  {:>12.0} ev/s",
            skip.events,
            skip.wall_secs,
            skip.events_per_wall_sec()
        );
        println!(
            "  speedup:    {:>9.1}x events  {:>6.1}x wall",
            naive.events as f64 / skip.events as f64,
            naive.wall_secs / skip.wall_secs
        );
        results.push((w, naive, skip));
    }

    if let Some(path) = &json_path {
        let sections: Vec<String> = results
            .iter()
            .map(|(w, n, s)| section_json(w, n, s))
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"perf_baseline\",\n  \"schema\": 1,\n{}\n}}\n",
            sections.join(",\n")
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }

    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let sections: Vec<(&Workload, &ModeResult, &ModeResult)> =
            results.iter().map(|(w, n, s)| (*w, n, s)).collect();
        let violations = check_against(&baseline, &sections);
        if violations.is_empty() {
            eprintln!("check against {path}: ok");
        } else {
            for v in &violations {
                eprintln!("REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}
