//! Metric catalogue, per-stage timers and the result line.
//!
//! `E2E` and `LAYER` are the benchmark's metric lists; `BENCHMARK.json`
//! repeats them, and a run that leaves any of them unset is reported as
//! incorrect rather than printed with a gap.

use std::collections::BTreeMap;
use std::time::Instant;

use desim::hdr::HdrHistogram;

use crate::alloc;

/// One metric: its name, unit and which direction is better.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them; README.md gives each workload's
/// definition.
pub const E2E: &[Spec] = &[
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
    spec("success_ratio", "ratio", "higher"),
    spec("qps", "1/s", "higher"),
    spec("slo_met_ratio", "ratio", "higher"),
    spec("tracking_accuracy", "ratio", "higher"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reports 0.
pub const LAYER: &[Spec] = &[
    spec("lat_tmean_us", "us", "lower"),
    spec("lat_p50_us", "us", "lower"),
    spec("lat_p99_us", "us", "lower"),
    spec("visible_us", "us", "lower"),
    spec("error_ratio", "ratio", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
    spec("socket.e2e_p50_ns", "ns", "lower"),
    spec("socket.stage_sum_ns", "ns", "lower"),
    spec("socket.remainder_ns", "ns", "lower"),
    spec("bench.client.encode_ns", "ns", "lower"),
    spec("bench.client.decode_ns", "ns", "lower"),
    spec("lan.stream.reframe_ns", "ns", "lower"),
    spec("lan.rpc.decode_ns", "ns", "lower"),
    spec("core.protocol.decode_ns", "ns", "lower"),
    spec("core.service.where_is_ns", "ns", "lower"),
    spec("core.service.serve_payload_ns", "ns", "lower"),
    spec("core.service.ingest_ns", "ns", "lower"),
    spec("core.service.flush_ns", "ns", "lower"),
    spec("core.graph.mutate_ns", "ns", "lower"),
    spec("bench.client.encode.allocs_per_op", "count", "lower"),
    spec("bench.client.decode.allocs_per_op", "count", "lower"),
    spec("lan.stream.reframe.allocs_per_op", "count", "lower"),
    spec("lan.rpc.decode.allocs_per_op", "count", "lower"),
    spec("core.protocol.decode.allocs_per_op", "count", "lower"),
    spec("core.service.where_is.allocs_per_op", "count", "lower"),
    spec("core.service.serve_payload.allocs_per_op", "count", "lower"),
    spec("core.service.read_retries", "count", "lower"),
    spec("core.graph.tree_repairs", "count", "lower"),
    spec("core.graph.cache_misses", "count", "lower"),
    spec("serve.frames", "count", "higher"),
    spec("serve.bytes_in", "bytes", "higher"),
    spec("serve.bytes_out", "bytes", "higher"),
    spec("serve.dropped", "count", "lower"),
    spec("loadgen.late_p99_us", "us", "lower"),
    spec("desim.sim_speed", "sim_s/s", "higher"),
    spec("desim.engine.calendar_ns", "ns", "lower"),
    spec("system.handle_ns.bb", "ns", "lower"),
    spec("system.handle_ns.lan", "ns", "lower"),
    spec("system.handle_ns.tr", "ns", "lower"),
    spec("system.handle_ns.mob", "ns", "lower"),
    spec("system.handle_ns.sweep", "ns", "lower"),
    spec("system.handle_ns.cmd", "ns", "lower"),
    spec("system.events.bb", "count", "lower"),
    spec("system.events.lan", "count", "lower"),
    spec("system.events.tr", "count", "lower"),
    spec("system.events.mob", "count", "lower"),
    spec("system.events.sweep", "count", "lower"),
    spec("system.events.cmd", "count", "lower"),
    spec("baseband.inquiry.ids_transmitted", "count", "lower"),
    spec("baseband.inquiry.fhs_received", "count", "higher"),
    spec("baseband.inquiry.fhs_collisions", "count", "lower"),
    spec("lan.transport.retransmissions", "count", "lower"),
    spec("core.system.rpc_round_trips", "count", "lower"),
];

/// What one run measured, plus its correctness verdict.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (queries, writes, simulated locates).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    mismatches: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a correctness mismatch: the run reports `correct: false`
    /// and exits non-zero.
    pub fn mismatch(&mut self, why: String) {
        eprintln!("MISMATCH: {why}");
        self.mismatches.push(why);
    }

    /// Sets every listed metric the workload does not exercise to 0.
    pub fn zero_missing(&mut self, specs: &[Spec]) {
        for s in specs {
            self.values.entry(s.name).or_insert(0.0);
        }
    }

    /// Prints every measured metric as `name = value unit`, then the
    /// result line: the end-to-end metrics untraced, the per-layer
    /// metrics traced. Returns whether the run was correct.
    pub fn finish(mut self, traced: bool) -> bool {
        let specs = if traced { LAYER } else { E2E };
        for s in specs {
            match self.values.get(s.name) {
                None => self.mismatch(format!("metric {} was not measured", s.name)),
                Some(v) if !v.is_finite() => {
                    self.mismatch(format!("metric {} is not finite ({v})", s.name))
                }
                Some(_) => {}
            }
        }
        for list in [E2E, LAYER] {
            for s in list {
                if let Some(v) = self.values.get(s.name) {
                    println!("{:<42} = {} {} ({} is better)", s.name, v, s.unit, s.better);
                }
            }
        }
        let correct = self.mismatches.is_empty();
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                let v = self.values.get(s.name).copied().filter(|v| v.is_finite());
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    v.unwrap_or(0.0),
                    s.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// The wall clock. The benchmark times the program from outside, so
/// every timer in it reads the host clock, through this one function.
#[allow(clippy::disallowed_methods)] // host time is what a benchmark measures
pub fn now() -> Instant {
    // lint:allow(wall-clock): benchmark timers measure host time, never simulated time
    Instant::now()
}

/// Exact quantile of unsorted samples (sorts in place); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// Mean of the samples between the 10th and the 90th percentile (the
/// 10% trimmed mean); 0 when empty. Unlike the median, it moves
/// smoothly when a two-mode distribution shifts weight between its
/// modes; unlike the mean, a rare stall does not dominate it.
pub fn trimmed_mean(samples: &[u64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let cut = v.len() / 10;
    let mid = &v[cut..v.len() - cut];
    mid.iter().map(|&x| x as f64).sum::<f64>() / mid.len().max(1) as f64
}

/// Median of a few floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed stage: an HDR of per-call nanoseconds plus the calling
/// thread's allocations during those calls.
pub struct Stage {
    hdr: HdrHistogram,
    allocs: u64,
}

impl Default for Stage {
    fn default() -> Self {
        Stage {
            hdr: HdrHistogram::with_default_resolution(),
            allocs: 0,
        }
    }
}

impl Stage {
    /// Times one call of `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::count();
        let t0 = now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.allocs += alloc::count() - a0;
        self.hdr.record(ns);
        out
    }

    /// Median nanoseconds per call.
    pub fn p50_ns(&self) -> f64 {
        self.hdr.quantile(0.5) as f64
    }

    /// Allocations per call.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.hdr.count().max(1) as f64
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host fingerprint every result carries: logical CPUs, CPU model,
/// build profile and compiler. Numbers are comparable only between
/// runs with equal fingerprints.
pub fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "cpus={cpus} model=\"{model}\" profile={profile} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}
