//! `bips-perfbench`: the BIPS benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload rtt_1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`rtt_1m`, `open_churn` or `paper_dept`) built
//! from `--seed` for about `--seconds` seconds, checks every answer,
//! prints each metric as `name = value unit`, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 on a correctness mismatch and 2 on
//! a usage or I/O error. README.md defines every workload and metric.

mod alloc;
mod churn;
mod dept;
mod net;
mod report;
mod rtt;
mod stages;

use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The fingerprint of the host the numbers in README.md were measured
/// on. A run on another host says so on every result.
const REFERENCE_HOST: &str = "cpus=2 model=\"Intel(R) Xeon(R) Processor\" profile=release";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: bips-perfbench --workload rtt_1m|open_churn|paper_dept --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let host = report::host_fingerprint();
    println!("host: {host}");
    if !host.starts_with(REFERENCE_HOST) {
        println!(
            "host: differs from the reference host ({REFERENCE_HOST}); numbers are not comparable with README.md"
        );
    }
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut rep = Report::default();
    let run = match args.workload.as_str() {
        "rtt_1m" => rtt::run(args.seed, args.seconds, args.traced, &mut rep),
        "open_churn" => churn::run(args.seed, args.seconds, args.traced, &mut rep),
        "paper_dept" => dept::run(args.seed, args.seconds, args.traced, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(2);
    }
    if args.traced {
        rep.zero_missing(report::LAYER);
    }
    if !rep.finish(args.traced) {
        std::process::exit(1);
    }
}
