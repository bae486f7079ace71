//! Golden pins for the simulated deployment.
//!
//! The skip-ahead equivalence suite compares the two inquiry schedulers
//! against each other, so it cannot see a change that both share. These
//! pins can: they run the `paper_dept` shape — the academic department,
//! 20 random walkers per room, congestion weights on, a seeded `Locate`
//! every 5 s — for 10 simulated minutes after a 120 s warm-up, and
//! compare FNV-1a folds of every simulated-time output against constants
//! recorded before the baseband's event bookkeeping was last reworked.
//!
//! A mismatch means the simulation itself changed. If that is intended,
//! re-record the constants from the failure message and say why in the
//! change log.

use bips_core::protocol::LocateOutcome;
use bips_core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips_mobility::walker::WalkMode;
use desim::stats::OnlineStats;
use desim::{MetricSet, SeedDeriver, SimDuration, SimTime};

const ROOMS: usize = 9;
const USERS: usize = 20 * ROOMS;
const WARMUP_S: u64 = 120;
const HORIZON_S: u64 = 600;
const LOCATE_EVERY_S: u64 = 5;
const ACCURACY_EVERY_S: u64 = 30;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 fold over whole `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    fn stats(&mut self, s: &OnlineStats) {
        self.word(s.len());
        self.word(s.mean().to_bits());
        self.word(s.variance().to_bits());
    }
}

/// One fold per output layer, so a mismatch names the layer that moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    /// Each `Locate`'s issue time, answer time and outcome.
    locates: u64,
    /// Ground-truth tracking accuracy, sampled every 30 s.
    accuracy: u64,
    /// Enter-cell → DB-presence latency statistics.
    detection: u64,
    /// Every exported counter, by name.
    counters: u64,
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn run(seed: u64) -> Golden {
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

    let mut rng = SeedDeriver::new(seed).rng(11);
    let mut t = WARMUP_S + LOCATE_EVERY_S;
    while t < WARMUP_S + HORIZON_S {
        let a = rng.below(USERS as u64);
        let b = (a + 1 + rng.below(USERS as u64 - 1)) % USERS as u64;
        engine.schedule(
            secs(t),
            SysEvent::locate(format!("user{a}"), format!("user{b}")),
        );
        t += LOCATE_EVERY_S;
    }

    let mut accuracy = Fnv::new();
    let end = WARMUP_S + HORIZON_S;
    let mut at = WARMUP_S;
    while at < end {
        at = (at + ACCURACY_EVERY_S).min(end);
        engine.run_until(secs(at));
        accuracy.word(engine.world().tracking_accuracy().to_bits());
    }

    let sys = engine.world();
    let mut locates = Fnv::new();
    for q in sys.queries() {
        locates.word(q.issued_at.as_micros());
        locates.word(q.answered_at.map_or(u64::MAX, SimTime::as_micros));
        locates.word(match &q.outcome {
            Some(LocateOutcome::Found { cell, .. }) => u64::from(*cell),
            Some(_) => 1 << 32,
            None => 2 << 32,
        });
    }
    let mut detection = Fnv::new();
    detection.stats(&sys.detection_latency());
    let mut metrics = MetricSet::new();
    sys.export_metrics(&mut metrics, engine.now());
    let mut counters = Fnv::new();
    for (name, _) in metrics.iter() {
        if let Some(v) = metrics.counter_value(name) {
            for b in name.bytes() {
                counters.word(u64::from(b));
            }
            counters.word(v);
        }
    }
    Golden {
        locates: locates.0,
        accuracy: accuracy.0,
        detection: detection.0,
        counters: counters.0,
    }
}

/// Recorded on the scan-window event chain, before windows became lazy.
const PINS: [(u64, Golden); 3] = [
    (
        1,
        Golden {
            locates: 0xfb7b_e1f6_2953_9a2f,
            accuracy: 0x767b_1a8d_e22e_3e64,
            detection: 0xa9f4_ca1a_023d_6a6e,
            counters: 0x509d_18c5_ae4a_6315,
        },
    ),
    (
        2,
        Golden {
            locates: 0xa5f0_5bdf_ab34_98b6,
            accuracy: 0xb3b9_df18_de18_e911,
            detection: 0x9c11_b563_bbb9_b55d,
            counters: 0x4408_e609_8225_61d1,
        },
    ),
    (
        7,
        Golden {
            locates: 0x5a65_cbcf_e034_3063,
            accuracy: 0xfaee_05e9_a062_61d5,
            detection: 0x3f01_dbc3_7a95_69c1,
            counters: 0x17aa_7b77_12b9_c73c,
        },
    ),
];

#[test]
fn paper_dept_outputs_match_golden() {
    let mut failures = Vec::new();
    for (seed, want) in PINS {
        let got = run(seed);
        if got != want {
            failures.push(format!("seed {seed}: got {got:#x?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
