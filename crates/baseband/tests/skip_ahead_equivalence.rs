//! Differential equivalence: the skip-ahead inquiry scheduler against
//! the naive slot-ticking chain (`MediumConfig::skip_ahead = false`).
//!
//! Skip-ahead is a pure event-count optimisation — it jumps the `InqTx`
//! chain over slot pairs no slave can hear and accounts them in closed
//! form. Those pairs perform no RNG draws (the `chance()`/`hear_id()`
//! draws in `transmit_id` sit behind the `hears_inquiry`/`scan_freq`
//! gates), so every observable — discovery traces, medium counters and
//! the engine's RNG stream position — must be *bitwise identical*
//! between the two modes, for any topology, duty cycle, scan pattern,
//! scripted range flap or activity toggle. One known gap, same-instant
//! ordering against events of other kinds, is reproduced by the ignored
//! `department_scale_same_instant_ordering`.

use bt_baseband::hop::Train;
use bt_baseband::medium::BbStats;
use bt_baseband::params::{
    DutyCycle, MediumConfig, PageModel, ScanFreqModel, ScanPattern, StartFreq, StartTrain,
    TrainPolicy,
};
use bt_baseband::world::BasebandWorld;
use bt_baseband::{BbEvent, BdAddr, Discovery, MasterConfig, SlaveConfig};
use desim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// A fully scripted scenario: everything the two runs share.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    n_masters: usize,
    n_slaves: usize,
    /// Per-master duty cycle: `None` = always-inquiry, else
    /// `(inquiry_ms, period_ms)`.
    duties: Vec<Option<(u64, u64)>>,
    /// Per-master train policy: `true` = single train A (Figure 2 style).
    single_train: Vec<bool>,
    /// Per-slave scan pattern selector (0 = continuous, 1 = alternating,
    /// 2 = spec 11.25 ms / 1.28 s windows).
    scans: Vec<u8>,
    /// Per-slave halt-on-discovery flag.
    halts: Vec<bool>,
    shared_freq: bool,
    collisions: bool,
    lossy: bool,
    /// Scripted `(at_ms, master, slave, in_range)` toggles.
    flaps: Vec<(u64, usize, usize, bool)>,
    /// Scripted `(at_ms, slave, active)` toggles.
    toggles: Vec<(u64, usize, bool)>,
    /// Scripted `(at_ms, master, slave)` page requests and disconnects:
    /// links coming up and going down re-arm scan chains.
    pages: Vec<(u64, usize, usize)>,
    disconnects: Vec<(u64, usize, usize)>,
    /// Slot-accurate paging (page IDs read the slave's scan windows)
    /// instead of the analytic model.
    slot_accurate: bool,
    /// `false`: every slave starts in every master's range. `true`:
    /// slave `s` starts in master `s % n_masters`'s range only, as a
    /// handheld starts in its home room.
    home_rooms: bool,
    horizon_ms: u64,
}

impl Scenario {
    /// Expands one 64-bit generator seed into a random scenario. The
    /// vendored proptest shim only composes range strategies, so the
    /// structured sampling lives here, on a dedicated `SimRng` stream.
    fn from_generator_seed(gen_seed: u64) -> Scenario {
        let mut rng = SimRng::seed_from(gen_seed);
        let n_masters = 1 + rng.below(2) as usize;
        let n_slaves = 1 + rng.below(6) as usize;
        let duties = (0..n_masters)
            .map(|_| {
                rng.chance(0.5)
                    .then(|| (200 + rng.below(1800), 2000 + rng.below(4000)))
            })
            .collect();
        let single_train = (0..n_masters).map(|_| rng.chance(0.5)).collect();
        let scans = (0..n_slaves).map(|_| rng.below(3) as u8).collect();
        let halts = (0..n_slaves).map(|_| rng.chance(0.5)).collect();
        let flaps = (0..rng.below(6))
            .map(|_| {
                (
                    rng.below(8000),
                    rng.below(n_masters as u64) as usize,
                    rng.below(n_slaves as u64) as usize,
                    rng.chance(0.5),
                )
            })
            .collect();
        let toggles = (0..rng.below(4))
            .map(|_| {
                (
                    rng.below(8000),
                    rng.below(n_slaves as u64) as usize,
                    rng.chance(0.5),
                )
            })
            .collect();
        Scenario {
            seed: rng.next_u64(),
            n_masters,
            n_slaves,
            duties,
            single_train,
            scans,
            halts,
            shared_freq: rng.chance(0.5),
            collisions: rng.chance(0.5),
            lossy: rng.chance(0.3),
            flaps,
            toggles,
            pages: vec![],
            disconnects: vec![],
            slot_accurate: false,
            home_rooms: false,
            horizon_ms: 3000 + rng.below(6000),
        }
    }

    /// A department-scale scenario: 9 masters (one per room) on periodic
    /// duty cycles around the paper's 3.84 s / 15.4 s, 63 non-halting
    /// slaves on the alternating scan, each starting in its home room;
    /// range flaps walk slaves between rooms, activity toggles switch
    /// handhelds off and on, and pages and disconnects bring links up
    /// and down.
    fn department(gen_seed: u64) -> Scenario {
        const MASTERS: usize = 9;
        const SLAVES: usize = 7 * MASTERS;
        const HORIZON_MS: u64 = 30_000;
        let mut rng = SimRng::seed_from(gen_seed);
        let duties = (0..MASTERS)
            .map(|_| {
                let inquiry = 1000 + rng.below(2841);
                Some((inquiry, inquiry + 2000 + rng.below(9561)))
            })
            .collect();
        let flaps = (0..120)
            .map(|_| {
                (
                    rng.below(HORIZON_MS),
                    rng.below(MASTERS as u64) as usize,
                    rng.below(SLAVES as u64) as usize,
                    rng.chance(0.5),
                )
            })
            .collect();
        let toggles = (0..12)
            .map(|_| {
                (
                    rng.below(HORIZON_MS),
                    rng.below(SLAVES as u64) as usize,
                    rng.chance(0.5),
                )
            })
            .collect();
        let mut links = |n| {
            (0..n)
                .map(|_| {
                    let s = rng.below(SLAVES as u64) as usize;
                    (rng.below(HORIZON_MS), s % MASTERS, s)
                })
                .collect::<Vec<_>>()
        };
        let pages = links(30);
        let disconnects = links(15);
        Scenario {
            seed: rng.next_u64(),
            n_masters: MASTERS,
            n_slaves: SLAVES,
            duties,
            single_train: vec![false; MASTERS],
            scans: vec![1; SLAVES],
            halts: vec![false; SLAVES],
            shared_freq: false,
            collisions: true,
            lossy: rng.chance(0.5),
            flaps,
            toggles,
            pages,
            disconnects,
            slot_accurate: gen_seed % 2 == 1,
            home_rooms: true,
            horizon_ms: HORIZON_MS,
        }
    }
}

/// The full observable state of one finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    discoveries: Vec<Discovery>,
    stats: BbStats,
    now: SimTime,
    /// Three draws taken from the engine RNG after the run: equal draws
    /// mean the two runs consumed exactly the same stream prefix.
    rng_tail: [u64; 3],
}

fn run_mode(sc: &Scenario, skip_ahead: bool) -> (Observed, u64) {
    let mut builder = BasebandWorld::builder().medium(MediumConfig {
        fhs_collisions: sc.collisions,
        scan_freq_model: if sc.shared_freq {
            ScanFreqModel::SharedSequence
        } else {
            ScanFreqModel::PerDevice
        },
        packet_success: if sc.lossy { 0.9 } else { 1.0 },
        page_model: if sc.slot_accurate {
            PageModel::SlotAccurate
        } else {
            PageModel::Analytic
        },
        skip_ahead,
        ..MediumConfig::default()
    });
    for m in 0..sc.n_masters {
        let mut cfg = MasterConfig::new(BdAddr::new(0xA0_0000 + m as u64));
        if let Some((inq, per)) = sc.duties[m] {
            cfg = cfg.duty(DutyCycle::periodic(
                SimDuration::from_millis(inq),
                SimDuration::from_millis(per),
            ));
        }
        if sc.single_train[m] {
            cfg = cfg
                .trains(TrainPolicy::Single)
                .start_train(StartTrain::Fixed(Train::A));
        }
        builder = builder.master(cfg);
    }
    for s in 0..sc.n_slaves {
        let scan = match sc.scans[s] % 3 {
            0 => ScanPattern::continuous_inquiry(),
            1 => ScanPattern::alternating(),
            _ => ScanPattern::spec_inquiry(),
        };
        let mut cfg = SlaveConfig::new(BdAddr::new(0x10_0000 + s as u64))
            .scan(scan)
            .halt_when_discovered(sc.halts[s]);
        if sc.single_train[0] {
            cfg = cfg.start_freq(StartFreq::InTrain(Train::A));
        }
        builder = builder.slave(cfg);
    }
    let world = builder.all_in_range(!sc.home_rooms).build();
    let masters: Vec<_> = (0..sc.n_masters).map(|m| world.master(m)).collect();
    let slaves: Vec<_> = (0..sc.n_slaves).map(|s| world.slave(s)).collect();
    let mut engine = world.into_engine(sc.seed);
    if sc.home_rooms {
        for (s, &slave) in slaves.iter().enumerate() {
            engine.schedule(
                SimTime::ZERO,
                BbEvent::set_in_range(masters[s % sc.n_masters], slave, true),
            );
        }
    }
    for &(at, m, s, on) in &sc.flaps {
        engine.schedule(
            SimTime::from_millis(at),
            BbEvent::set_in_range(masters[m], slaves[s], on),
        );
    }
    for &(at, s, on) in &sc.toggles {
        engine.schedule(
            SimTime::from_millis(at),
            BbEvent::set_slave_active(slaves[s], on),
        );
    }
    for &(at, m, s) in &sc.pages {
        engine.schedule(
            SimTime::from_millis(at),
            BbEvent::request_page(masters[m], slaves[s]),
        );
    }
    for &(at, m, s) in &sc.disconnects {
        engine.schedule(
            SimTime::from_millis(at),
            BbEvent::disconnect(masters[m], slaves[s]),
        );
    }
    engine.run_until(SimTime::from_millis(sc.horizon_ms));
    let steps = engine.steps();
    let now = engine.now();
    let bb = engine.world().baseband();
    let discoveries = bb.discoveries().to_vec();
    let stats = bb.stats();
    let rng = engine.context_mut().rng();
    let observed = Observed {
        discoveries,
        stats,
        now,
        rng_tail: [rng.next_u64(), rng.next_u64(), rng.next_u64()],
    };
    (observed, steps)
}

fn assert_equivalent(sc: &Scenario) {
    let (naive, naive_steps) = run_mode(sc, false);
    let (skip, skip_steps) = run_mode(sc, true);
    assert_eq!(
        naive, skip,
        "naive and skip-ahead runs diverged for {sc:?} \
         (naive {naive_steps} events, skip-ahead {skip_steps})"
    );
    assert!(
        skip_steps <= naive_steps,
        "skip-ahead dispatched more events ({skip_steps}) than the naive \
         chain ({naive_steps}) for {sc:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized masters/slaves/duty-cycles/scan-patterns/range-flaps:
    /// both modes must agree on every observable, and skip-ahead must
    /// never dispatch more events.
    #[test]
    fn skip_ahead_matches_naive(gen_seed in 0u64..u64::MAX) {
        assert_equivalent(&Scenario::from_generator_seed(gen_seed));
    }
}

/// The Table 1 configuration (spec trains, random start frequencies,
/// alternating scan) stays bit-identical across modes and replications.
#[test]
fn table1_style_replications_match() {
    let sc = Scenario {
        seed: 0,
        n_masters: 1,
        n_slaves: 1,
        duties: vec![None],
        single_train: vec![false],
        scans: vec![1],
        halts: vec![false],
        shared_freq: false,
        collisions: true,
        lossy: false,
        flaps: vec![],
        toggles: vec![],
        pages: vec![],
        disconnects: vec![],
        slot_accurate: false,
        home_rooms: false,
        horizon_ms: 11_000,
    };
    let deriver = desim::SeedDeriver::new(2003);
    for i in 0..40 {
        let mut sc = sc.clone();
        sc.seed = deriver.derive(i);
        assert_equivalent(&sc);
    }
}

/// The Figure 2 configuration (1 s / 5 s duty cycle, single train A,
/// shared scan sequence, FHS collisions, halting slaves) stays
/// bit-identical across modes and replications — the regime where the
/// skip-ahead savings are largest.
#[test]
fn figure2_style_replications_match() {
    let deriver = desim::SeedDeriver::new(1967);
    for &n in &[2usize, 6] {
        let per_curve = desim::SeedDeriver::new(deriver.derive(n as u64));
        for i in 0..20 {
            let sc = Scenario {
                seed: per_curve.derive(i),
                n_masters: 1,
                n_slaves: n,
                duties: vec![Some((1000, 5000))],
                single_train: vec![true],
                scans: vec![0; n],
                halts: vec![true; n],
                shared_freq: true,
                collisions: true,
                lossy: false,
                flaps: vec![],
                toggles: vec![],
                pages: vec![],
                disconnects: vec![],
                slot_accurate: false,
                home_rooms: false,
                horizon_ms: 14_000,
            };
            assert_equivalent(&sc);
        }
    }
}

/// Department scale: 9 masters and 63 alternating slaves with duty
/// cycles, range flaps and activity toggles stay bit-identical across
/// modes — the regime the full BIPS deployment runs in.
#[test]
fn department_scale_matches() {
    for gen_seed in [1u64, 2, 3] {
        assert_equivalent(&Scenario::department(gen_seed));
    }
}

/// FNV-1a 64 over whole words.
fn fnv(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

fn fold_observed(h: &mut u64, o: &Observed) {
    fnv(h, o.discoveries.len() as u64);
    for d in &o.discoveries {
        fnv(h, d.master.index() as u64);
        fnv(h, d.slave.index() as u64);
        fnv(h, d.at.as_micros());
    }
    let st = &o.stats;
    for v in [
        st.ids_transmitted,
        st.ids_heard,
        st.backoffs,
        st.fhs_transmitted,
        st.fhs_received,
        st.fhs_collided,
        st.fhs_missed_phase,
        st.pages_started,
        st.pages_completed,
        st.pages_failed,
        st.links_lost,
        st.data_delivered,
    ] {
        fnv(h, v);
    }
    fnv(h, o.now.as_micros());
    for &r in &o.rng_tail {
        fnv(h, r);
    }
}

/// Golden pin on the naive chain. The equivalence tests compare the two
/// modes with each other, so they cannot see a change both modes share
/// (scan windows, for one, are applied the same way in both); this pin
/// can. The constants were recorded with scan windows as calendar
/// events; a mismatch means the medium's observable behaviour changed.
#[test]
fn naive_mode_matches_golden() {
    let mut generated = 0xcbf2_9ce4_8422_2325;
    for gen_seed in 0..24 {
        fold_observed(
            &mut generated,
            &run_mode(&Scenario::from_generator_seed(gen_seed), false).0,
        );
    }
    let mut department = 0xcbf2_9ce4_8422_2325;
    fold_observed(
        &mut department,
        &run_mode(&Scenario::department(1), false).0,
    );
    assert_eq!(
        (generated, department),
        (0x1742_24f2_1f5f_5ea5, 0xad86_a72c_85ab_4694),
        "naive-mode observables moved: got {generated:#018x}, {department:#018x}"
    );
}

/// Department seeds on which skip-ahead diverges from the naive chain
/// today, in both the event-driven and the lazy scan-window models: a
/// skip-ahead `InqTx` can take a different calendar position than the
/// naive one among same-instant events of other kinds. A chain re-aimed
/// after its naive arm instant queues behind an `FhsRx` armed in
/// between, and a requeued sibling-deferred copy runs behind events the
/// naive chain orders after it; both reorder RNG draws. Kept as the
/// reproducer for the open ROADMAP item.
#[test]
#[ignore = "known skip-ahead same-instant ordering defect (ROADMAP)"]
fn department_scale_same_instant_ordering() {
    for gen_seed in [1012u64, 1017] {
        assert_equivalent(&Scenario::department(gen_seed));
    }
}
