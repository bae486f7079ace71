//! Property tests for bips-core: registry session invariants, codec
//! totality, tracker diff correctness.

use bips_core::handheld::HandheldMsg;
use bips_core::locationdb::LocationDb;
use bips_core::protocol::{LocateOutcome, Notice, Request};
use bips_core::registry::{AccessRights, Registry};
use bips_core::workstation::WorkstationTracker;
use bt_baseband::BdAddr;
use desim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// Under arbitrary login/logout sequences, the userid ↔ BD_ADDR
    /// binding stays a bijection between live sessions.
    #[test]
    fn registry_bindings_stay_bijective(
        ops in proptest::collection::vec((0usize..4, 0u64..4, any::<bool>()), 1..80)
    ) {
        let mut reg = Registry::new();
        let names = ["a", "b", "c", "d"];
        for n in names {
            reg.register(n, "pw", AccessRights::open()).unwrap();
        }
        // Model of who should be logged in where.
        let mut model: HashMap<usize, u64> = HashMap::new();
        for (user, dev, login) in ops {
            let name = names[user];
            let id = reg.id_of(name).unwrap();
            let addr = BdAddr::new(dev);
            if login {
                let res = reg.login(name, "pw", addr);
                let addr_taken = model.values().any(|&d| d == dev);
                let user_live = model.contains_key(&user);
                if !addr_taken && !user_live {
                    prop_assert!(res.is_ok());
                    model.insert(user, dev);
                } else {
                    prop_assert!(res.is_err());
                }
            } else {
                let res = reg.logout(id);
                prop_assert_eq!(res.is_ok(), model.remove(&user).is_some());
            }
        }
        // Check the bijection against the model.
        for (user, dev) in &model {
            let id = reg.id_of(names[*user]).unwrap();
            prop_assert_eq!(reg.addr_of_user(id), Some(BdAddr::new(*dev)));
            prop_assert_eq!(reg.user_of_addr(BdAddr::new(*dev)), Some(id));
        }
        for (user, name) in names.iter().enumerate() {
            if !model.contains_key(&user) {
                let id = reg.id_of(name).unwrap();
                prop_assert_eq!(reg.addr_of_user(id), None);
            }
        }
    }

    /// Handheld link messages round-trip with arbitrary contents and the
    /// decoder never panics on garbage.
    #[test]
    fn handheld_msgs_round_trip(
        user in "\\PC{0,30}",
        password in "\\PC{0,30}",
        target in "\\PC{0,30}",
        cell in any::<u32>(),
        path in proptest::collection::vec(any::<u32>(), 0..20),
        distance in 0.0f64..10_000.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        for msg in [
            HandheldMsg::LoginUp { user: user.clone(), password: password.clone() },
            HandheldMsg::LoginDown { ok: true },
            HandheldMsg::QueryUp { target: target.clone() },
            HandheldMsg::QueryDown(LocateOutcome::Found { cell, path: path.clone(), distance }),
            HandheldMsg::QueryDown(LocateOutcome::Denied),
        ] {
            let buf = msg.encode();
            prop_assert_eq!(HandheldMsg::decode(&buf), Ok(msg));
        }
        let _ = HandheldMsg::decode(&garbage); // must not panic
    }

    /// The tracker's reported state equals a straightforward model:
    /// present iff a sighting within the timeout, with exactly one change
    /// emitted per transition.
    #[test]
    fn tracker_matches_reference_model(
        events in proptest::collection::vec((0u64..3, 1u64..120), 1..80),
    ) {
        let timeout = SimDuration::from_secs(10);
        let mut ws = WorkstationTracker::new(timeout);
        let mut last_seen: HashMap<u64, u64> = HashMap::new();
        let mut reported: HashMap<u64, bool> = HashMap::new();
        let mut t = 0u64;
        for (dev, dt) in events {
            t += dt;
            let now = SimTime::from_secs(t);
            ws.sighting(BdAddr::new(dev), now);
            last_seen.insert(dev, t);
            let changes = ws.sweep(now);
            // Model: device present iff seen within (now - 10 s, now].
            for d in 0u64..3 {
                let model_present = last_seen
                    .get(&d)
                    .map(|&s| t - s < 10)
                    .unwrap_or(false);
                let was = reported.get(&d).copied().unwrap_or(false);
                let change = changes.iter().find(|c| c.addr == BdAddr::new(d));
                match (was, model_present) {
                    (false, true) => {
                        prop_assert!(change.is_some_and(|c| c.present), "missing presence for {} at {}", d, t);
                    }
                    (true, false) => {
                        prop_assert!(change.is_some_and(|c| !c.present), "missing absence for {} at {}", d, t);
                    }
                    _ => prop_assert!(change.is_none(), "spurious change for {} at {}: {:?}", d, t, change),
                }
                reported.insert(d, model_present);
            }
        }
    }

    /// The per-cell count the database maintains equals a recount of
    /// its listing after any mix of presences, absences and forgets,
    /// with devices claimed by several overlapping cells at once.
    #[test]
    fn locationdb_counts_match_listing(
        ops in proptest::collection::vec((0u64..8, 0u64..6, 0usize..6, any::<bool>()), 1..200),
    ) {
        let mut db = LocationDb::with_history_cap(16);
        for (i, (kind, dev, cell, present)) in ops.into_iter().enumerate() {
            let addr = BdAddr::new(dev);
            if kind == 0 {
                db.forget(addr);
            } else {
                db.apply(addr, cell, present, SimTime::from_secs(i as u64));
            }
            for c in 0..8 {
                prop_assert_eq!(db.count_in(c), db.devices_in(c).len(), "cell {}", c);
            }
        }
    }
}

proptest! {
    /// Gateway-coalesced notify batches round-trip for arbitrary
    /// contents, and every strict prefix of the encoding is rejected —
    /// a truncated batch must never decode as a shorter valid one.
    #[test]
    fn notify_batches_round_trip_and_reject_truncation(
        items in proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<bool>()),
            0..20,
        ),
    ) {
        let req = Request::NotifyBatch {
            items: items
                .iter()
                .map(|&(cell, raw, present)| Notice {
                    cell,
                    addr: BdAddr::new(raw & ((1 << 48) - 1)),
                    present,
                })
                .collect(),
        };
        let buf = req.encode();
        prop_assert_eq!(Request::decode(&buf), Ok(req));
        for cut in 0..buf.len() {
            prop_assert!(
                Request::decode(&buf[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    /// The wire `Reader` is total: arbitrary garbage driven through an
    /// arbitrary schedule of field reads never panics — every outcome
    /// is a value or a `DecodeError`.
    #[test]
    fn wire_reader_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        ops in proptest::collection::vec(0u8..7, 0..24),
    ) {
        use bips_core::wire::Reader;
        let mut r = Reader::new(&garbage);
        for op in ops {
            let failed = match op {
                0 => r.u8().is_err(),
                1 => r.u32().is_err(),
                2 => r.u64().is_err(),
                3 => r.bool().is_err(),
                4 => r.f64().is_err(),
                5 => r.string().is_err(),
                _ => r.bytes().is_err(),
            };
            if failed {
                break; // the reader is dead; remaining ops keep erroring
            }
        }
        let _ = r.finish(); // must not panic either
    }

    /// Writer → Reader round trip for every field type, with trailing
    /// bytes detected by `finish`.
    #[test]
    fn wire_writer_reader_round_trip(
        a in any::<u8>(), b in any::<u32>(), c in any::<u64>(),
        d in any::<bool>(), e in -1e12f64..1e12,
        s in "\\PC{0,40}",
        blob in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use bips_core::wire::{Reader, Writer};
        let mut w = Writer::new();
        w.u8(a).u32(b).u64(c).bool(d).f64(e).string(&s).bytes(&blob);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.u8(), Ok(a));
        prop_assert_eq!(r.u32(), Ok(b));
        prop_assert_eq!(r.u64(), Ok(c));
        prop_assert_eq!(r.bool(), Ok(d));
        prop_assert_eq!(r.f64(), Ok(e));
        prop_assert_eq!(r.string(), Ok(s));
        prop_assert_eq!(r.bytes(), Ok(blob));
        prop_assert!(r.finish().is_ok());
    }
}
