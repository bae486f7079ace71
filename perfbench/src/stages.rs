//! The traced in-process replay: the request frames a socket run sent,
//! pushed through each serving layer under its own timer.
//!
//! Each logged frame goes through `StreamReframer`, then
//! `RpcCodec::decode_ref_bytes`, then `Request::decode`, then the
//! service call it names (`where_is`, `ingest`, `flush` or a path
//! engine mutation). A `WhereIs` is also served whole through
//! `serve_payload`, which decodes, answers and encodes. The replay runs
//! against a fresh service in the socket run's initial state, so its
//! write acks and topology acks must equal the socket run's bit for
//! bit, and so must its answers when the run's reads did not race its
//! writes.

use bips_bench::loadgen::{addr, fold, fold_acks, other_code, CHECKSUM_INIT};
use bips_core::protocol::{LocateOutcome, Request, Response};
use bips_core::service::ShardedService;
use bips_lan::network::HostId;
use bips_lan::rpc::{RpcCodec, RpcFrame};
use bips_lan::stream::StreamReframer;

use crate::net::FLUSH_JOBS;
use crate::report::{Report, Stage};

/// The request frames of one run, in the order the client sent them,
/// each with its 4-byte stream prefix.
#[derive(Default)]
pub struct FrameLog {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl FrameLog {
    /// Appends one framed request.
    pub fn push(&mut self, framed: &[u8]) {
        self.bytes.extend_from_slice(framed);
        self.ends.push(self.bytes.len());
    }

    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.bytes[s..e])
    }
}

/// FNV folds of everything the service answered, in the order the
/// answers were produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folds {
    /// `WhereIs` answers.
    pub answers: u64,
    /// `FlushAck` ack vectors.
    pub acks: u64,
    /// `TopologyAck` `(applied, epoch)` pairs.
    pub topology: u64,
}

impl Default for Folds {
    fn default() -> Self {
        Folds {
            answers: CHECKSUM_INIT,
            acks: CHECKSUM_INIT,
            topology: CHECKSUM_INIT,
        }
    }
}

impl Folds {
    /// Folds one `WhereIs` answer as `loadgen` folds them.
    pub fn answer(&mut self, out: &LocateOutcome) {
        match out {
            LocateOutcome::Found {
                cell,
                path,
                distance,
            } => fold(
                &mut self.answers,
                0,
                u64::from(*cell),
                distance.to_bits(),
                path,
            ),
            other => fold(&mut self.answers, 1 + other_code(other), 0, 0, &[]),
        }
    }

    /// Folds one topology ack; socket and replay sides use the same
    /// fold.
    pub fn topology_ack(&mut self, applied: bool, epoch: u64) {
        fold(&mut self.topology, u64::from(applied), epoch, 0, &[]);
    }
}

/// One timer per serving stage.
#[derive(Default)]
pub struct Stages {
    pub reframe: Stage,
    pub rpc_decode: Stage,
    pub proto_decode: Stage,
    pub where_is: Stage,
    pub serve_payload: Stage,
    pub ingest: Stage,
    pub flush: Stage,
    pub mutate: Stage,
}

impl Stages {
    /// Per-call server-side cost of one `WhereIs`: what a request pays
    /// between the socket read and the socket write.
    pub fn server_query_p50_ns(&self) -> f64 {
        self.reframe.p50_ns() + self.rpc_decode.p50_ns() + self.serve_payload.p50_ns()
    }

    pub fn export(&self, rep: &mut Report) {
        rep.set("lan.stream.reframe_ns", self.reframe.p50_ns());
        rep.set("lan.rpc.decode_ns", self.rpc_decode.p50_ns());
        rep.set("core.protocol.decode_ns", self.proto_decode.p50_ns());
        rep.set("core.service.where_is_ns", self.where_is.p50_ns());
        rep.set("core.service.serve_payload_ns", self.serve_payload.p50_ns());
        rep.set("core.service.ingest_ns", self.ingest.p50_ns());
        rep.set("core.service.flush_ns", self.flush.p50_ns());
        rep.set("core.graph.mutate_ns", self.mutate.p50_ns());
        rep.set(
            "lan.stream.reframe.allocs_per_op",
            self.reframe.allocs_per_op(),
        );
        rep.set(
            "lan.rpc.decode.allocs_per_op",
            self.rpc_decode.allocs_per_op(),
        );
        rep.set(
            "core.protocol.decode.allocs_per_op",
            self.proto_decode.allocs_per_op(),
        );
        rep.set(
            "core.service.where_is.allocs_per_op",
            self.where_is.allocs_per_op(),
        );
        rep.set(
            "core.service.serve_payload.allocs_per_op",
            self.serve_payload.allocs_per_op(),
        );
    }
}

/// Presence for every user at its initial cell, stamped `1..=users`
/// exactly as the socket setup streams it, then flushed.
pub fn load_initial(svc: &ShardedService, initial: &[u32], folds: &mut Folds) {
    for (uid, &cell) in initial.iter().enumerate() {
        svc.ingest(addr(uid as u64), cell, true, uid as u64 + 1);
    }
    fold_acks(&mut folds.acks, &svc.flush(FLUSH_JOBS));
}

/// Replays `log` against `svc` under the stage timers, folding every
/// answer into `folds`. Returns the number of frames that failed to
/// deframe, decode or serve.
pub fn replay(svc: &ShardedService, log: &FrameLog, st: &mut Stages, folds: &mut Folds) -> u64 {
    let host = HostId::new(1);
    let mut reframer = StreamReframer::new();
    let mut path = Vec::new();
    let mut queries = 0u64;
    let mut scratch = Vec::new();
    let mut out = Vec::with_capacity(4096);
    let mut bad = 0;
    for framed in log.frames() {
        let cut = st.reframe.time(|| {
            reframer.extend(framed);
            matches!(reframer.next_frame(), Ok(Some(_)))
        });
        let Some(frame) = framed.get(4..).filter(|_| cut) else {
            bad += 1;
            continue;
        };
        let Some(RpcFrame::Request { payload, .. }) = st
            .rpc_decode
            .time(|| RpcCodec::decode_ref_bytes(host, frame))
        else {
            bad += 1;
            continue;
        };
        let Ok(req) = st.proto_decode.time(|| Request::decode(payload)) else {
            bad += 1;
            continue;
        };
        match req {
            Request::WhereIs {
                querier,
                target,
                from_cell,
            } => {
                // A query's first pass misses the cache, the second
                // hits it; so alternate which stage goes first and time
                // only that one, giving both stages cold samples.
                queries += 1;
                if queries.is_multiple_of(2) {
                    st.where_is
                        .time(|| svc.where_is(querier, target, from_cell as usize, &mut path));
                }
                out.clear();
                if !queries.is_multiple_of(2) {
                    st.serve_payload
                        .time(|| svc.serve_payload(payload, FLUSH_JOBS, &mut scratch, &mut out));
                } else {
                    svc.serve_payload(payload, FLUSH_JOBS, &mut scratch, &mut out);
                }
                match Response::decode(&out) {
                    Ok(Response::LocateResult(answer)) => folds.answer(&answer),
                    _ => bad += 1,
                }
            }
            Request::IngestBatch { base_us, items } => {
                for (i, n) in items.iter().enumerate() {
                    st.ingest.time(|| {
                        svc.ingest(n.addr, n.cell, n.present, base_us.saturating_add(i as u64))
                    });
                }
            }
            Request::Flush => {
                let acks = st.flush.time(|| svc.flush(FLUSH_JOBS));
                fold_acks(&mut folds.acks, &acks);
            }
            Request::SetEdgeWeight { a, b, weight } => {
                let Some(lock) = svc.path_engine() else {
                    bad += 1;
                    continue;
                };
                let (applied, epoch) = st.mutate.time(|| {
                    let mut eng = lock.write().unwrap_or_else(|e| e.into_inner());
                    let applied = eng
                        .set_edge_weight(a as usize, b as usize, weight)
                        .unwrap_or(false);
                    (applied, eng.epoch())
                });
                folds.topology_ack(applied, epoch);
            }
            Request::SetNodeUp { node, up } => {
                let Some(lock) = svc.path_engine() else {
                    bad += 1;
                    continue;
                };
                let (applied, epoch) = st.mutate.time(|| {
                    let mut eng = lock.write().unwrap_or_else(|e| e.into_inner());
                    let applied = eng.set_node_up(node as usize, up).unwrap_or(false);
                    (applied, eng.epoch())
                });
                folds.topology_ack(applied, epoch);
            }
            _ => bad += 1,
        }
    }
    bad
}
