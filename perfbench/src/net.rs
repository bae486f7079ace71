//! The benchmark's own client and the in-process server it drives.
//!
//! The client speaks the socket protocol through the program's public
//! codecs only: `core::protocol` payloads, `lan::rpc` frames and
//! `lan::stream` length prefixes. The server is `bips_bench::serve`
//! over a `ShardedService` the workload builds, on loopback TCP.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use bips_bench::serve::{Bind, ServeStats, Server};
use bips_core::protocol::{Request, Response};
use bips_core::service::ShardedService;
use bips_lan::network::HostId;
use bips_lan::rpc::{RpcCodec, RpcFrame};
use bips_lan::stream::{encode_stream_frame, StreamReframer};

use bips_bench::loadgen::{addr, fold_acks};
use bips_core::protocol::Notice;

use crate::report::{now, Report, Stage};
use crate::stages::{Folds, FrameLog};
use desim::MetricSet;

/// Initial presence is streamed in batches of this many notices.
const INGEST_CHUNK: u64 = 8192;

/// Latency limit behind `slo_met_ratio` on the socket workloads.
pub const SLO_US: f64 = 10_000.0;

/// Flush acks the server computes with this many worker threads.
pub const FLUSH_JOBS: usize = 1;

pub fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A serving thread over loopback TCP.
pub struct Running {
    addr: SocketAddr,
    handle: JoinHandle<ServeStats>,
}

impl Running {
    /// Binds an ephemeral loopback port and serves `svc` on a thread.
    pub fn start(svc: Arc<ShardedService>) -> io::Result<Running> {
        let server = Server::bind(&Bind::Tcp("127.0.0.1:0".into()), svc, FLUSH_JOBS)?;
        let addr = server
            .tcp_addr()
            .ok_or_else(|| proto_err("server has no TCP address".into()))?;
        let handle = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || server.serve())?;
        Ok(Running { addr, handle })
    }

    /// Sends `Shutdown` on `control` and joins the server. Every other
    /// connection to the server must be closed first: the server drains
    /// live connections before it returns.
    pub fn stop(self, mut control: Client) -> io::Result<ServeStats> {
        let ack = control.call(&Request::Shutdown.encode());
        drop(control);
        let stats = self
            .handle
            .join()
            .map_err(|_| proto_err("server thread panicked".into()))?;
        match ack? {
            Response::ShutdownAck => Ok(stats),
            other => Err(proto_err(format!("expected ShutdownAck, got {other:?}"))),
        }
    }

    /// Stops the server after a failed run, over a fresh connection.
    pub fn abort(self) {
        if let Ok(c) = Client::connect(self.addr) {
            let _ = self.stop(c);
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts this thread, and every thread it spawns later, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` if the
/// affinity calls failed, in which case the thread stays unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16]; // a 1024-CPU `cpu_set_t`
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the layout
    // of `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes naming a
    // CPU the thread is already allowed on; pid 0 is the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// One client connection: encoded request frames out, reframed
/// responses in.
pub struct Client {
    pub stream: TcpStream,
    codec: RpcCodec,
    reframer: StreamReframer,
    rbuf: Vec<u8>,
    pub wbuf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            codec: RpcCodec::new(),
            reframer: StreamReframer::new(),
            rbuf: vec![0u8; 64 * 1024],
            wbuf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Frames `payload` as the next request at the end of the write
    /// buffer and returns its correlation id.
    pub fn push(&mut self, payload: &[u8]) -> u64 {
        let (corr, framed) = self.codec.encode_request(payload);
        encode_stream_frame(&mut self.wbuf, &framed);
        corr.value()
    }

    /// Writes the whole write buffer (blocking socket).
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Reads once from the socket into the reframer; `Ok(0)` is EOF.
    pub fn fill(&mut self) -> io::Result<usize> {
        let n = self.stream.read(&mut self.rbuf)?;
        self.reframer.extend(&self.rbuf[..n]);
        Ok(n)
    }

    /// Decodes the next buffered response frame, if one is complete.
    pub fn next_response(&mut self) -> io::Result<Option<(u64, Response)>> {
        let frame = match self.reframer.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(None),
            Err(e) => return Err(proto_err(e.to_string())),
        };
        let Some(RpcFrame::Response { corr, payload, .. }) =
            RpcCodec::decode_ref_bytes(HostId::new(0), frame)
        else {
            return Err(proto_err("stream frame is not an rpc response".into()));
        };
        let resp =
            Response::decode(payload).map_err(|e| proto_err(format!("bad response: {e}")))?;
        Ok(Some((corr.value(), resp)))
    }

    /// Blocks for the next response.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        loop {
            if let Some(r) = self.next_response()? {
                return Ok(r);
            }
            if self.fill()? == 0 {
                return Err(proto_err("server closed the connection".into()));
            }
        }
    }

    /// One closed-loop request: send, then wait for its response.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<Response> {
        let corr = self.push(payload);
        self.flush()?;
        let (got, resp) = self.recv()?;
        if got != corr {
            return Err(proto_err(format!("correlation id {got}, expected {corr}")));
        }
        Ok(resp)
    }
}

/// A serving engine with every user logged in and present at its
/// initial cell, behind a live server, with both client connections.
pub struct Session {
    pub svc: Arc<ShardedService>,
    server: Running,
    pub control: Client,
    pub query: Client,
    /// Last presence timestamp used; the next batch starts after it.
    pub ts: u64,
}

impl Session {
    /// Starts a server for `svc` and streams the initial presence in
    /// over the control connection. Folds the initial flush into
    /// `folds`.
    pub fn open(svc: ShardedService, initial: &[u32], folds: &mut Folds) -> io::Result<Session> {
        let svc = Arc::new(svc);
        let server = Running::start(Arc::clone(&svc))?;
        let conns =
            Client::connect(server.addr).and_then(|c| Ok((c, Client::connect(server.addr)?)));
        let (control, query) = match conns {
            Ok(c) => c,
            Err(e) => {
                server.abort();
                return Err(e);
            }
        };
        let mut s = Session {
            svc,
            server,
            control,
            query,
            ts: 0,
        };
        match s.stream_presence(initial, folds) {
            Ok(()) => Ok(s),
            Err(e) => {
                s.abort();
                Err(e)
            }
        }
    }

    fn stream_presence(&mut self, initial: &[u32], folds: &mut Folds) -> io::Result<()> {
        let users = initial.len() as u64;
        let mut uid = 0;
        while uid < users {
            let end = (uid + INGEST_CHUNK).min(users);
            let items: Vec<Notice> = (uid..end)
                .map(|u| Notice {
                    cell: initial[u as usize],
                    addr: addr(u),
                    present: true,
                })
                .collect();
            let sent = items.len() as u32;
            let base_us = self.ts + 1;
            match self
                .control
                .call(&Request::IngestBatch { base_us, items }.encode())?
            {
                Response::IngestAck { queued } if queued == sent => {}
                other => return Err(proto_err(format!("initial ingest answered {other:?}"))),
            }
            self.ts += u64::from(sent);
            uid = end;
        }
        match self.control.call(&Request::Flush.encode())? {
            Response::FlushAck { acks } if acks.len() as u64 == users => {
                fold_acks(&mut folds.acks, &acks);
                Ok(())
            }
            other => Err(proto_err(format!("initial flush answered {other:?}"))),
        }
    }

    /// Opens a session `setups` times, closing each but the last, and
    /// returns the last with its initial-flush folds and every setup's
    /// wall time. Every setup must ack the initial presence alike.
    pub fn open_timed(
        setups: usize,
        build: impl Fn() -> io::Result<ShardedService>,
        initial: &[u32],
        rep: &mut Report,
    ) -> io::Result<(Session, Folds, Vec<f64>)> {
        let mut secs = Vec::with_capacity(setups);
        let mut first: Option<Folds> = None;
        loop {
            let t0 = now();
            let mut folds = Folds::default();
            let s = Session::open(build()?, initial, &mut folds)?;
            secs.push(t0.elapsed().as_secs_f64());
            if first.get_or_insert(folds) != &folds {
                rep.mismatch("initial flush acks differ between setups".into());
            }
            if secs.len() >= setups {
                return Ok((s, folds, secs));
            }
            s.close()?;
        }
    }

    /// Closes the query connection, shuts the server down and returns
    /// its counters.
    pub fn close(self) -> io::Result<bips_bench::serve::ServeStats> {
        drop(self.query);
        self.server.stop(self.control)
    }

    /// Tears the server down after a failure.
    pub fn abort(self) {
        drop(self.query);
        drop(self.control);
        self.server.abort();
    }
}

/// The service's contention and path-engine counters after a run.
pub fn export_service(svc: &ShardedService, rep: &mut Report) {
    let mut m = MetricSet::new();
    svc.export_metrics(&mut m);
    for name in [
        "core.service.read_retries",
        "core.graph.tree_repairs",
        "core.graph.cache_misses",
    ] {
        rep.set(name, m.counter_value(name).unwrap_or(0) as f64);
    }
}

/// The server's lifetime counters.
pub fn export_serve(stats: &ServeStats, rep: &mut Report) {
    use std::sync::atomic::Ordering::Relaxed;
    rep.set("serve.frames", stats.frames.load(Relaxed) as f64);
    rep.set("serve.bytes_in", stats.bytes_in.load(Relaxed) as f64);
    rep.set("serve.bytes_out", stats.bytes_out.load(Relaxed) as f64);
    rep.set("serve.dropped", stats.dropped.load(Relaxed) as f64);
}

/// Client-side stage timers of a traced phase.
#[derive(Default)]
pub struct ClientTimers {
    pub encode: Stage,
    pub decode: Stage,
}

/// Sends one request on `c` and waits for its response, appending the
/// framed request to `log` when one is kept.
pub fn call_logged(
    c: &mut Client,
    payload: &[u8],
    log: Option<&mut FrameLog>,
) -> io::Result<Response> {
    let at = c.wbuf.len();
    let corr = c.push(payload);
    if let Some(log) = log {
        log.push(&c.wbuf[at..]);
    }
    c.flush()?;
    let (got, resp) = c.recv()?;
    if got != corr {
        return Err(proto_err(format!("correlation id {got}, expected {corr}")));
    }
    Ok(resp)
}
