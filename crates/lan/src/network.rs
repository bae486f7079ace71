//! The switched Ethernet segment: hosts, datagrams, latency, loss.
//!
//! A [`Lan`] is a single switch to which hosts attach. Sending a datagram
//! samples a delivery latency (`base ± jitter`) and, with probability
//! `loss`, silently drops the frame — the failure mode the reliable
//! transport ([`crate::transport`]) exists to mask. Delivered datagrams
//! are queued and drained by the owning world.

use desim::compose::SubScheduler;
use desim::SimDuration;

/// Identifies a host attached to one [`Lan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(usize);

impl HostId {
    /// Creates an id from a raw index (as returned by [`Lan::attach`]).
    pub fn new(index: usize) -> HostId {
        HostId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A delivered datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// LAN timing and reliability parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanConfig {
    /// Base one-way latency (default 200 µs — switched 100 Mb/s Ethernet).
    pub latency: SimDuration,
    /// Uniform jitter added to each delivery, `[0, jitter)` (default 100 µs).
    pub jitter: SimDuration,
    /// Independent per-datagram loss probability (default 0).
    pub loss: f64,
}

impl Default for LanConfig {
    fn default() -> Self {
        LanConfig {
            latency: SimDuration::from_micros(200),
            jitter: SimDuration::from_micros(100),
            loss: 0.0,
        }
    }
}

/// Delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanStats {
    /// Datagrams submitted for transmission.
    pub sent: u64,
    /// Datagrams delivered.
    pub delivered: u64,
    /// Datagrams dropped by the loss model.
    pub dropped: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

/// A LAN event. Opaque; embedders wrap and return it to [`Lan::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanEvent(Ev);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Deliver(Datagram),
    /// Scripted send, for tests and examples.
    Send(Datagram),
}

impl LanEvent {
    /// A scripted send of `payload` from `src` to `dst`, schedulable like
    /// any other event.
    pub fn send(src: HostId, dst: HostId, payload: Vec<u8>) -> LanEvent {
        LanEvent(Ev::Send(Datagram { src, dst, payload }))
    }
}

/// The switched segment.
#[derive(Debug, Clone)]
pub struct Lan {
    cfg: LanConfig,
    hosts: usize,
    inbox: Vec<Datagram>,
    stats: LanStats,
}

impl Lan {
    /// An empty segment.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.loss` is outside `[0, 1)`.
    pub fn new(cfg: LanConfig) -> Lan {
        assert!(
            (0.0..1.0).contains(&cfg.loss),
            "loss probability {} outside [0, 1)",
            cfg.loss
        );
        Lan {
            cfg,
            hosts: 0,
            inbox: Vec::new(),
            stats: LanStats::default(),
        }
    }

    /// Changes the loss probability of the running segment — e.g. to
    /// sever (`1.0`) and later restore a link mid-simulation. Unlike
    /// [`Lan::new`], `1.0` is allowed: a fully-dead link is a legitimate
    /// transient fault to model.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn set_loss(&mut self, loss: f64) {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss probability {loss} outside [0, 1]"
        );
        self.cfg.loss = loss;
    }

    /// Attaches a new host and returns its id.
    pub fn attach(&mut self) -> HostId {
        let id = HostId(self.hosts);
        self.hosts += 1;
        id
    }

    /// Number of attached hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts
    }

    /// Counters.
    pub fn stats(&self) -> LanStats {
        self.stats
    }

    /// Exports the segment's counters into `metrics` under the
    /// `lan.frames.*` prefix (see `docs/OBSERVABILITY.md`).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        metrics.set_counter("lan.frames.sent", self.stats.sent);
        metrics.set_counter("lan.frames.delivered", self.stats.delivered);
        metrics.set_counter("lan.frames.dropped", self.stats.dropped);
        metrics.set_counter("lan.frames.bytes_delivered", self.stats.bytes_delivered);
    }

    /// Sends `payload` from `src` to `dst`. The datagram is delivered
    /// after the sampled latency unless the loss model drops it.
    ///
    /// # Panics
    ///
    /// Panics if either host is not attached.
    pub fn send<S: SubScheduler<LanEvent>>(
        &mut self,
        s: &mut S,
        src: HostId,
        dst: HostId,
        payload: Vec<u8>,
    ) {
        assert!(src.0 < self.hosts, "unattached src host {}", src.0);
        assert!(dst.0 < self.hosts, "unattached dst host {}", dst.0);
        self.stats.sent += 1;
        if self.cfg.loss > 0.0 && s.rng().chance(self.cfg.loss) {
            self.stats.dropped += 1;
            return;
        }
        let jitter_us = if self.cfg.jitter.is_zero() {
            0
        } else {
            s.rng().below(self.cfg.jitter.as_micros().max(1))
        };
        let at = s.now() + self.cfg.latency + SimDuration::from_micros(jitter_us);
        s.schedule(at, LanEvent(Ev::Deliver(Datagram { src, dst, payload })));
    }

    /// Processes one LAN event.
    pub fn handle<S: SubScheduler<LanEvent>>(&mut self, s: &mut S, event: LanEvent) {
        match event.0 {
            Ev::Deliver(d) => {
                self.stats.delivered += 1;
                self.stats.bytes_delivered += d.payload.len() as u64;
                self.inbox.push(d);
            }
            Ev::Send(d) => self.send(s, d.src, d.dst, d.payload),
        }
    }

    /// Moves delivered datagrams, oldest first, onto the end of `out`.
    /// The owning world calls this after each [`handle`](Lan::handle);
    /// passing the same buffer every time keeps both it and the LAN's
    /// queue at their capacity, so draining allocates nothing in steady
    /// state.
    pub fn drain_deliveries(&mut self, out: &mut Vec<Datagram>) {
        out.append(&mut self.inbox);
    }

    /// The earliest possible delivery latency under this configuration.
    pub fn min_latency(&self) -> SimDuration {
        self.cfg.latency
    }

    /// A latency bound no delivery exceeds.
    pub fn max_latency(&self) -> SimDuration {
        self.cfg.latency + self.cfg.jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{Context, Engine, SimTime, World};

    struct Net {
        lan: Lan,
        got: Vec<(SimTime, Datagram)>,
    }

    impl World for Net {
        type Event = LanEvent;
        fn handle(&mut self, ctx: &mut Context<LanEvent>, ev: LanEvent) {
            self.lan.handle(ctx, ev);
            let now = ctx.now();
            let mut delivered = Vec::new();
            self.lan.drain_deliveries(&mut delivered);
            for d in delivered {
                self.got.push((now, d));
            }
        }
    }

    fn engine(cfg: LanConfig, hosts: usize, seed: u64) -> (Engine<Net>, Vec<HostId>) {
        let mut lan = Lan::new(cfg);
        let ids: Vec<HostId> = (0..hosts).map(|_| lan.attach()).collect();
        (Engine::new(Net { lan, got: vec![] }, seed), ids)
    }

    #[test]
    fn delivery_within_latency_bounds() {
        let cfg = LanConfig::default();
        let (mut e, h) = engine(cfg, 2, 1);
        e.schedule(SimTime::ZERO, LanEvent::send(h[0], h[1], vec![1, 2, 3]));
        e.run();
        assert_eq!(e.world().got.len(), 1);
        let (at, d) = &e.world().got[0];
        assert_eq!(d.payload, vec![1, 2, 3]);
        assert_eq!((d.src, d.dst), (h[0], h[1]));
        assert!(*at >= SimTime::ZERO + cfg.latency);
        assert!(*at <= SimTime::ZERO + cfg.latency + cfg.jitter);
    }

    #[test]
    fn loss_drops_expected_fraction() {
        let cfg = LanConfig {
            loss: 0.3,
            ..LanConfig::default()
        };
        let (mut e, h) = engine(cfg, 2, 2);
        for i in 0..2000u64 {
            e.schedule(
                SimTime::from_micros(i * 10),
                LanEvent::send(h[0], h[1], vec![0]),
            );
        }
        e.run();
        let st = e.world().lan.stats();
        assert_eq!(st.sent, 2000);
        assert_eq!(st.delivered + st.dropped, 2000);
        let rate = st.dropped as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.04, "loss rate {rate}");
    }

    #[test]
    fn zero_jitter_is_deterministic_latency() {
        let cfg = LanConfig {
            jitter: SimDuration::ZERO,
            ..LanConfig::default()
        };
        let (mut e, h) = engine(cfg, 2, 3);
        e.schedule(SimTime::from_millis(5), LanEvent::send(h[1], h[0], vec![9]));
        e.run();
        assert_eq!(e.world().got[0].0, SimTime::from_millis(5) + cfg.latency);
    }

    #[test]
    fn many_hosts_point_to_point() {
        let (mut e, h) = engine(LanConfig::default(), 5, 4);
        for (i, &src) in h.iter().enumerate() {
            let dst = h[(i + 1) % h.len()];
            e.schedule(SimTime::ZERO, LanEvent::send(src, dst, vec![i as u8]));
        }
        e.run();
        assert_eq!(e.world().got.len(), 5);
        assert_eq!(e.world().lan.stats().bytes_delivered, 5);
    }

    #[test]
    #[should_panic(expected = "unattached")]
    fn sending_to_unattached_host_panics() {
        let (mut e, h) = engine(LanConfig::default(), 1, 5);
        e.schedule(SimTime::ZERO, LanEvent::send(h[0], HostId::new(9), vec![]));
        e.run();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn invalid_loss_rejected() {
        let _ = Lan::new(LanConfig {
            loss: 1.5,
            ..LanConfig::default()
        });
    }
}
