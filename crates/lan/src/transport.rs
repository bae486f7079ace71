//! Reliable, ordered messaging over the lossy LAN.
//!
//! BIPS correctness depends on presence updates reaching the central
//! server even when the LAN drops frames, so the transport implements
//! per-flow **stop-and-wait ARQ**: each (src → dst) flow numbers its
//! messages, transmits one at a time, retransmits on an acknowledgment
//! timeout, and the receiver suppresses duplicates and preserves order.
//! Throughput is modest but BIPS traffic is tiny (a presence diff every
//! few seconds per workstation); simplicity and provable in-order
//! delivery win.
//!
//! Segment wire format: `[kind: u8][seq: u64 LE][payload…]` with kind 0 =
//! DATA, 1 = ACK. ACKs are **cumulative**: an ACK carries the highest
//! in-order sequence the receiver has accounted for (`expected - 1`),
//! and the sender treats any ACK at or above its outstanding seq as
//! clearing it. When the sender abandons a segment at `max_attempts`
//! the next DATA arrives above the receiver's `expected`; the receiver
//! records the skipped range in `stats.gaps`, delivers the new message
//! and resynchronizes — abandonment loses exactly the abandoned
//! message, never the rest of the flow (see `docs/PROTOCOLS.md` §1).

use std::collections::{HashMap, VecDeque};

use desim::compose::SubScheduler;
use desim::{EventId, SimDuration, SimTime};

use crate::network::{Datagram, HostId, Lan, LanEvent};

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const HEADER_LEN: usize = 9;

/// Transport parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Retransmission timeout (default 5 ms ≫ max LAN round trip).
    pub retransmit_timeout: SimDuration,
    /// Attempts before a message is abandoned and the flow reported
    /// broken (default 20).
    pub max_attempts: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            max_attempts: 20,
        }
    }
}

/// An application message delivered by the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppMessage {
    /// Originating host.
    pub src: HostId,
    /// Destination host (the receiver draining this message).
    pub dst: HostId,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// Transport-level timer event. Opaque; wrap and return to
/// [`Reliable::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportEvent(Tev);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tev {
    Retransmit { src: usize, dst: usize, seq: u64 },
}

/// Transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Application messages accepted for sending.
    pub accepted: u64,
    /// DATA segments put on the wire (including retransmissions).
    pub data_segments: u64,
    /// Retransmissions among those.
    pub retransmissions: u64,
    /// ACK segments sent.
    pub acks: u64,
    /// Application messages delivered in order.
    pub delivered: u64,
    /// Stale DATA segments suppressed (seq already accounted for —
    /// retransmissions of delivered or gap-skipped segments). Never
    /// counts a message the application should have seen.
    pub duplicates: u64,
    /// Messages abandoned after `max_attempts`.
    pub failed: u64,
    /// Sequence numbers skipped by the receiver after the sender
    /// abandoned them: DATA arriving above `expected` advances the flow
    /// and adds the skipped range here. The receiver-side mirror of the
    /// sender's `failed`.
    pub gaps: u64,
}

#[derive(Debug)]
struct SendFlow {
    next_seq: u64,
    queue: VecDeque<Vec<u8>>,
    outstanding: Option<Outstanding>,
}

#[derive(Debug)]
struct Outstanding {
    seq: u64,
    payload: Vec<u8>,
    attempts: u32,
    /// The pending retransmission timer of the latest attempt.
    timer: Option<EventId>,
}

impl SendFlow {
    fn new() -> SendFlow {
        SendFlow {
            next_seq: 0,
            queue: VecDeque::new(),
            outstanding: None,
        }
    }
}

/// The reliable transport spanning every flow on one LAN.
#[derive(Debug, Default)]
pub struct Reliable {
    cfg: ReliableConfig,
    flows: HashMap<(usize, usize), SendFlow>,
    /// Next expected sequence per (src, dst).
    expected: HashMap<(usize, usize), u64>,
    inbox: Vec<AppMessage>,
    broken: Vec<(HostId, HostId)>,
    stats: ReliableStats,
}

impl Reliable {
    /// A transport with the given configuration.
    pub fn new(cfg: ReliableConfig) -> Reliable {
        Reliable {
            cfg,
            ..Reliable::default()
        }
    }

    /// Counters.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// Exports the transport's counters into `metrics` under the
    /// `lan.transport.*` prefix (see `docs/OBSERVABILITY.md`).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        let s = &self.stats;
        metrics.set_counter("lan.transport.accepted", s.accepted);
        metrics.set_counter("lan.transport.data_segments", s.data_segments);
        metrics.set_counter("lan.transport.retransmissions", s.retransmissions);
        metrics.set_counter("lan.transport.acks", s.acks);
        metrics.set_counter("lan.transport.delivered", s.delivered);
        metrics.set_counter("lan.transport.duplicates", s.duplicates);
        metrics.set_counter("lan.transport.failed", s.failed);
        metrics.set_counter("lan.transport.gaps", s.gaps);
    }

    /// Queues `payload` for reliable, ordered delivery from `src` to
    /// `dst`.
    // The two wrap closures are part of the embedding calling convention
    // (see desim::compose); folding them into a struct would obscure it.
    #[allow(clippy::too_many_arguments)]
    pub fn send<S: SubScheduler<E>, E>(
        &mut self,
        s: &mut S,
        lan: &mut Lan,
        wrap_lan: impl Fn(LanEvent) -> E,
        wrap_tr: impl Fn(TransportEvent) -> E,
        src: HostId,
        dst: HostId,
        payload: Vec<u8>,
    ) {
        self.stats.accepted += 1;
        let flow = self
            .flows
            .entry((src.index(), dst.index()))
            .or_insert_with(SendFlow::new);
        flow.queue.push_back(payload);
        self.pump(s, lan, &wrap_lan, &wrap_tr, src, dst);
    }

    /// Feeds a datagram received from the LAN into the transport. Returns
    /// `true` if the datagram was a transport segment (always, in a BIPS
    /// deployment where everything runs over this transport).
    pub fn on_datagram<S: SubScheduler<E>, E>(
        &mut self,
        s: &mut S,
        lan: &mut Lan,
        wrap_lan: impl Fn(LanEvent) -> E,
        wrap_tr: impl Fn(TransportEvent) -> E,
        dgram: Datagram,
    ) -> bool {
        if dgram.payload.len() < HEADER_LEN {
            return false;
        }
        let kind = dgram.payload[0];
        let seq = u64::from_le_bytes(dgram.payload[1..9].try_into().expect("9-byte header"));
        match kind {
            KIND_DATA => {
                let key = (dgram.src.index(), dgram.dst.index());
                let expected = self.expected.entry(key).or_insert(0);
                if seq < *expected {
                    // Stale retransmission of a segment already accounted
                    // for (delivered, or skipped as a gap) — suppress.
                    self.stats.duplicates += 1;
                } else {
                    // seq > expected means the sender moved on: it only
                    // transmits seq after every lower seq was ACKed or
                    // abandoned, so the skipped range was abandoned.
                    // Record the gap and resynchronize instead of
                    // miscounting every later message as a duplicate.
                    self.stats.gaps += seq - *expected;
                    *expected = seq + 1;
                    self.stats.delivered += 1;
                    self.inbox.push(AppMessage {
                        src: dgram.src,
                        dst: dgram.dst,
                        payload: dgram.payload[HEADER_LEN..].to_vec(),
                    });
                }
                // (Re-)acknowledge everything up to the expected seq:
                // the ACK is cumulative and carries `expected - 1`, the
                // highest seq this receiver has accounted for.
                // `expected` is at least 1 here (any DATA either advances
                // it past 0 or is stale, which requires a prior advance).
                let ack_seq = *expected - 1;
                let mut ack = Vec::with_capacity(HEADER_LEN);
                ack.push(KIND_ACK);
                ack.extend_from_slice(&ack_seq.to_le_bytes());
                self.stats.acks += 1;
                let mut sub = MapLan { s, wrap: &wrap_lan };
                lan.send(&mut sub, dgram.dst, dgram.src, ack);
                let _ = wrap_tr;
                true
            }
            KIND_ACK => {
                // ACK travels dst→src of the original flow. Cumulative:
                // anything at or above the outstanding seq clears it.
                let key = (dgram.dst.index(), dgram.src.index());
                if let Some(flow) = self.flows.get_mut(&key) {
                    if matches!(&flow.outstanding, Some(o) if o.seq <= seq) {
                        // The timer would find its seq cleared and do
                        // nothing; cancelling it saves the calendar slot.
                        if let Some(timer) = flow.outstanding.take().and_then(|o| o.timer) {
                            s.cancel(timer);
                        }
                        self.pump(s, lan, &wrap_lan, &wrap_tr, dgram.dst, dgram.src);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Processes a transport timer event.
    pub fn handle<S: SubScheduler<E>, E>(
        &mut self,
        s: &mut S,
        lan: &mut Lan,
        wrap_lan: impl Fn(LanEvent) -> E,
        wrap_tr: impl Fn(TransportEvent) -> E,
        event: TransportEvent,
    ) {
        let Tev::Retransmit { src, dst, seq } = event.0;
        let Some(flow) = self.flows.get_mut(&(src, dst)) else {
            return;
        };
        let retransmit = matches!(&flow.outstanding, Some(o) if o.seq == seq);
        if !retransmit {
            return; // already acknowledged
        }
        // This is the attempt's own timer, so a flow giving up here has
        // no other timer to cancel.
        let o = flow.outstanding.as_mut().expect("checked above");
        if o.attempts >= self.cfg.max_attempts {
            self.stats.failed += 1;
            flow.outstanding = None;
            self.broken.push((HostId::new(src), HostId::new(dst)));
            self.pump(
                s,
                lan,
                &wrap_lan,
                &wrap_tr,
                HostId::new(src),
                HostId::new(dst),
            );
            return;
        }
        self.stats.retransmissions += 1;
        self.transmit(s, lan, &wrap_lan, &wrap_tr, src, dst);
    }

    /// Moves in-order application messages, oldest first, onto the end
    /// of `out` (reuse `out` to keep draining allocation-free).
    pub fn drain_inbox(&mut self, out: &mut Vec<AppMessage>) {
        out.append(&mut self.inbox);
    }

    /// Drains flows that gave up after `max_attempts` (for alarms).
    pub fn drain_broken_flows(&mut self) -> Vec<(HostId, HostId)> {
        std::mem::take(&mut self.broken)
    }

    /// Starts transmission of the head of the queue if the flow is idle.
    fn pump<S: SubScheduler<E>, E>(
        &mut self,
        s: &mut S,
        lan: &mut Lan,
        wrap_lan: &impl Fn(LanEvent) -> E,
        wrap_tr: &impl Fn(TransportEvent) -> E,
        src: HostId,
        dst: HostId,
    ) {
        let key = (src.index(), dst.index());
        let Some(flow) = self.flows.get_mut(&key) else {
            return;
        };
        if flow.outstanding.is_some() {
            return;
        }
        let Some(payload) = flow.queue.pop_front() else {
            return;
        };
        let seq = flow.next_seq;
        flow.next_seq += 1;
        flow.outstanding = Some(Outstanding {
            seq,
            payload,
            attempts: 0,
            timer: None,
        });
        self.transmit(s, lan, wrap_lan, wrap_tr, key.0, key.1);
    }

    /// Puts the outstanding segment of a flow on the wire and arms the
    /// retransmission timer.
    fn transmit<S: SubScheduler<E>, E>(
        &mut self,
        s: &mut S,
        lan: &mut Lan,
        wrap_lan: &impl Fn(LanEvent) -> E,
        wrap_tr: &impl Fn(TransportEvent) -> E,
        src: usize,
        dst: usize,
    ) {
        let flow = self.flows.get_mut(&(src, dst)).expect("flow exists");
        let o = flow.outstanding.as_mut().expect("outstanding segment");
        o.attempts += 1;
        let mut segment = Vec::with_capacity(HEADER_LEN + o.payload.len());
        segment.push(KIND_DATA);
        segment.extend_from_slice(&o.seq.to_le_bytes());
        segment.extend_from_slice(&o.payload);
        self.stats.data_segments += 1;
        let seq = o.seq;
        {
            let mut sub = MapLan { s, wrap: wrap_lan };
            lan.send(&mut sub, HostId::new(src), HostId::new(dst), segment);
        }
        o.timer = Some(s.schedule(
            s.now() + self.cfg.retransmit_timeout,
            wrap_tr(TransportEvent(Tev::Retransmit { src, dst, seq })),
        ));
    }
}

/// Adapter presenting a `SubScheduler<E>` as a `SubScheduler<LanEvent>`.
struct MapLan<'a, S, F> {
    s: &'a mut S,
    wrap: &'a F,
}

impl<'a, S, E, F> SubScheduler<LanEvent> for MapLan<'a, S, F>
where
    S: SubScheduler<E>,
    F: Fn(LanEvent) -> E,
{
    fn now(&self) -> SimTime {
        self.s.now()
    }
    fn schedule(&mut self, at: SimTime, event: LanEvent) -> desim::EventId {
        self.s.schedule(at, (self.wrap)(event))
    }
    fn cancel(&mut self, id: desim::EventId) -> bool {
        self.s.cancel(id)
    }
    fn rng(&mut self) -> &mut desim::SimRng {
        self.s.rng()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LanConfig;
    use desim::{Context, Engine, SimTime, World};

    enum Ev {
        Lan(LanEvent),
        Tr(TransportEvent),
        Send(HostId, HostId, Vec<u8>),
        SetLoss(f64),
    }

    struct Stack {
        lan: Lan,
        tr: Reliable,
        got: Vec<AppMessage>,
        /// Cumulative seq carried by every ACK put on the wire.
        acks_seen: Vec<u64>,
        /// Transport timers that reached `Reliable::handle`.
        timers_fired: u64,
    }

    impl World for Stack {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Context<Ev>, ev: Ev) {
            match ev {
                Ev::Lan(le) => {
                    self.lan.handle(&mut Wrap(ctx), le);
                    let mut delivered = Vec::new();
                    self.lan.drain_deliveries(&mut delivered);
                    for d in delivered {
                        if d.payload.len() >= HEADER_LEN && d.payload[0] == KIND_ACK {
                            let seq =
                                u64::from_le_bytes(d.payload[1..9].try_into().expect("header"));
                            self.acks_seen.push(seq);
                        }
                        self.tr.on_datagram(ctx, &mut self.lan, Ev::Lan, Ev::Tr, d);
                    }
                }
                Ev::Tr(te) => {
                    self.timers_fired += 1;
                    self.tr.handle(ctx, &mut self.lan, Ev::Lan, Ev::Tr, te);
                }
                Ev::Send(a, b, p) => self.tr.send(ctx, &mut self.lan, Ev::Lan, Ev::Tr, a, b, p),
                Ev::SetLoss(l) => self.lan.set_loss(l),
            }
            self.tr.drain_inbox(&mut self.got);
        }
    }

    /// Adapter for Lan::handle inside the composite world.
    struct Wrap<'a>(&'a mut Context<Ev>);
    impl<'a> SubScheduler<LanEvent> for Wrap<'a> {
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn schedule(&mut self, at: SimTime, e: LanEvent) -> desim::EventId {
            self.0.schedule_at(at, Ev::Lan(e))
        }
        fn cancel(&mut self, id: desim::EventId) -> bool {
            self.0.cancel(id)
        }
        fn rng(&mut self) -> &mut desim::SimRng {
            self.0.rng()
        }
    }

    fn stack(loss: f64, hosts: usize, seed: u64) -> (Engine<Stack>, Vec<HostId>) {
        let mut lan = Lan::new(LanConfig {
            loss,
            ..LanConfig::default()
        });
        let ids: Vec<HostId> = (0..hosts).map(|_| lan.attach()).collect();
        let world = Stack {
            lan,
            tr: Reliable::new(ReliableConfig::default()),
            got: vec![],
            acks_seen: vec![],
            timers_fired: 0,
        };
        (Engine::new(world, seed), ids)
    }

    #[test]
    fn lossless_delivery_in_order() {
        let (mut e, h) = stack(0.0, 2, 1);
        for i in 0..10u8 {
            e.schedule(
                SimTime::from_micros(i as u64),
                Ev::Send(h[0], h[1], vec![i]),
            );
        }
        e.run();
        let got: Vec<u8> = e.world().got.iter().map(|m| m.payload[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(e.world().tr.stats().retransmissions, 0);
    }

    #[test]
    fn acknowledged_segments_cancel_their_timers() {
        let (mut e, h) = stack(0.0, 3, 10);
        for i in 0..10u8 {
            e.schedule(
                SimTime::from_micros(i as u64),
                Ev::Send(h[0], h[1], vec![i]),
            );
        }
        e.schedule(SimTime::ZERO, Ev::Send(h[2], h[1], vec![99]));
        e.run();
        assert_eq!(e.world().timers_fired, 0, "a timer outlived its ACK");
        let st = e.world().tr.stats();
        assert_eq!(
            (st.accepted, st.data_segments, st.delivered, st.acks),
            (11, 11, 11, 11)
        );
        assert_eq!(st.retransmissions, 0);
        assert_eq!(e.world().got.len(), 11);
    }

    #[test]
    fn heavy_loss_still_delivers_everything_in_order() {
        let (mut e, h) = stack(0.4, 2, 2);
        for i in 0..50u8 {
            e.schedule(
                SimTime::from_millis(i as u64),
                Ev::Send(h[0], h[1], vec![i]),
            );
        }
        e.run();
        let got: Vec<u8> = e.world().got.iter().map(|m| m.payload[0]).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "order or loss violated");
        let st = e.world().tr.stats();
        assert!(st.retransmissions > 0, "loss must force retransmissions");
        assert_eq!(st.failed, 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        // With loss on ACKs, data arrives twice; the app sees it once.
        let (mut e, h) = stack(0.3, 2, 3);
        for i in 0..30u8 {
            e.schedule(
                SimTime::from_millis(i as u64 * 2),
                Ev::Send(h[0], h[1], vec![i]),
            );
        }
        e.run();
        assert_eq!(e.world().got.len(), 30);
        assert!(
            e.world().tr.stats().duplicates > 0,
            "expected duplicate deliveries"
        );
    }

    #[test]
    fn flows_are_independent() {
        let (mut e, h) = stack(0.0, 3, 4);
        e.schedule(SimTime::ZERO, Ev::Send(h[0], h[2], vec![1]));
        e.schedule(SimTime::ZERO, Ev::Send(h[1], h[2], vec![2]));
        e.schedule(SimTime::ZERO, Ev::Send(h[2], h[0], vec![3]));
        e.run();
        assert_eq!(e.world().got.len(), 3);
        let pairs: Vec<(usize, usize)> = e
            .world()
            .got
            .iter()
            .map(|m| (m.src.index(), m.dst.index()))
            .collect();
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 0)));
    }

    #[test]
    fn queueing_preserves_order_under_backpressure() {
        let (mut e, h) = stack(0.0, 2, 5);
        // Burst all at the same instant: stop-and-wait must serialize.
        for i in 0..20u8 {
            e.schedule(SimTime::ZERO, Ev::Send(h[0], h[1], vec![i]));
        }
        e.run();
        let got: Vec<u8> = e.world().got.iter().map(|m| m.payload[0]).collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_segments_and_acks() {
        let (mut e, h) = stack(0.0, 2, 6);
        e.schedule(SimTime::ZERO, Ev::Send(h[0], h[1], b"hello".to_vec()));
        e.run();
        let st = e.world().tr.stats();
        assert_eq!(st.accepted, 1);
        assert_eq!(st.data_segments, 1);
        assert_eq!(st.acks, 1);
        assert_eq!(st.delivered, 1);
    }

    /// The PR 7 regression: break a flow under 100% loss, restore the
    /// link, and assert the flow keeps working with truthful counters.
    /// Before the cumulative-ACK fix, every message after the abandoned
    /// one was silently dropped at the receiver (miscounted as a
    /// duplicate) while still being ACKed.
    #[test]
    fn abandoned_flow_recovers_after_link_restore() {
        let (mut e, h) = stack(0.0, 2, 8);
        // m0 delivers normally.
        e.schedule(SimTime::ZERO, Ev::Send(h[0], h[1], b"m0".to_vec()));
        // Sever the link, then send m1: 20 attempts over ~100 ms, then
        // the sender abandons seq 1 and reports the flow broken.
        e.schedule(SimTime::from_millis(1), Ev::SetLoss(1.0));
        e.schedule(
            SimTime::from_millis(2),
            Ev::Send(h[0], h[1], b"m1".to_vec()),
        );
        // Well after abandonment, restore the link and keep sending.
        e.schedule(SimTime::from_millis(300), Ev::SetLoss(0.0));
        e.schedule(
            SimTime::from_millis(301),
            Ev::Send(h[0], h[1], b"m2".to_vec()),
        );
        e.schedule(
            SimTime::from_millis(302),
            Ev::Send(h[0], h[1], b"m3".to_vec()),
        );
        e.run();
        let got: Vec<&[u8]> = e.world().got.iter().map(|m| m.payload.as_slice()).collect();
        assert_eq!(
            got,
            vec![&b"m0"[..], &b"m2"[..], &b"m3"[..]],
            "messages after the abandoned one must still be delivered"
        );
        let st = e.world().tr.stats();
        assert_eq!(st.accepted, 4);
        assert_eq!(st.delivered, 3, "m0, m2 and m3 were delivered");
        assert_eq!(st.failed, 1, "exactly m1 was abandoned");
        assert_eq!(st.gaps, 1, "the receiver saw exactly m1's seq skipped");
        assert_eq!(
            st.duplicates, 0,
            "nothing was retransmitted after delivery, so nothing is a duplicate"
        );
        let broken = e.world_mut().tr.drain_broken_flows();
        assert_eq!(broken, vec![(h[0], h[1])]);
    }

    /// Pins the ACK seq for a stale duplicate: the ACK is cumulative and
    /// carries `expected - 1` (the highest seq accounted for), not the
    /// received seq verbatim.
    #[test]
    fn stale_duplicate_ack_carries_cumulative_seq() {
        let data = |seq: u64, p: &[u8]| {
            let mut d = vec![KIND_DATA];
            d.extend_from_slice(&seq.to_le_bytes());
            d.extend_from_slice(p);
            d
        };
        let (mut e, h) = stack(0.0, 2, 9);
        // Inject raw DATA segments directly onto the LAN: seq 0, seq 1,
        // then a stale replay of seq 0, then seq 3 (a gap: 2 abandoned).
        for (t, seg) in [
            (0u64, data(0, b"a")),
            (1, data(1, b"b")),
            (2, data(0, b"a")),
            (3, data(3, b"d")),
        ] {
            e.schedule(
                SimTime::from_millis(t),
                Ev::Lan(LanEvent::send(h[0], h[1], seg)),
            );
        }
        e.run();
        assert_eq!(
            e.world().acks_seen,
            vec![0, 1, 1, 3],
            "stale duplicate of seq 0 must be re-ACKed with cumulative seq 1"
        );
        let st = e.world().tr.stats();
        assert_eq!(st.delivered, 3);
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.gaps, 1);
        let got: Vec<&[u8]> = e.world().got.iter().map(|m| m.payload.as_slice()).collect();
        assert_eq!(got, vec![&b"a"[..], &b"b"[..], &b"d"[..]]);
    }

    #[test]
    fn short_datagram_is_not_a_segment() {
        let mut tr = Reliable::new(ReliableConfig::default());
        let mut lan = Lan::new(LanConfig::default());
        let a = lan.attach();
        let b = lan.attach();
        let mut e = Engine::new(
            Stack {
                lan: Lan::new(LanConfig::default()),
                tr: Reliable::new(ReliableConfig::default()),
                got: vec![],
                acks_seen: vec![],
                timers_fired: 0,
            },
            7,
        );
        let handled = tr.on_datagram(
            e.context_mut(),
            &mut lan,
            Ev::Lan,
            Ev::Tr,
            Datagram {
                src: a,
                dst: b,
                payload: vec![0, 1],
            },
        );
        assert!(!handled);
    }
}
