//! # bips-lan — the wired half of BIPS
//!
//! BIPS workstations and the central server are "interconnected via an
//! Ethernet LAN" (paper §1). This crate simulates that LAN: a switched
//! segment with configurable latency, jitter and loss ([`network`]), a
//! stop-and-wait reliable transport with retransmission and duplicate
//! suppression ([`transport`]), request/response correlation on top
//! ([`rpc`]), and length-delimited reframing of the same RPC frames
//! over real byte streams ([`stream`]) — the layer `bips-serve` and
//! its clients use to carry frames across loopback TCP/UDS sockets.
//!
//! The stack is byte-oriented — payloads cross the wire as `Vec<u8>`
//! datagrams and each layer adds a small binary header — the same layering
//! a real deployment would have. Like the Bluetooth medium, every layer is
//! written against [`desim::compose::SubScheduler`] so it can be embedded
//! in a larger world (the full BIPS system) or driven standalone.
//!
//! ## Example: two hosts, one datagram
//!
//! ```
//! use bips_lan::network::{Lan, LanConfig, LanEvent};
//! use desim::{Engine, World, Context, SimTime};
//!
//! struct Net { lan: Lan, got: Vec<Vec<u8>> }
//! impl World for Net {
//!     type Event = LanEvent;
//!     fn handle(&mut self, ctx: &mut Context<LanEvent>, ev: LanEvent) {
//!         self.lan.handle(ctx, ev);
//!         let mut delivered = Vec::new();
//!         self.lan.drain_deliveries(&mut delivered);
//!         for d in delivered {
//!             self.got.push(d.payload);
//!         }
//!     }
//! }
//!
//! let mut lan = Lan::new(LanConfig::default());
//! let a = lan.attach();
//! let b = lan.attach();
//! let mut engine = Engine::new(Net { lan, got: vec![] }, 1);
//! // Script the send at t = 0, then run.
//! engine.schedule(SimTime::ZERO, LanEvent::send(a, b, b"presence".to_vec()));
//! engine.run();
//! assert_eq!(engine.world().got, vec![b"presence".to_vec()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod rpc;
pub mod stream;
pub mod transport;

pub use network::{Datagram, HostId, Lan, LanConfig, LanEvent};
pub use transport::{Reliable, ReliableConfig, TransportEvent};
