//! The radio medium: devices, events, hearings, collisions, links.
//!
//! [`Baseband`] owns every modeled radio (masters = BIPS workstations,
//! slaves = handhelds) and advances them event by event. It is written
//! against [`SubScheduler`] so it runs standalone (see
//! [`world::BasebandWorld`](crate::world::BasebandWorld)) or embedded in a
//! larger simulation such as the full BIPS system.
//!
//! The interesting physics all happens here:
//!
//! * a master in the inquiry phase transmits two ID packets per even slot
//!   along its current train ([`inquiry`](crate::inquiry));
//! * a slave hears an ID iff it is in radio range, its scan machine is
//!   listening for inquiry at that instant, and its scan frequency equals
//!   the transmitted frequency;
//! * FHS responses scheduled for the same master at the same instant
//!   **collide** and are all lost (the mechanism the paper added to
//!   BlueHoc) — unless collisions are disabled for ablation;
//! * discovered devices can be paged during the master's service phase
//!   and then exchange data until range loss trips the supervision
//!   timeout.
//!
//! # Event economy
//!
//! Most slot pairs are silent, so the medium avoids events that would
//! only confirm it:
//!
//! * **Scan windows are lazy.** A window boundary is not a calendar
//!   event. Each slave advances its own [`WindowSchedule`] in time order
//!   whenever the medium reads or mutates that slave (an ID it might
//!   hear, a prediction, a page ID), applying the boundaries it slept
//!   through. A window that opens exactly at an `InqTx` instant counts
//!   as open for that transmission only if the naive chain would have
//!   armed the window first (`tie_deaf`); for every other reader it
//!   counts as open.
//! * **Backoff ends are lazy.** A slave whose response backoff has run
//!   out is settled by its next reader, which applies what the old
//!   `BackoffEnd` event did (`SlaveDev::settle_backoff`). A reader at
//!   exactly the end instant needs the calendar order the event had:
//!   the medium stamps every `InqTx` it schedules and every backoff it
//!   arms from one counter, and an `InqTx` sees the backoff as ended iff
//!   the backoff's stamp is the smaller one.
//! * **Inquiry chains skip ahead.** With [`MediumConfig::skip_ahead`]
//!   each inquiring master schedules its next `InqTx` only at the
//!   earliest slot pair some in-range scanning slave could hear, and
//!   accounts the silent pairs in between in closed form. The naive
//!   chain, one `InqTx` per slot pair, stays as the test oracle.
//! * **Predictions are cached.** Each (master, slave) answer of the
//!   audibility solver is kept until the slave's `version` changes (a
//!   heard ID, a stop, a re-armed chain, an activity toggle, a link up
//!   or down) or the master enters a new phase. Re-aiming a chain
//!   re-solves only stale entries.
//! * **Due slaves only.** Each master keeps its valid predictions in a
//!   min-heap and marks in an "unsettled" row the slaves whose prediction
//!   may be missing or stale. An `InqTx` lists the due heap entries and
//!   the unsettled covered slaves, never the whole coverage; the
//!   deferral check, both half-slots and the re-aim read only that list
//!   (`collect_listeners` says why it stays exact).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use desim::compose::SubScheduler;
use desim::{EventId, SimDuration, SimRng, SimTime};

use crate::addr::BdAddr;
use crate::clock::{NativeClock, CLKN_12_PERIOD, SLOT_PAIR, TICK};
use crate::hop::{InquiryFreq, Train, NUM_INQUIRY_FREQS};
use crate::inquiry::InquiryState;
use crate::link::Link;
use crate::page::{completion_time, PageAttempt};
use crate::params::{
    MasterConfig, MediumConfig, PageModel, ScanFreqModel, SlaveConfig, StartTrain,
};
use crate::scan::{ScanAction, ScanMachine, ScanPhase, WindowSchedule};
use crate::schedule::{Phase, PhasePlan};

/// The train selected by a clock at an instant: bit 14 of CLKN flips
/// every 2.56 s, the train-repetition period.
fn train_from_clock(clock: &NativeClock, at: SimTime) -> Train {
    if (clock.clkn(at) >> 14) & 1 == 0 {
        Train::A
    } else {
        Train::B
    }
}

/// Maximum simultaneously active slaves in one piconet (spec: a 3-bit
/// active member address, 7 slaves plus the master).
pub const MAX_ACTIVE_SLAVES: usize = 7;

/// Identifies a master (a BIPS workstation radio) within one [`Baseband`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MasterId(usize);

impl MasterId {
    /// Creates an id from a raw index (as returned by
    /// [`Baseband::add_master`]).
    pub fn new(index: usize) -> MasterId {
        MasterId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a slave (a handheld radio) within one [`Baseband`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlaveId(usize);

impl SlaveId {
    /// Creates an id from a raw index (as returned by
    /// [`Baseband::add_slave`]).
    pub fn new(index: usize) -> SlaveId {
        SlaveId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A baseband event. Opaque: embedders wrap it in their own event enum and
/// hand it back to [`Baseband::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbEvent(Ev);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Bootstrap: start all configured devices.
    Start,
    /// Master even-slot inquiry transmission. `deferred` marks a
    /// skip-ahead transmission that already requeued itself behind the
    /// other events of its instant (see `should_defer`). `stamp` is its
    /// place in the medium's arm order (see `SlaveDev::settle_backoff`).
    InqTx {
        master: usize,
        epoch: u32,
        deferred: bool,
        stamp: u64,
    },
    /// Master duty-cycle boundary.
    PhaseBoundary { master: usize, epoch: u32 },
    /// All FHS responses aimed at `master` for the instant keyed `key`.
    FhsRx { master: usize, key: u64 },
    /// An in-flight page attempt reaches a decision instant (analytic
    /// model).
    PageResolve {
        master: usize,
        slave: usize,
        attempt: u32,
    },
    /// Slot-accurate paging: the master's next page-ID transmission.
    PageTx { master: usize, attempt: u32 },
    /// A data message finishes its transfer.
    DataDelivered {
        master: usize,
        slave: usize,
        tag: u64,
        payload: Vec<u8>,
    },
    /// Link supervision check after a range loss.
    SupervisionCheck { master: usize, slave: usize },
    /// Scripted command (public API action delivered as an event).
    Cmd(Command),
}

/// A scripted action, schedulable like any other event — lets tests,
/// examples and experiment harnesses drive the medium's public API at
/// chosen instants without writing a custom [`World`](desim::World).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    SetInRange(MasterId, SlaveId, bool),
    RequestPage(MasterId, SlaveId),
    SendData(MasterId, SlaveId, Vec<u8>, u64),
    Disconnect(MasterId, SlaveId),
    SetSlaveActive(SlaveId, bool),
}

impl BbEvent {
    /// The bootstrap event: schedule it once at the simulation start to
    /// launch every configured device (standalone worlds do this for you).
    pub fn start() -> BbEvent {
        BbEvent(Ev::Start)
    }

    /// Scripted [`Baseband::set_in_range`].
    pub fn set_in_range(master: MasterId, slave: SlaveId, in_range: bool) -> BbEvent {
        BbEvent(Ev::Cmd(Command::SetInRange(master, slave, in_range)))
    }

    /// Scripted [`Baseband::request_page`].
    pub fn request_page(master: MasterId, slave: SlaveId) -> BbEvent {
        BbEvent(Ev::Cmd(Command::RequestPage(master, slave)))
    }

    /// Scripted [`Baseband::send_data`]; a missing link is silently
    /// dropped (scripts cannot observe errors).
    pub fn send_data(master: MasterId, slave: SlaveId, payload: Vec<u8>, tag: u64) -> BbEvent {
        BbEvent(Ev::Cmd(Command::SendData(master, slave, payload, tag)))
    }

    /// Scripted [`Baseband::disconnect`].
    pub fn disconnect(master: MasterId, slave: SlaveId) -> BbEvent {
        BbEvent(Ev::Cmd(Command::Disconnect(master, slave)))
    }

    /// Scripted [`Baseband::set_slave_active`].
    pub fn set_slave_active(slave: SlaveId, active: bool) -> BbEvent {
        BbEvent(Ev::Cmd(Command::SetSlaveActive(slave, active)))
    }
}

/// One successful FHS reception (a device discovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discovery {
    /// The discovering master.
    pub master: MasterId,
    /// The discovered slave.
    pub slave: SlaveId,
    /// When the master received the FHS.
    pub at: SimTime,
}

/// Things the baseband tells its embedder (drained via
/// [`Baseband::drain_notifications`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbNotification {
    /// First FHS reception for this (master, slave) pair since the last
    /// reset.
    Discovered(Discovery),
    /// Every successful FHS reception (repeat sightings included) — the
    /// signal a BIPS workstation uses to refresh a device's presence.
    FhsSeen {
        /// The receiving master.
        master: MasterId,
        /// The sighted slave.
        slave: SlaveId,
        /// When.
        at: SimTime,
    },
    /// Two or more FHS responses collided at a master.
    FhsCollision {
        /// The master whose receive window was hit.
        master: MasterId,
        /// The slaves whose responses were destroyed.
        slaves: Vec<SlaveId>,
        /// When.
        at: SimTime,
    },
    /// A page attempt succeeded; the link is up.
    LinkEstablished {
        /// The piconet master.
        master: MasterId,
        /// The now-connected slave.
        slave: SlaveId,
        /// When.
        at: SimTime,
    },
    /// A page attempt timed out.
    PageFailed {
        /// The paging master.
        master: MasterId,
        /// The unreachable slave.
        slave: SlaveId,
        /// When the master gave up.
        at: SimTime,
    },
    /// A link was torn down (supervision timeout or explicit disconnect).
    LinkLost {
        /// The piconet master.
        master: MasterId,
        /// The disconnected slave.
        slave: SlaveId,
        /// When.
        at: SimTime,
    },
    /// A data message was delivered over a link.
    DataDelivered {
        /// Sending/receiving master.
        master: MasterId,
        /// The slave endpoint.
        slave: SlaveId,
        /// Caller-chosen tag identifying the message kind/direction.
        tag: u64,
        /// The message bytes (crossed the link in DM1 packets).
        payload: Vec<u8>,
        /// When.
        at: SimTime,
    },
}

/// Medium-wide counters, exposed for tests and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BbStats {
    /// ID packets transmitted by masters.
    pub ids_transmitted: u64,
    /// ID packets heard by slaves.
    pub ids_heard: u64,
    /// Backoffs begun by slaves.
    pub backoffs: u64,
    /// FHS responses transmitted by slaves.
    pub fhs_transmitted: u64,
    /// FHS responses successfully received.
    pub fhs_received: u64,
    /// FHS responses destroyed by collisions.
    pub fhs_collided: u64,
    /// FHS responses lost because the master had left the inquiry phase.
    pub fhs_missed_phase: u64,
    /// Page attempts begun.
    pub pages_started: u64,
    /// Pages completing in a connection.
    pub pages_completed: u64,
    /// Pages abandoned at timeout.
    pub pages_failed: u64,
    /// Links lost (supervision or explicit).
    pub links_lost: u64,
    /// Data messages delivered.
    pub data_delivered: u64,
}

/// Error returned by [`Baseband::send_data`] when no link exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoLinkError {
    /// The master endpoint of the missing link.
    pub master: MasterId,
    /// The slave endpoint of the missing link.
    pub slave: SlaveId,
}

impl std::fmt::Display for NoLinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no link between master {} and slave {}",
            self.master.index(),
            self.slave.index()
        )
    }
}

impl std::error::Error for NoLinkError {}

struct MasterDev {
    addr: BdAddr,
    clock: NativeClock,
    plan: PhasePlan,
    inq: InquiryState,
    start_policy: StartTrain,
    start_train: Train,
    epoch: u32,
    paging: Option<(PageAttempt, u32)>,
    page_attempt_seq: u32,
    page_queue: VecDeque<SlaveId>,
    /// When the current inquiry phase was entered — the instant the
    /// naive chain scheduled its first `InqTx` (same-instant ordering
    /// proxy).
    entered_at: SimTime,
    /// The current inquiry phase's first slot pair; later pairs were
    /// naively scheduled one `SLOT_PAIR` before they fire.
    first_pair: SimTime,
    /// Where the current phase ends (`MAX` for an always-inquiry
    /// master): the boundary `enter_phase` armed.
    phase_end: SimTime,
    /// Skip-ahead bookkeeping; `Some` exactly while the master is inside
    /// an inquiry phase with the skip-ahead scheduler enabled.
    skip: Option<SkipChain>,
    /// Cached audibility predictions, indexed by slave.
    predictions: Vec<Prediction>,
    /// `(predicted pair, slave)` for every prediction written this phase
    /// before `phase_end`, earliest first. Entries whose prediction was
    /// since rewritten or invalidated are dropped when they surface.
    due: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Scratch for one `InqTx` or wake: the in-range slaves that may hear
    /// this master's pair at the instant it was built, ascending (see
    /// `Baseband::collect_listeners`).
    listeners: Vec<usize>,
}

/// One cached [`Baseband::slave_next_audible`] answer: the earliest slot
/// pair, solved up to the phase boundary, at which the slave could hear
/// this master. Valid while the slave's `version` and the master's phase
/// `epoch` both match; every pair before `at` (from the pair the solve
/// started at) is proven deaf for the slave. Epoch 0 precedes every
/// phase, so a default entry is never valid.
#[derive(Clone, Copy, Default)]
struct Prediction {
    version: u32,
    epoch: u32,
    at: SimTime,
}

impl Prediction {
    /// The predicted pair, if the entry is valid for the master's phase
    /// `epoch` and the slave's `version`.
    #[inline]
    fn valid(self, epoch: u32, version: u32) -> Option<SimTime> {
        (self.epoch == epoch && self.version == version).then_some(self.at)
    }
}

/// Lazy accounting for a master's inquiry chain under skip-ahead.
///
/// Slot pairs on the inquiry grid before `from` are fully accounted
/// (`ids_transmitted`, train position); pairs from `from` onwards are
/// pending. They are settled in closed form — proven deaf, so no RNG
/// draws or state changes are lost — when the next audible pair fires,
/// when an audibility-increasing transition re-aims the chain, when the
/// phase ends, or when the engine quiesces at a `run_until` boundary.
struct SkipChain {
    /// First unaccounted slot pair on the master's even-slot grid.
    from: SimTime,
    /// Pending `InqTx` at the predicted next audible pair; `None` while
    /// no in-range scanning slave can hear this phase at all (the chain
    /// is dormant until a wake-up transition).
    event: Option<EventId>,
    /// Instant the pending `event` fires at (`MAX` while dormant). A
    /// re-aim that lands on the same instant keeps the existing event:
    /// rescheduling would assign a fresh queue sequence number and could
    /// reorder the `InqTx` against other events of that instant.
    aimed_at: SimTime,
}

struct SlaveDev {
    addr: BdAddr,
    #[allow(dead_code)] // kept for FHS payloads and future clock-accurate paging
    clock: NativeClock,
    windows: WindowSchedule,
    machine: ScanMachine,
    freq_rot: u8,
    /// Bumped whenever the slave's listening changes other than by its
    /// own window schedule: a heard ID, a stop, a re-armed chain, an
    /// activity toggle, a link up or down. Invalidates cached
    /// predictions. Only [`Baseband::bump_slave`] moves it.
    version: u32,
    active: bool,
    halt_when_discovered: bool,
    connected_to: Option<MasterId>,
    /// Whether the window chain is live. A slave whose chain died
    /// (halted after discovery, connected, deactivated) is deaf until a
    /// control transition re-arms it; its [`WindowSchedule`] keeps
    /// ticking on paper only.
    scanning: bool,
    /// The first window of the live chain the machine has not seen yet.
    next_window_index: u64,
    /// Start of the chain's first window. Re-armed chains skip the
    /// partial window they were armed in.
    first_window_start: SimTime,
    /// When the chain was armed — the instant the naive model scheduled
    /// its first window open. Every later window was armed one scan
    /// interval before it opens, when its predecessor opened.
    window_armed_at: SimTime,
    /// When the current backoff was armed (same-instant ordering proxy,
    /// compared against the naive `InqTx` arm instant).
    backoff_armed_at: SimTime,
    /// The current backoff's place in the medium's arm order.
    backoff_stamp: u64,
}

impl SlaveDev {
    /// The inquiry-sequence position this slave listens on at `now`:
    /// its clock phase walks it one position per 1.28 s.
    fn scan_freq(&self, now: SimTime) -> InquiryFreq {
        let steps = now.elapsed().div_duration(crate::clock::CLKN_12_PERIOD);
        InquiryFreq::new(((self.freq_rot as u64 + steps) % NUM_INQUIRY_FREQS as u64) as u8)
    }

    /// Applies every window boundary at or before `now` the machine has
    /// not seen yet, with the effect per-window open and close events
    /// would have had.
    ///
    /// Only the latest due window matters: each earlier one opened and
    /// closed before it, and a backoff that ignored an earlier open
    /// ignores the later one too unless it ended by then — in which case
    /// [`settle_backoff`](SlaveDev::settle_backoff), which runs before
    /// every advance, already advanced the slave to that instant.
    fn advance_windows(&mut self, now: SimTime) {
        if !self.scanning {
            return;
        }
        if self.windows.window_start(self.next_window_index) <= now {
            let mut due = self.windows.first_window_at_or_after(now);
            if self.windows.window_start(due) == now {
                due += 1;
            }
            let open = self.windows.window_start(due - 1);
            let close = open + self.windows.pattern().window();
            self.machine
                .open_window(open, self.windows.window_kind(due - 1), close);
            self.next_window_index = due;
        }
        // A close at `now` precedes every reader at `now`: the naive
        // close event was armed a whole window earlier.
        self.machine.close_window(now);
    }

    /// Ends a backoff that has run out by `now` for a reader whose arm
    /// stamp is `reader`, with the effect its end event had: the windows
    /// that opened during the backoff are consumed, then the slave enters
    /// the open-ended post-backoff listen (spec: it returns to the
    /// inquiry scan substate; the next *regular* window boundary
    /// re-asserts the scheduled kind, so a periodic scanner reverts to
    /// its timetable at most one interval later).
    ///
    /// A backoff ending before `now` has ended for every reader. One
    /// ending exactly at `now` has ended for an `InqTx` iff it was armed
    /// before that `InqTx` was scheduled (`backoff_stamp < reader`):
    /// stamps follow scheduling order, which is the order the calendar
    /// ran the end event and the `InqTx` in. Every other reader passes
    /// `reader = 0` and sees the backoff still running. That reader is a
    /// page ID, a stop, a re-arm or a prediction, and each sees the same
    /// as after the end:
    ///
    /// * a page ID hears only a page window, and a window opening at
    ///   `now` overrides a backoff ending at `now` either way;
    /// * a stop or a re-arm (which follows a stop) resets the machine;
    /// * a prediction starts at `from ≥ now`, and `next_receptive_after`
    ///   returns `max(from, until) = from` for the running backoff as for
    ///   the post-backoff listen — except when a page window opens
    ///   exactly at `now`, where the running backoff's answer is earlier
    ///   and so still conservative (an `InqTx` that finds the slave deaf
    ///   is a harmless false alarm).
    fn settle_backoff(&mut self, now: SimTime, reader: u64) {
        if let ScanPhase::Backoff { until } = self.machine.phase() {
            if until < now || (until == now && self.backoff_stamp < reader) {
                self.advance_windows(until);
                self.machine.end_backoff(until, SimTime::MAX);
            }
        }
    }

    /// Whether the slave could listen for inquiry at all: active,
    /// unconnected and with a live window chain.
    #[inline]
    fn eligible(&self) -> bool {
        self.active && self.connected_to.is_none() && self.scanning
    }
}

/// A set of (master, slave) pairs, one bit per pair in one flat word
/// array: master `m`'s row is words `m * stride .. (m + 1) * stride`.
/// The hot inquiry loop walks a row with shifts and `trailing_zeros`,
/// and a first-sighting test is one bit probe instead of a tree lookup.
#[derive(Default)]
struct PairSet {
    words: Vec<u64>,
    /// Words per master row; rows widen on demand.
    stride: usize,
}

impl PairSet {
    /// Adds the pair; returns whether it was absent.
    fn insert(&mut self, m: usize, sl: usize) -> bool {
        let w = sl / 64;
        if w >= self.stride {
            self.widen(w + 1);
        }
        let i = m * self.stride + w;
        if self.words.len() <= i {
            self.words.resize((m + 1) * self.stride, 0);
        }
        let bit = 1u64 << (sl % 64);
        let absent = self.words[i] & bit == 0;
        self.words[i] |= bit;
        absent
    }

    /// Re-lays every row out `stride` words wide.
    fn widen(&mut self, stride: usize) {
        let old = std::mem::replace(&mut self.stride, stride);
        if old == 0 {
            return; // no row was ever laid out
        }
        let mut words = Vec::with_capacity(self.words.len() / old * stride);
        for row in self.words.chunks(old) {
            words.extend_from_slice(row);
            words.resize(words.len() + stride - row.len(), 0);
        }
        self.words = words;
    }

    fn remove(&mut self, m: usize, sl: usize) {
        let w = sl / 64;
        if w < self.stride {
            if let Some(word) = self.words.get_mut(m * self.stride + w) {
                *word &= !(1u64 << (sl % 64));
            }
        }
    }

    #[inline]
    fn contains(&self, m: usize, sl: usize) -> bool {
        self.row(m)
            .get(sl / 64)
            .is_some_and(|&word| word >> (sl % 64) & 1 == 1)
    }

    /// Master `m`'s row (empty when no pair of `m` was ever added).
    #[inline]
    fn row(&self, m: usize) -> &[u64] {
        self.words
            .get(m * self.stride..(m + 1) * self.stride)
            .unwrap_or(&[])
    }

    #[inline]
    fn row_mut(&mut self, m: usize) -> &mut [u64] {
        self.words
            .get_mut(m * self.stride..(m + 1) * self.stride)
            .unwrap_or(&mut [])
    }

    /// Makes `m`'s row hold exactly the pairs `(m, 0..n)`.
    fn fill_row(&mut self, m: usize, n: usize) {
        if n == 0 {
            self.row_mut(m).fill(0);
            return;
        }
        self.insert(m, n - 1); // lays the row out wide enough
        for (w, word) in self.row_mut(m).iter_mut().enumerate() {
            let below = n.saturating_sub(w * 64);
            *word = if below >= 64 { !0 } else { (1u64 << below) - 1 };
        }
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// In-flight FHS response buckets, keyed by `(master, response offset)`.
///
/// A sorted scratch `Vec` with recycled responder buffers: at most a
/// handful of buckets are live at once (responses resolve within a slot),
/// so binary search over a dense array beats a `HashMap` — and reusing
/// drained responder `Vec`s removes the per-response allocation entirely.
#[derive(Default)]
struct FhsBuckets {
    live: Vec<((usize, u64), Vec<usize>)>,
    spare: Vec<Vec<usize>>,
}

impl FhsBuckets {
    /// Appends `responder` to the bucket for `key`, creating it (from a
    /// recycled buffer when available) if absent. Returns `true` if this
    /// call created the bucket — i.e. the responder is the first.
    fn push(&mut self, key: (usize, u64), responder: usize) -> bool {
        match self.live.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => {
                self.live[i].1.push(responder);
                false
            }
            Err(i) => {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.push(responder);
                self.live.insert(i, (key, buf));
                true
            }
        }
    }

    /// Removes and returns the bucket for `key`, if any. Return the buffer
    /// via [`recycle`](FhsBuckets::recycle) once drained.
    fn take(&mut self, key: (usize, u64)) -> Option<Vec<usize>> {
        match self.live.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(self.live.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns a drained responder buffer to the reuse pool.
    fn recycle(&mut self, mut buf: Vec<usize>) {
        buf.clear();
        self.spare.push(buf);
    }
}

/// The Bluetooth radio medium: all masters, slaves, links and in-flight
/// responses.
///
/// See the [crate docs](crate) for a runnable example.
pub struct Baseband {
    cfg: MediumConfig,
    masters: Vec<MasterDev>,
    slaves: Vec<SlaveDev>,
    /// Coverage by master: master `m`'s row holds the slaves it covers.
    in_range: PairSet,
    /// The same coverage transposed: slave `sl`'s row holds the masters
    /// covering it.
    covering: PairSet,
    /// Per master, the slaves whose prediction for it may be missing or
    /// stale (see `collect_listeners`).
    unsettled: PairSet,
    /// The last stamp handed out: every `InqTx` the medium schedules and
    /// every backoff it arms takes the next one.
    stamps: u64,
    /// The stamp of the `InqTx` being handled; 0 outside `InqTx`
    /// handlers (see `SlaveDev::settle_backoff`).
    reader: u64,
    fhs_buckets: FhsBuckets,
    discoveries: Vec<Discovery>,
    discovered: PairSet,
    /// Ordered map: [`Baseband::active_slaves`] iterates the keys, so
    /// the order must not depend on a hasher (determinism invariant).
    links: BTreeMap<(usize, usize), Link>,
    notifications: Vec<BbNotification>,
    stats: BbStats,
    started: bool,
    /// Scan rotation shared by all slaves under
    /// [`ScanFreqModel::SharedSequence`], resolved at first slave add.
    shared_rot: Option<u8>,
}

impl std::fmt::Debug for Baseband {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Baseband")
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("links", &self.links.len())
            .field("discoveries", &self.discoveries.len())
            .finish_non_exhaustive()
    }
}

impl Baseband {
    /// An empty medium with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.packet_success` is outside `(0, 1]`.
    pub fn new(cfg: MediumConfig) -> Baseband {
        assert!(
            cfg.packet_success > 0.0 && cfg.packet_success <= 1.0,
            "packet_success {} outside (0, 1]",
            cfg.packet_success
        );
        Baseband {
            cfg,
            masters: Vec::new(),
            slaves: Vec::new(),
            in_range: PairSet::default(),
            covering: PairSet::default(),
            unsettled: PairSet::default(),
            stamps: 0,
            reader: 0,
            fhs_buckets: FhsBuckets::default(),
            discoveries: Vec::new(),
            discovered: PairSet::default(),
            links: BTreeMap::new(),
            notifications: Vec::new(),
            stats: BbStats::default(),
            started: false,
            shared_rot: None,
        }
    }

    /// Adds a master, resolving its random clock phase and start train
    /// from `rng`. Must be called before [`start`](Baseband::start).
    ///
    /// # Panics
    ///
    /// Panics if the medium has already started.
    pub fn add_master(&mut self, cfg: MasterConfig, rng: &mut SimRng) -> MasterId {
        assert!(!self.started, "cannot add devices after start");
        let clock = NativeClock::random(rng);
        // The starting train is a function of the free-running clock
        // (uniform phase → 50/50), matching how real hardware lands on a
        // train; Fixed policies pin it instead.
        let start_train = match cfg.start_train_policy() {
            StartTrain::Random => train_from_clock(&clock, SimTime::ZERO),
            StartTrain::Fixed(t) => t,
        };
        let id = self.masters.len();
        self.masters.push(MasterDev {
            addr: cfg.addr,
            clock,
            plan: PhasePlan::new(cfg.duty_cycle(), SimTime::ZERO),
            inq: InquiryState::new(start_train, cfg.train_policy()),
            start_policy: cfg.start_train_policy(),
            start_train,
            epoch: 0,
            paging: None,
            page_attempt_seq: 0,
            page_queue: VecDeque::new(),
            entered_at: SimTime::ZERO,
            first_pair: SimTime::ZERO,
            phase_end: SimTime::ZERO,
            skip: None,
            predictions: Vec::new(),
            due: BinaryHeap::new(),
            listeners: Vec::new(),
        });
        MasterId(id)
    }

    /// Adds a slave, resolving its random clock phase, scan-window phase
    /// and starting scan frequency from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the medium has already started.
    pub fn add_slave(&mut self, cfg: SlaveConfig, rng: &mut SimRng) -> SlaveId {
        assert!(!self.started, "cannot add devices after start");
        let start = match self.cfg.scan_freq_model {
            ScanFreqModel::PerDevice => cfg.start_freq_policy().resolve(rng),
            ScanFreqModel::SharedSequence => {
                let rot = *self
                    .shared_rot
                    .get_or_insert_with(|| cfg.start_freq_policy().resolve(rng).index());
                InquiryFreq::new(rot)
            }
        };
        let windows = WindowSchedule::random(cfg.scan_pattern(), rng);
        let id = self.slaves.len();
        self.slaves.push(SlaveDev {
            addr: cfg.addr,
            clock: NativeClock::random(rng),
            windows,
            machine: ScanMachine::new(cfg.scan_pattern(), cfg.backoff_bound()),
            freq_rot: start.index(),
            version: 0,
            active: true,
            halt_when_discovered: cfg.halts_when_discovered(),
            connected_to: None,
            scanning: false,
            next_window_index: 0,
            first_window_start: SimTime::MAX,
            window_armed_at: SimTime::ZERO,
            backoff_armed_at: SimTime::ZERO,
            backoff_stamp: 0,
        });
        SlaveId(id)
    }

    /// Number of masters.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Number of slaves.
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// A master's device address.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a valid id for this medium.
    pub fn master_addr(&self, m: MasterId) -> BdAddr {
        self.masters[m.0].addr
    }

    /// A slave's device address.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid id for this medium.
    pub fn slave_addr(&self, s: SlaveId) -> BdAddr {
        self.slaves[s.0].addr
    }

    /// The train a master started (or restarts) its inquiry on.
    pub fn master_start_train(&self, m: MasterId) -> Train {
        self.masters[m.0].start_train
    }

    /// The inquiry-sequence position slave `s` listens on at `now`.
    pub fn slave_scan_freq(&self, s: SlaveId, now: SimTime) -> InquiryFreq {
        self.slaves[s.0].scan_freq(now)
    }

    /// Whether the slave currently holds a connection, and to whom.
    pub fn slave_connection(&self, s: SlaveId) -> Option<MasterId> {
        self.slaves[s.0].connected_to
    }

    /// The slaves connected to master `m`, in ascending slave-id order.
    ///
    /// Allocation-free: callers that need a materialized list collect into
    /// their own (reusable) buffer.
    pub fn connected_slaves(&self, m: MasterId) -> impl Iterator<Item = SlaveId> + '_ {
        self.slaves
            .iter()
            .enumerate()
            .filter(move |(_, dev)| dev.connected_to == Some(m))
            .map(|(sl, _)| SlaveId(sl))
    }

    /// Marks `slave` in or out of `master`'s radio coverage. Out-of-range
    /// connected slaves start the supervision clock.
    pub fn set_in_range<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
        in_range: bool,
    ) {
        let key = (master.0, slave.0);
        self.set_coverage(master.0, slave.0, in_range);
        if in_range {
            if let Some(link) = self.links.get_mut(&key) {
                link.mark_in_range();
            }
            // A new audible slave may precede the chain's current aim.
            self.wake_master(s, master.0);
        } else {
            if let Some(link) = self.links.get_mut(&key) {
                link.mark_out_of_range(s.now());
                s.schedule(
                    s.now() + self.cfg.supervision_timeout,
                    BbEvent(Ev::SupervisionCheck {
                        master: master.0,
                        slave: slave.0,
                    }),
                );
            }
        }
    }

    /// True if `slave` is in `master`'s coverage.
    pub fn is_in_range(&self, master: MasterId, slave: SlaveId) -> bool {
        self.in_range.contains(master.0, slave.0)
    }

    /// Updates both coverage sets. A slave entering coverage is
    /// unsettled at that master: whatever prediction it holds there was
    /// not kept in the master's due queue while it was away.
    fn set_coverage(&mut self, m: usize, sl: usize, in_range: bool) {
        if in_range {
            self.in_range.insert(m, sl);
            self.covering.insert(sl, m);
            self.unsettled.insert(m, sl);
        } else {
            self.in_range.remove(m, sl);
            self.covering.remove(sl, m);
        }
    }

    /// Switches a slave's radio on or off. Deactivating drops any link
    /// immediately and stops scanning; activating resumes scanning.
    pub fn set_slave_active<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        slave: SlaveId,
        active: bool,
    ) {
        if self.slaves[slave.0].active == active {
            return;
        }
        if active {
            self.slaves[slave.0].active = true;
            if self.started {
                self.restart_slave_scanning(s, slave.0);
            }
        } else {
            if let Some(m) = self.slaves[slave.0].connected_to {
                self.tear_down_link(s.now(), m.0, slave.0);
            }
            self.slaves[slave.0].active = false;
            self.stop_scanning(slave.0);
        }
    }

    /// Queues a page of `slave` by `master`; the page runs during the
    /// master's service phase. No-op if the pair is already linked or the
    /// page is already queued/in flight.
    ///
    /// Note: a master configured with
    /// [`DutyCycle::always_inquiry`](crate::params::DutyCycle::always_inquiry)
    /// has no service phase and therefore never executes queued pages —
    /// give tracking masters a periodic duty cycle.
    pub fn request_page<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
    ) {
        if self.links.contains_key(&(master.0, slave.0)) {
            return;
        }
        let dev = &mut self.masters[master.0];
        if let Some((attempt, _)) = dev.paging {
            if attempt.slave == slave {
                return;
            }
        }
        if dev.page_queue.contains(&slave) {
            return;
        }
        dev.page_queue.push_back(slave);
        self.maybe_start_page(s, master.0);
    }

    /// Sends `payload` between `master` and `slave` (the slot timing is
    /// symmetric, so one call covers both directions). The bytes cross
    /// the link in DM1 packets — one slot pair per 17 bytes — and are
    /// handed back in the [`BbNotification::DataDelivered`] notification
    /// with the caller's `tag` identifying kind/direction.
    ///
    /// # Errors
    ///
    /// Returns [`NoLinkError`] if the pair is not connected.
    pub fn send_data<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
        payload: Vec<u8>,
        tag: u64,
    ) -> Result<(), NoLinkError> {
        if !self.links.contains_key(&(master.0, slave.0)) {
            return Err(NoLinkError { master, slave });
        }
        s.schedule(
            s.now() + Link::transfer_time(payload.len()),
            BbEvent(Ev::DataDelivered {
                master: master.0,
                slave: slave.0,
                tag,
                payload,
            }),
        );
        Ok(())
    }

    /// Explicitly tears down a link (e.g. BIPS logout). No-op if absent.
    pub fn disconnect<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
    ) {
        if self.links.contains_key(&(master.0, slave.0)) {
            self.tear_down_link(s.now(), master.0, slave.0);
            self.restart_slave_scanning(s, slave.0);
            // A freed piconet slot may unblock queued pages.
            self.maybe_start_page(s, master.0);
        }
    }

    /// All first-time discoveries since the last
    /// [`reset_discoveries`](Baseband::reset_discoveries).
    pub fn discoveries(&self) -> &[Discovery] {
        &self.discoveries
    }

    /// Clears the discovery record (e.g. between measurement trials).
    pub fn reset_discoveries(&mut self) {
        self.discoveries.clear();
        self.discovered.clear_all();
    }

    /// Medium counters.
    pub fn stats(&self) -> BbStats {
        self.stats
    }

    /// Settles every master's skip-ahead inquiry chain up to `now`,
    /// accounting the provably deaf slot pairs the scheduler jumped over.
    /// Embedding worlds forward [`World::quiesce`](desim::World::quiesce)
    /// here so counters observed at a `run_until` boundary are
    /// bit-identical to the naive slot-ticking chain. No-op when
    /// skip-ahead is disabled.
    pub fn settle(&mut self, now: SimTime) {
        if !self.cfg.skip_ahead {
            return;
        }
        for m in 0..self.masters.len() {
            self.settle_master(m, now);
        }
    }

    /// Exports the medium's counters into `metrics` under the
    /// `baseband.*` prefix (see `docs/OBSERVABILITY.md` for the catalog).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        let s = &self.stats;
        metrics.set_counter("baseband.inquiry.ids_transmitted", s.ids_transmitted);
        metrics.set_counter("baseband.inquiry.ids_heard", s.ids_heard);
        metrics.set_counter("baseband.inquiry.backoffs", s.backoffs);
        metrics.set_counter("baseband.inquiry.fhs_transmitted", s.fhs_transmitted);
        metrics.set_counter("baseband.inquiry.fhs_received", s.fhs_received);
        metrics.set_counter("baseband.inquiry.fhs_collisions", s.fhs_collided);
        metrics.set_counter("baseband.inquiry.fhs_missed_phase", s.fhs_missed_phase);
        metrics.set_counter(
            "baseband.inquiry.discoveries",
            self.discoveries.len() as u64,
        );
        metrics.set_counter("baseband.page.started", s.pages_started);
        metrics.set_counter("baseband.page.completed", s.pages_completed);
        metrics.set_counter("baseband.page.failed", s.pages_failed);
        metrics.set_counter("baseband.link.lost", s.links_lost);
        metrics.gauge("baseband.link.active", self.links.len() as f64);
        metrics.set_counter("baseband.data.delivered", s.data_delivered);
    }

    /// Moves the accumulated notifications, oldest first, onto the end of
    /// `out`. Passing the same buffer every time keeps both it and the
    /// medium's queue at their capacity, so draining allocates nothing in
    /// steady state.
    pub fn drain_notifications(&mut self, out: &mut Vec<BbNotification>) {
        out.append(&mut self.notifications);
    }

    /// Launches every configured device: masters begin their duty cycles,
    /// slaves their scan schedules. Usually invoked by handling
    /// [`BbEvent::start`]; embedders may call it directly from their own
    /// bootstrap.
    pub fn start<S: SubScheduler<BbEvent>>(&mut self, s: &mut S) {
        if self.started {
            return;
        }
        self.started = true;
        // Chains armed here count as armed at the masters' phase entry,
        // not before it: a first window opening exactly on a first slot
        // pair stays shut for that pair (see `tie_deaf`).
        for sl in 0..self.slaves.len() {
            if self.slaves[sl].active {
                self.arm_scan_chain(s.now(), sl);
            }
        }
        let n = self.slaves.len();
        for m in 0..self.masters.len() {
            self.masters[m].predictions = vec![Prediction::default(); n];
            self.enter_phase(s, m);
        }
    }

    /// Processes one baseband event. Embedders call this with events they
    /// unwrapped from their own event enum.
    pub fn handle<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, event: BbEvent) {
        match event.0 {
            Ev::Start => self.start(s),
            Ev::InqTx {
                master,
                epoch,
                deferred,
                stamp,
            } => {
                self.reader = stamp;
                self.on_inq_tx(s, master, epoch, deferred);
                self.reader = 0;
            }
            Ev::PhaseBoundary { master, epoch } => {
                if self.masters[master].epoch == epoch {
                    self.enter_phase(s, master);
                }
            }
            Ev::FhsRx { master, key } => self.on_fhs_rx(s, master, key),
            Ev::PageResolve {
                master,
                slave,
                attempt,
            } => self.on_page_resolve(s, master, slave, attempt),
            Ev::PageTx { master, attempt } => self.on_page_tx(s, master, attempt),
            Ev::DataDelivered {
                master,
                slave,
                tag,
                payload,
            } => {
                // Deliver only if the link survived the transfer.
                if self.links.contains_key(&(master, slave)) {
                    self.stats.data_delivered += 1;
                    self.notifications.push(BbNotification::DataDelivered {
                        master: MasterId(master),
                        slave: SlaveId(slave),
                        tag,
                        payload,
                        at: s.now(),
                    });
                }
            }
            Ev::SupervisionCheck { master, slave } => {
                let expired = self
                    .links
                    .get(&(master, slave))
                    .map(|l| l.supervision_expired(s.now(), self.cfg.supervision_timeout))
                    .unwrap_or(false);
                if expired {
                    self.tear_down_link(s.now(), master, slave);
                    self.restart_slave_scanning(s, slave);
                    self.maybe_start_page(s, master);
                }
            }
            Ev::Cmd(cmd) => match cmd {
                Command::SetInRange(m, sl, r) => self.set_in_range(s, m, sl, r),
                Command::RequestPage(m, sl) => self.request_page(s, m, sl),
                Command::SendData(m, sl, payload, tag) => {
                    let _ = self.send_data(s, m, sl, payload, tag);
                }
                Command::Disconnect(m, sl) => self.disconnect(s, m, sl),
                Command::SetSlaveActive(sl, a) => self.set_slave_active(s, sl, a),
            },
        }
    }

    // ----- master machinery -------------------------------------------

    /// (Re-)enters the phase in force now and arms the next boundary.
    fn enter_phase<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize) {
        let now = s.now();
        // Close out the ending inquiry phase: account every pair up to
        // the boundary and drop the chain (pairs at or after `now`
        // belong to the next phase and are never transmitted).
        self.settle_master(m, now);
        if let Some(chain) = self.masters[m].skip.take() {
            if let Some(ev) = chain.event {
                s.cancel(ev);
            }
        }
        let boundary = self.masters[m].plan.next_boundary(now);
        let dev = &mut self.masters[m];
        dev.epoch += 1;
        dev.phase_end = boundary.map_or(SimTime::MAX, |(at, _)| at);
        // The new epoch invalidates every prediction of `m`.
        dev.due.clear();
        self.unsettled.fill_row(m, self.slaves.len());
        let epoch = dev.epoch;
        let phase = dev.plan.phase_at(now);
        match phase {
            Phase::Inquiry => {
                // Each inquiry phase picks its train from the free-running
                // clock (spec: the inquiry hop phase is CLKN-driven), so
                // successive short phases do not keep re-covering the same
                // half of the inquiry frequencies. A Fixed policy (used by
                // the Figure 2 setup) pins the train instead.
                let train = match self.masters[m].start_policy {
                    StartTrain::Fixed(t) => t,
                    StartTrain::Random => train_from_clock(&self.masters[m].clock, now),
                };
                let dev = &mut self.masters[m];
                dev.start_train = train;
                dev.inq.restart(train);
                let first_tx = dev.clock.next_even_slot(now);
                dev.entered_at = now;
                dev.first_pair = first_tx;
                // Under skip-ahead too, the first pair is scheduled
                // eagerly, from the same handler position as the naive
                // chain, so it carries the naive sequence number and wins
                // or loses same-instant ties identically (wakes between
                // now and `first_tx` re-aim to the same instant and must
                // not replace this event). The solver takes over once it
                // fires.
                let id = self.schedule_inq_tx(s, first_tx, m, false);
                if self.cfg.skip_ahead {
                    self.masters[m].skip = Some(SkipChain {
                        from: first_tx,
                        event: Some(id),
                        aimed_at: first_tx,
                    });
                }
            }
            Phase::Service => {
                self.maybe_start_page(s, m);
            }
        }
        if let Some((at, _next)) = boundary {
            s.schedule(at, BbEvent(Ev::PhaseBoundary { master: m, epoch }));
        }
    }

    /// Schedules master `m`'s `InqTx` at `at` for its current epoch,
    /// stamped with the next place in the arm order.
    fn schedule_inq_tx<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        at: SimTime,
        m: usize,
        deferred: bool,
    ) -> EventId {
        self.stamps += 1;
        s.schedule(
            at,
            BbEvent(Ev::InqTx {
                master: m,
                epoch: self.masters[m].epoch,
                deferred,
                stamp: self.stamps,
            }),
        )
    }

    fn on_inq_tx<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        epoch: u32,
        deferred: bool,
    ) {
        if self.masters[m].epoch != epoch {
            return;
        }
        let now = s.now();
        // The epoch matches, so this is the inquiry phase `enter_phase`
        // entered; an `InqTx` at its end ran before the boundary event.
        if now >= self.masters[m].phase_end {
            return; // phase boundary will restart the chain
        }
        // The one listing of `m`'s listeners for this transmission: the
        // deferral check, both half-slots and the re-aim read it.
        let future = self.collect_listeners(m, now);
        if self.cfg.skip_ahead {
            // This is the chain's own event; its id is spent.
            if let Some(chain) = self.masters[m].skip.as_mut() {
                chain.event = None;
                chain.aimed_at = SimTime::MAX;
            }
            if self.should_defer(m, now, deferred) {
                let id = self.schedule_inq_tx(s, now, m, true);
                if let Some(chain) = self.masters[m].skip.as_mut() {
                    chain.event = Some(id);
                    chain.aimed_at = now;
                }
                return;
            }
            // Account the provably deaf pairs the chain jumped over.
            self.settle_master(m, now);
        }
        let plan = self.masters[m].inq.plan();
        self.stats.ids_transmitted += 2;
        self.transmit_id(s, m, plan.first, now);
        self.transmit_id(s, m, plan.second, now + TICK);
        self.masters[m].inq.advance();
        if self.cfg.skip_ahead {
            if let Some(chain) = self.masters[m].skip.as_mut() {
                chain.from = now + SLOT_PAIR;
            }
            self.rearm_inquiry(s, m, future);
        } else {
            self.schedule_inq_tx(s, now + SLOT_PAIR, m, false);
        }
    }

    /// The instant the naive chain would have scheduled master `m`'s
    /// `InqTx` for pair `now`: during the previous pair, or at phase
    /// entry for the phase's first pair.
    fn naive_arm_instant(&self, m: usize, now: SimTime) -> SimTime {
        let dev = &self.masters[m];
        if now == dev.first_pair {
            dev.entered_at
        } else {
            now - SLOT_PAIR
        }
    }

    /// Whether slave `sl` is deaf to master `m`'s pair at `now` because
    /// its chain's first window opens at `now` but was armed no earlier
    /// than the naive chain armed this `InqTx`: the naive `InqTx` ran
    /// first and found the slave asleep, as every fresh chain is before
    /// its first window. Later windows were armed a scan interval ahead,
    /// before any naive arm instant, so they count as open.
    fn tie_deaf(&self, m: usize, sl: usize, now: SimTime) -> bool {
        let dev = &self.slaves[sl];
        dev.first_window_start == now && dev.window_armed_at >= self.naive_arm_instant(m, now)
    }

    /// Fills `m`'s `listeners` with the covered slaves that are active,
    /// unconnected and scanning and not proven deaf at `now` by a valid
    /// cached prediction (one after `now`), in ascending order, and
    /// settles their backoffs for this reader. Returns the earliest valid
    /// prediction of the other covered scanning slaves before `m`'s phase
    /// end (`MAX` if none).
    ///
    /// Only due slaves are visited. Every covered eligible slave is either
    /// in `m`'s unsettled row or holds a valid prediction that sits in
    /// `m`'s `due` heap or lies at or after the phase end:
    ///
    /// * every `version` bump marks the slave unsettled at each master
    ///   covering it (`bump_slave`), entering coverage marks it at that
    ///   master, and phase entry marks the whole row (the new epoch
    ///   invalidates every prediction);
    /// * only `rearm_inquiry` clears a bit once it has listed the slave,
    ///   and it pushes the prediction it wrote or reused;
    /// * this walk clears the bit of a slave that is not eligible (it can
    ///   only become eligible by a re-arm, which bumps it) or whose valid
    ///   prediction lies after `now` (pushing that prediction);
    /// * due entries that are still valid rejoin the unsettled row, so a
    ///   deferred `InqTx` lists them again.
    ///
    /// The listing is therefore the coverage walk's, and the heap's
    /// first valid covered entry is the walk's future minimum (debug
    /// builds check both against the walk). Naive mode writes no
    /// predictions, so every covered slave stays unsettled and is listed
    /// at every pair.
    ///
    /// Within one `InqTx` handler the list stays exact: only listed
    /// slaves can hear, so only their `version` can move; coverage and
    /// `m`'s epoch are fixed; and waking other masters never writes
    /// `m`'s predictions. The pair's deferral check, both half-slots and
    /// the re-aim therefore all read this one list.
    fn collect_listeners(&mut self, m: usize, now: SimTime) -> SimTime {
        let Baseband {
            masters,
            slaves,
            in_range,
            unsettled,
            reader,
            ..
        } = self;
        let MasterDev {
            epoch,
            phase_end,
            predictions,
            due,
            listeners,
            ..
        } = &mut masters[m];
        while let Some(&Reverse((at, sl))) = due.peek() {
            if at > now {
                break;
            }
            due.pop();
            if predictions[sl].valid(*epoch, slaves[sl].version) == Some(at) {
                unsettled.insert(m, sl);
            }
        }
        listeners.clear();
        let cover = in_range.row(m);
        for (w, word) in unsettled.row_mut(m).iter_mut().enumerate() {
            let mut bits = *word & cover.get(w).copied().unwrap_or(0);
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let sl = w * 64 + bit.trailing_zeros() as usize;
                let dev = &mut slaves[sl];
                if !dev.eligible() {
                    *word ^= bit;
                    continue;
                }
                match predictions[sl].valid(*epoch, dev.version) {
                    Some(at) if at > now => {
                        if at < *phase_end {
                            due.push(Reverse((at, sl)));
                        }
                        *word ^= bit;
                    }
                    _ => {
                        dev.settle_backoff(now, *reader);
                        listeners.push(sl);
                    }
                }
            }
        }
        let mut future = SimTime::MAX;
        while let Some(&Reverse((at, sl))) = due.peek() {
            if predictions[sl].valid(*epoch, slaves[sl].version) == Some(at)
                && in_range.contains(m, sl)
            {
                future = at;
                break;
            }
            due.pop();
        }
        #[cfg(debug_assertions)]
        self.check_listeners(m, now, future);
        future
    }

    /// The coverage walk the due queue replaces, kept as a debug-build
    /// reference: panics, naming the transmission, unless `m`'s listeners
    /// and the future minimum `collect_listeners` found at `now` are the
    /// walk's.
    #[cfg(debug_assertions)]
    fn check_listeners(&self, m: usize, now: SimTime, future: SimTime) {
        let dev = &self.masters[m];
        let mut listeners = Vec::new();
        let mut walk_future = SimTime::MAX;
        for (w, &word) in self.in_range.row(m).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let sl = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slave = &self.slaves[sl];
                if !slave.eligible() {
                    continue;
                }
                match dev.predictions[sl].valid(dev.epoch, slave.version) {
                    Some(at) if at > now => walk_future = walk_future.min(at),
                    _ => listeners.push(sl),
                }
            }
        }
        assert_eq!(
            dev.listeners, listeners,
            "master {m} epoch {} at {now}: due-queue listeners differ from the coverage walk",
            dev.epoch
        );
        assert_eq!(
            future.min(dev.phase_end),
            walk_future.min(dev.phase_end),
            "master {m} epoch {} at {now}: due-queue future differs from the coverage walk",
            dev.epoch
        );
    }

    /// Whether the skip-ahead `InqTx` firing at `now` must requeue itself
    /// behind the other events of this instant to reproduce the naive
    /// processing order. Reads the listeners collected at `now`.
    ///
    /// The naive chain scheduled the `InqTx` for pair `now` while
    /// processing the previous pair (or at phase entry, for the first
    /// pair), so a backoff ending at the same instant has ended for it
    /// exactly when it was armed before that — which decides whether the
    /// slave hears this pair. The skip-ahead event was scheduled at an
    /// arbitrary earlier re-aim, so when such a tie exists it defers
    /// once; the requeued copy runs after every event already queued at
    /// `now`, and its fresh stamp ends the backoff for it. A requeued
    /// copy (`deferred`) skips these one-shot checks but still yields to
    /// naive-earlier sibling masters sharing the instant, so coincident
    /// chains fire in naive precedence order (see below). Window
    /// boundaries need no deferral: they are applied lazily under the
    /// naive order (see `tie_deaf`).
    fn should_defer(&self, m: usize, now: SimTime, deferred: bool) -> bool {
        if self.masters[m].skip.is_none() {
            return false;
        }
        // Sibling masters whose chains are pending at this same instant:
        // the naive order is by arm instant, and on a tie (coincident
        // slot grids arm both during the previous shared pair, all the
        // way back) by phase-entry instant, then master index. Yielding
        // re-checks on every requeue; the minimal sibling never yields,
        // so each pass fires at least one chain and the recursion
        // terminates.
        let key = (
            self.naive_arm_instant(m, now),
            self.masters[m].entered_at,
            m,
        );
        for other in 0..self.masters.len() {
            if other == m {
                continue;
            }
            let Some(chain) = self.masters[other].skip.as_ref() else {
                continue;
            };
            if chain.event.is_none() || chain.aimed_at != now {
                continue;
            }
            let entered = self.masters[other].entered_at;
            if (self.naive_arm_instant(other, now), entered, other) < key {
                return true;
            }
        }
        if deferred {
            return false;
        }
        let naive_sched = key.0;
        self.masters[m].listeners.iter().any(|&sl| {
            let dev = &self.slaves[sl];
            matches!(dev.machine.phase(), ScanPhase::Backoff { until } if until == now)
                && dev.backoff_armed_at < naive_sched
        })
    }

    /// Accounts every pending slot pair strictly before `up_to` on master
    /// `m`'s inquiry chain, in closed form. Pairs settled this way were
    /// proven deaf by the predictor (or precede a phase boundary), so the
    /// naive chain would have transmitted into silence: only
    /// `ids_transmitted` and the train walker advance, with no RNG draws.
    fn settle_master(&mut self, m: usize, up_to: SimTime) {
        let dev = &mut self.masters[m];
        let Some(chain) = dev.skip.as_mut() else {
            return;
        };
        if up_to <= chain.from {
            return;
        }
        let span = up_to - chain.from;
        let mut n = span.div_duration(SLOT_PAIR);
        if !(span % SLOT_PAIR).is_zero() {
            n += 1;
        }
        chain.from += SLOT_PAIR * n;
        dev.inq.advance_by(n);
        self.stats.ids_transmitted += 2 * n;
    }

    /// Re-aims master `m`'s inquiry chain: predicts the earliest pending
    /// slot pair any in-range, active, unconnected, scanning slave could
    /// hear and schedules the next `InqTx` there — or leaves the chain
    /// dormant when no such pair exists before the phase boundary.
    ///
    /// Reads `m`'s listeners and their `future` minimum as collected at
    /// `now`. The unlisted slaves' valid predictions all lie after `now`,
    /// so they stand as cached. A listed slave's valid prediction is
    /// reused if it lies at or after `from`; any other is re-solved up to
    /// the phase boundary and cached. Either way the listed slave leaves
    /// `m`'s unsettled row and its prediction joins `m`'s due queue.
    ///
    /// Requires `skip` to be `Some` with `from` settled past `now`.
    fn rearm_inquiry<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, future: SimTime) {
        let Some(chain) = self.masters[m].skip.as_ref() else {
            return;
        };
        let from = chain.from;
        let armed = chain.event.is_some();
        let aimed_at = chain.aimed_at;
        let epoch = self.masters[m].epoch;
        let bound = self.masters[m].phase_end;
        let mut target = bound.min(future);
        for i in 0..self.masters[m].listeners.len() {
            let sl = self.masters[m].listeners[i];
            let version = self.slaves[sl].version;
            let cached = self.masters[m].predictions[sl].valid(epoch, version);
            let at = match cached.filter(|&at| at >= from) {
                Some(at) => at,
                None => {
                    let at = self.slave_next_audible(m, sl, from, bound);
                    self.masters[m].predictions[sl] = Prediction { version, epoch, at };
                    at
                }
            };
            // The slave is settled at `m` until its prediction falls due.
            if at < bound {
                self.masters[m].due.push(Reverse((at, sl)));
            }
            self.unsettled.remove(m, sl);
            target = target.min(at);
        }
        if armed && target >= aimed_at {
            // Never move an armed aim later (and keep an unchanged aim):
            // the pending event keeps its queue sequence number, which
            // same-instant ordering depends on. Firing at a pair the
            // predictor now considers deaf is a harmless false alarm —
            // the handler re-runs the exact audibility gates — but
            // cancelling and rescheduling at the same instant would
            // reorder the InqTx behind events queued in between.
            return;
        }
        let chain = self.masters[m].skip.as_mut().expect("chain present");
        if let Some(ev) = chain.event.take() {
            s.cancel(ev);
        }
        let (event, aimed_at) = if target < bound {
            (Some(self.schedule_inq_tx(s, target, m, false)), target)
        } else {
            (None, SimTime::MAX)
        };
        let chain = self.masters[m].skip.as_mut().expect("chain present");
        chain.event = event;
        chain.aimed_at = aimed_at;
    }

    /// Re-aims every in-range master other than `tx_master` after slave
    /// `sl` entered a response backoff. The backoff *ends* in open-ended
    /// inquiry listening, which can make the slave receptive to another
    /// master earlier than that master's schedule-derived prediction —
    /// the transmitting master itself re-aims at the end of its own
    /// `on_inq_tx`.
    fn wake_other_masters<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        tx_master: usize,
        sl: usize,
    ) {
        if !self.cfg.skip_ahead {
            return;
        }
        // Ascending master order, as a probe of every master would wake
        // them. Waking changes no coverage, so each word is read once.
        for w in 0..self.covering.row(sl).len() {
            let mut bits = self.covering.row(sl)[w];
            while bits != 0 {
                let m = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if m != tx_master {
                    self.wake_master(s, m);
                }
            }
        }
    }

    /// Starts a listening change of slave `sl` its scan schedule did not
    /// plan: invalidates its predictions and marks it unsettled at every
    /// master covering it (see `collect_listeners`).
    fn bump_slave(&mut self, sl: usize) {
        let dev = &mut self.slaves[sl];
        dev.version = dev.version.wrapping_add(1);
        for (w, &word) in self.covering.row(sl).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.unsettled
                    .insert(w * 64 + bits.trailing_zeros() as usize, sl);
                bits &= bits - 1;
            }
        }
    }

    /// Kills slave `sl`'s window chain: it stops scanning until re-armed.
    fn stop_scanning(&mut self, sl: usize) {
        self.bump_slave(sl);
        let dev = &mut self.slaves[sl];
        dev.machine.stop();
        dev.scanning = false;
    }

    /// An audibility-increasing transition happened: settle master `m`'s
    /// chain to `now` and re-aim it. No-op for masters outside an inquiry
    /// phase (or with skip-ahead disabled).
    fn wake_master<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize) {
        if self.masters[m].skip.is_none() {
            return;
        }
        self.settle_master(m, s.now());
        let future = self.collect_listeners(m, s.now());
        self.rearm_inquiry(s, m, future);
    }

    /// The earliest slot pair on master `m`'s grid (`from + j·SLOT_PAIR`,
    /// strictly before `bound`) at which slave `sl` could hear one of the
    /// pair's two ID half-slots; `bound` (or later) if none exists.
    ///
    /// Conservative, never late: every pair strictly before the returned
    /// instant is provably deaf for this slave, but the returned pair is
    /// allowed to be a false alarm (straddling a scan-frequency block
    /// boundary, or a window that closed again) — the fired event re-runs
    /// the exact audibility gates, so a false alarm only costs one event.
    ///
    /// Requires `m`'s train walker to be settled to the pair at `from`.
    fn slave_next_audible(&self, m: usize, sl: usize, from: SimTime, bound: SimTime) -> SimTime {
        /// Bounds the work per query; on exhaustion the current pair is
        /// returned as a conservative wake-up.
        const SOLVER_CAP: usize = 64;
        let dev = &self.slaves[sl];
        let mut t = from;
        for _ in 0..SOLVER_CAP {
            if t >= bound {
                return bound;
            }
            // Deaf spans with a known end (sleep between windows, backoff)
            // are jumped in one step: resume at the first pair whose
            // second half-slot reaches the receptive instant.
            let r = dev.machine.next_receptive_after(
                t,
                &dev.windows,
                dev.windows.window_start(dev.next_window_index),
            );
            if r == SimTime::MAX {
                return bound;
            }
            if r > t + TICK {
                let gap = (r - TICK) - t;
                let mut j = gap.div_duration(SLOT_PAIR);
                if !(gap % SLOT_PAIR).is_zero() {
                    j += 1;
                }
                t += SLOT_PAIR * j;
                continue;
            }
            // The scan frequency is constant within the current absolute
            // 1.28 s block; ask the train walker for the first pair that
            // covers it.
            let block_end =
                SimTime::ZERO + CLKN_12_PERIOD * (t.elapsed().div_duration(CLKN_12_PERIOD) + 1);
            let phi = dev.scan_freq(t);
            let j0 = (t - from).div_duration(SLOT_PAIR);
            let mut walker = self.masters[m].inq;
            walker.advance_by(j0);
            let candidate = walker
                .pairs_until_freq(phi)
                .map(|d| t + SLOT_PAIR * d)
                .filter(|&tc| {
                    // The audible half-slot must still be inside the
                    // block: second half-slot when the frequency sits at
                    // an odd train offset.
                    let tick = if phi.index() % 2 == 1 {
                        TICK
                    } else {
                        SimDuration::ZERO
                    };
                    tc + tick < block_end
                });
            // First pair whose pair-span touches the next block; its two
            // half-slots see different scan frequencies, so it is woken
            // conservatively rather than solved.
            let straddle = {
                let gap = (block_end - TICK).saturating_since(t);
                let mut j = gap.div_duration(SLOT_PAIR);
                if !(gap % SLOT_PAIR).is_zero() {
                    j += 1;
                }
                t + SLOT_PAIR * j
            };
            match candidate {
                Some(tc) if tc <= straddle => return tc.min(bound),
                _ if straddle < block_end => return straddle.min(bound),
                _ => t = straddle, // lands in the next block; re-solve
            }
        }
        t.min(bound)
    }

    /// Delivers one ID packet of the pair transmitted at `now` (the first
    /// or second half-slot, `at`) to every slave that can hear it.
    fn transmit_id<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        freq: InquiryFreq,
        at: SimTime,
    ) {
        let now = s.now();
        // Walk only the listeners collected for this pair, ascending (same
        // probe order — and therefore RNG draw order — as a linear scan
        // over all slaves). Every other slave is deaf to the whole pair.
        for i in 0..self.masters[m].listeners.len() {
            let sl = self.masters[m].listeners[i];
            if self.tie_deaf(m, sl, now) {
                continue;
            }
            // Both half-slots see the state as of `now`: boundaries
            // inside the pair fire after this handler in the naive
            // model.
            let dev = &mut self.slaves[sl];
            dev.advance_windows(now);
            if !dev.machine.hears_inquiry(at) || dev.scan_freq(at) != freq {
                continue;
            }
            // Channel errors: the paper assumes an error-free environment;
            // packet_success < 1 models a lossy cell edge.
            if self.cfg.packet_success < 1.0 && !s.rng().chance(self.cfg.packet_success) {
                continue;
            }
            self.stats.ids_heard += 1;
            self.bump_slave(sl);
            match self.slaves[sl].machine.hear_id(at, s.rng()) {
                ScanAction::StartBackoff(_) => {
                    self.stats.backoffs += 1;
                    self.arm_backoff(now, sl);
                    self.wake_other_masters(s, m, sl);
                }
                ScanAction::Respond { at: tx, .. } => {
                    self.stats.fhs_transmitted += 1;
                    let key = tx.elapsed().div_duration(SimDuration::from_units_0125us(1));
                    if self.fhs_buckets.push((m, key), sl) {
                        s.schedule(tx, BbEvent(Ev::FhsRx { master: m, key }));
                    }
                    self.arm_backoff(now, sl);
                    self.wake_other_masters(s, m, sl);
                }
                ScanAction::None => {}
            }
        }
    }

    /// Records the backoff slave `sl` just entered at `now`: its end is
    /// applied by the slave's next reader (`SlaveDev::settle_backoff`).
    fn arm_backoff(&mut self, now: SimTime, sl: usize) {
        self.stamps += 1;
        let dev = &mut self.slaves[sl];
        dev.backoff_armed_at = now;
        dev.backoff_stamp = self.stamps;
    }

    fn on_fhs_rx<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, key: u64) {
        let Some(mut responders) = self.fhs_buckets.take((m, key)) else {
            return;
        };
        let now = s.now();
        if self.masters[m].plan.phase_at(now) != Phase::Inquiry {
            self.stats.fhs_missed_phase += responders.len() as u64;
            self.fhs_buckets.recycle(responders);
            return;
        }
        // Channel errors corrupt individual FHS packets; the survivors
        // then contend for the receive window.
        if self.cfg.packet_success < 1.0 {
            let p = self.cfg.packet_success;
            responders.retain(|_| s.rng().chance(p));
        }
        if self.cfg.fhs_collisions && responders.len() > 1 {
            self.stats.fhs_collided += responders.len() as u64;
            self.notifications.push(BbNotification::FhsCollision {
                master: MasterId(m),
                slaves: responders.iter().map(|&sl| SlaveId(sl)).collect(),
                at: now,
            });
            self.fhs_buckets.recycle(responders);
            return;
        }
        for &sl in &responders {
            self.stats.fhs_received += 1;
            self.notifications.push(BbNotification::FhsSeen {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
            if self.discovered.insert(m, sl) {
                let d = Discovery {
                    master: MasterId(m),
                    slave: SlaveId(sl),
                    at: now,
                };
                self.discoveries.push(d);
                self.notifications.push(BbNotification::Discovered(d));
            }
            if self.slaves[sl].halt_when_discovered {
                // The handheld proceeds to page scan / enrollment and
                // stops answering inquiries.
                self.stop_scanning(sl);
            }
        }
        self.fhs_buckets.recycle(responders);
    }

    fn maybe_start_page<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize) {
        let now = s.now();
        if self.masters[m].paging.is_some() {
            return;
        }
        if self.masters[m].plan.phase_at(now) != Phase::Service {
            return;
        }
        // Piconet capacity: at most 7 active slaves. Further pages wait
        // in the queue until a link is released.
        if self.active_slaves(m) >= MAX_ACTIVE_SLAVES {
            return;
        }
        let Some(target) = self.masters[m].page_queue.pop_front() else {
            return;
        };
        self.stats.pages_started += 1;
        self.masters[m].page_attempt_seq += 1;
        let seq = self.masters[m].page_attempt_seq;
        let attempt = PageAttempt::new(MasterId(m), target, now, self.cfg.page_timeout);
        self.masters[m].paging = Some((attempt, seq));
        match self.cfg.page_model {
            PageModel::Analytic => self.schedule_page_resolve(s, m, target.0, seq, now),
            PageModel::SlotAccurate => {
                // Transmit page IDs from the next even slot; also arm the
                // timeout via a resolve at the deadline.
                let first = self.masters[m].clock.next_even_slot(now);
                s.schedule(
                    first,
                    BbEvent(Ev::PageTx {
                        master: m,
                        attempt: seq,
                    }),
                );
                s.schedule(
                    attempt.deadline,
                    BbEvent(Ev::PageResolve {
                        master: m,
                        slave: target.0,
                        attempt: seq,
                    }),
                );
            }
        }
    }

    /// Slot-accurate paging: one even-slot page-ID transmission aimed at
    /// the paged slave's current page frequency (known from the FHS
    /// clock). If the slave is actually listening in a page-scan window,
    /// the handshake completes a few slots later.
    fn on_page_tx<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, seq: u32) {
        let now = s.now();
        let Some((attempt, cur_seq)) = self.masters[m].paging else {
            return;
        };
        if cur_seq != seq {
            return;
        }
        if attempt.expired(now) {
            return; // the deadline resolve will clean up
        }
        if self.masters[m].plan.phase_at(now) != Phase::Service {
            // Paging pauses during inquiry; retry at the next service
            // phase.
            if let Some((t, _)) = self.masters[m].plan.next_boundary(now) {
                s.schedule(
                    t.min(attempt.deadline),
                    BbEvent(Ev::PageTx {
                        master: m,
                        attempt: seq,
                    }),
                );
            }
            return;
        }
        let sl = attempt.slave.index();
        let reachable = self.in_range.contains(m, sl)
            && self.slaves[sl].active
            && self.slaves[sl].connected_to.is_none();
        self.slaves[sl].settle_backoff(now, self.reader);
        self.slaves[sl].advance_windows(now);
        if reachable && self.slaves[sl].machine.hears_page(now) {
            // Channel errors apply to the page exchange as a whole.
            if self.cfg.packet_success >= 1.0 || s.rng().chance(self.cfg.packet_success) {
                // ID → slave ID response → FHS → ack → POLL: complete in
                // a handshake, checked again at the completion instant by
                // the resolve path.
                self.masters[m].paging = Some((attempt, seq));
                s.schedule(
                    (now + crate::page::PAGE_HANDSHAKE).min(attempt.deadline),
                    BbEvent(Ev::PageResolve {
                        master: m,
                        slave: sl,
                        attempt: seq,
                    }),
                );
                return; // stop transmitting; resolve finishes the job
            }
        }
        // Keep paging every even slot.
        s.schedule(
            (now + SLOT_PAIR).min(attempt.deadline),
            BbEvent(Ev::PageTx {
                master: m,
                attempt: seq,
            }),
        );
    }

    fn schedule_page_resolve<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        sl: usize,
        seq: u32,
        from: SimTime,
    ) {
        let (attempt, _) = self.masters[m].paging.expect("paging in progress");
        let done = completion_time(from, &self.slaves[sl].windows);
        let at = if done == SimTime::MAX {
            attempt.deadline
        } else {
            done.min(attempt.deadline)
        };
        // The resolve instant may coincide with `from`; events at the
        // current instant run after the current handler, which is fine.
        let at = at.max(s.now());
        s.schedule(
            at,
            BbEvent(Ev::PageResolve {
                master: m,
                slave: sl,
                attempt: seq,
            }),
        );
    }

    fn on_page_resolve<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        sl: usize,
        seq: u32,
    ) {
        let now = s.now();
        let Some((attempt, cur_seq)) = self.masters[m].paging else {
            return;
        };
        if cur_seq != seq || attempt.slave.0 != sl {
            return;
        }
        let dev = &self.slaves[sl];
        let reachable = self.in_range.contains(m, sl)
            && dev.active
            && dev.connected_to.is_none()
            && self.masters[m].plan.phase_at(now) == Phase::Service;
        // Expiry wins over reachability: a resolve that only fires at the
        // deadline (e.g. a slave with no page-scan windows) must fail, not
        // connect.
        if attempt.expired(now) {
            self.masters[m].paging = None;
            self.stats.pages_failed += 1;
            self.notifications.push(BbNotification::PageFailed {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
            self.maybe_start_page(s, m);
        } else if reachable {
            self.masters[m].paging = None;
            self.stats.pages_completed += 1;
            self.links
                .insert((m, sl), Link::new(MasterId(m), SlaveId(sl), now));
            self.slaves[sl].connected_to = Some(MasterId(m));
            self.stop_scanning(sl);
            self.notifications.push(BbNotification::LinkEstablished {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
            self.maybe_start_page(s, m);
        } else {
            match self.cfg.page_model {
                PageModel::Analytic => {
                    // Retry at the next opportunity: either the next
                    // page-scan window or the next service phase,
                    // whichever is later.
                    let next_service = match self.masters[m].plan.phase_at(now) {
                        Phase::Service => now,
                        Phase::Inquiry => self.masters[m]
                            .plan
                            .next_boundary(now)
                            .map(|(t, _)| t)
                            .unwrap_or(attempt.deadline),
                    };
                    let from = next_service.max(now + SLOT_PAIR);
                    self.schedule_page_resolve(s, m, sl, seq, from);
                }
                PageModel::SlotAccurate => {
                    // The transmit chain keeps trying on its own; nothing
                    // to re-arm here unless it has gone quiet (handshake
                    // failed the reachability re-check).
                    s.schedule(
                        (now + SLOT_PAIR).min(attempt.deadline),
                        BbEvent(Ev::PageTx {
                            master: m,
                            attempt: seq,
                        }),
                    );
                }
            }
        }
    }

    // ----- slave machinery --------------------------------------------

    /// Arms a (re)starting scan chain at `now`: the first window at or
    /// after `now` is the chain's first, and the machine sees every
    /// window from there on as the slave is read.
    fn arm_scan_chain(&mut self, now: SimTime, sl: usize) {
        self.bump_slave(sl);
        let dev = &mut self.slaves[sl];
        let idx = dev.windows.first_window_at_or_after(now);
        dev.scanning = true;
        dev.next_window_index = idx;
        dev.first_window_start = dev.windows.window_start(idx);
        dev.window_armed_at = now;
    }

    fn restart_slave_scanning<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, sl: usize) {
        self.slaves[sl].connected_to = None;
        self.stop_scanning(sl);
        if self.slaves[sl].active && self.started {
            // Audibility just increased: re-aim every inquiring master.
            self.arm_scan_chain(s.now(), sl);
            for m in 0..self.masters.len() {
                self.wake_master(s, m);
            }
        }
    }

    /// Number of active (connected) slaves in master `m`'s piconet.
    fn active_slaves(&self, m: usize) -> usize {
        self.links.keys().filter(|&&(mi, _)| mi == m).count()
    }

    fn tear_down_link(&mut self, now: SimTime, m: usize, sl: usize) {
        if self.links.remove(&(m, sl)).is_some() {
            self.stats.links_lost += 1;
            self.slaves[sl].connected_to = None;
            self.notifications.push(BbNotification::LinkLost {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern, TrainPolicy};
    use desim::{Context, Engine, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// One master / `n` slaves; range is applied separately.
    fn setup(
        seed: u64,
        mcfg: MasterConfig,
        slave_cfgs: Vec<SlaveConfig>,
        medium: MediumConfig,
    ) -> Engine<TestWorld> {
        let mut bb = Baseband::new(medium);
        let mut rng = desim::SeedDeriver::new(seed).rng(0);
        bb.add_master(mcfg, &mut rng);
        for c in slave_cfgs {
            bb.add_slave(c, &mut rng);
        }
        let mut engine = Engine::new(TestWorld { bb }, seed);
        engine.schedule(SimTime::ZERO, BbEvent::start());
        engine
    }

    fn all_in_range(engine: &mut Engine<TestWorld>) {
        // Nothing is linked before the run, so mutating the range set
        // directly (same module) is equivalent to the command events.
        let n_m = engine.world().bb.num_masters();
        let n_s = engine.world().bb.num_slaves();
        for m in 0..n_m {
            for s in 0..n_s {
                engine.world_mut().bb.set_coverage(m, s, true);
            }
        }
    }

    /// Every notification the medium has accumulated, oldest first.
    fn drained(e: &mut Engine<TestWorld>) -> Vec<BbNotification> {
        let mut notes = Vec::new();
        e.world_mut().bb.drain_notifications(&mut notes);
        notes
    }

    fn continuous_slave(i: u64) -> SlaveConfig {
        SlaveConfig::new(BdAddr::new(0x1000 + i)).scan(ScanPattern::continuous_inquiry())
    }

    #[test]
    fn pair_set_keeps_pairs_across_widening() {
        let mut set = PairSet::default();
        assert!(set.insert(2, 5));
        assert!(!set.insert(2, 5), "second insert reports presence");
        assert!(set.insert(0, 63));
        // Slave 200 lives in word 3: every row is re-laid 4 words wide.
        assert!(set.insert(1, 200));
        assert!(set.contains(2, 5) && set.contains(0, 63) && set.contains(1, 200));
        assert!(!set.contains(1, 5) && !set.contains(3, 5) && !set.contains(2, 300));
        assert_eq!(set.row(1), &[0, 0, 0, 1 << 8]);
        set.remove(2, 5);
        set.remove(7, 900); // absent pairs are a no-op
        assert!(!set.contains(2, 5) && set.contains(0, 63));
        set.clear_all();
        assert!(!set.contains(0, 63) && !set.contains(1, 200));
    }

    #[test]
    fn pair_set_fills_a_row_exactly() {
        let mut set = PairSet::default();
        set.insert(0, 3);
        set.fill_row(2, 70);
        assert_eq!(set.row(2), &[!0, (1 << 6) - 1]);
        assert_eq!(set.row(0), &[1 << 3, 0], "other rows keep their pairs");
        set.fill_row(2, 64);
        assert_eq!(set.row(2), &[!0, 0]);
        set.fill_row(2, 0);
        assert_eq!(set.row(2), &[0, 0]);
    }

    #[test]
    fn single_slave_is_discovered_quickly_when_always_inquiring() {
        let mcfg = MasterConfig::new(BdAddr::new(1))
            .duty(DutyCycle::always_inquiry())
            .trains(TrainPolicy::spec());
        let mut e = setup(11, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(11));
        let d = e.world().bb.discoveries();
        assert_eq!(d.len(), 1, "one slave, one discovery");
        // Continuous scan + always-inquiry: both trains are covered within
        // 2×2.56 s, so discovery lands well within 6 s.
        assert!(d[0].at < SimTime::from_secs(6), "discovery at {}", d[0].at);
    }

    #[test]
    fn discovery_requires_range() {
        let mcfg = MasterConfig::new(BdAddr::new(1));
        let mut e = setup(12, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        // never put in range
        e.run_until(SimTime::from_secs(12));
        assert!(e.world().bb.discoveries().is_empty());
        assert_eq!(e.world().bb.stats().ids_heard, 0);
    }

    #[test]
    fn many_slaves_all_discovered_under_continuous_inquiry() {
        let mcfg = MasterConfig::new(BdAddr::new(1));
        let slaves: Vec<SlaveConfig> = (0..10).map(continuous_slave).collect();
        let mut e = setup(13, mcfg, slaves, MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.world().bb.discoveries().len(), 10);
        let st = e.world().bb.stats();
        assert!(st.fhs_transmitted >= 10);
        assert!(st.ids_transmitted > 1000);
    }

    #[test]
    fn collisions_are_counted_and_destroy_responses() {
        // Many slaves forced onto the SAME scan frequency and zero
        // backoff bound: every response collides forever.
        let mcfg = MasterConfig::new(BdAddr::new(1))
            .trains(TrainPolicy::Single)
            .start_train(crate::params::StartTrain::Fixed(Train::A));
        let slaves: Vec<SlaveConfig> = (0..4)
            .map(|i| {
                SlaveConfig::new(BdAddr::new(0x2000 + i))
                    .scan(ScanPattern::continuous_inquiry())
                    .start_freq(crate::params::StartFreq::Fixed(InquiryFreq::new(0)))
                    .backoff_max_slots(0)
            })
            .collect();
        let mut e = setup(14, mcfg, slaves, MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(5));
        let st = e.world().bb.stats();
        assert_eq!(e.world().bb.discoveries().len(), 0, "all collide");
        assert!(st.fhs_collided > 0);
        assert_eq!(st.fhs_received, 0);
    }

    #[test]
    fn disabling_collisions_restores_bluehoc_optimism() {
        let mcfg = MasterConfig::new(BdAddr::new(1))
            .trains(TrainPolicy::Single)
            .start_train(crate::params::StartTrain::Fixed(Train::A));
        let slaves: Vec<SlaveConfig> = (0..4)
            .map(|i| {
                SlaveConfig::new(BdAddr::new(0x2000 + i))
                    .scan(ScanPattern::continuous_inquiry())
                    .start_freq(crate::params::StartFreq::Fixed(InquiryFreq::new(0)))
                    .backoff_max_slots(0)
            })
            .collect();
        let medium = MediumConfig {
            fhs_collisions: false,
            ..MediumConfig::default()
        };
        let mut e = setup(14, mcfg, slaves, medium);
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(5));
        assert_eq!(e.world().bb.discoveries().len(), 4);
    }

    #[test]
    fn duty_cycle_blocks_discovery_outside_inquiry_phase() {
        // 1 s inquiry / 100 s period: a slave whose first scan window
        // opens after t=1 s cannot be discovered in the first cycle
        // because the master stops transmitting IDs.
        let mcfg = MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
            SimDuration::from_secs(1),
            SimDuration::from_secs(100),
        ));
        let slaves: Vec<SlaveConfig> = (0..8).map(continuous_slave).collect();
        let mut e = setup(15, mcfg, slaves, MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(99));
        for d in e.world().bb.discoveries() {
            assert!(
                d.at <= SimTime::from_millis(1700),
                "discovery after phase end: {}",
                d.at
            );
        }
        let ids_at_1s = e.world().bb.stats().ids_transmitted;
        // 1 s of inquiry = 800 slot pairs = 1600 IDs (±1 pair).
        assert!((1590..=1602).contains(&ids_at_1s), "{ids_at_1s}");
    }

    #[test]
    fn page_establishes_link_and_data_flows() {
        // 50 % inquiry duty finds the alternating slave quickly and still
        // leaves service phases for the page to run in.
        let mcfg = MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
            SimDuration::from_secs(2),
            SimDuration::from_secs(4),
        ));
        let slave = SlaveConfig::new(BdAddr::new(0x99)).scan(ScanPattern::alternating());
        let mut e = setup(16, mcfg, vec![slave], MediumConfig::default());
        all_in_range(&mut e);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        // Let discovery happen, then script a page and a data exchange.
        e.run_until(SimTime::from_secs(20));
        assert_eq!(e.world().bb.discoveries().len(), 1);
        e.schedule(SimTime::from_secs(20), BbEvent::request_page(m, s));
        e.run_until(SimTime::from_secs(40));
        let notes = drained(&mut e);
        assert!(
            notes
                .iter()
                .any(|n| matches!(n, BbNotification::LinkEstablished { .. })),
            "no link established: {notes:?}"
        );
        assert_eq!(e.world().bb.slave_connection(s), Some(m));
        assert_eq!(
            e.world().bb.connected_slaves(m).collect::<Vec<_>>(),
            vec![s]
        );
        e.schedule(
            SimTime::from_secs(40),
            BbEvent::send_data(m, s, vec![9u8; 64], 7),
        );
        e.run_until(SimTime::from_secs(41));
        let notes = drained(&mut e);
        assert!(notes.iter().any(
            |n| matches!(n, BbNotification::DataDelivered { tag: 7, payload, .. } if payload.len() == 64)
        ));
        assert_eq!(e.world().bb.stats().data_delivered, 1);
    }

    #[test]
    fn out_of_range_trips_supervision_and_slave_rescans() {
        let mcfg = MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
            SimDuration::from_secs(2),
            SimDuration::from_secs(4),
        ));
        let slave = SlaveConfig::new(BdAddr::new(0x99)).scan(ScanPattern::alternating());
        let mut e = setup(17, mcfg, vec![slave], MediumConfig::default());
        all_in_range(&mut e);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        e.schedule(SimTime::from_secs(15), BbEvent::request_page(m, s));
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.world().bb.slave_connection(s), Some(m));
        // Walk away.
        e.schedule(SimTime::from_secs(30), BbEvent::set_in_range(m, s, false));
        e.run_until(SimTime::from_secs(40));
        let notes = drained(&mut e);
        assert!(
            notes
                .iter()
                .any(|n| matches!(n, BbNotification::LinkLost { .. })),
            "{notes:?}"
        );
        assert_eq!(e.world().bb.slave_connection(s), None);
        // Walk back: the slave is scanning again and can be rediscovered.
        e.schedule(SimTime::from_secs(40), BbEvent::set_in_range(m, s, true));
        e.world_mut().bb.reset_discoveries();
        e.run_until(SimTime::from_secs(70));
        assert_eq!(
            e.world().bb.discoveries().len(),
            1,
            "rediscovered after return"
        );
    }

    #[test]
    fn deactivated_slave_is_invisible() {
        let mcfg = MasterConfig::new(BdAddr::new(1));
        let mut e = setup(19, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        all_in_range(&mut e);
        e.schedule(
            SimTime::ZERO,
            BbEvent::set_slave_active(SlaveId::new(0), false),
        );
        e.run_until(SimTime::from_secs(12));
        assert!(e.world().bb.discoveries().is_empty());
        // Reactivate: discovered on the continuing inquiry.
        e.schedule(
            SimTime::from_secs(12),
            BbEvent::set_slave_active(SlaveId::new(0), true),
        );
        e.run_until(SimTime::from_secs(25));
        assert_eq!(e.world().bb.discoveries().len(), 1);
    }

    #[test]
    fn deterministic_same_seed_same_discoveries() {
        let run = |seed| {
            let mcfg = MasterConfig::new(BdAddr::new(1));
            let slaves: Vec<SlaveConfig> = (0..5).map(continuous_slave).collect();
            let mut e = setup(seed, mcfg, slaves, MediumConfig::default());
            all_in_range(&mut e);
            e.run_until(SimTime::from_secs(15));
            e.world()
                .bb
                .discoveries()
                .iter()
                .map(|d| (d.slave.index(), d.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn reset_discoveries_allows_rediscovery() {
        let mcfg = MasterConfig::new(BdAddr::new(1));
        let mut e = setup(18, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(8));
        let first = e.world().bb.discoveries().len();
        assert_eq!(first, 1);
        e.world_mut().bb.reset_discoveries();
        assert!(e.world().bb.discoveries().is_empty());
        e.run_until(SimTime::from_secs(20));
        assert_eq!(
            e.world().bb.discoveries().len(),
            1,
            "slave keeps responding, so it is rediscovered after reset"
        );
    }

    #[test]
    fn no_link_error_reports_pair() {
        let err = NoLinkError {
            master: MasterId::new(2),
            slave: SlaveId::new(7),
        };
        assert_eq!(err.to_string(), "no link between master 2 and slave 7");
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern};
    use desim::{Context, Engine, SimDuration, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// One service-only master, N page-scanning slaves, everything in
    /// range, with pages requested for all of them at t = 1 s.
    fn engine_with_pages(n: usize) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig::default());
        let mut rng = desim::SeedDeriver::new(55).rng(0);
        // Duty with a long service phase so pages run immediately after a
        // short inquiry burst.
        let m = bb.add_master(
            MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(100),
            )),
            &mut rng,
        );
        let slaves: Vec<SlaveId> = (0..n)
            .map(|i| {
                bb.add_slave(
                    SlaveConfig::new(BdAddr::new(0x100 + i as u64))
                        .scan(ScanPattern::alternating()),
                    &mut rng,
                )
            })
            .collect();
        let mut e = Engine::new(TestWorld { bb }, 55);
        e.schedule(SimTime::ZERO, BbEvent::start());
        for &s in &slaves {
            e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, s, true));
            e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, s));
        }
        e
    }

    #[test]
    fn piconet_never_exceeds_seven_active_slaves() {
        let mut e = engine_with_pages(10);
        let m = MasterId::new(0);
        for step in 1..=60 {
            e.run_until(SimTime::from_secs(step));
            let active = e.world().bb.connected_slaves(m).count();
            assert!(active <= MAX_ACTIVE_SLAVES, "t={step}s: {active} active");
        }
        // Exactly seven connect; the other three wait in the queue.
        assert_eq!(e.world().bb.connected_slaves(m).count(), MAX_ACTIVE_SLAVES);
    }

    #[test]
    fn freeing_a_slot_admits_the_next_queued_page() {
        let mut e = engine_with_pages(10);
        let m = MasterId::new(0);
        e.run_until(SimTime::from_secs(60));
        let connected: Vec<SlaveId> = e.world().bb.connected_slaves(m).collect();
        assert_eq!(connected.len(), MAX_ACTIVE_SLAVES);
        // Disconnect two: the queue must refill the slots.
        e.schedule(SimTime::from_secs(60), BbEvent::disconnect(m, connected[0]));
        e.schedule(SimTime::from_secs(60), BbEvent::disconnect(m, connected[1]));
        e.run_until(SimTime::from_secs(120));
        let after: Vec<SlaveId> = e.world().bb.connected_slaves(m).collect();
        assert_eq!(after.len(), MAX_ACTIVE_SLAVES, "slots not refilled");
        assert!(!after.contains(&connected[0]) || !after.contains(&connected[1]));
    }

    #[test]
    fn seven_or_fewer_connect_without_queueing_delay() {
        let mut e = engine_with_pages(7);
        e.run_until(SimTime::from_secs(60));
        assert_eq!(
            e.world().bb.connected_slaves(MasterId::new(0)).count(),
            7,
            "all seven fit"
        );
    }
}

#[cfg(test)]
mod page_model_tests {
    use super::*;
    use crate::params::{DutyCycle, PageModel, ScanPattern};
    use desim::{Context, Engine, SimDuration, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    fn paging_engine(model: PageModel, packet_success: f64, seed: u64) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig {
            page_model: model,
            packet_success,
            ..MediumConfig::default()
        });
        let mut rng = desim::SeedDeriver::new(seed).rng(0);
        let m = bb.add_master(
            MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(60),
            )),
            &mut rng,
        );
        let sl = bb.add_slave(
            SlaveConfig::new(BdAddr::new(0x99)).scan(ScanPattern::alternating()),
            &mut rng,
        );
        let mut e = Engine::new(TestWorld { bb }, seed);
        e.schedule(SimTime::ZERO, BbEvent::start());
        e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, sl, true));
        e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, sl));
        e
    }

    fn link_time(e: &mut Engine<TestWorld>) -> Option<SimTime> {
        e.run_until(SimTime::from_secs(30));
        let mut notes = Vec::new();
        e.world_mut().bb.drain_notifications(&mut notes);
        notes.into_iter().find_map(|n| match n {
            BbNotification::LinkEstablished { at, .. } => Some(at),
            _ => None,
        })
    }

    #[test]
    fn slot_accurate_page_connects_within_scan_cycles() {
        let mut e = paging_engine(PageModel::SlotAccurate, 1.0, 31);
        let at = link_time(&mut e).expect("no link established");
        // The slave's page-scan windows come every 2.56 s; the page must
        // land within a few of them.
        assert!(
            at < SimTime::from_secs(9),
            "slot-accurate page too slow: {at}"
        );
    }

    #[test]
    fn slot_accurate_and_analytic_latencies_are_comparable() {
        let lat = |model| {
            let mut sum = 0.0;
            let n = 12;
            for seed in 0..n {
                let mut e = paging_engine(model, 1.0, 100 + seed);
                let at = link_time(&mut e).expect("link");
                sum += (at - SimTime::from_secs(1)).as_secs_f64();
            }
            sum / n as f64
        };
        let analytic = lat(PageModel::Analytic);
        let slot = lat(PageModel::SlotAccurate);
        // Both are dominated by the wait for a page-scan window; they
        // must agree within a factor of ~2.5.
        assert!(
            slot < analytic * 2.5 + 1.0 && analytic < slot * 2.5 + 1.0,
            "analytic {analytic:.2}s vs slot-accurate {slot:.2}s"
        );
    }

    #[test]
    fn channel_errors_slow_slot_accurate_paging() {
        let mean_lat = |p: f64| {
            let mut sum = 0.0;
            let n = 10;
            let mut ok = 0;
            for seed in 0..n {
                let mut e = paging_engine(PageModel::SlotAccurate, p, 200 + seed);
                if let Some(at) = link_time(&mut e) {
                    sum += (at - SimTime::from_secs(1)).as_secs_f64();
                    ok += 1;
                }
            }
            (sum / ok.max(1) as f64, ok)
        };
        let (clean, ok_clean) = mean_lat(1.0);
        let (lossy, ok_lossy) = mean_lat(0.3);
        assert_eq!(ok_clean, 10);
        assert!(ok_lossy >= 5, "most lossy pages still complete: {ok_lossy}");
        assert!(
            lossy >= clean,
            "errors cannot speed paging up: {clean:.2}s vs {lossy:.2}s"
        );
    }

    #[test]
    fn page_timeout_fires_when_slave_never_page_scans() {
        // A continuous-inquiry slave has no page windows: the attempt
        // must end in PageFailed at the deadline under both models.
        for model in [PageModel::Analytic, PageModel::SlotAccurate] {
            let mut bb = Baseband::new(MediumConfig {
                page_model: model,
                ..MediumConfig::default()
            });
            let mut rng = desim::SeedDeriver::new(7).rng(0);
            let m = bb.add_master(
                MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
                    SimDuration::from_millis(100),
                    SimDuration::from_secs(60),
                )),
                &mut rng,
            );
            let sl = bb.add_slave(
                SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::continuous_inquiry()),
                &mut rng,
            );
            let mut e = Engine::new(TestWorld { bb }, 7);
            e.schedule(SimTime::ZERO, BbEvent::start());
            e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, sl, true));
            e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, sl));
            e.run_until(SimTime::from_secs(30));
            let mut notes = Vec::new();
            e.world_mut().bb.drain_notifications(&mut notes);
            assert!(
                notes
                    .iter()
                    .any(|n| matches!(n, BbNotification::PageFailed { .. })),
                "{model:?}: no PageFailed in {notes:?}"
            );
            assert_eq!(e.world().bb.slave_connection(sl), None);
        }
    }
}

#[cfg(test)]
mod range_flap_tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern};
    use desim::{Context, Engine, SimDuration, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    fn linked_pair(seed: u64) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig::default());
        let mut rng = desim::SeedDeriver::new(seed).rng(0);
        let m = bb.add_master(
            MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(60),
            )),
            &mut rng,
        );
        let sl = bb.add_slave(
            SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::alternating()),
            &mut rng,
        );
        let mut e = Engine::new(TestWorld { bb }, seed);
        e.schedule(SimTime::ZERO, BbEvent::start());
        e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, sl, true));
        e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, sl));
        e.run_until(SimTime::from_secs(15));
        assert_eq!(e.world().bb.slave_connection(sl), Some(m), "setup: no link");
        e
    }

    #[test]
    fn brief_range_loss_does_not_drop_the_link() {
        let mut e = linked_pair(41);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        // Out for 1 s — less than the 2 s supervision timeout — then back.
        e.schedule(SimTime::from_secs(15), BbEvent::set_in_range(m, s, false));
        e.schedule(SimTime::from_secs(16), BbEvent::set_in_range(m, s, true));
        e.run_until(SimTime::from_secs(25));
        assert_eq!(
            e.world().bb.slave_connection(s),
            Some(m),
            "link must survive a sub-timeout fade"
        );
        let mut notes = Vec::new();
        e.world_mut().bb.drain_notifications(&mut notes);
        assert!(
            !notes
                .iter()
                .any(|n| matches!(n, BbNotification::LinkLost { .. })),
            "{notes:?}"
        );
    }

    #[test]
    fn repeated_flaps_each_shorter_than_timeout_never_drop() {
        let mut e = linked_pair(42);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        for k in 0..6u64 {
            let t0 = SimTime::from_secs(15 + 3 * k);
            e.schedule(t0, BbEvent::set_in_range(m, s, false));
            e.schedule(
                t0 + SimDuration::from_millis(1500),
                BbEvent::set_in_range(m, s, true),
            );
        }
        e.run_until(SimTime::from_secs(40));
        assert_eq!(e.world().bb.slave_connection(s), Some(m));
        assert_eq!(e.world().bb.stats().links_lost, 0);
    }
}

#[cfg(test)]
mod window_tie_tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern, TrainPolicy};
    use desim::{Context, Engine, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// Pair index of the window start `T` on the master's grid.
    const T_PAIRS: u64 = 80;

    fn at_t() -> SimTime {
        SimTime::ZERO + SLOT_PAIR * T_PAIRS
    }

    /// One always-inquiring master whose slot grid starts at t = 0 and
    /// one spec-pattern slave whose first window opens at `T`, exactly on
    /// a slot pair, listening on the frequency that pair's first ID
    /// carries. With `activate_at`, the slave starts switched off and its
    /// chain is armed at that instant instead of at start.
    fn engine(skip_ahead: bool, activate_at: Option<SimTime>) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig {
            skip_ahead,
            ..MediumConfig::default()
        });
        let mut rng = desim::SeedDeriver::new(3).rng(0);
        let m = bb.add_master(
            MasterConfig::new(BdAddr::new(1))
                .duty(DutyCycle::always_inquiry())
                .trains(TrainPolicy::Single)
                .start_train(StartTrain::Fixed(Train::A)),
            &mut rng,
        );
        let sl = bb.add_slave(
            SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::spec_inquiry()),
            &mut rng,
        );
        bb.masters[m.0].clock = NativeClock::with_phase_ticks(0);
        let mut walker = InquiryState::new(Train::A, TrainPolicy::Single);
        walker.advance_by(T_PAIRS);
        let dev = &mut bb.slaves[sl.0];
        dev.windows = WindowSchedule::new(ScanPattern::spec_inquiry(), at_t(), 0);
        dev.freq_rot = walker.plan().first.index();
        dev.active = activate_at.is_none();
        bb.set_coverage(m.0, sl.0, true);
        let mut e = Engine::new(TestWorld { bb }, 3);
        e.schedule(SimTime::ZERO, BbEvent::start());
        if let Some(at) = activate_at {
            e.schedule(at, BbEvent::set_slave_active(sl, true));
        }
        e
    }

    /// IDs the slave heard by the end of the pair at `T`, in both modes.
    fn heard_at_t(activate_at: Option<SimTime>) -> u64 {
        let heard = [false, true].map(|skip_ahead| {
            let mut e = engine(skip_ahead, activate_at);
            e.run_until(at_t() + SLOT_PAIR / 2);
            assert_eq!(e.world().bb.stats().ids_transmitted, 2 * (T_PAIRS + 1));
            e.world().bb.stats().ids_heard
        });
        assert_eq!(heard[0], heard[1], "naive and skip-ahead disagree");
        heard[0]
    }

    #[test]
    fn window_armed_before_the_naive_inq_tx_is_open_for_it() {
        // Armed at start, long before the pair's naive arm instant.
        assert_eq!(heard_at_t(None), 1);
        // Re-armed 2 ms before `T`, still before the naive arm instant
        // (`T` − 1.25 ms).
        assert_eq!(heard_at_t(Some(at_t() - SimDuration::from_millis(2))), 1);
    }

    #[test]
    fn window_armed_after_the_naive_inq_tx_stays_shut_for_it() {
        // Re-armed 0.5 ms before `T`: the naive `InqTx` for `T` was
        // already queued and runs first, finding the slave asleep.
        assert_eq!(heard_at_t(Some(at_t() - SimDuration::from_micros(500))), 0);
    }
}

#[cfg(test)]
mod backoff_tie_tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern, TrainPolicy};
    use desim::{Context, Engine, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// The frequency the slave listens on: the first ID of every master's
    /// fourth slot pair (train A, offset 6).
    const FREQ: u8 = 6;

    /// The pair at which master 0 (slot grid at t = 0) first transmits
    /// `FREQ`, priming the slave into its backoff.
    fn at_a() -> SimTime {
        SimTime::ZERO + SLOT_PAIR * 3
    }

    /// Skip-ahead masters on train A whose grids start at `phases`
    /// (in 312.5 µs ticks), and one continuously scanning slave on
    /// `FREQ` with backoffs of at most `backoff_slots`, covered by the
    /// masters in `covered` from the start.
    fn engine(
        seed: u64,
        phases: &[u64],
        covered: &[usize],
        backoff_slots: u64,
    ) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig::default());
        let mut rng = desim::SeedDeriver::new(3).rng(0);
        for (i, &phase) in phases.iter().enumerate() {
            let m = bb.add_master(
                MasterConfig::new(BdAddr::new(1 + i as u64))
                    .duty(DutyCycle::always_inquiry())
                    .trains(TrainPolicy::Single)
                    .start_train(StartTrain::Fixed(Train::A)),
                &mut rng,
            );
            bb.masters[m.0].clock = NativeClock::with_phase_ticks(phase);
        }
        let sl = bb.add_slave(
            SlaveConfig::new(BdAddr::new(0x50))
                .scan(ScanPattern::continuous_inquiry())
                .backoff_max_slots(backoff_slots),
            &mut rng,
        );
        bb.slaves[sl.0].freq_rot = FREQ;
        for &m in covered {
            bb.set_coverage(m, sl.0, true);
        }
        let mut e = Engine::new(TestWorld { bb }, seed);
        e.schedule(SimTime::ZERO, BbEvent::start());
        e
    }

    /// Runs to just after the prime at `A` and checks the backoff it
    /// armed ends at `t`.
    fn primed_until(e: &mut Engine<TestWorld>, t: SimTime) {
        e.run_until(at_a() + TICK / 2);
        let dev = &e.world().bb.slaves[0];
        assert_eq!(dev.machine.phase(), ScanPhase::Backoff { until: t });
        assert_eq!(e.world().bb.stats().ids_heard, 1);
    }

    /// IDs the slave heard by the end of the pair at `t`.
    fn heard_through(e: &mut Engine<TestWorld>, t: SimTime) -> u64 {
        e.run_until(t + SLOT_PAIR / 2);
        e.world().bb.stats().ids_heard
    }

    #[test]
    fn inq_tx_scheduled_after_the_backoff_hears_at_its_end() {
        // Master 1's grid is one slot later, so its pair at `A + 625 µs`
        // carries `FREQ` first, just as the one-slot backoff ends. The
        // slave enters master 1's coverage only after the prime, so the
        // `InqTx` aimed there is scheduled after the backoff was armed and
        // finds it over. (The naive chain queued that pair's `InqTx` one
        // pair earlier, before the prime: the same-instant ordering gap
        // documented on `department_scale_same_instant_ordering`.)
        let t = at_a() + SLOT_PAIR / 2;
        let mut e = engine(1, &[0, 2], &[0], 0);
        e.schedule(
            at_a() + TICK / 2,
            BbEvent::set_in_range(MasterId::new(1), SlaveId::new(0), true),
        );
        primed_until(&mut e, t);
        assert_eq!(heard_through(&mut e, t), 2);
    }

    #[test]
    fn inq_tx_scheduled_before_the_backoff_misses_its_end() {
        // Same grids, but master 1 covers the slave from the start: its
        // chain was aimed at `A + 625 µs` before the prime armed the
        // backoff, so it runs first and finds the slave deaf.
        let t = at_a() + SLOT_PAIR / 2;
        let mut e = engine(1, &[0, 2], &[0, 1], 0);
        primed_until(&mut e, t);
        assert_eq!(heard_through(&mut e, t), 1);
    }

    #[test]
    fn own_pair_backoff_ends_before_the_re_aimed_inq_tx() {
        // One master; a 16-slot backoff ends exactly one train pass
        // (eight pairs) after the prime, on a pair that carries `FREQ`
        // again. The master's own handler armed the backoff before it
        // re-aimed its chain there, so the backoff is over for that pair.
        let seed = (0..)
            .find(|&s| desim::SimRng::seed_from(s).range_inclusive(0, 16) == 16)
            .expect("some seed draws the longest backoff");
        let t = at_a() + SLOT_PAIR * 8;
        let mut e = engine(seed, &[0], &[0], 16);
        primed_until(&mut e, t);
        assert_eq!(heard_through(&mut e, t), 2);
    }
}
