//! The slave side of device discovery: scan windows and response backoff.
//!
//! A discoverable slave periodically opens an 11.25 ms scan window and
//! listens on a single inquiry frequency (its position in the 32-frequency
//! sequence advances every 1.28 s with `CLKN[16:12]`). On hearing an ID it
//! does **not** answer at once: it draws a random backoff of up to 1023
//! slots, sleeps, listens again, and answers the *next* ID it hears with
//! an FHS packet 625 µs later (spec 1.1 §10.7.4). The backoff decorrelates
//! the answers of slaves sharing a scan frequency; when it fails, their
//! FHS packets collide — the effect the paper added to BlueHoc.
//!
//! [`ScanMachine`] is the pure state machine; the medium feeds it window
//! boundaries and heard IDs, and executes the actions it returns.

use crate::params::ScanPattern;
use desim::{SimDuration, SimTime};

/// What a scan window listens for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// Inquiry scan: discoverable, answers GIAC IDs.
    Inquiry,
    /// Page scan: connectable, answers its own device access code.
    Page,
}

impl ScanKind {
    /// The kind of the `n`-th window under `pattern` (alternating patterns
    /// flip every window; pure-inquiry patterns always inquiry-scan).
    pub fn of_window(pattern: &ScanPattern, n: u64) -> ScanKind {
        if pattern.interleaves_page_scan() && n % 2 == 1 {
            ScanKind::Page
        } else {
            ScanKind::Inquiry
        }
    }
}

/// Listening status of a scanning slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPhase {
    /// Between windows, radio parked.
    Sleeping,
    /// In an open window of the given kind; listening until the stored
    /// instant.
    Listening {
        /// What the window listens for.
        kind: ScanKind,
        /// When the window closes.
        until: SimTime,
    },
    /// In response backoff: deaf until the stored instant.
    Backoff {
        /// When the backoff ends.
        until: SimTime,
    },
}

/// Action the medium must take after feeding an event to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanAction {
    /// Nothing to do.
    None,
    /// Start a backoff timer ending at the instant.
    StartBackoff(SimTime),
    /// Transmit an FHS response, then time the post-response backoff.
    Respond {
        /// When to transmit the FHS (625 µs after the heard ID).
        at: SimTime,
        /// When the post-response backoff ends.
        backoff_until: SimTime,
    },
}

/// The inquiry-scan state machine of one slave.
///
/// # Example
///
/// ```
/// use bt_baseband::scan::{ScanMachine, ScanAction, ScanKind};
/// use bt_baseband::params::ScanPattern;
/// use desim::{SimTime, SimDuration, SimRng};
///
/// let mut rng = SimRng::seed_from(1);
/// let mut m = ScanMachine::new(ScanPattern::continuous_inquiry(), 0);
/// m.open_window(SimTime::ZERO, ScanKind::Inquiry, SimTime::from_secs(1));
/// // First ID heard → backoff.
/// let a = m.hear_id(SimTime::from_millis(3), &mut rng);
/// assert!(matches!(a, ScanAction::StartBackoff(_)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanMachine {
    phase: ScanPhase,
    /// Heard a first ID; the next heard ID triggers the FHS response.
    primed: bool,
    backoff_max_slots: u64,
}

/// Slot length used for backoff arithmetic.
const SLOT: SimDuration = SimDuration::from_units_0125us(5000);

/// FHS response offset after a heard ID.
const RESPONSE_OFFSET: SimDuration = SimDuration::from_units_0125us(5000);

impl ScanMachine {
    /// A machine for a slave with the given pattern and backoff bound.
    pub fn new(_pattern: ScanPattern, backoff_max_slots: u64) -> ScanMachine {
        ScanMachine {
            phase: ScanPhase::Sleeping,
            primed: false,
            backoff_max_slots,
        }
    }

    /// Current listening status.
    pub fn phase(&self) -> ScanPhase {
        self.phase
    }

    /// Whether the machine will respond to the next heard ID.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// True if the slave is listening for inquiry IDs at `now`.
    pub fn hears_inquiry(&self, now: SimTime) -> bool {
        matches!(
            self.phase,
            ScanPhase::Listening { kind: ScanKind::Inquiry, until } if now < until
        )
    }

    /// True if the slave is listening for page IDs at `now`.
    pub fn hears_page(&self, now: SimTime) -> bool {
        matches!(
            self.phase,
            ScanPhase::Listening { kind: ScanKind::Page, until } if now < until
        )
    }

    /// A regular scan window opens. Ignored while in backoff (the backoff
    /// overrides scanning; post-backoff listening is handled by
    /// [`end_backoff`](ScanMachine::end_backoff)).
    pub fn open_window(&mut self, now: SimTime, kind: ScanKind, until: SimTime) {
        debug_assert!(until > now);
        if matches!(self.phase, ScanPhase::Backoff { until } if now < until) {
            return;
        }
        self.phase = ScanPhase::Listening { kind, until };
    }

    /// A scan window closes (no-op if the machine left the window early,
    /// e.g. for a backoff). A *primed* slave is in the inquiry-response
    /// substate: it keeps listening for the next ID instead of sleeping.
    pub fn close_window(&mut self, now: SimTime) {
        if let ScanPhase::Listening { until, .. } = self.phase {
            if now >= until {
                self.phase = if self.primed {
                    ScanPhase::Listening {
                        kind: ScanKind::Inquiry,
                        until: SimTime::MAX,
                    }
                } else {
                    ScanPhase::Sleeping
                };
            }
        }
    }

    /// An inquiry ID was heard on the slave's scan frequency at `now`.
    ///
    /// First hearing → prime and back off a random number of slots.
    /// Primed hearing → respond 625 µs later, then back off again with a
    /// fresh random draw (the spec's post-response behaviour).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the machine was not listening for inquiry IDs.
    pub fn hear_id(&mut self, now: SimTime, rng: &mut desim::SimRng) -> ScanAction {
        debug_assert!(self.hears_inquiry(now), "heard an ID while deaf");
        if self.primed {
            let respond_at = now + RESPONSE_OFFSET;
            // Post-response: new backoff before becoming responsive again;
            // the machine stays primed (the master may have missed the
            // FHS, so the slave answers again after the next hearing).
            let until = respond_at + self.draw_backoff(rng);
            self.phase = ScanPhase::Backoff { until };
            ScanAction::Respond {
                at: respond_at,
                backoff_until: until,
            }
        } else {
            self.primed = true;
            let until = now + self.draw_backoff(rng);
            self.phase = ScanPhase::Backoff { until };
            ScanAction::StartBackoff(until)
        }
    }

    /// The backoff timer fired: re-enter inquiry scan immediately for up
    /// to one window (`post_window_close` = now + Tw), per spec.
    pub fn end_backoff(&mut self, now: SimTime, post_window_close: SimTime) {
        if let ScanPhase::Backoff { until } = self.phase {
            if now >= until {
                self.phase = ScanPhase::Listening {
                    kind: ScanKind::Inquiry,
                    until: post_window_close,
                };
            }
        }
    }

    /// Stops all scanning (device connected or switched off).
    pub fn stop(&mut self) {
        self.phase = ScanPhase::Sleeping;
        self.primed = false;
    }

    /// A conservative lower bound on the first instant at or after `now`
    /// when the machine could hear an inquiry ID, given that `windows`
    /// drives its window openings.
    ///
    /// "Conservative" means *never late*: the machine is provably deaf
    /// strictly before the returned instant, but may still be deaf at it
    /// (a wake-up that finds the slave deaf is harmless — the caller
    /// re-checks the real gates). This is the closed-form query behind
    /// the skip-ahead inquiry scheduler: scan windows, primed listening
    /// and backoff sleeps are all deterministic, so the medium can jump
    /// the inquiry chain over the deaf span instead of probing it slot
    /// pair by slot pair.
    ///
    /// The caller is responsible for knowing whether the window chain is
    /// still armed; a stopped machine whose schedule will never reopen
    /// (halted or connected slave) is deaf forever, which this method
    /// cannot see. `armed_from` is the start of the earliest window the
    /// chain has not applied yet: a sleeping machine cannot become
    /// receptive inside an earlier on-paper window, because the chain
    /// will never open it (a chain re-armed mid-window starts at the
    /// *next* window). The machine may lag behind `now` — boundaries
    /// the medium applies lazily — and the answer is the same as for a
    /// machine advanced to `now`.
    pub fn next_receptive_after(
        &self,
        now: SimTime,
        windows: &WindowSchedule,
        armed_from: SimTime,
    ) -> SimTime {
        // Earliest inquiry-listening instant at or after `t` assuming the
        // window chain executes the schedule from `t` onwards: inside an
        // inquiry window it is `t` itself, otherwise the next inquiry
        // window's start.
        let live = |t: SimTime| match windows.open_window_at(t) {
            Some((ScanKind::Inquiry, _)) => t,
            _ => windows.next_window_of_kind(t, ScanKind::Inquiry),
        };
        match self.phase {
            ScanPhase::Listening {
                kind: ScanKind::Inquiry,
                until,
            } => {
                if now < until {
                    now
                } else if self.primed {
                    // The pending close transitions a primed slave into
                    // the open-ended inquiry-response listen.
                    now
                } else {
                    live(now)
                }
            }
            ScanPhase::Listening {
                kind: ScanKind::Page,
                until,
            } => {
                if self.primed {
                    // Closing a page window while primed also re-enters
                    // the open-ended inquiry listen.
                    now.max(until)
                } else {
                    live(now.max(until))
                }
            }
            // end_backoff re-enters an open-ended inquiry listen the
            // moment the timer fires.
            ScanPhase::Backoff { until } => now.max(until),
            ScanPhase::Sleeping => live(now.max(armed_from)),
        }
    }

    fn draw_backoff(&self, rng: &mut desim::SimRng) -> SimDuration {
        let slots = if self.backoff_max_slots == 0 {
            0
        } else {
            rng.range_inclusive(0, self.backoff_max_slots)
        };
        // At least one slot so the response never lands in the same
        // receive window as the priming ID.
        SLOT * slots.max(1)
    }
}

/// A slave's window timetable: windows of `pattern.window()` length start
/// at `origin + n · pattern.interval()`, with kinds alternating from a
/// random parity when the pattern interleaves page scan.
///
/// The random `origin` and `kind_parity` are the per-trial randomness of
/// the paper's Table 1: they decide where the slave's scan opportunities
/// fall relative to the master's inquiry start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSchedule {
    pattern: ScanPattern,
    origin: SimTime,
    kind_parity: u64,
}

impl WindowSchedule {
    /// A timetable anchored at `origin` with the given alternation parity
    /// (only meaningful for interleaving patterns).
    pub fn new(pattern: ScanPattern, origin: SimTime, kind_parity: u64) -> WindowSchedule {
        WindowSchedule {
            pattern,
            origin,
            kind_parity: kind_parity % 2,
        }
    }

    /// A timetable with random phase and parity. A continuous pattern has
    /// no real window boundaries, so its timetable starts at time zero —
    /// the device is simply always listening.
    pub fn random(pattern: ScanPattern, rng: &mut desim::SimRng) -> WindowSchedule {
        if pattern.is_continuous() {
            return WindowSchedule::new(pattern, SimTime::ZERO, 0);
        }
        let us = rng.below(pattern.interval().as_micros().max(1));
        WindowSchedule::new(pattern, SimTime::from_micros(us), rng.below(2))
    }

    /// The pattern this timetable executes.
    pub fn pattern(&self) -> ScanPattern {
        self.pattern
    }

    /// Start time of window `n`.
    pub fn window_start(&self, n: u64) -> SimTime {
        self.origin + self.pattern.interval() * n
    }

    /// Kind of window `n`.
    pub fn window_kind(&self, n: u64) -> ScanKind {
        ScanKind::of_window(&self.pattern, n + self.kind_parity)
    }

    /// Index of the first window starting at or after `t`.
    pub fn first_window_at_or_after(&self, t: SimTime) -> u64 {
        match t.checked_sub(self.origin) {
            None => 0,
            Some(since) => {
                let interval = self.pattern.interval();
                let n = since.div_duration(interval);
                if (since % interval).is_zero() {
                    n
                } else {
                    n + 1
                }
            }
        }
    }

    /// Start of the next window of `kind` at or after `t` — used by the
    /// paging model to predict when a slave is page-reachable.
    pub fn next_window_of_kind(&self, t: SimTime, kind: ScanKind) -> SimTime {
        let first = self.first_window_at_or_after(t);
        // With interleaving, at most one extra step reaches the right
        // parity; without, every window matches Inquiry and none matches
        // Page unless kinds always Inquiry.
        (first..first + 2)
            .find(|&n| self.window_kind(n) == kind)
            .map(|n| self.window_start(n))
            .unwrap_or(SimTime::MAX)
    }

    /// If a window is open at `t`, its kind and close time.
    pub fn open_window_at(&self, t: SimTime) -> Option<(ScanKind, SimTime)> {
        let since = t.checked_sub(self.origin)?;
        let interval = self.pattern.interval();
        let n = since.div_duration(interval);
        let into = since % interval;
        if into < self.pattern.window() {
            Some((
                self.window_kind(n),
                self.window_start(n) + self.pattern.window(),
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{BACKOFF_MAX_SLOTS, TW_SCAN};

    fn rng() -> desim::SimRng {
        desim::SimRng::seed_from(99)
    }

    fn listening_machine() -> ScanMachine {
        let mut m = ScanMachine::new(ScanPattern::spec_inquiry(), BACKOFF_MAX_SLOTS);
        m.open_window(SimTime::ZERO, ScanKind::Inquiry, SimTime::ZERO + TW_SCAN);
        m
    }

    #[test]
    fn window_kinds_alternate_only_when_configured() {
        let alt = ScanPattern::alternating();
        assert_eq!(ScanKind::of_window(&alt, 0), ScanKind::Inquiry);
        assert_eq!(ScanKind::of_window(&alt, 1), ScanKind::Page);
        assert_eq!(ScanKind::of_window(&alt, 2), ScanKind::Inquiry);
        let pure = ScanPattern::spec_inquiry();
        assert_eq!(ScanKind::of_window(&pure, 1), ScanKind::Inquiry);
    }

    #[test]
    fn first_hearing_primes_and_backs_off() {
        let mut m = listening_machine();
        let t = SimTime::from_millis(1);
        match m.hear_id(t, &mut rng()) {
            ScanAction::StartBackoff(until) => {
                assert!(until > t);
                assert!(until <= t + SimDuration::from_micros(625) * (BACKOFF_MAX_SLOTS));
            }
            other => panic!("expected backoff, got {other:?}"),
        }
        assert!(m.is_primed());
        assert!(!m.hears_inquiry(t));
    }

    #[test]
    fn primed_hearing_responds_625us_later() {
        let mut m = listening_machine();
        let mut r = rng();
        let t1 = SimTime::from_millis(1);
        let ScanAction::StartBackoff(until) = m.hear_id(t1, &mut r) else {
            panic!()
        };
        m.end_backoff(until, until + TW_SCAN);
        assert!(m.hears_inquiry(until));
        let t2 = until + SimDuration::from_micros(100);
        match m.hear_id(t2, &mut r) {
            ScanAction::Respond { at, backoff_until } => {
                assert_eq!(at, t2 + SimDuration::from_micros(625));
                assert!(backoff_until > at);
            }
            other => panic!("expected response, got {other:?}"),
        }
        // After responding the machine is backing off again but remains
        // primed, so a later hearing responds again.
        assert!(m.is_primed());
        assert!(!m.hears_inquiry(t2));
    }

    #[test]
    fn backoff_is_deaf() {
        let mut m = listening_machine();
        let mut r = rng();
        let _ = m.hear_id(SimTime::from_millis(1), &mut r);
        assert!(!m.hears_inquiry(SimTime::from_millis(2)));
        // Regular window openings during backoff are ignored.
        m.open_window(
            SimTime::from_millis(3),
            ScanKind::Inquiry,
            SimTime::from_millis(3) + TW_SCAN,
        );
        assert!(!m.hears_inquiry(SimTime::from_millis(4)));
    }

    #[test]
    fn window_close_respects_early_exit() {
        let mut m = listening_machine();
        let close = SimTime::ZERO + TW_SCAN;
        m.close_window(close);
        assert_eq!(m.phase(), ScanPhase::Sleeping);
        // Reopen, then hear an ID (leaves window), then the stale close
        // arrives: must not clobber the backoff.
        m.open_window(close, ScanKind::Inquiry, close + TW_SCAN);
        let _ = m.hear_id(close + SimDuration::from_micros(10), &mut rng());
        let phase_before = m.phase();
        m.close_window(close + TW_SCAN);
        assert_eq!(m.phase(), phase_before);
    }

    #[test]
    fn page_windows_do_not_hear_inquiry() {
        let mut m = ScanMachine::new(ScanPattern::alternating(), BACKOFF_MAX_SLOTS);
        m.open_window(SimTime::ZERO, ScanKind::Page, SimTime::ZERO + TW_SCAN);
        assert!(!m.hears_inquiry(SimTime::from_micros(10)));
        assert!(m.hears_page(SimTime::from_micros(10)));
    }

    #[test]
    fn stop_clears_state() {
        let mut m = listening_machine();
        let _ = m.hear_id(SimTime::from_millis(1), &mut rng());
        m.stop();
        assert_eq!(m.phase(), ScanPhase::Sleeping);
        assert!(!m.is_primed());
    }

    #[test]
    fn backoff_draw_within_configured_bound() {
        let mut m = ScanMachine::new(ScanPattern::spec_inquiry(), 7);
        m.open_window(SimTime::ZERO, ScanKind::Inquiry, SimTime::ZERO + TW_SCAN);
        let mut r = rng();
        for _ in 0..100 {
            let mut fresh = m;
            let ScanAction::StartBackoff(until) = fresh.hear_id(SimTime::from_millis(1), &mut r)
            else {
                panic!()
            };
            let slots =
                (until - SimTime::from_millis(1)).div_duration(SimDuration::from_micros(625));
            assert!((1..=7).contains(&slots), "slots={slots}");
        }
    }

    #[test]
    fn window_schedule_enumerates_starts_and_kinds() {
        let ws = WindowSchedule::new(ScanPattern::alternating(), SimTime::from_millis(100), 1);
        assert_eq!(ws.window_start(0), SimTime::from_millis(100));
        assert_eq!(ws.window_start(2), SimTime::from_millis(100 + 2560));
        // Parity 1 flips the alternation.
        assert_eq!(ws.window_kind(0), ScanKind::Page);
        assert_eq!(ws.window_kind(1), ScanKind::Inquiry);
    }

    #[test]
    fn first_window_at_or_after_boundaries() {
        let ws = WindowSchedule::new(ScanPattern::spec_inquiry(), SimTime::from_millis(100), 0);
        assert_eq!(ws.first_window_at_or_after(SimTime::ZERO), 0);
        assert_eq!(ws.first_window_at_or_after(SimTime::from_millis(100)), 0);
        assert_eq!(ws.first_window_at_or_after(SimTime::from_millis(101)), 1);
        assert_eq!(ws.first_window_at_or_after(SimTime::from_millis(1380)), 1);
        assert_eq!(ws.first_window_at_or_after(SimTime::from_millis(1381)), 2);
    }

    #[test]
    fn next_window_of_kind_respects_parity() {
        let ws = WindowSchedule::new(ScanPattern::alternating(), SimTime::ZERO, 0);
        // Window 0 is Inquiry, window 1 is Page.
        assert_eq!(
            ws.next_window_of_kind(SimTime::ZERO, ScanKind::Inquiry),
            SimTime::ZERO
        );
        assert_eq!(
            ws.next_window_of_kind(SimTime::from_millis(1), ScanKind::Page),
            SimTime::from_millis(1280)
        );
        // A pure-inquiry slave is never page-reachable.
        let pure = WindowSchedule::new(ScanPattern::continuous_inquiry(), SimTime::ZERO, 0);
        assert_eq!(
            pure.next_window_of_kind(SimTime::ZERO, ScanKind::Page),
            SimTime::MAX
        );
    }

    #[test]
    fn open_window_detection() {
        let ws = WindowSchedule::new(ScanPattern::spec_inquiry(), SimTime::from_millis(10), 0);
        assert_eq!(ws.open_window_at(SimTime::from_millis(5)), None);
        let (kind, close) = ws.open_window_at(SimTime::from_millis(15)).unwrap();
        assert_eq!(kind, ScanKind::Inquiry);
        assert_eq!(close, SimTime::from_millis(10) + TW_SCAN);
        assert_eq!(ws.open_window_at(SimTime::from_millis(50)), None);
        // Continuous pattern: always open.
        let cont = WindowSchedule::new(ScanPattern::continuous_inquiry(), SimTime::ZERO, 0);
        assert!(cont.open_window_at(SimTime::from_secs(3)).is_some());
    }

    #[test]
    fn random_schedule_phase_within_interval() {
        let mut r = rng();
        for _ in 0..32 {
            let ws = WindowSchedule::random(ScanPattern::spec_inquiry(), &mut r);
            assert!(ws.window_start(0) < SimTime::ZERO + ScanPattern::spec_inquiry().interval());
        }
    }

    #[test]
    fn next_receptive_bounds_are_never_late() {
        let ws = WindowSchedule::new(ScanPattern::spec_inquiry(), SimTime::from_millis(100), 0);
        // Listening: receptive immediately while the window is open.
        let m = listening_machine();
        let t = SimTime::from_millis(1);
        assert_eq!(m.next_receptive_after(t, &ws, SimTime::ZERO), t);
        // Past the window close (unprimed): the next scheduled window.
        let past = SimTime::ZERO + TW_SCAN;
        assert_eq!(
            m.next_receptive_after(past, &ws, SimTime::ZERO),
            SimTime::from_millis(100)
        );
        // Backoff: deaf until the timer, receptive right at it.
        let mut backed = listening_machine();
        let ScanAction::StartBackoff(until) = backed.hear_id(t, &mut rng()) else {
            panic!()
        };
        assert_eq!(backed.next_receptive_after(t, &ws, SimTime::ZERO), until);
        assert_eq!(
            backed.next_receptive_after(until, &ws, SimTime::ZERO),
            until
        );
        // Primed machine at window close: keeps listening (open-ended
        // inquiry-response substate), so it is receptive immediately.
        backed.end_backoff(until, until + TW_SCAN);
        let close = until + TW_SCAN;
        assert_eq!(
            backed.next_receptive_after(close, &ws, SimTime::ZERO),
            close
        );
        // Sleeping: the next scheduled window.
        let fresh = ScanMachine::new(ScanPattern::spec_inquiry(), BACKOFF_MAX_SLOTS);
        assert_eq!(
            fresh.next_receptive_after(SimTime::ZERO, &ws, SimTime::ZERO),
            SimTime::from_millis(100)
        );
        // A sleeping machine whose chain is only armed from a later window
        // cannot be woken by an earlier on-paper window: no event opens it.
        assert_eq!(
            fresh.next_receptive_after(SimTime::ZERO, &ws, SimTime::from_millis(200)),
            SimTime::from_millis(100 + 1280)
        );
    }

    #[test]
    fn zero_bound_still_delays_one_slot() {
        let mut m = ScanMachine::new(ScanPattern::spec_inquiry(), 0);
        m.open_window(SimTime::ZERO, ScanKind::Inquiry, SimTime::ZERO + TW_SCAN);
        let ScanAction::StartBackoff(until) = m.hear_id(SimTime::ZERO, &mut rng()) else {
            panic!()
        };
        assert_eq!(until, SimTime::ZERO + SimDuration::from_micros(625));
    }
}
