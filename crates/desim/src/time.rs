//! Virtual time: integer-microsecond instants and durations.
//!
//! Bluetooth timing is built from a 312.5 µs native clock tick and a 625 µs
//! slot. Representing time as integer microseconds would split the half-tick,
//! so the engine counts **eighths of a microsecond** internally while the
//! public constructors and accessors speak µs/ms/s. All Bluetooth-relevant
//! quantities (312.5 µs, 625 µs, 1.28 s, 11.25 ms, …) are exact in this
//! representation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Number of internal units per microsecond.
const UNITS_PER_US: u64 = 8;

/// An instant of virtual simulation time.
///
/// `SimTime` is an absolute point on the simulation clock; the origin
/// ([`SimTime::ZERO`]) is when the [`Engine`](crate::Engine) starts.
/// Subtracting two instants yields a [`SimDuration`]; adding a duration to
/// an instant yields another instant. Instants and durations are distinct
/// types so that e.g. a scan *interval* can never be mistaken for a
/// *deadline*.
///
/// # Example
///
/// ```
/// use desim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(625) * 3;
/// assert_eq!(t.as_micros(), 1875);
/// assert_eq!(t - SimTime::from_micros(875), SimDuration::from_millis(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual simulation time.
///
/// See [`SimTime`] for the instant/duration distinction. The representation
/// is exact for all multiples of 0.125 µs, which covers every interval in
/// the Bluetooth baseband (312.5 µs half-slots included).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * UNITS_PER_US)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime::from_micros(ms * 1_000)
    }

    /// Creates an instant `s` seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime::from_micros(s * 1_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// 0.125 µs.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time: {s}");
        SimTime((s * 1e6 * UNITS_PER_US as f64).round() as u64)
    }

    /// Whole microseconds since the epoch (fraction truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / UNITS_PER_US
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / (1e6 * UNITS_PER_US as f64)
    }

    /// The raw count of 0.125 µs units since the epoch.
    pub(crate) const fn units(self) -> u64 {
        self.0
    }

    /// Duration since the epoch.
    pub const fn elapsed(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// `self + d`, saturating at [`SimTime::MAX`] instead of overflowing.
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// `self - other` if `self >= other`, else `None`.
    pub const fn checked_sub(self, other: SimTime) -> Option<SimDuration> {
        match self.0.checked_sub(other.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// The time elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * UNITS_PER_US)
    }

    /// A duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration::from_micros(ms * 1_000)
    }

    /// A duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration::from_micros(s * 1_000_000)
    }

    /// A duration of `n` eighths of a microsecond — the engine's native
    /// resolution. `from_units_0125us(2500)` is the Bluetooth half-slot
    /// (312.5 µs).
    pub const fn from_units_0125us(n: u64) -> Self {
        SimDuration(n)
    }

    /// A duration from fractional seconds, rounded to the nearest 0.125 µs.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration((s * 1e6 * UNITS_PER_US as f64).round() as u64)
    }

    /// Whole microseconds (fraction truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / UNITS_PER_US
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / (1e6 * UNITS_PER_US as f64)
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self - other`, saturating at zero.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// `self * n`, or `None` on overflow.
    pub const fn checked_mul(self, n: u64) -> Option<SimDuration> {
        match self.0.checked_mul(n) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// How many whole `other` fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub const fn div_duration(self, other: SimDuration) -> u64 {
        assert!(other.0 != 0, "division by zero duration");
        self.0 / other.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    fn rem(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 % other.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

fn fmt_units(units: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let whole_us = units / UNITS_PER_US;
    let frac = units % UNITS_PER_US;
    if whole_us >= 1_000_000 {
        let s = units as f64 / (1e6 * UNITS_PER_US as f64);
        write!(f, "{s:.6}s")
    } else if frac == 0 {
        write!(f, "{whole_us}us")
    } else {
        write!(f, "{}us", units as f64 / UNITS_PER_US as f64)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_units(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_units(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_units(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_units(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_slot_is_exact() {
        let half = SimDuration::from_units_0125us(2500);
        assert_eq!(half.as_secs_f64(), 312.5e-6);
        assert_eq!(half + half, SimDuration::from_micros(625));
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t0 = SimTime::from_millis(10);
        let t1 = t0 + SimDuration::from_micros(625);
        assert_eq!(t1 - t0, SimDuration::from_micros(625));
        assert_eq!(t1.as_micros(), 10_625);
    }

    #[test]
    fn from_secs_f64_round_trips() {
        for s in [0.0, 0.0003125, 1.28, 2.56, 10.24, 15.4] {
            let t = SimTime::from_secs_f64(s);
            assert!((t.as_secs_f64() - s).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_secs(1).checked_sub(SimTime::from_secs(2)),
            None
        );
    }

    #[test]
    fn duration_division() {
        let train = SimDuration::from_millis(10);
        let slot = SimDuration::from_micros(625);
        assert_eq!(train.div_duration(slot), 16);
        assert_eq!(train % slot, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_duration_panics() {
        let _ = SimDuration::from_secs(1).div_duration(SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_micros(1) < SimTime::from_millis(1));
        assert_eq!(SimTime::from_micros(625).to_string(), "625us");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000000s");
        assert_eq!(format!("{:?}", SimTime::from_micros(5)), "t=5us");
        assert_eq!(SimDuration::from_units_0125us(2500).to_string(), "312.5us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (0..4).map(|_| SimDuration::from_micros(625)).sum();
        assert_eq!(
            total,
            SimDuration::from_millis(2) + SimDuration::from_micros(500)
        );
    }
}
