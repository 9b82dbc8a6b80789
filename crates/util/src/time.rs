//! Virtual time for the discrete-event simulator and platform emulator.
//!
//! All timestamps in the workspace are microsecond-resolution offsets from
//! the start of the experiment, represented by [`SimTime`]; intervals are
//! [`SimDuration`]. Using integer microseconds keeps event ordering exact
//! (no floating-point ties) while still resolving sub-millisecond cold-start
//! phases.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time, in microseconds since the experiment began.
///
/// # Examples
///
/// ```
/// use faascache_util::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
/// assert_eq!(t.as_micros(), 1_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The experiment start.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time (used as an "infinite" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Creates a time from fractional seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60e6
    }

    /// The minute bucket this instant falls into.
    pub const fn minute_index(self) -> u64 {
        self.0 / 60_000_000
    }

    /// Duration since an earlier instant, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Creates a duration from fractional seconds (saturating at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration as fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert!((SimTime::from_secs_f64(2.25).as_secs_f64() - 2.25).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_micros(), 14_000_000);
        assert_eq!((t - d).as_micros(), 6_000_000);
        assert_eq!((t - SimTime::from_secs(3)).as_secs_f64(), 7.0);
        // Saturating behavior.
        assert_eq!(
            SimTime::from_secs(1) - SimDuration::from_secs(5),
            SimTime::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn minute_index() {
        assert_eq!(SimTime::from_secs(59).minute_index(), 0);
        assert_eq!(SimTime::from_secs(60).minute_index(), 1);
        assert_eq!(SimTime::from_secs(61).minute_index(), 1);
        assert_eq!(SimTime::from_mins(90).minute_index(), 90);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(b.since(a).as_secs_f64(), 4.0);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_micros(500).to_string(), "500us");
        assert_eq!(SimDuration::from_millis(20).to_string(), "20.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10).mul_f64(0.25);
        assert_eq!(d.as_secs_f64(), 2.5);
        assert_eq!(SimDuration::from_secs(1).mul_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total.as_secs_f64(), 10.0);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
