//! Exponential backoff with full jitter, on the deterministic RNG.
//!
//! Retrying against a stressed server needs two properties at once:
//! exponentially growing delays (so persistent failures back off hard)
//! and randomized spacing (so a thundering herd of retriers decorrelates
//! instead of hammering in lockstep — the "full jitter" scheme from the
//! AWS architecture blog). Driving the jitter from [`Pcg64`] keeps every
//! retry schedule replayable from a seed, which the fault-injection
//! conformance suite depends on.

use crate::rng::Pcg64;
use std::time::Duration;

/// Exponential backoff policy: attempt `k` (0-based) waits a uniform
/// duration in `[0, min(base * 2^k, cap)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpBackoff {
    /// First-attempt ceiling.
    pub base: Duration,
    /// Upper bound the exponential growth saturates at.
    pub cap: Duration,
}

impl ExpBackoff {
    /// Policy with the given base delay and cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap < base`.
    pub fn new(base: Duration, cap: Duration) -> Self {
        assert!(cap >= base, "backoff cap must be at least the base");
        ExpBackoff { base, cap }
    }

    /// The full (un-jittered) ceiling for attempt `attempt` (0-based):
    /// `min(base * 2^attempt, cap)`.
    pub fn ceiling(&self, attempt: u32) -> Duration {
        let scaled = self
            .base
            .as_micros()
            .saturating_mul(1u128 << attempt.min(100));
        if scaled >= self.cap.as_micros() {
            self.cap
        } else {
            Duration::from_micros(scaled as u64)
        }
    }

    /// Draws the jittered delay for attempt `attempt`: uniform in
    /// `[0, ceiling(attempt)]`.
    pub fn delay(&self, attempt: u32, rng: &mut Pcg64) -> Duration {
        let ceiling = self.ceiling(attempt);
        let micros = ceiling.as_micros().min(u128::from(u64::MAX)) as u64;
        if micros == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(rng.range_inclusive(0, micros))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceilings_double_then_saturate() {
        let b = ExpBackoff::new(Duration::from_millis(10), Duration::from_millis(80));
        assert_eq!(b.ceiling(0), Duration::from_millis(10));
        assert_eq!(b.ceiling(1), Duration::from_millis(20));
        assert_eq!(b.ceiling(2), Duration::from_millis(40));
        assert_eq!(b.ceiling(3), Duration::from_millis(80));
        assert_eq!(b.ceiling(4), Duration::from_millis(80), "saturates at cap");
        assert_eq!(b.ceiling(63), Duration::from_millis(80));
        assert_eq!(
            b.ceiling(200),
            Duration::from_millis(80),
            "no shift overflow"
        );
    }

    #[test]
    fn delays_are_within_ceiling_and_deterministic() {
        let b = ExpBackoff::new(Duration::from_millis(5), Duration::from_secs(1));
        let mut a_rng = Pcg64::seed_from_u64(7);
        let mut b_rng = Pcg64::seed_from_u64(7);
        for attempt in 0..10 {
            let d1 = b.delay(attempt, &mut a_rng);
            let d2 = b.delay(attempt, &mut b_rng);
            assert_eq!(d1, d2, "same seed, same schedule");
            assert!(d1 <= b.ceiling(attempt));
        }
    }

    #[test]
    fn jitter_actually_spreads() {
        let b = ExpBackoff::new(Duration::from_millis(100), Duration::from_secs(10));
        let mut rng = Pcg64::seed_from_u64(3);
        let draws: Vec<Duration> = (0..32).map(|_| b.delay(4, &mut rng)).collect();
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert!(
            distinct.len() > 16,
            "full jitter must not collapse to a point"
        );
    }

    #[test]
    fn zero_base_yields_zero_delay() {
        let b = ExpBackoff::new(Duration::ZERO, Duration::ZERO);
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(b.delay(0, &mut rng), Duration::ZERO);
        assert_eq!(b.delay(9, &mut rng), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "cap must be at least")]
    fn cap_below_base_panics() {
        let _ = ExpBackoff::new(Duration::from_secs(1), Duration::from_millis(1));
    }
}
