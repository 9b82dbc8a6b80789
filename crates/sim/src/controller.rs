//! The proportional vertical-scaling controller (paper §5.2, Figure 9),
//! re-exported by [`crate::elastic`], which puts it in the loop.
//!
//! The controller periodically observes the exponentially smoothed arrival
//! rate `λ` and the measured *miss speed* (cold starts per second). Given
//! a target miss speed, it computes the hit ratio that would bring the
//! miss speed back to target at the current arrival rate,
//!
//! ```text
//! HR(c′) = 1 − target_miss_speed / λ        (Eq. 3, rearranged)
//! ```
//!
//! and inverts the hit-ratio curve to get the new cache size `c′`. To
//! avoid churn and memory fragmentation the paper uses a *large error
//! deadband*: the size only changes when the observed miss speed deviates
//! from the target by more than 30 %.

use faascache_analysis::hitratio::HitRatioCurve;
use faascache_util::stats::Ewma;
use faascache_util::{MemMb, SimDuration};

/// What the controller observed over one control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Requests that arrived during the window.
    pub arrivals: u64,
    /// Cold starts during the window.
    pub cold_starts: u64,
    /// Window length.
    pub window: SimDuration,
}

impl WindowStats {
    /// Arrival rate over the window (per second).
    pub fn arrival_rate(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs > 0.0 {
            self.arrivals as f64 / secs
        } else {
            0.0
        }
    }

    /// Miss speed (cold starts per second) over the window.
    pub fn miss_speed(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs > 0.0 {
            self.cold_starts as f64 / secs
        } else {
            0.0
        }
    }
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Target miss speed in cold starts per second.
    pub target_miss_speed: f64,
    /// Relative deadband; the paper uses 0.3 (30 %).
    pub deadband: f64,
    /// EWMA smoothing factor for the arrival rate.
    pub ewma_alpha: f64,
    /// Smallest cache size the controller will request.
    pub min_capacity: MemMb,
    /// Largest cache size the controller will request.
    pub max_capacity: MemMb,
}

impl ControllerConfig {
    /// A configuration with the paper's defaults (30 % deadband) for a
    /// given target miss speed and capacity range.
    pub fn new(target_miss_speed: f64, min_capacity: MemMb, max_capacity: MemMb) -> Self {
        ControllerConfig {
            target_miss_speed,
            deadband: 0.3,
            ewma_alpha: 0.3,
            min_capacity,
            max_capacity,
        }
    }
}

/// The proportional vertical-scaling controller.
///
/// # Examples
///
/// ```
/// use faascache_analysis::hitratio::HitRatioCurve;
/// use faascache_sim::elastic::{Controller, ControllerConfig, WindowStats};
/// use faascache_util::{MemMb, SimDuration};
///
/// let curve = HitRatioCurve::from_distances(&(1..=100u64).map(|i| i * 100).collect::<Vec<_>>(), 0);
/// let cfg = ControllerConfig::new(0.5, MemMb::new(500), MemMb::from_gb(10));
/// let mut ctl = Controller::new(curve, cfg);
/// // Far too many cold starts → grow.
/// let decision = ctl.observe(WindowStats {
///     arrivals: 6000, cold_starts: 3000, window: SimDuration::from_mins(10),
/// });
/// assert!(decision.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    curve: HitRatioCurve,
    config: ControllerConfig,
    arrival_rate: Ewma,
}

impl Controller {
    /// Creates a controller over a hit-ratio curve.
    ///
    /// # Panics
    ///
    /// Panics if the target miss speed is not positive, the deadband is
    /// negative, or `min_capacity > max_capacity`.
    pub fn new(curve: HitRatioCurve, config: ControllerConfig) -> Self {
        assert!(
            config.target_miss_speed > 0.0,
            "target miss speed must be positive"
        );
        assert!(config.deadband >= 0.0, "deadband must be non-negative");
        assert!(
            config.min_capacity <= config.max_capacity,
            "min capacity exceeds max"
        );
        let alpha = config.ewma_alpha;
        Controller {
            curve,
            config,
            arrival_rate: Ewma::new(alpha),
        }
    }

    /// The smoothed arrival rate (per second).
    pub fn smoothed_arrival_rate(&self) -> f64 {
        self.arrival_rate.value()
    }

    /// Feeds one control window; returns the new cache size if the
    /// deadband was exceeded, otherwise `None` (keep the current size).
    pub fn observe(&mut self, window: WindowStats) -> Option<MemMb> {
        self.arrival_rate.observe(window.arrival_rate());
        let observed = window.miss_speed();
        let target = self.config.target_miss_speed;
        let error = (observed - target).abs() / target;
        if error <= self.config.deadband {
            return None;
        }
        Some(self.desired_capacity())
    }

    /// The capacity Eq. 3 currently implies, ignoring the deadband.
    pub fn desired_capacity(&self) -> MemMb {
        let lambda = self.smoothed_arrival_rate();
        if lambda <= 0.0 {
            return self.config.min_capacity;
        }
        let desired_miss_ratio = (self.config.target_miss_speed / lambda).clamp(0.0, 1.0);
        let desired_hit_ratio = 1.0 - desired_miss_ratio;
        let size = self
            .curve
            .size_for_hit_ratio(desired_hit_ratio)
            // Unreachable target (compulsory misses): provision for the
            // best the curve can do.
            .or_else(|| self.curve.size_for_hit_ratio(self.curve.max_hit_ratio()))
            .unwrap_or(self.config.max_capacity);
        size.max(self.config.min_capacity)
            .min(self.config.max_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> HitRatioCurve {
        // Uniform distances 100MB..10GB.
        HitRatioCurve::from_distances(&(1..=100u64).map(|i| i * 100).collect::<Vec<_>>(), 0)
    }

    fn window(arrivals: u64, cold: u64) -> WindowStats {
        WindowStats {
            arrivals,
            cold_starts: cold,
            window: SimDuration::from_mins(10),
        }
    }

    #[test]
    fn window_rates() {
        let w = window(1200, 60);
        assert!((w.arrival_rate() - 2.0).abs() < 1e-12);
        assert!((w.miss_speed() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deadband_suppresses_small_errors() {
        let cfg = ControllerConfig::new(0.1, MemMb::new(100), MemMb::from_gb(10));
        let mut ctl = Controller::new(curve(), cfg);
        // Observed 0.12/s vs target 0.1/s: 20% error < 30% deadband.
        assert_eq!(ctl.observe(window(1200, 72)), None);
        // 50% error: act.
        assert!(ctl.observe(window(1200, 90)).is_some());
    }

    #[test]
    fn grows_under_high_miss_speed_and_shrinks_when_idle() {
        let cfg = ControllerConfig::new(0.5, MemMb::new(100), MemMb::from_gb(20));
        let mut ctl = Controller::new(curve(), cfg);
        // Busy: 10 req/s → desired miss ratio 0.05 → hit 0.95 → big cache.
        let busy = ctl.observe(window(6000, 3000)).unwrap();
        // Quiet: 1 req/s → desired miss ratio 0.5 → hit 0.5 → small cache.
        let mut ctl2 = Controller::new(curve(), cfg);
        let quiet = ctl2.observe(window(600, 3000)).unwrap();
        assert!(busy > quiet, "busy {busy} should exceed quiet {quiet}");
    }

    #[test]
    fn capacity_clamped_to_range() {
        let cfg = ControllerConfig::new(0.001, MemMb::new(2000), MemMb::new(4000));
        let mut ctl = Controller::new(curve(), cfg);
        // Extremely high load → wants ~10GB but clamps to 4GB.
        let size = ctl.observe(window(600_000, 60_000)).unwrap();
        assert_eq!(size, MemMb::new(4000));
        // Zero arrivals → min capacity. (Observed miss speed 0 → full
        // error, so it acts and floors.)
        let mut idle = Controller::new(curve(), cfg);
        let size = idle.observe(window(0, 0));
        // error = |0 - target|/target = 1 > deadband → acts.
        assert_eq!(size, Some(MemMb::new(2000)));
    }

    #[test]
    fn ewma_smooths_rate_spikes() {
        let cfg = ControllerConfig::new(0.1, MemMb::new(100), MemMb::from_gb(20));
        let mut ctl = Controller::new(curve(), cfg);
        ctl.observe(window(600, 600));
        let first = ctl.smoothed_arrival_rate();
        ctl.observe(window(60_000, 600));
        let second = ctl.smoothed_arrival_rate();
        assert!(second > first);
        assert!(
            second < 100.0 * 0.5,
            "EWMA should damp the 100/s spike, got {second}"
        );
    }

    #[test]
    #[should_panic(expected = "target miss speed")]
    fn zero_target_rejected() {
        let cfg = ControllerConfig::new(0.0, MemMb::new(1), MemMb::new(2));
        let _ = Controller::new(curve(), cfg);
    }
}
