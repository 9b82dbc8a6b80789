//! Results collected by a simulation run.

use crate::invoker::Tally;
use faascache_util::stats::LatencySummary;
use faascache_util::{MemMb, SimDuration};

/// The outcome of one simulation run: one point of Figures 5/6.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// The policy label (`GD`, `TTL`, …).
    pub policy: String,
    /// Server memory used for the run.
    pub memory: MemMb,
    /// Total invocations replayed.
    pub invocations: u64,
    /// Warm starts.
    pub warm: u64,
    /// Cold starts.
    pub cold: u64,
    /// Dropped requests.
    pub dropped: u64,
    /// Containers evicted over the run.
    pub evictions: u64,
    /// Containers created by prefetching.
    pub prewarms: u64,
    /// Sum of initialization overheads actually incurred (cold starts).
    pub wasted_init: SimDuration,
    /// Sum of warm execution times over all served invocations.
    pub total_warm_exec: SimDuration,
    /// Startup-delay digest (queue wait + cold-start initialization) over
    /// served invocations — the virtual-time analogue of the latency
    /// percentiles `faas-load` reports for the live daemon.
    pub latency: LatencySummary,
    /// Per-function outcomes, indexed by function index.
    pub per_function: Vec<Tally>,
}

impl SimResult {
    /// Percentage increase in execution time due to cold starts — the
    /// y-axis of Figure 5: total incurred initialization overhead relative
    /// to the total warm execution time.
    pub fn pct_increase_exec_time(&self) -> f64 {
        let warm = self.total_warm_exec.as_secs_f64();
        if warm <= 0.0 {
            0.0
        } else {
            100.0 * self.wasted_init.as_secs_f64() / warm
        }
    }

    /// Percentage of invocations that were cold starts — the y-axis of
    /// Figure 6.
    pub fn pct_cold(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            100.0 * self.cold as f64 / self.invocations as f64
        }
    }

    /// Percentage of invocations dropped.
    pub fn pct_dropped(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            100.0 * self.dropped as f64 / self.invocations as f64
        }
    }

    /// Warm-start (cache hit) ratio across all invocations.
    pub fn hit_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.warm as f64 / self.invocations as f64
        }
    }

    /// Invocations actually served (warm + cold).
    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SimResult {
        SimResult {
            policy: "GD".into(),
            memory: MemMb::from_gb(10),
            invocations: 100,
            warm: 80,
            cold: 15,
            dropped: 5,
            evictions: 3,
            prewarms: 0,
            wasted_init: SimDuration::from_secs(30),
            total_warm_exec: SimDuration::from_secs(300),
            latency: LatencySummary::default(),
            per_function: vec![Tally {
                warm: 80,
                cold: 15,
                dropped: 5,
            }],
        }
    }

    #[test]
    fn derived_metrics() {
        let r = result();
        assert!((r.pct_increase_exec_time() - 10.0).abs() < 1e-12);
        assert!((r.pct_cold() - 15.0).abs() < 1e-12);
        assert!((r.pct_dropped() - 5.0).abs() < 1e-12);
        assert!((r.hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(r.served(), 95);
    }

    #[test]
    fn zero_division_guards() {
        let r = SimResult {
            invocations: 0,
            warm: 0,
            cold: 0,
            dropped: 0,
            total_warm_exec: SimDuration::ZERO,
            ..result()
        };
        assert_eq!(r.pct_increase_exec_time(), 0.0);
        assert_eq!(r.pct_cold(), 0.0);
        assert_eq!(r.hit_ratio(), 0.0);
    }

    #[test]
    fn function_outcome_ratios() {
        let f = Tally {
            warm: 3,
            cold: 1,
            dropped: 0,
        };
        assert_eq!(f.total(), 4);
        assert!((f.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(Tally::default().hit_ratio(), 0.0);
    }
}
