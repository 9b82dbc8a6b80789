//! Results collected by a simulation run.

use faascache_util::stats::LatencySummary;
use faascache_util::{MemMb, SimDuration};

/// Per-function invocation outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionOutcome {
    /// Invocations served warm.
    pub warm: u64,
    /// Invocations served cold.
    pub cold: u64,
    /// Invocations dropped for lack of memory.
    pub dropped: u64,
    /// Sum of startup delays (queue wait + cold-start initialization) over
    /// served invocations, in microseconds.
    pub delay_sum_us: u64,
    /// Worst startup delay of any served invocation, in microseconds.
    pub delay_max_us: u64,
}

impl FunctionOutcome {
    /// Total invocations of the function.
    pub fn total(&self) -> u64 {
        self.warm + self.cold + self.dropped
    }

    /// Warm-start (hit) ratio among all invocations.
    pub fn hit_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.warm as f64 / t as f64
        }
    }

    /// Records a served invocation's startup delay.
    pub fn record_delay(&mut self, delay: SimDuration) {
        self.delay_sum_us = self.delay_sum_us.saturating_add(delay.as_micros());
        self.delay_max_us = self.delay_max_us.max(delay.as_micros());
    }

    /// Mean startup delay over served invocations, in milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        let served = self.warm + self.cold;
        if served == 0 {
            0.0
        } else {
            self.delay_sum_us as f64 / served as f64 / 1e3
        }
    }
}

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
    pub per_function: Vec<FunctionOutcome>,
    /// Cold starts per minute of simulated time.
    pub cold_per_minute: Vec<u32>,
    /// Pool memory in use, sampled at every tick `(secs, used_mb)`.
    pub mem_timeline: Vec<(f64, u64)>,
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

    /// Mean cold starts per second over the run.
    pub fn miss_speed(&self) -> f64 {
        let mins = self.cold_per_minute.len() as f64;
        if mins == 0.0 {
            0.0
        } else {
            self.cold as f64 / (mins * 60.0)
        }
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
            per_function: vec![FunctionOutcome {
                warm: 80,
                cold: 15,
                dropped: 5,
                delay_sum_us: 0,
                delay_max_us: 0,
            }],
            cold_per_minute: vec![5, 10, 0],
            mem_timeline: vec![],
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
        assert!((r.miss_speed() - 15.0 / 180.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let r = SimResult {
            invocations: 0,
            warm: 0,
            cold: 0,
            dropped: 0,
            total_warm_exec: SimDuration::ZERO,
            cold_per_minute: vec![],
            ..result()
        };
        assert_eq!(r.pct_increase_exec_time(), 0.0);
        assert_eq!(r.pct_cold(), 0.0);
        assert_eq!(r.hit_ratio(), 0.0);
        assert_eq!(r.miss_speed(), 0.0);
    }

    #[test]
    fn function_outcome_ratios() {
        let f = FunctionOutcome {
            warm: 3,
            cold: 1,
            dropped: 0,
            delay_sum_us: 0,
            delay_max_us: 0,
        };
        assert_eq!(f.total(), 4);
        assert!((f.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(FunctionOutcome::default().hit_ratio(), 0.0);
    }

    #[test]
    fn function_outcome_delay_accounting() {
        let mut f = FunctionOutcome {
            warm: 1,
            cold: 1,
            ..FunctionOutcome::default()
        };
        f.record_delay(SimDuration::from_millis(500));
        f.record_delay(SimDuration::from_millis(100));
        assert_eq!(f.delay_sum_us, 600_000);
        assert_eq!(f.delay_max_us, 500_000);
        assert!((f.mean_delay_ms() - 300.0).abs() < 1e-12);
        assert_eq!(FunctionOutcome::default().mean_delay_ms(), 0.0);
    }
}
