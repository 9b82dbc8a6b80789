//! Elastic vertical scaling with the controller in the loop (Figure 9).
//!
//! The simulation replays a trace against a GD-managed pool whose capacity
//! is adjusted every control period by the proportional [`Controller`]
//! (paper §5.2). The output is the Figure-9 data: the cache size over
//! time, the observed miss speed against the target, and the average
//! capacity (the paper reports a ~30 % reduction vs the conservative
//! static size).

use crate::engine::{self, Completions, Node};
use crate::invoker::Tally;
use crate::sim::{Server, SimConfig};
use faascache_core::container::ContainerId;
use faascache_core::function::FunctionId;
use faascache_core::policy::PolicyKind;
use faascache_trace::record::Trace;
use faascache_util::{MemMb, SimDuration, SimTime};

pub use crate::controller::{Controller, ControllerConfig, WindowStats};

/// Configuration of an elastic-scaling run.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Initial pool capacity.
    pub initial_capacity: MemMb,
    /// Keep-alive policy (the paper uses GD).
    pub policy: PolicyKind,
    /// Controller invocation period (paper: 10 minutes).
    pub control_period: SimDuration,
    /// Housekeeping tick interval.
    pub tick_interval: SimDuration,
}

impl ElasticConfig {
    /// Paper defaults: GD policy, 10-minute control period.
    pub fn new(initial_capacity: MemMb) -> Self {
        ElasticConfig {
            initial_capacity,
            policy: PolicyKind::GreedyDual,
            control_period: SimDuration::from_mins(10),
            tick_interval: SimDuration::from_secs(15),
        }
    }
}

/// One controller observation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticSample {
    /// Time of the control decision (seconds).
    pub time_secs: f64,
    /// Capacity after the decision (MB).
    pub capacity_mb: u64,
    /// Observed miss speed over the window (cold starts / s).
    pub miss_speed: f64,
    /// Observed arrival rate over the window (requests / s).
    pub arrival_rate: f64,
    /// Whether the controller resized this window.
    pub resized: bool,
}

/// Outcome of an elastic-scaling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticResult {
    /// Per-window samples.
    pub samples: Vec<ElasticSample>,
    /// Time-weighted average capacity across the run (MB).
    pub avg_capacity_mb: f64,
    /// The invoker's totals over the run.
    pub tally: Tally,
}

impl ElasticResult {
    /// Mean miss speed across the run.
    pub fn mean_miss_speed(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|s| s.miss_speed).sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Runs the controller-in-the-loop simulation.
///
/// The caller provides the controller (already configured with the
/// hit-ratio curve, target miss speed, and capacity bounds). Panics if
/// `config.tick_interval` or `config.control_period` is zero.
pub fn run_elastic(trace: &Trace, config: &ElasticConfig, controller: Controller) -> ElasticResult {
    let sim = SimConfig::new(config.initial_capacity, config.policy);
    let mut node = Elastic {
        server: Server::new(trace, &sim, config.policy.build()),
        controller,
        window_start: SimTime::ZERO,
        window_base: Tally::default(),
        samples: Vec::new(),
        weighted_capacity: 0.0,
        last_capacity_change: SimTime::ZERO,
    };
    let epoch = Some(config.control_period);
    engine::run(&mut node, trace, config.tick_interval, epoch);

    let end_time = trace.end_time();
    let pool = node.server.invoker.pool();
    let capacity = pool.capacity().as_mb() as f64;
    let avg_capacity_mb = if end_time > SimTime::ZERO {
        (node.weighted_capacity
            + capacity * end_time.since(node.last_capacity_change).as_secs_f64())
            / end_time.as_secs_f64()
    } else {
        capacity
    };
    ElasticResult {
        samples: node.samples,
        avg_capacity_mb,
        tally: node.server.invoker.totals(),
    }
}

/// The single-server simulation with the controller resizing its pool at
/// every control epoch.
struct Elastic<'a> {
    server: Server<'a>,
    controller: Controller,
    /// When the current window opened.
    window_start: SimTime,
    /// The invoker's totals when it opened.
    window_base: Tally,
    samples: Vec<ElasticSample>,
    /// Capacity × time up to `last_capacity_change`, for the average.
    weighted_capacity: f64,
    last_capacity_change: SimTime,
}

impl Node for Elastic<'_> {
    type Token = ContainerId;

    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<ContainerId>) {
        self.server.arrive(function, now, done);
    }

    fn complete(&mut self, id: ContainerId, at: SimTime, done: &mut Completions<ContainerId>) {
        self.server.complete(id, at, done);
    }

    fn tick(&mut self, now: SimTime, done: &mut Completions<ContainerId>) {
        self.server.tick(now, done);
    }

    fn epoch(&mut self, now: SimTime) {
        let totals = self.server.invoker.totals();
        let stats = WindowStats {
            arrivals: totals.total() - self.window_base.total(),
            cold: totals.cold - self.window_base.cold,
            window: now.since(self.window_start),
        };
        self.window_start = now;
        self.window_base = totals;
        let pool = self.server.invoker.pool_mut();
        let decision = self.controller.observe(stats);
        if let Some(new_capacity) = decision {
            if new_capacity != pool.capacity() {
                self.weighted_capacity += pool.capacity().as_mb() as f64
                    * now.since(self.last_capacity_change).as_secs_f64();
                self.last_capacity_change = now;
                pool.resize(new_capacity, now);
            }
        }
        self.samples.push(ElasticSample {
            time_secs: now.as_secs_f64(),
            capacity_mb: pool.capacity().as_mb(),
            miss_speed: stats.miss_speed(),
            arrival_rate: stats.arrival_rate(),
            resized: decision.is_some(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_analysis::hitratio::HitRatioCurve;
    use faascache_analysis::reuse::reuse_distances;
    use faascache_trace::adapt::{adapt, AdaptOptions};
    use faascache_trace::synth::{generate, SynthConfig};

    fn diurnal_trace() -> Trace {
        let d = generate(&SynthConfig {
            num_functions: 120,
            num_apps: 40,
            max_rate_per_min: 8.0,
            periodic_fraction: 0.2,
            diurnal_amplitude: 1.0,
            seed: 42,
            ..SynthConfig::default()
        });
        adapt(&d, &AdaptOptions::default())
    }

    fn controller_for(trace: &Trace, target: f64, min_gb: u64, max_gb: u64) -> Controller {
        let curve = HitRatioCurve::from_reuse(&reuse_distances(trace));
        Controller::new(
            curve,
            ControllerConfig::new(target, MemMb::from_gb(min_gb), MemMb::from_gb(max_gb)),
        )
    }

    #[test]
    fn controller_resizes_during_run() {
        let trace = diurnal_trace();
        let controller = controller_for(&trace, 0.02, 1, 16);
        let result = run_elastic(&trace, &ElasticConfig::new(MemMb::from_gb(10)), controller);
        assert!(!result.samples.is_empty());
        assert!(
            result.samples.iter().any(|s| s.resized),
            "controller never acted"
        );
        // Capacity varies over the day.
        let min = result.samples.iter().map(|s| s.capacity_mb).min().unwrap();
        let max = result.samples.iter().map(|s| s.capacity_mb).max().unwrap();
        assert!(max > min, "capacity never changed: {min}–{max}");
    }

    #[test]
    fn average_capacity_below_conservative_static() {
        let trace = diurnal_trace();
        let controller = controller_for(&trace, 0.05, 1, 10);
        let initial = MemMb::from_gb(10);
        let result = run_elastic(&trace, &ElasticConfig::new(initial), controller);
        assert!(
            result.avg_capacity_mb < 0.9 * initial.as_mb() as f64,
            "avg {} should undercut the static {} by more than 10%",
            result.avg_capacity_mb,
            initial.as_mb()
        );
    }

    #[test]
    fn accounting_is_consistent() {
        let trace = diurnal_trace();
        let controller = controller_for(&trace, 0.02, 1, 16);
        let result = run_elastic(&trace, &ElasticConfig::new(MemMb::from_gb(8)), controller);
        assert_eq!(result.tally.total(), trace.len() as u64);
        let window_cold: u64 = result
            .samples
            .iter()
            .map(|s| (s.miss_speed * 600.0).round() as u64)
            .sum();
        // Window accounting can miss the tail after the last control point.
        assert!(window_cold <= result.tally.cold);
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::new(faascache_core::function::FunctionRegistry::new(), vec![]);
        let result = run_with(&trace, ElasticConfig::new(MemMb::from_gb(1)));
        assert!(result.samples.is_empty());
        assert_eq!(result.tally.cold, 0);
    }

    /// Runs with a controller sized for a 1 GB server.
    fn run_with(trace: &Trace, config: ElasticConfig) -> ElasticResult {
        let curve = HitRatioCurve::from_distances(&[100], 0);
        let controller = Controller::new(
            curve,
            ControllerConfig::new(0.1, MemMb::new(100), MemMb::from_gb(1)),
        );
        run_elastic(trace, &config, controller)
    }

    #[test]
    #[should_panic(expected = "zero control period")]
    fn zero_control_period_is_refused() {
        let trace = faascache_trace::workloads::skewed_frequency(SimDuration::from_mins(1));
        let config = ElasticConfig {
            control_period: SimDuration::ZERO,
            ..ElasticConfig::new(MemMb::from_gb(1))
        };
        run_with(&trace.unwrap(), config);
    }
}
