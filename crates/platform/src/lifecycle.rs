//! The cold-start timeline of Figure 1.
//!
//! For an ML-inference invocation OpenWhisk spends ~8 s end to end:
//!
//! ```text
//! | pool check | Akka/Docker startup 0.45s | OW runtime init 1.5s + 0.76s |
//! | explicit init 1.9s | function execution 4.3s |
//! ```
//!
//! The phase model splits a function's cold time into platform-fixed
//! phases (pool check, container launch, runtime init) and the
//! function-specific explicit initialization, with execution last.

use faascache_core::function::FunctionSpec;
use faascache_util::SimDuration;
use std::fmt;

/// A cold-start phase, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Checking the warm container pool for a hit.
    PoolCheck,
    /// Launching the container (Akka scheduling + Docker startup).
    ContainerLaunch,
    /// Initializing the OpenWhisk + language runtime inside the container.
    RuntimeInit,
    /// Function-specific explicit initialization (imports, model download).
    ExplicitInit,
    /// Executing the function body.
    Execution,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::PoolCheck,
        Phase::ContainerLaunch,
        Phase::RuntimeInit,
        Phase::ExplicitInit,
        Phase::Execution,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::PoolCheck => "container pool check",
            Phase::ContainerLaunch => "Akka/Docker startup",
            Phase::RuntimeInit => "OW runtime init",
            Phase::ExplicitInit => "explicit init",
            Phase::Execution => "function execution",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Platform-fixed phase durations, calibrated to Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseModel {
    /// Pool lookup latency.
    pub pool_check: SimDuration,
    /// Container (Docker) launch latency.
    pub container_launch: SimDuration,
    /// Runtime initialization latency (OpenWhisk + language runtime).
    pub runtime_init: SimDuration,
}

impl Default for PhaseModel {
    fn default() -> Self {
        PhaseModel {
            pool_check: SimDuration::from_millis(50),
            container_launch: SimDuration::from_millis(450),
            runtime_init: SimDuration::from_millis(2260), // 1.5s + 0.76s
        }
    }
}

impl PhaseModel {
    /// Builds the cold-start timeline for a function.
    ///
    /// The function's initialization overhead (`cold − warm`) covers
    /// container launch + runtime init + explicit init; whatever exceeds
    /// the platform-fixed phases is attributed to explicit init. Functions
    /// whose init overhead is *smaller* than the platform phases get the
    /// phases scaled down proportionally so the timeline still sums to the
    /// observed cold latency.
    pub fn timeline(&self, spec: &FunctionSpec) -> ColdStartTimeline {
        let init = spec.init_overhead();
        let fixed = self.container_launch + self.runtime_init;
        let (launch, runtime, explicit) = if init >= fixed {
            (self.container_launch, self.runtime_init, init - fixed)
        } else {
            let scale = init.as_secs_f64() / fixed.as_secs_f64().max(1e-12);
            (
                self.container_launch.mul_f64(scale),
                self.runtime_init.mul_f64(scale),
                SimDuration::ZERO,
            )
        };
        ColdStartTimeline {
            phases: vec![
                (Phase::PoolCheck, self.pool_check),
                (Phase::ContainerLaunch, launch),
                (Phase::RuntimeInit, runtime),
                (Phase::ExplicitInit, explicit),
                (Phase::Execution, spec.warm_time()),
            ],
        }
    }
}

/// A per-phase breakdown of one cold invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartTimeline {
    phases: Vec<(Phase, SimDuration)>,
}

impl ColdStartTimeline {
    /// The phases and their durations, in execution order.
    pub fn phases(&self) -> &[(Phase, SimDuration)] {
        &self.phases
    }

    /// Total end-to-end latency of the cold invocation.
    pub fn total(&self) -> SimDuration {
        self.phases.iter().map(|&(_, d)| d).sum()
    }

    /// Latency up to (excluding) execution — the user-visible cold-start
    /// overhead.
    pub fn overhead(&self) -> SimDuration {
        self.phases
            .iter()
            .filter(|&&(p, _)| p != Phase::Execution)
            .map(|&(_, d)| d)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::function::FunctionRegistry;
    use faascache_trace::apps;
    use faascache_util::MemMb;

    fn spec_for(profile: &apps::AppProfile) -> FunctionSpec {
        let mut reg = FunctionRegistry::new();
        let id = profile.register(&mut reg).unwrap();
        reg.spec(id).clone()
    }

    #[test]
    fn ml_inference_timeline_matches_figure_1() {
        let model = PhaseModel::default();
        let tl = model.timeline(&spec_for(&apps::ML_INFERENCE));
        // Total ≈ pool check + cold time = 0.05 + 6.5 ≈ 6.55 s; the figure's
        // ~8 s includes scheduling slack we fold into the pool check.
        assert_eq!(tl.total(), SimDuration::from_millis(6550));
        // Explicit init = 4.5 − (0.45 + 2.26) = 1.79 s ≈ the figure's 1.9 s.
        let explicit = tl
            .phases()
            .iter()
            .find(|&&(p, _)| p == Phase::ExplicitInit)
            .unwrap()
            .1;
        assert_eq!(explicit, SimDuration::from_millis(1790));
        // Overhead dominates execution for this app.
        assert!(tl.overhead() > SimDuration::from_secs(4));
    }

    #[test]
    fn phases_in_order_and_complete() {
        let model = PhaseModel::default();
        let tl = model.timeline(&spec_for(&apps::WEB_SERVING));
        let order: Vec<Phase> = tl.phases().iter().map(|&(p, _)| p).collect();
        assert_eq!(order, Phase::ALL.to_vec());
    }

    #[test]
    fn small_init_scales_platform_phases() {
        // A function with only 1 s init (< 2.71 s of platform phases).
        let mut reg = FunctionRegistry::new();
        let id = reg
            .register(
                "fast",
                MemMb::new(64),
                SimDuration::from_millis(100),
                SimDuration::from_millis(1100),
            )
            .unwrap();
        let tl = PhaseModel::default().timeline(reg.spec(id));
        let explicit = tl
            .phases()
            .iter()
            .find(|&&(p, _)| p == Phase::ExplicitInit)
            .unwrap()
            .1;
        assert_eq!(explicit, SimDuration::ZERO);
        // Timeline still sums to pool check + cold time.
        let expected = SimDuration::from_millis(50) + SimDuration::from_millis(1100);
        let diff = tl.total().as_secs_f64() - expected.as_secs_f64();
        assert!(diff.abs() < 0.002, "total {} vs {}", tl.total(), expected);
    }

    #[test]
    fn labels_are_human_readable() {
        for p in Phase::ALL {
            assert!(!p.label().is_empty());
            assert_eq!(p.to_string(), p.label());
        }
    }
}
