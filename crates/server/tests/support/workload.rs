//! The workload the conformance and cluster suites replay.

use faascache_server::WorkloadConfig;
use faascache_trace::replay::OpenLoopSchedule;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// 32 functions, seed 11, ten minutes, scheduled at 10,000 requests/s;
/// identical for every caller, so it is built once. A `faascached` child
/// serves it when given the same `--functions` and `--seed`.
pub fn shared_schedule() -> &'static (WorkloadConfig, OpenLoopSchedule) {
    static SCHED: OnceLock<(WorkloadConfig, OpenLoopSchedule)> = OnceLock::new();
    SCHED.get_or_init(|| {
        let workload = WorkloadConfig {
            functions: NonZeroUsize::new(32).unwrap(),
            seed: 11,
            horizon_mins: 10,
            ..WorkloadConfig::default()
        };
        let trace = workload.build();
        (workload, OpenLoopSchedule::from_trace(&trace, 10_000.0))
    })
}
