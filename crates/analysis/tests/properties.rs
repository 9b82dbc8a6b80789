//! Property-based tests of reuse distances and hit-ratio curves
//! (proptest).

use faascache_analysis::hitratio::HitRatioCurve;
use faascache_analysis::reuse::{reuse_distances, reuse_distances_naive};
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_trace::record::{Invocation, Trace};
use faascache_util::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;

/// A random workload: reuse distances depend only on the functions'
/// sizes (MB) and the order of the arrivals, one millisecond apart.
#[derive(Debug, Clone)]
struct RandomWorkload {
    sizes: Vec<u16>,
    arrivals: Vec<usize>,
}

impl RandomWorkload {
    fn to_trace(&self) -> Trace {
        let mut reg = FunctionRegistry::new();
        let ids: Vec<FunctionId> = (self.sizes.iter().enumerate())
            .map(|(i, &mb)| {
                let mem = MemMb::new(mb as u64 + 1);
                reg.register(format!("f{i}"), mem, SimDuration::ZERO, SimDuration::ZERO)
                    .expect("valid function")
            })
            .collect();
        let invocations = (self.arrivals.iter().enumerate())
            .map(|(ms, &f)| Invocation {
                time: SimTime::from_millis(ms as u64),
                function: ids[f],
            })
            .collect();
        Trace::new(reg, invocations)
    }
}

fn workload_strategy(max_fns: usize, max_arrivals: usize) -> impl Strategy<Value = RandomWorkload> {
    (1..=max_fns).prop_flat_map(move |n| {
        (
            prop::collection::vec(1u16..2048, n),
            prop::collection::vec(0usize..n, 1..=max_arrivals),
        )
            .prop_map(|(sizes, arrivals)| RandomWorkload { sizes, arrivals })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Fenwick reuse-distance algorithm agrees with the paper's naive
    /// scan on arbitrary traces.
    #[test]
    fn reuse_distance_implementations_agree(w in workload_strategy(10, 250)) {
        let trace = w.to_trace();
        prop_assert_eq!(reuse_distances(&trace), reuse_distances_naive(&trace));
    }

    /// Hit-ratio curves are monotone, bounded, and consistent with their
    /// inverse.
    #[test]
    fn hit_ratio_curve_invariants(w in workload_strategy(10, 250), target in 0.0f64..1.0) {
        let trace = w.to_trace();
        let curve = HitRatioCurve::from_reuse(&reuse_distances(&trace));
        let mut prev = 0.0;
        for gb in 0..20u64 {
            let h = curve.hit_ratio(MemMb::from_gb(gb));
            prop_assert!((0.0..=1.0).contains(&h));
            prop_assert!(h + 1e-12 >= prev, "curve decreased");
            prev = h;
        }
        if let Some(size) = curve.size_for_hit_ratio(target) {
            prop_assert!(curve.hit_ratio(size) + 1e-12 >= target.min(curve.max_hit_ratio()));
        } else {
            prop_assert!(target > curve.max_hit_ratio());
        }
    }
}
