//! Property-based tests for the keep-alive core.

#![cfg(test)]

use crate::function::FunctionRegistry;
use crate::policy::{GreedyDual, HistConfig, IatHistogram, Landlord, PolicyKind};
use crate::pool::{Acquire, ContainerPool};
use faascache_util::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;

/// A scripted pool workload: functions and an arrival schedule. Each
/// arrival runs to completion `hold_ms` later; completions are applied
/// before the next arrival when due.
#[derive(Debug, Clone)]
struct PoolScript {
    sizes: Vec<u16>,
    init_ms: Vec<u16>,
    arrivals: Vec<(usize, u16, u16)>, // (fn, gap_ms, hold_ms)
}

fn script_strategy() -> impl Strategy<Value = PoolScript> {
    (1usize..=8).prop_flat_map(|n| {
        (
            prop::collection::vec(1u16..1024, n),
            prop::collection::vec(0u16..5000, n),
            prop::collection::vec((0usize..n, 0u16..5000, 1u16..5000), 1..150),
        )
            .prop_map(|(sizes, init_ms, arrivals)| PoolScript {
                sizes,
                init_ms,
                arrivals,
            })
    })
}

fn run_script(pool: &mut ContainerPool, script: &PoolScript) -> (u64, u64, u64) {
    run_script_checked(pool, script, |_, _| {})
}

/// [`run_script`], calling `after_op(pool, function ids)` after every
/// release and every acquire.
fn run_script_checked(
    pool: &mut ContainerPool,
    script: &PoolScript,
    mut after_op: impl FnMut(&ContainerPool, &[crate::function::FunctionId]),
) -> (u64, u64, u64) {
    let mut reg = FunctionRegistry::new();
    let ids: Vec<_> = script
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            reg.register(
                format!("f{i}"),
                MemMb::new(s as u64),
                SimDuration::from_millis(1),
                SimDuration::from_millis(1 + script.init_ms[i] as u64),
            )
            .unwrap()
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut running: Vec<(SimTime, crate::container::ContainerId)> = Vec::new();
    let (mut warm, mut cold, mut dropped) = (0u64, 0u64, 0u64);
    for &(f, gap, hold) in &script.arrivals {
        now += SimDuration::from_millis(gap as u64);
        running.retain(|&(until, id)| {
            if until <= now {
                pool.release(id, until);
                after_op(pool, &ids);
                false
            } else {
                true
            }
        });
        match pool.acquire(reg.spec(ids[f % ids.len()]), now) {
            Acquire::Warm { container } => {
                warm += 1;
                running.push((now + SimDuration::from_millis(hold as u64), container));
            }
            Acquire::Cold { container, .. } => {
                cold += 1;
                running.push((now + SimDuration::from_millis(hold as u64), container));
            }
            Acquire::NoCapacity => dropped += 1,
        }
        after_op(pool, &ids);
    }
    (warm, cold, dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Memory accounting is exact for every policy: `used_mem` equals the
    /// sum of resident container sizes at all times, and never exceeds
    /// capacity.
    #[test]
    fn pool_accounting_is_exact(
        script in script_strategy(),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        capacity_mb in 64u64..8192,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let mut pool = ContainerPool::new(MemMb::new(capacity_mb), kind.build());
        let (warm, cold, dropped) = run_script(&mut pool, &script);
        prop_assert_eq!(warm + cold + dropped, script.arrivals.len() as u64);
        let resident: MemMb = pool.containers().map(|c| c.mem()).sum();
        prop_assert_eq!(resident, pool.used_mem());
        prop_assert!(pool.used_mem() <= MemMb::new(capacity_mb));
        let counters = pool.counters();
        prop_assert_eq!(counters.warm_starts, warm);
        prop_assert_eq!(counters.cold_starts, cold);
        prop_assert_eq!(counters.drops, dropped);
    }

    /// The idle index agrees with the containers themselves after every
    /// operation, for every policy: the per-function warm counts add up to
    /// the pool-wide one and each equals the idle containers of that
    /// function, and `warm_mem` is the memory of the idle containers.
    #[test]
    fn idle_index_matches_containers_after_every_op(
        script in script_strategy(),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        capacity_mb in 64u64..8192,
    ) {
        let kind = PolicyKind::ALL[policy_idx];
        let mut pool = ContainerPool::new(MemMb::new(capacity_mb), kind.build());
        run_script_checked(&mut pool, &script, |pool, ids| {
            let per_fn: usize = ids.iter().map(|&f| pool.warm_count_of(f)).sum();
            assert_eq!(per_fn, pool.warm_count(), "{kind}");
            for &f in ids {
                let idle_of_f = pool
                    .containers()
                    .filter(|c| c.is_idle() && c.function() == f)
                    .count();
                assert_eq!(pool.warm_count_of(f), idle_of_f, "{kind} {f}");
            }
            let idle_mem: MemMb = pool
                .containers()
                .filter(|c| c.is_idle())
                .map(|c| c.mem())
                .sum();
            assert_eq!(pool.warm_mem(), idle_mem, "{kind}");
            assert_eq!(pool.idle_ids().count(), pool.warm_count(), "{kind}");
        });
    }

    /// The GD logical clock never decreases, and the priority of any
    /// resident container is at least the clock (it was touched at some
    /// clock value ≤ the current one, plus a non-negative bonus)…
    /// precisely: priority ≥ its captured clock snapshot ≥ 0.
    #[test]
    fn gd_clock_monotone_and_priorities_finite(script in script_strategy(), capacity_mb in 64u64..4096) {
        let mut pool = ContainerPool::new(
            MemMb::new(capacity_mb),
            Box::new(GreedyDual::new()),
        );
        let _ = run_script(&mut pool, &script);
        for c in pool.containers() {
            let p = pool.policy().priority_of(c).expect("GD is priority-based");
            prop_assert!(p.is_finite() && p >= 0.0, "priority {p}");
        }
    }

    /// Landlord credits stay within [0, cost] for resident containers.
    #[test]
    fn landlord_credits_bounded(script in script_strategy(), capacity_mb in 64u64..4096) {
        let mut pool = ContainerPool::new(MemMb::new(capacity_mb), Box::new(Landlord::new()));
        let _ = run_script(&mut pool, &script);
        for c in pool.containers() {
            if let Some(credit) = pool.policy().priority_of(c) {
                let cost = c.init_overhead().as_secs_f64().max(1e-9);
                prop_assert!(
                    credit >= -1e-9 && credit <= cost + 1e-9,
                    "credit {credit} outside [0, {cost}]"
                );
            }
        }
    }

    /// HIST's percentile bucket never decreases as the quantile grows.
    #[test]
    fn histogram_percentile_monotone_in_q(
        values in prop::collection::vec(0.0f64..100.0, 1..100),
    ) {
        let mut h = IatHistogram::new(HistConfig {
            bucket_width: SimDuration::from_mins(1),
            num_buckets: 128,
            ..HistConfig::default()
        });
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0usize;
        for step in 0..=10 {
            let b = h.percentile_bucket(step as f64 / 10.0);
            prop_assert!(b >= prev, "percentile bucket decreased");
            prev = b;
        }
    }

    /// HIST's percentile bucket against the plain definition, for a pair
    /// of quantiles: the first bucket at which the cumulative in-range
    /// count reaches `ceil(q × in-range)`, at least 1; the last bucket
    /// when none does.
    #[test]
    fn histogram_percentile_pair_matches_the_definition(
        values in prop::collection::vec(0.0f64..160.0, 0..100),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let num_buckets = 128;
        let mut h = IatHistogram::new(HistConfig {
            bucket_width: SimDuration::from_mins(1),
            num_buckets,
            ..HistConfig::default()
        });
        for &v in &values {
            h.record(v);
        }
        let by_definition = |q: f64| {
            let in_range = h.count() - h.overflow_count();
            let target = (q * in_range as f64).ceil().max(1.0) as u64;
            let mut cum = 0;
            h.counts()
                .iter()
                .position(|&c| {
                    cum += c;
                    in_range > 0 && cum >= target
                })
                .unwrap_or(num_buckets - 1)
        };
        prop_assert_eq!(h.percentile_bucket(a), by_definition(a));
        prop_assert_eq!(h.percentile_bucket(b), by_definition(b));
    }

    /// Registry validation holds under arbitrary inputs.
    #[test]
    fn registry_rejects_invalid_specs(mem in 0u64..4, warm_ms in 0u64..100, cold_ms in 0u64..100) {
        let mut reg = FunctionRegistry::new();
        let result = reg.register(
            "f",
            MemMb::new(mem),
            SimDuration::from_millis(warm_ms),
            SimDuration::from_millis(cold_ms),
        );
        if mem == 0 || warm_ms > cold_ms {
            prop_assert!(result.is_err());
        } else {
            prop_assert!(result.is_ok());
        }
    }
}
