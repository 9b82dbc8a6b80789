//! Differential tests for the indexed eviction hot path.
//!
//! Every keep-alive policy ships in two modes: the default incremental
//! mode (`PolicyKind::build`) and the retained naive scan-and-sort
//! reference (`PolicyKind::build_naive`). These tests drive two pools —
//! one per mode — through identical randomized workloads covering the
//! whole pool surface (acquire, release, reap, prewarm, resize) and
//! assert byte-identical behavior: the same acquire outcomes including
//! the evicted-victim sequences, the same reap and resize results, and
//! the same counters and memory accounting at the end.
//!
//! Memory sizes and cold-start times are drawn from power-of-two-friendly
//! sets so that Landlord's credit arithmetic (`cost / size`) is exactly
//! representable: the incremental offset encoding and the naive iterative
//! rent rounds then agree bit-for-bit, not merely approximately.

use faascache_core::container::ContainerId;
use faascache_core::function::FunctionRegistry;
use faascache_core::policy::PolicyKind;
use faascache_core::pool::{Acquire, ContainerPool, PoolConfig};
use faascache_util::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;

/// Memory footprints (MB): powers of two.
const MEM_CHOICES: [u64; 4] = [64, 128, 256, 512];
/// Cold-start times (ms) whose init overhead (cold − warm = cold / 2) is
/// an exact binary fraction of a second: 0.125, 0.25, 0.5, 1.0.
const COLD_CHOICES: [u64; 4] = [250, 500, 1000, 2000];

#[derive(Debug, Clone)]
struct Workload {
    /// Per-function (mem MB, cold ms).
    functions: Vec<(u64, u64)>,
    /// (function index, inter-arrival gap ms, hold ms).
    arrivals: Vec<(usize, u16, u16)>,
    capacity_mb: u64,
    batch_mb: u64,
    /// Run reap/prewarm maintenance every this many arrivals.
    maintenance_every: usize,
    /// Mid-run shrink target; 0 disables the resize.
    resize_to_mb: u64,
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (1usize..=6).prop_flat_map(|n| {
        (
            prop::collection::vec((0usize..4, 0usize..4), n),
            prop::collection::vec((0usize..n, 0u16..3000, 1u16..2000), 1..120),
            (1u64..=4, 0usize..3, 2usize..20, 0u64..2048),
        )
            .prop_map(
                |(choices, arrivals, (cap_units, batch_idx, every, resize_to))| Workload {
                    functions: choices
                        .into_iter()
                        .map(|(m, c)| (MEM_CHOICES[m], COLD_CHOICES[c]))
                        .collect(),
                    arrivals,
                    capacity_mb: cap_units * 512,
                    batch_mb: [0u64, 256, 1000][batch_idx],
                    maintenance_every: every,
                    resize_to_mb: resize_to,
                },
            )
    })
}

/// Drives an incremental and a naive pool of `kind` through `w` in
/// lockstep, asserting identical observable behavior at every step.
fn assert_modes_agree(kind: PolicyKind, w: &Workload) {
    let mut reg = FunctionRegistry::new();
    let ids: Vec<_> = w
        .functions
        .iter()
        .enumerate()
        .map(|(i, &(mem, cold))| {
            reg.register(
                format!("f{i}"),
                MemMb::new(mem),
                SimDuration::from_millis(cold / 2),
                SimDuration::from_millis(cold),
            )
            .unwrap()
        })
        .collect();
    let config =
        PoolConfig::new(MemMb::new(w.capacity_mb)).with_eviction_batch(MemMb::new(w.batch_mb));
    let mut fast = ContainerPool::with_config(config, kind.build());
    let mut slow = ContainerPool::with_config(config, kind.build_naive());
    prop_assert!(fast.policy().supports_incremental(), "{kind:?}");
    prop_assert!(!slow.policy().supports_incremental(), "{kind:?}");

    let mut now = SimTime::ZERO;
    // Outcomes are asserted identical, so one schedule serves both pools.
    let mut running: Vec<(SimTime, ContainerId)> = Vec::new();
    let mut resized = false;
    for (step, &(f, gap, hold)) in w.arrivals.iter().enumerate() {
        now += SimDuration::from_millis(gap as u64);
        running.retain(|&(until, id)| {
            if until <= now {
                fast.release(id, until);
                slow.release(id, until);
                false
            } else {
                true
            }
        });
        if step % w.maintenance_every == w.maintenance_every - 1 {
            let reaped_fast = fast.reap(now);
            let reaped_slow = slow.reap(now);
            prop_assert_eq!(
                &reaped_fast,
                &reaped_slow,
                "{:?}: reap diverged at {}",
                kind,
                step
            );
            let due_fast = fast.prewarm_due(now);
            let due_slow = slow.prewarm_due(now);
            prop_assert_eq!(
                &due_fast,
                &due_slow,
                "{:?}: prewarm_due diverged at {}",
                kind,
                step
            );
            for fid in due_fast {
                let a = fast.prewarm(reg.spec(fid), now);
                let b = slow.prewarm(reg.spec(fid), now);
                prop_assert_eq!(a, b, "{:?}: prewarm diverged at {}", kind, step);
            }
            if !resized && w.resize_to_mb > 0 && step >= w.arrivals.len() / 2 {
                resized = true;
                let ev_fast = fast.resize(MemMb::new(w.resize_to_mb), now);
                let ev_slow = slow.resize(MemMb::new(w.resize_to_mb), now);
                prop_assert_eq!(
                    &ev_fast,
                    &ev_slow,
                    "{:?}: resize diverged at {}",
                    kind,
                    step
                );
            }
        }
        let spec = reg.spec(ids[f % ids.len()]);
        let a = fast.acquire(spec, now);
        let b = slow.acquire(spec, now);
        prop_assert_eq!(&a, &b, "{:?}: acquire diverged at step {}", kind, step);
        match a {
            Acquire::Warm { container } | Acquire::Cold { container, .. } => {
                running.push((now + SimDuration::from_millis(hold as u64), container));
            }
            Acquire::NoCapacity => {}
        }
    }
    prop_assert_eq!(
        fast.counters(),
        slow.counters(),
        "{:?}: counters diverged",
        kind
    );
    prop_assert_eq!(fast.used_mem(), slow.used_mem(), "{:?}", kind);
    prop_assert_eq!(fast.warm_mem(), slow.warm_mem(), "{:?}", kind);
    prop_assert_eq!(fast.warm_count(), slow.warm_count(), "{:?}", kind);
}

/// Case 3350 of the property below at 4,096 cases, which failed under GD
/// (step 47: incremental evicted `[2, 5]`, naive `[2]`): the shrink to
/// 807 MB leaves running containers holding more than the new capacity,
/// and the naive `make_room` took its shortfall from the saturated-zero
/// `free_mem()`, so it stopped short of the batch target the incremental
/// loop (and paper §6) frees to.
#[test]
fn overcommitted_pool_still_frees_to_the_batch_target() {
    let w = Workload {
        functions: vec![(256, 500), (512, 1000)],
        arrivals: vec![
            (0, 2773, 1501),
            (1, 298, 1013),
            (1, 636, 264),
            (1, 2239, 605),
            (1, 898, 528),
            (0, 852, 405),
            (1, 2679, 327),
            (1, 973, 423),
            (1, 2396, 175),
            (1, 1150, 287),
            (1, 2448, 879),
            (0, 294, 1909),
            (0, 2567, 1246),
            (1, 124, 541),
            (1, 564, 1594),
            (0, 2996, 1765),
            (1, 2132, 1181),
            (0, 506, 1004),
            (0, 2499, 1004),
            (1, 799, 674),
            (1, 914, 1032),
            (0, 2360, 736),
            (1, 1324, 1620),
            (1, 1272, 1794),
            (0, 1433, 1947),
            (0, 383, 1554),
            (1, 238, 1592),
            (0, 1655, 769),
            (0, 1406, 257),
            (1, 290, 384),
            (1, 1778, 511),
            (0, 348, 1638),
            (1, 2753, 1040),
            (0, 2486, 1233),
            (0, 2305, 347),
            (0, 1917, 97),
            (1, 772, 1164),
            (0, 2653, 997),
            (0, 2286, 505),
            (0, 780, 230),
            (1, 1655, 198),
            (0, 473, 420),
            (1, 1998, 707),
            (1, 42, 1171),
            (1, 281, 429),
            (1, 1841, 1800),
            (1, 2494, 18),
            (0, 752, 1118),
            (1, 1150, 1750),
            (1, 1560, 966),
            (1, 2453, 1287),
            (1, 2237, 410),
            (0, 786, 1328),
            (0, 1402, 1277),
            (1, 1695, 709),
            (1, 1913, 709),
            (1, 561, 1693),
            (1, 6, 713),
            (1, 2868, 635),
            (0, 1991, 254),
            (0, 299, 1902),
            (1, 522, 177),
            (1, 2881, 785),
            (1, 1371, 696),
        ],
        capacity_mb: 1024,
        batch_mb: 256,
        maintenance_every: 15,
        resize_to_mb: 807,
    };
    for kind in PolicyKind::ALL {
        assert_modes_agree(kind, &w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The incremental indexes pick byte-identical victim sequences to
    /// the naive scan-and-sort reference — for every policy, across the
    /// full pool lifecycle.
    #[test]
    fn incremental_policies_match_naive_reference(w in workload_strategy()) {
        for kind in PolicyKind::ALL {
            assert_modes_agree(kind, &w);
        }
    }
}
