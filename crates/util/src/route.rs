//! Function-affinity request routing.
//!
//! The paper's §9 cluster discussion observes that "a stateful
//! load-balancing policy which runs a function on the same subset of
//! servers will result in better temporal locality, which in turn improves
//! keep-alive effectiveness". Both the offline cluster simulator
//! (`faascache-sim`) and the live sharded invoker (`faascache-platform`,
//! `faascache-server`) route on the same scheme: a stable avalanche hash
//! of the function id picks a home shard, so repeated invocations of one
//! function always land on the pool that holds its warm containers.
//!
//! The hash is SplitMix64's finalizer: deterministic across processes and
//! platforms (no per-process seeding), so a client and a daemon that agree
//! on the function registry also agree on the shard map.
//!
//! The cluster-level routing *policies* of the paper's §9 discussion live
//! here too: [`LoadBalancer`] and [`pick`] are the single implementation
//! shared by the offline cluster simulator (`faascache-sim`'s
//! `sim::cluster`) and the live `faas-router` process
//! (`faascache-server`'s `router` module), so the simulated and served
//! policies cannot drift apart. The live router adds one concern the
//! simulator never has, unhealthy servers, expressed as an input that,
//! when every server is healthy, reduces [`pick`] bit-for-bit to the
//! simulator's historical behavior. [`pick`]'s power-of-two `spill`
//! input is exercised only by its own unit test: every caller passes
//! `None`.

use crate::rng::Pcg64;

/// Stable 64-bit avalanche hash (SplitMix64 finalizer).
///
/// Deterministic across runs, processes and architectures — routing
/// decisions derived from it are reproducible everywhere.
///
/// # Examples
///
/// ```
/// use faascache_util::route::stable_hash;
/// assert_eq!(stable_hash(7), stable_hash(7));
/// assert_ne!(stable_hash(7), stable_hash(8));
/// ```
pub fn stable_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The home shard of a function among `shards` shards: function-affinity
/// routing (every invocation of one function goes to the same shard).
///
/// # Panics
///
/// Panics if `shards == 0`.
///
/// # Examples
///
/// ```
/// use faascache_util::route::shard_for;
/// let home = shard_for(42, 8);
/// assert!(home < 8);
/// assert_eq!(home, shard_for(42, 8)); // stable
/// ```
pub fn shard_for(function_index: u64, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    (stable_hash(function_index) % shards as u64) as usize
}

/// Salt deriving the *alternate* candidate shard from the same function
/// index: where [`pick`]'s affinity fails over when the home is
/// unhealthy. Any change to this constant re-homes every function's
/// alternate — the golden tests below pin it.
const ALT_SALT: u64 = 0xA076_1D64_78BD_642F;

/// The alternate candidate shard of a function: a second, independently
/// seeded choice guaranteed distinct from [`shard_for`] whenever
/// `shards > 1` (with one shard both candidates are 0).
///
/// [`pick`]'s affinity routes here when the home server is unhealthy.
///
/// # Panics
///
/// Panics if `shards == 0`.
///
/// # Examples
///
/// ```
/// use faascache_util::route::{alt_shard_for, shard_for};
/// let (home, alt) = (shard_for(42, 8), alt_shard_for(42, 8));
/// assert_ne!(home, alt);
/// assert_eq!(alt, alt_shard_for(42, 8)); // stable
/// ```
pub fn alt_shard_for(function_index: u64, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    if shards == 1 {
        return 0;
    }
    let home = shard_for(function_index, shards) as u64;
    // A seeded offset in 1..shards keeps the alternate off the home shard.
    let step = stable_hash(function_index ^ ALT_SALT) % (shards as u64 - 1);
    ((home + 1 + step) % shards as u64) as usize
}

/// Both candidate shards of a function: `(home, alternate)`.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_candidates(function_index: u64, shards: usize) -> (usize, usize) {
    (
        shard_for(function_index, shards),
        alt_shard_for(function_index, shards),
    )
}

/// Cluster-level request routing policies.
///
/// The paper's §9 analysis contrasts "randomized load-balancing"
/// (simple, scalable, poor temporal locality) with "a stateful
/// load-balancing policy which runs a function on the same subset of
/// servers" (better locality, hence better keep-alive effectiveness).
/// One enum drives both the cluster simulator and the live router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalancer {
    /// Uniform random server per invocation.
    Random,
    /// Strict rotation across servers.
    RoundRobin,
    /// The server with the smallest current load (ties to lowest index).
    LeastLoaded,
    /// Hash each function to a fixed home server (maximum locality),
    /// failing over to the alternate candidate while the home is
    /// unhealthy.
    FunctionAffinity,
}

impl LoadBalancer {
    /// All routing policies.
    pub const ALL: [LoadBalancer; 4] = [
        LoadBalancer::Random,
        LoadBalancer::RoundRobin,
        LoadBalancer::LeastLoaded,
        LoadBalancer::FunctionAffinity,
    ];

    /// Short label for tables and the `--balancer` flag.
    pub fn label(self) -> &'static str {
        match self {
            LoadBalancer::Random => "random",
            LoadBalancer::RoundRobin => "round-robin",
            LoadBalancer::LeastLoaded => "least-loaded",
            LoadBalancer::FunctionAffinity => "affinity",
        }
    }
}

impl std::str::FromStr for LoadBalancer {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(LoadBalancer::Random),
            "round-robin" => Ok(LoadBalancer::RoundRobin),
            "least-loaded" => Ok(LoadBalancer::LeastLoaded),
            "affinity" => Ok(LoadBalancer::FunctionAffinity),
            other => Err(format!(
                "unknown balancer {other:?} (random|round-robin|least-loaded|affinity)"
            )),
        }
    }
}

impl std::fmt::Display for LoadBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Mutable routing state a [`LoadBalancer`] carries between picks: the
/// round-robin cursor and the randomized policy's RNG. One seed fully
/// determines the pick sequence, so a simulator run and a live router
/// replaying the same arrivals make identical decisions.
#[derive(Debug, Clone)]
pub struct BalancerState {
    rr: usize,
    rng: Pcg64,
}

impl BalancerState {
    /// Fresh state; `seed` drives [`LoadBalancer::Random`]'s draws.
    pub fn new(seed: u64) -> Self {
        BalancerState {
            rr: 0,
            rng: Pcg64::seed_from_u64(seed),
        }
    }
}

/// Picks the server for one invocation of `function_index` among
/// `servers` servers, or `None` if no server passes `healthy`.
///
/// `load` reports a server's current load (running containers in the
/// simulator, in-flight forwards in the router) and is consulted by
/// [`LoadBalancer::LeastLoaded`]; `healthy` gates every policy's choice
/// (the simulator passes `|_| true`). `spill: Some(watermark)` would
/// divert [`LoadBalancer::FunctionAffinity`] to the alternate candidate
/// when the home server is above the watermark and the alternate is
/// strictly less loaded; no caller but this module's test passes
/// anything but `None`.
///
/// With every server healthy and `spill: None`, each policy's choice is
/// exactly the historical `sim::cluster` behavior: one RNG draw for
/// Random, a pre-incremented cursor for RoundRobin (the first pick is
/// server 1), `(load, index)`-minimum for LeastLoaded, and
/// [`shard_for`] for FunctionAffinity.
///
/// # Panics
///
/// Panics if `servers == 0`.
pub fn pick(
    balancer: LoadBalancer,
    state: &mut BalancerState,
    servers: usize,
    function_index: u64,
    mut load: impl FnMut(usize) -> u64,
    mut healthy: impl FnMut(usize) -> bool,
    spill: Option<u64>,
) -> Option<usize> {
    assert!(servers > 0, "need at least one server");
    match balancer {
        LoadBalancer::Random => {
            // One draw regardless of health, so the draw sequence (and
            // thus determinism vs the simulator) is independent of
            // ejections; an unhealthy draw scans forward to the next
            // healthy server.
            let draw = state.rng.next_below(servers as u64) as usize;
            (0..servers)
                .map(|step| (draw + step) % servers)
                .find(|&s| healthy(s))
        }
        LoadBalancer::RoundRobin => {
            for _ in 0..servers {
                state.rr = (state.rr + 1) % servers;
                if healthy(state.rr) {
                    return Some(state.rr);
                }
            }
            None
        }
        LoadBalancer::LeastLoaded => (0..servers)
            .filter(|&s| healthy(s))
            .map(|s| ((load(s), s), s))
            .min_by_key(|&(key, _)| key)
            .map(|(_, s)| s),
        LoadBalancer::FunctionAffinity => {
            let (home, alt) = shard_candidates(function_index, servers);
            let mut chosen = home;
            if let Some(watermark) = spill {
                if healthy(home) && healthy(alt) && load(home) > watermark && load(alt) < load(home)
                {
                    chosen = alt;
                }
            }
            if healthy(chosen) {
                return Some(chosen);
            }
            let other = if chosen == home { alt } else { home };
            if healthy(other) {
                return Some(other);
            }
            // Both candidates are out: deterministic scan from the home
            // server so every router instance re-routes identically.
            (1..servers)
                .map(|step| (home + step) % servers)
                .find(|&s| healthy(s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spreading() {
        let a: Vec<u64> = (0..64).map(stable_hash).collect();
        let b: Vec<u64> = (0..64).map(stable_hash).collect();
        assert_eq!(a, b);
        // All 64 small inputs map to distinct outputs.
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 64);
    }

    #[test]
    fn shard_for_covers_all_shards() {
        let shards = 8;
        let mut hit = vec![false; shards];
        for f in 0..1000u64 {
            hit[shard_for(f, shards)] = true;
        }
        assert!(hit.iter().all(|&h| h), "1000 functions cover 8 shards");
    }

    #[test]
    fn shard_for_is_reasonably_balanced() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for f in 0..10_000u64 {
            counts[shard_for(f, shards)] += 1;
        }
        for &c in &counts {
            // Within ±20 % of the 2500 mean.
            assert!((2000..=3000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for f in 0..100u64 {
            assert_eq!(shard_for(f, 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = shard_for(0, 0);
    }

    /// Golden pin: the routing hash must never change.
    ///
    /// Warm sets live on the shard the hash picked, and published route
    /// overrides are keyed against it; a "harmless" tweak to the mixer
    /// constants would orphan every warm container behind a stale shard
    /// map. The golden set covers the function indices a registry assigns
    /// to the first eight registered names (`f0`..`f7` → indices 0..7).
    #[test]
    fn stable_hash_matches_golden_values() {
        const GOLDEN: [u64; 8] = [
            0xE220_A839_7B1D_CDAF,
            0x910A_2DEC_8902_5CC1,
            0x9758_35DE_1C97_56CE,
            0x1D0B_14E4_DB01_8FED,
            0x6E73_E372_E233_8ACA,
            0x6303_3B0C_A389_C35A,
            0xBD64_A5D9_ADEF_E000,
            0x63CB_E1E4_5932_0DD7,
        ];
        for (i, &expected) in GOLDEN.iter().enumerate() {
            assert_eq!(
                stable_hash(i as u64),
                expected,
                "stable_hash({i}) changed — this re-homes every warm set"
            );
        }
    }

    /// Golden pin: the `(home, alternate)` shard candidates on an 8-shard
    /// fleet, for the same golden function set.
    #[test]
    fn shard_candidates_match_golden_values() {
        const GOLDEN: [(usize, usize); 8] = [
            (7, 5),
            (1, 7),
            (6, 1),
            (5, 3),
            (2, 1),
            (2, 5),
            (0, 7),
            (7, 5),
        ];
        for (i, &expected) in GOLDEN.iter().enumerate() {
            assert_eq!(
                shard_candidates(i as u64, 8),
                expected,
                "candidates for function {i} changed"
            );
        }
    }

    #[test]
    fn alternate_is_always_distinct_from_home() {
        for shards in 2..=16 {
            for f in 0..2000u64 {
                let (home, alt) = shard_candidates(f, shards);
                assert_ne!(home, alt, "f={f} shards={shards}");
                assert!(alt < shards);
            }
        }
    }

    #[test]
    fn single_shard_candidates_collapse_to_zero() {
        for f in 0..100u64 {
            assert_eq!(shard_candidates(f, 1), (0, 0));
        }
    }

    #[test]
    fn balancer_labels_round_trip() {
        for b in LoadBalancer::ALL {
            assert_eq!(b.label().parse::<LoadBalancer>().unwrap(), b);
            assert_eq!(b.to_string(), b.label());
        }
        assert!("bogus".parse::<LoadBalancer>().is_err());
    }

    fn all_healthy(_: usize) -> bool {
        true
    }

    fn no_load(_: usize) -> u64 {
        0
    }

    #[test]
    fn round_robin_pre_increments_and_wraps() {
        let mut st = BalancerState::new(0);
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                pick(
                    LoadBalancer::RoundRobin,
                    &mut st,
                    3,
                    0,
                    no_load,
                    all_healthy,
                    None,
                )
                .unwrap()
            })
            .collect();
        // Pre-increment: the first pick is server 1, matching the
        // simulator's historical cursor.
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_skips_unhealthy_servers() {
        let mut st = BalancerState::new(0);
        let picks: Vec<usize> = (0..4)
            .map(|_| {
                pick(
                    LoadBalancer::RoundRobin,
                    &mut st,
                    3,
                    0,
                    no_load,
                    |s| s != 1,
                    None,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(picks, vec![2, 0, 2, 0]);
    }

    #[test]
    fn random_matches_raw_draw_sequence_when_all_healthy() {
        let mut st = BalancerState::new(42);
        let picks: Vec<usize> = (0..64)
            .map(|_| {
                pick(
                    LoadBalancer::Random,
                    &mut st,
                    5,
                    0,
                    no_load,
                    all_healthy,
                    None,
                )
                .unwrap()
            })
            .collect();
        let mut rng = Pcg64::seed_from_u64(42);
        let raw: Vec<usize> = (0..64).map(|_| rng.next_below(5) as usize).collect();
        assert_eq!(picks, raw, "healthy pick must be the raw draw");
    }

    #[test]
    fn random_scans_past_unhealthy_draws() {
        let mut st = BalancerState::new(7);
        for _ in 0..100 {
            let s = pick(
                LoadBalancer::Random,
                &mut st,
                4,
                0,
                no_load,
                |s| s == 2,
                None,
            );
            assert_eq!(s, Some(2));
        }
    }

    #[test]
    fn least_loaded_breaks_ties_to_lowest_index() {
        let mut st = BalancerState::new(0);
        let loads = [5u64, 2, 2, 9];
        let s = pick(
            LoadBalancer::LeastLoaded,
            &mut st,
            4,
            0,
            |i| loads[i],
            all_healthy,
            None,
        );
        assert_eq!(s, Some(1));
        let s = pick(
            LoadBalancer::LeastLoaded,
            &mut st,
            4,
            0,
            |i| loads[i],
            |i| i != 1,
            None,
        );
        assert_eq!(s, Some(2), "unhealthy minimum is excluded");
    }

    #[test]
    fn affinity_homes_then_spills_then_falls_back() {
        let mut st = BalancerState::new(0);
        let f = 42u64;
        let (home, alt) = shard_candidates(f, 8);
        // No spill: always home.
        let s = pick(
            LoadBalancer::FunctionAffinity,
            &mut st,
            8,
            f,
            no_load,
            all_healthy,
            None,
        );
        assert_eq!(s, Some(home));
        // Over-watermark home with a less-loaded alternate spills.
        let s = pick(
            LoadBalancer::FunctionAffinity,
            &mut st,
            8,
            f,
            |i| if i == home { 10 } else { 0 },
            all_healthy,
            Some(4),
        );
        assert_eq!(s, Some(alt));
        // Equally-loaded alternate does not attract spill.
        let s = pick(
            LoadBalancer::FunctionAffinity,
            &mut st,
            8,
            f,
            |_| 10,
            all_healthy,
            Some(4),
        );
        assert_eq!(s, Some(home));
        // Unhealthy home falls back to the alternate candidate.
        let s = pick(
            LoadBalancer::FunctionAffinity,
            &mut st,
            8,
            f,
            no_load,
            |i| i != home,
            None,
        );
        assert_eq!(s, Some(alt));
        // Both candidates out: deterministic scan finds some healthy
        // server, and repeatably the same one.
        let only = (0..8).find(|&s| s != home && s != alt).unwrap();
        let s1 = pick(
            LoadBalancer::FunctionAffinity,
            &mut st,
            8,
            f,
            no_load,
            |i| i == only,
            None,
        );
        assert_eq!(s1, Some(only));
    }

    #[test]
    fn pick_returns_none_when_nothing_is_healthy() {
        for b in LoadBalancer::ALL {
            let mut st = BalancerState::new(1);
            assert_eq!(pick(b, &mut st, 4, 3, no_load, |_| false, None), None);
        }
    }

    #[test]
    fn alternate_spreads_across_shards() {
        // The second choice must itself be balanced, or failing over
        // from ejected homes would concentrate load on few servers.
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for f in 0..10_000u64 {
            counts[alt_shard_for(f, shards)] += 1;
        }
        for &c in &counts {
            assert!((1000..=1500).contains(&c), "imbalanced: {counts:?}");
        }
    }
}
