//! Property-based tests for the utility primitives.

#![cfg(test)]

use crate::dist::{Exponential, LogNormal, Poisson, Zipf};
use crate::rng::Pcg64;
use crate::stats::{percentile, Welford};
use crate::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn next_below_respects_bound(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn range_inclusive_stays_in_range(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let hi = lo + span;
        for _ in 0..32 {
            let v = rng.range_inclusive(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    #[test]
    fn zipf_samples_stay_in_ranks(seed in any::<u64>(), n in 1u64..500, s in 0.0f64..3.0) {
        let zipf = Zipf::new(n, s).unwrap();
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..64 {
            let k = zipf.sample(&mut rng);
            prop_assert!(k >= 1 && k <= n, "rank {k} outside 1..={n}");
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one(n in 1u64..200, s in 0.0f64..3.0) {
        let zipf = Zipf::new(n, s).unwrap();
        let total: f64 = (1..=n).map(|k| zipf.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
    }

    #[test]
    fn lognormal_always_positive(seed in any::<u64>(), median in 0.001f64..1e6, sigma in 0.0f64..3.0) {
        let d = LogNormal::from_median_sigma(median, sigma).unwrap();
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_non_negative(seed in any::<u64>(), rate in 0.001f64..1e4) {
        let d = Exponential::new(rate).unwrap();
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn poisson_finite(seed in any::<u64>(), lambda in 0.0f64..500.0) {
        let d = Poisson::new(lambda).unwrap();
        let mut rng = Pcg64::seed_from_u64(seed);
        let x = d.sample(&mut rng);
        // Wildly improbable to exceed lambda + 50*sqrt(lambda) + 50.
        prop_assert!((x as f64) < lambda + 50.0 * lambda.sqrt() + 50.0);
    }

    #[test]
    fn welford_matches_two_pass(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &v in &values {
            w.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.population_variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    }

    #[test]
    fn percentile_within_bounds(values in prop::collection::vec(-1e9f64..1e9, 1..100), q in 0.0f64..1.0) {
        let p = percentile(&values, q).unwrap();
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(p >= min && p <= max);
    }

    #[test]
    fn simtime_add_sub_round_trip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    #[test]
    fn memmb_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (x, y) = (MemMb::new(a), MemMb::new(b));
        prop_assert_eq!((x + y) - y, x);
        if a >= b {
            prop_assert_eq!(x.checked_sub(y), Some(MemMb::new(a - b)));
        } else {
            prop_assert_eq!(x.checked_sub(y), None);
            prop_assert_eq!(x.saturating_sub(y), MemMb::ZERO);
        }
    }

    #[test]
    fn shuffle_preserves_multiset(mut items in prop::collection::vec(any::<u32>(), 0..100), seed in any::<u64>()) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut shuffled = items.clone();
        rng.shuffle(&mut shuffled);
        shuffled.sort_unstable();
        items.sort_unstable();
        prop_assert_eq!(shuffled, items);
    }
}
