//! Online statistics used by keep-alive policies and the elastic controller.
//!
//! - [`Welford`] implements Welford's online mean/variance algorithm; the
//!   HIST policy uses it to compute the coefficient of variation of
//!   inter-arrival times exactly as the paper describes (§7.1 cites
//!   Welford 1962).
//! - [`Ewma`] is the exponentially weighted moving average the proportional
//!   controller uses to smooth the arrival rate (§5.2).
//! - [`percentile`] computes percentiles of unsorted samples.

/// Welford's online algorithm for mean and variance.
///
/// # Examples
///
/// ```
/// use faascache_util::stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation (std-dev / mean).
    ///
    /// Returns `f64::INFINITY` when the mean is zero but observations exist,
    /// and `0.0` when empty — callers gate on "predictable" (CoV ≤ threshold)
    /// so an empty history counts as predictable-by-default, matching the
    /// HIST policy's optimistic start.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.std_dev() / self.mean.abs()
        }
    }
}

/// Exponentially weighted moving average.
///
/// The first observation initializes the average directly; subsequent
/// observations blend with weight `alpha` (new) vs `1 - alpha` (history).
///
/// # Examples
///
/// ```
/// use faascache_util::stats::Ewma;
/// let mut e = Ewma::new(0.5);
/// e.observe(10.0);
/// e.observe(20.0);
/// assert!((e.value() - 15.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` (clamped to `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not finite or not in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        Ewma { alpha, value: None }
    }

    /// Feeds an observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current smoothed value (0 if nothing observed yet).
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

/// Computes the `q`-th percentile (0 ≤ q ≤ 1) of the samples using linear
/// interpolation between order statistics.
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use faascache_util::stats::percentile;
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&data, 0.5), Some(2.5));
/// assert_eq!(percentile(&data, 1.0), Some(4.0));
/// ```
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(percentile_of_sorted(&sorted_copy(samples), q))
}

/// The samples in ascending order (stable, so equal values such as `-0.0`
/// and `0.0` keep their input order and every caller sees one order).
fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    sorted
}

/// [`percentile`] of a non-empty, already ascending slice.
fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    percentile_by_rank(sorted.len(), q, |rank| sorted[rank])
}

/// [`percentile`] of `len > 0` samples of which `at(rank)` is the
/// `rank`-th smallest: the one place the interpolation is written.
fn percentile_by_rank(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// A compact latency digest: count, mean and the tail percentiles the
/// serving layer and the simulator both report.
///
/// The same type summarizes virtual-time delays in [`SimResult`]-style
/// simulator output and wall-clock request latencies measured by the
/// `faas-load` client, so the two sides produce directly comparable
/// numbers. All values are milliseconds.
///
/// [`SimResult`]: https://docs.rs/faascache-sim
///
/// # Examples
///
/// ```
/// use faascache_util::stats::LatencySummary;
/// let s = LatencySummary::from_samples_ms(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count, 4);
/// assert_eq!(s.p50_ms, 2.5);
/// assert_eq!(s.max_ms, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Worst observed latency (ms).
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes millisecond samples; an empty slice yields all zeros.
    pub fn from_samples_ms(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        // One sort serves all three quantiles (the simulator summarizes
        // thousands of delays per grid cell).
        let sorted = sorted_copy(samples);
        LatencySummary {
            count: samples.len() as u64,
            mean_ms: mean(samples),
            p50_ms: percentile_of_sorted(&sorted, 0.50),
            p95_ms: percentile_of_sorted(&sorted, 0.95),
            p99_ms: percentile_of_sorted(&sorted, 0.99),
            max_ms: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Summarizes samples given as `(value, how many)` runs, in any order,
    /// and `sum_ms`, their sum added up in sample order: what
    /// [`Self::from_samples_ms`] returns for the expanded samples, bit for
    /// bit, without expanding or sorting them. The simulator's startup
    /// delays are such samples: zero for every warm start and one value
    /// per function for its cold starts.
    ///
    /// `-0.0` must not occur next to `0.0`: the two compare equal, so runs
    /// cannot say in which order a stable sort would have left them.
    pub fn from_runs_ms(runs: &mut [(f64, u64)], sum_ms: f64) -> Self {
        runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in percentile input"));
        let count: u64 = runs.iter().map(|&(_, n)| n).sum();
        if count == 0 {
            return LatencySummary::default();
        }
        let at = |rank: usize| {
            let mut below = 0;
            for &(value, n) in runs.iter() {
                below += n;
                if (rank as u64) < below {
                    return value;
                }
            }
            unreachable!("rank {rank} of {count} samples")
        };
        let len = count as usize;
        LatencySummary {
            count,
            mean_ms: sum_ms / count as f64,
            p50_ms: percentile_by_rank(len, 0.50, at),
            p95_ms: percentile_by_rank(len, 0.95, at),
            p99_ms: percentile_by_rank(len, 0.99, at),
            max_ms: at(len - 1),
        }
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Max/min load-balance ratio of per-shard counts: 1.0 is a perfectly
/// balanced fleet, larger means more skew concentrated on the hottest
/// shard. Zero-count shards clamp to 1 in the denominator so an idle
/// shard yields a large-but-finite ratio instead of a division by zero;
/// an empty or all-zero slice reports a perfectly balanced 1.0.
///
/// # Examples
///
/// ```
/// use faascache_util::stats::balance_ratio;
/// assert_eq!(balance_ratio(&[100, 100, 100]), 1.0);
/// assert_eq!(balance_ratio(&[300, 100]), 3.0);
/// assert_eq!(balance_ratio(&[]), 1.0);
/// ```
pub fn balance_ratio(counts: &[u64]) -> f64 {
    let Some(&max) = counts.iter().max() else {
        return 1.0;
    };
    if max == 0 {
        return 1.0;
    }
    let min = counts.iter().copied().min().unwrap_or(0).max(1);
    max as f64 / min as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_ratio_edge_cases() {
        assert_eq!(balance_ratio(&[]), 1.0);
        assert_eq!(balance_ratio(&[0, 0, 0]), 1.0);
        assert_eq!(balance_ratio(&[5]), 1.0);
        assert_eq!(balance_ratio(&[8, 2]), 4.0);
        // An idle shard clamps to 1 instead of dividing by zero.
        assert_eq!(balance_ratio(&[7, 0]), 7.0);
    }

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.population_variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert!((w.coefficient_of_variation() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn welford_edge_cases() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.coefficient_of_variation(), 0.0);

        let mut one = Welford::new();
        one.push(42.0);
        assert_eq!(one.population_variance(), 0.0);
        assert_eq!(one.coefficient_of_variation(), 0.0);

        let mut zeros = Welford::new();
        zeros.push(0.0);
        zeros.push(0.0);
        assert!(zeros.coefficient_of_variation().is_infinite());
    }

    #[test]
    fn ewma_blends() {
        let mut e = Ewma::new(0.25);
        e.observe(100.0);
        assert_eq!(e.value(), 100.0);
        e.observe(0.0);
        assert!((e.value() - 75.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 0.5), Some(2.5));
        assert_eq!(percentile(&data, 1.0), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
        let single = [7.0];
        assert_eq!(percentile(&single, 0.3), Some(7.0));
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples_ms(&samples);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
        assert!((s.p50_ms - 50.5).abs() < 1e-12);
        assert!((s.p95_ms - 95.05).abs() < 1e-9);
        assert!((s.p99_ms - 99.01).abs() < 1e-9);
        assert_eq!(s.max_ms, 100.0);
    }

    /// The one-sort summary reads exactly what three independent
    /// `percentile` calls read, bit for bit.
    #[test]
    fn latency_summary_equals_three_percentile_calls() {
        let mut rng = crate::rng::Pcg64::seed_from_u64(0x5EED);
        let mut inputs: Vec<Vec<f64>> = vec![vec![7.25], vec![3.5; 17], vec![0.0, -0.0, 0.0]];
        for len in [2usize, 3, 10, 101, 8_000] {
            inputs.push(
                (0..len)
                    .map(|_| {
                        // Mostly-zero with a heavy tail, like startup delays.
                        if rng.next_below(4) == 0 {
                            rng.next_f64() * 5_000.0
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            );
        }
        for samples in &inputs {
            let s = LatencySummary::from_samples_ms(samples);
            for (got, q) in [(s.p50_ms, 0.50), (s.p95_ms, 0.95), (s.p99_ms, 0.99)] {
                let want = percentile(samples, q).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "q={q} n={}", samples.len());
            }
        }
    }

    /// The run-length digest is the per-sample one, bit for bit.
    #[test]
    fn latency_summary_from_runs_equals_from_samples() {
        let mut rng = crate::rng::Pcg64::seed_from_u64(0xD16E57);
        for case in 0..200 {
            // A few distinct delays (some shared by two "functions"), most
            // samples zero, in random order.
            let values: Vec<f64> = (0..1 + rng.next_below(6))
                .map(|_| (rng.next_below(40) as f64) * 12.5)
                .collect();
            let len = if case % 10 == 0 {
                0
            } else {
                rng.next_below(500)
            };
            let samples: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.next_below(3) == 0 {
                        values[rng.next_below(values.len() as u64) as usize]
                    } else {
                        0.0
                    }
                })
                .collect();
            // Run-length encoded in order of first appearance.
            let mut runs: Vec<(f64, u64)> = Vec::new();
            for &s in &samples {
                match runs.iter_mut().find(|run| run.0 == s) {
                    Some(run) => run.1 += 1,
                    None => runs.push((s, 1)),
                }
            }
            let sum = samples.iter().fold(0.0, |acc, &s| acc + s);
            let got = LatencySummary::from_runs_ms(&mut runs, sum);
            let want = LatencySummary::from_samples_ms(&samples);
            assert_eq!(got.count, want.count);
            for (g, w) in [
                (got.mean_ms, want.mean_ms),
                (got.p50_ms, want.p50_ms),
                (got.p95_ms, want.p95_ms),
                (got.p99_ms, want.p99_ms),
                (got.max_ms, want.max_ms),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "case {case}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn latency_summary_empty_is_zeros() {
        assert_eq!(
            LatencySummary::from_samples_ms(&[]),
            LatencySummary::default()
        );
    }

    #[test]
    fn mean_empty_and_nonempty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
