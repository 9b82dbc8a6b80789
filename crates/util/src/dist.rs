//! Statistical distributions used to synthesize FaaS workloads.
//!
//! The Azure Functions trace characterization (Shahrad et al., ATC '20) that
//! the FaasCache paper builds on reports heavy-tailed function popularity,
//! log-normal-ish execution times and memory sizes spanning more than three
//! orders of magnitude, and Poisson-like arrivals for the aperiodic
//! functions. This module implements exactly the samplers needed to
//! reproduce those shapes deterministically.

use crate::rng::Pcg64;
use std::fmt;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDistributionError {
    what: &'static str,
}

impl InvalidDistributionError {
    fn new(what: &'static str) -> Self {
        InvalidDistributionError { what }
    }
}

impl fmt::Display for InvalidDistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidDistributionError {}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Sampling is exact: the constructor precomputes the cumulative weight
/// table (O(n) memory) and each draw performs an inverse-CDF binary search
/// (O(log n)). FaaS trace synthesis draws from Zipf over at most a few
/// hundred thousand functions, so the table is cheap.
///
/// # Examples
///
/// ```
/// use faascache_util::{dist::Zipf, rng::Pcg64};
/// let zipf = Zipf::new(100, 1.1).unwrap();
/// let mut rng = Pcg64::seed_from_u64(1);
/// assert!((1..=100).contains(&zipf.sample(&mut rng)));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// Cumulative unnormalized weights; `cdf[k-1] = sum_{i<=k} i^-s`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`, or `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Result<Self, InvalidDistributionError> {
        if n == 0 {
            return Err(InvalidDistributionError::new("zipf n must be >= 1"));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(InvalidDistributionError::new(
                "zipf exponent must be finite and non-negative",
            ));
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut cum = 0.0;
        for k in 1..=n {
            cum += 1.0 / (k as f64).powf(s);
            cdf.push(cum);
        }
        Ok(Zipf { n, s, cdf })
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws a rank in `1..=n`; rank 1 is the most popular.
    pub fn sample(&self, rng: &mut Pcg64) -> u64 {
        let total = *self.cdf.last().expect("non-empty cdf");
        let u = rng.next_f64() * total;
        // First index whose cumulative weight exceeds u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite weights"))
        {
            Ok(idx) => (idx as u64 + 2).min(self.n), // landed exactly on a boundary
            Err(idx) => (idx as u64 + 1).min(self.n),
        }
    }

    /// Exact probability of rank `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n, "rank out of range");
        let total = *self.cdf.last().expect("non-empty cdf");
        (1.0 / (k as f64).powf(self.s)) / total
    }
}

/// Log-normal distribution parameterized by the mean (`mu`) and standard
/// deviation (`sigma`) of the underlying normal.
///
/// # Examples
///
/// ```
/// use faascache_util::{dist::LogNormal, rng::Pcg64};
/// let ln = LogNormal::from_median_sigma(170.0, 1.2).unwrap();
/// let mut rng = Pcg64::seed_from_u64(2);
/// assert!(ln.sample(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with normal-space mean `mu` and std-dev `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `sigma` is finite and non-negative and `mu`
    /// is finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidDistributionError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(InvalidDistributionError::new(
                "log-normal needs finite mu and sigma >= 0",
            ));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal whose *median* is `median` (must be positive).
    ///
    /// # Errors
    ///
    /// Returns an error if `median <= 0` or parameters are not finite.
    pub fn from_median_sigma(median: f64, sigma: f64) -> Result<Self, InvalidDistributionError> {
        if median <= 0.0 || median.is_nan() {
            return Err(InvalidDistributionError::new("median must be positive"));
        }
        Self::new(median.ln(), sigma)
    }

    /// Median of the distribution (`exp(mu)`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws a sample (always positive).
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// # Examples
///
/// ```
/// use faascache_util::{dist::Exponential, rng::Pcg64};
/// let exp = Exponential::new(2.0).unwrap();
/// let mut rng = Pcg64::seed_from_u64(3);
/// assert!(exp.sample(&mut rng) >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `lambda` is finite and positive.
    pub fn new(lambda: f64) -> Result<Self, InvalidDistributionError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(InvalidDistributionError::new("rate must be positive"));
        }
        Ok(Exponential { lambda })
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws a sample via inversion.
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }
}

/// Largest mean drawn by Knuth's method; above it, the normal
/// approximation.
const KNUTH_MAX_MEAN: f64 = 30.0;

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's multiplication method for `0 < lambda <= 30` (multiply
/// uniforms until the product falls to `exp(-lambda)`; the count is the
/// number of factors before that) and a normal approximation with
/// continuity correction for `lambda > 30`, which is more than adequate for
/// per-minute invocation counts. A mean of 0 draws nothing and counts 0.
/// Counts saturate at `u32::MAX`.
///
/// [`Poisson::sample`] draws one count; [`PoissonRun`] draws one count per
/// mean of a sequence. They are the same sampler: a single draw is a run
/// of one, and a run consumes the generator exactly as one `sample` per
/// mean, in order, would.
#[derive(Debug, Clone, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson with mean `lambda`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `lambda` is finite and non-negative.
    pub fn new(lambda: f64) -> Result<Self, InvalidDistributionError> {
        check_mean(lambda)?;
        Ok(Poisson { lambda })
    }

    /// Draws a count: [`PoissonRun`]'s sampler over a run of one mean.
    pub fn sample(&self, rng: &mut Pcg64) -> u32 {
        let mut count = 0;
        draw(
            std::slice::from_ref(&self.lambda),
            &mut [0.0],
            std::slice::from_mut(&mut count),
            rng,
        )
        .expect("mean checked by Poisson::new");
        count
    }
}

/// Poisson counts for a sequence of means, such as one function's
/// per-minute arrival rates over a day.
///
/// [`PoissonRun::sample_into`] draws what [`Poisson::sample`] would for
/// each mean in turn — the same uniforms, products and comparisons, so
/// the same counts and the same generator state afterwards — but walks a
/// run of consecutive Knuth means by *uniforms*, not by means. Each
/// uniform multiplies the running product, compares it with the current
/// mean's limit and stores the count so far; whether that ended the mean
/// only selects, by bit masks, the next product, count and mean. The
/// loop's one branch is its bound, so the exit of each mean, which a
/// per-mean loop mispredicts about once per mean when means are small,
/// costs nothing. The `exp(-lambda)` limits of all the means are computed
/// in one pass before any draw, into a buffer the sampler keeps between
/// calls.
///
/// # Examples
///
/// ```
/// use faascache_util::{dist::{Poisson, PoissonRun}, rng::Pcg64};
/// let means = [0.5, 0.0, 3.0, 45.0];
/// let mut counts = [0u32; 4];
/// let mut a = Pcg64::seed_from_u64(4);
/// PoissonRun::new().sample_into(means, &mut counts, &mut a).unwrap();
/// let mut b = Pcg64::seed_from_u64(4);
/// for (&mean, &count) in means.iter().zip(&counts) {
///     assert_eq!(Poisson::new(mean).unwrap().sample(&mut b), count);
/// }
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PoissonRun {
    lambdas: Vec<f64>,
    limits: Vec<f64>,
}

impl PoissonRun {
    /// Creates a sampler with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one count per mean of `lambdas` into `counts`, in order.
    ///
    /// # Errors
    ///
    /// Returns an error, having drawn nothing, unless every mean is finite
    /// and non-negative.
    ///
    /// # Panics
    ///
    /// Panics unless `counts` holds exactly one slot per mean.
    pub fn sample_into(
        &mut self,
        lambdas: impl IntoIterator<Item = f64>,
        counts: &mut [u32],
        rng: &mut Pcg64,
    ) -> Result<(), InvalidDistributionError> {
        self.lambdas.clear();
        self.lambdas.extend(lambdas);
        self.limits.resize(self.lambdas.len(), 0.0);
        draw(&self.lambdas, &mut self.limits, counts, rng)
    }
}

fn check_mean(lambda: f64) -> Result<(), InvalidDistributionError> {
    if lambda.is_finite() && lambda >= 0.0 {
        Ok(())
    } else {
        Err(InvalidDistributionError::new("mean must be non-negative"))
    }
}

/// Sets `counts[i]` to a Poisson(`lambdas[i]`) draw for every `i`, in
/// order; `limits` is scratch with one slot per mean.
fn draw(
    lambdas: &[f64],
    limits: &mut [f64],
    counts: &mut [u32],
    rng: &mut Pcg64,
) -> Result<(), InvalidDistributionError> {
    assert_eq!(lambdas.len(), counts.len(), "one count per mean");
    for (limit, &lambda) in limits.iter_mut().zip(lambdas) {
        check_mean(lambda)?;
        *limit = (-lambda).exp();
    }
    let knuth = |lambda: f64| lambda > 0.0 && lambda <= KNUTH_MAX_MEAN;
    let mut m = 0;
    while m < lambdas.len() {
        let lambda = lambdas[m];
        if knuth(lambda) {
            let end = lambdas[m..]
                .iter()
                .position(|&lambda| !knuth(lambda))
                .map_or(lambdas.len(), |len| m + len);
            knuth_run(&limits[m..end], &mut counts[m..end], rng);
            m = end;
            continue;
        }
        counts[m] = if lambda == 0.0 {
            0
        } else {
            let x = lambda + lambda.sqrt() * standard_normal(rng);
            // Saturating, like every float-to-integer `as`.
            x.round().max(0.0) as u32
        };
        m += 1;
    }
    Ok(())
}

/// Knuth's method over a run of means, given their `exp(-lambda)` limits:
/// `counts[i]` is the number of uniforms multiplied into a product that
/// starts at 1 before it falls to `limits[i]`, and the uniform that takes
/// it there is the last one that mean consumes.
fn knuth_run(limits: &[f64], counts: &mut [u32], rng: &mut Pcg64) {
    let counts = &mut counts[..limits.len()];
    let (mut m, mut k, mut p) = (0, 0u32, 1.0f64);
    while m < limits.len() {
        p *= rng.next_f64_open();
        let done = p <= limits[m];
        counts[m] = k;
        // All ones while mean `m` draws on, zero once it is done: a select
        // by mask, because `if done { 1.0 } else { p }` compiles to the
        // very branch this loop exists to avoid.
        let keep = u64::from(done).wrapping_sub(1);
        p = f64::from_bits((p.to_bits() & keep) | (1f64.to_bits() & !keep));
        k = k.saturating_add(1) & keep as u32;
        m += usize::from(done);
    }
}

/// Draws a standard normal deviate using the polar (Marsaglia) method.
pub fn standard_normal(rng: &mut Pcg64) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Pcg64 {
        Pcg64::seed_from_u64(0xFAA5)
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(50, 0.8).unwrap();
        let mut r = rng();
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!((1..=50).contains(&k));
        }
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(20, 1.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0u64; 21];
        for _ in 0..n {
            counts[z.sample(&mut r) as usize] += 1;
        }
        for k in 1..=20u64 {
            let expected = z.pmf(k);
            let observed = counts[k as usize] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {k}: observed {observed:.4} vs pmf {expected:.4}"
            );
        }
    }

    #[test]
    fn zipf_rank_one_most_popular() {
        let z = Zipf::new(1000, 1.2).unwrap();
        let mut r = rng();
        let mut ones = 0;
        let mut tails = 0;
        for _ in 0..50_000 {
            let k = z.sample(&mut r);
            if k == 1 {
                ones += 1;
            }
            if k > 500 {
                tails += 1;
            }
        }
        assert!(
            ones > tails,
            "rank 1 ({ones}) should dominate tail ({tails})"
        );
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0).unwrap();
        let mut r = rng();
        let mut counts = [0u64; 11];
        for _ in 0..100_000 {
            counts[z.sample(&mut r) as usize] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let frac = count as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.01, "rank {k} freq {frac}");
        }
    }

    #[test]
    fn lognormal_median_is_respected() {
        let ln = LogNormal::from_median_sigma(100.0, 1.0).unwrap();
        assert!((ln.median() - 100.0).abs() < 1e-9);
        let mut r = rng();
        let mut below = 0;
        let n = 100_000;
        for _ in 0..n {
            if ln.sample(&mut r) < 100.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "median split {frac}");
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::from_median_sigma(0.0, 1.0).is_err());
        assert!(LogNormal::from_median_sigma(-5.0, 1.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let e = Exponential::new(0.5).unwrap();
        assert!((e.mean() - 2.0).abs() < 1e-12);
        let mut r = rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| e.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let p = Poisson::new(3.0).unwrap();
        let mut r = rng();
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| u64::from(p.sample(&mut r))).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let p = Poisson::new(200.0).unwrap();
        let mut r = rng();
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| u64::from(p.sample(&mut r))).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 200.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let p = Poisson::new(0.0).unwrap();
        let mut r = rng();
        assert_eq!(p.sample(&mut r), 0);
    }

    #[test]
    fn poisson_run_refuses_invalid_means_before_drawing() {
        for bad in [
            f64::NAN,
            -1.0,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(Poisson::new(bad).is_err(), "mean {bad}");
            let mut r = rng();
            let mut counts = [7u32; 3];
            assert!(
                PoissonRun::new()
                    .sample_into([2.0, bad, 40.0], &mut counts, &mut r)
                    .is_err(),
                "mean {bad}"
            );
            assert_eq!(r, rng(), "mean {bad}: nothing drawn");
            assert_eq!(counts, [7; 3], "mean {bad}: nothing written");
        }
    }

    #[test]
    #[should_panic(expected = "one count per mean")]
    fn poisson_run_needs_one_slot_per_mean() {
        let _ = PoissonRun::new().sample_into([1.0, 2.0], &mut [0; 3], &mut rng());
    }

    /// The per-minute loop the run sampler replaced, kept as the reference:
    /// one Knuth loop or normal draw per mean, the count clamped to `u32`.
    fn per_mean_reference(lambdas: &[f64], rng: &mut Pcg64) -> Vec<u32> {
        lambdas
            .iter()
            .map(|&lambda| {
                let count = if lambda == 0.0 {
                    0
                } else if lambda > 30.0 {
                    let x = lambda + lambda.sqrt() * standard_normal(rng);
                    x.round().max(0.0) as u64
                } else {
                    let limit = (-lambda).exp();
                    let mut k = 0u64;
                    let mut p = 1.0;
                    loop {
                        p *= rng.next_f64_open();
                        if p <= limit {
                            break k;
                        }
                        k += 1;
                    }
                };
                count.min(u32::MAX as u64) as u32
            })
            .collect()
    }

    /// A mean of one of the kinds a day mixes: 0, tiny, in (0, 30],
    /// exactly 30 or just above it, above 30 up to 1e4, and so large that
    /// the count clamps at `u32::MAX`.
    fn mean_of_kind(kind: u8, u: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => f64::MIN_POSITIVE * (1.0 + u) * 1e10f64.powf(u),
            2..=5 => 30.0 * (1.0 - u),
            6 => 30.0,
            7 => f64::from_bits(30f64.to_bits() + 1),
            8 => 30.0 + u * (1e4 - 30.0),
            _ => 1e10 * (1.0 + u * 1e6),
        }
    }

    /// Cases of the reference property: `FAASCACHE_POISSON_CASES`, or 64.
    fn poisson_cases() -> u32 {
        match std::env::var("FAASCACHE_POISSON_CASES") {
            Ok(v) => v
                .parse()
                .expect("FAASCACHE_POISSON_CASES must be a case count"),
            Err(_) => 64,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(poisson_cases()))]

        /// Sequences of 0 to 1,440 means, in runs of one kind or mixed
        /// mean by mean: the run sampler draws the reference's counts and
        /// leaves the generator where the reference does, whether through
        /// one sampler reused across sequences or one `Poisson::sample`
        /// per mean.
        #[test]
        fn run_matches_the_per_mean_loop(
            seed in any::<u64>(),
            len in 0usize..=1440,
            stretch in 1usize..=64,
            kinds in prop::collection::vec(0u8..10, 1..=32),
            us in prop::collection::vec(0.0f64..1.0, 1..=97),
        ) {
            // Kinds change every `stretch` means, so both long runs and
            // runs of one occur.
            let lambdas: Vec<f64> = (0..len)
                .map(|m| mean_of_kind(kinds[m / stretch % kinds.len()], us[m % us.len()]))
                .collect();
            let mut expected_rng = Pcg64::seed_from_u64(seed);
            let expected = per_mean_reference(&lambdas, &mut expected_rng);

            let mut sampler = PoissonRun::new();
            let mut warm_up = [0u32; 5];
            let mut scratch_rng = Pcg64::seed_from_u64(!seed);
            sampler
                .sample_into([3.0, 0.0, 31.0, 0.5, 12.0], &mut warm_up, &mut scratch_rng)
                .unwrap();
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut counts = vec![u32::MAX; len];
            sampler.sample_into(lambdas.iter().copied(), &mut counts, &mut rng).unwrap();
            prop_assert_eq!(&counts, &expected);
            prop_assert_eq!(&rng, &expected_rng);

            let mut rng = Pcg64::seed_from_u64(seed);
            let one_by_one: Vec<u32> = lambdas
                .iter()
                .map(|&lambda| Poisson::new(lambda).unwrap().sample(&mut rng))
                .collect();
            prop_assert_eq!(&one_by_one, &expected);
            prop_assert_eq!(&rng, &expected_rng);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut r);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
