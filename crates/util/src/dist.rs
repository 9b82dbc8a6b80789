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

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's multiplication method for small `lambda` and a normal
/// approximation with continuity correction for large `lambda` (> 30),
/// which is more than adequate for per-minute invocation counts.
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
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(InvalidDistributionError::new("mean must be non-negative"));
        }
        Ok(Poisson { lambda })
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Pcg64) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda > 30.0 {
            let x = self.lambda + self.lambda.sqrt() * standard_normal(rng);
            return x.round().max(0.0) as u64;
        }
        let limit = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_f64_open();
            if p <= limit {
                return k;
            }
            k += 1;
        }
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
        let sum: u64 = (0..n).map(|_| p.sample(&mut r)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let p = Poisson::new(200.0).unwrap();
        let mut r = rng();
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| p.sample(&mut r)).sum();
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
