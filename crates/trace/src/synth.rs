//! Synthetic Azure-like dataset generation.
//!
//! The real Azure Functions 2019 dataset is not redistributable, so the
//! experiments run on synthetic datasets that reproduce its documented
//! statistics (Shahrad et al., ATC '20; FaasCache §2–3):
//!
//! - **heavy-tailed popularity** — per-function arrival rates follow a
//!   Zipf law, so a few "heavy hitters" dominate while most functions are
//!   invoked rarely (the paper: frequencies vary by >3 orders of magnitude),
//! - **diurnal load** — the arrival rate at peak is about 2× the mean,
//! - **arrival classes** — a fraction of functions fire on fixed periods
//!   (timer triggers, highly predictable for HIST); the rest are Poisson,
//! - **log-normal memory and durations** — app memory and function
//!   execution times span orders of magnitude,
//! - **cold/warm gap** — the maximum runtime (used by the paper as the
//!   cold estimate) is a multiplicative factor above the average.
//!
//! The generator emits an [`AzureDataset`] — the same schema as the real
//! data — so the whole downstream pipeline (adaptation, sampling,
//! simulation) is identical whichever source is used.

use crate::azure::{AzureDataset, AzureFunction, AzureFunctionKey, MINUTES_PER_DAY};
use faascache_util::dist::{LogNormal, Poisson, Zipf};
use faascache_util::rng::Pcg64;

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of functions to generate.
    pub num_functions: usize,
    /// Number of applications the functions are grouped into.
    pub num_apps: usize,
    /// Zipf exponent of the popularity distribution.
    pub zipf_exponent: f64,
    /// Mean arrival rate (per minute) of the most popular function.
    pub max_rate_per_min: f64,
    /// Floor on the expected invocations per day of any function.
    pub min_invocations_per_day: f64,
    /// Median application memory (MB) of the log-normal.
    pub mem_median_mb: f64,
    /// Sigma of the memory log-normal (≈1.5 spans 3+ orders of magnitude).
    pub mem_sigma: f64,
    /// Median average-duration (ms) of the log-normal.
    pub dur_median_ms: f64,
    /// Sigma of the duration log-normal.
    pub dur_sigma: f64,
    /// Upper clamp on the average duration (ms); keeps the log-normal
    /// tail from generating functions that monopolize the server with
    /// *running* containers (Azure functions are overwhelmingly short).
    pub dur_max_ms: f64,
    /// Median of the max/avg duration ratio minus one (cold-start factor).
    pub cold_factor_median: f64,
    /// Sigma of the cold-start factor log-normal.
    pub cold_factor_sigma: f64,
    /// Upper clamp on the cold-start factor.
    pub cold_factor_max: f64,
    /// Fraction of functions with fixed-period (timer) arrivals.
    pub periodic_fraction: f64,
    /// Jitter of periodic firings, as a fraction of the period (real
    /// timers drift; perfect regularity would make prediction trivial).
    pub periodic_jitter: f64,
    /// Diurnal amplitude: 1.0 makes the peak rate ≈ 2× the mean.
    pub diurnal_amplitude: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            num_functions: 1000,
            num_apps: 400,
            zipf_exponent: 1.0,
            max_rate_per_min: 400.0,
            min_invocations_per_day: 3.0,
            mem_median_mb: 170.0,
            mem_sigma: 1.3,
            dur_median_ms: 300.0,
            dur_sigma: 0.9,
            dur_max_ms: 10_000.0,
            cold_factor_median: 1.5,
            cold_factor_sigma: 0.6,
            cold_factor_max: 5.0,
            periodic_fraction: 0.35,
            periodic_jitter: 0.2,
            diurnal_amplitude: 1.0,
            seed: 0xFAA5_CACE,
        }
    }
}

impl SynthConfig {
    /// Sets the Zipf exponent of the popularity skew (builder style).
    ///
    /// This is the knob the serving binaries' `--skew zipf:<s>` flag
    /// drives: the rank-`k` function's mean rate is `max_rate / k^s`,
    /// so a larger exponent concentrates the workload onto fewer
    /// functions (and therefore fewer shards under affinity routing).
    ///
    /// # Examples
    ///
    /// ```
    /// use faascache_trace::synth::SynthConfig;
    /// let cfg = SynthConfig::default().with_skew(1.2);
    /// assert_eq!(cfg.zipf_exponent, 1.2);
    /// ```
    pub fn with_skew(mut self, zipf_exponent: f64) -> Self {
        assert!(
            zipf_exponent.is_finite() && zipf_exponent >= 0.0,
            "zipf exponent must be finite and non-negative"
        );
        self.zipf_exponent = zipf_exponent;
        self
    }
}

/// Generates a synthetic one-day dataset.
///
/// Deterministic in the config (including the seed).
///
/// # Examples
///
/// ```
/// use faascache_trace::synth::{generate, SynthConfig};
/// let cfg = SynthConfig { num_functions: 20, num_apps: 8, ..SynthConfig::default() };
/// let a = generate(&cfg);
/// let b = generate(&cfg);
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 20);
/// ```
pub fn generate(config: &SynthConfig) -> AzureDataset {
    assert!(config.num_functions > 0, "need at least one function");
    assert!(config.num_apps > 0, "need at least one app");
    let mut rng = Pcg64::seed_from_u64(config.seed);
    let mut dataset = AzureDataset::new();

    let mem_dist = LogNormal::from_median_sigma(config.mem_median_mb, config.mem_sigma)
        .expect("valid memory log-normal");
    let dur_dist = LogNormal::from_median_sigma(config.dur_median_ms, config.dur_sigma)
        .expect("valid duration log-normal");
    let cold_dist =
        LogNormal::from_median_sigma(config.cold_factor_median, config.cold_factor_sigma)
            .expect("valid cold-factor log-normal");
    // Zipf used only for rate shaping; rates assigned by rank directly so
    // ranks are exact rather than sampled.
    let _ = Zipf::new(config.num_functions as u64, config.zipf_exponent)
        .expect("valid zipf parameters");

    // App memory.
    for a in 0..config.num_apps {
        let mb = mem_dist.sample(&mut rng).clamp(1.0, 8192.0);
        dataset.app_memory_mb.insert(format!("app{a:05}"), mb);
    }

    // Random diurnal phase shared by the whole dataset (one "region"), so
    // the modulation of a minute is the same for every function.
    let phase = rng.next_f64() * std::f64::consts::TAU;
    let diurnal: Vec<f64> = (0..MINUTES_PER_DAY)
        .map(|minute| {
            let t = minute as f64 / MINUTES_PER_DAY as f64;
            (1.0 + config.diurnal_amplitude * (std::f64::consts::TAU * t + phase).sin()).max(0.05)
        })
        .collect();

    for rank in 1..=config.num_functions {
        let app = format!("app{:05}", rng.next_below(config.num_apps as u64));
        let key = AzureFunctionKey {
            func: format!("func{rank:06}"),
            app,
        };
        // Mean per-minute rate by Zipf rank, floored so every function is
        // expected to recur at least min_invocations_per_day times.
        let base_rate = config.max_rate_per_min / (rank as f64).powf(config.zipf_exponent);
        let rate = base_rate.max(config.min_invocations_per_day / MINUTES_PER_DAY as f64);

        let mut per_minute = vec![0u32; MINUTES_PER_DAY];
        if rng.chance(config.periodic_fraction) {
            // Timer-triggered: fixed period, one invocation per firing.
            let period_mins = (1.0 / rate).clamp(1.0, 480.0).round() as usize;
            let offset = rng.next_below(period_mins as u64) as usize;
            let jitter_span = (config.periodic_jitter * period_mins as f64).round() as i64;
            let mut m = offset as i64;
            while m < MINUTES_PER_DAY as i64 {
                let jitter = if jitter_span > 0 {
                    rng.range_inclusive(0, 2 * jitter_span as u64) as i64 - jitter_span
                } else {
                    0
                };
                let fire = m + jitter;
                if (0..MINUTES_PER_DAY as i64).contains(&fire) {
                    per_minute[fire as usize] = per_minute[fire as usize].saturating_add(1);
                }
                m += period_mins as i64;
            }
        } else {
            // Poisson arrivals with diurnal modulation.
            for (slot, diurnal) in per_minute.iter_mut().zip(&diurnal) {
                let lambda = rate * diurnal;
                let p = Poisson::new(lambda).expect("non-negative rate");
                *slot = p.sample(&mut rng).min(u32::MAX as u64) as u32;
            }
        }

        let avg = dur_dist.sample(&mut rng).clamp(1.0, config.dur_max_ms);
        let factor = cold_dist
            .sample(&mut rng)
            .clamp(0.05, config.cold_factor_max);
        let max = avg * (1.0 + factor);
        let min = avg * rng.range_f64(0.2, 0.9);
        dataset.functions.insert(
            key,
            AzureFunction {
                per_minute,
                avg_duration_ms: avg,
                min_duration_ms: min,
                max_duration_ms: max,
            },
        );
    }

    dataset
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthConfig {
        SynthConfig {
            num_functions: 200,
            num_apps: 50,
            max_rate_per_min: 60.0,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn deterministic() {
        let cfg = small_config();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = SynthConfig {
            seed: 1,
            ..small_config()
        };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn shape_matches_config() {
        let d = generate(&small_config());
        assert_eq!(d.len(), 200);
        assert!(d.app_memory_mb.len() == 50);
        for f in d.functions.values() {
            assert_eq!(f.per_minute.len(), MINUTES_PER_DAY);
            assert!(f.avg_duration_ms > 0.0);
            assert!(f.max_duration_ms > f.avg_duration_ms);
            assert!(f.min_duration_ms < f.avg_duration_ms);
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let d = generate(&small_config());
        let mut counts: Vec<u64> = d
            .functions
            .values()
            .map(|f| f.total_invocations())
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top = counts[0];
        let median = counts[counts.len() / 2];
        assert!(
            top as f64 >= 50.0 * median.max(1) as f64,
            "head ({top}) should dwarf the median ({median})"
        );
    }

    #[test]
    fn steeper_skew_concentrates_invocations() {
        let total = |cfg: &SynthConfig| -> (u64, u64) {
            let d = generate(cfg);
            let mut counts: Vec<u64> = d
                .functions
                .values()
                .map(|f| f.total_invocations())
                .collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            (counts[0], counts.iter().sum())
        };
        let base = small_config();
        let skewed = small_config().with_skew(1.8);
        let (top_a, sum_a) = total(&base);
        let (top_b, sum_b) = total(&skewed);
        let share_a = top_a as f64 / sum_a.max(1) as f64;
        let share_b = top_b as f64 / sum_b.max(1) as f64;
        assert!(
            share_b > share_a,
            "zipf 1.8 top share {share_b:.3} must beat zipf 1.0 {share_a:.3}"
        );
    }

    #[test]
    fn most_functions_recur() {
        let d = generate(&small_config());
        let reused = d
            .functions
            .values()
            .filter(|f| f.total_invocations() >= 2)
            .count();
        assert!(
            reused as f64 > 0.7 * d.len() as f64,
            "{reused}/{} functions recur",
            d.len()
        );
    }

    #[test]
    fn memory_spans_orders_of_magnitude() {
        let cfg = SynthConfig {
            num_apps: 300,
            num_functions: 300,
            ..SynthConfig::default()
        };
        let d = generate(&cfg);
        let min = d.app_memory_mb.values().cloned().fold(f64::MAX, f64::min);
        let max = d.app_memory_mb.values().cloned().fold(0.0, f64::max);
        assert!(max / min > 100.0, "memory range {min}–{max}");
    }

    #[test]
    fn diurnal_pattern_present() {
        // With amplitude 1 and a busy head function, the peak hour should
        // carry far more load than the trough hour.
        let cfg = SynthConfig {
            num_functions: 30,
            num_apps: 10,
            periodic_fraction: 0.0,
            max_rate_per_min: 120.0,
            ..SynthConfig::default()
        };
        let d = generate(&cfg);
        let mut per_hour = [0u64; 24];
        for f in d.functions.values() {
            for (m, &c) in f.per_minute.iter().enumerate() {
                per_hour[m / 60] += c as u64;
            }
        }
        let peak = *per_hour.iter().max().unwrap();
        let trough = *per_hour.iter().min().unwrap();
        assert!(
            peak as f64 > 2.0 * trough.max(1) as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    /// FNV-1a over every field of the dataset, floats by bit pattern.
    fn digest(d: &AzureDataset) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (app, mb) in &d.app_memory_mb {
            eat(app.as_bytes());
            eat(&mb.to_bits().to_le_bytes());
        }
        for (key, f) in &d.functions {
            eat(key.app.as_bytes());
            eat(key.func.as_bytes());
            for count in &f.per_minute {
                eat(&count.to_le_bytes());
            }
            for ms in [f.avg_duration_ms, f.min_duration_ms, f.max_duration_ms] {
                eat(&ms.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Every committed result replays what `generate` draws, so a change
    /// to it that moves this digest moves them: the constant is never
    /// re-captured to make one pass.
    #[test]
    fn default_dataset_is_pinned() {
        let d = generate(&SynthConfig::default());
        assert_eq!(digest(&d), 0x394d_d542_bd95_a847);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn zero_functions_panics() {
        let cfg = SynthConfig {
            num_functions: 0,
            ..SynthConfig::default()
        };
        let _ = generate(&cfg);
    }
}
