//! The paper's three trace samplers (§7, Table 2):
//!
//! - **RARE** — "a random sample of 1000 of the rarest, most infrequently
//!   invoked functions" (we sample from the rarest quartile, as the
//!   artifact's `gen_rare.py` does),
//! - **REPRESENTATIVE** — "sampled from each quartile of the dataset based
//!   on frequency — yielding a more representative sample with higher
//!   function diversity",
//! - **RANDOM** — a uniform random sample.

use crate::azure::{AzureDataset, AzureFunctionKey};
use faascache_util::rng::Pcg64;

/// Returns the dataset's function keys ordered by ascending total
/// invocation count (ties broken by key for determinism).
fn keys_by_frequency(dataset: &AzureDataset) -> Vec<&AzureFunctionKey> {
    let mut keys: Vec<&AzureFunctionKey> = dataset.functions.keys().collect();
    keys.sort_by_cached_key(|&k| (dataset.functions[k].total_invocations(), k));
    keys
}

fn subset(dataset: &AzureDataset, keys: &[&AzureFunctionKey]) -> AzureDataset {
    let mut out = AzureDataset::new();
    for &key in keys {
        out.functions
            .insert(key.clone(), dataset.functions[key].clone());
        if let Some(&mb) = dataset.app_memory_mb.get(&key.app) {
            out.app_memory_mb.insert(key.app.clone(), mb);
        }
    }
    out
}

fn pick<'a>(pool: &[&'a AzureFunctionKey], n: usize, rng: &mut Pcg64) -> Vec<&'a AzureFunctionKey> {
    if n >= pool.len() {
        return pool.to_vec();
    }
    rng.sample_indices(pool.len(), n)
        .into_iter()
        .map(|i| pool[i])
        .collect()
}

/// RARE: `n` functions sampled from the rarest quartile by frequency.
///
/// # Examples
///
/// ```
/// use faascache_trace::{sample, synth};
/// use faascache_util::rng::Pcg64;
/// let d = synth::generate(&synth::SynthConfig {
///     num_functions: 100, num_apps: 20, ..Default::default()
/// });
/// let rare = sample::rare(&d, 10, &mut Pcg64::seed_from_u64(1));
/// assert_eq!(rare.len(), 10);
/// ```
pub fn rare(dataset: &AzureDataset, n: usize, rng: &mut Pcg64) -> AzureDataset {
    let keys = keys_by_frequency(dataset);
    let quartile = (keys.len() / 4).max(n.min(keys.len()));
    let pool = &keys[..quartile.min(keys.len())];
    let picked = pick(pool, n, rng);
    subset(dataset, &picked)
}

/// REPRESENTATIVE: `n` functions total, `n/4` sampled from each frequency
/// quartile.
pub fn representative(dataset: &AzureDataset, n: usize, rng: &mut Pcg64) -> AzureDataset {
    let keys = keys_by_frequency(dataset);
    if keys.is_empty() {
        return AzureDataset::new();
    }
    let per_quartile = (n / 4).max(1);
    let q = keys.len() / 4;
    let mut picked = Vec::new();
    for i in 0..4 {
        let lo = i * q;
        let hi = if i == 3 { keys.len() } else { (i + 1) * q };
        if lo >= hi {
            continue;
        }
        picked.extend(pick(&keys[lo..hi], per_quartile, rng));
    }
    subset(dataset, &picked)
}

/// RANDOM: `n` functions sampled uniformly.
pub fn random(dataset: &AzureDataset, n: usize, rng: &mut Pcg64) -> AzureDataset {
    let keys: Vec<&AzureFunctionKey> = dataset.functions.keys().collect();
    let picked = pick(&keys, n, rng);
    subset(dataset, &picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    fn dataset() -> AzureDataset {
        generate(&SynthConfig {
            num_functions: 400,
            num_apps: 100,
            ..SynthConfig::default()
        })
    }

    #[test]
    fn rare_picks_infrequent_functions() {
        let d = dataset();
        let mut rng = Pcg64::seed_from_u64(7);
        let r = rare(&d, 50, &mut rng);
        assert_eq!(r.len(), 50);
        // Every picked function must be no more frequent than the dataset's
        // 30th percentile.
        let mut all: Vec<u64> = d
            .functions
            .values()
            .map(|f| f.total_invocations())
            .collect();
        all.sort_unstable();
        let p30 = all[(all.len() as f64 * 0.30) as usize];
        for f in r.functions.values() {
            assert!(
                f.total_invocations() <= p30,
                "rare sample contains a popular function ({} > {p30})",
                f.total_invocations()
            );
        }
    }

    #[test]
    fn representative_spans_quartiles() {
        let d = dataset();
        let mut rng = Pcg64::seed_from_u64(8);
        let r = representative(&d, 100, &mut rng);
        assert!(r.len() >= 97 && r.len() <= 100, "got {}", r.len());
        // Must include at least one function from the busiest decile and
        // one from the quietest decile.
        let mut all: Vec<u64> = d
            .functions
            .values()
            .map(|f| f.total_invocations())
            .collect();
        all.sort_unstable();
        let p90 = all[(all.len() as f64 * 0.9) as usize];
        let p10 = all[(all.len() as f64 * 0.1) as usize];
        let counts: Vec<u64> = r
            .functions
            .values()
            .map(|f| f.total_invocations())
            .collect();
        assert!(counts.iter().any(|&c| c >= p90), "missing heavy hitters");
        assert!(counts.iter().any(|&c| c <= p10), "missing rare functions");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let d = dataset();
        let a = random(&d, 30, &mut Pcg64::seed_from_u64(9));
        let b = random(&d, 30, &mut Pcg64::seed_from_u64(9));
        assert_eq!(a, b);
        let c = random(&d, 30, &mut Pcg64::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn sampling_more_than_population_returns_all() {
        let d = dataset();
        let r = random(&d, 10_000, &mut Pcg64::seed_from_u64(1));
        assert_eq!(r.len(), d.len());
    }

    #[test]
    fn subset_keeps_app_memory() {
        let d = dataset();
        let r = random(&d, 20, &mut Pcg64::seed_from_u64(2));
        for key in r.functions.keys() {
            assert!(
                r.app_memory_mb.contains_key(&key.app),
                "app memory lost for {}",
                key.app
            );
        }
    }

    #[test]
    fn empty_dataset_yields_empty_samples() {
        let d = AzureDataset::new();
        let mut rng = Pcg64::seed_from_u64(3);
        assert!(rare(&d, 5, &mut rng).is_empty());
        assert!(representative(&d, 5, &mut rng).is_empty());
        assert!(random(&d, 5, &mut rng).is_empty());
    }
}
