//! Shared experiment setup for the FaasCache reproduction harnesses.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (`table1`, `table2`, `fig1_timeline`, `fig3_hitratio`,
//! `fig5_exec_increase`, `fig6_cold_starts`, `fig7_skew`,
//! `fig8_breakdown`, `fig9_elastic`). This library holds the fixed-seed
//! workload construction they share, so that all experiments run against
//! the *same* synthetic Azure-like day, and integration tests can reuse
//! the setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faascache::core::policy::PolicyKind;
use faascache::prelude::*;
use faascache::sim::sweep::{sweep, SweepPoint};
use faascache::trace::azure::AzureDataset;
use faascache::trace::{adapt, sample, synth};

/// Seed shared by all experiments.
pub const EXPERIMENT_SEED: u64 = 0x20210419; // ASPLOS '21 dates

/// The synthetic stand-in for day 1 of the Azure Functions dataset.
///
/// 4000 functions so the RARE sampler can draw 1000 functions from the
/// rarest quartile, exactly like the paper's `gen_rare.py`.
pub fn base_dataset() -> AzureDataset {
    synth::generate(&synth::SynthConfig {
        num_functions: 4000,
        num_apps: 1400,
        zipf_exponent: 1.4,
        max_rate_per_min: 1200.0,
        seed: EXPERIMENT_SEED,
        ..synth::SynthConfig::default()
    })
}

fn to_trace(dataset: &AzureDataset) -> Trace {
    adapt::adapt(dataset, &adapt::AdaptOptions::default())
}

/// The REPRESENTATIVE sample: 400 functions, 100 from each frequency
/// quartile (Table 2 row 1).
pub fn representative_trace() -> Trace {
    let mut rng = Pcg64::seed_from_u64(EXPERIMENT_SEED ^ 1);
    to_trace(&sample::representative(&base_dataset(), 400, &mut rng))
}

/// The RARE sample: 1000 of the most infrequently invoked functions
/// (Table 2 row 2).
pub fn rare_trace() -> Trace {
    let mut rng = Pcg64::seed_from_u64(EXPERIMENT_SEED ^ 2);
    to_trace(&sample::rare(&base_dataset(), 1000, &mut rng))
}

/// The RANDOM sample: 200 functions sampled uniformly (Table 2 row 3).
pub fn random_trace() -> Trace {
    let mut rng = Pcg64::seed_from_u64(EXPERIMENT_SEED ^ 3);
    to_trace(&sample::random(&base_dataset(), 200, &mut rng))
}

/// The cache sizes swept for the representative and rare traces
/// (the paper's Figures 5a/5b use 10–80 GB).
pub fn large_size_axis() -> Vec<MemMb> {
    [10u64, 15, 20, 30, 40, 50, 60, 80]
        .iter()
        .map(|&g| MemMb::from_gb(g))
        .collect()
}

/// The cache sizes swept for the random trace (Figure 5c uses 5–50 GB).
pub fn small_size_axis() -> Vec<MemMb> {
    [5u64, 10, 15, 20, 30, 40, 50]
        .iter()
        .map(|&g| MemMb::from_gb(g))
        .collect()
}

/// The emulated server of Figures 7 and 8: a 6000 MB pool, 6 CPU slots,
/// and 15 s of patience in the request buffer.
pub fn overload_config(policy: PolicyKind) -> PlatformConfig {
    let mut cfg = PlatformConfig::new(MemMb::new(6000), policy);
    cfg.max_concurrency = 6;
    cfg.patience = SimDuration::from_secs(15);
    cfg
}

/// Runs the Figure-5/6 sweep (all seven policies over the size axis).
pub fn policy_sweep(trace: &Trace, sizes: &[MemMb]) -> Vec<SweepPoint> {
    let base = SimConfig::new(sizes[0], PolicyKind::GreedyDual);
    sweep(trace, &PolicyKind::ALL, sizes, &base)
}

/// Pretty-prints a sweep grid with one row per size and one column per
/// policy, using `metric` to extract the cell value.
pub fn print_grid(
    grid: &[SweepPoint],
    sizes: &[MemMb],
    metric: impl Fn(&faascache::sim::SimResult) -> f64,
) {
    print!("{:>7}", "GB");
    for p in PolicyKind::ALL {
        print!("{:>9}", p.label());
    }
    println!();
    for (i, &size) in sizes.iter().enumerate() {
        print!("{:>7.0}", size.as_gb_f64());
        for (j, _) in PolicyKind::ALL.iter().enumerate() {
            let point = &grid[j * sizes.len() + i];
            print!("{:>9.3}", metric(&point.result));
        }
        println!();
    }
}
