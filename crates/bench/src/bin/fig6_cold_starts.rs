//! Figure 6: % of invocations that are cold starts, for all seven
//! keep-alive policies across cache sizes, on the three trace samples.
//! Two grids follow the figure: the rare sample with memory and init
//! cost made uniform, and GD under four eviction batches.
//!
//! Run with: `cargo run --release -p faascache-bench --bin fig6_cold_starts`

use faascache::core::policy::PolicyKind;
use faascache::prelude::*;
use faascache::sim::sweep::sweep;
use faascache_bench::{
    large_size_axis, policy_sweep, print_grid, random_trace, rare_trace, representative_trace,
    small_size_axis,
};

/// Eviction batches (MB) for the GD grid; the paper's §6 default is 1000.
const BATCHES: [u64; 4] = [0, 250, 1000, 4000];

/// `trace` with every function at the sample's median memory and init
/// cost: the same invocations, and each function keeps its warm time.
fn at_median_size_and_cost(trace: &Trace) -> Trace {
    let specs: Vec<&FunctionSpec> = trace.registry().iter().collect();
    let median = |key: fn(&FunctionSpec) -> u64| {
        let mut values: Vec<u64> = specs.iter().map(|s| key(s)).collect();
        values.sort_unstable();
        values[values.len() / 2]
    };
    let mem = MemMb::new(median(|s| s.mem().as_mb()));
    let init = SimDuration::from_micros(median(|s| s.init_overhead().as_micros()));
    let mut registry = FunctionRegistry::new();
    for spec in &specs {
        registry
            .register(spec.name(), mem, spec.warm_time(), spec.warm_time() + init)
            .expect("the sample's names are unique");
    }
    Trace::new(registry, trace.invocations().to_vec())
}

fn main() {
    let sizes = large_size_axis();
    let representative = representative_trace();
    let rare = rare_trace();
    for (label, trace, sizes) in [
        ("(a) representative functions", &representative, &sizes),
        ("(b) rare functions", &rare, &sizes),
        ("(c) random sampling", &random_trace(), &small_size_axis()),
    ] {
        println!("Figure 6{label}: % cold starts");
        let grid = policy_sweep(trace, sizes);
        print_grid(&grid, sizes, |r| r.pct_cold());
        println!();
    }

    println!(
        "Figure 6(b') rare functions, every function at the sample's median memory \
         and init cost: % cold starts"
    );
    let uniform = at_median_size_and_cost(&rare);
    print_grid(&policy_sweep(&uniform, &sizes), &sizes, |r| r.pct_cold());
    println!();

    println!("Figure 6(a) under GD by eviction batch (MB): % cold starts");
    let header = BATCHES.map(|mb| format!("{mb:>9}")).concat();
    println!("{:>7}{header}", "GB");
    let grids = BATCHES.map(|mb| {
        let base = SimConfig {
            eviction_batch: MemMb::new(mb),
            ..SimConfig::new(sizes[0], PolicyKind::GreedyDual)
        };
        sweep(&representative, &[PolicyKind::GreedyDual], &sizes, &base)
    });
    for (i, size) in sizes.iter().enumerate() {
        let cells: String = grids
            .iter()
            .map(|grid| format!("{:>9.3}", grid[i].result.pct_cold()))
            .collect();
        println!("{:>7.0}{cells}", size.as_gb_f64());
    }
}
