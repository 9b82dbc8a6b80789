//! Golden sweep fingerprint: the decisions of every policy on two fixed
//! traces, pinned as constants.
//!
//! `crates/core/tests/differential.rs` drives the naive and the
//! incremental form of a policy through the *same* pool, so a mistake in
//! the pool's own tables (the per-function idle order, the warm pick, the
//! resident counts) hits both sides alike and passes. This test pins the
//! absolute outcome instead: seven policies × three memory sizes on two
//! traces, `(warm, cold, dropped, evictions, prewarms, wasted_init µs)`
//! per cell. The constants were captured at the commit before the pool's
//! and the policies' hash maps became dense tables (PR 15's parent) and
//! must never be re-captured to make a change pass: a cell that moves
//! means a keep-alive decision moved.

use faascache_core::policy::PolicyKind;
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_trace::adapt::{adapt, AdaptOptions};
use faascache_trace::record::{Invocation, Trace};
use faascache_trace::synth::{self, SynthConfig};
use faascache_trace::workloads;
use faascache_util::{MemMb, SimDuration, SimTime};

/// `(warm, cold, dropped, evictions, prewarms, wasted_init µs)`.
type Cell = (u64, u64, u64, u64, u64, u64);

/// Invocations `[from, from + 8000)` of a synthetic Azure-like day of 400
/// functions, rebased to start at zero.
fn synth_stretch() -> Trace {
    let config = SynthConfig {
        num_functions: 400,
        num_apps: 130,
        max_rate_per_min: 20.0,
        zipf_exponent: 0.8,
        diurnal_amplitude: 0.3,
        seed: 0x601D_5EED,
        ..SynthConfig::default()
    };
    let day = adapt(&synth::generate(&config), &AdaptOptions::default());
    let from = day.len() / 3;
    let stretch = &day.invocations()[from..from + 8_000];
    let origin = stretch[0].time;
    let rebased = stretch
        .iter()
        .map(|inv| Invocation {
            time: SimTime::ZERO + inv.time.since(origin),
            function: inv.function,
        })
        .collect();
    Trace::new(day.registry().clone(), rebased)
}

fn fingerprint(trace: &Trace, sizes: [u64; 3]) -> Vec<(PolicyKind, u64, Cell)> {
    let mut cells = Vec::new();
    for policy in PolicyKind::ALL {
        for mb in sizes {
            let r = Simulation::run(trace, &SimConfig::new(MemMb::new(mb), policy));
            assert_eq!(r.warm + r.cold + r.dropped, trace.len() as u64);
            cells.push((
                policy,
                mb,
                (
                    r.warm,
                    r.cold,
                    r.dropped,
                    r.evictions,
                    r.prewarms,
                    r.wasted_init.as_micros(),
                ),
            ));
        }
    }
    cells
}

fn assert_matches(name: &str, got: &[(PolicyKind, u64, Cell)], want: &[Cell]) {
    // Printed on failure only: the whole table in the constants' format,
    // so a divergence can be read cell by cell.
    let table: Vec<String> = got
        .iter()
        .map(|(p, mb, c)| format!("    {c:?}, // {p} {mb} MB"))
        .collect();
    assert_eq!(got.len(), want.len(), "{name}: got\n{}", table.join("\n"));
    for ((policy, mb, cell), expected) in got.iter().zip(want) {
        assert_eq!(
            cell,
            expected,
            "{name}: {policy} at {mb} MB moved; got\n{}",
            table.join("\n")
        );
    }
}

const SKEWED_SIZES_MB: [u64; 3] = [1024, 1536, 2048];
const SYNTH_SIZES_MB: [u64; 3] = [6144, 16384, 49152];

#[rustfmt::skip]
const SKEWED_GOLDEN: &[Cell] = &[
    (2395, 1601, 1404, 1596, 0, 2984000000), // GD 1024 MB
    (5287, 68, 45, 62, 0, 147300000), // GD 1536 MB
    (5356, 31, 13, 24, 0, 70400000), // GD 2048 MB
    (2395, 1601, 1404, 1596, 0, 2984000000), // TTL 1024 MB
    (5287, 68, 45, 63, 0, 147300000), // TTL 1536 MB
    (5356, 31, 13, 26, 0, 70400000), // TTL 2048 MB
    (2395, 1601, 1404, 1596, 0, 2984000000), // LRU 1024 MB
    (5287, 68, 45, 62, 0, 147300000), // LRU 1536 MB
    (5356, 31, 13, 24, 0, 70400000), // LRU 2048 MB
    (2395, 1601, 1404, 1596, 0, 2984000000), // HIST 1024 MB
    (5287, 68, 45, 62, 0, 147300000), // HIST 1536 MB
    (5356, 31, 13, 24, 0, 70400000), // HIST 2048 MB
    (2395, 1601, 1404, 1596, 0, 2984000000), // SIZE 1024 MB
    (5287, 68, 45, 62, 0, 147300000), // SIZE 1536 MB
    (5356, 31, 13, 24, 0, 70400000), // SIZE 2048 MB
    (2395, 1601, 1404, 1596, 0, 2984000000), // LND 1024 MB
    (5287, 68, 45, 62, 0, 147300000), // LND 1536 MB
    (5356, 31, 13, 24, 0, 70400000), // LND 2048 MB
    (2395, 1601, 1404, 1596, 0, 2984000000), // FREQ 1024 MB
    (5287, 68, 45, 62, 0, 147300000), // FREQ 1536 MB
    (5356, 31, 13, 24, 0, 70400000), // FREQ 2048 MB
];

#[rustfmt::skip]
const SYNTH_GOLDEN: &[Cell] = &[
    (971, 2382, 4647, 2358, 0, 2232162421), // GD 6144 MB
    (3010, 4194, 796, 4068, 0, 3517860370), // GD 16384 MB
    (7469, 531, 0, 143, 0, 372449488), // GD 49152 MB
    (855, 2498, 4647, 2474, 0, 2366129804), // TTL 6144 MB
    (2311, 4893, 796, 4781, 0, 4303348735), // TTL 16384 MB
    (7163, 837, 0, 491, 0, 725979411), // TTL 49152 MB
    (855, 2498, 4647, 2474, 0, 2366129804), // LRU 6144 MB
    (2311, 4893, 796, 4781, 0, 4303348735), // LRU 16384 MB
    (7164, 836, 0, 490, 0, 725893055), // LRU 49152 MB
    (1290, 2063, 4647, 2544, 505, 1920971839), // HIST 6144 MB
    (3258, 3946, 796, 4219, 381, 3469833953), // HIST 16384 MB
    (7066, 934, 0, 1956, 1341, 816964460), // HIST 49152 MB
    (1115, 2238, 4647, 2214, 0, 2215960927), // SIZE 6144 MB
    (3242, 3962, 796, 3811, 0, 3518950140), // SIZE 16384 MB
    (7529, 471, 0, 76, 0, 431950474), // SIZE 49152 MB
    (1083, 2270, 4647, 2246, 0, 2119894491), // LND 6144 MB
    (3067, 4137, 796, 4002, 0, 3370249535), // LND 16384 MB
    (7465, 535, 0, 149, 0, 374461858), // LND 49152 MB
    (1024, 2329, 4647, 2305, 0, 2258141394), // FREQ 6144 MB
    (2899, 4305, 796, 4193, 0, 3824145604), // FREQ 16384 MB
    (7264, 736, 0, 390, 0, 710661994), // FREQ 49152 MB
];

#[test]
fn skewed_frequency_decisions_are_pinned() {
    let trace = workloads::skewed_frequency(SimDuration::from_mins(20)).unwrap();
    let got = fingerprint(&trace, SKEWED_SIZES_MB);
    assert_matches("skewed_frequency", &got, SKEWED_GOLDEN);
}

#[test]
fn synthetic_azure_stretch_decisions_are_pinned() {
    let trace = synth_stretch();
    assert_eq!(trace.len(), 8_000);
    let got = fingerprint(&trace, SYNTH_SIZES_MB);
    assert_matches("synth", &got, SYNTH_GOLDEN);
}
