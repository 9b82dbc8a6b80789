//! Golden sweep fingerprint: the decisions of every policy on two fixed
//! traces, pinned as constants.
//!
//! `crates/core/tests/differential.rs` drives a policy and its
//! brute-force reference through the *same* pool, so a mistake in
//! the pool's own tables (the per-function idle order, the warm pick, the
//! resident counts) hits both sides alike and passes. This test pins the
//! absolute outcome instead: seven policies × three memory sizes on two
//! traces, `(warm, cold, dropped, evictions, prewarms, wasted_init µs)`
//! per cell. The constants were captured at the commit before the pool's
//! and the policies' hash maps became dense tables (PR 15's parent) and
//! must never be re-captured to make a change pass: a cell that moves
//! means a keep-alive decision moved.
//!
//! Next to each cell sits the bit pattern of its startup-delay digest
//! (`SimResult::latency`: count and the five `f64`s), captured at PR 20's
//! parent, when the simulator still sorted one sample per served
//! invocation. The same rule holds: never re-captured.

use faascache_core::policy::PolicyKind;
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_trace::adapt::{adapt, AdaptOptions};
use faascache_trace::record::{Invocation, Trace};
use faascache_trace::synth::{self, SynthConfig};
use faascache_trace::workloads;
use faascache_util::{MemMb, SimDuration, SimTime};

/// `(warm, cold, dropped, evictions, prewarms, wasted_init µs)`.
type Cell = (u64, u64, u64, u64, u64, u64);

/// `(count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms)` of a cell's
/// `SimResult::latency`, the `f64`s as `to_bits()`.
type LatencyBits = (u64, u64, u64, u64, u64, u64);

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

fn fingerprint(trace: &Trace, sizes: [u64; 3]) -> Vec<(PolicyKind, u64, Cell, LatencyBits)> {
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
                (
                    r.latency.count,
                    r.latency.mean_ms.to_bits(),
                    r.latency.p50_ms.to_bits(),
                    r.latency.p95_ms.to_bits(),
                    r.latency.p99_ms.to_bits(),
                    r.latency.max_ms.to_bits(),
                ),
            ));
        }
    }
    cells
}

fn assert_matches(
    name: &str,
    got: &[(PolicyKind, u64, Cell, LatencyBits)],
    want: &[Cell],
    want_latency: &[LatencyBits],
) {
    // Printed on failure only: the whole table in the constants' format,
    // so a divergence can be read cell by cell.
    let table: Vec<String> = got
        .iter()
        .map(|(p, mb, c, _)| format!("    {c:?}, // {p} {mb} MB"))
        .collect();
    assert_eq!(got.len(), want.len(), "{name}: got\n{}", table.join("\n"));
    assert_eq!(got.len(), want_latency.len(), "{name}: latency table");
    for (((policy, mb, cell, latency), expected), expected_latency) in
        got.iter().zip(want).zip(want_latency)
    {
        assert_eq!(
            cell,
            expected,
            "{name}: {policy} at {mb} MB moved; got\n{}",
            table.join("\n")
        );
        assert_eq!(
            latency, expected_latency,
            "{name}: {policy} at {mb} MB: the delay digest moved (got {latency:#x?})"
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

#[rustfmt::skip]
const SKEWED_LATENCY_BITS: &[LatencyBits] = &[
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // GD 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // GD 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // GD 2048 MB
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // TTL 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // TTL 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // TTL 2048 MB
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // LRU 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // LRU 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // LRU 2048 MB
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // HIST 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // HIST 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // HIST 2048 MB
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // SIZE 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // SIZE 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // SIZE 2048 MB
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // LND 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // LND 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // LND 2048 MB
    (3996, 0x408755f9565bbd60, 0x0000000000000000, 0x409f400000000000, 0x409f400000000000, 0x40b1940000000000), // FREQ 1024 MB
    (5355, 0x403b81caef81caf0, 0x0000000000000000, 0x0000000000000000, 0x409a900000000000, 0x40b1940000000000), // FREQ 1536 MB
    (5387, 0x402a2312336b2964, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40b1940000000000), // FREQ 2048 MB
];

#[rustfmt::skip]
const SYNTH_LATENCY_BITS: &[LatencyBits] = &[
    (3353, 0x4084cdc48d4334e3, 0x406d8410624dd2f2, 0x40a452b95810624e, 0x40bf3113b645a1cb, 0x40c7443d70a3d70a), // GD 6144 MB
    (7204, 0x407e85207a1580f7, 0x405e6fced916872b, 0x40a05133b645a1cb, 0x40b39a3645a1cac1, 0x40c7443d70a3d70a), // GD 16384 MB
    (8000, 0x404747311a543f0d, 0x0000000000000000, 0x405e1719ce075f24, 0x409359449e44fa11, 0x40c7443d70a3d70a), // GD 49152 MB
    (3353, 0x40860d67557af707, 0x407214e147ae147b, 0x40a452b95810624e, 0x40bf3113b645a1cb, 0x40c7443d70a3d70a), // TTL 6144 MB
    (7204, 0x4082aad7fb7f3500, 0x406b194395810625, 0x40a20548b4395810, 0x40b6e6995810624e, 0x40c7443d70a3d70a), // TTL 16384 MB
    (8000, 0x4056afd5d56f32b9, 0x0000000000000000, 0x407c85d8e2196516, 0x409f1e6978d4fdf9, 0x40c7443d70a3d70a), // TTL 49152 MB
    (3353, 0x40860d67557af707, 0x407214e147ae147b, 0x40a452b95810624e, 0x40bf3113b645a1cb, 0x40c7443d70a3d70a), // LRU 6144 MB
    (7204, 0x4082aad7fb7f3500, 0x406b194395810625, 0x40a20548b4395810, 0x40b6e6995810624e, 0x40c7443d70a3d70a), // LRU 16384 MB
    (8000, 0x4056af24fa051437, 0x0000000000000000, 0x407c85d8e2196516, 0x409f1e6978d4fdf9, 0x40c7443d70a3d70a), // LRU 49152 MB
    (3353, 0x4081e74a7ec2d0ed, 0x406712e147ae147b, 0x40a3e6cc49ba5e35, 0x40af9ebef9db22d1, 0x40c7443d70a3d70a), // HIST 6144 MB
    (7204, 0x407e1a75f3c1eaa3, 0x4058a883126e978e, 0x40a05133b645a1cb, 0x40b3972ea161e514, 0x40c7443d70a3d70a), // HIST 16384 MB
    (8000, 0x405987b736cdf257, 0x0000000000000000, 0x40808374538ef349, 0x40a070d1e8e6081a, 0x40c7443d70a3d70a), // HIST 49152 MB
    (3353, 0x4084a71cbd3b65ed, 0x406b21810624dd2f, 0x40a452b95810624e, 0x40bf3113b645a1cb, 0x40c7443d70a3d70a), // SIZE 6144 MB
    (7204, 0x407e878c17387431, 0x4058b5f3b645a1cb, 0x40a0700ed916872b, 0x40b6e6995810624e, 0x40c7443d70a3d70a), // SIZE 16384 MB
    (8000, 0x404aff3524399b17, 0x0000000000000000, 0x406128b851eb8486, 0x40973ee7ff583a65, 0x40c7443d70a3d70a), // SIZE 49152 MB
    (3353, 0x4083c1e7b7212aba, 0x406874b439581062, 0x40a452b95810624e, 0x40bf3113b645a1cb, 0x40c7443d70a3d70a), // LND 6144 MB
    (7204, 0x407d3d48f07bd014, 0x405bffbe76c8b439, 0x409f1e3126e978d5, 0x40b335378d4fdf3b, 0x40c7443d70a3d70a), // LND 16384 MB
    (8000, 0x40476763c536d646, 0x0000000000000000, 0x40604e1cac083127, 0x4092ef749a565815, 0x40c7443d70a3d70a), // LND 49152 MB
    (3353, 0x40850bc06995ae5c, 0x406c56d0e5604189, 0x40a452b95810624e, 0x40bf3113b645a1cb, 0x40c7443d70a3d70a), // FREQ 6144 MB
    (7204, 0x408096b0ff777845, 0x40633428f5c28f5c, 0x40a0be6f9db22d0e, 0x40b6e6995810624e, 0x40c7443d70a3d70a), // FREQ 16384 MB
    (8000, 0x4056354bc382a131, 0x0000000000000000, 0x407682083126e979, 0x40a05182b40f66ad, 0x40c7443d70a3d70a), // FREQ 49152 MB
];

#[test]
fn skewed_frequency_decisions_are_pinned() {
    let trace = workloads::skewed_frequency(SimDuration::from_mins(20)).unwrap();
    let got = fingerprint(&trace, SKEWED_SIZES_MB);
    assert_matches("skewed_frequency", &got, SKEWED_GOLDEN, SKEWED_LATENCY_BITS);
}

#[test]
fn synthetic_azure_stretch_decisions_are_pinned() {
    let trace = synth_stretch();
    assert_eq!(trace.len(), 8_000);
    let got = fingerprint(&trace, SYNTH_SIZES_MB);
    assert_matches("synth", &got, SYNTH_GOLDEN, SYNTH_LATENCY_BITS);
}
