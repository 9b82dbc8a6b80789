//! Microbenchmarks of the keep-alive fast path (pool acquire/release) and
//! slow path (eviction) for every policy.
//!
//! The paper's §6 design keeps the ContainerPool unsorted and ranks it
//! only during evictions; these benches quantify both sides of that
//! trade.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faascache::core::policy::PolicyKind;
use faascache::prelude::*;
use std::hint::black_box;

fn registry(n: usize) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for i in 0..n {
        reg.register(
            format!("f{i}"),
            MemMb::new(64 + (i as u64 % 16) * 32),
            SimDuration::from_millis(20),
            SimDuration::from_millis(500 + (i as u64 % 10) * 100),
        )
        .expect("unique names");
    }
    reg
}

/// Warm-path throughput: acquire+release on an always-hitting pool.
fn bench_warm_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_path");
    let reg = registry(64);
    for kind in PolicyKind::ALL {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            let mut pool = ContainerPool::new(MemMb::from_gb(64), kind.build());
            // Warm every function once.
            let mut t = SimTime::ZERO;
            for spec in reg.iter() {
                if let Acquire::Cold { container, .. } = pool.acquire(spec, t) {
                    t += spec.cold_time();
                    pool.release(container, t);
                }
            }
            let mut i = 0usize;
            b.iter(|| {
                let spec = reg.spec(FunctionId::from_index((i % 64) as u32));
                t += SimDuration::from_millis(1);
                match pool.acquire(black_box(spec), t) {
                    Acquire::Warm { container } | Acquire::Cold { container, .. } => {
                        pool.release(container, t + spec.warm_time());
                    }
                    Acquire::NoCapacity => unreachable!("pool is large enough"),
                }
                i += 1;
            });
        });
    }
    group.finish();
}

/// Eviction (miss) path: every acquire must evict to make room.
fn bench_eviction_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction_path");
    let reg = registry(256);
    for kind in [
        PolicyKind::GreedyDual,
        PolicyKind::Lru,
        PolicyKind::Landlord,
        PolicyKind::Ttl,
    ] {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            // Pool that fits ~half the functions: constant eviction churn.
            let mut pool = ContainerPool::new(MemMb::from_gb(16), kind.build());
            let mut t = SimTime::ZERO;
            let mut i = 0usize;
            b.iter(|| {
                let spec = reg.spec(FunctionId::from_index((i % 256) as u32));
                t += SimDuration::from_millis(1);
                match pool.acquire(black_box(spec), t) {
                    Acquire::Warm { container } | Acquire::Cold { container, .. } => {
                        pool.release(container, t);
                    }
                    Acquire::NoCapacity => {}
                }
                i += 1;
            });
        });
    }
    group.finish();
}

/// Eviction at scale: 10k idle containers. Each iteration is one miss
/// that evicts to make room, so per-iteration time ~= per-eviction time:
/// a pop from the policy's heap, O(log n).
fn bench_bulk_eviction(c: &mut Criterion) {
    const IDLE: usize = 10_000;
    let mut group = c.benchmark_group("bulk_eviction_10k");
    let reg = registry(IDLE + 2_000);
    let capacity: MemMb = reg.iter().take(IDLE).map(|spec| spec.mem()).sum();
    for kind in [PolicyKind::GreedyDual, PolicyKind::Lru] {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            let mut pool = ContainerPool::new(capacity, kind.build());
            let mut t = SimTime::ZERO;
            for spec in reg.iter().take(IDLE) {
                t += SimDuration::from_millis(1);
                match pool.acquire(spec, t) {
                    Acquire::Cold { container, .. } => pool.release(container, t),
                    other => panic!("fill should cold-start, got {other:?}"),
                }
            }
            let mut i = 0usize;
            b.iter(|| {
                let spec = reg.spec(FunctionId::from_index(((IDLE + i) % (IDLE + 2_000)) as u32));
                t += SimDuration::from_millis(1);
                match pool.acquire(black_box(spec), t) {
                    Acquire::Warm { container } | Acquire::Cold { container, .. } => {
                        pool.release(container, t);
                    }
                    Acquire::NoCapacity => {}
                }
                i += 1;
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_warm_path,
    bench_eviction_path,
    bench_bulk_eviction
);
criterion_main!(benches);
