//! Concurrency stress tests for the invoker path (satellite of the
//! `faascached` serving-layer PR): hammer the sharded invoker, at four
//! shards and at one, from many threads and prove that
//!
//! 1. every submitted invocation receives exactly one outcome
//!    (`warm + cold + dropped + rejected == submitted`),
//! 2. the server-side counters agree with the client-side tallies, and
//! 3. pool memory accounting balances once the invoker quiesces.

use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind, Ttl};
use faascache_platform::sharded::{InvokeOutcome, ShardedConfig, ShardedInvoker};
use faascache_util::{MemMb, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 5_000;
const FUNCTIONS: u32 = 64;

fn registry() -> Arc<FunctionRegistry> {
    let mut reg = FunctionRegistry::new();
    for i in 0..FUNCTIONS {
        reg.register(
            format!("f{i}"),
            MemMb::new(32 + (i as u64 % 8) * 16),
            SimDuration::from_millis(2),
            SimDuration::from_millis(40),
        )
        .unwrap();
    }
    Arc::new(reg)
}

#[derive(Default)]
struct Tally {
    warm: AtomicU64,
    cold: AtomicU64,
    dropped: AtomicU64,
    rejected: AtomicU64,
    throttled: AtomicU64,
}

impl Tally {
    fn record(&self, outcome: InvokeOutcome) {
        let slot = match outcome {
            InvokeOutcome::Warm => &self.warm,
            InvokeOutcome::Cold => &self.cold,
            InvokeOutcome::Dropped => &self.dropped,
            InvokeOutcome::Rejected => &self.rejected,
            InvokeOutcome::Throttled => &self.throttled,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.warm.load(Ordering::Relaxed)
            + self.cold.load(Ordering::Relaxed)
            + self.dropped.load(Ordering::Relaxed)
            + self.rejected.load(Ordering::Relaxed)
            + self.throttled.load(Ordering::Relaxed)
    }
}

/// Invokes from `THREADS` threads at once and tallies the outcomes.
fn hammer(reg: &FunctionRegistry, inv: &ShardedInvoker) -> Tally {
    let tally = Tally::default();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tally = &tally;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let f = FunctionId::from_index(((t * 31 + i) % FUNCTIONS as u64) as u32);
                    tally.record(inv.invoke(reg.spec(f), SimTime::from_millis(i)));
                }
            });
        }
    });
    tally
}

#[test]
fn sharded_invoker_conserves_every_request() {
    let reg = registry();
    let inv = ShardedInvoker::with_kind(
        // Tight per-shard memory plus a small admission bound: all four
        // outcome classes occur under contention.
        ShardedConfig::split(MemMb::new(2048), 4).with_queue_bound(4),
        PolicyKind::GreedyDual,
    );
    let tally = hammer(&reg, &inv);

    let submitted = THREADS * PER_THREAD;
    assert_eq!(tally.total(), submitted, "an invocation vanished");

    // Client-side tallies must agree with the server-side counters.
    let stats = inv.stats();
    assert_eq!(stats.warm, tally.warm.load(Ordering::Relaxed));
    assert_eq!(stats.cold, tally.cold.load(Ordering::Relaxed));
    assert_eq!(stats.dropped, tally.dropped.load(Ordering::Relaxed));
    assert_eq!(stats.rejected, tally.rejected.load(Ordering::Relaxed));
    assert_eq!(stats.accounted(), submitted);

    // Quiesce: no in-flight work, memory within capacity, and per-shard
    // sums equal the aggregate.
    assert!(inv.drain(Duration::from_secs(5)));
    assert_eq!(inv.in_flight(), 0);
    assert!(inv.used_mem() <= inv.capacity());
    let per_shard_mem: u64 = inv.per_shard().iter().map(|s| s.used_mem.as_mb()).sum();
    assert_eq!(per_shard_mem, inv.used_mem().as_mb());
}

#[test]
fn legacy_shared_invoker_conserves_every_request() {
    let reg = registry();
    // One pool behind one lock, nothing bounded: the legacy configuration.
    let inv = ShardedInvoker::new(
        ShardedConfig::split(MemMb::new(1024), 1),
        vec![Box::new(faascache_core::policy::GreedyDual::new())],
    );
    let tally = hammer(&reg, &inv);

    let submitted = THREADS * PER_THREAD;
    assert_eq!(tally.total(), submitted);
    // The admission queue is unbounded: nothing is ever rejected.
    assert_eq!(tally.rejected.load(Ordering::Relaxed), 0);
    let counters = inv.pool_counters();
    assert_eq!(
        counters.warm_starts + counters.cold_starts + counters.drops,
        submitted
    );
    assert!(inv.used_mem() <= MemMb::new(1024));
}

#[test]
fn sharded_memory_balances_to_zero_after_ttl_reap() {
    let reg = registry();
    let config = ShardedConfig::split(MemMb::new(4096), 4);
    let policies: Vec<Box<dyn KeepAlivePolicy>> = (0..4)
        .map(|_| Box::new(Ttl::new(SimDuration::from_mins(10))) as Box<dyn KeepAlivePolicy>)
        .collect();
    let inv = ShardedInvoker::new(config, policies);
    let tally = hammer(&reg, &inv);
    assert_eq!(tally.total(), THREADS * PER_THREAD);
    assert!(inv.drain(Duration::from_secs(5)));

    // Every container is idle after quiesce; a far-future reap must return
    // the pool to exactly zero bytes — the accounting balances.
    let reaped = inv.housekeep(&reg, SimTime::from_mins(10_000));
    assert!(reaped > 0);
    assert_eq!(inv.used_mem(), MemMb::ZERO);
    for shard in inv.per_shard() {
        assert_eq!(shard.used_mem, MemMb::ZERO, "shard {}", shard.shard);
        assert_eq!(shard.in_flight, 0);
        assert_eq!(shard.warm_containers, 0);
    }
}
