//! Model-based test harness for the sharded invoker's load-aware routing.
//!
//! A single-threaded *reference model* — plain `Vec`s and integer
//! arithmetic, no locks, no indexes — executes the same seeded op
//! sequence (invoke / reap / rebalance / drain) as the real
//! [`ShardedInvoker`] and the two are compared after **every** operation:
//! per-op outcomes, per-shard warm-container counts and memory, lifetime
//! counters, published route overrides, and the global conservation
//! invariant. Because the model tracks every warm container explicitly,
//! state equality after each step proves no container is ever lost or
//! double-counted across re-home events — the property that makes
//! warm-set migration safe.
//!
//! The TTL policy is used throughout: its behaviour (expiry at
//! `now - last_used >= ttl`, LRU eviction under pressure) is exactly
//! modelable, so any divergence is a real bug, not model slack.
//!
//! Case count defaults to 512 and is elevatable via the
//! `FAASCACHE_MODEL_CASES` environment variable (the CI model job runs
//! more).

use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::{KeepAlivePolicy, Ttl};
use faascache_platform::sharded::{
    InvokeOutcome, Outcomes, RebalanceConfig, RebalanceEvent, ShardedConfig, ShardedInvoker,
};
use faascache_platform::tenant::{TenantQuota, TenantQuotas};
use faascache_util::{route, MemMb, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

const WARM_US: u64 = 5_000;
const COLD_US: u64 = 50_000;

/// Function memory footprint: two size classes exercise partial-fit
/// adoption (a migrated set that only partly fits the destination).
fn mem_of(f: usize) -> u64 {
    if f.is_multiple_of(2) {
        64
    } else {
        128
    }
}

/// One scripted operation against both systems.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Invoke function `f` after advancing time by `gap` µs.
    Invoke { f: usize, gap: u64 },
    /// TTL-reap every shard after advancing time by `gap` µs.
    Reap { gap: u64 },
    /// One rebalancer tick after advancing time by `gap` µs.
    Rebalance { gap: u64 },
    /// Flip the drain gate: every later invoke must be rejected.
    Drain,
}

/// Scenario parameters drawn per case.
#[derive(Debug, Clone)]
struct Scenario {
    shards: usize,
    functions: usize,
    per_shard_mb: u64,
    ttl_ms: u64,
    factor: f64,
    ticks: u32,
    /// Functions are spread over this many tenants (`f % n_tenants`).
    n_tenants: usize,
    /// Two bits of quota class per tenant, see [`quota_for_class`].
    quota_bits: u16,
    ops: Vec<Op>,
}

/// Decodes a 2-bit quota class: unlimited, two memory-budget tiers that
/// real workloads will actually hit at these shard sizes, and the
/// degenerate zero-in-flight budget (admits nothing, throttles all).
fn quota_for_class(class: u16) -> TenantQuota {
    match class & 3 {
        0 => TenantQuota::UNLIMITED,
        1 => TenantQuota {
            inflight: u64::MAX,
            mem_mb: 128,
        },
        2 => TenantQuota {
            inflight: u64::MAX,
            mem_mb: 256,
        },
        _ => TenantQuota {
            inflight: 0,
            mem_mb: u64::MAX,
        },
    }
}

fn scenario_quotas(s: &Scenario) -> TenantQuotas {
    let mut quotas = TenantQuotas::unlimited();
    for t in 0..s.n_tenants {
        quotas.set(format!("t{t}"), quota_for_class(s.quota_bits >> (2 * t)));
    }
    quotas
}

// ---------------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------------

/// A warm container: identity, owner, and the `last_used` stamp that
/// drives both the warm pick (max) and eviction/expiry order (min).
#[derive(Debug, Clone, Copy)]
struct ModelContainer {
    id: u64,
    f: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct ModelShard {
    cap_mb: u64,
    clock: u64,
    next_id: u64,
    /// Every resident container. Single-threaded service releases each
    /// container before the next op, so all residents are idle (warm).
    idle: Vec<ModelContainer>,
    warm: u64,
    cold: u64,
    drops: u64,
    evictions: u64,
    rejected: u64,
    window: u64,
    recent: BTreeMap<usize, u64>,
}

impl ModelShard {
    fn used_mb(&self) -> u64 {
        self.idle.iter().map(|c| mem_of(c.f)).sum()
    }

    fn free_mb(&self) -> u64 {
        self.cap_mb - self.used_mb()
    }
}

/// Per-tenant reference state: the budget and the lifetime counters the
/// real lock-free [`TenantTable`](faascache_platform::tenant::TenantTable)
/// must agree with after every op.
#[derive(Debug, Clone, Copy)]
struct ModelTenant {
    inflight_limit: u64,
    mem_limit: u64,
    served: u64,
    throttled: u64,
}

/// The single-threaded reference model of the whole sharded invoker.
struct Model {
    shards: Vec<ModelShard>,
    tenants: Vec<ModelTenant>,
    ttl_us: u64,
    factor: f64,
    ticks: u32,
    overrides: BTreeMap<usize, usize>,
    streaks: Vec<u32>,
    migrations: u64,
    draining: bool,
    /// Warm hits served to a tenant at or over its memory budget.
    over_budget_warm: u64,
}

impl Model {
    fn new(s: &Scenario) -> Self {
        Model {
            shards: (0..s.shards)
                .map(|_| ModelShard {
                    cap_mb: s.per_shard_mb,
                    ..ModelShard::default()
                })
                .collect(),
            tenants: (0..s.n_tenants)
                .map(|t| {
                    let q = quota_for_class(s.quota_bits >> (2 * t));
                    ModelTenant {
                        inflight_limit: q.inflight,
                        mem_limit: q.mem_mb,
                        served: 0,
                        throttled: 0,
                    }
                })
                .collect(),
            ttl_us: s.ttl_ms * 1_000,
            factor: s.factor,
            ticks: s.ticks,
            overrides: BTreeMap::new(),
            streaks: vec![0; s.shards],
            migrations: 0,
            draining: false,
            over_budget_warm: 0,
        }
    }

    fn home(&self, f: usize) -> usize {
        route::shard_for(f as u64, self.shards.len())
    }

    fn tenant_of(&self, f: usize) -> usize {
        f % self.tenants.len()
    }

    /// A tenant's resident warm memory, summed across every shard — the
    /// quantity the real ledger maintains incrementally through cold
    /// starts, evictions, reaps, and migrations, recomputed here from
    /// first principles each time.
    fn tenant_mem(&self, t: usize) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.idle)
            .filter(|c| self.tenant_of(c.f) == t)
            .map(|c| mem_of(c.f))
            .sum()
    }

    /// The shard an invocation of `f` lands on: override or home.
    fn route(&self, f: usize) -> usize {
        self.overrides
            .get(&f)
            .copied()
            .unwrap_or_else(|| self.home(f))
    }

    fn invoke(&mut self, f: usize, at: u64) -> InvokeOutcome {
        let s = self.route(f);
        if self.draining {
            self.shards[s].rejected += 1;
            return InvokeOutcome::Rejected;
        }
        // The tenant's in-flight gate (`TenantTable::try_admit`): for this
        // sequential driver (in-flight always 0 between ops) it can only
        // fail on the degenerate zero budget. The shard queue is unbounded.
        let t = self.tenant_of(f);
        if self.tenants[t].inflight_limit == 0 {
            self.tenants[t].throttled += 1;
            return InvokeOutcome::Throttled;
        }
        // Under the shard lock: a tenant at or over its memory budget is
        // throttled when only a new container could serve it. A throttle
        // touches no shard state: no clock advance, no window, no recent
        // entry.
        let over_budget = self.tenant_mem(t) >= self.tenants[t].mem_limit;
        let shard = &mut self.shards[s];
        // Warm pick: most recently used idle container of f, ties toward
        // the highest id (the pool's `(last_used, id)` BTreeSet max).
        let pick = shard
            .idle
            .iter()
            .enumerate()
            .filter(|(_, c)| c.f == f)
            .max_by_key(|(_, c)| (c.last_used, c.id))
            .map(|(i, _)| i);
        if over_budget && pick.is_none() {
            self.tenants[t].throttled += 1;
            return InvokeOutcome::Throttled;
        }
        shard.clock = shard.clock.max(at);
        let now = shard.clock;
        let outcome = if let Some(i) = pick {
            shard.idle[i].last_used = now;
            shard.warm += 1;
            self.over_budget_warm += u64::from(over_budget);
            InvokeOutcome::Warm
        } else {
            let mem = mem_of(f);
            if mem > shard.cap_mb {
                shard.drops += 1;
                return InvokeOutcome::Dropped;
            }
            // LRU eviction until the new container fits: ascending
            // `(last_used, id)` — the TTL policy's victim order.
            while shard.free_mb() < mem && !shard.idle.is_empty() {
                let victim = shard
                    .idle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (c.last_used, c.id))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                shard.idle.remove(victim);
                shard.evictions += 1;
            }
            if shard.free_mb() < mem {
                shard.drops += 1;
                return InvokeOutcome::Dropped;
            }
            let id = shard.next_id;
            shard.next_id += 1;
            shard.idle.push(ModelContainer {
                id,
                f,
                last_used: now,
            });
            shard.cold += 1;
            InvokeOutcome::Cold
        };
        shard.window += 1;
        *shard.recent.entry(f).or_insert(0) += 1;
        self.tenants[t].served += 1;
        outcome
    }

    fn reap(&mut self, at: u64) -> usize {
        let ttl = self.ttl_us;
        let mut total = 0;
        for shard in &mut self.shards {
            shard.clock = shard.clock.max(at);
            let now = shard.clock;
            let before = shard.idle.len();
            shard.idle.retain(|c| now - c.last_used < ttl);
            let reaped = before - shard.idle.len();
            shard.evictions += reaped as u64;
            total += reaped;
        }
        total
    }

    /// Mirrors `ShardedInvoker::rebalance_tick` step for step, including
    /// every deterministic tie-break.
    fn rebalance(&mut self, at: u64) -> Option<(usize, usize, usize, usize, usize)> {
        let n = self.shards.len();
        let served: Vec<u64> = self
            .shards
            .iter_mut()
            .map(|s| std::mem::take(&mut s.window))
            .collect();
        let recent: Vec<BTreeMap<usize, u64>> = self
            .shards
            .iter_mut()
            .map(|s| std::mem::take(&mut s.recent))
            .collect();
        let total: u64 = served.iter().sum();
        if total == 0 {
            self.streaks.iter_mut().for_each(|s| *s = 0);
            return None;
        }
        let mean = total as f64 / n as f64;
        for (i, &count) in served.iter().enumerate() {
            if count as f64 > self.factor * mean {
                self.streaks[i] += 1;
            } else {
                self.streaks[i] = 0;
            }
        }
        let hot = (0..n)
            .filter(|&i| self.streaks[i] >= self.ticks)
            .max_by_key(|&i| (served[i], Reverse(i)))?;
        let cold = (0..n)
            .filter(|&i| i != hot)
            .min_by_key(|&i| (served[i], self.shards[i].used_mb(), i))
            .expect("n >= 2");
        let mut by_fn: Vec<(usize, u64)> = recent[hot].iter().map(|(&f, &c)| (f, c)).collect();
        by_fn.sort_by_key(|&(f, c)| (Reverse(c), f));
        let pinned_here: Vec<usize> = by_fn
            .iter()
            .map(|&(f, _)| f)
            .filter(|&f| self.route(f) == hot)
            .collect();
        let now1 = {
            let s = &mut self.shards[hot];
            s.clock = s.clock.max(at);
            s.clock
        };
        {
            let s = &mut self.shards[cold];
            s.clock = s.clock.max(now1);
        }
        let Some(f) = pinned_here
            .into_iter()
            .find(|&f| self.shards[hot].idle.iter().any(|c| c.f == f))
        else {
            self.streaks[hot] = 0;
            return None;
        };
        // Extract in ascending (last_used, id) — the idle-index order the
        // real pool hands them out in — and adopt one by one.
        let mut extracted: Vec<ModelContainer> = Vec::new();
        self.shards[hot].idle.retain(|c| {
            if c.f == f {
                extracted.push(*c);
                false
            } else {
                true
            }
        });
        extracted.sort_by_key(|c| (c.last_used, c.id));
        let mem = mem_of(f);
        let (mut moved, mut left_behind) = (0usize, 0usize);
        for c in extracted {
            if self.shards[cold].free_mb() >= mem {
                let id = self.shards[cold].next_id;
                self.shards[cold].next_id += 1;
                self.shards[cold].idle.push(ModelContainer {
                    id,
                    f,
                    last_used: c.last_used,
                });
                moved += 1;
            } else {
                let id = self.shards[hot].next_id;
                self.shards[hot].next_id += 1;
                self.shards[hot].idle.push(ModelContainer {
                    id,
                    f,
                    last_used: c.last_used,
                });
                left_behind += 1;
            }
        }
        if moved == 0 {
            self.streaks[hot] = 0;
            return None;
        }
        if cold == self.home(f) {
            self.overrides.remove(&f);
        } else {
            self.overrides.insert(f, cold);
        }
        self.migrations += 1;
        self.streaks[hot] = 0;
        Some((f, hot, cold, moved, left_behind))
    }
}

// ---------------------------------------------------------------------------
// The harness: drive both, compare after every op
// ---------------------------------------------------------------------------

struct Harness {
    real: ShardedInvoker,
    model: Model,
    reg: FunctionRegistry,
    fns: Vec<FunctionId>,
    issued: u64,
    now: u64,
}

impl Harness {
    fn new(s: &Scenario) -> Self {
        let mut reg = FunctionRegistry::new();
        let fns: Vec<FunctionId> = (0..s.functions)
            .map(|f| {
                reg.register_in(
                    format!("f{f}"),
                    MemMb::new(mem_of(f)),
                    SimDuration::from_micros(WARM_US),
                    SimDuration::from_micros(COLD_US),
                    &format!("t{}", f % s.n_tenants),
                )
                .expect("registration")
            })
            .collect();
        let ttl = SimDuration::from_millis(s.ttl_ms);
        let policies = (0..s.shards)
            .map(|_| Box::new(Ttl::new(ttl)) as Box<dyn KeepAlivePolicy>)
            .collect();
        let config = ShardedConfig::split(MemMb::new(s.per_shard_mb * s.shards as u64), s.shards)
            .with_rebalance(RebalanceConfig {
                factor: s.factor,
                ticks: s.ticks,
            })
            .with_tenant_quotas(scenario_quotas(s));
        Harness {
            real: ShardedInvoker::new(config, policies),
            model: Model::new(s),
            reg,
            fns,
            issued: 0,
            now: 0,
        }
    }

    fn step(&mut self, op: Op) {
        match op {
            Op::Invoke { f, gap } => {
                self.now += gap;
                let f = f % self.fns.len();
                let spec = self.reg.spec(self.fns[f]);
                let got = self.real.invoke(spec, SimTime::from_micros(self.now));
                let want = self.model.invoke(f, self.now);
                self.issued += 1;
                assert_eq!(got, want, "invoke(f{f}) diverged at t={}", self.now);
            }
            Op::Reap { gap } => {
                self.now += gap;
                let got = self
                    .real
                    .housekeep(&self.reg, SimTime::from_micros(self.now));
                let want = self.model.reap(self.now);
                assert_eq!(got, want, "reap count diverged at t={}", self.now);
            }
            Op::Rebalance { gap } => {
                self.now += gap;
                let got = self.real.rebalance_tick(SimTime::from_micros(self.now));
                let want = self.model.rebalance(self.now);
                let got_tuple = got.map(
                    |RebalanceEvent {
                         function,
                         from,
                         to,
                         moved,
                         left_behind,
                     }| { (function.index(), from, to, moved, left_behind) },
                );
                assert_eq!(got_tuple, want, "rebalance diverged at t={}", self.now);
            }
            Op::Drain => {
                self.real.begin_drain();
                self.model.draining = true;
            }
        }
        self.check_state();
    }

    /// Full-state equivalence: per-shard containers (count + memory),
    /// lifetime counters, overrides, and conservation. Holding after
    /// every op means no warm container is ever lost or double-counted.
    fn check_state(&self) {
        let per_shard = self.real.per_shard();
        assert_eq!(per_shard.len(), self.model.shards.len());
        for (real, model) in per_shard.iter().zip(&self.model.shards) {
            let i = real.shard;
            assert_eq!(
                real.warm_containers,
                model.idle.len(),
                "shard {i} warm-container count diverged"
            );
            // The exact warm set — which functions' containers live here,
            // with which usage history. Identity-level equality, not just
            // counts: a lost, duplicated, or history-mangled container
            // shows up immediately.
            let want: Vec<(FunctionId, SimTime)> = {
                let mut v: Vec<(FunctionId, SimTime)> = model
                    .idle
                    .iter()
                    .map(|c| (self.fns[c.f], SimTime::from_micros(c.last_used)))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(self.real.warm_set(i), want, "shard {i} warm set diverged");
            assert_eq!(
                real.used_mem,
                MemMb::new(model.used_mb()),
                "shard {i} memory diverged"
            );
            assert_eq!(real.tally.warm, model.warm, "shard {i} warm");
            assert_eq!(real.tally.cold, model.cold, "shard {i} cold");
            assert_eq!(real.tally.dropped, model.drops, "shard {i} drops");
            assert_eq!(
                real.counters.evictions, model.evictions,
                "shard {i} evictions"
            );
            assert_eq!(real.rejected, model.rejected, "shard {i} rejected");
            assert_eq!(real.in_flight, 0, "sequential driver left work in flight");
        }
        // Published route overrides match exactly — a stale or missing
        // override would orphan a migrated warm set.
        for (f, &id) in self.fns.iter().enumerate() {
            assert_eq!(
                self.real.route_override(id),
                self.model.overrides.get(&f).copied(),
                "override for f{f} diverged"
            );
        }
        assert_eq!(self.real.stats().migrations, self.model.migrations);
        // Tenant ledger equality: the real lock-free table's per-tenant
        // resident memory, in-flight reservation, and lifetime counters
        // against the model's from-first-principles recomputation.
        // Holding after every op — through cold starts, evictions, reaps,
        // re-homes, and throttles — proves no tenant counter is ever
        // lost, double-counted, or leaked.
        let snaps = self.real.tenant_snapshots();
        for snap in &snaps {
            let t: usize = snap
                .name
                .strip_prefix('t')
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("unexpected tenant slot {:?}", snap.name));
            let model = &self.model.tenants[t];
            assert_eq!(
                snap.mem_mb,
                self.model.tenant_mem(t),
                "tenant t{t} resident memory diverged"
            );
            assert_eq!(snap.in_flight, 0, "tenant t{t} leaked an in-flight slot");
            assert_eq!(snap.served, model.served, "tenant t{t} served diverged");
            assert_eq!(
                snap.throttled, model.throttled,
                "tenant t{t} throttled diverged"
            );
        }
        // Every tenant with any activity must have a bound slot: a
        // missing snapshot means its counters went somewhere else's.
        for (t, model) in self.model.tenants.iter().enumerate() {
            if model.served + model.throttled > 0 {
                assert!(
                    snaps.iter().any(|s| s.name == format!("t{t}")),
                    "active tenant t{t} has no bound slot"
                );
            }
        }
        // Conservation: every issued request got exactly one outcome, the
        // one the model gave it.
        let model = &self.model;
        let shards = |count: fn(&ModelShard) -> u64| model.shards.iter().map(count).sum();
        let want = Outcomes::from([
            shards(|s| s.warm),
            shards(|s| s.cold),
            shards(|s| s.drops),
            shards(|s| s.rejected),
            model.tenants.iter().map(|t| t.throttled).sum(),
        ]);
        let outcomes = self.real.stats().outcomes;
        assert_eq!(outcomes, want, "aggregate outcomes diverged");
        assert_eq!(outcomes.total(), self.issued, "conservation violated");
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Raw op tuples `(kind, f, gap_ms)` are decoded into [`Op`]s: invokes
/// dominate, function choice is skewed toward f0 (so one function runs
/// hot and the rebalancer has something to do), and drain appears rarely.
fn decode_op(kind: u8, x: u64, gap_ms: u16) -> Op {
    let gap = (gap_ms as u64 % 2_000) * 1_000;
    match kind % 16 {
        0..=5 => Op::Invoke { f: 0, gap }, // hot function
        6..=11 => Op::Invoke {
            f: (x % 1024) as usize,
            gap,
        },
        12 => Op::Reap { gap },
        13 | 14 => Op::Rebalance { gap },
        _ => Op::Drain,
    }
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (2usize..=4, 4usize..=12, 0usize..=2),
        (200u64..=2_000, 1.05f64..1.8, 1u32..=3),
        (1usize..=3, any::<u16>()),
        prop::collection::vec((any::<u8>(), any::<u64>(), any::<u16>()), 20..=120),
    )
        .prop_map(
            |(
                (shards, functions, cap_class),
                (ttl_ms, factor, ticks),
                (n_tenants, quota_bits),
                raw,
            )| Scenario {
                shards,
                functions,
                per_shard_mb: [192, 256, 384][cap_class],
                ttl_ms,
                factor,
                ticks,
                n_tenants,
                quota_bits,
                ops: raw
                    .into_iter()
                    .map(|(k, x, g)| decode_op(k, x, g))
                    .collect(),
            },
        )
}

fn model_cases() -> u32 {
    std::env::var("FAASCACHE_MODEL_CASES").map_or(512, |v| {
        v.parse()
            .expect("FAASCACHE_MODEL_CASES must be a case count")
    })
}

/// Over-budget warm hits the property's cases served, summed.
static OVER_BUDGET_WARM: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(model_cases()))]

    /// The cases of [`sharded_invoker_matches_reference_model`].
    fn reference_model_cases(scenario in scenario_strategy()) {
        let mut h = Harness::new(&scenario);
        for &op in &scenario.ops {
            h.step(op);
        }
        OVER_BUDGET_WARM.fetch_add(h.model.over_budget_warm, Ordering::Relaxed);
    }
}

/// The flagship property: the real sharded invoker — rebalancing
/// enabled — is indistinguishable from the single-threaded reference model on any
/// seeded op sequence, after every single operation. Any 8 or more cases
/// include warm hits of tenants at their memory budget, which are served
/// (the first two cases hold none).
#[test]
fn sharded_invoker_matches_reference_model() {
    reference_model_cases();
    assert!(
        model_cases() < 8 || OVER_BUDGET_WARM.load(Ordering::Relaxed) > 0,
        "no case served an over-budget tenant's warm hit"
    );
}

// ---------------------------------------------------------------------------
// Directed model scripts: force the interesting paths every run
// ---------------------------------------------------------------------------

/// Sustained skew must drive the full migration cycle — override
/// published, warm set served at the new home, and the model agrees at
/// every step. Random sequences hit this too, but only probabilistically;
/// this script guarantees the migration path is exercised on every run.
#[test]
fn model_agrees_across_a_forced_migration_cycle() {
    let scenario = Scenario {
        shards: 4,
        functions: 8,
        per_shard_mb: 384,
        ttl_ms: 60_000,
        factor: 1.3,
        ticks: 2,
        n_tenants: 2,
        quota_bits: 0, // both tenants unlimited: quotas must not perturb migration
        ops: Vec::new(),
    };
    let mut h = Harness::new(&scenario);
    let mut ops: Vec<Op> = Vec::new();
    // Six windows of one hot function plus background traffic, a
    // rebalance tick after each.
    for _ in 0..6 {
        for _ in 0..24 {
            ops.push(Op::Invoke { f: 0, gap: 500 });
        }
        for f in 1..8 {
            ops.push(Op::Invoke { f, gap: 200 });
        }
        ops.push(Op::Rebalance { gap: 1_000 });
    }
    // Post-migration traffic follows the override; then expiry, a quiet
    // tick, and drain.
    for _ in 0..8 {
        ops.push(Op::Invoke { f: 0, gap: 700 });
    }
    ops.push(Op::Reap { gap: 120_000_000 });
    ops.push(Op::Rebalance { gap: 1_000 });
    ops.push(Op::Drain);
    ops.push(Op::Invoke { f: 0, gap: 100 });
    for op in ops {
        h.step(op);
    }
    assert!(
        h.real.stats().migrations >= 1,
        "the script must force at least one migration"
    );
    assert_eq!(h.real.stats().migrations, h.model.migrations);
}

/// Quota-cycle script: a tenant with a tight memory budget fills it with
/// cold starts, is served warm on what it holds and throttled on what it
/// would add; then a TTL reap releases the memory and the gate must
/// reopen — proving the real ledger goes down as well as up, with the
/// model in lockstep and the bystander tenant untouched.
#[test]
fn model_agrees_across_a_throttle_and_release_cycle() {
    let scenario = Scenario {
        shards: 2,
        functions: 8,
        per_shard_mb: 384,
        ttl_ms: 10_000,
        factor: 1.3,
        ticks: 2,
        n_tenants: 2,
        quota_bits: 0b00_01, // t0 capped at mem=128, t1 unlimited
        ops: Vec::new(),
    };
    let mut h = Harness::new(&scenario);
    let mut ops: Vec<Op> = Vec::new();
    // t0 owns the even (64 MB) functions: two cold starts reach the
    // 128 MB budget; f0 is then a warm hit, served, and the next two even
    // invokes would need new containers, so they throttle.
    for f in [0, 2, 0, 4, 6] {
        ops.push(Op::Invoke { f, gap: 500 });
    }
    // The odd functions belong to the unlimited tenant t1 and sail through.
    for f in [1, 3, 5] {
        ops.push(Op::Invoke { f, gap: 200 });
    }
    // Expire everything; t0's budget reopens and its invokes serve again.
    ops.push(Op::Reap { gap: 60_000_000 });
    for f in [0, 2] {
        ops.push(Op::Invoke { f, gap: 300 });
    }
    for op in ops {
        h.step(op);
    }
    // f0's second invoke warm though t0 is at budget, f4 and f6
    // throttled; the post-reap invokes were admitted: cold twice more
    // than the pre-reap pair, nothing stuck behind a stale ledger.
    assert_eq!(
        h.real.stats().outcomes,
        Outcomes::from([1, 2 + 3 + 2, 0, 0, 2])
    );
    assert_eq!(h.model.over_budget_warm, 1);
    assert_eq!(
        h.model.tenants[1].throttled, 0,
        "bystander tenant throttled"
    );
}

/// Memory-pressure script: shards too small for the offered warm sets, so
/// migration runs into partial-fit adoption (left_behind > 0 paths) and
/// eviction churn — with the model in lockstep throughout.
#[test]
fn model_agrees_under_memory_pressure_migration() {
    let scenario = Scenario {
        shards: 2,
        functions: 6,
        per_shard_mb: 192,
        ttl_ms: 30_000,
        factor: 1.1,
        ticks: 1,
        n_tenants: 3,
        quota_bits: 0b10_00_00, // t2 capped at mem=256 while migration churns
        ops: Vec::new(),
    };
    let mut h = Harness::new(&scenario);
    let mut ops: Vec<Op> = Vec::new();
    for round in 0..10 {
        // Alternate hot function between rounds so overrides flip and
        // the destination shard is already crowded when adoption runs.
        let hot = if round % 2 == 0 { 1 } else { 3 };
        for _ in 0..16 {
            ops.push(Op::Invoke { f: hot, gap: 300 });
        }
        for f in 0..6 {
            ops.push(Op::Invoke { f, gap: 100 });
        }
        ops.push(Op::Rebalance { gap: 500 });
        if round % 3 == 2 {
            ops.push(Op::Reap { gap: 5_000 });
        }
    }
    for op in ops {
        h.step(op);
    }
}
