//! Tenant-fairness regression tests.
//!
//! Three suites, all asserting the same contract from different layers:
//!
//! 1. **Daemon hammer** — a real daemon (both io models, started and
//!    drained through `support/start.rs`) serves two
//!    tenants concurrently over real sockets: an *aggressor* whose
//!    memory budget it slams into immediately, so that each of its
//!    requests that would need a new container is throttled (its warm
//!    hits are served), and an unlimited *victim*. The victim must
//!    finish its entire run with **zero** throttles while the aggressor
//!    is demonstrably budgeted, with exact conservation and zero losses
//!    on both sides.
//!
//! 2. **Order-independence replay** — at the platform layer, the same
//!    per-tenant operation streams are interleaved in many different
//!    global orders (blocks, round-robin, seeded shuffles). Quota
//!    enforcement must not depend on the interleaving: every ordering
//!    ends with bit-identical per-tenant snapshots, and replaying one
//!    ordering twice yields the identical outcome sequence.
//!
//! 3. **Isolation under memory pressure** — one fixed interleaved
//!    sequence replayed solo, shared and shared-with-budget in virtual
//!    time: the budget must bring the victim's cold-start rate back to
//!    its solo value.

#[path = "support/start.rs"]
mod start;

use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_platform::sharded::{InvokeOutcome, Outcomes, ShardedConfig, ShardedInvoker};
use faascache_platform::tenant::{TenantQuota, TenantQuotas};
use faascache_server::client::{self, LoadOptions, LoadProto, RetryPolicy};
use faascache_server::daemon::{Daemon, DaemonConfig, Endpoint, IoModel};
use faascache_server::{Period, WorkloadConfig};
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::{MemMb, SimDuration, SimTime};
use start::{Running, Start};
use std::num::NonZeroUsize;
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------
// Suite 1: two-tenant daemon hammer, both io models
// ---------------------------------------------------------------------

/// Boots a daemon whose registry splits the workload's functions between
/// tenants `victim` (even indices) and `aggressor` (odd indices), with
/// the aggressor under a 1 MB memory budget: its first cold start puts it
/// over budget, so every later request that would need a new container
/// throttles until eviction or reap would shrink its footprint (which
/// this clean, pressure-free run never does), while requests that find
/// an idle container are served. The victim's quota is unlimited.
fn boot_fairness_daemon(io: IoModel, workload: &WorkloadConfig) -> Running<Daemon> {
    let trace = workload.build();
    let mut registry = trace.registry().clone();
    let ids: Vec<_> = registry.iter().map(|spec| spec.id()).collect();
    for (i, id) in ids.into_iter().enumerate() {
        registry.set_tenant(id, if i % 2 == 0 { "victim" } else { "aggressor" });
    }
    let mut quotas = TenantQuotas::unlimited();
    quotas.set(
        "aggressor",
        TenantQuota {
            inflight: u64::MAX,
            mem_mb: 1,
        },
    );
    let config = DaemonConfig {
        shards: NonZeroUsize::new(2).unwrap(),
        total_mem: MemMb::new(2048),
        queue_bound: NonZeroUsize::new(256).unwrap(),
        drain_timeout: Duration::from_secs(5),
        tenant_quotas: quotas,
        io_model: io,
        ..DaemonConfig::default()
    };
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    Daemon::bind(&endpoint, None, config, registry)
        .expect("bind fairness daemon")
        .start()
}

fn clean_load(requests: u64, seed: u64) -> LoadOptions {
    LoadOptions {
        target_rps: 10_000.0,
        requests,
        threads: 2,
        connections: 0,
        retry: RetryPolicy::none(),
        faults: None,
        read_timeout: Some(Period::ms(250)),
        seed,
        proto: LoadProto::Binary,
    }
}

/// The hammer: both tenants' schedule slices replayed concurrently over
/// a clean transport. Contracts:
///
/// - the victim is never throttled (its quota is unlimited, and the
///   aggressor's budget must not leak onto it);
/// - the aggressor *is* throttled (its budget is real);
/// - both tenants conserve every request with zero errors and losses;
/// - the daemon's own throttle counter equals the aggressor's tally.
fn two_tenant_hammer(io: IoModel) {
    let workload = WorkloadConfig {
        functions: NonZeroUsize::new(32).unwrap(),
        seed: 17,
        horizon_mins: 10,
        ..WorkloadConfig::default()
    };
    let trace = workload.build();
    let schedule = OpenLoopSchedule::from_trace(&trace, 10_000.0);
    let daemon = boot_fairness_daemon(io, &workload);
    let addr = daemon.addr.clone();

    let victim_sched = schedule.filtered(|f| f.index() % 2 == 0);
    let aggressor_sched = schedule.filtered(|f| f.index() % 2 == 1);
    let victim_opts = clean_load(200, 0x1C71);
    let aggressor_opts = clean_load(200, 0xA66E);

    let (victim, aggressor) = thread::scope(|scope| {
        let addr2 = addr.clone();
        let v = scope.spawn(move || client::run_load_with(&addr2, &victim_sched, victim_opts));
        let a = client::run_load_with(&addr, &aggressor_sched, aggressor_opts);
        (v.join().expect("victim load thread panicked"), a)
    });

    for (tenant, report) in [("victim", &victim), ("aggressor", &aggressor)] {
        assert_eq!(
            report.outcomes.total(),
            report.requests,
            "tenant {tenant} conservation violated: {}",
            report.summary_line()
        );
        assert_eq!(
            report.errors,
            0,
            "tenant {tenant} saw transport errors on a clean link: {}",
            report.summary_line()
        );
        assert_eq!(
            report.lost(),
            0,
            "tenant {tenant} lost requests: {}",
            report.summary_line()
        );
    }
    assert_eq!(
        victim.outcomes[InvokeOutcome::Throttled],
        0,
        "victim was throttled by the aggressor's budget: {}",
        victim.summary_line()
    );
    assert!(
        aggressor.outcomes[InvokeOutcome::Throttled] > 0,
        "aggressor was never throttled — its budget did nothing: {}",
        aggressor.summary_line()
    );

    let daemon_report = daemon.drain();
    let mut summed = victim.outcomes;
    summed += aggressor.outcomes;
    assert_eq!(
        daemon_report.stats.outcomes, summed,
        "daemon outcome counts disagree with the two tenants' tallies"
    );
    eprintln!(
        "fairness hammer ({io}): victim[{}] aggressor[{}] daemon[{}]",
        victim.summary_line(),
        aggressor.summary_line(),
        daemon_report.summary_line()
    );
}

#[test]
fn victim_tenant_is_never_throttled_by_an_aggressors_budget() {
    two_tenant_hammer(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn victim_tenant_is_never_throttled_by_an_aggressors_budget_epoll() {
    two_tenant_hammer(IoModel::Epoll);
}

// ---------------------------------------------------------------------
// Suite 2: order-independence of quota enforcement (platform layer)
// ---------------------------------------------------------------------

const VICTIM_OPS: usize = 64;
const AGGRESSOR_OPS: usize = 64;

/// Final per-tenant state, normalized for comparison:
/// `(name, in_flight, mem_mb, served, throttled)`.
type TenantState = (String, u64, u64, u64, u64);

/// One run of the fixed per-tenant op streams under a given global
/// interleaving. `order[i] == true` means slot `i` holds the victim's
/// next op, `false` the aggressor's; each tenant's internal op order is
/// always v0,v1,v2,v3,v0,… / a0,a1,a2,a3,a0,…, so only the *global*
/// interleaving varies between runs. Virtual time is the slot index, so
/// an op's timestamp follows its global position, not its tenant.
///
/// Returns the full outcome sequence plus the final [`TenantState`]s,
/// sorted by name.
fn run_ordering(order: &[bool]) -> (Vec<InvokeOutcome>, Vec<TenantState>) {
    let mut reg = FunctionRegistry::new();
    let victims: Vec<FunctionId> = (0..4)
        .map(|i| {
            reg.register_in(
                format!("v{i}"),
                MemMb::new(64),
                SimDuration::from_micros(2),
                SimDuration::from_micros(100),
                "victim",
            )
            .expect("register victim fn")
        })
        .collect();
    let aggressors: Vec<FunctionId> = (0..4)
        .map(|i| {
            reg.register_in(
                format!("a{i}"),
                MemMb::new(256),
                SimDuration::from_micros(2),
                SimDuration::from_micros(100),
                "aggressor",
            )
            .expect("register aggressor fn")
        })
        .collect();

    // Budget below the aggressor's smallest function: its first op is
    // admitted (resident 0 < 128) and pins it over budget; with no
    // memory pressure in a 2048 MB pool nothing ever shrinks it back. So
    // `a0`, whose container is resident, is served warm every time, and
    // `a1`–`a3`, which would need new containers, always throttle.
    let mut quotas = TenantQuotas::unlimited();
    quotas.set(
        "aggressor",
        TenantQuota {
            inflight: u64::MAX,
            mem_mb: 128,
        },
    );
    let config = ShardedConfig::split(MemMb::new(2048), 2).with_tenant_quotas(quotas);
    let policies = (0..2)
        .map(|_| PolicyKind::GreedyDual.build() as Box<dyn KeepAlivePolicy>)
        .collect();
    let invoker = ShardedInvoker::new(config, policies);

    let (mut vi, mut ai) = (0usize, 0usize);
    let mut outcomes = Vec::with_capacity(order.len());
    for (slot, &is_victim) in order.iter().enumerate() {
        let f = if is_victim {
            let f = victims[vi % victims.len()];
            vi += 1;
            f
        } else {
            let f = aggressors[ai % aggressors.len()];
            ai += 1;
            f
        };
        outcomes.push(invoker.invoke(reg.spec(f), SimTime::from_micros(slot as u64 * 1_000)));
    }
    assert_eq!(vi, VICTIM_OPS, "ordering must contain every victim op");
    assert_eq!(
        ai, AGGRESSOR_OPS,
        "ordering must contain every aggressor op"
    );

    let mut tenants: Vec<TenantState> = invoker
        .tenant_snapshots()
        .into_iter()
        .filter(|t| t.served + t.throttled > 0)
        .map(|t| (t.name, t.in_flight, t.mem_mb, t.served, t.throttled))
        .collect();
    tenants.sort();
    (outcomes, tenants)
}

/// xorshift64* — deterministic shuffles without `rand` or wall clocks.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn shuffled_order(seed: u64) -> Vec<bool> {
    let mut order: Vec<bool> = (0..VICTIM_OPS)
        .map(|_| true)
        .chain((0..AGGRESSOR_OPS).map(|_| false))
        .collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Quota enforcement must be a function of each tenant's own history,
/// not of how the two tenants' streams happen to interleave: every
/// global ordering of the same per-tenant op streams ends in identical
/// per-tenant state. (Outcome *sequences* differ between orderings —
/// which slot goes cold depends on arrival order — but the final
/// snapshots may not.)
#[test]
fn quota_enforcement_is_independent_of_tenant_interleaving() {
    let round_robin: Vec<bool> = (0..VICTIM_OPS + AGGRESSOR_OPS)
        .map(|i| i % 2 == 0)
        .collect();
    let victim_first: Vec<bool> = (0..VICTIM_OPS)
        .map(|_| true)
        .chain((0..AGGRESSOR_OPS).map(|_| false))
        .collect();
    let aggressor_first: Vec<bool> = (0..AGGRESSOR_OPS)
        .map(|_| false)
        .chain((0..VICTIM_OPS).map(|_| true))
        .collect();
    let mut orderings = vec![round_robin, victim_first, aggressor_first];
    for seed in [0xF41A_11CE_u64, 0xD15C_0BA1, 0x5EED_5EED] {
        orderings.push(shuffled_order(seed));
    }

    let (_, baseline) = run_ordering(&orderings[0]);
    assert_eq!(
        baseline,
        vec![
            (
                "aggressor".to_string(),
                0,
                256,
                (AGGRESSOR_OPS / 4) as u64,
                (AGGRESSOR_OPS * 3 / 4) as u64
            ),
            ("victim".to_string(), 0, 256, VICTIM_OPS as u64, 0),
        ],
        "baseline ordering reached unexpected per-tenant state"
    );
    for (i, order) in orderings.iter().enumerate().skip(1) {
        let (_, tenants) = run_ordering(order);
        assert_eq!(
            tenants, baseline,
            "ordering {i} reached different per-tenant state than ordering 0"
        );
    }
}

/// The same seeded ordering replayed twice is bit-for-bit deterministic:
/// identical outcome sequences and identical final snapshots. This is
/// what makes every fairness failure in this file reproducible from its
/// printed seed.
#[test]
fn seeded_fairness_replay_is_deterministic() {
    for seed in [1u64, 0xBADC_AB1E, 0x0DDB_A115] {
        let order = shuffled_order(seed);
        let (outcomes_a, tenants_a) = run_ordering(&order);
        let (outcomes_b, tenants_b) = run_ordering(&order);
        assert_eq!(
            outcomes_a, outcomes_b,
            "seed {seed:#x}: replay diverged in outcome sequence"
        );
        assert_eq!(
            tenants_a, tenants_b,
            "seed {seed:#x}: replay diverged in final tenant state"
        );
    }
}

// ---------------------------------------------------------------------
// Suite 3: the victim's cold-start rate under memory pressure
// ---------------------------------------------------------------------

/// Per-tenant `(warm, cold, throttled)` and the invoker's lost count for
/// one replay of the isolation sequence.
struct Isolation {
    victim: Outcomes,
    aggressor: Outcomes,
    lost: u64,
}

/// Replays one fixed interleaved sequence under memory pressure: every
/// fourth request is the victim's (round-robin over four 128 MB
/// functions, a 512 MB warm set), the rest cycle the aggressor's sixteen
/// 256 MB functions (4 GB, twice the 2,048 MB machine) with a coprime
/// stride. Virtual time follows the request index. Without the aggressor
/// the victim's requests keep their positions, so the solo baseline is
/// the same victim workload.
fn run_isolation(requests: u64, quotas: TenantQuotas, include_aggressor: bool) -> Isolation {
    let mut reg = FunctionRegistry::new();
    let mut register = |prefix: &str, count: usize, mem_mb: u64, tenant: &str| {
        (0..count)
            .map(|i| {
                reg.register_in(
                    format!("{prefix}{i}"),
                    MemMb::new(mem_mb),
                    SimDuration::from_micros(2),
                    SimDuration::from_micros(100),
                    tenant,
                )
                .expect("register fn")
            })
            .collect::<Vec<FunctionId>>()
    };
    let victims = register("v", 4, 128, "victim");
    let aggressors = register("a", 16, 256, "aggressor");

    let config = ShardedConfig::split(MemMb::new(2048), 4).with_tenant_quotas(quotas);
    let invoker = ShardedInvoker::with_kind(config, PolicyKind::GreedyDual);
    let mut tallies = [Outcomes::default(); 2];
    let mut answered = 0u64;
    for i in 0..requests {
        let is_victim = i % 4 == 0;
        if !is_victim && !include_aggressor {
            continue;
        }
        let f = if is_victim {
            victims[(i / 4) as usize % victims.len()]
        } else {
            aggressors[i.wrapping_mul(7) as usize % aggressors.len()]
        };
        let outcome = invoker.invoke(reg.spec(f), SimTime::from_micros(i * 500));
        assert!(
            matches!(
                outcome,
                InvokeOutcome::Warm | InvokeOutcome::Cold | InvokeOutcome::Throttled
            ),
            "request {i}: unexpected {outcome:?} with unbounded queues"
        );
        tallies[usize::from(!is_victim)].record(outcome);
        answered += 1;
    }
    Isolation {
        victim: tallies[0],
        aggressor: tallies[1],
        lost: answered.abs_diff(invoker.stats().outcomes.total()),
    }
}

/// The isolation property itself: under memory pressure an unbudgeted
/// aggressor's cold-start churn evicts the victim's warm containers over
/// and over, and a memory budget on the aggressor (its cold starts are
/// throttled at the line while its warm hits are served,
/// tenant-weighted eviction prefers its containers) puts the victim's
/// cold-start rate back within 1.25x of running alone.
#[test]
fn a_budgeted_aggressor_leaves_the_victims_cold_rate_at_solo() {
    let requests = 120_000;
    let mut budget = TenantQuotas::unlimited();
    budget.set(
        "aggressor",
        TenantQuota {
            inflight: u64::MAX,
            mem_mb: 768,
        },
    );
    let solo = run_isolation(requests, TenantQuotas::unlimited(), false);
    let shared = run_isolation(requests, TenantQuotas::unlimited(), true);
    let quota = run_isolation(requests, budget, true);

    // Virtual time makes the counts the same on every host.
    let outcomes = |warm, cold, throttled| Outcomes::from([warm, cold, 0, 0, throttled]);
    assert_eq!(
        solo.victim,
        outcomes(29_996, 4, 0),
        "one cold start per function"
    );
    assert_eq!(
        shared.victim,
        outcomes(21_905, 8_095, 0),
        "the neighbor must hurt"
    );
    assert_eq!(shared.aggressor, outcomes(0, 90_000, 0));
    assert_eq!(quota.victim, outcomes(29_996, 4, 0));
    assert_eq!(
        quota.aggressor,
        outcomes(22_497, 3, 67_500),
        "three 256 MB containers, hit whenever resident"
    );
    assert_eq!(solo.lost + shared.lost + quota.lost, 0);

    // The verdicts the counts stand for, should a pinned count ever move.
    let cold_rate = |o: Outcomes| o[InvokeOutcome::Cold] as f64 / o.served() as f64;
    assert!(cold_rate(shared.victim) > 100.0 * cold_rate(solo.victim));
    assert!(
        quota.aggressor[InvokeOutcome::Throttled] > 0,
        "the budget never throttled"
    );
    assert!(cold_rate(quota.victim) <= 1.25 * cold_rate(solo.victim));
}
