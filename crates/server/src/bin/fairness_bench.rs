//! `fairness-bench` — per-tenant isolation benchmark, written as
//! `BENCH_8.json`.
//!
//! ```text
//! fairness-bench [--out PATH] [--requests N] [--mem MB]
//!                [--aggressor-mem MB] [--warm-us US] [--cold-us US]
//! ```
//!
//! Two tenants share one sharded invoker. The **victim** runs four
//! modest functions whose combined warm set fits comfortably; the
//! **aggressor** cycles through sixteen large functions whose combined
//! warm set is ~2× the machine, so without isolation its cold-start
//! churn evicts the victim's warm containers over and over. Three runs
//! replay the *same* deterministic interleaved sequence (virtual time is
//! a function of the request index — identical outcome sequences on
//! every host):
//!
//! 1. **solo** — the victim's requests alone, at their original
//!    positions: its cold-start-rate and latency baseline.
//! 2. **shared, no quotas** — aggressor traffic interleaved, no budgets:
//!    the collateral damage a noisy neighbor inflicts.
//! 3. **shared, quota** — the same traffic with the aggressor under a
//!    memory budget (`--aggressor-mem`, default 768 MB): admission
//!    throttles the aggressor at its budget line and the weighted
//!    greedy-dual eviction prefers its containers as victims, so the
//!    victim's cold-start rate must return to within 1.25× of solo.
//!
//! Each invocation pays its outcome's cost in real time (scaled-down
//! spins, same technique as `skew-bench`), so the victim's measured p95
//! shows the isolation too. The bench fails if any request goes
//! unaccounted, if the aggressor is never throttled in run 3, or if the
//! quota run's victim cold-start rate exceeds 1.25× the solo baseline.

use faascache_core::container::{Container, ContainerId};
use faascache_core::function::{FunctionId, FunctionRegistry, FunctionSpec};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_platform::sharded::{InvokeOutcome, ShardedConfig, ShardedInvoker};
use faascache_platform::tenant::{TenantQuota, TenantQuotas};
use faascache_util::{MemMb, SimDuration, SimTime};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const VICTIM_FNS: usize = 4;
const AGGRESSOR_FNS: usize = 16;
const VICTIM_MB: u64 = 128;
const AGGRESSOR_MB: u64 = 256;

fn usage() -> ! {
    eprintln!(
        "usage: fairness-bench [--out PATH] [--requests N] [--mem MB]\n\
         \x20                     [--aggressor-mem MB] [--warm-us US] [--cold-us US]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("fairness-bench: bad or missing value for {flag}");
            usage()
        }
    }
}

/// Wraps a keep-alive policy and spins the configured service cost on
/// every start — same scaled-down-boot technique as `skew-bench`, so
/// victim latency percentiles reflect real cold-start work.
#[derive(Debug)]
struct ServiceCost {
    inner: Box<dyn KeepAlivePolicy>,
    warm: Duration,
    cold: Duration,
}

fn spin(cost: Duration) {
    let until = Instant::now() + cost;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

impl KeepAlivePolicy for ServiceCost {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
        self.inner.on_request(spec, now);
    }

    fn on_warm_start(&mut self, c: &Container, now: SimTime) {
        spin(self.warm);
        self.inner.on_warm_start(c, now);
    }

    fn on_container_created(&mut self, c: &Container, now: SimTime, prewarm: bool) {
        if !prewarm {
            spin(self.cold);
        }
        self.inner.on_container_created(c, now, prewarm);
    }

    fn on_finish(&mut self, c: &Container, now: SimTime) {
        self.inner.on_finish(c, now);
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        self.inner.pop_victim()
    }

    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        self.inner.pop_expired(now)
    }

    fn on_evicted(&mut self, c: &Container, remaining: usize, now: SimTime) {
        self.inner.on_evicted(c, remaining, now);
    }

    fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        self.inner.prewarm_due(now)
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        self.inner.priority_of(container)
    }

    fn set_tenant_weights(
        &mut self,
        weights: std::sync::Arc<faascache_core::policy::TenantWeights>,
    ) {
        self.inner.set_tenant_weights(weights);
    }
}

/// Per-tenant outcome tally, kept client-side from each invoke's return.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    issued: u64,
    warm: u64,
    cold: u64,
    dropped: u64,
    rejected: u64,
    throttled: u64,
}

impl Tally {
    fn record(&mut self, outcome: InvokeOutcome) {
        self.issued += 1;
        match outcome {
            InvokeOutcome::Warm => self.warm += 1,
            InvokeOutcome::Cold => self.cold += 1,
            InvokeOutcome::Dropped => self.dropped += 1,
            InvokeOutcome::Rejected => self.rejected += 1,
            InvokeOutcome::Throttled => self.throttled += 1,
        }
    }

    fn served(&self) -> u64 {
        self.warm + self.cold
    }

    /// Cold starts per served request — the paper's keep-alive quality
    /// metric, per tenant.
    fn cold_rate(&self) -> f64 {
        if self.served() == 0 {
            0.0
        } else {
            self.cold as f64 / self.served() as f64
        }
    }

    fn accounted(&self) -> u64 {
        self.warm + self.cold + self.dropped + self.rejected + self.throttled
    }
}

#[derive(Debug, Clone, Copy)]
struct Latency {
    p50_us: f64,
    p95_us: f64,
}

fn percentiles(samples: &mut [u64]) -> Latency {
    if samples.is_empty() {
        return Latency {
            p50_us: 0.0,
            p95_us: 0.0,
        };
    }
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize] as f64;
    Latency {
        p50_us: at(0.50),
        p95_us: at(0.95),
    }
}

struct CaseResult {
    label: &'static str,
    victim: Tally,
    aggressor: Tally,
    victim_latency: Latency,
    lost: u64,
}

struct BenchParams {
    mem: MemMb,
    warm_cost: Duration,
    cold_cost: Duration,
}

/// Replays the deterministic interleaved sequence: every 4th request is
/// the victim's (round-robin over its functions), the rest cycle the
/// aggressor's sixteen with a coprime stride. `include_aggressor: false`
/// drops the aggressor's sends but keeps the victim's at their original
/// virtual times, so the solo baseline is the exact same victim workload.
fn run_case(
    label: &'static str,
    params: &BenchParams,
    quotas: TenantQuotas,
    include_aggressor: bool,
    requests: u64,
) -> CaseResult {
    let mut reg = FunctionRegistry::new();
    let victims: Vec<FunctionId> = (0..VICTIM_FNS)
        .map(|i| {
            reg.register_in(
                format!("v{i}"),
                MemMb::new(VICTIM_MB),
                SimDuration::from_micros(2),
                SimDuration::from_micros(100),
                "victim",
            )
            .expect("register victim fn")
        })
        .collect();
    let aggressors: Vec<FunctionId> = (0..AGGRESSOR_FNS)
        .map(|i| {
            reg.register_in(
                format!("a{i}"),
                MemMb::new(AGGRESSOR_MB),
                SimDuration::from_micros(2),
                SimDuration::from_micros(100),
                "aggressor",
            )
            .expect("register aggressor fn")
        })
        .collect();

    let config = ShardedConfig::split(params.mem, SHARDS).with_tenant_quotas(quotas);
    let policies = (0..SHARDS)
        .map(|_| {
            Box::new(ServiceCost {
                inner: PolicyKind::GreedyDual.build(),
                warm: params.warm_cost,
                cold: params.cold_cost,
            }) as Box<dyn KeepAlivePolicy>
        })
        .collect();
    let invoker = ShardedInvoker::new(config, policies);

    let mut victim = Tally::default();
    let mut aggressor = Tally::default();
    let mut victim_us: Vec<u64> = Vec::new();
    for i in 0..requests {
        let is_victim = i % 4 == 0;
        if !is_victim && !include_aggressor {
            continue;
        }
        let f = if is_victim {
            victims[(i / 4) as usize % VICTIM_FNS]
        } else {
            aggressors[(i.wrapping_mul(7)) as usize % AGGRESSOR_FNS]
        };
        let spec = reg.spec(f);
        let at = SimTime::from_micros(i * 500);
        let started = Instant::now();
        let outcome = invoker.invoke(spec, at);
        let took_us = started.elapsed().as_micros() as u64;
        if is_victim {
            victim.record(outcome);
            victim_us.push(took_us);
        } else {
            aggressor.record(outcome);
        }
    }

    let stats = invoker.stats();
    let issued = victim.issued + aggressor.issued;
    let client_accounted = victim.accounted() + aggressor.accounted();
    CaseResult {
        label,
        victim,
        aggressor,
        victim_latency: percentiles(&mut victim_us),
        lost: issued.abs_diff(client_accounted) + client_accounted.abs_diff(stats.accounted()),
    }
}

fn tally_json(t: &Tally) -> String {
    format!(
        "{{\"issued\": {}, \"warm\": {}, \"cold\": {}, \"dropped\": {}, \
         \"rejected\": {}, \"throttled\": {}, \"cold_rate\": {:.4}}}",
        t.issued,
        t.warm,
        t.cold,
        t.dropped,
        t.rejected,
        t.throttled,
        t.cold_rate(),
    )
}

fn case_json(c: &CaseResult) -> String {
    format!(
        "{{\"case\": \"{}\", \"victim\": {}, \"aggressor\": {}, \
         \"victim_p50_us\": {:.0}, \"victim_p95_us\": {:.0}, \"lost\": {}}}",
        c.label,
        tally_json(&c.victim),
        tally_json(&c.aggressor),
        c.victim_latency.p50_us,
        c.victim_latency.p95_us,
        c.lost,
    )
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_8.json".to_string();
    let mut requests: u64 = 120_000;
    let mut mem_mb: u64 = 2048;
    let mut aggressor_mem_mb: u64 = 768;
    let mut warm_us: u64 = 2;
    let mut cold_us: u64 = 100;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = parse("--out", args.next()),
            "--requests" => requests = parse("--requests", args.next()),
            "--mem" => mem_mb = parse("--mem", args.next()),
            "--aggressor-mem" => aggressor_mem_mb = parse("--aggressor-mem", args.next()),
            "--warm-us" => warm_us = parse("--warm-us", args.next()),
            "--cold-us" => cold_us = parse("--cold-us", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fairness-bench: unknown flag {other}");
                usage()
            }
        }
    }
    if requests == 0 {
        eprintln!("fairness-bench: --requests must be positive");
        return ExitCode::from(2);
    }

    let params = BenchParams {
        mem: MemMb::new(mem_mb),
        warm_cost: Duration::from_micros(warm_us),
        cold_cost: Duration::from_micros(cold_us),
    };
    eprintln!(
        "fairness-bench: {} requests, {} shards, {} MB total, aggressor budget {} MB",
        requests, SHARDS, mem_mb, aggressor_mem_mb
    );

    let mut quota = TenantQuotas::unlimited();
    quota.set(
        "aggressor",
        TenantQuota {
            inflight: u64::MAX,
            mem_mb: aggressor_mem_mb,
        },
    );
    let cases = [
        run_case(
            "solo_victim",
            &params,
            TenantQuotas::unlimited(),
            false,
            requests,
        ),
        run_case(
            "shared_no_quota",
            &params,
            TenantQuotas::unlimited(),
            true,
            requests,
        ),
        run_case("shared_quota", &params, quota, true, requests),
    ];
    for c in &cases {
        eprintln!(
            "fairness-bench:   {:<16} victim cold_rate={:.4} p95={:.0}us \
             aggressor served={} throttled={} lost={}",
            c.label,
            c.victim.cold_rate(),
            c.victim_latency.p95_us,
            c.aggressor.served(),
            c.aggressor.throttled,
            c.lost,
        );
    }

    let solo_rate = cases[0].victim.cold_rate();
    let quota_rate = cases[2].victim.cold_rate();
    // A solo baseline of ~0 makes the ratio meaningless; floor it at one
    // cold start per victim function (the unavoidable minimum).
    let floor = VICTIM_FNS as f64 / cases[0].victim.served().max(1) as f64;
    let ratio = quota_rate / solo_rate.max(floor);
    let aggressor_throttled = cases[2].aggressor.throttled;
    let lost: u64 = cases.iter().map(|c| c.lost).sum();

    let mut json = String::from("{\n  \"benchmark\": \"faascached_tenant_fairness\",\n");
    json.push_str(&format!(
        "  \"shards\": {SHARDS},\n  \"requests\": {requests},\n  \
         \"total_mem_mb\": {mem_mb},\n  \"aggressor_mem_budget_mb\": {aggressor_mem_mb},\n  \
         \"victim\": {{\"functions\": {VICTIM_FNS}, \"mem_mb\": {VICTIM_MB}}},\n  \
         \"aggressor\": {{\"functions\": {AGGRESSOR_FNS}, \"mem_mb\": {AGGRESSOR_MB}}},\n  \
         \"service_cost_us\": {{\"warm\": {warm_us}, \"cold\": {cold_us}}},\n  \"cases\": [\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {}{}\n",
            case_json(c),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"victim_cold_ratio_vs_solo\": {ratio:.3},\n  \
         \"aggressor_throttled\": {aggressor_throttled},\n  \"lost\": {lost}\n}}\n"
    ));

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("fairness-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "fairness-bench: wrote {out_path} (victim cold ratio {ratio:.3}, \
         aggressor throttled {aggressor_throttled})"
    );
    if lost > 0 {
        eprintln!("fairness-bench: FAILED: {lost} requests unaccounted for");
        return ExitCode::FAILURE;
    }
    if aggressor_throttled == 0 {
        eprintln!("fairness-bench: FAILED: quota run never throttled the aggressor");
        return ExitCode::FAILURE;
    }
    if ratio > 1.25 {
        eprintln!(
            "fairness-bench: FAILED: victim cold-start rate {quota_rate:.4} is \
             {ratio:.3}x solo ({solo_rate:.4}), above the 1.25x bound"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
