//! `skew-bench` — load-aware routing benchmark, written as `BENCH_4.json`.
//!
//! ```text
//! skew-bench [--out PATH] [--requests N] [--skew zipf:S]
//!            [--functions N] [--seed S] [--mem MB] [--watermark W]
//!            [--warm-us US] [--cold-us US]
//! ```
//!
//! Three invoker configurations replay the *same* Zipf-skewed trace at
//! equal memory, single-threaded and fully deterministic (virtual time is
//! a function of the request index, rebalance ticks fire at fixed
//! indices — identical outcome sequences on every host):
//!
//! 1. **affinity** — pure hash routing (the PR 2 baseline),
//! 2. **p2c** — power-of-two-choices admission (provably a no-op for a
//!    sequential caller: observed in-flight is always zero, so the row
//!    doubles as a guard that p2c costs nothing when idle),
//! 3. **p2c+rehoming** — p2c plus background warm-set re-homing.
//!
//! Each invocation pays its outcome's cost in real time — a scaled-down
//! container boot (`--cold-us`, default 100 µs) or warm dispatch
//! (`--warm-us`, default 2 µs) spun inside the serve path, where a real
//! per-shard worker would be busy booting. The affinity hash clusters
//! several hot functions onto one shard whose memory slice cannot hold
//! their combined warm sets, so they evict each other and pay boots over
//! and over while other shards sit on idle memory; re-homing moves warm
//! sets onto that idle memory, and measured served throughput rises
//! because cold-start work disappears — keep-alive as a cache, the
//! paper's thesis, applied across shards.
//!
//! A balanced control (uniform rates, same machinery) then shows the
//! routing must not pay for skew that is not there: cold starts may not
//! regress vs pure affinity on the identical request sequence.

use faascache_core::container::{Container, ContainerId};
use faascache_core::function::{FunctionId, FunctionSpec};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_platform::sharded::{RebalanceConfig, ShardedConfig, ShardedInvoker};
use faascache_server::WorkloadConfig;
use faascache_trace::record::Trace;
use faascache_util::stats::balance_ratio;
use faascache_util::{MemMb, SimDuration, SimTime};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 8;

fn usage() -> ! {
    eprintln!(
        "usage: skew-bench [--out PATH] [--requests N]\n\
         \x20                 [--skew zipf:S] [--functions N] [--seed S]\n\
         \x20                 [--mem MB] [--watermark W]\n\
         \x20                 [--warm-us US] [--cold-us US]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("skew-bench: bad or missing value for {flag}");
            usage()
        }
    }
}

/// Wraps a keep-alive policy and spins the configured service cost on
/// every start, inside the pool lock — the shard's serial section, where
/// a real per-shard worker would be busy booting or dispatching.
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
}

#[derive(Clone, Copy)]
enum Routing {
    Affinity,
    P2c,
    P2cRehoming,
}

impl Routing {
    fn label(self) -> &'static str {
        match self {
            Routing::Affinity => "affinity",
            Routing::P2c => "p2c",
            Routing::P2cRehoming => "p2c+rehoming",
        }
    }
}

#[derive(Clone, Copy)]
struct BenchParams {
    mem: MemMb,
    watermark: u64,
    warm_cost: Duration,
    cold_cost: Duration,
}

struct BenchRow {
    label: &'static str,
    throughput_rps: f64,
    warm: u64,
    cold: u64,
    dropped: u64,
    rejected: u64,
    migrations: u64,
    lost: u64,
    balance: f64,
}

fn build_invoker(routing: Routing, p: BenchParams) -> ShardedInvoker {
    let mut config = ShardedConfig::split(p.mem, SHARDS);
    match routing {
        Routing::Affinity => {}
        Routing::P2c => config = config.with_p2c(p.watermark),
        Routing::P2cRehoming => {
            config = config
                .with_p2c(p.watermark)
                .with_rebalance(RebalanceConfig::default())
        }
    }
    let policies = (0..SHARDS)
        .map(|_| {
            Box::new(ServiceCost {
                inner: PolicyKind::GreedyDual.build(),
                warm: p.warm_cost,
                cold: p.cold_cost,
            }) as Box<dyn KeepAlivePolicy>
        })
        .collect();
    ShardedInvoker::new(config, policies)
}

fn row_from(invoker: &ShardedInvoker, issued: u64, label: &'static str, elapsed: f64) -> BenchRow {
    let stats = invoker.stats();
    let per_shard_served: Vec<u64> = invoker
        .per_shard()
        .iter()
        .map(|s| s.counters.warm_starts + s.counters.cold_starts)
        .collect();
    BenchRow {
        label,
        // Served throughput: dropped or rejected requests buy nothing.
        throughput_rps: stats.served() as f64 / elapsed,
        warm: stats.warm,
        cold: stats.cold,
        dropped: stats.dropped,
        rejected: stats.rejected,
        migrations: stats.migrations,
        lost: issued - stats.accounted(),
        balance: balance_ratio(&per_shard_served),
    }
}

/// Deterministic single-threaded replay: virtual time advances with the
/// request index and the rebalancer ticks at fixed indices, so the full
/// outcome sequence is a pure function of the trace — byte-identical
/// across runs and hosts.
fn run_sequential(trace: &Trace, routing: Routing, p: BenchParams, requests: u64) -> BenchRow {
    let invoker = build_invoker(routing, p);
    let registry = trace.registry();
    let functions: Vec<u32> = trace
        .invocations()
        .iter()
        .map(|inv| inv.function.index() as u32)
        .collect();
    let started = Instant::now();
    for i in 0..requests {
        let spec = registry.spec(FunctionId::from_index(
            functions[i as usize % functions.len()],
        ));
        let at = SimTime::from_micros(i * 500);
        invoker.invoke(spec, at);
        if i % 256 == 255 {
            invoker.rebalance_tick(at + SimDuration::from_micros(100));
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    row_from(&invoker, requests, routing.label(), elapsed)
}

fn row_json(row: &BenchRow) -> String {
    format!(
        "{{\"routing\": \"{}\", \"throughput_rps\": {:.0}, \"warm\": {}, \
         \"cold\": {}, \"dropped\": {}, \"rejected\": {}, \"migrations\": {}, \
         \"lost\": {}, \"balance\": {:.2}}}",
        row.label,
        row.throughput_rps,
        row.warm,
        row.cold,
        row.dropped,
        row.rejected,
        row.migrations,
        row.lost,
        row.balance,
    )
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_4.json".to_string();
    let mut requests: u64 = 200_000;
    let mut mem_mb: u64 = 3072;
    let mut watermark: u64 = 4;
    let mut warm_us: u64 = 2;
    let mut cold_us: u64 = 100;
    let mut workload = WorkloadConfig {
        functions: 24,
        zipf_exponent: 1.2,
        ..WorkloadConfig::default()
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = parse("--out", args.next()),
            "--requests" => requests = parse("--requests", args.next()),
            "--functions" => workload.functions = parse("--functions", args.next()),
            "--seed" => workload.seed = parse("--seed", args.next()),
            "--mem" => mem_mb = parse("--mem", args.next()),
            "--watermark" => watermark = parse("--watermark", args.next()),
            "--warm-us" => warm_us = parse("--warm-us", args.next()),
            "--cold-us" => cold_us = parse("--cold-us", args.next()),
            "--skew" => {
                let spec: String = parse("--skew", args.next());
                match faascache_server::workload::parse_skew(&spec) {
                    Ok(s) => workload.zipf_exponent = s,
                    Err(e) => {
                        eprintln!("skew-bench: {e}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("skew-bench: unknown flag {other}");
                usage()
            }
        }
    }
    if requests == 0 {
        eprintln!("skew-bench: --requests must be positive");
        return ExitCode::from(2);
    }

    let params = BenchParams {
        mem: MemMb::new(mem_mb),
        watermark,
        warm_cost: Duration::from_micros(warm_us),
        cold_cost: Duration::from_micros(cold_us),
    };
    let skewed_trace = workload.build();
    eprintln!(
        "skew-bench: zipf({}) skew, {} requests, {} shards, {} MB, \
         warm={}us cold={}us",
        workload.zipf_exponent, requests, SHARDS, mem_mb, warm_us, cold_us
    );
    let skewed: Vec<BenchRow> = [Routing::Affinity, Routing::P2c, Routing::P2cRehoming]
        .iter()
        .map(|&routing| {
            let row = run_sequential(&skewed_trace, routing, params, requests);
            eprintln!(
                "skew-bench:   {:<13} {:>9.0} rps  warm={} cold={} dropped={} \
                 balance={:.2} migrations={} lost={}",
                row.label,
                row.throughput_rps,
                row.warm,
                row.cold,
                row.dropped,
                row.balance,
                row.migrations,
                row.lost
            );
            row
        })
        .collect();
    let gain = skewed[2].throughput_rps / skewed[0].throughput_rps;

    // Balanced control: uniform rates, deterministic sequential replay.
    // Load-aware routing must not pay for skew that is not there — cold
    // starts may not regress vs pure affinity.
    let balanced_cfg = WorkloadConfig {
        zipf_exponent: 0.0,
        ..workload
    };
    let balanced_trace = balanced_cfg.build();
    eprintln!("skew-bench: balanced control (zipf 0, sequential)");
    let balanced: Vec<BenchRow> = [Routing::Affinity, Routing::P2cRehoming]
        .iter()
        .map(|&routing| {
            let row = run_sequential(&balanced_trace, routing, params, requests);
            eprintln!(
                "skew-bench:   {:<13} warm={} cold={} migrations={} lost={}",
                row.label, row.warm, row.cold, row.migrations, row.lost
            );
            row
        })
        .collect();
    let cold_regression = balanced[1].cold > balanced[0].cold;

    let lost: u64 = skewed.iter().chain(balanced.iter()).map(|r| r.lost).sum();
    let mut json = String::from("{\n  \"benchmark\": \"faascached_skew_routing\",\n");
    json.push_str(&format!(
        "  \"shards\": {SHARDS},\n  \
         \"requests_per_row\": {requests},\n  \"total_mem_mb\": {mem_mb},\n  \
         \"p2c_watermark\": {watermark},\n  \
         \"service_cost_us\": {{\"warm\": {warm_us}, \"cold\": {cold_us}}},\n"
    ));
    json.push_str(&format!(
        "  \"skewed\": {{\n    \"zipf_exponent\": {},\n    \"rows\": [\n",
        workload.zipf_exponent
    ));
    for (i, row) in skewed.iter().enumerate() {
        json.push_str(&format!(
            "      {}{}\n",
            row_json(row),
            if i + 1 < skewed.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"throughput_gain\": {gain:.3}\n  }},\n"
    ));
    json.push_str(
        "  \"balanced\": {\n    \"zipf_exponent\": 0.0,\n    \"mode\": \"sequential\",\n    \
         \"rows\": [\n",
    );
    for (i, row) in balanced.iter().enumerate() {
        json.push_str(&format!(
            "      {}{}\n",
            row_json(row),
            if i + 1 < balanced.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"cold_regression\": {cold_regression}\n  }}\n}}\n"
    ));

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("skew-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("skew-bench: wrote {out_path} (gain={gain:.3}, cold_regression={cold_regression})");
    if lost > 0 {
        eprintln!("skew-bench: FAILED: {lost} requests unaccounted for");
        return ExitCode::FAILURE;
    }
    if gain < 1.15 {
        eprintln!("skew-bench: WARNING: p2c+rehoming gain {gain:.3} below the 1.15 target");
    }
    if cold_regression {
        eprintln!("skew-bench: WARNING: cold starts regressed on the balanced workload");
    }
    ExitCode::SUCCESS
}
