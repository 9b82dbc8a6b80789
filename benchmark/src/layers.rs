//! In-process probes of single layers, run only in traced runs.
//!
//! Each probe calls a layer's public functions in batches, with one span
//! around each batch; a layer metric is a batch's span duration over the
//! operations in it, reported as the median over a few batches. A traced
//! run executes only the probes of layers that are on its workload's
//! path, so a layer metric that reads 0 on a workload says the layer is
//! not on that path.

use crate::serve::{population, CHURN_FUNCTIONS, CHURN_MEM_MB, CHURN_QUOTA_MB, CHURN_ZIPF};
use crate::simsweep;
use crate::spans::Recorder;
use crate::stats::Summary;
use faascache_analysis::hitratio::HitRatioCurve;
use faascache_analysis::reuse::reuse_distances;
use faascache_analysis::shards::estimate_curve;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::PolicyKind;
use faascache_core::pool::{Acquire, ContainerPool};
use faascache_platform::sharded::{RebalanceConfig, ShardedConfig, ShardedInvoker};
use faascache_platform::tenant::{TenantQuota, TenantQuotas, TenantTable};
use faascache_server::http::{self, HttpParser};
use faascache_server::journal::{Journal, JournalRecord};
use faascache_server::proto::{self, FrameDecoder, Request, Response};
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::dist::Zipf;
use faascache_util::rng::Pcg64;
use faascache_util::route::{self, BalancerState, LoadBalancer};
use faascache_util::{MemMb, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches per probe; the reported value is their median.
const BATCHES: usize = 5;
/// Idle containers resident while policy and pool operations are timed.
const IDLE: usize = 10_000;

/// Collects per-batch samples by metric name.
pub struct Probes<'a> {
    rec: &'a mut Recorder,
    parent: u32,
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl<'a> Probes<'a> {
    pub fn new(rec: &'a mut Recorder, parent: u32) -> Self {
        Probes {
            rec,
            parent,
            samples: Vec::new(),
        }
    }

    /// Runs one batch inside a span named after the metric. `batch`
    /// returns how many operations it performed; the sample is the span's
    /// nanoseconds per operation times `scale` (1e-3 for µs, 1e-6 for ms).
    pub fn batch(&mut self, name: &'static str, scale: f64, batch: impl FnOnce() -> u64) {
        let (ops, ns) = self.rec.time(name, self.parent, batch);
        self.push(name, ns * scale / ops.max(1) as f64);
    }

    /// Records a sample measured elsewhere (a count, a ratio).
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.samples.push((name, vec![value])),
        }
    }

    pub fn finish(self) -> Vec<(&'static str, Summary)> {
        self.samples
            .into_iter()
            .map(|(name, values)| (name, Summary::of(&values)))
            .collect()
    }
}

/// The catalogue name of a policy's eviction metric. `PolicyKind` is
/// non-exhaustive: a policy added later has no row until the catalogue
/// (and `BENCHMARK.json`) names one for it.
fn evict_metric(kind: PolicyKind) -> Option<&'static str> {
    Some(match kind {
        PolicyKind::GreedyDual => "core.policy.gd.evict_ns",
        PolicyKind::Ttl => "core.policy.ttl.evict_ns",
        PolicyKind::Lru => "core.policy.lru.evict_ns",
        PolicyKind::Lfu => "core.policy.freq.evict_ns",
        PolicyKind::SizeAware => "core.policy.size.evict_ns",
        PolicyKind::Landlord => "core.policy.lnd.evict_ns",
        PolicyKind::Hist => "core.policy.hist.evict_ns",
        _ => return None,
    })
}

/// `n` functions of 64–544 MB, as `eviction_bench` sizes them.
fn sized_registry(n: usize) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for i in 0..n {
        reg.register(
            format!("f{i}"),
            MemMb::new(64 + (i as u64 % 16) * 32),
            SimDuration::from_millis(20),
            SimDuration::from_millis(500 + (i as u64 % 10) * 100),
        )
        .expect("distinct names");
    }
    reg
}

/// A pool exactly full with one idle container for each of the first
/// [`IDLE`] functions of `reg`.
fn filled_pool(reg: &FunctionRegistry, kind: PolicyKind) -> (ContainerPool, SimTime) {
    let capacity: MemMb = reg.iter().take(IDLE).map(|spec| spec.mem()).sum();
    let mut pool = ContainerPool::new(capacity, kind.build());
    let mut t = SimTime::ZERO;
    for spec in reg.iter().take(IDLE) {
        t += SimDuration::from_millis(1);
        if let Acquire::Cold { container, .. } = pool.acquire(spec, t) {
            pool.release(container, t);
        }
    }
    (pool, t)
}

/// Eviction cost of every policy at 10k idle containers, and
/// Greedy-Dual's cost of touching a warm one. Every timed acquire is of a
/// function never seen before, so each one misses and must evict.
pub fn policy(p: &mut Probes) {
    const STEP: usize = 1_000;
    let reg = sized_registry(IDLE + BATCHES * STEP);
    for kind in PolicyKind::ALL {
        let Some(metric) = evict_metric(kind) else {
            continue;
        };
        let (mut pool, mut t) = filled_pool(&reg, kind);
        for b in 0..BATCHES {
            let before = pool.counters().evictions;
            p.batch(metric, 1.0, || {
                for spec in reg.iter().skip(IDLE + b * STEP).take(STEP) {
                    t += SimDuration::from_millis(1);
                    if let Acquire::Cold { container, .. } = pool.acquire(spec, t) {
                        pool.release(container, t);
                    }
                }
                pool.counters().evictions - before
            });
        }
    }
    let (mut pool, mut t) = filled_pool(&reg, PolicyKind::GreedyDual);
    for _ in 0..BATCHES {
        p.batch("core.policy.gd.touch_ns", 1.0, || {
            for spec in reg.iter().take(IDLE) {
                t += SimDuration::from_millis(1);
                if let Acquire::Warm { container } = pool.acquire(spec, t) {
                    pool.release(container, t);
                }
            }
            IDLE as u64
        });
    }
}

/// The pool's three operations apart, under Greedy-Dual at 10k idle.
pub fn pool(p: &mut Probes) {
    const STEP: usize = 1_000;
    let reg = sized_registry(IDLE + BATCHES * STEP);
    let (mut pool, mut t) = filled_pool(&reg, PolicyKind::GreedyDual);
    for b in 0..BATCHES {
        let mut held = Vec::with_capacity(STEP);
        p.batch("core.pool.acquire_warm_ns", 1.0, || {
            for spec in reg.iter().skip(b * STEP).take(STEP) {
                t += SimDuration::from_millis(1);
                if let Acquire::Warm { container } = pool.acquire(spec, t) {
                    held.push(container);
                }
            }
            STEP as u64
        });
        p.batch("core.pool.release_ns", 1.0, || {
            for &container in &held {
                pool.release(container, t);
            }
            held.len() as u64
        });
        held.clear();
        p.batch("core.pool.acquire_evict_ns", 1.0, || {
            for spec in reg.iter().skip(IDLE + b * STEP).take(STEP) {
                t += SimDuration::from_millis(1);
                if let Acquire::Cold { container, .. } = pool.acquire(spec, t) {
                    held.push(container);
                }
            }
            STEP as u64
        });
        for &container in &held {
            pool.release(container, t);
        }
    }
}

/// What `sim_sweep`'s set-up is made of, step by step.
pub fn trace_and_analysis(p: &mut Probes, seed: u64) {
    for dataset in 0..3 {
        let mut trace = None;
        p.batch("trace.synth_ms", 1e-6, || {
            trace = Some(simsweep::synth_trace(seed, dataset));
            1
        });
        let trace = trace.expect("batch ran");
        let events = trace.len() as u64;
        p.batch("trace.schedule_ms", 1e-6, || {
            black_box(OpenLoopSchedule::from_trace(&trace, 8_000.0));
            1
        });
        let mut distances = None;
        p.batch("analysis.reuse_ns_per_event", 1.0, || {
            distances = Some(reuse_distances(&trace));
            events
        });
        p.batch("analysis.hitcurve_build_ms", 1e-6, || {
            black_box(HitRatioCurve::from_reuse(
                distances.as_ref().expect("batch ran"),
            ));
            1
        });
        p.batch("analysis.shards_ns_per_event", 1.0, || {
            black_box(estimate_curve(&trace, 0.1));
            events
        });
    }
}

/// A local registry mirroring what the serve workloads register.
fn local_registry(functions: usize, tenants: bool) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for def in population(functions, tenants) {
        reg.register_in(
            def.name,
            MemMb::new(u64::from(def.mem_mb)),
            SimDuration::from_micros(def.warm_us),
            SimDuration::from_micros(def.cold_us),
            &def.tenant,
        )
        .expect("distinct names");
    }
    reg
}

/// Invokes `sequence` once, split round-robin over `threads` threads.
fn hammer(invoker: &ShardedInvoker, reg: &FunctionRegistry, sequence: &[u32], threads: usize) {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for &f in sequence.iter().skip(t).step_by(threads) {
                    let at = SimTime::from_micros(started.elapsed().as_micros() as u64);
                    black_box(invoker.invoke(reg.spec(FunctionId::from_index(f)), at));
                }
            });
        }
    });
}

/// `ShardedInvoker::invoke` with every function warm: the in-process
/// floor under every serve workload's `cpu_us_per_req`.
pub fn sharded_warm(p: &mut Probes, functions: usize) {
    const OPS: usize = 200_000;
    let reg = local_registry(functions, false);
    let invoker = ShardedInvoker::with_kind(
        ShardedConfig::split(MemMb::new(1 << 22), 2),
        PolicyKind::GreedyDual,
    );
    let sequence: Vec<u32> = (0..OPS).map(|i| (i % functions) as u32).collect();
    hammer(&invoker, &reg, &sequence[..functions], 1);
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..BATCHES {
        p.batch("platform.sharded.invoke_warm_ns_t1", 1.0, || {
            hammer(&invoker, &reg, &sequence, 1);
            OPS as u64
        });
        p.batch("platform.sharded.invoke_warm_ns_tN", 1.0, || {
            hammer(&invoker, &reg, &sequence, n);
            OPS as u64
        });
    }
}

/// The invoker under the churn workload's memory pressure and tenant
/// quota, the rebalancer's tick, and the tenant gate on its own.
pub fn sharded_churn(p: &mut Probes, seed: u64) {
    const OPS: usize = 100_000;
    let reg = local_registry(CHURN_FUNCTIONS, true);
    let mut quotas = TenantQuotas::unlimited();
    quotas.set(
        "b",
        TenantQuota {
            inflight: u64::MAX,
            mem_mb: CHURN_QUOTA_MB,
        },
    );
    let invoker = ShardedInvoker::with_kind(
        ShardedConfig::split(MemMb::new(CHURN_MEM_MB), 2)
            .with_tenant_quotas(quotas.clone())
            .with_rebalance(RebalanceConfig::default()),
        PolicyKind::GreedyDual,
    );
    let mut rng = Pcg64::seed_from_u64(seed);
    let zipf = Zipf::new(CHURN_FUNCTIONS as u64, CHURN_ZIPF).expect("valid zipf");
    let sequence: Vec<u32> = (0..OPS).map(|_| zipf.sample(&mut rng) as u32 - 1).collect();
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..BATCHES {
        p.batch("platform.sharded.invoke_churn_ns_t1", 1.0, || {
            hammer(&invoker, &reg, &sequence, 1);
            OPS as u64
        });
        p.batch("platform.sharded.invoke_churn_ns_tN", 1.0, || {
            hammer(&invoker, &reg, &sequence, n);
            OPS as u64
        });
        // Each tick digests the window of load the batches above left.
        p.batch("platform.sharded.rebalance_tick_us", 1e-3, || {
            black_box(invoker.rebalance_tick(invoker.now()));
            1
        });
    }
    let table = TenantTable::new(quotas);
    for _ in 0..BATCHES {
        p.batch("platform.tenant.admit_ns", 1.0, || {
            for _ in 0..OPS {
                black_box(table.try_admit(1, "b"));
            }
            OPS as u64
        });
    }
}

/// The binary codec as the reactor uses it: incremental frame decode,
/// request decode, response encode.
pub fn proto_codec(p: &mut Probes) {
    const FRAMES: usize = 1_000;
    const ROUNDS: usize = 50;
    let mut wire = Vec::new();
    let mut payloads = Vec::new();
    for i in 0..FRAMES {
        let payload = Request::Invoke { function: i as u32 }.encode();
        proto::write_frame(&mut wire, &payload).expect("write to a Vec");
        payloads.push(payload);
    }
    let ops = (FRAMES * ROUNDS) as u64;
    for _ in 0..BATCHES {
        p.batch("server.proto.frame_feed_ns", 1.0, || {
            let mut decoder = FrameDecoder::new();
            let mut out = VecDeque::with_capacity(FRAMES);
            for _ in 0..ROUNDS {
                decoder.feed(&wire, &mut out).expect("well-formed frames");
                out.clear();
            }
            ops
        });
        p.batch("server.proto.decode_request_ns", 1.0, || {
            for _ in 0..ROUNDS {
                for payload in &payloads {
                    black_box(Request::decode(payload).expect("well-formed request"));
                }
            }
            ops
        });
        p.batch("server.proto.encode_response_ns", 1.0, || {
            let response = Response::Invoked(faascache_platform::InvokeOutcome::Warm);
            let mut out = Vec::with_capacity(16);
            for _ in 0..FRAMES * ROUNDS {
                out.clear();
                proto::write_frame(&mut out, &black_box(&response).encode()).expect("Vec write");
                black_box(&out);
            }
            ops
        });
    }
}

/// The HTTP codec: incremental request parse, response encode.
pub fn http_codec(p: &mut Probes) {
    const REQUESTS: usize = 1_000;
    const ROUNDS: usize = 20;
    let mut wire = Vec::new();
    for i in 0..REQUESTS {
        wire.extend_from_slice(
            format!("POST /invoke/{i} HTTP/1.1\r\nHost: faascached\r\nContent-Length: 0\r\n\r\n")
                .as_bytes(),
        );
    }
    let ops = (REQUESTS * ROUNDS) as u64;
    for _ in 0..BATCHES {
        p.batch("server.http.parse_request_ns", 1.0, || {
            let mut parser = HttpParser::new();
            let mut out = VecDeque::with_capacity(REQUESTS);
            for _ in 0..ROUNDS {
                parser.feed(&wire, &mut out).expect("well-formed requests");
                out.clear();
            }
            ops
        });
        p.batch("server.http.encode_response_ns", 1.0, || {
            let body = b"{\"function\":17,\"outcome\":\"warm\"}\n";
            let mut out = Vec::with_capacity(256);
            for _ in 0..REQUESTS * ROUNDS {
                out.clear();
                http::write_response(&mut out, 200, "application/json", black_box(body), false);
                black_box(&out);
            }
            ops
        });
    }
}

fn journal_record(i: usize) -> JournalRecord {
    JournalRecord::Register {
        name: format!("probe-{i}"),
        mem_mb: 128,
        warm_us: 1_000,
        cold_us: 10_000,
        tenant: String::new(),
    }
}

/// The journal on the disk the cluster workload's state dirs use:
/// fsynced append, recovery of what was appended, compaction.
pub fn journal(p: &mut Probes, dir: &Path) -> std::io::Result<()> {
    const APPENDS: usize = 20;
    let (mut journal, _) = Journal::open(dir)?;
    let mut failed = None;
    for b in 0..BATCHES {
        p.batch("server.journal.append_us", 1e-3, || {
            for i in 0..APPENDS {
                if let Err(e) = journal.append(&journal_record(b * APPENDS + i)) {
                    failed = Some(e);
                }
            }
            APPENDS as u64
        });
    }
    drop(journal);
    for _ in 0..BATCHES {
        p.batch("server.journal.open_replay_ms", 1e-6, || {
            if let Err(e) = Journal::open(dir) {
                failed = Some(e);
            }
            1
        });
    }
    let (mut journal, _) = Journal::open(dir)?;
    let state: Vec<JournalRecord> = (0..256).map(journal_record).collect();
    for _ in 0..BATCHES {
        p.batch("server.journal.compact_ms", 1e-6, || {
            if let Err(e) = journal.compact(&state) {
                failed = Some(e);
            }
            1
        });
    }
    failed.map_or(Ok(()), Err)
}

/// The picker the router and `sim::cluster` share.
pub fn route_pick(p: &mut Probes) {
    const OPS: u64 = 200_000;
    let mut state = BalancerState::new(1);
    for _ in 0..BATCHES {
        p.batch("util.route.pick_ns", 1.0, || {
            for f in 0..OPS {
                black_box(route::pick(
                    LoadBalancer::FunctionAffinity,
                    &mut state,
                    2,
                    black_box(f),
                    |_| 0,
                    |_| true,
                    None,
                ));
            }
            OPS
        });
    }
}
