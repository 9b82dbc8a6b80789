//! The three serving workloads: real `faascached` / `faas-router`
//! processes of the commit under test, driven over their sockets and
//! measured only from outside.
//!
//! - `serve_warm`: epoll io model, binary protocol, unix socket, nothing
//!   ever evicted. Reactor, `proto` codec and socket handoff are the
//!   whole bill; a policy change must show nothing here.
//! - `serve_churn_http`: threads io model, HTTP/1.1 over loopback TCP,
//!   memory a fifteenth of the working set, two tenants with a memory
//!   quota on one. The same daemon used the other way round, so a gain
//!   for epoll/binary that costs this path shows here.
//! - `cluster_mixed`: `faas-router` in front of two journaled backends,
//!   warm invokes with 1% `Register` mutations (broadcast, fsynced before
//!   the ack). The only place the router hop and the fsync under the
//!   registry lock reach the invoke tail.

use crate::fleet::{ExitSummary, Fleet};
use crate::json::Json;
use crate::layers::{self, Probes};
use crate::loadgen::{self, Ending, Planned, Record, Tally, ThreadLog};
use crate::procfs::{self, ProcSample};
use crate::result::{Check, LayerValues, MAX_LATE_SHARE};
use crate::spans::{self, Recorder, ROOT};
use crate::stats::{self, Summary, WINDOWS};
use crate::wire::{self, Call, Conn, FunctionDef, Proto, Reply, Target};
use crate::{RunOpts, RunResult};
use faascache_util::rng::Pcg64;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

pub const CHURN_FUNCTIONS: usize = 1024;
pub const CHURN_ZIPF: f64 = 0.8;
/// The churn population's containers total 245,760 MB; this is a
/// fifteenth of it, so most misses must evict.
pub const CHURN_MEM_MB: u64 = 16_384;
/// Tenant `b` may hold a quarter of the pool. A memory-only quota: it
/// depends on what is resident, never on how fast requests arrive.
pub const CHURN_QUOTA_MB: u64 = 4_096;
/// Enough that no workload without pressure ever evicts.
const AMPLE_MEM_MB: u64 = 1 << 22;
/// Set-ups timed before the timed phase and again after it; `setup_s` is
/// the fastest of them all. The host slows this VM for seconds or minutes
/// at a time, which only ever lengthens a set-up, and two bursts of
/// set-ups twenty seconds apart seldom both fall into a slow spell.
const SETUPS_EACH_SIDE: usize = 3;

struct Spec {
    epoll: bool,
    proto: Proto,
    functions: usize,
    zipf: f64,
    mem_mb: u64,
    /// Offered rate of the timed phase, requests per second.
    rate: f64,
    /// A reply later than this after its intended send time is not
    /// counted in `throughput_rps`.
    limit_us: f64,
    tenants: bool,
    cluster: bool,
    /// Share of arrivals that are `Register` mutations.
    mutation_share: f64,
}

fn spec_of(workload: &str) -> Option<Spec> {
    match workload {
        "serve_warm" => Some(Spec {
            epoll: true,
            proto: Proto::Binary,
            functions: 256,
            zipf: 1.0,
            mem_mb: AMPLE_MEM_MB,
            rate: 5_000.0,
            limit_us: 1_000.0,
            tenants: false,
            cluster: false,
            mutation_share: 0.0,
        }),
        "serve_churn_http" => Some(Spec {
            epoll: false,
            proto: Proto::Http,
            functions: CHURN_FUNCTIONS,
            zipf: CHURN_ZIPF,
            mem_mb: CHURN_MEM_MB,
            rate: 4_000.0,
            limit_us: 2_000.0,
            tenants: true,
            cluster: false,
            mutation_share: 0.0,
        }),
        "cluster_mixed" => Some(Spec {
            epoll: false,
            proto: Proto::Binary,
            functions: 64,
            zipf: 1.0,
            mem_mb: AMPLE_MEM_MB,
            rate: 2_000.0,
            limit_us: 5_000.0,
            tenants: false,
            cluster: true,
            mutation_share: 0.01,
        }),
        _ => None,
    }
}

/// The function of popularity rank `rank`. Size and tenant follow the
/// rank, and the population is registered in rank order, so every run has
/// the same functions on the same shards and backends; a seed only draws
/// the arrivals.
fn function_of_rank(rank: usize, tenants: bool) -> FunctionDef {
    FunctionDef {
        name: format!("fn-{rank}"),
        mem_mb: [64, 128, 256, 512][rank % 4],
        warm_us: 1_000,
        cold_us: 10_000,
        tenant: match (tenants, rank % 2) {
            (false, _) => String::new(),
            (true, 0) => "a".to_string(),
            (true, _) => "b".to_string(),
        },
    }
}

/// The population in rank order, as the in-process probes register it.
pub fn population(functions: usize, tenants: bool) -> Vec<FunctionDef> {
    (0..functions)
        .map(|rank| function_of_rank(rank, tenants))
        .collect()
}

/// Timed phases a run may make, each on fresh servers, before it reports
/// one whose generator was late (more than [`MAX_LATE_SHARE`]) even in its
/// best window. That takes a storm on the host, and those were seen to
/// last minutes: four attempts outlast most of one and still end inside
/// the run's wall-clock allowance.
const ATTEMPTS: usize = 4;

/// Load runs before every timed phase for this long and is not measured:
/// connections open, server threads start, allocators and caches settle.
const LEAD_IN: Duration = Duration::from_millis(500);

/// How the machine's CPUs are split between the servers under test and
/// the load generator, decided once before anything is spawned.
#[derive(Debug, Clone, Copy)]
struct Cpus {
    /// Generator lanes: one thread and one connection each, at most
    /// `nproc` and at most two.
    lanes: usize,
    /// Affinity masks `(servers, generator)`: the generator gets the last
    /// CPU to itself and the servers the rest, so the generator never
    /// takes a core from under a server thread and the kernel's choice of
    /// where to wake whom is the same in every run. `None` on one CPU.
    split: Option<(u64, u64)>,
}

impl Cpus {
    fn detect() -> Cpus {
        let allowed = loadgen::allowed_cpus();
        let n = allowed.count_ones() as usize;
        let split = (n >= 2).then(|| {
            let last = 1u64 << (63 - allowed.leading_zeros());
            (allowed & !last, last)
        });
        Cpus {
            lanes: n.clamp(1, 2),
            split,
        }
    }
}

/// A running set-up: servers up, functions registered, pools filled.
struct Served {
    /// Where load goes.
    front: Target,
    /// Binary sockets to ask for a drain, in the order to ask.
    controls: Vec<Target>,
    /// HTTP addresses of the daemons (for `/metrics`).
    daemon_http: Vec<SocketAddr>,
    /// Registry index of the function at each popularity rank.
    ranks: Vec<u32>,
    /// Everything sent through `front` since the servers started.
    via_front: Tally,
    /// Invokes sent straight to backend 0, bypassing the router.
    direct: Tally,
}

fn daemon_args(spec: &Spec, sock: &str, http: bool, state_dir: Option<&str>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--unix",
        sock,
        "--io-model",
        if spec.epoll { "epoll" } else { "threads" },
        "--shards",
        "2",
        "--mem-mb",
        &spec.mem_mb.to_string(),
        // The daemon insists on a generated workload; one function is the
        // least it accepts. The harness registers the ones it invokes.
        "--functions",
        "1",
        "--seed",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if http {
        args.extend(["--http-listen".to_string(), "127.0.0.1:0".to_string()]);
    }
    if spec.tenants {
        args.extend([
            "--tenant-quota".to_string(),
            format!("b:mem={CHURN_QUOTA_MB}"),
        ]);
    }
    if let Some(dir) = state_dir {
        args.extend(["--state-dir".to_string(), dir.to_string()]);
    }
    args
}

fn ping(target: &Target, proto: Proto) -> bool {
    Conn::connect(target, proto)
        .and_then(|mut c| c.call(&Call::Ping))
        .is_ok_and(|r| r == Reply::Pong)
}

/// Spawns the servers, waits until they answer, registers the functions
/// in rank order and invokes each once.
fn set_up(fleet: &mut Fleet, spec: &Spec, opts: &RunOpts) -> Result<Served, String> {
    let daemon_bin = opts.bin_dir.join("faascached");
    let unix = |name: &str| Target::Unix(PathBuf::from(name));
    let mut daemon_http = Vec::new();
    let (front, controls) = if spec.cluster {
        let mut backends = Vec::new();
        for i in 0..2 {
            let (name, sock) = (format!("backend{i}"), format!("b{i}.sock"));
            let args = daemon_args(spec, &sock, true, Some(&format!("state{i}")));
            fleet.spawn(&name, &daemon_bin, &args)?;
            let http = fleet.http_addr(&name)?;
            fleet.await_ready(&name, || ping(&unix(&sock), Proto::Binary))?;
            daemon_http.push(http);
            backends.push(format!("unix:{sock}+http={http}"));
        }
        let args = [
            "--unix",
            "r.sock",
            "--balancer",
            "affinity",
            "--backends",
            &backends.join(","),
        ]
        .map(str::to_string);
        fleet.spawn("router", &opts.bin_dir.join("faas-router"), &args)?;
        fleet.await_ready("router", || ping(&unix("r.sock"), Proto::Binary))?;
        (
            unix("r.sock"),
            vec![unix("r.sock"), unix("b0.sock"), unix("b1.sock")],
        )
    } else {
        let http = spec.proto == Proto::Http;
        fleet.spawn(
            "daemon",
            &daemon_bin,
            &daemon_args(spec, "d.sock", http, None),
        )?;
        fleet.await_ready("daemon", || ping(&unix("d.sock"), Proto::Binary))?;
        let front = if http {
            let addr = fleet.http_addr("daemon")?;
            daemon_http.push(addr);
            Target::Tcp(addr)
        } else {
            unix("d.sock")
        };
        (front, vec![unix("d.sock")])
    };

    let mut conn = Conn::connect(&front, spec.proto).map_err(|e| format!("connect front: {e}"))?;
    let mut ranks = Vec::with_capacity(spec.functions);
    let mut via_front = Tally::default();
    for def in population(spec.functions, spec.tenants) {
        match conn
            .call(&Call::Register(def))
            .map_err(|e| format!("register: {e}"))?
        {
            Reply::Registered {
                function,
                created: true,
            } => ranks.push(function),
            other => return Err(format!("register answered {other:?}")),
        }
        via_front.add(Ending::Registered);
    }
    // Fill: one invoke per function, so the timed phase starts with
    // every pool in its steady state.
    for &function in &ranks {
        let call = Call::Invoke(function);
        let ending = loadgen::Ending::of(&call, conn.call(&call));
        if ending == Ending::Failed {
            return Err(format!("fill invoke of function {function} failed"));
        }
        via_front.add(ending);
    }
    Ok(Served {
        front,
        controls,
        daemon_http,
        ranks,
        via_front,
        direct: Tally::default(),
    })
}

/// What the tear-downs of one run found, folded into one check per kind
/// however many set-ups the run made.
#[derive(Default)]
struct TearDowns {
    count: usize,
    undrained: Vec<String>,
    daemon_mismatches: Vec<String>,
    router_mismatches: Vec<String>,
}

impl TearDowns {
    fn into_checks(self, cluster: bool) -> Vec<Check> {
        let check = |name: &str, what: &str, problems: &[String]| Check {
            name: name.to_string(),
            ok: problems.is_empty(),
            detail: format!("{what} in {} tear-downs {problems:?}", self.count),
        };
        let mut checks = vec![
            check(
                "drained",
                "every server exited 0 with drained=true",
                &self.undrained,
            ),
            check(
                "daemon_tallies",
                "daemons' (warm,cold,dropped,rejected,throttled) equal the client's",
                &self.daemon_mismatches,
            ),
        ];
        if cluster {
            checks.push(check(
                "router_tallies",
                "the router's tallies equal the client's",
                &self.router_mismatches,
            ));
        }
        checks
    }
}

/// Asks every server to drain (front first), waits for the exits, and
/// notes where what they say they did differs from what the client says
/// it sent.
fn tear_down(
    fleet: &mut Fleet,
    spec: &Spec,
    served: &Served,
    found: &mut TearDowns,
) -> Vec<ExitSummary> {
    for control in &served.controls {
        let _ = Conn::connect(control, Proto::Binary).and_then(|mut c| c.call(&Call::Shutdown));
    }
    let exits = fleet.collect_exits();
    found.count += 1;
    found.undrained.extend(
        exits
            .iter()
            .filter(|e| !e.drained())
            .map(|e| e.name.clone()),
    );

    let tally_of = |summaries: &[&ExitSummary]| {
        let sum = |key: &str| summaries.iter().map(|s| s.count(key)).sum::<u64>();
        (
            sum("warm"),
            sum("cold"),
            sum("dropped"),
            sum("rejected"),
            sum("throttled"),
        )
    };
    let client = |t: &Tally| (t.warm, t.cold, t.dropped, t.rejected, t.throttled);
    let (router, daemons): (Vec<&ExitSummary>, Vec<&ExitSummary>) =
        exits.iter().partition(|e| e.name == "router");
    let mut all_sent = served.via_front;
    all_sent.merge(served.direct);
    if tally_of(&daemons) != client(&all_sent) {
        found.daemon_mismatches.push(format!(
            "daemons {:?} vs client {:?}",
            tally_of(&daemons),
            client(&all_sent)
        ));
    }
    if spec.cluster && tally_of(&router) != client(&served.via_front) {
        found.router_mismatches.push(format!(
            "router {:?} vs client {:?}",
            tally_of(&router),
            client(&served.via_front)
        ));
    }
    exits
}

/// Registry fingerprints of every daemon with an HTTP gateway.
fn registry_digests(served: &Served) -> Vec<Option<(String, String)>> {
    served
        .daemon_http
        .iter()
        .map(|addr| {
            let mut conn = Conn::connect(&Target::Tcp(*addr), Proto::Http).ok()?;
            let Reply::Metrics(body) = conn.call(&Call::Metrics).ok()? else {
                return None;
            };
            Some((
                wire::metric_text(&body, "faascache_registry_epoch")?.to_string(),
                wire::metric_text(&body, "faascache_registry_digest")?.to_string(),
            ))
        })
        .collect()
}

/// One open-loop phase and everything observed while it ran.
struct Phase {
    seconds: f64,
    records: Vec<Record>,
    spans: Vec<Recorder>,
    /// `samples[k][s]`: server `s` at window boundary `k`.
    samples: Vec<Vec<ProcSample>>,
    /// Cores the whole harness process used over the phase.
    client_cores: f64,
}

/// The requests of one open-loop phase, split over the generator lanes:
/// `rate` per second for the lead-in plus `seconds`, drawn from `seed`.
fn plan_phase(
    spec: &Spec,
    cpus: Cpus,
    ranks: &[u32],
    seed: u64,
    rate: f64,
    seconds: f64,
) -> Vec<Vec<Planned>> {
    let count = (rate * (LEAD_IN.as_secs_f64() + seconds)) as usize;
    let arrivals = loadgen::arrivals(seed, ranks, spec.zipf, rate, count);
    let n = cpus.lanes;
    let mut plan: Vec<Vec<Planned>> = vec![Vec::new(); n];
    // Mutations get the last lane to themselves when there is more than
    // one: a control-plane client that waits for two fsyncs must not
    // hold up data-plane sends queued behind it on the same connection.
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x6d75_7461_7465);
    let invoke_lanes = if spec.mutation_share > 0.0 && n > 1 {
        n - 1
    } else {
        n
    };
    for (i, (due, function)) in arrivals.into_iter().enumerate() {
        if spec.mutation_share > 0.0 && rng.chance(spec.mutation_share) {
            let mut def = function_of_rank(1, false);
            def.name = format!("mut-{seed}-{i}");
            plan[n - 1].push(Planned {
                due,
                call: Call::Register(def),
            });
        } else {
            plan[i % invoke_lanes].push(Planned {
                due,
                call: Call::Invoke(function),
            });
        }
    }
    plan
}

/// Sends `plan` (made by [`plan_phase`] for `seconds`) and measures what
/// was due after the lead-in.
fn open_loop_phase(
    fleet: &Fleet,
    spec: &Spec,
    cpus: Cpus,
    served: &mut Served,
    plan: Vec<Vec<Planned>>,
    seconds: f64,
    traced: bool,
) -> Phase {
    let pids = fleet.pids();
    let me = std::process::id();
    let own_before = procfs::sample(me).unwrap_or_default();
    let start = Instant::now() + Duration::from_millis(20);
    let measured_from = start + LEAD_IN;
    let sampler = thread::spawn(move || {
        (0..=WINDOWS)
            .map(|k| {
                let at =
                    measured_from + Duration::from_secs_f64(seconds * k as f64 / WINDOWS as f64);
                thread::sleep(at.saturating_duration_since(Instant::now()));
                pids.iter()
                    .map(|&pid| procfs::sample(pid).unwrap_or_default())
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let generator_cpus = cpus.split.map(|(_, generator)| generator);
    let logs = loadgen::run_open_loop(
        &served.front,
        spec.proto,
        plan,
        start,
        traced,
        generator_cpus,
    );
    let elapsed = start.elapsed().as_secs_f64();
    let samples = sampler.join().expect("sampler thread panicked");
    let own_after = procfs::sample(me).unwrap_or_default();

    let mut records = Vec::new();
    let mut spans = Vec::new();
    let lead_in_ns = LEAD_IN.as_nanos() as u64;
    for ThreadLog {
        records: r,
        spans: s,
    } in logs
    {
        served.via_front.merge(Tally::of(&r));
        // Only what was due after the lead-in is measured, on a clock
        // that starts where the lead-in ends.
        records.extend(
            r.into_iter()
                .filter(|r| r.due_ns >= lead_in_ns)
                .map(|r| Record {
                    due_ns: r.due_ns - lead_in_ns,
                    sent_ns: r.sent_ns.saturating_sub(lead_in_ns),
                    done_ns: r.done_ns.saturating_sub(lead_in_ns),
                    ..r
                }),
        );
        spans.push(s);
    }
    Phase {
        seconds,
        records,
        spans,
        samples,
        client_cores: (own_after.cpu_us() - own_before.cpu_us()) / (elapsed * 1e6),
    }
}

impl Phase {
    fn invokes(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.is_invoke)
    }

    /// Ascending latencies (µs, from intended send) of served invokes.
    fn served_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .invokes()
            .filter(|r| r.ending.is_served())
            .map(Record::latency_us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The generator's lateness over the whole phase.
    fn late_share(&self, limit_us: f64) -> f64 {
        late_share(self.records.iter(), limit_us)
    }

    /// Servers' summed counters between the first and last boundary.
    fn server_delta(&self, servers: &[usize]) -> (ProcSample, ProcSample) {
        let sum_at = |k: usize| {
            servers
                .iter()
                .map(|&s| self.samples[k][s])
                .fold(ProcSample::default(), ProcSample::plus)
        };
        (sum_at(0), sum_at(WINDOWS))
    }

    /// The end-to-end metrics of the phase but `setup_s`, and the late
    /// share of the window `throughput_rps` is read from.
    ///
    /// Shares are medians over the ten windows and memory is the median of
    /// the eleven boundary readings. A window's `throughput_rps` is the
    /// offered `rate` times the share of the window's requests that were
    /// served within the limit, and the phase's is the *highest*
    /// window's: whatever else the host is doing (keeping the sender or a
    /// server off its CPU for milliseconds at a time) only ever takes
    /// in-time replies away, in some windows far more than in others
    /// (2266 to 10029 of 10000 requests within one measured phase), so
    /// the best window is the closest the run gets to the servers' own
    /// behaviour, and the one reading that repeats from run to run.
    fn end_to_end(&self, rate: f64, limit_us: f64) -> (HashMap<&'static str, Summary>, f64) {
        let total_ns = (self.seconds * 1e9) as u64;
        let mut by_window: Vec<Vec<&Record>> = vec![Vec::new(); WINDOWS];
        for r in &self.records {
            by_window[stats::window_of(r.due_ns, total_ns)].push(r);
        }
        let (mut throughput, mut late, mut warm_share, mut served_share) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for records in &by_window {
            let invokes: Vec<&&Record> = records.iter().filter(|r| r.is_invoke).collect();
            let served = invokes.iter().filter(|r| r.ending.is_served()).count();
            let in_time = invokes
                .iter()
                .filter(|r| r.ending.is_served() && r.latency_us() <= limit_us)
                .count();
            let warm = invokes.iter().filter(|r| r.ending == Ending::Warm).count();
            throughput.push(rate * in_time as f64 / records.len().max(1) as f64);
            late.push(late_share(records.iter().copied(), limit_us));
            warm_share.push(warm as f64 / served.max(1) as f64);
            served_share.push(served as f64 / invokes.len().max(1) as f64);
        }
        let best = (0..WINDOWS)
            .max_by(|&a, &b| throughput[a].total_cmp(&throughput[b]))
            .expect("at least one window");
        // Memory is read at the eleven window boundaries.
        let rss: Vec<f64> = self
            .samples
            .iter()
            .map(|servers| servers.iter().map(|s| s.rss_mb).sum())
            .collect();
        (
            HashMap::from([
                ("throughput_rps", Summary::highest(&throughput)),
                ("rss_mb", Summary::of(&rss)),
                ("warm_share", Summary::of(&warm_share)),
                ("served_share", Summary::of(&served_share)),
            ]),
            late[best],
        )
    }
}

/// Share of `records` sent later than the latency limit after they were
/// due, so that they had missed it before a server saw them. Senders never
/// wait for replies, so this is the generator's own lateness.
fn late_share<'a>(records: impl Iterator<Item = &'a Record>, limit_us: f64) -> f64 {
    let (mut late, mut all) = (0usize, 0usize);
    for r in records {
        all += 1;
        late += usize::from(r.late_us() > limit_us);
    }
    late as f64 / all.max(1) as f64
}

/// Requests of `plan` due after the lead-in: the ones a phase measures.
fn measured_requests(plan: &[Vec<Planned>]) -> u64 {
    plan.iter()
        .flatten()
        .filter(|planned| planned.due >= LEAD_IN)
        .count() as u64
}

/// Judges one phase against the `planned` requests it was to measure;
/// `late_share` is that of the part of it the run reports.
fn check_phase(result: &mut RunResult, cpus: Cpus, phase: &Phase, planned: u64, late_share: f64) {
    let tally = Tally::of(&phase.records);
    result.attempted = planned;
    result.failed = tally.failed;
    result.checks.push(Check {
        name: "conservation".to_string(),
        ok: tally.total() == planned,
        detail: format!(
            "{tally:?} sums to {} of {planned} requests planned",
            tally.total()
        ),
    });
    // Not a check: whether the host let the generator run on time says
    // nothing about whether the servers answered correctly. The share is
    // written to the result, and `compare` refuses a run that is over.
    result.late_share = late_share;
    if result.late_share > MAX_LATE_SHARE {
        result.notes.push(format!(
            "WARNING: generator late_share {:.4} > {MAX_LATE_SHARE} after {} attempts: the host \
             kept the sender off its CPU; this run's throughput_rps is not comparable",
            result.late_share, result.attempts
        ));
    }
    result.checks.push(Check {
        name: "generator_under_one_core".to_string(),
        ok: phase.client_cores < 1.0,
        detail: format!("harness used {:.3} cores", phase.client_cores),
    });
    let beyond = stats::highest_percentile_with_ten_beyond(phase.served_latencies().len());
    result.notes.push(format!(
        "{tally:?}; {} lanes; highest percentile with ten samples beyond: {beyond:?}",
        cpus.lanes
    ));
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let spec = spec_of(&opts.workload).ok_or(format!("unknown workload {}", opts.workload))?;
    let mut result = RunResult::new(opts);
    let cpus = Cpus::detect();
    if let Some((servers, _)) = cpus.split {
        // Children inherit the affinity of the thread that spawns them.
        loadgen::pin_to_cpus(servers);
    }
    let mut fleet = Fleet::create(&opts.work_root, &opts.workload, opts.deadline)?;
    result.env.extend([
        (
            "state_dir_fs".to_string(),
            Json::str(procfs::fs_type(fleet.dir())),
        ),
        ("generator_lanes".to_string(), Json::Num(cpus.lanes as f64)),
        ("connections".to_string(), Json::Num(cpus.lanes as f64)),
        (
            "cpu_split".to_string(),
            Json::str(match cpus.split {
                Some((servers, generator)) => {
                    format!("servers {servers:#x} generator {generator:#x}")
                }
                None => "shared".to_string(),
            }),
        ),
    ]);

    // Set-up is what the servers need before their first timed request:
    // spawn, readiness, register, fill. Done several times before the
    // timed phase, each timed, the servers of the last being the ones
    // measured, and several times more after it. A phase in
    // whose best window the generator itself fell behind its schedule
    // measured the host, not the servers: it is made again on servers set
    // up afresh, so what a run reports never depends on how many attempts
    // it took.
    let mut setup_s = Vec::new();
    let mut torn_down = TearDowns::default();
    let mut late_shares = Vec::new();
    let (served, planned, phase, mut measured) = loop {
        let t = Instant::now();
        let mut served = set_up(&mut fleet, &spec, opts)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if opts.traced {
            return traced(opts, &spec, cpus, fleet, served, result);
        }
        if setup_s.len() >= SETUPS_EACH_SIDE {
            let plan = plan_phase(
                &spec,
                cpus,
                &served.ranks,
                opts.seed,
                spec.rate,
                opts.seconds,
            );
            let planned = measured_requests(&plan);
            let phase =
                open_loop_phase(&fleet, &spec, cpus, &mut served, plan, opts.seconds, false);
            let (measured, late_share) = phase.end_to_end(spec.rate, spec.limit_us);
            late_shares.push(late_share);
            let left = opts.deadline.saturating_duration_since(Instant::now());
            if late_share <= MAX_LATE_SHARE
                || late_shares.len() == ATTEMPTS
                || left.as_secs_f64() < opts.seconds + 20.0
            {
                break (served, planned, phase, measured);
            }
        }
        tear_down(&mut fleet, &spec, &served, &mut torn_down);
        fleet.clear_dir();
    };
    result.attempts = late_shares.len();
    if late_shares.len() > 1 {
        result.notes.push(format!(
            "timed phase made again on fresh servers: late_share of the best window per attempt \
             {late_shares:?}; the last is reported"
        ));
    }
    check_phase(
        &mut result,
        cpus,
        &phase,
        planned,
        late_shares[late_shares.len() - 1],
    );
    finish_checks(&mut fleet, &spec, &served, &mut torn_down, &mut result);
    for _ in 0..SETUPS_EACH_SIDE {
        fleet.clear_dir();
        let t = Instant::now();
        let again = set_up(&mut fleet, &spec, opts)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tear_down(&mut fleet, &spec, &again, &mut torn_down);
    }
    result.checks.extend(torn_down.into_checks(spec.cluster));
    measured.insert("setup_s", Summary::lowest(&setup_s));
    result.set_end_to_end(&opts.catalogue, &measured)?;
    let latencies = phase.served_latencies();
    let (a, b) = phase.server_delta(&(0..phase.samples[0].len()).collect::<Vec<_>>());
    result.notes.push(format!(
        "offered {} rps for {} s, limit {} us; not gated: latency of served invokes from intended \
         send time p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us; cpu_us_per_req {:.2}; late_share \
         of the whole phase {:.5}, client cores {:.3}",
        spec.rate,
        opts.seconds,
        spec.limit_us,
        stats::percentile(&latencies, 50.0),
        stats::percentile(&latencies, 99.0),
        stats::percentile(&latencies, 99.9),
        (b.cpu_us() - a.cpu_us()) / planned.max(1) as f64,
        phase.late_share(spec.limit_us),
        phase.client_cores,
    ));
    Ok(result)
}

/// Digest agreement, then the tear-down of the measured servers.
fn finish_checks(
    fleet: &mut Fleet,
    spec: &Spec,
    served: &Served,
    torn_down: &mut TearDowns,
    result: &mut RunResult,
) -> Vec<ExitSummary> {
    if spec.cluster {
        let digests = registry_digests(served);
        result.checks.push(Check {
            name: "backend_digests_equal".to_string(),
            ok: digests.iter().all(|d| d.is_some() && *d == digests[0]),
            detail: format!("(epoch, digest) per backend: {digests:?}"),
        });
    }
    tear_down(fleet, spec, served, torn_down)
}

/// Sequential closed loop from the generator's CPU: median round trip
/// (µs) of `n` warm invokes.
fn p50_round_trip(
    target: &Target,
    functions: &[u32],
    n: usize,
    generator_cpus: Option<u64>,
    tally: &mut Tally,
) -> Result<f64, String> {
    thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some(mask) = generator_cpus {
                    loadgen::pin_to_cpus(mask);
                }
                let mut conn =
                    Conn::connect(target, Proto::Binary).map_err(|e| format!("connect: {e}"))?;
                let mut rtt = Vec::with_capacity(n);
                for i in 0..n {
                    let call = Call::Invoke(functions[i % functions.len()]);
                    let t = Instant::now();
                    let ending = Ending::of(&call, conn.call(&call));
                    rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
                    tally.add(ending);
                }
                Ok(stats::median(&rtt))
            })
            .join()
            .expect("round-trip thread panicked")
    })
}

/// The traced run: probes of the layers on this workload's path, an
/// untraced and a traced open-loop phase on the same servers, then the
/// informational knee measurements.
fn traced(
    opts: &RunOpts,
    spec: &Spec,
    cpus: Cpus,
    mut fleet: Fleet,
    mut served: Served,
    mut result: RunResult,
) -> Result<RunResult, String> {
    let mut rec = Recorder::new(Instant::now());
    let probes_span = rec.open("layer_probes", ROOT);
    let mut probes = Probes::new(&mut rec, probes_span);
    layers::sharded_warm(&mut probes, spec.functions);
    match opts.workload.as_str() {
        "serve_warm" => layers::proto_codec(&mut probes),
        "serve_churn_http" => {
            layers::policy(&mut probes);
            layers::pool(&mut probes);
            layers::sharded_churn(&mut probes, opts.seed);
            layers::http_codec(&mut probes);
        }
        _ => {
            layers::proto_codec(&mut probes);
            layers::route_pick(&mut probes);
            layers::journal(&mut probes, &fleet.dir().join("probe-journal"))
                .map_err(|e| format!("journal probe: {e}"))?;
        }
    }
    let mut layer = LayerValues::from_probes(probes.finish());
    rec.close(probes_span);

    let quarter = opts.seconds / 4.0;
    let plan = plan_phase(spec, cpus, &served.ranks, opts.seed ^ 1, spec.rate, quarter);
    let plain = open_loop_phase(&fleet, spec, cpus, &mut served, plan, quarter, false);
    let plan = plan_phase(
        spec,
        cpus,
        &served.ranks,
        opts.seed,
        spec.rate,
        2.0 * quarter,
    );
    let planned = measured_requests(&plan);
    let mut phase = open_loop_phase(&fleet, spec, cpus, &mut served, plan, 2.0 * quarter, true);
    let late_share = phase.late_share(spec.limit_us);
    check_phase(&mut result, cpus, &phase, planned, late_share);

    // Server processes over the traced phase, by role.
    let names: Vec<&str> = if spec.cluster {
        vec!["backend0", "backend1", "router"]
    } else {
        vec!["daemon"]
    };
    let requests = phase.records.len().max(1) as f64;
    let mut role = |prefix: &str, servers: &[usize], daemon: bool| {
        let (a, b) = phase.server_delta(servers);
        let cpu = b.cpu_us() - a.cpu_us();
        layer.set(format!("{prefix}.cpu_us_per_req"), cpu / requests);
        layer.set(
            format!("{prefix}.ctxsw_per_req"),
            (b.ctx_switches - a.ctx_switches) as f64 / requests,
        );
        if daemon {
            layer.set(
                format!("{prefix}.sys_share"),
                (b.sys_us - a.sys_us) / cpu.max(1.0),
            );
            layer.set(format!("{prefix}.rss_mb"), b.rss_mb);
        }
    };
    let daemons: Vec<usize> = (0..names.len()).filter(|&i| names[i] != "router").collect();
    let daemon_prefix = if spec.epoll {
        "server.reactor"
    } else {
        "server.daemon"
    };
    role(daemon_prefix, &daemons, true);
    if spec.cluster {
        role("server.router", &[2], false);
    }

    // The client's own steps, from the spans.
    let lane_spans = std::mem::take(&mut phase.spans);
    let all_spans = spans::merge(std::iter::once(rec).chain(lane_spans).collect());
    let own = spans::self_time_by_name(&all_spans);
    let traced_requests = all_spans
        .iter()
        .filter(|s| s.name == "request")
        .count()
        .max(1) as f64;
    let per_request = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / traced_requests;
    layer.set("client.encode_ns", per_request("client.encode"));
    layer.set("client.decode_ns", per_request("client.decode"));
    layer.set("client.wait_us", per_request("client.wait") / 1e3);
    layer.set("client.late_share", result.late_share);
    layer.set("client.cores_used", phase.client_cores);
    let closure = spans::worst_request_closure(&all_spans);
    result.checks.push(Check {
        name: "span_closure".to_string(),
        ok: closure <= 0.05,
        detail: format!("{} spans, worst request gap {closure:.4}", all_spans.len()),
    });
    crate::write_spans(opts, &all_spans)?;

    let latencies = phase.served_latencies();
    let p50 = stats::percentile(&latencies, 50.0);
    let plain_p50 = stats::percentile(&plain.served_latencies(), 50.0);
    layer.set(
        "bench.trace_overhead_share",
        p50 / plain_p50.max(1e-9) - 1.0,
    );
    layer.set("p50_us", p50);
    layer.set("p99_us", stats::percentile(&latencies, 99.0));
    layer.set("p999_us", stats::percentile(&latencies, 99.9));
    let tally = Tally::of(&phase.records);
    layer.set("peak_rss_mb", procfs::sample_all(&fleet.pids()).hwm_mb);
    layer.set(
        "cold_share",
        tally.cold as f64 / tally.served().max(1) as f64,
    );
    let invoke_ns = layer.value(if spec.tenants {
        "platform.sharded.invoke_churn_ns_t1"
    } else {
        "platform.sharded.invoke_warm_ns_t1"
    });
    layer.set("serve.wire_overhead_us", p50 - invoke_ns / 1e3);
    let (a, b) = phase.server_delta(&(0..names.len()).collect::<Vec<_>>());
    let cpu_us_per_req = (b.cpu_us() - a.cpu_us()) / requests;
    layer.set("cpu_us_per_req", cpu_us_per_req);
    layer.set(
        "serve.invoke_share",
        invoke_ns / 1e3 / cpu_us_per_req.max(1e-9),
    );
    if spec.mutation_share > 0.0 {
        let mut registers: Vec<f64> = phase
            .records
            .iter()
            .filter(|r| r.ending == Ending::Registered)
            .map(Record::latency_us)
            .collect();
        registers.sort_by(f64::total_cmp);
        layer.set(
            "server.journal.register_p50_us",
            stats::percentile(&registers, 50.0),
        );
        // Every acknowledged mutation was appended by both backends.
        layer.set(
            "server.journal.appends",
            (served.via_front.registered * 2) as f64,
        );
    }

    let generator_cpus = cpus.split.map(|(_, generator)| generator);
    // The knee, informational: closed-loop saturation, then the highest
    // multiple of the base rate that still meets the limit on schedule.
    let (sat_rps, sat_tally) = loadgen::saturate(
        &served.front,
        spec.proto,
        &served.ranks,
        cpus.lanes,
        16,
        1.0,
        generator_cpus,
    )
    .map_err(|e| format!("saturation: {e}"))?;
    served.via_front.merge(sat_tally);
    layer.set("serve.sat_rps", sat_rps);
    let mut max_rate = 0.0;
    for multiple in 1..=4u64 {
        let rate = spec.rate * multiple as f64;
        let plan = plan_phase(spec, cpus, &served.ranks, opts.seed + multiple, rate, 1.5);
        let probe = open_loop_phase(&fleet, spec, cpus, &mut served, plan, 1.5, false);
        let failed = Tally::of(&probe.records).failed;
        let p99 = stats::percentile(&probe.served_latencies(), 99.0);
        if failed == 0 && p99 <= spec.limit_us && probe.late_share(spec.limit_us) <= MAX_LATE_SHARE
        {
            max_rate = rate;
        }
        result.failed += failed;
    }
    layer.set("serve.max_rate_rps", max_rate);
    if spec.cluster {
        let via_router = p50_round_trip(
            &served.front,
            &served.ranks,
            2_000,
            generator_cpus,
            &mut served.via_front,
        )?;
        let direct = p50_round_trip(
            &served.controls[1],
            &served.ranks,
            2_000,
            generator_cpus,
            &mut served.direct,
        )?;
        layer.set("server.router.hop_added_p50_us", via_router - direct);
    }

    let mut torn_down = TearDowns::default();
    let exits = finish_checks(&mut fleet, spec, &served, &mut torn_down, &mut result);
    result.checks.extend(torn_down.into_checks(spec.cluster));
    let mut all_sent = served.via_front;
    all_sent.merge(served.direct);
    for exit in &exits {
        if exit.name == "router" {
            layer.set(
                "server.router.forward_errors",
                exit.count("forward_errors") as f64,
            );
            layer.set("server.router.ejections", exit.count("ejections") as f64);
        }
    }
    if spec.tenants {
        let evictions: u64 = exits.iter().map(|e| e.count("evictions")).sum();
        layer.set(
            "core.pool.evictions_per_req",
            evictions as f64 / all_sent.total().max(1) as f64,
        );
    }
    result.metrics = layer.into_metrics(&opts.catalogue)?;
    Ok(result)
}
