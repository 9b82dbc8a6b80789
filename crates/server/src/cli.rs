//! The command lines of `faascached`, `faas-router` and `faas-load`,
//! parsed once, here, so each binary's `main` is parse → bind → run.
//!
//! Every rule on a flag's value is that value's parse, and the type it
//! parses into keeps it: a count that must not be zero is a `NonZero`
//! integer, an interval or socket timeout a [`Period`]. A value that
//! breaks its rule is a [`UsageError`] naming the flag; the binary
//! prints it above its usage text and exits 2. Parsing prints nothing,
//! so `tests/argv.rs` fuzzes exactly what the binaries run.

use crate::client::{LoadOptions, RetryPolicy};
use crate::daemon::{BoundAddr, Daemon, DaemonConfig, Endpoint};
use crate::fault::FaultConfig;
use crate::journal::{Journal, JournalRecord};
use crate::router::{BackendSpec, Router, RouterConfig};
use crate::workload::{parse_skew, WorkloadConfig};
use faascache_core::function::FunctionRegistry;
use faascache_platform::tenant::{TenantQuota, MAX_TENANTS};
use faascache_util::MemMb;
use std::fmt;
use std::io;
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A wall-clock period above zero, in whole milliseconds up to
/// `u32::MAX` (49.7 days): the type of every interval and socket
/// timeout a caller sets. A zero interval spins the loop it paces and a
/// zero socket timeout fails every read; the upper bound keeps
/// `Instant + period` and its multiples from overflowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Period(NonZeroU32);

impl Period {
    /// `ms` milliseconds; panics on zero (a compile error in a `const`).
    pub const fn ms(ms: u32) -> Period {
        match NonZeroU32::new(ms) {
            Some(ms) => Period(ms),
            None => panic!("a period is above zero"),
        }
    }

    /// The period as a [`Duration`].
    pub const fn get(self) -> Duration {
        Duration::from_millis(self.0.get() as u64)
    }
}

/// Parses milliseconds; `0`, a negative or more than `u32::MAX` fails.
impl FromStr for Period {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse().map(Period)
    }
}

/// The most `--shards` or `--functions` a command line may ask for: each
/// is an allocation (~0.5 KB, ~6 KB), and `u32::MAX` asks for terabytes.
/// [`Daemon::bind`] holds a library caller's shard count to it too.
pub const MAX_COUNT: usize = 1 << 16;

/// A command line that does not parse, or asked for `--help`: printed,
/// it is the binary's usage text, under what was wrong.
#[derive(Debug)]
pub struct UsageError {
    bin: &'static str,
    usage: &'static str,
    /// What was wrong, naming the flag; `None` after `--help`.
    pub reason: Option<String>,
}

impl UsageError {
    /// Prints the error to stderr and returns the usage exit code, 2.
    pub fn exit(&self) -> ExitCode {
        eprintln!("{self}");
        ExitCode::from(2)
    }
}

/// The end of a server binary: `bound`'s error on stderr and exit 1, or
/// the server `run` and its summary line on stdout and exit 0.
pub fn serve<S>(bin: &str, bound: io::Result<S>, run: impl FnOnce(S) -> String) -> ExitCode {
    match bound {
        Ok(server) => println!("{}", run(server)),
        Err(e) => {
            eprintln!("{bin}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(reason) = &self.reason {
            writeln!(f, "{}: {reason}", self.bin)?;
        }
        f.write_str(self.usage)
    }
}

const DAEMON_USAGE: &str = "\
usage: faascached [--tcp ADDR | --unix PATH] [--http-listen ADDR]
                  [--shards N] [--mem-mb MB]
                  [--io-model threads|epoll]
                  [--queue-bound N] [--policy GD|TTL|LRU|FREQ|SIZE|LND|HIST]
                  [--functions N] [--seed S] [--skew zipf:S] [--reap-ms MS]
                  [--rebalance]
                  [--tenants A,B,...] [--tenant-quota NAME:inflight=K,mem=MB]
                  [--default-tenant-quota inflight=K,mem=MB]
                  [--state-dir DIR]
                  [--faults SPEC] [--no-remote-shutdown]";

const ROUTER_USAGE: &str = "\
usage: faas-router [--tcp ADDR | --unix PATH] [--http-listen ADDR]
                   --backends SPEC[,SPEC...]
                   [--balancer random|round-robin|least-loaded|affinity]
                   [--seed S] [--health-ms MS] [--eject-after N]
                   [--readmit-ms MS] [--hop-retries N] [--hop-backoff-ms MS]
                   [--backend-timeout-ms MS]
                   [--backend-faults SPEC] [--no-remote-shutdown]

backend SPEC: HOST:PORT | unix:PATH, optionally +http=HOST:PORT";

const LOAD_USAGE: &str = "\
usage: faas-load [--tcp ADDR | --unix PATH] [--proto binary|http]
                 [--requests N] [--threads T]
                 [--rps R] [--functions N] [--seed S] [--skew zipf:S]
                 [--connections N] [--shutdown] [--tenant-mod K:R]
                 [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
                 [--read-timeout-ms MS] [--faults SPEC]";

/// One binary's argv, walked flag by flag.
struct Argv<I> {
    bin: &'static str,
    usage: &'static str,
    args: I,
}

impl<I: Iterator<Item = String>> Argv<I> {
    fn new(bin: &'static str, usage: &'static str, args: I) -> Self {
        Argv { bin, usage, args }
    }

    fn fail(&self, reason: Option<String>) -> UsageError {
        UsageError {
            bin: self.bin,
            usage: self.usage,
            reason,
        }
    }

    /// The value after `flag`, if it parses as `T` and `ok` holds for it.
    fn value_where<T: FromStr>(&mut self, flag: &str, ok: fn(&T) -> bool) -> Result<T, UsageError> {
        match self.args.next().and_then(|v| v.parse().ok()).filter(ok) {
            Some(v) => Ok(v),
            None => Err(self.fail(Some(format!("bad or missing value for {flag}")))),
        }
    }

    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        self.value_where(flag, |_| true)
    }

    /// A path; an empty one names no file (Linux binds an empty socket
    /// path to an unnamed address no client can dial).
    fn path(&mut self, flag: &str) -> Result<PathBuf, UsageError> {
        self.value_where(flag, |p: &PathBuf| !p.as_os_str().is_empty())
    }

    /// A count of at most [`MAX_COUNT`].
    fn count(&mut self, flag: &str) -> Result<NonZeroUsize, UsageError> {
        self.value_where(flag, |n: &NonZeroUsize| n.get() <= MAX_COUNT)
    }

    /// The value after `flag` through `parse`, whose error follows the flag.
    fn spec<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, UsageError> {
        let value: String = self.value(flag)?;
        parse(&value).map_err(|e| self.fail(Some(format!("{flag}: {e}"))))
    }

    /// `--help`, or a flag this binary does not take.
    fn other(&self, flag: &str) -> UsageError {
        match flag {
            "--help" | "-h" => self.fail(None),
            other => self.fail(Some(format!("unknown flag {other}"))),
        }
    }

    /// Whether `flag` was a listener flag, shared by the two servers.
    fn listen(&mut self, flag: &str, listen: &mut Listen) -> Result<bool, UsageError> {
        match flag {
            "--tcp" => listen.endpoint = Endpoint::Tcp(self.value(flag)?),
            #[cfg(unix)]
            "--unix" => listen.endpoint = Endpoint::Unix(self.path(flag)?),
            "--http-listen" => listen.http = Some(self.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether `flag` was part of the daemon's and load's workload contract.
    fn workload(&mut self, flag: &str, workload: &mut WorkloadConfig) -> Result<bool, UsageError> {
        match flag {
            "--functions" => workload.functions = self.count(flag)?,
            "--seed" => workload.seed = self.value(flag)?,
            "--skew" => workload.zipf_exponent = self.spec(flag, parse_skew)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// A fault spec; `None` when it injects nothing.
    fn faults(&mut self, flag: &str) -> Result<Option<FaultConfig>, UsageError> {
        let faults = self.spec(flag, FaultConfig::parse_spec)?;
        Ok(faults.is_active().then_some(faults))
    }
}

/// Where a server listens: `--tcp ADDR` or `--unix PATH`, plus the
/// optional HTTP/1.1 gateway of `--http-listen ADDR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listen {
    /// The binary-protocol endpoint.
    pub endpoint: Endpoint,
    /// The HTTP gateway's TCP address.
    pub http: Option<String>,
}

/// `faascached`'s command line.
#[derive(Debug)]
pub struct DaemonArgs {
    /// Listeners.
    pub listen: Listen,
    /// The daemon (its `journal` is opened by [`DaemonArgs::bind`]).
    pub config: DaemonConfig,
    /// The generated workload the registry starts from.
    pub workload: WorkloadConfig,
    /// `--tenants`: the owners of the generated functions, round-robin.
    pub tenants: Vec<String>,
    /// `--state-dir`: where the control-plane journal lives.
    pub state_dir: Option<PathBuf>,
}

/// Holds a tenant named on the command line to the runtime mutations' rule.
fn check_tenant(tenant: &str) -> Result<(), String> {
    JournalRecord::SetQuota {
        tenant: tenant.to_string(),
        inflight: u64::MAX,
        mem_mb: u64::MAX,
    }
    .validate()
}

/// Parses `faascached`'s arguments (without the program name).
pub fn faascached(args: impl IntoIterator<Item = String>) -> Result<DaemonArgs, UsageError> {
    let mut argv = Argv::new("faascached", DAEMON_USAGE, args.into_iter());
    let mut out = DaemonArgs {
        listen: Listen {
            endpoint: Endpoint::Tcp("127.0.0.1:7077".to_string()),
            http: None,
        },
        config: DaemonConfig::default(),
        workload: WorkloadConfig::default(),
        tenants: Vec::new(),
        state_dir: None,
    };
    let config = &mut out.config;
    while let Some(flag) = argv.args.next() {
        if argv.listen(&flag, &mut out.listen)? || argv.workload(&flag, &mut out.workload)? {
            continue;
        }
        match flag.as_str() {
            "--shards" => config.shards = argv.count(&flag)?,
            "--io-model" => config.io_model = argv.value(&flag)?,
            "--mem-mb" => config.total_mem = MemMb::new(argv.value(&flag)?),
            "--queue-bound" => config.queue_bound = argv.value(&flag)?,
            "--policy" => config.policy = argv.value(&flag)?,
            "--reap-ms" => config.reap_interval = argv.value(&flag)?,
            "--rebalance" => config.rebalance = Some(Default::default()),
            "--tenants" => {
                out.tenants = argv.spec(&flag, |list| {
                    let tenants: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(str::to_string)
                        .collect();
                    if tenants.is_empty() {
                        return Err("needs at least one name".to_string());
                    }
                    tenants.iter().try_for_each(|t| check_tenant(t))?;
                    // Interned as the daemon will, the default tenant first.
                    let mut registry = FunctionRegistry::new();
                    for t in &tenants {
                        registry.intern_tenant(t);
                    }
                    if registry.tenant_count() > MAX_TENANTS {
                        return Err(format!(
                            "names {} tenants; at most {} fit beside the default tenant",
                            registry.tenant_count() - 1,
                            MAX_TENANTS - 1
                        ));
                    }
                    Ok(tenants)
                })?
            }
            "--tenant-quota" => {
                let (name, quota) = argv.spec(&flag, |spec| {
                    let (name, quota) =
                        spec.split_once(':').ok_or("wants NAME:inflight=K,mem=MB")?;
                    let quota = TenantQuota::parse(quota)?;
                    check_tenant(name)?;
                    Ok((name.to_string(), quota))
                })?;
                config.tenant_quotas.set(&name, quota)
            }
            "--default-tenant-quota" => {
                config.tenant_quotas.default = argv.spec(&flag, TenantQuota::parse)?
            }
            "--faults" => config.faults = argv.faults(&flag)?,
            "--state-dir" => out.state_dir = Some(argv.path(&flag)?),
            "--no-remote-shutdown" => config.allow_remote_shutdown = false,
            other => return Err(argv.other(other)),
        }
    }
    Ok(out)
}

/// Announces fault injection on `what` when `faults` injects anything.
fn chaos_banner(bin: &str, what: &str, faults: Option<FaultConfig>) {
    if let Some(f) = faults {
        eprintln!(
            "{bin}: CHAOS MODE: injecting faults on every {what} (seed={:#x} reset={} \
             torn={} short-read={} timeout={} corrupt={} stall={}@{}ms)",
            f.seed, f.reset, f.torn_write, f.short_read, f.timeout, f.corrupt, f.stall, f.stall_ms,
        );
    }
}

fn bin_error(e: io::Error, what: String) -> io::Error {
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

impl DaemonArgs {
    /// Builds the workload, opens the state dir, binds the listeners and
    /// replays the journal: everything `faascached` does before it
    /// serves, with its stderr lines.
    pub fn bind(mut self) -> io::Result<Daemon> {
        let config = &mut self.config;
        chaos_banner("faascached", "connection", config.faults);
        // C10k serving needs one fd per connection.
        #[cfg(target_os = "linux")]
        if config.io_model == crate::IoModel::Epoll {
            match crate::reactor::raise_nofile_limit() {
                Ok(limit) => eprintln!("faascached: open-file limit {limit}"),
                Err(e) => eprintln!("faascached: could not raise open-file limit: {e}"),
            }
        }
        let trace = self.workload.build();
        let mut registry = trace.registry().clone();
        // Round-robin tenant assignment over the generated workload,
        // matching `faas-load --tenant-mod K:R` slicing on the client side.
        if !self.tenants.is_empty() {
            let ids: Vec<_> = registry.iter().map(|spec| spec.id()).collect();
            for (i, id) in ids.into_iter().enumerate() {
                registry.set_tenant(id, &self.tenants[i % self.tenants.len()]);
            }
            eprintln!(
                "faascached: workload tenants: {} (round-robin by function index)",
                self.tenants.join(",")
            );
        }
        eprintln!(
            "faascached: workload functions={} seed={:#x} (registry: {} functions)",
            self.workload.functions,
            self.workload.seed,
            registry.len()
        );
        // Runtime mutations are fsynced to the journal before their acks;
        // what it recovered is replayed once the daemon is bound.
        let dir = self.state_dir.as_deref().unwrap_or(Path::new(""));
        let (journal, recovered) = (self.state_dir.as_deref().map(Journal::open).transpose())
            .map_err(|e| bin_error(e, format!("--state-dir {}", dir.display())))?
            .unzip();
        config.journal = journal.map(|journal| Arc::new(Mutex::new(journal)));
        let (endpoint, http) = (&self.listen.endpoint, self.listen.http.as_deref());
        let daemon = Daemon::bind(endpoint, http, config.clone(), registry)
            .map_err(|e| bin_error(e, "bind failed".to_string()))?;
        eprintln!(
            "faascached: listening on {:?} with {} shards / {} MB / {:?} (io={})",
            daemon.bound_addr(),
            config.shards,
            config.total_mem.as_mb(),
            config.policy,
            config.io_model,
        );
        if let Some(http) = daemon.bound_http_addr() {
            eprintln!("faascached: http gateway on {http:?}");
        }
        if let Some(recovered) = recovered {
            let skipped = daemon.replay(&recovered.records);
            eprintln!(
                "faascached: state dir {}: replayed {} mutations ({} from snapshot), \
                 skipped {skipped}, truncated {} torn bytes",
                dir.display(),
                recovered.records.len() - skipped,
                recovered.snapshot_records,
                recovered.truncated_bytes,
            );
        }
        Ok(daemon)
    }
}

/// `faas-router`'s command line.
#[derive(Debug)]
pub struct RouterArgs {
    /// Listeners.
    pub listen: Listen,
    /// The router.
    pub config: RouterConfig,
    /// `--backends`, at least one.
    pub backends: Vec<BackendSpec>,
}

/// Parses `faas-router`'s arguments (without the program name).
pub fn faas_router(args: impl IntoIterator<Item = String>) -> Result<RouterArgs, UsageError> {
    let mut argv = Argv::new("faas-router", ROUTER_USAGE, args.into_iter());
    let mut listen = Listen {
        endpoint: Endpoint::Tcp("127.0.0.1:7070".to_string()),
        http: None,
    };
    let mut config = RouterConfig::default();
    let mut backends = Vec::new();
    while let Some(flag) = argv.args.next() {
        if argv.listen(&flag, &mut listen)? {
            continue;
        }
        match flag.as_str() {
            "--backends" => backends.extend(argv.spec(&flag, |list| {
                list.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::parse::<BackendSpec>)
                    .collect::<Result<Vec<_>, _>>()
            })?),
            "--balancer" => config.balancer = argv.value(&flag)?,
            "--seed" => config.seed = argv.value(&flag)?,
            "--health-ms" => config.health_interval = argv.value(&flag)?,
            "--eject-after" => config.eject_after = argv.value(&flag)?,
            "--readmit-ms" => config.readmit_backoff = argv.value(&flag)?,
            "--hop-retries" => config.hop_retries = argv.value(&flag)?,
            "--hop-backoff-ms" => config.hop_backoff = Duration::from_millis(argv.value(&flag)?),
            "--backend-timeout-ms" => config.backend_read_timeout = argv.value(&flag)?,
            "--backend-faults" => config.backend_faults = argv.faults(&flag)?,
            "--no-remote-shutdown" => config.allow_remote_shutdown = false,
            other => return Err(argv.other(other)),
        }
    }
    if backends.is_empty() {
        return Err(argv.fail(Some("--backends is required".to_string())));
    }
    Ok(RouterArgs {
        listen,
        config,
        backends,
    })
}

impl RouterArgs {
    /// Binds the router's listeners, with `faas-router`'s stderr lines.
    pub fn bind(self) -> io::Result<Router> {
        let (faults, balancer) = (self.config.backend_faults, self.config.balancer);
        chaos_banner("faas-router", "backend data connection", faults);
        let backends: Vec<String> = self.backends.iter().map(|b| b.to_string()).collect();
        let (endpoint, http) = (&self.listen.endpoint, self.listen.http.as_deref());
        let router = Router::bind(endpoint, http, self.config, self.backends)
            .map_err(|e| bin_error(e, "bind failed".to_string()))?;
        eprintln!(
            "faas-router: listening on {:?} balancer={balancer} backends={}",
            router.bound_addr(),
            backends.join(",")
        );
        if let Some(http) = router.bound_http_addr() {
            eprintln!("faas-router: http front on {http:?}");
        }
        Ok(router)
    }
}

/// `faas-load`'s command line.
#[derive(Debug)]
pub struct LoadArgs {
    /// The daemon or router to load.
    pub target: BoundAddr,
    /// The workload contract the target was started with.
    pub workload: WorkloadConfig,
    /// The run; its read timeout defaults to 500 ms when retries or
    /// faults are on, so a lost response becomes a retryable error.
    pub options: LoadOptions,
    /// `--shutdown`: ask the target to drain afterwards.
    pub shutdown: bool,
    /// `--tenant-mod K:R`: keep the functions whose index is R mod K.
    pub tenant_mod: Option<(u64, u64)>,
}

/// Parses `faas-load`'s arguments (without the program name).
pub fn faas_load(args: impl IntoIterator<Item = String>) -> Result<LoadArgs, UsageError> {
    let mut argv = Argv::new("faas-load", LOAD_USAGE, args.into_iter());
    let mut target = None;
    let mut workload = WorkloadConfig::default();
    let mut options = LoadOptions::new(20_000.0, 100_000, 4);
    let (mut shutdown, mut tenant_mod) = (false, None);
    let (mut retries, mut backoff_ms, mut backoff_cap_ms) = (0u32, 5u64, 250u64);
    let mut faults = None;
    while let Some(flag) = argv.args.next() {
        if argv.workload(&flag, &mut workload)? {
            continue;
        }
        match flag.as_str() {
            "--tcp" => target = Some(BoundAddr::Tcp(argv.value(&flag)?)),
            #[cfg(unix)]
            "--unix" => target = Some(BoundAddr::Unix(argv.path(&flag)?)),
            "--proto" => options.proto = argv.value(&flag)?,
            "--requests" => options.requests = argv.value::<NonZeroU64>(&flag)?.get(),
            "--threads" => options.threads = argv.value::<NonZeroUsize>(&flag)?.get(),
            "--connections" => options.connections = argv.value(&flag)?,
            "--rps" => {
                options.target_rps = argv.value_where(&flag, |r: &f64| r.is_finite() && *r > 0.0)?
            }
            "--shutdown" => shutdown = true,
            "--tenant-mod" => {
                tenant_mod = Some(argv.spec(&flag, |spec| {
                    spec.split_once(':')
                        .and_then(|(k, r)| Some((k.parse::<u64>().ok()?, r.parse::<u64>().ok()?)))
                        .filter(|&(k, r)| r < k)
                        .ok_or(format!("wants K:R with R < K, got {spec}"))
                })?)
            }
            "--retries" => retries = argv.value(&flag)?,
            "--backoff-ms" => backoff_ms = argv.value(&flag)?,
            "--backoff-cap-ms" => backoff_cap_ms = argv.value(&flag)?,
            "--read-timeout-ms" => options.read_timeout = Some(argv.value(&flag)?),
            "--faults" => faults = argv.faults(&flag)?,
            other => return Err(argv.other(other)),
        }
    }
    let Some(target) = target else {
        return Err(argv.fail(Some("need --tcp or --unix".to_string())));
    };
    let (base, cap) = (
        Duration::from_millis(backoff_ms),
        Duration::from_millis(backoff_cap_ms),
    );
    options.retry = RetryPolicy::retries(retries, base, cap.max(base));
    if options.retry.is_enabled() || faults.is_some() {
        options.read_timeout.get_or_insert(Period::ms(500));
    }
    options.faults = faults;
    options.seed = workload.seed;
    Ok(LoadArgs {
        target,
        workload,
        options,
        shutdown,
        tenant_mod,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    #[test]
    fn help_is_the_usage_text_alone() {
        let err = faas_router(argv("--help")).unwrap_err();
        assert_eq!(err.reason, None);
        assert_eq!(err.to_string(), ROUTER_USAGE);
        let err = faascached(argv("--shards")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("faascached: bad or missing value for --shards\n{DAEMON_USAGE}")
        );
    }
}
