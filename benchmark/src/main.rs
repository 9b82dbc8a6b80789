//! `faas-bench`: the repository's one benchmark harness.
//!
//! ```text
//! faas-bench run --workload W --seed S [--seconds N] [--trace 0|1]
//!                [--out F] [--spans F] --bin-dir DIR --work-root DIR
//!                --benchmark-json BENCHMARK.json
//! faas-bench compare A.json B.json --benchmark-json BENCHMARK.json
//! ```
//!
//! `run` executes one workload once and prints every metric by name with
//! unit, value, quartiles and sample count, then its checks, then — as
//! the last line of stdout — one JSON object with the values for the
//! benchmark driver. Untraced runs (`--trace 0`) report the end-to-end
//! metrics; traced runs report the per-layer metrics and write their
//! spans as JSON lines. It exits non-zero when any check fails.
//!
//! `benchmark/run.sh` builds everything and calls `run`; see
//! `benchmark/README.md` for what is measured and why.

mod compare;
mod fleet;
mod json;
mod layers;
mod loadgen;
mod procfs;
mod result;
mod serve;
mod simsweep;
mod spans;
mod stats;
mod wire;

pub use result::RunResult;

use json::Json;
use result::Catalogue;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A run must end well inside the driver's 180 s allowance.
const WALL_CLOCK_LIMIT: Duration = Duration::from_secs(170);

/// What `run` was asked to do. Paths are absolute: serving workloads
/// change the working directory.
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<PathBuf>,
    pub spans: Option<PathBuf>,
    pub bin_dir: PathBuf,
    pub work_root: PathBuf,
    pub deadline: Instant,
    /// The metrics to report, as `BENCHMARK.json` lists them.
    pub catalogue: Catalogue,
}

impl RunResult {
    /// An empty result carrying the environment block every result has.
    pub fn new(opts: &RunOpts) -> RunResult {
        let env_or_unknown =
            |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        RunResult {
            workload: opts.workload.clone(),
            traced: opts.traced,
            env: vec![
                ("nproc".to_string(), Json::Num(nproc as f64)),
                ("commit".to_string(), env_or_unknown("FAAS_BENCH_COMMIT")),
                ("rustc".to_string(), env_or_unknown("FAAS_BENCH_RUSTC")),
                ("profile".to_string(), Json::str(profile)),
                ("kernel".to_string(), Json::str(procfs::kernel_release())),
                ("loadavg_before".to_string(), Json::Num(procfs::loadavg())),
                ("seed".to_string(), Json::Num(opts.seed as f64)),
                ("seconds".to_string(), Json::Num(opts.seconds)),
            ],
            attempted: 0,
            failed: 0,
            late_share: 0.0,
            attempts: 1,
            checks: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

/// Writes a traced run's spans where `--spans` says, by default next to
/// the work directories.
pub fn write_spans(opts: &RunOpts, spans: &[spans::Span]) -> Result<(), String> {
    let path = opts.spans.clone().unwrap_or_else(|| {
        opts.work_root
            .join(format!("spans-{}.jsonl", opts.workload))
    });
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    spans::write_jsonl(spans, std::io::BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn usage() -> String {
    "usage: faas-bench run --workload W --seed S [--seconds N] [--trace 0|1] [--out F] \
     [--spans F] --bin-dir DIR --work-root DIR --benchmark-json FILE\n       \
     faas-bench compare A.json B.json --benchmark-json FILE\n\
     workloads: sim_sweep serve_warm serve_churn_http cluster_mixed"
        .to_string()
}

/// `--flag value` pairs, in command-line order.
type Flags = Vec<(String, String)>;

/// Splits `--flag value` pairs from positional arguments.
fn parse_args(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) => {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((flags, positional))
}

fn absolute(path: &str) -> Result<PathBuf, String> {
    std::path::absolute(path).map_err(|e| format!("{path}: {e}"))
}

fn run_opts(flags: &[(String, String)]) -> Result<RunOpts, String> {
    let get = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let need = |name: &str| get(name).ok_or(format!("--{name} is required\n{}", usage()));
    let catalogue = Catalogue::parse(&read(need("benchmark-json")?)?)?;
    let workload = need("workload")?.to_string();
    if !catalogue.workloads.contains(&workload) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    let seconds: f64 = get("seconds")
        .unwrap_or("20")
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(RunOpts {
        workload,
        seed: need("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        traced: match get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        out: get("out").map(absolute).transpose()?,
        spans: get("spans").map(absolute).transpose()?,
        bin_dir: absolute(need("bin-dir")?)?,
        work_root: absolute(need("work-root")?)?,
        deadline: Instant::now() + WALL_CLOCK_LIMIT,
        catalogue,
    })
}

fn run(flags: &[(String, String)]) -> Result<bool, String> {
    let opts = run_opts(flags)?;
    std::fs::create_dir_all(&opts.work_root)
        .map_err(|e| format!("create {}: {e}", opts.work_root.display()))?;
    fleet::sweep_stale(&opts.work_root);
    let result = if opts.workload == "sim_sweep" {
        simsweep::run(&opts)?
    } else {
        serve::run(&opts)?
    };
    result.print_table();
    if let Some(path) = &opts.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", result.to_json().to_line())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = (|| -> Result<bool, String> {
        let (command, rest) = args.split_first().ok_or_else(usage)?;
        let (flags, files) = parse_args(rest)?;
        match (command.as_str(), files.as_slice()) {
            ("run", []) => run(&flags),
            ("compare", [a, b]) => {
                let path = flags
                    .iter()
                    .find(|(k, _)| k == "benchmark-json")
                    .map(|(_, v)| v.as_str())
                    .ok_or("--benchmark-json is required")?;
                let catalogue = Catalogue::parse(&read(path)?)?;
                compare::compare(&read(a)?, &read(b)?, &catalogue).map(|bad| !bad)
            }
            _ => Err(usage()),
        }
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("faas-bench: {msg}");
            ExitCode::from(2)
        }
    }
}
