//! `sim_sweep`: the in-process workload. `Simulation::run` over every
//! policy at four memory sizes read off the trace's own hit-ratio curve.
//!
//! Only `core::policy`, `core::pool`, `sim`, `trace` and `analysis` do any
//! work here, so this is the workload on which a policy or pool change
//! shows and a codec, reactor or router change must show nothing.

use crate::layers::{self, Probes};
use crate::procfs::{self, ProcSample};
use crate::result::{Check, LayerValues};
use crate::spans::{self, Recorder, ROOT};
use crate::stats::{self, Summary};
use crate::{RunOpts, RunResult};
use faascache_analysis::hitratio::HitRatioCurve;
use faascache_analysis::reuse::reuse_distances;
use faascache_core::policy::PolicyKind;
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_sim::sweep::sweep;
use faascache_trace::adapt::{adapt, AdaptOptions};
use faascache_trace::record::{Invocation, Trace};
use faascache_trace::synth::{self, SynthConfig};
use faascache_util::rng::Pcg64;
use faascache_util::{MemMb, SimTime};
use std::collections::HashMap;
use std::time::Instant;

/// Traces per sweep, each from its own synthetic one-day dataset. The
/// datasets are the same in every run; the run's seed picks which stretch
/// of each day is replayed. The generator's heavy tails (is the top-ranked
/// function a timer or a Poisson source, how big is it) make the *cost per
/// simulated invocation* of two datasets differ by a quarter, so a seed
/// that redrew the datasets would measure the draw, not the code; a seed
/// that moves the window over fixed datasets varies the input and keeps
/// the run-to-run spread within the bounds.
const DATASET_SEEDS: [u64; 3] = [0xFAA5_0001, 0xFAA5_0002, 0xFAA5_0003];
/// Invocations per trace, about an hour and a half of virtual time at
/// the rates below; sized so that one sweep takes 0.5–1 s.
const INVOCATIONS: usize = 8_000;
/// Memory sizes are the smallest that give these shares of the trace's
/// best reachable hit ratio under the reuse-distance (LRU stack) model.
const HIT_TARGETS: [f64; 4] = [0.5, 0.7, 0.85, 0.95];
/// Set-ups timed before the sweeps and again after them; `setup_s` is the
/// fastest of them all. A set-up is deterministic work that a neighbour's
/// pressure on the shared cache only ever lengthens, for seconds at a
/// time, and two bursts of set-ups twenty seconds apart seldom both fall
/// into a slow spell.
const SETUPS_EACH_SIDE: usize = 3;

/// A stretch of [`INVOCATIONS`] invocations of synthetic Azure-like
/// dataset `dataset`, starting where `seed` says, with times rebased to
/// start at zero.
pub fn synth_trace(seed: u64, dataset: usize) -> Trace {
    let config = SynthConfig {
        num_functions: 400,
        num_apps: 130,
        max_rate_per_min: 20.0,
        zipf_exponent: 0.8,
        diurnal_amplitude: 0.3,
        seed: DATASET_SEEDS[dataset],
        ..SynthConfig::default()
    };
    let day = adapt(&synth::generate(&config), &AdaptOptions::default());
    let keep = day.len().min(INVOCATIONS);
    let from = Pcg64::seed_from_u64(seed)
        .split(dataset as u64)
        .next_below((day.len() - keep + 1) as u64) as usize;
    let stretch = &day.invocations()[from..from + keep];
    let origin = stretch.first().map_or(SimTime::ZERO, |inv| inv.time);
    let rebased = stretch
        .iter()
        .map(|inv| Invocation {
            time: SimTime::ZERO + inv.time.since(origin),
            function: inv.function,
        })
        .collect();
    Trace::new(day.registry().clone(), rebased)
}

/// One trace with the memory sizes chosen for it.
struct Input {
    trace: Trace,
    sizes: Vec<MemMb>,
}

fn build_inputs(seed: u64) -> Vec<Input> {
    (0..DATASET_SEEDS.len())
        .map(|dataset| {
            let trace = synth_trace(seed, dataset);
            let curve = HitRatioCurve::from_reuse(&reuse_distances(&trace));
            let best = curve.max_hit_ratio();
            let sizes = HIT_TARGETS
                .iter()
                .map(|share| {
                    curve
                        .size_for_hit_ratio(share * best)
                        .unwrap_or(MemMb::new(1024))
                        .max(MemMb::new(256))
                })
                .collect();
            Input { trace, sizes }
        })
        .collect()
}

/// One simulated policy × memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    wall_us: f64,
    invocations: u64,
    warm: u64,
    cold: u64,
    dropped: u64,
    evictions: u64,
}

impl Cell {
    fn counts(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.invocations,
            self.warm,
            self.cold,
            self.dropped,
            self.evictions,
        )
    }
}

/// Sweeps serially on this thread until `seconds` have passed, always
/// finishing the sweep in progress and making at least two. Returns each
/// sweep's cells, in the same order every sweep, and the harness's own
/// `/proc` counters at the start and after each sweep.
fn run_sweeps(
    inputs: &[Input],
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> (Vec<Vec<Cell>>, Vec<ProcSample>) {
    let me = std::process::id();
    let own = || procfs::sample(me).unwrap_or_default();
    let started = Instant::now();
    let mut sweeps: Vec<Vec<Cell>> = Vec::new();
    let mut samples = vec![own()];
    while sweeps.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let parent = rec.as_mut().map_or(ROOT, |r| r.open("sim.sweep", ROOT));
        let mut cells = Vec::new();
        for input in inputs {
            for policy in PolicyKind::ALL {
                for &memory in &input.sizes {
                    let t0 = Instant::now();
                    let r = Simulation::run(&input.trace, &SimConfig::new(memory, policy));
                    let t1 = Instant::now();
                    if let Some(rec) = rec.as_mut() {
                        rec.record("sim.cell", parent, 0, t0, t1);
                    }
                    cells.push(Cell {
                        wall_us: (t1 - t0).as_nanos() as f64 / 1e3,
                        invocations: r.invocations,
                        warm: r.warm,
                        cold: r.cold,
                        dropped: r.dropped,
                        evictions: r.evictions,
                    });
                }
            }
        }
        if let Some(rec) = rec.as_mut() {
            rec.close(parent);
        }
        sweeps.push(cells);
        samples.push(own());
    }
    (sweeps, samples)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn total(cells: &[Cell], f: fn(&Cell) -> u64) -> u64 {
    cells.iter().map(f).sum()
}

/// Seconds one sweep takes when nothing disturbs it: the sum over its
/// cells of each cell's fastest run. Every sweep does the very same work,
/// and whatever else the machine is doing only ever adds to a cell's
/// time (a neighbour's pressure on the shared cache was measured to slow
/// whole seconds of sweeps by up to 1.8x on the builder's VM, while an
/// arithmetic loop beside them kept its pace), so the fastest run of each
/// cell is the best estimate of what the code costs, and the only one that
/// repeats from run to run.
fn undisturbed_sweep_s(sweeps: &[Vec<Cell>]) -> f64 {
    (0..sweeps[0].len())
        .map(|c| {
            sweeps
                .iter()
                .map(|cells| cells[c].wall_us)
                .fold(f64::INFINITY, f64::min)
        })
        .sum::<f64>()
        / 1e6
}

/// Ascending wall times (µs) of every cell of every sweep.
fn cell_times(sweeps: &[Vec<Cell>]) -> Vec<f64> {
    let mut wall: Vec<f64> = sweeps.iter().flatten().map(|c| c.wall_us).collect();
    wall.sort_by(f64::total_cmp);
    wall
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let mut result = RunResult::new(opts);

    // Set-up: synthesize the traces, build each one's hit-ratio curve,
    // read the memory sizes off it. Done several times, all timed.
    let mut setup_s = Vec::new();
    let mut timed_set_ups = || {
        let mut inputs = Vec::new();
        for _ in 0..SETUPS_EACH_SIDE {
            let t = Instant::now();
            inputs = build_inputs(opts.seed);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        inputs
    };
    let inputs = timed_set_ups();
    // What the set-ups freed goes back to the kernel, so the resident set
    // read during the sweeps is what the sweeps hold, not whichever heap
    // layout a few day-long datasets happened to leave behind.
    procfs::release_free_heap();
    result.notes.push(format!(
        "{} traces x {} invocations, {} policies x {} sizes",
        inputs.len(),
        inputs[0].trace.len(),
        PolicyKind::ALL.len(),
        HIT_TARGETS.len(),
    ));

    if opts.traced {
        return traced(opts, result, &inputs);
    }

    let (sweeps, proc_samples) = run_sweeps(&inputs, opts.seconds, None);
    checks(&mut result, &sweeps);
    timed_set_ups();

    let first = &sweeps[0];
    let invocations = total(first, |c| c.invocations);
    let (warm, cold) = (total(first, |c| c.warm), total(first, |c| c.cold));
    let floor_s = undisturbed_sweep_s(&sweeps);
    // Memory is read after every sweep.
    let rss: Vec<f64> = proc_samples.iter().map(|s| s.rss_mb).collect();
    let measured = HashMap::from([
        ("setup_s", Summary::lowest(&setup_s)),
        (
            "throughput_rps",
            Summary::single(invocations as f64 / floor_s),
        ),
        ("warm_share", Summary::single(ratio(warm, warm + cold))),
        (
            "served_share",
            Summary::single(ratio(warm + cold, invocations)),
        ),
        ("rss_mb", Summary::of(&rss)),
    ]);
    result.set_end_to_end(&opts.catalogue, &measured)?;
    let mut sweep_s: Vec<f64> = sweeps
        .iter()
        .map(|cells| cells.iter().map(|c| c.wall_us).sum::<f64>() / 1e6)
        .collect();
    sweep_s.sort_by(f64::total_cmp);
    let wall = cell_times(&sweeps);
    result.notes.push(format!(
        "{} sweeps of {} cells, a cell being one Simulation::run, serially on one thread; \
         throughput_rps is of a sweep whose every cell ran at its fastest ({floor_s:.4} s); \
         not gated: sweep wall time p50 {:.4} s, max {:.4} s; cell p50 {:.0} us, p99 {:.0} us",
        sweeps.len(),
        first.len(),
        stats::percentile(&sweep_s, 50.0),
        stats::percentile(&sweep_s, 100.0),
        stats::percentile(&wall, 50.0),
        stats::percentile(&wall, 99.0),
    ));
    Ok(result)
}

/// Conservation per cell, and determinism: every sweep must give the
/// very same counts, cell by cell.
fn checks(result: &mut RunResult, sweeps: &[Vec<Cell>]) {
    let cells = || sweeps.iter().flatten();
    result.attempted = cells().map(|c| c.invocations).sum();
    let unaccounted: u64 = cells()
        .map(|c| c.invocations.abs_diff(c.warm + c.cold + c.dropped))
        .sum();
    result.failed = unaccounted;
    result.checks.push(Check {
        name: "conservation".to_string(),
        ok: unaccounted == 0,
        detail: format!(
            "warm+cold+dropped == invocations in {} cells",
            cells().count()
        ),
    });
    let counts = |cells: &[Cell]| cells.iter().map(Cell::counts).collect::<Vec<_>>();
    let differing = sweeps
        .iter()
        .filter(|cells| counts(cells) != counts(&sweeps[0]))
        .count();
    result.checks.push(Check {
        name: "rerun_identical".to_string(),
        ok: sweeps.len() >= 2 && differing == 0,
        detail: format!(
            "{differing} of {} sweeps differ from the first in a cell's \
             invocations/warm/cold/dropped/evictions",
            sweeps.len()
        ),
    });
}

/// The traced run: probes of the layers under this workload, then sweeps
/// with a span per sweep and per cell.
fn traced(opts: &RunOpts, mut result: RunResult, inputs: &[Input]) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let probes_span = rec.open("layer_probes", ROOT);
    let mut probes = Probes::new(&mut rec, probes_span);
    layers::policy(&mut probes);
    layers::pool(&mut probes);
    layers::trace_and_analysis(&mut probes, opts.seed);

    // Parallel speed-up of the library's own sweep over one trace.
    let first = &inputs[0];
    let base = SimConfig::new(first.sizes[0], PolicyKind::GreedyDual);
    for _ in 0..3 {
        let t = Instant::now();
        for policy in PolicyKind::ALL {
            for &memory in &first.sizes {
                std::hint::black_box(Simulation::run(
                    &first.trace,
                    &SimConfig::new(memory, policy),
                ));
            }
        }
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(sweep(&first.trace, &PolicyKind::ALL, &first.sizes, &base));
        probes.push(
            "sim.sweep_parallel_speedup",
            serial / t.elapsed().as_secs_f64(),
        );
    }
    let mut layers = LayerValues::from_probes(probes.finish());
    rec.close(probes_span);

    // Same sweeps without and with spans: the difference is what tracing
    // costs this workload.
    let (plain, _) = run_sweeps(inputs, opts.seconds / 4.0, None);
    let (sweeps, proc_samples) = run_sweeps(inputs, opts.seconds / 2.0, Some(&mut rec));
    checks(&mut result, &sweeps);
    let invocations = total(&sweeps[0], |c| c.invocations);
    let ns_per_inv = |sweeps: &[Vec<Cell>]| undisturbed_sweep_s(sweeps) * 1e9 / invocations as f64;
    let first = &sweeps[0];
    let (warm, cold) = (total(first, |c| c.warm), total(first, |c| c.cold));
    let wall = cell_times(&sweeps);
    let cpu_us = proc_samples[sweeps.len()].cpu_us() - proc_samples[0].cpu_us();
    for (name, value) in [
        ("sim.ns_per_invocation", ns_per_inv(&sweeps)),
        ("sim.cells", first.len() as f64),
        (
            "core.pool.evictions_per_req",
            ratio(total(first, |c| c.evictions), invocations),
        ),
        (
            "bench.trace_overhead_share",
            ns_per_inv(&sweeps) / ns_per_inv(&plain) - 1.0,
        ),
        (
            "cpu_us_per_req",
            cpu_us / (invocations * sweeps.len() as u64) as f64,
        ),
        (
            "peak_rss_mb",
            procfs::sample(std::process::id()).map_or(0.0, |s| s.hwm_mb),
        ),
        ("cold_share", ratio(cold, warm + cold)),
        ("p50_us", stats::percentile(&wall, 50.0)),
        ("p99_us", stats::percentile(&wall, 99.0)),
        ("p999_us", stats::percentile(&wall, 99.9)),
    ] {
        layers.set(name, value);
    }

    let all = spans::merge(vec![rec]);
    let closure = spans::worst_request_closure(&all);
    result.checks.push(Check {
        name: "span_closure".to_string(),
        ok: closure <= 0.05,
        detail: format!("{} spans, worst request gap {closure:.4}", all.len()),
    });
    crate::write_spans(opts, &all)?;
    result.metrics = layers.into_metrics(&opts.catalogue)?;
    Ok(result)
}
