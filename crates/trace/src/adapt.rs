//! Turning an [`AzureDataset`] into a replayable [`Trace`] with the
//! paper's §7 adaptation rules:
//!
//! 1. functions invoked fewer than twice are dropped ("do not consider
//!    functions that are never reused"),
//! 2. application memory is split evenly between the app's functions,
//! 3. the cold-start overhead is estimated as `maximum − average` runtime
//!    (so `warm = avg`, `cold = max`),
//! 4. minute buckets expand to timestamps: a single invocation is injected
//!    at the beginning of its minute; multiple invocations are equally
//!    spaced throughout the minute.
//!
//! **Layout.** The day is written in time order, not sorted afterwards.
//! One pass over the kept functions counts each minute's invocations,
//! which sizes one exactly-sized vector. A second pass walks the minutes
//! in order and, within a minute, the kept functions in registration
//! order. Rule 4 puts each non-empty (function, minute) bucket's first
//! invocation at the minute's start, so those firsts, in that order, are
//! the minute's *head* and are written straight in place. Only a
//! bucket's later invocations go to the minute's *tail*: they are
//! collected as packed `(offset_us << 32) | id` keys (an offset is below
//! 2^26 µs and an id fits in 32 bits), ordered with `sort_unstable` and
//! decoded behind the head. A minute's invocations never leave it (see
//! the cap below), so the minutes in order are the day in time order and
//! the trace is built without [`Trace::new`]'s sort. In a
//! `sim_sweep`-shaped day, 164k of the 207k non-empty buckets hold one
//! invocation, so 130k of its 337k invocations are sorted, about 90 at a
//! time. Walking minutes rather than functions keeps the counts a minute
//! reads in cache for the next fifteen minutes and writes only forwards;
//! and since which buckets are empty cannot be predicted, every function
//! writes a head and only a non-empty one moves past it (the next head,
//! or the tail, overwrites the rest).
//!
//! **Split.** The minutes are cut into contiguous ranges of about equal
//! invocation counts, one per available core, and each range is written
//! by its own scoped thread into its `split_at_mut` share of the day,
//! with room for its largest minute's tail, both allocated on the
//! calling thread: a worker allocates nothing. A day too small to repay
//! a thread (`MIN_PART` invocations) is written on the calling thread.
//! A range writes the same values whichever thread writes it, so the
//! output does not depend on the core count.
//!
//! **Ties.** Invocations at the same instant come out in the order their
//! functions were registered (the dataset's key order): the order a
//! stable sort of the whole day, pushed function by function, gives. At
//! a minute's start that is the head's order; later in the minute a key
//! ties only with other functions' keys, since one bucket's offsets are
//! distinct, and the id in its low bits orders those. A bucket whose
//! step is 0 has all its invocations at the minute's start, so they all
//! join the head right behind its first and the tail never holds an
//! offset of 0. That takes over `MINUTE_US` = 60,000,000 invocations in
//! one minute, where the cap below, `(60 s − 1 µs) / (k − 1)`, reaches 0.
//!
//! **Horizon.** [`AdaptOptions::horizon_mins`] expands only the minutes
//! before it. Which functions are kept and how each app's memory is split
//! are still decided on the whole day, so the result equals the
//! full-day trace [`truncated`](Trace::truncated) at the horizon.
//!
//! **Cap.** `k` invocations in one minute are `60 s / k` apart, rounded
//! to the microsecond. Rounding up would carry the last of them past the
//! minute (first at k = 10,988: 5,461 µs apart, the last at 60,000,007
//! µs), so the step is capped at `(60 s − 1 µs) / (k − 1)`. The cap binds
//! only where the step would otherwise spill.

use crate::azure::AzureDataset;
use crate::record::{Invocation, Trace};
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_util::{MemMb, SimDuration, SimTime};
use std::num::NonZeroUsize;
use std::ops::Range;

/// Microseconds in one minute bucket.
const MINUTE_US: u64 = 60_000_000;

/// Counts up to this read their step from a table built once per call;
/// a larger bucket computes its own, once for that many writes.
const STEP_TABLE: u32 = 256;

/// Fewest invocations worth a thread of their own.
const MIN_PART: usize = 1 << 16;

/// Options controlling the dataset → trace adaptation.
#[derive(Debug, Clone)]
pub struct AdaptOptions {
    /// Minimum total invocations for a function to be kept (paper: 2).
    pub min_invocations: u64,
    /// Memory floor per function after the app split.
    pub min_mem_mb: u64,
    /// Minutes to expand into invocations; `None` (the default) expands
    /// the whole day. Only the invocations are cut: functions invoked
    /// only after the horizon are still registered.
    pub horizon_mins: Option<u64>,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            min_invocations: 2,
            min_mem_mb: 1,
            horizon_mins: None,
        }
    }
}

/// Gap between the `k ≥ 1` invocations of one minute: `60 s / k` to the
/// microsecond, capped so that the last of them falls inside the minute.
fn spacing_us(k: u32) -> u64 {
    let step = SimDuration::from_secs_f64(60.0 / f64::from(k)).as_micros();
    match u64::from(k) - 1 {
        0 => step,
        gaps => step.min((MINUTE_US - 1) / gaps),
    }
}

/// Adapts a dataset into a replayable trace.
///
/// # Examples
///
/// ```
/// use faascache_trace::adapt::{adapt, AdaptOptions};
/// use faascache_trace::azure::AzureDataset;
///
/// let trace = adapt(&AzureDataset::new(), &AdaptOptions::default());
/// assert!(trace.is_empty());
/// ```
pub fn adapt(dataset: &AzureDataset, options: &AdaptOptions) -> Trace {
    let day = Counted::new(dataset, options);
    let cores = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
    let parts = cores.min(day.total / MIN_PART).max(1);
    day.write(parts)
}

/// [`adapt`] with the day cut into at most `parts` ranges (a range ends
/// at a minute), however small it is.
#[cfg(test)]
pub(crate) fn adapt_in_parts(
    dataset: &AzureDataset,
    options: &AdaptOptions,
    parts: usize,
) -> Trace {
    Counted::new(dataset, options).write(parts)
}

/// The first pass: the kept functions, registered, and how many
/// invocations each minute holds.
struct Counted<'a> {
    registry: FunctionRegistry,
    /// Each kept function with the minutes it expands.
    kept: Vec<(FunctionId, &'a [u32])>,
    per_minute: Vec<usize>,
    total: usize,
}

impl<'a> Counted<'a> {
    fn new(dataset: &'a AzureDataset, options: &AdaptOptions) -> Self {
        let app_sizes = dataset.app_sizes();
        let horizon = options
            .horizon_mins
            .map_or(usize::MAX, |h| usize::try_from(h).unwrap_or(usize::MAX));
        let mut registry = FunctionRegistry::new();
        let mut kept = Vec::new();
        let mut per_minute: Vec<usize> = Vec::new();

        for (key, func) in &dataset.functions {
            if func.total_invocations() < options.min_invocations {
                continue;
            }
            let app_mb = dataset.app_memory_mb.get(&key.app).copied().unwrap_or(0.0);
            let n_in_app = app_sizes.get(key.app.as_str()).copied().unwrap_or(1).max(1);
            let mem =
                MemMb::new(((app_mb / n_in_app as f64).round() as u64).max(options.min_mem_mb));
            let warm = SimDuration::from_secs_f64(func.avg_duration_ms / 1e3);
            let cold =
                SimDuration::from_secs_f64(func.max_duration_ms.max(func.avg_duration_ms) / 1e3);
            let id = registry
                .register(key.to_string(), mem, warm, cold)
                .expect("dataset keys are unique and memory is positive");

            let minutes = &func.per_minute[..func.per_minute.len().min(horizon)];
            if per_minute.len() < minutes.len() {
                per_minute.resize(minutes.len(), 0);
            }
            for (n, &count) in per_minute.iter_mut().zip(minutes) {
                *n += count as usize;
            }
            kept.push((id, minutes));
        }
        let total = per_minute.iter().sum();
        Counted {
            registry,
            kept,
            per_minute,
            total,
        }
    }

    /// The second pass, split into `parts ≥ 1` ranges of minutes.
    fn write(self, parts: usize) -> Trace {
        assert!(parts > 0, "a day is written in at least one part");
        let steps: Vec<u64> = (1..=STEP_TABLE).map(spacing_us).collect();

        // Part `p` ends at the first minute that starts at or after `p /
        // parts` of the day's invocations.
        let mut work = Vec::with_capacity(parts);
        let (mut from, mut at, mut part_len, mut widest) = (0, 0, 0, 0);
        for (minute, &n) in self.per_minute.iter().enumerate() {
            if at >= self.total * (work.len() + 1) / parts && work.len() + 1 < parts {
                work.push((from..minute, part_len, widest));
                (from, part_len, widest) = (minute, 0, 0);
            }
            at += n;
            part_len += n;
            widest = widest.max(n);
        }
        work.push((from..self.per_minute.len(), part_len, widest));

        // Every slot is overwritten by its part.
        let blank = Invocation {
            time: SimTime::ZERO,
            function: FunctionId::from_index(0),
        };
        let mut invocations = vec![blank; self.total];
        let mut keys = vec![0; work.iter().map(|&(_, _, widest)| widest).sum()];
        let (mut out_left, mut keys_left) = (&mut invocations[..], &mut keys[..]);
        let mut parts = Vec::with_capacity(work.len());
        for (minutes, len, widest) in work {
            let (out, out_rest) = out_left.split_at_mut(len);
            let (keys, keys_rest) = keys_left.split_at_mut(widest);
            parts.push(Part { minutes, out, keys });
            (out_left, keys_left) = (out_rest, keys_rest);
        }

        let (kept, steps) = (&self.kept[..], &steps[..]);
        let mut parts = parts.into_iter();
        let here = parts.next().expect("at least one part");
        std::thread::scope(|scope| {
            for part in parts {
                scope.spawn(move || part.write(kept, steps));
            }
            here.write(kept, steps);
        });

        Trace::from_sorted(self.registry, invocations)
    }
}

/// One range of minutes, its share of the day and room for the tail of
/// its largest minute.
struct Part<'a> {
    minutes: Range<usize>,
    out: &'a mut [Invocation],
    keys: &'a mut [u64],
}

impl Part<'_> {
    fn write(self, kept: &[(FunctionId, &[u32])], steps: &[u64]) {
        let Part { minutes, out, keys } = self;
        let mut at = 0;
        for minute in minutes {
            let start = minute as u64 * MINUTE_US;
            let time = SimTime::from_micros(start);
            let mut tail = 0;
            for &(function, counts) in kept {
                let count = counts.get(minute).copied().unwrap_or(0);
                // Most (function, minute) buckets are empty and which are
                // is unpredictable, so every function writes a head and
                // only a non-empty one moves past it; the next write to
                // that slot overwrites an empty one's.
                if let Some(slot) = out.get_mut(at) {
                    *slot = Invocation { time, function };
                }
                at += usize::from(count != 0);
                if count < 2 {
                    continue;
                }
                let later = count as usize - 1;
                let step = match steps.get(later) {
                    Some(&step) => step,
                    None => spacing_us(count),
                };
                if step == 0 {
                    out[at..at + later].fill(Invocation { time, function });
                    at += later;
                    continue;
                }
                // `step * i` stays below one minute, far below 2^53, so it
                // is exactly what `SimDuration::mul_f64(i)` gave before the
                // cap.
                let id = function.index() as u64;
                for (key, i) in keys[tail..tail + later].iter_mut().zip(1u64..) {
                    *key = ((step * i) << 32) | id;
                }
                tail += later;
            }
            let keys = &mut keys[..tail];
            keys.sort_unstable();
            for (slot, &key) in out[at..at + tail].iter_mut().zip(keys.iter()) {
                *slot = Invocation {
                    time: SimTime::from_micros(start + (key >> 32)),
                    function: FunctionId::from_index(key as u32),
                };
            }
            at += tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::azure::{AzureFunction, AzureFunctionKey, MINUTES_PER_DAY};
    use crate::synth::{generate, SynthConfig};
    use proptest::prelude::*;

    fn dataset_with(counts: &[(usize, u32)], avg: f64, max: f64) -> AzureDataset {
        let mut d = AzureDataset::new();
        let mut per_minute = vec![0u32; MINUTES_PER_DAY];
        for &(m, c) in counts {
            per_minute[m] = c;
        }
        d.functions.insert(
            AzureFunctionKey {
                app: "app".into(),
                func: "f".into(),
            },
            AzureFunction {
                per_minute,
                avg_duration_ms: avg,
                min_duration_ms: avg / 2.0,
                max_duration_ms: max,
            },
        );
        d.app_memory_mb.insert("app".into(), 400.0);
        d
    }

    /// The algorithm before the per-minute layout: push every function's
    /// whole day, then let `Trace::new` stable-sort it. The cap, which
    /// came later, is written out as the module docs state it.
    fn reference(dataset: &AzureDataset, options: &AdaptOptions) -> Trace {
        let app_sizes = dataset.app_sizes();
        let mut registry = FunctionRegistry::new();
        let mut invocations = Vec::new();

        for (key, func) in &dataset.functions {
            if func.total_invocations() < options.min_invocations {
                continue;
            }
            let app_mb = dataset.app_memory_mb.get(&key.app).copied().unwrap_or(0.0);
            let n_in_app = app_sizes.get(key.app.as_str()).copied().unwrap_or(1).max(1);
            let mem =
                MemMb::new(((app_mb / n_in_app as f64).round() as u64).max(options.min_mem_mb));
            let warm = SimDuration::from_secs_f64(func.avg_duration_ms / 1e3);
            let cold =
                SimDuration::from_secs_f64(func.max_duration_ms.max(func.avg_duration_ms) / 1e3);
            let id = registry
                .register(key.to_string(), mem, warm, cold)
                .expect("dataset keys are unique and memory is positive");

            for (minute, &count) in func.per_minute.iter().enumerate() {
                let minute_start = SimTime::from_mins(minute as u64);
                match count {
                    0 => {}
                    1 => invocations.push(Invocation {
                        time: minute_start,
                        function: id,
                    }),
                    k => {
                        // k invocations equally spaced throughout the minute.
                        let step = SimDuration::from_secs_f64(60.0 / k as f64)
                            .min(SimDuration::from_micros((MINUTE_US - 1) / u64::from(k - 1)));
                        for i in 0..k {
                            invocations.push(Invocation {
                                time: minute_start + step.mul_f64(i as f64),
                                function: id,
                            });
                        }
                    }
                }
            }
        }

        Trace::new(registry, invocations)
    }

    /// The parent's step for `k` invocations in a minute, uncapped.
    fn parent_step_us(k: u32) -> u64 {
        SimDuration::from_secs_f64(60.0 / k as f64).as_micros()
    }

    fn assert_same(a: &Trace, b: &Trace) {
        let (x, y) = (a.invocations(), b.invocations());
        if let Some(i) = (0..x.len().max(y.len())).find(|&i| x.get(i) != y.get(i)) {
            panic!(
                "{} vs {} invocations, first apart at {i}: {:?} vs {:?}",
                x.len(),
                y.len(),
                x.get(i),
                y.get(i)
            );
        }
        let specs = |t: &Trace| t.registry().iter().cloned().collect::<Vec<_>>();
        assert_eq!(specs(a), specs(b));
    }

    /// FNV-1a over every spec's name, memory and times, then every
    /// invocation's time and function.
    fn digest(t: &Trace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for spec in t.registry().iter() {
            eat(spec.name().as_bytes());
            eat(&spec.mem().as_mb().to_le_bytes());
            eat(&spec.warm_time().as_micros().to_le_bytes());
            eat(&spec.cold_time().as_micros().to_le_bytes());
        }
        for inv in t.invocations() {
            eat(&inv.time.as_micros().to_le_bytes());
            eat(&(inv.function.index() as u64).to_le_bytes());
        }
        h
    }

    /// Captured from the parent's algorithm on the same dataset (3,397,312
    /// invocations of 1,000 functions): every result replays a trace this
    /// step produced, so the constant is never re-captured to make a
    /// change pass.
    #[test]
    fn default_day_is_pinned() {
        let t = adapt(&generate(&SynthConfig::default()), &AdaptOptions::default());
        assert_eq!(t.len(), 3_397_312);
        assert_eq!(digest(&t), 0xec41_abe9_baee_af8b);
    }

    /// The `sim_sweep` harness's first day: 400 functions in 130 apps,
    /// Zipf 0.8, 20/min at the head and a diurnal amplitude of 0.3, so
    /// most buckets hold one invocation. Captured like the default day.
    #[test]
    fn sweep_day_is_pinned() {
        let config = SynthConfig {
            num_functions: 400,
            num_apps: 130,
            max_rate_per_min: 20.0,
            zipf_exponent: 0.8,
            diurnal_amplitude: 0.3,
            seed: 0xFAA5_0001,
            ..SynthConfig::default()
        };
        let t = adapt(&generate(&config), &AdaptOptions::default());
        assert_eq!(t.len(), 336_567);
        assert_eq!(t.num_functions(), 400);
        assert_eq!(digest(&t), 0x9b3b_bb33_2995_b128);
    }

    /// What one function's minute may carry: nothing, counts inside and
    /// past the step table, and the first count the cap binds.
    const COUNTS: [u32; 6] = [0, 1, 2, 7, 1000, 10_988];
    const LENGTHS: [usize; 5] = [0, 1, 3, MINUTES_PER_DAY, 2000];
    const MIN_INVOCATIONS: [u64; 6] = [0, 1, 2, 3, 50, u64::MAX];

    /// A day of `len` minutes with `density` in 1..=4: most minutes are
    /// empty, a few carry 1, 2 or 7, one in 400 carries 1000 or, one in
    /// 4000, 10,988.
    fn minutes(seed: u64, len: usize, density: u64) -> Vec<u32> {
        let mut rng = faascache_util::rng::Pcg64::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.next_below(4000) {
                0 => COUNTS[5],
                r if r < 10 => COUNTS[4],
                r if r < 10 + 200 * density => COUNTS[1 + (r % 3) as usize],
                _ => COUNTS[0],
            })
            .collect()
    }

    /// A dataset whose functions span at most `LENGTHS[day]` minutes.
    fn random_dataset(
        functions: &[(u64, usize, u64, usize)],
        apps: usize,
        day: usize,
    ) -> AzureDataset {
        let mut d = AzureDataset::new();
        for (n, &(seed, len, density, app)) in functions.iter().enumerate() {
            let app = format!("app{}", app % apps);
            d.app_memory_mb.insert(app.clone(), 64.0 * (1 + n) as f64);
            d.functions.insert(
                AzureFunctionKey {
                    app,
                    func: format!("f{n}"),
                },
                AzureFunction {
                    per_minute: minutes(seed, LENGTHS[len.min(day)], density),
                    avg_duration_ms: 10.0 * (1 + n) as f64,
                    min_duration_ms: 1.0,
                    max_duration_ms: 25.0 * (1 + n) as f64,
                },
            );
        }
        d
    }

    /// Cases of the reference property: `FAASCACHE_ADAPT_CASES`, or 48.
    fn adapt_cases() -> u32 {
        match std::env::var("FAASCACHE_ADAPT_CASES") {
            Ok(v) => v
                .parse()
                .expect("FAASCACHE_ADAPT_CASES must be a case count"),
            Err(_) => 48,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(adapt_cases()))]

        /// The head/tail layout against the push-then-sort reference, on
        /// datasets with empty and filtered-out functions, days of 0, 1,
        /// 3, 1440 and 2000 minutes and many functions invoked at one
        /// instant; with and without a horizon; and written in every part
        /// count from 1 to 8.
        #[test]
        fn matches_the_push_then_sort_reference(
            functions in prop::collection::vec((any::<u64>(), 0usize..5, 1u64..=4, 0usize..4), 0..7),
            apps in 1usize..4,
            day in 0usize..5,
            min in 0usize..6,
            horizon in 0u64..2100,
        ) {
            let d = random_dataset(&functions, apps, day);
            let options = AdaptOptions {
                min_invocations: MIN_INVOCATIONS[min],
                ..AdaptOptions::default()
            };
            let full = reference(&d, &options);
            assert_same(&adapt(&d, &options), &full);
            for parts in 1..=8 {
                assert_same(&adapt_in_parts(&d, &options, parts), &full);
            }
            let cut = AdaptOptions { horizon_mins: Some(horizon), ..options };
            assert_same(&adapt(&d, &cut), &full.truncated(SimTime::from_mins(horizon)));
        }
    }

    #[test]
    fn equal_times_keep_function_order() {
        let mut d = dataset_with(&[(0, 2), (1, 1)], 100.0, 500.0);
        let mut per_minute = vec![0u32; MINUTES_PER_DAY];
        per_minute[0] = 4;
        per_minute[1] = 1;
        d.functions.insert(
            AzureFunctionKey {
                app: "app".into(),
                func: "e".into(),
            },
            AzureFunction {
                per_minute,
                avg_duration_ms: 10.0,
                min_duration_ms: 5.0,
                max_duration_ms: 20.0,
            },
        );
        let t = adapt(&d, &AdaptOptions::default());
        let seen: Vec<(u64, usize)> = t
            .invocations()
            .iter()
            .map(|i| (i.time.as_micros(), i.function.index()))
            .collect();
        // "app/e" registers first (id 0), "app/f" second (id 1).
        assert_eq!(
            seen,
            vec![
                (0, 0),
                (0, 1),
                (15_000_000, 0),
                (30_000_000, 0),
                (30_000_000, 1),
                (45_000_000, 0),
                (60_000_000, 0),
                (60_000_000, 1),
            ]
        );
        assert_same(&t, &reference(&d, &AdaptOptions::default()));
    }

    #[test]
    fn horizon_equals_truncating_the_full_day() {
        let d = generate(&SynthConfig {
            num_functions: 60,
            num_apps: 20,
            max_rate_per_min: 30.0,
            ..SynthConfig::default()
        });
        let full = adapt(&d, &AdaptOptions::default());
        for h in [0, 1, 60, 1439, 1440] {
            let cut = adapt(
                &d,
                &AdaptOptions {
                    horizon_mins: Some(h),
                    ..AdaptOptions::default()
                },
            );
            assert_same(&cut, &full.truncated(SimTime::from_mins(h)));
            assert_eq!(cut.num_functions(), full.num_functions(), "h = {h}");
        }
    }

    /// Offsets of the `k` invocations one minute expands to.
    fn offsets(k: u32) -> Vec<u64> {
        let d = dataset_with(&[(3, k)], 100.0, 500.0);
        let t = adapt(&d, &AdaptOptions::default());
        let start = SimTime::from_mins(3).as_micros();
        t.invocations()
            .iter()
            .map(|i| i.time.as_micros() - start)
            .collect()
    }

    fn assert_spaced(k: u32, step: u64) {
        let got = offsets(k);
        assert_eq!(got.len(), k as usize);
        assert!(got.iter().enumerate().all(|(i, &o)| o == step * i as u64));
        assert!(*got.last().unwrap() < MINUTE_US, "k = {k} left its minute");
    }

    #[test]
    fn the_last_count_that_fits_keeps_its_offsets() {
        assert_eq!(parent_step_us(10_987), 5_461);
        assert_spaced(10_987, 5_461);
    }

    #[test]
    fn the_first_spilling_count_is_capped_inside_the_minute() {
        // Uncapped, the last of 10,988 lands at 60,000,007 µs.
        assert_eq!(parent_step_us(10_988) * 10_987, 60_000_007);
        assert_spaced(10_988, 5_460);
    }

    #[test]
    fn the_largest_spilling_count_below_200k_is_capped() {
        let spills = |k: u32| parent_step_us(k) * u64::from(k - 1) >= MINUTE_US;
        let largest = (2..200_000u32).rev().find(|&k| spills(k)).unwrap();
        assert_eq!(largest, 199_667);
        assert_spaced(largest, (MINUTE_US - 1) / u64::from(largest - 1));
    }

    #[test]
    fn the_cap_binds_only_where_the_step_spilled() {
        for k in 1..200_000u32 {
            let spilled = parent_step_us(k) * u64::from(k.saturating_sub(1)) >= MINUTE_US;
            assert_eq!(spacing_us(k) != parent_step_us(k), spilled, "k = {k}");
        }
    }

    /// A bucket joins its minute's head whole only past this count.
    #[test]
    fn the_step_is_0_only_past_60_million_in_a_minute() {
        assert_eq!(spacing_us(60_000_000), 1);
        assert_eq!(spacing_us(60_000_001), 0);
        assert_eq!(spacing_us(u32::MAX), 0);
    }

    #[test]
    fn single_invocation_at_minute_start() {
        let d = dataset_with(&[(2, 1), (5, 1)], 100.0, 500.0);
        let t = adapt(&d, &AdaptOptions::default());
        let times: Vec<u64> = t.invocations().iter().map(|i| i.time.as_micros()).collect();
        assert_eq!(times, vec![2 * 60_000_000, 5 * 60_000_000]);
    }

    #[test]
    fn multiple_invocations_equally_spaced() {
        let d = dataset_with(&[(0, 4)], 100.0, 500.0);
        let t = adapt(&d, &AdaptOptions::default());
        let times: Vec<f64> = t
            .invocations()
            .iter()
            .map(|i| i.time.as_secs_f64())
            .collect();
        assert_eq!(times, vec![0.0, 15.0, 30.0, 45.0]);
    }

    #[test]
    fn rare_functions_dropped() {
        let d = dataset_with(&[(0, 1)], 100.0, 500.0);
        let t = adapt(&d, &AdaptOptions::default());
        assert!(t.is_empty());
        assert_eq!(t.num_functions(), 0);
        // Keeping them when the threshold allows.
        let t = adapt(
            &d,
            &AdaptOptions {
                min_invocations: 1,
                ..AdaptOptions::default()
            },
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn memory_split_between_app_functions() {
        let mut d = dataset_with(&[(0, 2)], 100.0, 500.0);
        // Second function in the same app.
        let mut per_minute = vec![0u32; MINUTES_PER_DAY];
        per_minute[1] = 2;
        d.functions.insert(
            AzureFunctionKey {
                app: "app".into(),
                func: "g".into(),
            },
            AzureFunction {
                per_minute,
                avg_duration_ms: 50.0,
                min_duration_ms: 10.0,
                max_duration_ms: 80.0,
            },
        );
        let t = adapt(&d, &AdaptOptions::default());
        assert_eq!(t.num_functions(), 2);
        for spec in t.registry().iter() {
            assert_eq!(
                spec.mem(),
                MemMb::new(200),
                "400MB split across 2 functions"
            );
        }
    }

    #[test]
    fn warm_is_avg_cold_is_max() {
        let d = dataset_with(&[(0, 2)], 250.0, 1500.0);
        let t = adapt(&d, &AdaptOptions::default());
        let spec = t.registry().iter().next().unwrap();
        assert_eq!(spec.warm_time(), SimDuration::from_millis(250));
        assert_eq!(spec.cold_time(), SimDuration::from_millis(1500));
        assert_eq!(spec.init_overhead(), SimDuration::from_millis(1250));
    }

    #[test]
    fn max_below_avg_is_clamped() {
        // Degenerate data: max < avg must not produce negative overhead.
        let d = dataset_with(&[(0, 2)], 500.0, 100.0);
        let t = adapt(&d, &AdaptOptions::default());
        let spec = t.registry().iter().next().unwrap();
        assert_eq!(spec.init_overhead(), SimDuration::ZERO);
    }

    #[test]
    fn zero_memory_app_gets_floor() {
        let mut d = dataset_with(&[(0, 2)], 100.0, 200.0);
        d.app_memory_mb.insert("app".into(), 0.0);
        let t = adapt(&d, &AdaptOptions::default());
        assert_eq!(t.registry().iter().next().unwrap().mem(), MemMb::new(1));
    }
}
