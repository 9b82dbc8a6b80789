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
//! One pass over the kept functions counts each minute's invocations, and
//! prefix sums give every minute its slice of one exactly-sized vector.
//! A second pass copies each function's minutes into those slices,
//! function by function, and each slice (a few hundred invocations) is
//! then stably sorted by time. A minute's invocations never leave it (see
//! the cap below), so the slices in minute order are the day in time
//! order and [`Trace::new`]'s own sort finds one sorted run.
//!
//! **Ties.** Invocations at the same instant come out in the order their
//! functions were registered (the dataset's key order): the order a
//! stable sort of the whole day, pushed function by function, gives.
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

/// Microseconds in one minute bucket.
const MINUTE_US: u64 = 60_000_000;

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
    let app_sizes = dataset.app_sizes();
    let horizon = options
        .horizon_mins
        .map_or(usize::MAX, |h| usize::try_from(h).unwrap_or(usize::MAX));
    let mut registry = FunctionRegistry::new();
    // Each kept function with the minutes it expands.
    let mut kept: Vec<(FunctionId, &[u32])> = Vec::new();
    // Invocations per minute; after the prefix sum, where the minute's
    // next invocation goes.
    let mut cursor: Vec<usize> = Vec::new();

    for (key, func) in &dataset.functions {
        if func.total_invocations() < options.min_invocations {
            continue;
        }
        let app_mb = dataset.app_memory_mb.get(&key.app).copied().unwrap_or(0.0);
        let n_in_app = app_sizes.get(key.app.as_str()).copied().unwrap_or(1).max(1);
        let mem = MemMb::new(((app_mb / n_in_app as f64).round() as u64).max(options.min_mem_mb));
        let warm = SimDuration::from_secs_f64(func.avg_duration_ms / 1e3);
        let cold = SimDuration::from_secs_f64(func.max_duration_ms.max(func.avg_duration_ms) / 1e3);
        let id = registry
            .register(key.to_string(), mem, warm, cold)
            .expect("dataset keys are unique and memory is positive");

        let minutes = &func.per_minute[..func.per_minute.len().min(horizon)];
        if cursor.len() < minutes.len() {
            cursor.resize(minutes.len(), 0);
        }
        for (n, &count) in cursor.iter_mut().zip(minutes) {
            *n += count as usize;
        }
        kept.push((id, minutes));
    }

    let mut total = 0;
    for next in &mut cursor {
        let count = *next;
        *next = total;
        total += count;
    }
    // Every slot is overwritten below.
    let blank = Invocation {
        time: SimTime::ZERO,
        function: FunctionId::from_index(0),
    };
    let mut invocations = vec![blank; total];
    for &(function, minutes) in &kept {
        for ((minute, &count), next) in minutes.iter().enumerate().zip(&mut cursor) {
            if count == 0 {
                continue;
            }
            let start = minute as u64 * MINUTE_US;
            let step = spacing_us(count);
            let slice = &mut invocations[*next..*next + count as usize];
            // `step * i` stays below one minute, far below 2^53, so it is
            // exactly what `SimDuration::mul_f64(i)` gave before the cap.
            for (i, slot) in slice.iter_mut().enumerate() {
                *slot = Invocation {
                    time: SimTime::from_micros(start + step * i as u64),
                    function,
                };
            }
            *next += count as usize;
        }
    }
    // Each minute's slice ends where its cursor stopped.
    let mut from = 0;
    for &end in &cursor {
        invocations[from..end].sort_by_key(|inv| inv.time);
        from = end;
    }

    Trace::new(registry, invocations)
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

    /// The parent's algorithm, verbatim: push every function's whole day,
    /// then let `Trace::new` stable-sort it.
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
                        let step = SimDuration::from_secs_f64(60.0 / k as f64);
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
        assert_eq!(a.invocations(), b.invocations());
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

    /// What one function's minute may carry.
    const COUNTS: [u32; 5] = [0, 1, 2, 7, 1000];
    const LENGTHS: [usize; 4] = [0, 3, MINUTES_PER_DAY, 2000];
    const MIN_INVOCATIONS: [u64; 6] = [0, 1, 2, 3, 50, u64::MAX];

    /// A day of `len` minutes with `density` in 1..=4: most minutes are
    /// empty, a few carry 1, 2 or 7, fewer still 1000.
    fn minutes(seed: u64, len: usize, density: u64) -> Vec<u32> {
        let mut rng = faascache_util::rng::Pcg64::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.next_below(400) {
                0 => COUNTS[4],
                r if r < 1 + 20 * density => COUNTS[1 + (r % 3) as usize],
                _ => COUNTS[0],
            })
            .collect()
    }

    fn random_dataset(functions: &[(u64, usize, u64, usize)], apps: usize) -> AzureDataset {
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
                    per_minute: minutes(seed, LENGTHS[len], density),
                    avg_duration_ms: 10.0 * (1 + n) as f64,
                    min_duration_ms: 1.0,
                    max_duration_ms: 25.0 * (1 + n) as f64,
                },
            );
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The per-minute layout against the parent's push-then-sort, on
        /// datasets with empty and filtered-out functions, days of 0, 3,
        /// 1440 and 2000 minutes and many functions invoked at one
        /// instant; with and without a horizon.
        #[test]
        fn matches_the_push_then_sort_reference(
            functions in prop::collection::vec((any::<u64>(), 0usize..4, 1u64..=4, 0usize..4), 0..7),
            apps in 1usize..4,
            min in 0usize..6,
            horizon in 0u64..2100,
        ) {
            let d = random_dataset(&functions, apps);
            let options = AdaptOptions {
                min_invocations: MIN_INVOCATIONS[min],
                ..AdaptOptions::default()
            };
            let full = reference(&d, &options);
            assert_same(&adapt(&d, &options), &full);
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
