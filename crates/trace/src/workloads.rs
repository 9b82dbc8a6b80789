//! Workload builders for the platform experiments (Figures 7 and 8).
//!
//! The paper's OpenWhisk evaluation drives FaasCache with Table-1
//! applications under three skew patterns: **skewed frequency** (one
//! function invoked much more often than the rest), a **cyclic** access
//! pattern, and **skewed size** (two size classes with different
//! frequencies). The Figure-8 workload is the skewed-frequency instance:
//! CNN, disk-bench and web-serving arrive every 1500 ms, floating-point
//! every 400 ms.

use crate::apps::{self, AppProfile};
use crate::record::{Invocation, Trace};
use faascache_core::function::FunctionRegistry;
use faascache_core::CoreError;
use faascache_util::{SimDuration, SimTime};

/// A function driven at a fixed inter-arrival time.
#[derive(Debug, Clone)]
pub struct TimedApp {
    /// The application profile.
    pub profile: AppProfile,
    /// Fixed inter-arrival time of its invocations.
    pub iat: SimDuration,
}

/// Builds a trace where each app arrives independently at its fixed IAT,
/// starting at its IAT (not at zero, so functions interleave).
///
/// # Errors
///
/// Propagates registry errors (duplicate app names).
pub fn fixed_iat_trace(apps: &[TimedApp], duration: SimDuration) -> Result<Trace, CoreError> {
    let rows = apps
        .iter()
        .map(|timed| (timed.profile.name, &timed.profile, timed.iat))
        .collect();
    named_fixed_iat_trace(rows, duration)
}

/// [`fixed_iat_trace`] over `(name, profile, iat)` rows, each registered
/// under its own name, in order.
fn named_fixed_iat_trace<N: Into<String>>(
    rows: Vec<(N, &AppProfile, SimDuration)>,
    duration: SimDuration,
) -> Result<Trace, CoreError> {
    let mut registry = FunctionRegistry::new();
    let mut invocations = Vec::new();
    let end = SimTime::ZERO + duration;
    let n = rows.len();
    for (i, (name, profile, iat)) in rows.into_iter().enumerate() {
        let id = profile.register_as(name, &mut registry)?;
        assert!(
            iat > SimDuration::ZERO,
            "inter-arrival time must be positive"
        );
        // Offset starts slightly so simultaneous arrivals don't all collide.
        let mut t = SimTime::ZERO + iat.mul_f64((i as f64 + 1.0) / (n + 1) as f64);
        while t <= end {
            invocations.push(Invocation {
                time: t,
                function: id,
            });
            t += iat;
        }
    }
    Ok(Trace::new(registry, invocations))
}

/// The Figure-8 skewed-frequency table: CNN, disk-bench and web-serving
/// at a 1500 ms IAT; floating-point at 400 ms.
const SKEWED_FREQUENCY: [TimedApp; 4] = [
    TimedApp {
        profile: apps::ML_INFERENCE,
        iat: SimDuration::from_millis(1500),
    },
    TimedApp {
        profile: apps::DISK_BENCH,
        iat: SimDuration::from_millis(1500),
    },
    TimedApp {
        profile: apps::WEB_SERVING,
        iat: SimDuration::from_millis(1500),
    },
    TimedApp {
        profile: apps::FLOATING_POINT,
        iat: SimDuration::from_millis(400),
    },
];

/// The skewed-size table: web-serving and floating-point every 500 ms,
/// CNN every 5 s, video encoding every 8 s.
const SKEWED_SIZE: [TimedApp; 4] = [
    TimedApp {
        profile: apps::WEB_SERVING,
        iat: SimDuration::from_millis(500),
    },
    TimedApp {
        profile: apps::FLOATING_POINT,
        iat: SimDuration::from_millis(500),
    },
    TimedApp {
        profile: apps::ML_INFERENCE,
        iat: SimDuration::from_millis(5000),
    },
    TimedApp {
        profile: apps::VIDEO_ENCODING,
        iat: SimDuration::from_millis(8000),
    },
];

/// The Figure-8 skewed-frequency workload: CNN, disk-bench and web-serving
/// at a 1500 ms IAT; floating-point at 400 ms.
///
/// # Errors
///
/// Propagates registry errors.
pub fn skewed_frequency(duration: SimDuration) -> Result<Trace, CoreError> {
    fixed_iat_trace(&SKEWED_FREQUENCY, duration)
}

/// A cyclic access pattern: the apps are invoked in strict rotation
/// (A, B, C, …, A, B, C, …) with a fixed gap between consecutive
/// invocations — the classic sequential-scan adversary for LRU.
///
/// # Errors
///
/// Propagates registry errors.
pub fn cyclic(
    profiles: &[AppProfile],
    gap: SimDuration,
    duration: SimDuration,
) -> Result<Trace, CoreError> {
    let rows = profiles.iter().map(|p| (p.name, p)).collect();
    named_cyclic(rows, gap, duration)
}

/// [`cyclic`] over `(name, profile)` rows, each registered under its own
/// name, in order.
fn named_cyclic<N: Into<String>>(
    rows: Vec<(N, &AppProfile)>,
    gap: SimDuration,
    duration: SimDuration,
) -> Result<Trace, CoreError> {
    assert!(gap > SimDuration::ZERO, "gap must be positive");
    let mut registry = FunctionRegistry::new();
    let ids = rows
        .into_iter()
        .map(|(name, p)| p.register_as(name, &mut registry))
        .collect::<Result<Vec<_>, _>>()?;
    let mut invocations = Vec::new();
    let end = SimTime::ZERO + duration;
    let mut t = SimTime::ZERO;
    let mut i = 0usize;
    while t <= end {
        invocations.push(Invocation {
            time: t,
            function: ids[i % ids.len()],
        });
        i += 1;
        t += gap;
    }
    Ok(Trace::new(registry, invocations))
}

/// Scales a fixed-IAT workload out to `clones` copies of each app (like
/// the artifact's LookBusy litmus tests, which deploy many actions built
/// from the same images). Clone `i` of an app is named `<app>-<i>` and
/// runs at a slightly longer IAT than clone `i−1` so the copies
/// decorrelate; each clone is its own function (containers are never
/// shared across functions).
///
/// # Errors
///
/// Propagates registry errors.
///
/// # Panics
///
/// Panics if `clones == 0`.
pub fn cloned_fixed_iat_trace(
    apps: &[TimedApp],
    clones: usize,
    duration: SimDuration,
) -> Result<Trace, CoreError> {
    assert!(clones > 0, "need at least one clone");
    // Per-clone IAT scales with the clone count so the *aggregate* arrival
    // rate of each app family stays at the configured IAT; a small skew
    // decorrelates the copies.
    let rows = apps
        .iter()
        .flat_map(|timed| {
            (0..clones).map(move |i| {
                let iat = timed.iat.mul_f64(clones as f64 * (1.0 + 0.07 * i as f64));
                (format!("{}-{i}", timed.profile.name), &timed.profile, iat)
            })
        })
        .collect();
    named_fixed_iat_trace(rows, duration)
}

/// The Figure-7/8 skewed-frequency workload scaled to `clones` copies of
/// each Table-1 app (see [`cloned_fixed_iat_trace`]).
///
/// # Errors
///
/// Propagates registry errors.
pub fn skewed_frequency_clones(duration: SimDuration, clones: usize) -> Result<Trace, CoreError> {
    cloned_fixed_iat_trace(&SKEWED_FREQUENCY, clones, duration)
}

/// The skewed-size workload scaled to `clones` copies of each app.
///
/// # Errors
///
/// Propagates registry errors.
pub fn skewed_size_clones(duration: SimDuration, clones: usize) -> Result<Trace, CoreError> {
    cloned_fixed_iat_trace(&SKEWED_SIZE, clones, duration)
}

/// A cyclic rotation over `clones` copies of every Table-1 app, clone `i`
/// of an app named `<app>-<i>`.
///
/// # Errors
///
/// Propagates registry errors.
pub fn cyclic_clones(duration: SimDuration, clones: usize) -> Result<Trace, CoreError> {
    assert!(clones > 0, "need at least one clone");
    let profiles = apps::table1_apps();
    let rows = profiles
        .iter()
        .flat_map(|p| (0..clones).map(move |i| (format!("{}-{i}", p.name), p)))
        .collect();
    named_cyclic(rows, SimDuration::from_millis(250), duration)
}

/// Skewed size: small functions (web-serving, floating-point) arrive
/// frequently; large functions (CNN, video encoding) arrive rarely.
///
/// # Errors
///
/// Propagates registry errors.
pub fn skewed_size(duration: SimDuration) -> Result<Trace, CoreError> {
    fixed_iat_trace(&SKEWED_SIZE, duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_frequency_rates() {
        let t = skewed_frequency(SimDuration::from_mins(10)).unwrap();
        let counts = t.invocation_counts();
        let reg = t.registry();
        let fp = reg.find("floating-point").unwrap().id();
        let cnn = reg.find("ml-inference-cnn").unwrap().id();
        // 400 ms vs 1500 ms IAT → ~3.75× more floating-point invocations.
        let ratio = counts[fp.index()] as f64 / counts[cnn.index()] as f64;
        assert!((ratio - 3.75).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn cyclic_strict_rotation() {
        let t = cyclic(
            &apps::table1_apps(),
            SimDuration::from_millis(500),
            SimDuration::from_secs(30),
        )
        .unwrap();
        let n = t.registry().len();
        let seq: Vec<usize> = t.invocations().iter().map(|i| i.function.index()).collect();
        for (i, &f) in seq.iter().enumerate() {
            assert_eq!(f, i % n, "rotation broken at {i}");
        }
    }

    #[test]
    fn skewed_size_small_functions_dominate() {
        let t = skewed_size(SimDuration::from_mins(5)).unwrap();
        let counts = t.invocation_counts();
        let reg = t.registry();
        let web = counts[reg.find("web-serving").unwrap().id().index()];
        let video = counts[reg.find("video-encoding").unwrap().id().index()];
        assert!(web > 10 * video, "web {web} vs video {video}");
    }

    #[test]
    fn invocations_fit_duration() {
        let d = SimDuration::from_secs(60);
        for t in [
            skewed_frequency(d).unwrap(),
            cyclic(&apps::table1_apps(), SimDuration::from_millis(500), d).unwrap(),
            skewed_size(d).unwrap(),
        ] {
            assert!(!t.is_empty());
            assert!(t.end_time() <= SimTime::ZERO + d);
        }
    }

    #[test]
    fn fixed_iat_offsets_interleave() {
        let t = skewed_frequency(SimDuration::from_secs(10)).unwrap();
        // No two invocations of *different* functions at the same instant
        // in the first few arrivals (offsets spread them).
        let first: Vec<_> = t.invocations().iter().take(4).collect();
        for w in first.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(first.iter().any(|i| i.time > SimTime::ZERO));
    }

    #[test]
    fn clones_multiply_functions_not_aggregate_rate() {
        let d = SimDuration::from_mins(10);
        let base = skewed_frequency(d).unwrap();
        let cloned = skewed_frequency_clones(d, 4).unwrap();
        assert_eq!(cloned.num_functions(), base.num_functions() * 4);
        // Aggregate arrival rate stays in the same ballpark (clone IATs
        // scale with the clone count, modulo the decorrelation skew).
        let ratio = cloned.len() as f64 / base.len() as f64;
        assert!((0.75..=1.1).contains(&ratio), "rate ratio {ratio}");
    }

    #[test]
    fn clone_names_are_unique_per_family() {
        let t = skewed_size_clones(SimDuration::from_mins(2), 3).unwrap();
        let mut names: Vec<&str> = t.registry().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "4 apps x 3 clones, all distinct");
        assert!(names.iter().any(|n| n.ends_with("-0")));
        assert!(names.iter().any(|n| n.ends_with("-2")));
    }

    #[test]
    fn cyclic_clones_rotate_over_all_copies() {
        let t = cyclic_clones(SimDuration::from_mins(2), 2).unwrap();
        assert_eq!(t.num_functions(), 12);
        let counts = t.invocation_counts();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "rotation visits all clones evenly");
    }

    #[test]
    #[should_panic(expected = "at least one clone")]
    fn zero_clones_panics() {
        let _ = skewed_frequency_clones(SimDuration::from_secs(1), 0);
    }

    #[test]
    #[should_panic(expected = "gap must be positive")]
    fn cyclic_zero_gap_panics() {
        let _ = cyclic(
            &apps::table1_apps(),
            SimDuration::ZERO,
            SimDuration::from_secs(1),
        );
    }
}
