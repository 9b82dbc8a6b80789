//! The FunctionBench-style application profiles of Table 1.
//!
//! | Application          | Mem    | Run time | Init time |
//! |----------------------|--------|----------|-----------|
//! | ML Inference (CNN)   | 512 MB | 6.5 s    | 4.5 s     |
//! | Video Encoding       | 500 MB | 56 s     | 3 s       |
//! | Matrix Multiply      | 256 MB | 2.5 s    | 2.2 s     |
//! | Disk-bench (dd)      | 256 MB | 2.2 s    | 1.8 s     |
//! | Web-serving          | 64 MB  | 2.4 s    | 2 s       |
//! | Floating Point       | 128 MB | 2 s      | 1.7 s     |
//!
//! "Run time" is the total (cold) running time and "Init time" the part
//! attributable to initialization — the paper notes initialization can be
//! up to 80 % of the total. Hence `cold = run`, `warm = run − init`.

use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::CoreError;
use faascache_util::{MemMb, SimDuration};

/// A benchmark application profile (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name.
    pub name: &'static str,
    /// Container memory footprint.
    pub mem: MemMb,
    /// Total (cold) running time.
    pub run_time: SimDuration,
    /// Initialization time contained within `run_time`.
    pub init_time: SimDuration,
}

impl AppProfile {
    /// Warm execution time (`run − init`).
    pub fn warm_time(&self) -> SimDuration {
        self.run_time - self.init_time
    }

    /// Cold execution time (the full run time).
    pub fn cold_time(&self) -> SimDuration {
        self.run_time
    }

    /// Initialization share of the total running time, in percent.
    pub fn init_fraction_pct(&self) -> f64 {
        if self.run_time == SimDuration::ZERO {
            0.0
        } else {
            100.0 * self.init_time.as_secs_f64() / self.run_time.as_secs_f64()
        }
    }

    /// Registers this profile into a registry.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from the registry (e.g. duplicate names).
    pub fn register(&self, registry: &mut FunctionRegistry) -> Result<FunctionId, CoreError> {
        registry.register(self.name, self.mem, self.warm_time(), self.cold_time())
    }
}

const fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

const fn millis(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

/// ML inference (CNN image classification).
pub const ML_INFERENCE: AppProfile = AppProfile {
    name: "ml-inference-cnn",
    mem: MemMb::new(512),
    run_time: millis(6500),
    init_time: millis(4500),
};

/// Video encoding.
pub const VIDEO_ENCODING: AppProfile = AppProfile {
    name: "video-encoding",
    mem: MemMb::new(500),
    run_time: secs(56),
    init_time: secs(3),
};

/// Dense matrix multiplication.
pub const MATRIX_MULTIPLY: AppProfile = AppProfile {
    name: "matrix-multiply",
    mem: MemMb::new(256),
    run_time: millis(2500),
    init_time: millis(2200),
};

/// Disk benchmark (`dd`).
pub const DISK_BENCH: AppProfile = AppProfile {
    name: "disk-bench-dd",
    mem: MemMb::new(256),
    run_time: millis(2200),
    init_time: millis(1800),
};

/// Web serving / event handling.
pub const WEB_SERVING: AppProfile = AppProfile {
    name: "web-serving",
    mem: MemMb::new(64),
    run_time: millis(2400),
    init_time: millis(2000),
};

/// Floating-point compute kernel.
pub const FLOATING_POINT: AppProfile = AppProfile {
    name: "floating-point",
    mem: MemMb::new(128),
    run_time: millis(2000),
    init_time: millis(1700),
};

/// All Table-1 applications, in the table's order.
pub fn table1_apps() -> Vec<AppProfile> {
    vec![
        ML_INFERENCE,
        VIDEO_ENCODING,
        MATRIX_MULTIPLY,
        DISK_BENCH,
        WEB_SERVING,
        FLOATING_POINT,
    ]
}

/// Registers all Table-1 applications, returning their ids in table order.
///
/// # Errors
///
/// Propagates [`CoreError`] (e.g. if called twice on the same registry).
pub fn register_table1(registry: &mut FunctionRegistry) -> Result<Vec<FunctionId>, CoreError> {
    table1_apps().iter().map(|p| p.register(registry)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let apps = table1_apps();
        assert_eq!(apps.len(), 6);
        assert_eq!(ML_INFERENCE.mem, MemMb::new(512));
        assert_eq!(ML_INFERENCE.run_time, SimDuration::from_millis(6500));
        assert_eq!(ML_INFERENCE.init_time, SimDuration::from_millis(4500));
        assert_eq!(ML_INFERENCE.warm_time(), SimDuration::from_secs(2));
        assert_eq!(VIDEO_ENCODING.warm_time(), SimDuration::from_secs(53));
    }

    #[test]
    fn init_can_dominate_runtime() {
        // The paper: "the initialization overhead can be as much as 80% of
        // the total running time" — web serving is the 83% example.
        assert!(WEB_SERVING.init_fraction_pct() > 80.0);
        assert!(MATRIX_MULTIPLY.init_fraction_pct() > 80.0);
        // Video encoding is the counterexample: long run, small init.
        assert!(VIDEO_ENCODING.init_fraction_pct() < 10.0);
    }

    #[test]
    fn registration_round_trip() {
        let mut reg = FunctionRegistry::new();
        let ids = register_table1(&mut reg).unwrap();
        assert_eq!(ids.len(), 6);
        let cnn = reg.spec(ids[0]);
        assert_eq!(cnn.name(), "ml-inference-cnn");
        assert_eq!(cnn.init_overhead(), SimDuration::from_millis(4500));
        // Registering twice collides.
        assert!(register_table1(&mut reg).is_err());
    }

    #[test]
    fn names_are_unique() {
        let apps = table1_apps();
        let mut names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
