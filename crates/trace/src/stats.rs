//! Trace-level statistics (Table 2 of the paper).

use crate::record::Trace;

/// Size and inter-arrival statistics of a trace, as reported in Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of invocations.
    pub num_invocations: u64,
    /// Number of distinct functions.
    pub num_functions: u64,
    /// Trace span in seconds.
    pub duration_secs: f64,
    /// Mean requests per second over the span.
    pub reqs_per_sec: f64,
    /// Mean inter-arrival time across all invocations, in milliseconds.
    pub avg_iat_ms: f64,
}

impl TraceStats {
    /// Computes the statistics of a trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use faascache_core::function::FunctionRegistry;
    /// use faascache_trace::record::{Invocation, Trace};
    /// use faascache_trace::stats::TraceStats;
    /// use faascache_util::{MemMb, SimDuration, SimTime};
    ///
    /// let mut reg = FunctionRegistry::new();
    /// let f = reg.register("f", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)?;
    /// let trace = Trace::new(reg, (0..11).map(|i| Invocation {
    ///     time: SimTime::from_secs(i), function: f,
    /// }).collect());
    /// let stats = TraceStats::compute(&trace);
    /// assert_eq!(stats.num_invocations, 11);
    /// assert!((stats.reqs_per_sec - 1.1).abs() < 1e-9);
    /// assert!((stats.avg_iat_ms - 1000.0).abs() < 1e-9);
    /// # Ok::<(), faascache_core::CoreError>(())
    /// ```
    pub fn compute(trace: &Trace) -> TraceStats {
        let n = trace.len() as u64;
        let duration = trace.duration().as_secs_f64();
        let reqs_per_sec = if duration > 0.0 {
            n as f64 / duration
        } else {
            0.0
        };
        let avg_iat_ms = if n > 1 {
            duration * 1e3 / (n - 1) as f64
        } else {
            0.0
        };
        TraceStats {
            num_invocations: n,
            num_functions: trace.num_functions() as u64,
            duration_secs: duration,
            reqs_per_sec,
            avg_iat_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::function::FunctionRegistry;
    use faascache_trace_test_helpers::*;

    // Inline helper module to build small traces.
    mod faascache_trace_test_helpers {
        use crate::record::{Invocation, Trace};
        use faascache_core::function::FunctionRegistry;
        use faascache_util::{MemMb, SimDuration, SimTime};

        pub fn uniform_trace(n: u64, gap_ms: u64) -> Trace {
            let mut reg = FunctionRegistry::new();
            let f = reg
                .register("f", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)
                .unwrap();
            Trace::new(
                reg,
                (0..n)
                    .map(|i| Invocation {
                        time: SimTime::from_millis(i * gap_ms),
                        function: f,
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn uniform_gap_statistics() {
        let t = uniform_trace(101, 36);
        let s = TraceStats::compute(&t);
        assert_eq!(s.num_invocations, 101);
        assert_eq!(s.num_functions, 1);
        assert!((s.avg_iat_ms - 36.0).abs() < 1e-9);
        assert!((s.duration_secs - 3.6).abs() < 1e-9);
        // 101 invocations over 3.6 s.
        assert!((s.reqs_per_sec - 101.0 / 3.6).abs() < 1e-9);
    }

    #[test]
    fn degenerate_traces() {
        let empty = Trace::new(FunctionRegistry::new(), vec![]);
        let s = TraceStats::compute(&empty);
        assert_eq!(s.num_invocations, 0);
        assert_eq!(s.reqs_per_sec, 0.0);
        assert_eq!(s.avg_iat_ms, 0.0);

        let single = uniform_trace(1, 100);
        let s = TraceStats::compute(&single);
        assert_eq!(s.num_invocations, 1);
        assert_eq!(s.avg_iat_ms, 0.0);
    }
}
