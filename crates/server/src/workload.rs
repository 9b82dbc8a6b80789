//! The shared serving workload: a deterministic trace both sides build.
//!
//! The wire protocol identifies functions by registry index, so the
//! daemon and the load generator must agree on the registry. Rather than
//! shipping a registry-transfer handshake, both binaries derive the
//! identical trace from the same few parameters (function count and RNG
//! seed) through the deterministic synthesis + adaptation pipeline in
//! [`faascache_trace`]. Passing the same `--functions`/`--seed` to
//! `faascached` and `faas-load` is the whole contract.

use faascache_trace::adapt::{adapt, AdaptOptions};
use faascache_trace::record::Trace;
use faascache_trace::synth::{self, SynthConfig};
use std::num::NonZeroUsize;

/// Parameters pinning down the shared workload.
///
/// `PartialEq` only (no `Eq`): the Zipf exponent is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of functions to synthesize (before the adaptation step
    /// drops single-shot functions).
    pub functions: NonZeroUsize,
    /// RNG seed; both sides must use the same value.
    pub seed: u64,
    /// Horizon the synthetic day is truncated to, in virtual minutes:
    /// only these minutes are expanded into invocations, which bounds
    /// trace-construction time. The replay schedule cycles when
    /// more requests than trace events are needed.
    pub horizon_mins: u64,
    /// Zipf exponent of the per-function rate skew (`--skew zipf:<s>`):
    /// the rank-`k` function gets `1/k^s` of the top rate. 1.0 is the
    /// Azure-like default; larger concentrates load on few functions.
    pub zipf_exponent: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            functions: const { NonZeroUsize::new(256).unwrap() },
            seed: 0xFAA5_CACE,
            horizon_mins: 60,
            zipf_exponent: 1.0,
        }
    }
}

impl WorkloadConfig {
    /// Builds the workload trace. Deterministic: equal configs yield
    /// byte-identical traces on both ends of the connection.
    pub fn build(&self) -> Trace {
        let synth = SynthConfig {
            num_functions: self.functions.get(),
            num_apps: (self.functions.get() / 3).max(1),
            seed: self.seed,
            zipf_exponent: self.zipf_exponent,
            ..SynthConfig::default()
        };
        let dataset = synth::generate(&synth);
        adapt(
            &dataset,
            &AdaptOptions {
                horizon_mins: Some(self.horizon_mins),
                ..AdaptOptions::default()
            },
        )
    }
}

/// Parses a `--skew` flag value of the form `zipf:<exponent>`.
///
/// Both binaries accept the same syntax, and — like `--functions` and
/// `--seed` — the value is part of the workload contract: daemon and
/// load generator must agree or their registries diverge.
pub fn parse_skew(value: &str) -> Result<f64, String> {
    let exponent = value
        .strip_prefix("zipf:")
        .ok_or_else(|| format!("expected zipf:<exponent>, got {value:?}"))?;
    let s: f64 = exponent
        .parse()
        .map_err(|_| format!("bad exponent {exponent:?}"))?;
    if !s.is_finite() || s < 0.0 {
        return Err(format!("exponent must be finite and >= 0, got {s}"));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_config_builds_identical_traces() {
        let config = WorkloadConfig {
            functions: NonZeroUsize::new(64).unwrap(),
            seed: 42,
            horizon_mins: 30,
            ..WorkloadConfig::default()
        };
        let a = config.build();
        let b = config.build();
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty(), "workload must have invocations");
        assert_eq!(a.registry().len(), b.registry().len());
        for (x, y) in a.invocations().iter().zip(b.invocations()) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.function, y.function);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadConfig {
            seed: 1,
            ..WorkloadConfig::default()
        }
        .build();
        let b = WorkloadConfig {
            seed: 2,
            ..WorkloadConfig::default()
        }
        .build();
        let same = a.len() == b.len()
            && a.invocations()
                .iter()
                .zip(b.invocations())
                .all(|(x, y)| x.time == y.time && x.function == y.function);
        assert!(!same, "seed must matter");
    }

    #[test]
    fn higher_zipf_exponent_concentrates_load() {
        let base = WorkloadConfig {
            functions: NonZeroUsize::new(64).unwrap(),
            seed: 7,
            horizon_mins: 30,
            zipf_exponent: 1.0,
        };
        let skewed = WorkloadConfig {
            zipf_exponent: 1.8,
            ..base
        };
        let share_of_top = |trace: &faascache_trace::record::Trace| {
            let mut counts = std::collections::HashMap::new();
            for inv in trace.invocations() {
                *counts.entry(inv.function).or_insert(0usize) += 1;
            }
            let top = counts.values().copied().max().unwrap_or(0);
            top as f64 / trace.len() as f64
        };
        let a = base.build();
        let b = skewed.build();
        assert!(
            share_of_top(&b) > share_of_top(&a),
            "steeper zipf must concentrate more load on the top function"
        );
    }

    #[test]
    fn skew_flag_parses_and_rejects_garbage() {
        assert_eq!(parse_skew("zipf:1.2"), Ok(1.2));
        assert_eq!(parse_skew("zipf:0"), Ok(0.0));
        assert!(parse_skew("1.2").is_err());
        assert!(parse_skew("zipf:").is_err());
        assert!(parse_skew("zipf:-1").is_err());
        assert!(parse_skew("zipf:inf").is_err());
        assert!(parse_skew("pareto:1").is_err());
    }
}
