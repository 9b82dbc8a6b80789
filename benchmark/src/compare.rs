//! `compare`: parent against change, one verdict per (workload, metric).
//! Reads result files written with `--out` and the bounds in
//! `BENCHMARK.json`.

use crate::result::{self, Better, Catalogue, Loaded, MetricDef, MAX_LATE_SHARE};
use crate::stats::Summary;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The medians differ by less than the bound but the runs scatter by
    /// more than it, so "unchanged" cannot be told from "regressed".
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`'s median; negative
/// when `b` is better.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict on one metric of one workload.
///
/// Worse: `b`'s median is worse than `a`'s by more than the bound.
/// Better: it is better by more than the bound and the quartile ranges do
/// not overlap (`b`'s worse quartile still beats `a`'s better one).
/// Unresolved: neither, and either side's own quartile spread is wider
/// than the bound, so the comparison cannot resolve a change of that
/// size. Within: neither, and both spreads fit inside the bound.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let w = worsening(a.value, b.value, better);
    if w > bound {
        return Verdict::Worse;
    }
    let (a_good, b_bad) = match better {
        Better::Lower => (a.q1, b.q3),
        Better::Higher => (a.q3, b.q1),
    };
    if w < -bound && worsening(a_good, b_bad, better) < 0.0 {
        return Verdict::Better;
    }
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// Result files hold one run per line; a file may hold several sets.
/// Runs of one workload collapse to the median of their reported values,
/// with the quartiles of those values when there are at least two runs,
/// else the run's own per-window quartiles.
fn collapse(runs: &[Loaded]) -> BTreeMap<(String, String), Summary> {
    let mut grouped: BTreeMap<(String, String), Vec<Summary>> = BTreeMap::new();
    for run in runs {
        for (name, s) in &run.metrics {
            grouped
                .entry((run.workload.clone(), name.clone()))
                .or_default()
                .push(*s);
        }
    }
    grouped
        .into_iter()
        .map(|(key, summaries)| {
            let summary = if summaries.len() == 1 {
                summaries[0]
            } else {
                let values: Vec<f64> = summaries.iter().map(|s| s.value).collect();
                Summary::of(&values)
            };
            (key, summary)
        })
        .collect()
}

fn failed_share(runs: &[Loaded]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    runs.iter().map(|r| r.failed).sum::<u64>() as f64 / attempted.max(1) as f64
}

/// Drops the runs of `side` whose generator was late: their timings
/// measured the host. Says how many it dropped.
fn on_schedule(side: &str, runs: Vec<Loaded>) -> Vec<Loaded> {
    let (kept, late): (Vec<Loaded>, Vec<Loaded>) = runs
        .into_iter()
        .partition(|r| r.late_share <= MAX_LATE_SHARE);
    for run in &late {
        println!(
            "{side}: refused a {} run whose generator was late (late_share {:.4} > {MAX_LATE_SHARE})",
            run.workload, run.late_share
        );
    }
    kept
}

/// Prints one row per (workload, gated metric) and returns whether any
/// is worse or missing on one side, any run is incorrect, or `b` fails a
/// larger share.
pub fn compare(a_text: &str, b_text: &str, catalogue: &Catalogue) -> Result<bool, String> {
    let a_runs = on_schedule("a", result::load(a_text)?);
    let b_runs = on_schedule("b", result::load(b_text)?);
    let (a, b) = (collapse(&a_runs), collapse(&b_runs));
    let mut bad = false;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let workloads: BTreeSet<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    for workload in workloads {
        for MetricDef {
            name,
            better,
            bound,
            ..
        } in &catalogue.end_to_end
        {
            let key = (workload.clone(), name.clone());
            let bound = bound.ok_or(format!("BENCHMARK.json: {name} has no bound"))?;
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<18} {name:<16} missing on one side");
                bad = true;
                continue;
            };
            let v = verdict(sa, sb, *better, bound);
            bad |= v == Verdict::Worse;
            println!(
                "{workload:<18} {name:<16} {:>14.4} {:>14.4} {:>+9.4} {bound:>7.3}  {v:?}",
                sa.value,
                sb.value,
                worsening(sa.value, sb.value, *better),
            );
        }
    }
    let (fa, fb) = (failed_share(&a_runs), failed_share(&b_runs));
    println!("failed share: a {fa:.6}  b {fb:.6}");
    let incorrect = a_runs.iter().chain(&b_runs).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} runs failed their own checks");
    }
    Ok(bad || fb > fa || incorrect > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(median: f64, late_share: f64) -> Loaded {
        Loaded {
            workload: "w".to_string(),
            attempted: 10,
            failed: 0,
            correct: true,
            late_share,
            metrics: vec![("p99_us".to_string(), s(median, median, median))],
        }
    }

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value: median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn worse_beyond_the_bound_in_either_direction() {
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&a, &s(116.0, 115.0, 117.0), Better::Lower, 0.15),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &s(114.0, 113.0, 115.0), Better::Lower, 0.15),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &s(89.0, 88.0, 90.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &s(120.0, 119.0, 121.0), Better::Higher, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn better_needs_separated_quartiles() {
        let a = s(100.0, 70.0, 130.0);
        // 20% better on the median but b's q3 is above a's q1.
        assert_eq!(
            verdict(&a, &s(80.0, 60.0, 95.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &s(60.0, 55.0, 65.0), Better::Lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_within() {
        let a = s(100.0, 90.0, 112.0);
        let b = s(103.0, 99.0, 105.0);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.25), Verdict::Within);
    }

    #[test]
    fn sets_collapse_to_the_median_of_medians() {
        let collapsed = collapse(&[run(10.0, 0.0), run(30.0, 0.0), run(20.0, 0.0)]);
        let got = collapsed[&("w".to_string(), "p99_us".to_string())];
        assert_eq!((got.q1, got.value, got.q3, got.n), (10.0, 20.0, 30.0, 3));
        assert_eq!(failed_share(&[run(1.0, 0.0)]), 0.0);
    }

    #[test]
    fn a_run_with_a_late_generator_is_refused() {
        let kept = on_schedule("a", vec![run(10.0, 0.0), run(500.0, 2.0 * MAX_LATE_SHARE)]);
        assert_eq!(kept, [run(10.0, 0.0)]);
    }
}
