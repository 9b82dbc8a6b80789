//! Window medians, quartiles and percentiles: every reported number goes
//! through these few functions.

/// Number of equal windows a timed phase is cut into. A metric's reported
/// value is the median of its per-window values, so one stall (a
/// neighbour's burst on a shared core, a slow fsync) moves one window and
/// not the result.
pub const WINDOWS: usize = 10;

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check of this benchmark computes spreads with.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Median of `values` (mean of the middle two for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice; 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn highest_percentile_with_ten_beyond(n: usize) -> Option<f64> {
    // Hundredths of a percent, so the count beyond is exact integer maths.
    [9999usize, 9990, 9900, 9500, 9000, 7500, 5000]
        .into_iter()
        .find(|p| n * (10_000 - p) / 10_000 >= 10)
        .map(|p| p as f64 / 100.0)
}

/// Median, quartiles and count of one metric's per-window values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the samples unless said otherwise.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        match values.len() {
            0 => Summary::single(0.0),
            1 => Summary::single(values[0]),
            n => {
                let (q1, value, q3) = quartiles(values);
                Summary { value, q1, q3, n }
            }
        }
    }

    /// The highest of the samples, with their quartiles: for a rate that
    /// whatever else the machine is doing can only lower.
    pub fn highest(values: &[f64]) -> Summary {
        Summary {
            value: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ..Summary::of(values)
        }
    }

    /// The lowest of the samples, with their quartiles: for a time that
    /// whatever else the machine is doing can only lengthen.
    pub fn lowest(values: &[f64]) -> Summary {
        Summary {
            value: values.iter().copied().fold(f64::INFINITY, f64::min),
            ..Summary::of(values)
        }
    }

    /// A metric measured once in a run (peak memory, a whole-run share).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the reported value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Index of the window an offset falls in when `[0, total)` is cut into
/// [`WINDOWS`] equal parts; offsets at or past `total` land in the last.
pub fn window_of(offset_ns: u64, total_ns: u64) -> usize {
    let w = (offset_ns as u128 * WINDOWS as u128 / total_ns.max(1) as u128) as usize;
    w.min(WINDOWS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn window_median_ignores_one_outlier() {
        let mut windows = vec![100.0; WINDOWS];
        windows[3] = 9000.0;
        let s = Summary::of(&windows);
        assert_eq!(s.value, 100.0);
        assert_eq!(s.n, WINDOWS);
        assert_eq!(median(&windows), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v[..1], 99.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile_with_ten_beyond(19), None);
        assert_eq!(highest_percentile_with_ten_beyond(20), Some(50.0));
        assert_eq!(highest_percentile_with_ten_beyond(999), Some(95.0));
        assert_eq!(highest_percentile_with_ten_beyond(1000), Some(99.0));
        assert_eq!(highest_percentile_with_ten_beyond(24_000), Some(99.9));
        assert_eq!(highest_percentile_with_ten_beyond(100_000), Some(99.99));
    }

    #[test]
    fn windows_partition_the_phase() {
        assert_eq!(window_of(0, 1000), 0);
        assert_eq!(window_of(99, 1000), 0);
        assert_eq!(window_of(100, 1000), 1);
        assert_eq!(window_of(999, 1000), 9);
        assert_eq!(window_of(5000, 1000), 9);
    }

    #[test]
    fn highest_and_lowest_keep_the_quartiles_of_all_samples() {
        let s = Summary::highest(&[90.0, 110.0, 100.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (90.0, 110.0, 110.0, 3));
        let s = Summary::lowest(&[90.0, 110.0, 100.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (90.0, 90.0, 110.0, 3));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert_eq!((s.q1, s.value, s.q3), (90.0, 100.0, 110.0));
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::single(5.0).spread(), 0.0);
    }
}
