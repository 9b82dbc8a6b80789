//! Hit-ratio curves (paper §5.1, Figure 3).
//!
//! "Conveniently, the hit-ratio is the CDF of the reuse distances." The
//! curve supports the three operations provisioning needs:
//!
//! - **query** — the expected warm-start ratio at a given cache size,
//! - **inversion** — the smallest cache size achieving a target hit ratio
//!   (used by the elastic controller to turn a target miss speed back into
//!   a cache size, Eq. 3),
//! - **inflection detection** — the knee of the curve, for static
//!   provisioning by marginal utility.

use crate::reuse::ReuseDistances;
use faascache_util::MemMb;

/// An empirical hit-ratio curve: the CDF of size-weighted reuse distances.
///
/// Compulsory (first-access) misses are counted in the denominator, so the
/// curve saturates below 1.0 for traces with many one-off functions —
/// matching what a real keep-alive cache can achieve.
///
/// # Examples
///
/// ```
/// use faascache_analysis::hitratio::HitRatioCurve;
/// let curve = HitRatioCurve::from_distances(&[0, 100, 100, 300], 0);
/// assert_eq!(curve.hit_ratio(faascache_util::MemMb::new(100)), 0.75);
/// assert_eq!(curve.hit_ratio(faascache_util::MemMb::new(299)), 0.75);
/// assert_eq!(curve.hit_ratio(faascache_util::MemMb::new(300)), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HitRatioCurve {
    /// Sorted distinct reuse distances (MB) with cumulative hit counts.
    points: Vec<(u64, u64)>,
    /// Total accesses (finite + compulsory).
    total: u64,
}

impl HitRatioCurve {
    /// Builds a curve from finite reuse distances (MB) plus a count of
    /// compulsory misses.
    pub fn from_distances(finite_mb: &[u64], compulsory: u64) -> Self {
        let mut sorted = finite_mb.to_vec();
        sorted.sort_unstable();
        let mut points: Vec<(u64, u64)> = Vec::new();
        let mut cum = 0u64;
        for d in sorted {
            cum += 1;
            match points.last_mut() {
                Some(last) if last.0 == d => last.1 = cum,
                _ => points.push((d, cum)),
            }
        }
        HitRatioCurve {
            points,
            total: finite_mb.len() as u64 + compulsory,
        }
    }

    /// Builds a curve from a trace's [`ReuseDistances`].
    pub fn from_reuse(distances: &ReuseDistances) -> Self {
        Self::from_distances(&distances.finite(), distances.compulsory_misses() as u64)
    }

    /// Total accesses backing the curve.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Expected hit (warm-start) ratio at cache size `cache`: the fraction
    /// of accesses whose reuse distance is at most the cache size.
    pub fn hit_ratio(&self, cache: MemMb) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c = cache.as_mb();
        // Last point with distance <= c.
        let idx = self.points.partition_point(|&(d, _)| d <= c);
        if idx == 0 {
            0.0
        } else {
            self.points[idx - 1].1 as f64 / self.total as f64
        }
    }

    /// The maximum achievable hit ratio (cache of unbounded size);
    /// bounded away from 1.0 by compulsory misses.
    pub fn max_hit_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.points.last().map_or(0, |&(_, c)| c) as f64 / self.total as f64
        }
    }

    /// Smallest cache size achieving at least `target` hit ratio, or
    /// `None` if the target exceeds [`Self::max_hit_ratio`]: static
    /// provisioning by a target hit ratio (paper §5.1).
    ///
    /// # Examples
    ///
    /// ```
    /// use faascache_analysis::hitratio::HitRatioCurve;
    ///
    /// let curve = HitRatioCurve::from_distances(&[100, 100, 200, 4000], 0);
    /// assert_eq!(curve.size_for_hit_ratio(0.75).unwrap().as_mb(), 200);
    /// ```
    pub fn size_for_hit_ratio(&self, target: f64) -> Option<MemMb> {
        if self.total == 0 {
            return None;
        }
        let needed = (target.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        if needed == 0 {
            return Some(MemMb::ZERO);
        }
        let idx = self.points.partition_point(|&(_, cum)| cum < needed);
        self.points.get(idx).map(|&(d, _)| MemMb::new(d))
    }

    /// The curve's knee: the sampled size maximizing distance from the
    /// chord between the curve's endpoints (the Kneedle construction).
    /// Static provisioning picks this size as the marginal-utility
    /// sweet spot. Returns `None` for degenerate (≤1-point) curves.
    pub fn inflection(&self) -> Option<MemMb> {
        if self.points.len() < 2 {
            return self.points.first().map(|&(d, _)| MemMb::new(d));
        }
        let (x0, y0) = {
            let p = self.points[0];
            (p.0 as f64, p.1 as f64 / self.total as f64)
        };
        let (x1, y1) = {
            let p = *self.points.last().expect("non-empty");
            (p.0 as f64, p.1 as f64 / self.total as f64)
        };
        let dx = x1 - x0;
        let dy = y1 - y0;
        if dx <= 0.0 {
            return Some(MemMb::new(self.points[0].0));
        }
        let mut best = (f64::MIN, self.points[0].0);
        for &(d, cum) in &self.points {
            let x = d as f64;
            let y = cum as f64 / self.total as f64;
            // Signed distance from the chord (scaled); larger = more "knee".
            let dist = dy * (x - x0) - dx * (y - y0);
            let dist = -dist; // curve above chord ⇒ negative cross product
            if dist > best.0 {
                best = (dist, d);
            }
        }
        Some(MemMb::new(best.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_semantics() {
        let c = HitRatioCurve::from_distances(&[0, 100, 100, 300], 0);
        assert_eq!(c.hit_ratio(MemMb::ZERO), 0.25);
        assert_eq!(c.hit_ratio(MemMb::new(99)), 0.25);
        assert_eq!(c.hit_ratio(MemMb::new(100)), 0.75);
        assert_eq!(c.hit_ratio(MemMb::new(1_000_000)), 1.0);
    }

    #[test]
    fn compulsory_misses_cap_the_curve() {
        let c = HitRatioCurve::from_distances(&[10, 20], 2);
        assert_eq!(c.total_accesses(), 4);
        assert_eq!(c.max_hit_ratio(), 0.5);
        assert_eq!(c.hit_ratio(MemMb::new(20)), 0.5);
    }

    #[test]
    fn monotone_nondecreasing() {
        let dists: Vec<u64> = (0..100).map(|i| (i * 37) % 1024).collect();
        let c = HitRatioCurve::from_distances(&dists, 5);
        let mut prev = -1.0;
        for mb in (0..1200).step_by(10) {
            let h = c.hit_ratio(MemMb::new(mb));
            assert!(h >= prev, "curve decreased at {mb}");
            assert!((0.0..=1.0).contains(&h));
            prev = h;
        }
    }

    #[test]
    fn inversion_finds_smallest_size() {
        let c = HitRatioCurve::from_distances(&[0, 100, 100, 300], 0);
        assert_eq!(c.size_for_hit_ratio(0.25), Some(MemMb::ZERO));
        assert_eq!(c.size_for_hit_ratio(0.5), Some(MemMb::new(100)));
        assert_eq!(c.size_for_hit_ratio(0.75), Some(MemMb::new(100)));
        assert_eq!(c.size_for_hit_ratio(0.76), Some(MemMb::new(300)));
        assert_eq!(c.size_for_hit_ratio(1.0), Some(MemMb::new(300)));
    }

    #[test]
    fn inversion_unreachable_target() {
        let c = HitRatioCurve::from_distances(&[10], 9);
        assert_eq!(c.max_hit_ratio(), 0.1);
        assert_eq!(c.size_for_hit_ratio(0.5), None);
    }

    #[test]
    fn inversion_round_trips_with_query() {
        let dists: Vec<u64> = (1..=50).map(|i| i * 20).collect();
        let c = HitRatioCurve::from_distances(&dists, 0);
        for target in [0.1, 0.3, 0.62, 0.9] {
            let size = c.size_for_hit_ratio(target).unwrap();
            assert!(c.hit_ratio(size) >= target);
            if size.as_mb() > 0 {
                assert!(c.hit_ratio(MemMb::new(size.as_mb() - 1)) < target);
            }
        }
    }

    #[test]
    fn inflection_finds_the_knee() {
        // Steep rise to 0.9 by 100MB, then a long flat tail to 10GB.
        let mut dists = Vec::new();
        for i in 0..90 {
            dists.push(i); // 90 accesses under 100MB
        }
        for i in 0..10 {
            dists.push(1000 + i * 1000); // slow tail
        }
        let c = HitRatioCurve::from_distances(&dists, 0);
        let knee = c.inflection().unwrap();
        assert!(
            knee.as_mb() < 200,
            "knee at {knee} should be in the steep region"
        );
        assert!(
            c.hit_ratio(knee) > 0.5,
            "the knee should be past half the hits"
        );
    }

    #[test]
    fn degenerate_curves() {
        let empty = HitRatioCurve::from_distances(&[], 0);
        assert_eq!(empty.hit_ratio(MemMb::new(100)), 0.0);
        assert_eq!(empty.size_for_hit_ratio(0.5), None);
        assert_eq!(empty.inflection(), None);

        let single = HitRatioCurve::from_distances(&[42], 0);
        assert_eq!(single.inflection(), Some(MemMb::new(42)));
    }

    #[test]
    fn sampling_for_plots() {
        let c = HitRatioCurve::from_distances(&[100, 200, 300], 1);
        let pts: Vec<f64> = (0..=3).map(|g| c.hit_ratio(MemMb::new(g * 100))).collect();
        assert_eq!(pts, [0.0, 0.25, 0.5, 0.75]);
    }
}
