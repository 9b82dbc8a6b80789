//! Static provisioning from hit-ratio curves (paper §5.1).
//!
//! "We construct a hit-ratio curve based on reuse distances, and size the
//! server's memory based on the inflection point. Alternatively, we can
//! set a target hit ratio (say, 90 %), and use that to determine the
//! minimum memory size of the server."

use faascache_analysis::hitratio::HitRatioCurve;
use faascache_util::MemMb;

/// A static provisioning recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisionPlan {
    /// Recommended server memory.
    pub size: MemMb,
    /// Hit ratio the curve predicts at that size.
    pub predicted_hit_ratio: f64,
}

/// Sizes servers from a hit-ratio curve.
///
/// # Examples
///
/// ```
/// use faascache_analysis::hitratio::HitRatioCurve;
/// use faascache_provision::static_prov::StaticProvisioner;
///
/// let curve = HitRatioCurve::from_distances(&[100, 100, 200, 4000], 0);
/// let prov = StaticProvisioner::new(curve);
/// let plan = prov.by_target_hit_ratio(0.75).unwrap();
/// assert_eq!(plan.size.as_mb(), 200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StaticProvisioner {
    curve: HitRatioCurve,
}

impl StaticProvisioner {
    /// Wraps a hit-ratio curve.
    pub fn new(curve: HitRatioCurve) -> Self {
        StaticProvisioner { curve }
    }

    /// The underlying curve.
    pub fn curve(&self) -> &HitRatioCurve {
        &self.curve
    }

    /// The smallest size achieving `target` hit ratio, or `None` if the
    /// target is unreachable (beyond the curve's compulsory-miss ceiling).
    pub fn by_target_hit_ratio(&self, target: f64) -> Option<ProvisionPlan> {
        let size = self.curve.size_for_hit_ratio(target)?;
        Some(ProvisionPlan {
            size,
            predicted_hit_ratio: self.curve.hit_ratio(size),
        })
    }

    /// The size at the curve's inflection point (maximum marginal
    /// utility), or `None` for a degenerate curve.
    pub fn by_inflection(&self) -> Option<ProvisionPlan> {
        let size = self.curve.inflection()?;
        Some(ProvisionPlan {
            size,
            predicted_hit_ratio: self.curve.hit_ratio(size),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> HitRatioCurve {
        // 90 small distances under 1GB, 10 spread to 10GB: classic knee.
        let mut d: Vec<u64> = (0..90).map(|i| i * 10).collect();
        d.extend((1..=10).map(|i| i * 1000));
        HitRatioCurve::from_distances(&d, 0)
    }

    #[test]
    fn target_sizing() {
        let prov = StaticProvisioner::new(curve());
        let plan = prov.by_target_hit_ratio(0.9).unwrap();
        assert!(plan.predicted_hit_ratio >= 0.9);
        assert!(plan.size.as_mb() <= 1000, "90% of accesses are under 1GB");
    }

    #[test]
    fn unreachable_target() {
        let prov = StaticProvisioner::new(HitRatioCurve::from_distances(&[5], 9));
        assert!(prov.by_target_hit_ratio(0.5).is_none());
    }

    #[test]
    fn inflection_sizing_lands_in_steep_region() {
        let prov = StaticProvisioner::new(curve());
        let plan = prov.by_inflection().unwrap();
        assert!(
            plan.size.as_mb() <= 1500,
            "knee should precede the flat tail, got {}",
            plan.size
        );
        assert!(plan.predicted_hit_ratio > 0.5);
    }

    #[test]
    fn degenerate_curve() {
        let prov = StaticProvisioner::new(HitRatioCurve::from_distances(&[], 0));
        assert!(prov.by_inflection().is_none());
        assert!(prov.by_target_hit_ratio(0.1).is_none());
    }
}
