//! CSV/JSON export of experiment results, for plotting.
//!
//! The paper's artifact pipes simulator pickles into matplotlib; this
//! module renders sweep grids and elastic-scaling samples as plain CSV so
//! any plotting tool can regenerate the figures from the harness output.

use faascache::core::policy::PolicyKind;
use faascache::sim::elastic::ElasticResult;
use faascache::sim::sweep::SweepPoint;
use faascache::sim::SimResult;
use faascache::util::MemMb;

/// Renders a Figure-5/6 sweep grid as CSV: one row per cache size, one
/// column per policy, values produced by `metric`.
pub fn sweep_to_csv(
    grid: &[SweepPoint],
    sizes: &[MemMb],
    metric: impl Fn(&SimResult) -> f64,
) -> String {
    let mut out = String::from("cache_gb");
    for p in PolicyKind::ALL {
        out.push(',');
        out.push_str(p.label());
    }
    out.push('\n');
    for (i, &size) in sizes.iter().enumerate() {
        out.push_str(&format!("{}", size.as_gb_f64()));
        for (j, _) in PolicyKind::ALL.iter().enumerate() {
            let point = &grid[j * sizes.len() + i];
            out.push_str(&format!(",{:.6}", metric(&point.result)));
        }
        out.push('\n');
    }
    out
}

/// Renders a Figure-9 elastic run as CSV: one row per control window.
pub fn elastic_to_csv(result: &ElasticResult) -> String {
    let mut out = String::from("time_secs,capacity_mb,miss_speed,arrival_rate,resized\n");
    for s in &result.samples {
        out.push_str(&format!(
            "{:.1},{},{:.6},{:.6},{}\n",
            s.time_secs, s.capacity_mb, s.miss_speed, s.arrival_rate, s.resized as u8
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache::prelude::*;
    use faascache::trace::workloads;
    use faascache::util::SimDuration;

    #[test]
    fn sweep_csv_shape() {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(1)).unwrap();
        let sizes = vec![MemMb::from_gb(1), MemMb::from_gb(2)];
        let base = SimConfig::new(sizes[0], PolicyKind::GreedyDual);
        let grid = faascache::sim::sweep::sweep(&trace, &PolicyKind::ALL, &sizes, &base);
        let csv = sweep_to_csv(&grid, &sizes, |r| r.pct_cold());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 size rows");
        assert!(lines[0].starts_with("cache_gb,GD,TTL"));
        assert_eq!(lines[1].split(',').count(), 1 + PolicyKind::ALL.len());
        assert!(lines[1].starts_with('1'));
        assert!(lines[2].starts_with('2'));
    }

    #[test]
    fn elastic_csv_shape() {
        use faascache::sim::elastic::ElasticSample;
        let result = faascache::sim::elastic::ElasticResult {
            samples: vec![ElasticSample {
                time_secs: 600.0,
                capacity_mb: 4096,
                miss_speed: 0.5,
                arrival_rate: 12.0,
                resized: true,
            }],
            avg_capacity_mb: 4096.0,
            cold: 1,
            warm: 2,
            dropped: 0,
        };
        let csv = elastic_to_csv(&result);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], "600.0,4096,0.500000,12.000000,1");
    }
}
