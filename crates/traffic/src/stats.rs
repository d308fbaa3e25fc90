//! Small statistics helpers shared by the feature extractors and the
//! experiment harness (ECDFs, percentiles, summary statistics).

/// Summary statistics of a sample, in a fixed order used by the
/// 166-feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Population variance.
    pub var: f32,
    /// Maximum.
    pub max: f32,
    /// Minimum.
    pub min: f32,
    /// Median (p50).
    pub median: f32,
    /// 10th percentile.
    pub p10: f32,
    /// 25th percentile.
    pub p25: f32,
    /// 75th percentile.
    pub p75: f32,
    /// 90th percentile.
    pub p90: f32,
    /// Sum of all values.
    pub total: f32,
    /// Mean − median (a cheap skew proxy).
    pub skew_proxy: f32,
}

impl Summary {
    /// Number of scalar fields exposed by [`Summary::to_array`].
    pub const LEN: usize = 12;

    /// Computes summary statistics; all-zero for an empty sample.
    pub fn of(values: &[f32]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let total: f32 = values.iter().sum();
        let mean = total / values.len() as f32;
        let sq_dev = values.iter().map(|v| (v - mean) * (v - mean)).sum();
        Summary::from_sorted(&sorted, total, sq_dev)
    }

    /// Assembles the statistics of a sample from its ascending order
    /// statistics, its sum and its sum of squared deviations from
    /// `total / n` (both summed in arrival order, as [`Summary::of`]
    /// does); all-zero for an empty sample.
    pub(crate) fn from_sorted(sorted: &[f32], total: f32, sq_dev: f32) -> Summary {
        let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
            return Summary::default();
        };
        let n = sorted.len() as f32;
        let mean = total / n;
        let var = sq_dev / n;
        let median = percentile_sorted(sorted, 50.0);
        Summary {
            mean,
            std: var.sqrt(),
            var,
            max,
            min,
            median,
            p10: percentile_sorted(sorted, 10.0),
            p25: percentile_sorted(sorted, 25.0),
            p75: percentile_sorted(sorted, 75.0),
            p90: percentile_sorted(sorted, 90.0),
            total,
            skew_proxy: mean - median,
        }
    }

    /// Fixed-order flattening.
    pub fn to_array(self) -> [f32; Summary::LEN] {
        [
            self.mean,
            self.std,
            self.var,
            self.max,
            self.min,
            self.median,
            self.p10,
            self.p25,
            self.p75,
            self.p90,
            self.total,
            self.skew_proxy,
        ]
    }

    /// Field names matching [`Summary::to_array`] order.
    pub fn names() -> [&'static str; Summary::LEN] {
        [
            "mean", "std", "var", "max", "min", "median", "p10", "p25", "p75", "p90", "total",
            "skew",
        ]
    }
}

/// Linear-interpolated percentile of a pre-sorted sample (`q` in `[0, 100]`).
pub fn percentile_sorted(sorted: &[f32], q: f32) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Percentile of an unsorted sample.
pub fn percentile(values: &[f32], q: f32) -> f32 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile_sorted(&sorted, q)
}

/// Empirical CDF evaluated at `points` for the given sample.
pub fn ecdf(values: &[f32], points: &[f32]) -> Vec<f32> {
    if values.is_empty() {
        return vec![0.0; points.len()];
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    points
        .iter()
        .map(|&p| {
            let idx = sorted.partition_point(|&v| v <= p);
            idx as f32 / sorted.len() as f32
        })
        .collect()
}

/// Histogram with `bins` equal-width bins over `[lo, hi]`; out-of-range
/// values are clamped into the edge bins. Counts are normalised to
/// fractions.
pub fn histogram(values: &[f32], lo: f32, hi: f32, bins: usize) -> Vec<f32> {
    assert!(bins > 0 && hi > lo, "histogram: invalid bin spec");
    let mut counts = vec![0.0f32; bins];
    if values.is_empty() {
        return counts;
    }
    for &v in values {
        counts[bin_index(v, lo, hi, bins)] += 1.0;
    }
    let n = values.len() as f32;
    counts.iter_mut().for_each(|c| *c /= n);
    counts
}

/// The [`histogram`] bin `v` falls into.
pub(crate) fn bin_index(v: f32, lo: f32, hi: f32, bins: usize) -> usize {
    let width = (hi - lo) / bins as f32;
    (((v - lo) / width).floor() as isize).clamp(0, bins as isize - 1) as usize
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Population standard deviation (0 when empty).
pub fn std_dev(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-6);
        assert!((s.median - 2.5).abs() < 1e-6);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.min, 1.0);
        assert!((s.total - 10.0).abs() < 1e-6);
        assert!((s.var - 1.25).abs() < 1e-6);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s, Summary::default());
        assert_eq!(s.to_array(), [0.0; Summary::LEN]);
    }

    #[test]
    fn summary_vec_len_matches_names() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.to_array().len(), Summary::LEN);
        assert_eq!(Summary::names().len(), Summary::LEN);
    }

    #[test]
    fn percentile_ordering_is_monotone() {
        let vals = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        let p10 = percentile(&vals, 10.0);
        let p50 = percentile(&vals, 50.0);
        let p90 = percentile(&vals, 90.0);
        assert!(p10 <= p50 && p50 <= p90);
        assert_eq!(p50, 5.0);
    }

    #[test]
    fn percentile_extremes() {
        let vals = vec![2.0, 4.0, 6.0];
        assert_eq!(percentile(&vals, 0.0), 2.0);
        assert_eq!(percentile(&vals, 100.0), 6.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[42.0], 33.0), 42.0);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded() {
        let vals = vec![1.0, 2.0, 2.0, 3.0];
        let pts = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let e = ecdf(&vals, &pts);
        assert_eq!(e, vec![0.0, 0.25, 0.75, 1.0, 1.0]);
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let vals = vec![0.1, 0.2, 0.5, 0.9, 1.5, -0.5];
        let h = histogram(&vals, 0.0, 1.0, 4);
        let sum: f32 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // clamped: -0.5 lands in bin 0, 1.5 in bin 3
        assert!(h[0] > 0.0 && h[3] > 0.0);
    }

    #[test]
    fn std_dev_known() {
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-6);
        assert_eq!(std_dev(&[]), 0.0);
    }
}
