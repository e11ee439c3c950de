//! Summary statistics.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes summary statistics. Returns `None` for an empty sample
    /// or one containing non-finite values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(Summary {
            count,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }
}

/// Percentile by linear interpolation over a **sorted** sample.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 40.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 25.0);
        // Single-element sample.
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_panics() {
        let _ = percentile_sorted(&[], 50.0);
    }
}
