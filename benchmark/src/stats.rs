//! Sample statistics: median, quartiles and the percentile rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default *exclusive* method), so a spread computed here equals
//! the one an outside checker computes from the same values.

/// Sorted copy of `values` (NaN-free input; total order on floats).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exclusive method. Fewer than two samples
/// have no spread: both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let m = median(values);
        return (m, m);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero
/// median: exact counts that are all zero have no spread).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The percentiles a report may quote, lowest first.
const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples, if any (p99 needs 1000 samples). A
/// percentile quoted above this one is a statement about fewer than
/// ten observations.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        // In thousandths, so the count beyond is exact integer math.
        .find(|p| n as u64 * (1000 - (p * 10.0).round() as u64) / 1000 >= 10)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

/// Time a class of periodic rounds costs **beyond** the class below
/// it: `(class median − below median) × rounds`, floored at zero, where
/// `rounds` counts every round that pays for the class. This is how a
/// layer that only runs every n-th round (redundancy scoring, audit,
/// challenge, scrub) is sized from outside, without spans inside the
/// round.
pub fn class_extra(class_secs: &[f64], below_secs: &[f64], rounds: usize) -> f64 {
    (median(class_secs) - median(below_secs)).max(0.0) * rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(6), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(99), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn round_class_subtraction() {
        // Three check rounds of 5 ms over a 1 ms plain median: 12 ms extra.
        let extra = class_extra(&[0.005; 3], &[0.001, 0.001, 0.002], 3);
        assert!((extra - 0.012).abs() < 1e-12);
        // Nested classes: the extra is paid by every round of the class
        // and of the classes above it.
        assert!((class_extra(&[0.003; 2], &[0.002; 5], 7) - 0.007).abs() < 1e-12);
        // A class no dearer than the one below has no extra, never negative.
        assert_eq!(class_extra(&[0.001; 4], &[0.002; 9], 4), 0.0);
        assert_eq!(class_extra(&[], &[0.002], 0), 0.0);
    }
}
