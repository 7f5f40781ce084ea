//! The statistics every reported number goes through.
//!
//! A timing is printed with its sample count, the median of its per-run
//! samples, their interquartile range and the highest percentile that still
//! has ten samples beyond it.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the spread this program prints is the spread the driver sees.
///
/// # Panics
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The highest percentile that has at least ten samples beyond it, and the
/// value there: `(percentile in 0..100, value)`. `None` with fewer than
/// eleven samples, where no percentile qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if values.len() <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - BEYOND - 1;
    Some((100.0 * (idx + 1) as f64 / v.len() as f64, v[idx]))
}

/// `(other - base) / |base|`: positive when `other` is larger.
pub fn relative_difference(base: f64, other: f64) -> f64 {
    (other - base) / base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 190.0);
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
        assert!((pct - 95.0).abs() < 1e-12);
        // Eleven samples: the lowest is the only one with ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().1, 1.0);
    }

    #[test]
    fn relative_difference_is_signed() {
        assert!((relative_difference(100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((relative_difference(100.0, 95.0) + 0.05).abs() < 1e-12);
    }
}
