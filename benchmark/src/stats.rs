//! Order statistics over small samples.

/// Sorts a copy of `values` ascending (measurements are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending sample, interpolating
/// linearly between the two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values, n=4)`
/// gives (the exclusive method) — the spread figure the acceptance rule for
/// this benchmark is stated in. `None` below four values, where quartiles
/// say nothing.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let v = sorted(values);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = quantile_sorted(&v, 0.5);
    (mid != 0.0).then(|| (cut(3) - cut(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let spread = quartile_spread(&[8.0, 1.0, 4.0, 2.0]).unwrap();
        assert!((spread - (7.0 - 1.25) / 3.0).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }
}
