//! Order statistics the benchmark reports. Every estimator sorts a copy
//! of its input; sample sets here are a few thousand values at most.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between the
/// two closest ranks. Panics on an empty slice: every caller has already
/// refused a run without samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let v = sorted(values);
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The 10th percentile: the estimator the noise study found to repeat
/// on a shared host, because interference only ever adds time.
pub fn p10(values: &[f64]) -> f64 {
    percentile(values, 0.1)
}

/// Median of `values`, or 0 when a workload never produced the sample
/// (a layer it does not run).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance
/// check uses for run-to-run spread. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert!((percentile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert!((p10(&v) - 1.4).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p10_ignores_slow_outliers() {
        let mut v: Vec<f64> = (0..100).map(|i| 10.0 + i as f64 * 0.01).collect();
        let clean = p10(&v);
        for slot in v.iter_mut().skip(50) {
            *slot *= 3.0;
        }
        assert!((p10(&v) - clean).abs() < 1e-9);
    }

    #[test]
    fn median_or_zero_covers_the_empty_case() {
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
