//! Order statistics over run samples.

/// The mean of the samples between the `lo`-th and `hi`-th percentile of
/// `sorted` (ascending, nonempty): a percentile that does not jump.
///
/// The latency of a mix of request shapes is a row of clusters, and a plain
/// percentile that falls into the gap between two of them is set by whichever
/// cluster's tail happens to reach further in this run. The mean over a band
/// around it is set by the clusters' fixed shares instead. For a unimodal
/// sample it is the percentile, near enough.
pub fn band_mean(sorted: &[f64], lo: f64, hi: f64) -> f64 {
    assert!(
        !sorted.is_empty() && lo <= hi,
        "a band needs samples and lo ≤ hi"
    );
    let last = (sorted.len() - 1) as f64;
    let from = (lo / 100.0 * last).floor() as usize;
    let to = (hi / 100.0 * last).ceil() as usize;
    let band = &sorted[from..=to];
    band.iter().sum::<f64>() / band.len() as f64
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (nonempty).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs at least one sample");
    let v = sorted(values);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// First and third quartile by the *exclusive* method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the benchmark
/// contract measures run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped to the sample range.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread measure
/// bounds are compared against. `None` below four values, where quartiles
/// say nothing, or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let m = median(values);
    if m == 0.0 {
        return None;
    }
    let (q1, q3) = quartiles(values);
    Some((q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn band_means_sit_on_the_percentile_and_do_not_jump() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(band_mean(&v, 40.0, 60.0), 50.0);
        assert_eq!(band_mean(&v, 92.5, 97.5), 95.0);
        assert_eq!(band_mean(&[7.0], 40.0, 60.0), 7.0);
        // Two clusters of equal weight: the plain median is wherever the
        // tails meet, the band mean is the midpoint of the clusters.
        let mut two: Vec<f64> = vec![1.0; 50];
        two.extend(vec![3.0; 50]);
        assert_eq!(band_mean(&two, 40.0, 60.0), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), (12.5, 70.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }
}
