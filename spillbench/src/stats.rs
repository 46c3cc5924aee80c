//! Order statistics for the end-to-end metrics.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` sorted values.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `p` of `values` with its provenance.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64], p: f64) -> Tail {
    let n = values.len();
    Tail {
        percentile: p,
        value: percentile(values, p),
        samples: n,
        beyond: n - rank(n, p),
    }
}

/// A tail latency with its provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples above it.
    pub beyond: usize,
}

/// Geometric mean of positive values (`None` when there are none).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn tail_counts_the_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 90.0);
        assert_eq!((t.value, t.samples, t.beyond), (90.0, 100, 10));
        assert_eq!(tail(&v[..15], 99.0).beyond, 0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
    }
}
