//! Order statistics used by the run reports and by `--compare`.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this tool reports match the ones a Python check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let q = |i: usize| {
                let (n, m) = (4usize, ld + 1);
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
            };
            (q(1), q(3))
        }
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least `tail` samples above it, with its nearest-rank value; `None`
/// when the sample is too small for any of them.
pub fn tail_percentile(xs: &[f64], tail: usize) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    [99.9, 99.0, 95.0, 90.0, 75.0].into_iter().find_map(|pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= tail).then(|| (pct, s[rank - 1]))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: Python
        // extrapolates past the data for tiny samples, and so do we.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((75.0, 30.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((90.0, 90.0)));
    }
}
