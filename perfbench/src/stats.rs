//! Order statistics for the report: medians, quartiles, the tail a
//! sample can support, and the size-sweep fits.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the two middle values for an even count);
/// NaN for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len() as i64;
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank position (1-based) of the `per_mille`/1000 quantile of
/// `n` samples.
fn nearest_rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The nearest-rank quantile `per_mille`/1000 (990 = p99); NaN for an
/// empty sample.
pub fn percentile(values: &[f64], per_mille: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[nearest_rank(per_mille, v.len()) - 1]
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that still has at
/// least `beyond` samples ranked above it, as `(per_mille, value)`: the
/// tail a sample of this size can honestly report.
pub fn supported_tail(values: &[f64], beyond: usize) -> Option<(usize, f64)> {
    let v = sorted(values);
    let n = v.len();
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find_map(|per_mille| {
            let rank = nearest_rank(per_mille, n.max(1));
            (n >= rank + beyond).then(|| (per_mille, v[rank - 1]))
        })
}

/// Least-squares slope `k` of `y = k·x`, a line through the origin.
pub fn slope_through_origin(points: &[(f64, f64)]) -> f64 {
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    sxy / sxx
}

/// Least-squares exponent `b` of `y = a·x^b`, the slope on log-log
/// axes; points with a non-positive coordinate are left out.
pub fn loglog_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 990), 99.0);
        assert_eq!(percentile(&hundred, 500), 50.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond_it() {
        let sample = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(supported_tail(&sample(1000), 10), Some((990, 990.0)));
        assert_eq!(supported_tail(&sample(10_000), 10), Some((999, 9990.0)));
        assert_eq!(supported_tail(&sample(200), 10), Some((950, 190.0)));
        assert_eq!(supported_tail(&sample(100), 10), Some((900, 90.0)));
        assert_eq!(supported_tail(&sample(20), 10), Some((500, 10.0)));
        assert_eq!(supported_tail(&sample(15), 10), None);
        assert_eq!(supported_tail(&[], 10), None);
    }

    #[test]
    fn fits_recover_slope_and_exponent() {
        assert_eq!(slope_through_origin(&[(1.0, 2.0), (2.0, 4.0)]), 2.0);
        let square = [(1.0, 1.0), (10.0, 100.0), (100.0, 10_000.0), (0.0, 5.0)];
        assert!((loglog_exponent(&square) - 2.0).abs() < 1e-12);
    }
}
