//! Order statistics used by every reported timing.

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method, i.e. exactly what Python's
/// `statistics.quantiles(values, n=4)` returns, so the spreads this
/// benchmark prints are the ones its driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Position k*(n+1)/4 on a 1-based axis; like Python, the
                // interval is clamped to the data but the weight is not.
                let j = (k * (n + 1) / 4).clamp(1, n - 1);
                let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Splits `values` (in arrival order) into `windows` consecutive windows of
/// equal length and returns the lowest window median: the median of the
/// quietest stretch. Samples left over by the division join the last window.
pub fn lowest_window_median(values: &[f64], windows: usize) -> f64 {
    let len = (values.len() / windows.max(1)).max(1);
    let mut lowest = f64::INFINITY;
    let mut at = 0;
    while at < values.len() {
        let end = if values.len() - at < 2 * len {
            values.len()
        } else {
            at + len
        };
        lowest = lowest.min(median(&values[at..end]));
        at = end;
    }
    if lowest.is_finite() {
        lowest
    } else {
        0.0
    }
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that
/// still has at least ten samples beyond it in a sample of `n`; `None`
/// when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10,000): integers, so that 10,000
    // samples support p99.9 exactly.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (90.0, 1_000),
        (50.0, 5_000),
    ]
    .into_iter()
    .find(|&(_, beyond)| n * beyond >= 100_000)
    .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.5, 5.0, 7.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates beyond two points.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn iqr_ratio_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(iqr_ratio(&v), 1.0);
        assert_eq!(iqr_ratio(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn lowest_window_median_finds_the_quiet_stretch() {
        // Three windows of four: a noisy one, a quiet one, a noisy one.
        let v = [9.0, 8.0, 9.0, 8.0, 2.0, 3.0, 2.0, 3.0, 7.0, 9.0, 7.0, 9.0];
        assert_eq!(lowest_window_median(&v, 3), 2.5);
        // One window is the plain median; leftovers join the last window.
        assert_eq!(lowest_window_median(&v, 1), 7.5);
        assert_eq!(lowest_window_median(&[5.0, 1.0, 1.0, 1.0, 9.0], 2), 1.0);
        // More windows than samples: one sample each.
        assert_eq!(lowest_window_median(&[4.0, 2.0, 6.0], 10), 2.0);
        assert_eq!(lowest_window_median(&[], 4), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(125_000), Some(99.99));
    }
}
