//! Order statistics used by every report.

/// Median of `values` (the mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile with at least [`TAIL_BEYOND`] samples
/// beyond it, by the nearest-rank rule; `None` when there are too few
/// samples for any.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    if samples <= TAIL_BEYOND {
        return None;
    }
    let p = (100 * (samples - TAIL_BEYOND) / samples) as u32;
    Some(p)
}

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn nearest_rank(values: &[f64], p: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The tail of `values`: its percentile and value.  With too few samples
/// for the rule, the maximum, labelled as the 100th percentile.
pub fn tail(values: &[f64]) -> (u32, f64) {
    match tail_percentile(values.len()) {
        Some(p) => (p, nearest_rank(values, p)),
        None => (100, values.iter().copied().fold(f64::NAN, f64::max)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(values: &[f64], threshold: f64) -> usize {
        values.iter().filter(|&&v| v > threshold).count()
    }

    #[test]
    fn tail_percentile_keeps_at_least_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(60), Some(83));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(150), Some(93));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 11..3000usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = tail_percentile(n).expect("enough samples");
            let at = nearest_rank(&values, p);
            assert!(beyond(&values, at) >= TAIL_BEYOND, "n={n} p={p}");
            // One percentile higher would leave fewer than ten beyond.
            if p < 100 {
                let higher = nearest_rank(&values, p + 1);
                assert!(beyond(&values, higher) < TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100, 3.0));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90, 90.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
