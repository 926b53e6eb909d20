//! Order statistics shared by the benchmark run and the compare tool.

/// Samples a percentile needs beyond it before it is reported: a tail
/// estimated from fewer is one or two unlucky packets, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile (1..=100) of ascending `sorted`, or
/// `None` unless at least [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let n = sorted.len();
    // ceil(pct · n / 100) in integers: no float rounding at the rank edge.
    let rank = (pct * n).div_ceil(100).max(1);
    (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median with Python's `statistics.median` convention (mean of the two
/// middle values for an even count). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads read the same here as in any checker built
/// on it. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = ramp(200);
        assert_eq!(percentile(&v, 50), Some(100.0));
        // Rank 190 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&v, 95), Some(190.0));
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 199 samples: p95 is rank 190 with only nine beyond.
        assert_eq!(percentile(&ramp(199), 95), None);
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_and_quartiles_follow_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v = ramp(10);
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // Unsorted input, odd count: quantiles([5,1,4,2,3]) == [1.5, 3, 4.5]
        let w = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quartiles(&w), Some((1.5, 4.5)));
        assert_eq!(median(&w), Some(3.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
