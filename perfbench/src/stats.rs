//! Order statistics over per-op samples and per-run metric values.

/// The median, as Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default
/// `exclusive` method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The samples beyond the tail percentile: the tail is the highest
/// percentile that still has this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `samples` that still has [`TAIL_BEYOND`]
/// samples above it, as `(value, percentile)`. `None` when there are
/// too few samples for such a percentile to exist.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Rank n - TAIL_BEYOND (1-based) has exactly TAIL_BEYOND samples above it.
    let rank = n - TAIL_BEYOND;
    Some((sorted(samples)[rank - 1], 100.0 * rank as f64 / n as f64))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        // Eleven samples: the lowest one is the only value with ten above.
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (value, pct) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // A hundred samples: p90 exactly, with samples 91..=100 beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let beyond = hundred.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }
}
