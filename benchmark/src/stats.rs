//! Order statistics for repetition samples, beside `mathkit::stats`'s
//! median. Quartiles use the same "exclusive" method as Python's
//! `statistics.quantiles(v, n=4)`, which `mathkit`'s inclusive `quantile`
//! is not, so a spread computed here matches the one the benchmark driver
//! computes.

/// First and third quartile. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let at = |q: f64| {
        // Position (n + 1)·q, 1-based, clamped into the sample.
        let pos = (v.len() as f64 + 1.0) * q;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// Nearest-rank percentile of an already sorted sample (0 when empty).
pub fn percentile_sorted<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // here into the sample because a quartile outside it is no spread.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 51);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted::<u64>(&[], 0.99), 0);
    }
}
