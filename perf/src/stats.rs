//! Order statistics over run and chunk samples.
//!
//! Quantiles follow Python's `statistics.quantiles` (default "exclusive"
//! method), so the spreads this crate prints are the ones Python gives
//! for the same numbers.

/// The `i`-th of the `n`-quantiles of `xs` (`0 < i < n`), by the
/// exclusive method of Python's `statistics.quantiles`. A single sample is
/// its own quantile.
///
/// # Panics
///
/// Panics if `xs` is empty or `i` is not in `1..n`.
pub fn quantile(xs: &[f64], i: usize, n: usize) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    assert!(0 < i && i < n, "quantile index {i} outside 1..{n}");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 1, 2)
}

/// The median absolute deviation from the median (unscaled).
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The first and third quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    (quantile(xs, 1, 4), quantile(xs, 3, 4))
}

/// The smallest sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are Python's `statistics.quantiles` / `median` on
    // the same vectors.
    #[test]
    fn quantiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        assert!((quantile(&ten, 9, 10) - 9.9).abs() < 1e-12);

        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((quantile(&[3.0, 1.0, 2.0], 9, 10) - 3.6).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0]), (1.5, 8.5));
        assert_eq!(quantile(&[7.0, 1.0, 3.0, 9.0], 9, 10), 10.0);
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            (4.0, 6.5)
        );
        assert_eq!(quantile(&[4.25], 3, 4), 4.25);
    }

    #[test]
    fn median_and_mad_on_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mad(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[7.0, 1.0, 3.0, 9.0]), 5.0);
        assert_eq!(mad(&[7.0, 1.0, 3.0, 9.0]), 3.0);
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(median(&v), 4.5);
        assert_eq!(mad(&v), 0.5);
        assert_eq!(mad(&[5.5, 5.5]), 0.0);
        assert_eq!(min(&v), 2.0);
    }
}
