//! Order statistics, computed the way Python's `statistics` module does.

/// The median (mean of the middle two for an even count); NaN if empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// `[q1, median, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => [f64::NAN; 3],
        1 => [data[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (i, slot) in (1..4).zip(out.iter_mut()) {
                let j = (i * m / 4).clamp(1, len - 1);
                // Negative when the clamp raised `j`: Python extrapolates.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(median(&[]).is_nan());
    }
}
