//! Aggregate summaries over slices.
//!
//! The paper reports "SPECint Ave." and "SPECfp Ave." rows as arithmetic
//! means of per-benchmark IPC; [`arithmetic_mean`] regenerates those rows.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(hbdc_stats::summary::arithmetic_mean(&[1.0, 3.0]), 2.0);
/// ```
pub fn arithmetic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_mean_empty_is_zero() {
        assert_eq!(arithmetic_mean(&[]), 0.0);
    }

    #[test]
    fn arithmetic_mean_basic() {
        assert!((arithmetic_mean(&[2.0, 4.0, 9.0]) - 5.0).abs() < 1e-12);
    }
}
