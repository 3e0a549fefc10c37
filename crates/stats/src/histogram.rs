//! Bounded integer histograms with an overflow bucket.

use std::fmt;

use hbdc_snap::{SnapError, StateReader, StateWriter};

/// A histogram over small non-negative integer samples with a fixed number
/// of direct buckets and a single overflow bucket.
///
/// Used throughout the workspace for distributions such as "memory accesses
/// granted per cycle" or "combined references per line-buffer fill", where
/// the interesting domain is `0..=N` for small `N`.
///
/// # Examples
///
/// ```
/// use hbdc_stats::Histogram;
///
/// let mut h = Histogram::new("grants/round", 4);
/// h.record(0);
/// h.record(2);
/// h.record(2);
/// h.record(99); // overflow
/// assert_eq!(h.iter().map(|(_, n)| n).collect::<Vec<_>>(), [1, 0, 2, 0, 0]);
/// assert_eq!(h.total(), 4);
/// assert_eq!(h.quantile(1.0), Some(4)); // overflow reads as the last bucket
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with direct buckets for values `0..=max_value`.
    ///
    /// # Panics
    ///
    /// Panics if `max_value` exceeds `1 << 20`, a guard against accidentally
    /// allocating an enormous bucket array from an unvalidated config value.
    pub fn new(name: impl Into<String>, max_value: usize) -> Self {
        assert!(max_value <= 1 << 20, "histogram bucket range too large");
        Self {
            name: name.into(),
            buckets: vec![0; max_value + 1],
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Rebuilds a histogram from its direct bucket counts (`counts[v]`
    /// samples of value `v`, none in overflow) — the inverse of
    /// [`iter`](Self::iter).
    pub fn from_counts(name: impl Into<String>, counts: Vec<u64>) -> Self {
        let total = counts.iter().sum();
        let sum = counts.iter().zip(0u64..).map(|(&c, v)| c * v).sum();
        Self {
            name: name.into(),
            buckets: counts,
            overflow: 0,
            total,
            sum,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: usize) {
        if let Some(b) = self.buckets.get_mut(value) {
            *b += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += value as u64;
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all recorded samples; `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Iterates over `(value, count)` pairs for the direct buckets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate()
    }

    /// The smallest direct-bucket value `v` such that at least
    /// `q * total` samples are `<= v`. Overflow samples count as larger
    /// than every direct bucket. Returns `None` for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q), "quantile out of [0, 1]");
        if self.total == 0 {
            return None;
        }
        let threshold = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, c) in self.iter() {
            seen += c;
            if seen >= threshold {
                return Some(v);
            }
        }
        // Quantile falls in the overflow bucket: report the last direct
        // bucket as a floor.
        Some(self.buckets.len() - 1)
    }

    /// Serializes the counts (the name and bucket range come from the
    /// constructor and are not written).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.buckets.len());
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.overflow);
        w.put_u64(self.total);
        w.put_u64(self.sum);
    }

    /// Restores counts written by [`save_state`](Self::save_state) into a
    /// histogram constructed with the same bucket range.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the serialized bucket count does not
    /// match this histogram's range, or any decode error.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n != self.buckets.len() {
            return Err(SnapError::Corrupt(format!(
                "histogram `{}`: {} serialized buckets, {} configured",
                self.name,
                n,
                self.buckets.len()
            )));
        }
        for b in &mut self.buckets {
            *b = r.get_u64()?;
        }
        self.overflow = r.get_u64()?;
        self.total = r.get_u64()?;
        self.sum = r.get_u64()?;
        Ok(())
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (n={}, mean={:.3})",
            self.name,
            self.total,
            self.mean()
        )?;
        for (v, c) in self.iter() {
            if c > 0 {
                writeln!(f, "  {v:>4}: {c}")?;
            }
        }
        if self.overflow > 0 {
            writeln!(f, "  >{}: {}", self.buckets.len() - 1, self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_range() {
        let mut h = Histogram::new("h", 3);
        for v in [0, 1, 1, 3] {
            h.record(v);
        }
        assert_eq!(h.iter().map(|(_, n)| n).collect::<Vec<_>>(), [1, 2, 0, 1]);
        assert_eq!(h.total(), 4);
        assert!(!h.to_string().contains('>'), "no overflow line");
    }

    #[test]
    fn overflow_counts_out_of_range() {
        let mut h = Histogram::new("h", 1);
        h.record(2);
        h.record(100);
        assert!(h.iter().all(|(_, n)| n == 0));
        assert_eq!(h.total(), 2);
        assert!(h.to_string().contains("  >1: 2"), "{h}");
    }

    #[test]
    fn mean_includes_overflow_values() {
        let mut h = Histogram::new("h", 1);
        h.record(0);
        h.record(4); // overflow bucket, but sum still tracks true value
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new("h", 4).mean(), 0.0);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new("h", 10);
        for v in [1, 2, 2, 3, 9] {
            h.record(v);
        }
        let counts = h.iter().map(|(_, n)| n).collect();
        assert_eq!(Histogram::from_counts("h", counts), h);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(0.8), Some(3));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(Histogram::new("e", 4).quantile(0.5), None);
    }

    #[test]
    fn quantile_with_overflow_reports_last_bucket() {
        let mut h = Histogram::new("h", 2);
        h.record(0);
        h.record(50);
        h.record(60);
        assert_eq!(h.quantile(1.0), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn quantile_rejects_bad_q() {
        Histogram::new("h", 2).quantile(1.5);
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut h = Histogram::new("h", 4);
        for v in [0, 1, 1, 3, 99] {
            h.record(v);
        }
        let mut w = StateWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Histogram::new("h", 4);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored, h);
    }

    #[test]
    fn load_rejects_mismatched_range() {
        let h = Histogram::new("h", 4);
        let mut w = StateWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong = Histogram::new("h", 8);
        assert!(matches!(
            wrong.load_state(&mut StateReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn display_lists_nonzero_buckets() {
        let mut h = Histogram::new("h", 2);
        h.record(1);
        h.record(9);
        let s = h.to_string();
        assert!(s.contains("1:"));
        assert!(s.contains(">2: 1"));
    }
}
