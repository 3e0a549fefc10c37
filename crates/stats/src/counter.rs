//! Named monotonic event counters.

use std::fmt;

use hbdc_snap::{SnapError, StateReader, StateWriter};

/// A named, monotonically increasing event counter.
///
/// Counters are the basic accounting primitive of every simulator in this
/// workspace: committed instructions, cache hits, bank conflicts, combined
/// accesses, and so on.
///
/// # Examples
///
/// ```
/// use hbdc_stats::Counter;
///
/// let mut conflicts = Counter::new("bank.conflicts");
/// conflicts.incr();
/// conflicts.incr();
/// assert_eq!(conflicts.value(), 2);
/// assert_eq!(conflicts.to_string(), "bank.conflicts = 2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a new counter with the given name, starting at zero.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: 0,
        }
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Increments the counter by one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Serializes the count (the name comes from the constructor and is
    /// not written).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.value);
    }

    /// Restores a count written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Any decode error from the reader.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.value = r.get_u64()?;
        Ok(())
    }

    /// This counter's value as a fraction of `denominator`'s value.
    ///
    /// Returns `0.0` when the denominator is zero, which is the convention
    /// every report in this workspace wants (an event rate over an empty run
    /// is reported as zero, not NaN).
    pub fn rate_of(&self, denominator: &Counter) -> f64 {
        if denominator.value == 0 {
            0.0
        } else {
            self.value as f64 / denominator.value as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_counter_is_zero() {
        let c = Counter::new("x");
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn incr_accumulates() {
        let mut c = Counter::new("x");
        c.incr();
        c.incr();
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn rate_of_handles_zero_denominator() {
        let a = Counter::new("a");
        let b = Counter::new("b");
        assert_eq!(a.rate_of(&b), 0.0);
    }

    #[test]
    fn rate_of_computes_fraction() {
        let mut a = Counter::new("a");
        let mut b = Counter::new("b");
        a.incr();
        (0..4).for_each(|_| b.incr());
        assert!((a.rate_of(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut c = Counter::new("hits");
        (0..17).for_each(|_| c.incr());
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Counter::new("hits");
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored, c);
    }

    #[test]
    fn display_contains_name_and_value() {
        let mut c = Counter::new("hits");
        (0..3).for_each(|_| c.incr());
        assert_eq!(c.to_string(), "hits = 3");
    }
}
