//! Finite-window bank-pressure analysis under arbitrary bank mappers.

use hbdc_mem::BankMapper;

use crate::stream::MemRef;

/// Measures how well a [`BankMapper`] spreads a reference stream.
///
/// The stream is cut into fixed-size windows — a proxy for the group of
/// references a wide machine offers the cache in one cycle — and each
/// window is scored: references that map to a bank already claimed by an
/// older reference *in a different line* count as conflicts; same-line
/// collisions are counted separately because the LBIC can combine them.
///
/// This drives ablation A (bank-selection functions): the paper argues
/// that fancy mappers are unattractive because "much of the loss of
/// bandwidth due to same bank collisions map to the same cache line."
///
/// # Examples
///
/// ```
/// use hbdc_mem::BankMapper;
/// use hbdc_trace::{ConflictAnalysis, MemRef};
///
/// let mut a = ConflictAnalysis::new(BankMapper::bit_select(4, 32), 4);
/// a.extend((0..16u64).map(|i| MemRef::load(i * 128))); // stride = 4 lines
/// assert!(a.conflict_rate() > 0.5); // bit selection collapses to one bank
/// ```
#[derive(Debug, Clone)]
pub struct ConflictAnalysis {
    mapper: BankMapper,
    window: usize,
    buf: Vec<u64>, // addresses of the current window
    refs: u64,
    conflicts: u64,
    same_line_collisions: u64,
    line_shift: u32,
}

impl ConflictAnalysis {
    /// Creates an analysis with the given mapper and window size
    /// (references considered "simultaneous").
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(mapper: BankMapper, window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        Self {
            mapper,
            window,
            buf: Vec::with_capacity(window),
            refs: 0,
            conflicts: 0,
            same_line_collisions: 0,
            line_shift: 5, // fixed 32-byte lines, the paper's L1
        }
    }

    fn flush(&mut self) {
        for (i, &a) in self.buf.iter().enumerate() {
            let bank = self.mapper.bank_of(a);
            let line = a >> self.line_shift;
            for &b in &self.buf[..i] {
                if self.mapper.bank_of(b) == bank {
                    if b >> self.line_shift == line {
                        self.same_line_collisions += 1;
                    } else {
                        self.conflicts += 1;
                    }
                    break; // count each reference at most once
                }
            }
        }
        self.buf.clear();
    }

    /// Feeds one reference.
    pub fn record(&mut self, r: MemRef) {
        self.refs += 1;
        self.buf.push(r.addr);
        if self.buf.len() == self.window {
            self.flush();
        }
    }

    /// Feeds many references.
    pub fn extend(&mut self, refs: impl IntoIterator<Item = MemRef>) {
        for r in refs {
            self.record(r);
        }
    }

    /// Completes any partial window and returns total references seen.
    pub fn finish(&mut self) -> u64 {
        self.flush();
        self.refs
    }

    /// References seen so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Fraction of references that conflicted (same bank, different line)
    /// with an older reference in their window.
    pub fn conflict_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.refs as f64
        }
    }

    /// Fraction of references that collided with an older same-window
    /// reference in the same bank *and line* — bandwidth an LBIC recovers.
    pub fn same_line_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.same_line_collisions as f64 / self.refs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_mem::BankSelect;

    #[test]
    fn spread_stream_has_no_conflicts() {
        let mut a = ConflictAnalysis::new(BankMapper::bit_select(4, 32), 4);
        a.extend((0..16u64).map(|i| MemRef::load(i * 32))); // round-robin banks
        a.finish();
        assert_eq!(a.conflict_rate(), 0.0);
        assert_eq!(a.same_line_rate(), 0.0);
    }

    #[test]
    fn same_line_pairs_are_not_conflicts() {
        let mut a = ConflictAnalysis::new(BankMapper::bit_select(4, 32), 2);
        a.extend([MemRef::load(0x100), MemRef::load(0x108)]);
        a.finish();
        assert_eq!(a.conflict_rate(), 0.0);
        assert!(a.same_line_rate() > 0.0);
    }

    #[test]
    fn pathological_stride_conflicts_under_bit_select() {
        let stride = 4 * 32u64; // multiple of banks*line: all in bank 0
        let mut bits = ConflictAnalysis::new(BankMapper::bit_select(4, 32), 4);
        bits.extend((0..64u64).map(|i| MemRef::load(i * stride)));
        bits.finish();
        let mut rand =
            ConflictAnalysis::new(BankMapper::with_select(BankSelect::PseudoRandom, 4, 32), 4);
        rand.extend((0..64u64).map(|i| MemRef::load(i * stride)));
        rand.finish();
        assert!(bits.conflict_rate() > rand.conflict_rate());
    }

    #[test]
    fn partial_window_flushed_by_finish() {
        let mut a = ConflictAnalysis::new(BankMapper::bit_select(2, 32), 4);
        a.extend([MemRef::load(0x00), MemRef::load(0x40)]); // same bank, 2 lines
        assert_eq!(a.conflict_rate(), 0.0); // window not yet full
        assert_eq!(a.finish(), 2);
        assert!(a.conflict_rate() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_panics() {
        ConflictAnalysis::new(BankMapper::bit_select(2, 32), 0);
    }
}
