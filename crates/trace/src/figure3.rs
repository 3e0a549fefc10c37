//! The Figure 3 analyzer: consecutive-reference bank/line mapping.

use crate::stream::MemRef;

/// Classifies consecutive memory-reference pairs for an infinite
/// `M`-bank line-interleaved cache, reproducing the paper's Figure 3.
///
/// For each adjacent pair `(prev, next)` in the stream, the pair falls in
/// exactly one segment:
///
/// * **B-same-line** — same bank, same cache line (combinable locality);
/// * **B-diff-line** — same bank, different line (a true bank conflict
///   that more line-buffer ports cannot fix);
/// * **(B+i) mod M** for `i = 1..M` — the successor lands `i` banks ahead.
///
/// The cache is "infinite" in the sense of Figure 3's methodology: bank
/// and line are derived from the address alone; no capacity effects.
///
/// # Examples
///
/// ```
/// use hbdc_trace::{ConsecutiveMapping, MemRef};
///
/// let mut f3 = ConsecutiveMapping::new(4, 32);
/// f3.extend([MemRef::load(0x00), MemRef::load(0x80)]); // line 0 → line 4
/// assert_eq!(f3.diff_line_fraction(), 1.0); // same bank, 4 lines apart
/// ```
#[derive(Debug, Clone)]
pub struct ConsecutiveMapping {
    banks: u32,
    line_shift: u32,
    prev: Option<u64>, // previous line number
    same_line: u64,
    diff_line: u64,
    ahead: Vec<u64>, // ahead[i-1] counts (B+i) mod M
    pairs: u64,
}

impl ConsecutiveMapping {
    /// Creates an analyzer for an `banks`-bank cache with `line_size`-byte
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` and `line_size` are powers of two and
    /// `banks >= 2`.
    pub fn new(banks: u32, line_size: u64) -> Self {
        assert!(
            banks >= 2 && banks.is_power_of_two(),
            "need >= 2 banks, power of two"
        );
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            banks,
            line_shift: line_size.trailing_zeros(),
            prev: None,
            same_line: 0,
            diff_line: 0,
            ahead: vec![0; banks as usize - 1],
            pairs: 0,
        }
    }

    /// Feeds one reference.
    pub fn record(&mut self, r: MemRef) {
        let line = r.addr >> self.line_shift;
        if let Some(prev) = self.prev {
            self.pairs += 1;
            let pb = prev & (self.banks as u64 - 1);
            let nb = line & (self.banks as u64 - 1);
            if pb == nb {
                if prev == line {
                    self.same_line += 1;
                } else {
                    self.diff_line += 1;
                }
            } else {
                let i = (nb + self.banks as u64 - pb) % self.banks as u64;
                self.ahead[i as usize - 1] += 1;
            }
        }
        self.prev = Some(line);
    }

    /// Feeds many references.
    pub fn extend(&mut self, refs: impl IntoIterator<Item = MemRef>) {
        for r in refs {
            self.record(r);
        }
    }

    /// Number of consecutive pairs classified.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    fn frac(&self, n: u64) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            n as f64 / self.pairs as f64
        }
    }

    /// Fraction of pairs in the same bank *and* same line.
    pub fn same_line_fraction(&self) -> f64 {
        self.frac(self.same_line)
    }

    /// Fraction of pairs in the same bank but different lines.
    pub fn diff_line_fraction(&self) -> f64 {
        self.frac(self.diff_line)
    }

    /// Fraction of pairs whose successor lands `i` banks ahead
    /// (`1 <= i < banks`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or `>= banks`.
    pub fn ahead_fraction(&self, i: u32) -> f64 {
        assert!(i >= 1 && i < self.banks, "ahead index out of range");
        self.frac(self.ahead[i as usize - 1])
    }

    /// All five Figure 3 segments in presentation order:
    /// `[same_line, diff_line, (B+1), (B+2), ..., (B+M-1)]`. Sums to 1
    /// over a non-empty stream.
    pub fn segments(&self) -> Vec<f64> {
        let mut v = vec![self.same_line_fraction(), self.diff_line_fraction()];
        for i in 1..self.banks {
            v.push(self.ahead_fraction(i));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> MemRef {
        MemRef::load(n * 32)
    }

    #[test]
    fn sequential_lines_rotate_banks() {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.extend((0..9).map(line)); // lines 0..8: every pair is (B+1)
        assert_eq!(f3.pairs(), 8);
        assert_eq!(f3.ahead_fraction(1), 1.0);
        assert_eq!(f3.same_line_fraction() + f3.diff_line_fraction(), 0.0);
    }

    #[test]
    fn repeated_address_is_same_line() {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.extend([
            MemRef::load(0x100),
            MemRef::store(0x104),
            MemRef::load(0x11f),
        ]);
        assert_eq!(f3.same_line_fraction(), 1.0);
    }

    #[test]
    fn bank_stride_is_diff_line() {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.extend([line(0), line(4), line(8)]); // stride of 4 lines = same bank
        assert_eq!(f3.diff_line_fraction(), 1.0);
        assert_eq!(f3.same_line_fraction(), 0.0);
    }

    #[test]
    fn backward_stride_wraps_correctly() {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.extend([line(3), line(2)]); // bank 3 → bank 2 = 3 ahead (mod 4)
        assert_eq!(f3.ahead_fraction(3), 1.0);
    }

    #[test]
    fn segments_sum_to_one() {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.extend((0..100u64).map(|i| MemRef::load(i * 13 * 8)));
        let total: f64 = f3.segments().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(f3.segments().len(), 5); // same, diff, +1, +2, +3
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let f3 = ConsecutiveMapping::new(4, 32);
        assert_eq!(f3.pairs(), 0);
        assert_eq!(f3.same_line_fraction() + f3.diff_line_fraction(), 0.0);
        assert!(f3.segments().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn single_reference_creates_no_pairs() {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.record(line(7));
        assert_eq!(f3.pairs(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ahead_zero_panics() {
        ConsecutiveMapping::new(4, 32).ahead_fraction(0);
    }

    #[test]
    fn two_bank_analyzer() {
        let mut f3 = ConsecutiveMapping::new(2, 32);
        f3.extend([line(0), line(1), line(2)]);
        assert_eq!(f3.ahead_fraction(1), 1.0);
        assert_eq!(f3.segments().len(), 3);
    }
}
