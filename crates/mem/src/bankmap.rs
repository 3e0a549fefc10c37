//! Bank-selection functions for interleaved caches.
//!
//! The paper (§3.2, Figure 2c) uses *bit selection* — the low bits of the
//! cache-line number choose the bank, giving a line-interleaved layout.
//! It notes that "many bank selection functions have been proposed"
//! ([10][11]) but argues complex functions are unattractive for caches and
//! that the choice "may not be as critical as we thought since much of the
//! loss of bandwidth due to same bank collisions map to the same cache
//! line." The alternatives here exist to test exactly that claim
//! (ablation A in DESIGN.md).

/// A bank-selection function: maps an address to a bank index.
///
/// Every variant but [`BankSelect::Word`] operates on the *line number*
/// (address shifted down by the line size), so the data layout is
/// line-interleaved — the paper's requirement for avoiding tag
/// replication (§5.1).
///
/// # Examples
///
/// ```
/// use hbdc_mem::BankMapper;
///
/// let m = BankMapper::bit_select(4, 32);
/// assert_eq!(m.bank_of(0x00), 0);
/// assert_eq!(m.bank_of(0x20), 1); // next line, next bank
/// assert_eq!(m.bank_of(0x80), 0); // wraps around 4 banks
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankMapper {
    kind: BankSelect,
    banks: u32,
    line_shift: u32,
}

/// Which bank-selection function an interleaved cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankSelect {
    /// Bit selection on the line number (the paper's choice, Figure 2c).
    #[default]
    BitSelect,
    /// XOR-fold of successive bank-width fields of the line number:
    /// spreads strided streams whose stride is a multiple of
    /// `banks * line_size` (which defeats bit selection).
    XorFold,
    /// Pseudo-random multiplicative hash (Rau, ISCA-18 1991), so that any
    /// fixed stride distributes near-uniformly.
    PseudoRandom,
    /// Bit selection on the 8-byte word number: a line spreads across
    /// the banks, so each bank needs its own copy of the tag (paper §3,
    /// footnote a; ablation D).
    Word,
}

/// Interleaving unit of [`BankSelect::Word`], in bytes.
const WORD_BYTES: u64 = 8;

impl BankMapper {
    /// Creates a mapper with an explicit selection function.
    pub fn with_select(kind: BankSelect, banks: u32, line_size: u64) -> Self {
        assert!(
            banks >= 1 && banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            kind,
            banks,
            line_shift: line_size.trailing_zeros(),
        }
    }

    /// Bit selection (the paper's choice): bank = low bits of line number.
    pub fn bit_select(banks: u32, line_size: u64) -> Self {
        Self::with_select(BankSelect::BitSelect, banks, line_size)
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Maps an address to its bank index in `0..banks`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        let line = addr >> self.line_shift;
        let mask = (self.banks - 1) as u64;
        let bank = match self.kind {
            BankSelect::Word => (addr / WORD_BYTES) & mask,
            BankSelect::BitSelect => line & mask,
            BankSelect::XorFold => {
                let w = self.banks.trailing_zeros().max(1);
                let mut acc = 0u64;
                let mut v = line;
                while v != 0 {
                    acc ^= v & mask;
                    v >>= w;
                }
                acc & mask
            }
            BankSelect::PseudoRandom => {
                // Fibonacci-style multiplicative hash; the constant is the
                // 64-bit golden-ratio multiplier.
                (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) & mask
            }
        };
        bank as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_select_is_line_interleaved() {
        let m = BankMapper::bit_select(4, 32);
        for line in 0u64..16 {
            assert_eq!(m.bank_of(line * 32), (line % 4) as u32);
            // Every byte of a line maps to the same bank.
            assert_eq!(m.bank_of(line * 32 + 31), (line % 4) as u32);
        }
    }

    #[test]
    fn single_bank_always_zero() {
        for m in [
            BankMapper::bit_select(1, 32),
            BankMapper::with_select(BankSelect::XorFold, 1, 32),
            BankMapper::with_select(BankSelect::PseudoRandom, 1, 32),
        ] {
            assert_eq!(m.bank_of(0xdead_beef), 0);
            assert_eq!(m.banks(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_banks_panics() {
        BankMapper::bit_select(3, 32);
    }

    #[test]
    fn all_mappers_stay_in_range() {
        for m in [
            BankMapper::bit_select(8, 32),
            BankMapper::with_select(BankSelect::XorFold, 8, 32),
            BankMapper::with_select(BankSelect::PseudoRandom, 8, 32),
        ] {
            for i in 0..1000u64 {
                assert!(m.bank_of(i * 13 + 7) < 8);
            }
        }
    }

    #[test]
    fn all_mappers_are_line_consistent() {
        // Two addresses in the same line must always hit the same bank —
        // otherwise a single access would span banks.
        for m in [
            BankMapper::bit_select(4, 32),
            BankMapper::with_select(BankSelect::XorFold, 4, 32),
            BankMapper::with_select(BankSelect::PseudoRandom, 4, 32),
        ] {
            for line in 0u64..200 {
                let base = line * 32;
                let b = m.bank_of(base);
                for off in [1u64, 8, 16, 31] {
                    assert_eq!(m.bank_of(base + off), b);
                }
            }
        }
    }

    #[test]
    fn word_select_spreads_a_line_across_the_banks() {
        let m = BankMapper::with_select(BankSelect::Word, 4, 32);
        let banks: Vec<u32> = (0..4).map(|w| m.bank_of(0x40 + w * 8)).collect();
        assert_eq!(banks, [0, 1, 2, 3]);
        // The same layout as bit selection with an 8-byte "line".
        let words = BankMapper::bit_select(4, 8);
        for addr in (0..4096u64).step_by(4) {
            assert_eq!(m.bank_of(addr), words.bank_of(addr));
        }
    }

    #[test]
    fn xor_fold_spreads_power_of_two_strides() {
        // Stride of banks*line_size defeats bit selection entirely (all
        // references land in bank 0) but xor-fold must spread them.
        let bits = BankMapper::bit_select(4, 32);
        let fold = BankMapper::with_select(BankSelect::XorFold, 4, 32);
        let stride = 4 * 32u64;
        let bit_banks: Vec<u32> = (0..64).map(|i| bits.bank_of(i * stride)).collect();
        assert!(bit_banks.iter().all(|&b| b == 0));
        let fold_banks: std::collections::HashSet<u32> =
            (0..64).map(|i| fold.bank_of(i * stride)).collect();
        assert!(fold_banks.len() > 1);
    }

    #[test]
    fn pseudo_random_is_roughly_uniform_on_sequential_lines() {
        let m = BankMapper::with_select(BankSelect::PseudoRandom, 4, 32);
        let mut counts = [0u32; 4];
        for line in 0..4000u64 {
            counts[m.bank_of(line * 32) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed distribution: {counts:?}");
        }
    }
}
