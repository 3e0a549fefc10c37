//! Multiplicative (Fibonacci) hashing for the simulator's `u64`-keyed
//! hot-path maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Knuth's multiplicative constant, ⌊2⁶⁴/φ⌋ — the same one LBIC's
/// line index hashes with.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A [`Hasher`] for integer keys: one multiply, then the high half is
/// folded onto the low half so both the bucket index (low bits) and the
/// control tag (top bits) of the std table see well-mixed bits.
///
/// The keys here — line addresses and 8-byte block numbers — are
/// simulator-generated, not attacker-controlled, so SipHash's flooding
/// resistance buys nothing on the per-reference path. Iteration order is
/// not a concern either: every caller sorts or drains before anything
/// order-dependent is observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct FibHasher(u64);

impl Hasher for FibHasher {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(FIB);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// A `HashMap` keyed by `u64` and hashed with [`FibHasher`].
pub type FibHashMap<V> = HashMap<u64, V, BuildHasherDefault<FibHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Line addresses share their low five bits; the folded hash must
        // still spread them over a small table's bucket index.
        let build = BuildHasherDefault::<FibHasher>::default();
        let mut buckets = [0u32; 16];
        for line in 0..256u64 {
            buckets[(build.hash_one(line * 32) & 15) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&n| (8..=24).contains(&n)),
            "{buckets:?}"
        );
    }

    #[test]
    fn map_round_trips() {
        let mut m: FibHashMap<u64> = FibHashMap::default();
        for k in 0..1000u64 {
            m.insert(k * 64, k);
        }
        assert!((0..1000u64).all(|k| m.get(&(k * 64)) == Some(&k)));
        assert_eq!(m.remove(&64), Some(1));
        assert_eq!(m.len(), 999);
    }
}
