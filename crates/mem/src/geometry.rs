//! Cache size / line / associativity arithmetic.

/// Geometry of a cache: total size, line size, and associativity.
///
/// Provides the address decompositions of the paper's Figure 2c: line
/// offset, set index ("line selector"), and tag. Bank selection (the `bs`
/// field) is handled separately by [`BankMapper`](crate::BankMapper),
/// because it applies to whole cache structures, not individual arrays.
///
/// # Examples
///
/// ```
/// use hbdc_mem::CacheGeometry;
///
/// // The paper's L1: 32KB direct-mapped with 32-byte lines.
/// let g = CacheGeometry::new(32 * 1024, 32, 1);
/// assert_eq!(g.num_sets(), 1024);
/// assert_eq!(g.line_addr(0x1234), 0x1220);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size: u64,
    line_size: u64,
    assoc: u32,
    line_shift: u32,
    num_sets: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size`, `line_size` are powers of two, `assoc >= 1`,
    /// and `size` is divisible by `line_size * assoc` into a power-of-two
    /// set count.
    pub fn new(size: u64, line_size: u64, assoc: u32) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc >= 1, "associativity must be at least 1");
        let lines = size / line_size;
        assert!(
            lines >= assoc as u64,
            "cache must hold at least one set ({lines} lines < {assoc}-way)"
        );
        let num_sets = lines / assoc as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            size,
            line_size,
            assoc,
            line_shift: line_size.trailing_zeros(),
            num_sets,
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// log2 of the line size.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// The line-aligned base address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    /// The set index of `addr`.
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & (self.num_sets - 1)
    }

    /// The tag of `addr` (everything above the set index).
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> (self.line_shift + self.num_sets.trailing_zeros())
    }

    /// Reconstructs a line-aligned address from `(tag, set_index)` — the
    /// inverse of [`tag`](Self::tag)/[`set_index`](Self::set_index), used
    /// when evicting dirty victims.
    pub fn rebuild_addr(&self, tag: u64, set_index: u64) -> u64 {
        (tag << (self.line_shift + self.num_sets.trailing_zeros())) | (set_index << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 32, 1)
    }

    fn l2() -> CacheGeometry {
        CacheGeometry::new(512 * 1024, 64, 4)
    }

    #[test]
    fn paper_l1_dimensions() {
        let g = l1();
        assert_eq!(g.num_sets(), 1024);
        assert_eq!(g.line_shift(), 5);
        assert_eq!(g.assoc(), 1);
        assert_eq!(g.size(), 32768);
        assert_eq!(g.line_size(), 32);
    }

    #[test]
    fn paper_l2_dimensions() {
        let g = l2();
        assert_eq!(g.num_sets(), 2048);
        assert_eq!(g.assoc(), 4);
    }

    #[test]
    fn address_decomposition() {
        let g = l1();
        let addr = 0x0001_2345u64;
        assert_eq!(g.line_addr(addr), 0x0001_2340);
        assert_eq!(g.set_index(addr), (addr >> 5) & 1023);
        assert_eq!(g.tag(addr), addr >> 15);
    }

    #[test]
    fn rebuild_addr_inverts_decomposition() {
        let g = l1();
        for addr in [0u64, 0x1000_0020, 0x7fff_ffe0, 0xdead_bee0] {
            let rebuilt = g.rebuild_addr(g.tag(addr), g.set_index(addr));
            assert_eq!(rebuilt, g.line_addr(addr));
        }
        let g = l2();
        let addr = 0x1234_5678u64;
        assert_eq!(
            g.rebuild_addr(g.tag(addr), g.set_index(addr)),
            g.line_addr(addr)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_size_panics() {
        CacheGeometry::new(3000, 32, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_assoc_panics() {
        CacheGeometry::new(1024, 32, 0);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn oversized_assoc_panics() {
        CacheGeometry::new(64, 32, 4);
    }

    #[test]
    fn fully_associative_is_one_set() {
        let g = CacheGeometry::new(1024, 32, 32);
        assert_eq!(g.num_sets(), 1);
        assert_eq!(g.set_index(0xabcdef), 0);
    }
}
