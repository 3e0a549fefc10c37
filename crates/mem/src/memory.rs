//! Sparse, paged flat memory for the functional emulator.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse, byte-addressable 64-bit memory backed by 4KB pages allocated
/// on first touch. Unwritten memory reads as zero.
///
/// This is the *functional* data store; it carries no timing. All cache
/// models in this workspace are tag-only and consult this memory never —
/// data correctness is the emulator's business, timing is the cache's.
///
/// # Examples
///
/// ```
/// use hbdc_mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u8(0x1000), 0x0d); // little-endian
/// assert_eq!(m.read_u32(0x9999_0000), 0); // untouched reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4KB pages currently allocated.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, addr: u64) -> Option<&[u8]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &p[..])
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)
            .map(|p| p[(addr & PAGE_MASK) as usize])
            .unwrap_or(0)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `n <= 8` bytes little-endian into a `u64`. Accesses may cross
    /// page boundaries.
    pub fn read_le(&self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let mut v: u64 = 0;
        for i in 0..n {
            v |= (self.read_u8(addr + i as u64) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `value` little-endian.
    pub fn write_le(&mut self, addr: u64, value: u64, n: usize) {
        debug_assert!(n <= 8);
        for i in 0..n {
            self.write_u8(addr + i as u64, (value >> (8 * i)) as u8);
        }
    }

    /// Reads a `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.read_le(addr, 2) as u16
    }

    /// Writes a `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_le(addr, value as u64, 2);
    }

    /// Reads a `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_le(addr, value as u64, 4);
    }

    /// Reads a `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_le(addr, value, 8);
    }

    /// Reads an `f64` (IEEE bits).
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` (IEEE bits).
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Reads an `f32` (IEEE bits).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` (IEEE bits).
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX - 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn byte_roundtrip_allocates_page() {
        let mut m = Memory::new();
        m.write_u8(0x1234, 0xab);
        assert_eq!(m.read_u8(0x1234), 0xab);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x101), 2);
        assert_eq!(m.read_u8(0x102), 3);
        assert_eq!(m.read_u8(0x103), 4);
        assert_eq!(m.read_u16(0x100), 0x0201);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 4; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn float_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(0x200, -1234.5678);
        assert_eq!(m.read_f64(0x200), -1234.5678);
        m.write_f32(0x300, 2.5);
        assert_eq!(m.read_f32(0x300), 2.5);
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = Memory::new();
        m.write_bytes(0x400, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_u8(0x404), 5);
        assert_eq!(m.read_u32(0x400), 0x0403_0201);
    }

    #[test]
    fn overwrite_is_visible() {
        let mut m = Memory::new();
        m.write_u64(0x500, 1);
        m.write_u64(0x500, 2);
        assert_eq!(m.read_u64(0x500), 2);
    }
}
