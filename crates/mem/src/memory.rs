//! Sparse, paged flat memory for the functional emulator.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Entries in the recently-used frame cache. The FP stencils interleave
/// accesses to several arrays on different pages, so a small cache
/// thrashes: at `Scale::Small`, 4 entries miss on 61% of swim's accesses
/// and 11% of gcc's, 8 entries on at most 2.2% of any analog's but
/// su2cor's (7%: it sweeps 256 pages).
const RECENT: usize = 8;

/// A `recent` slot that matches no page: page numbers are `addr >> 12`,
/// so they never reach `u64::MAX`.
const NO_PAGE: (u64, usize) = (u64::MAX, 0);

/// A sparse, byte-addressable 64-bit memory backed by 4KB pages allocated
/// on first touch. Unwritten memory reads as zero, and an access running
/// past the top of the address space wraps to address 0.
///
/// Pages live as frames in a `Vec`; a `HashMap` maps each page number
/// to its frame, and a small cache of recently used (page, frame) pairs
/// sits in front of that map. An access inside one page costs one frame
/// lookup and one slice copy; only an access straddling two pages steps
/// byte by byte.
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
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page number to index into `frames`. Page numbers come from the
    /// simulated program, so the map keeps the default (DoS-resistant)
    /// hasher.
    index: HashMap<u64, usize>,
    frames: Vec<Box<[u8]>>,
    /// Recently used (page number, frame index) pairs, refilled round
    /// robin from `next`. Interior mutability lets `&self` reads refill it.
    recent: [Cell<(u64, usize)>; RECENT],
    next: Cell<usize>,
}

impl Default for Memory {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            frames: Vec::new(),
            recent: [const { Cell::new(NO_PAGE) }; RECENT],
            next: Cell::new(0),
        }
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4KB pages currently allocated.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// The frame holding page number `page`, if it is resident.
    fn frame_of(&self, page: u64) -> Option<usize> {
        if let Some(slot) = self.recent.iter().find(|s| s.get().0 == page) {
            return Some(slot.get().1);
        }
        let frame = *self.index.get(&page)?;
        self.remember(page, frame);
        Some(frame)
    }

    fn remember(&self, page: u64, frame: usize) {
        let next = self.next.get();
        self.recent[next].set((page, frame));
        self.next.set((next + 1) % RECENT);
    }

    /// The page holding `addr`, if it is resident. Never allocates.
    fn page(&self, addr: u64) -> Option<&[u8]> {
        self.frame_of(addr >> PAGE_SHIFT)
            .map(|f| &self.frames[f][..])
    }

    /// The page holding `addr`, allocated zero-filled on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        let page = addr >> PAGE_SHIFT;
        let frame = match self.frame_of(page) {
            Some(f) => f,
            None => {
                let f = self.frames.len();
                self.frames.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
                self.index.insert(page, f);
                self.remember(page, f);
                f
            }
        };
        &mut self.frames[frame]
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
    /// page boundaries, and wrap past `u64::MAX` to address 0.
    pub fn read_le(&self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let mut buf = [0u8; 8];
        let off = (addr & PAGE_MASK) as usize;
        if off + n <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                buf[..n].copy_from_slice(&p[off..off + n]);
            }
        } else {
            for (i, b) in buf[..n].iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        u64::from_le_bytes(buf)
    }

    /// Writes the low `n <= 8` bytes of `value` little-endian. Accesses
    /// may cross page boundaries, and wrap past `u64::MAX` to address 0.
    pub fn write_le(&mut self, addr: u64, value: u64, n: usize) {
        debug_assert!(n <= 8);
        let bytes = value.to_le_bytes();
        let off = (addr & PAGE_MASK) as usize;
        if off + n <= PAGE_SIZE {
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
        } else {
            for (i, &b) in bytes[..n].iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
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

    /// Copies a byte slice into memory starting at `addr`, one page at a
    /// time, wrapping past `u64::MAX` to address 0.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (head, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + head.len()].copy_from_slice(head);
            addr = addr.wrapping_add(head.len() as u64);
            bytes = rest;
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
    fn accesses_past_the_top_of_the_address_space_wrap_to_zero() {
        for n in [2usize, 4, 8] {
            for k in 0..n as u64 - 1 {
                let addr = u64::MAX - k;
                let mut m = Memory::new();
                assert_eq!(m.read_le(addr, n), 0);
                assert_eq!(m.resident_pages(), 0, "reads never allocate");
                let value = 0x8877_6655_4433_2211u64;
                m.write_le(addr, value, n);
                // Byte i lands at addr + i modulo 2^64: the top page and page 0.
                for i in 0..n as u64 {
                    assert_eq!(m.read_u8(addr.wrapping_add(i)), (value >> (8 * i)) as u8);
                }
                let mask = if n == 8 { u64::MAX } else { (1 << (8 * n)) - 1 };
                assert_eq!(m.read_le(addr, n), value & mask, "{n} bytes at MAX-{k}");
                assert_eq!(m.resident_pages(), 2);
            }
        }
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
