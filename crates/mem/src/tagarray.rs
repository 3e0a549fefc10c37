//! Tag store with true-LRU replacement and dirty bits.

use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::geometry::CacheGeometry;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64, // larger = more recently used
}

/// The result of a [`TagArray::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line is present; the access updated LRU (and the dirty bit for
    /// stores).
    Hit,
    /// The line is absent. No state was changed; call
    /// [`TagArray::fill`] to bring it in.
    Miss,
}

/// A tag-only cache array: per-set ways with valid/dirty bits and true-LRU
/// replacement. Used for both the direct-mapped L1 (where LRU degenerates
/// to trivial) and the 4-way L2 of the paper's memory system.
///
/// This models *presence* only — data contents live in the functional
/// [`Memory`](crate::Memory).
///
/// # Examples
///
/// ```
/// use hbdc_mem::{CacheGeometry, LookupResult, TagArray};
///
/// let mut tags = TagArray::new(CacheGeometry::new(1024, 32, 2));
/// assert_eq!(tags.lookup(0x40, false), LookupResult::Miss);
/// assert_eq!(tags.fill(0x40, false), None); // no victim: set had room
/// assert_eq!(tags.lookup(0x40, false), LookupResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    geom: CacheGeometry,
    ways: Vec<Way>, // num_sets * assoc, set-major
    clock: u64,
}

impl TagArray {
    /// Creates an empty (all-invalid) tag array with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = (geom.num_sets() * geom.assoc() as u64) as usize;
        Self {
            geom,
            ways: vec![Way::default(); n],
            clock: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = self.geom.set_index(addr) as usize;
        let assoc = self.geom.assoc() as usize;
        set * assoc..(set + 1) * assoc
    }

    /// Probes for `addr`'s line. On a hit, refreshes LRU and, if
    /// `is_store`, marks the line dirty. On a miss, leaves all state
    /// untouched.
    pub fn lookup(&mut self, addr: u64, is_store: bool) -> LookupResult {
        let tag = self.geom.tag(addr);
        let range = self.set_range(addr);
        self.clock += 1;
        let clock = self.clock;
        for way in &mut self.ways[range] {
            if way.valid && way.tag == tag {
                way.lru = clock;
                if is_store {
                    way.dirty = true;
                }
                return LookupResult::Hit;
            }
        }
        LookupResult::Miss
    }

    /// Read-only probe: whether `addr`'s line is present. Does not touch
    /// LRU or dirty state.
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.geom.tag(addr);
        self.ways[self.set_range(addr)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Fills `addr`'s line, evicting the LRU way if the set is full.
    ///
    /// Returns the line-aligned address of a *dirty* victim that must be
    /// written back, or `None` if no writeback is needed. The new line is
    /// marked dirty when `is_store` (write-allocate semantics).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is already present — callers
    /// must only fill after a miss.
    pub fn fill(&mut self, addr: u64, is_store: bool) -> Option<u64> {
        debug_assert!(!self.probe(addr), "fill of already-present line");
        let tag = self.geom.tag(addr);
        let set = self.geom.set_index(addr);
        let range = self.set_range(addr);
        self.clock += 1;
        let clock = self.clock;

        let ways = &mut self.ways[range];
        let victim_idx = match ways.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                // Evict true-LRU.
                let (i, _) = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .expect("associativity >= 1");
                i
            }
        };
        let victim = ways[victim_idx];
        let writeback =
            (victim.valid && victim.dirty).then(|| self.geom.rebuild_addr(victim.tag, set));
        ways[victim_idx] = Way {
            valid: true,
            dirty: is_store,
            tag,
            lru: clock,
        };
        writeback
    }

    /// Serializes every way (valid/dirty/tag/LRU) plus the LRU clock.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.ways.len());
        for way in &self.ways {
            w.put_bool(way.valid);
            w.put_bool(way.dirty);
            w.put_u64(way.tag);
            w.put_u64(way.lru);
        }
        w.put_u64(self.clock);
    }

    /// Restores ways written by [`save_state`](Self::save_state) into an
    /// array built with the same geometry.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the way count does not match this
    /// geometry, or any decode error.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n != self.ways.len() {
            return Err(SnapError::Corrupt(format!(
                "tag array has {} ways, snapshot carries {n}",
                self.ways.len()
            )));
        }
        for way in &mut self.ways {
            way.valid = r.get_bool()?;
            way.dirty = r.get_bool()?;
            way.tag = r.get_u64()?;
            way.lru = r.get_u64()?;
        }
        self.clock = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm() -> TagArray {
        TagArray::new(CacheGeometry::new(32 * 1024, 32, 1))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut t = dm();
        assert_eq!(t.lookup(0x1000, false), LookupResult::Miss);
        assert_eq!(t.fill(0x1000, false), None);
        assert_eq!(t.lookup(0x1000, false), LookupResult::Hit);
        assert_eq!(t.lookup(0x101f, false), LookupResult::Hit); // same line
        assert_eq!(t.lookup(0x1020, false), LookupResult::Miss); // next line
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut t = dm();
        t.fill(0x0000, false);
        // 32KB direct-mapped: address + 32K maps to the same set.
        assert_eq!(t.lookup(0x8000, false), LookupResult::Miss);
        assert_eq!(t.fill(0x8000, false), None); // victim was clean
        assert_eq!(t.lookup(0x0000, false), LookupResult::Miss); // evicted
    }

    #[test]
    fn dirty_victim_reports_writeback_address() {
        let mut t = dm();
        t.fill(0x0040, true); // dirty fill (write-allocate store)
        let wb = t.fill(0x8040, false);
        assert_eq!(wb, Some(0x0040));
    }

    #[test]
    fn store_hit_sets_dirty() {
        let mut t = dm();
        t.fill(0x0040, false);
        assert_eq!(t.lookup(0x0048, true), LookupResult::Hit);
        let wb = t.fill(0x8040, false);
        assert_eq!(wb, Some(0x0040));
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        // 2-way, 2 sets, 32B lines: set stride is 64B.
        let mut t = TagArray::new(CacheGeometry::new(128, 32, 2));
        t.fill(0x000, false); // set 0, way A
        t.fill(0x040, false); // set 0, way B  (0x40 >> 5 = 2, set = 0)
        t.lookup(0x000, false); // touch A: B is now LRU
        t.fill(0x080, false); // set 0 again: evicts B
        assert!(t.probe(0x000));
        assert!(!t.probe(0x040));
        assert!(t.probe(0x080));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut t = TagArray::new(CacheGeometry::new(128, 32, 2));
        t.fill(0x000, false);
        t.fill(0x040, false);
        t.probe(0x000); // must NOT refresh LRU
        t.fill(0x080, false); // evicts 0x000 (the true LRU)
        assert!(!t.probe(0x000));
        assert!(t.probe(0x040));
    }

    #[test]
    fn state_roundtrip_preserves_lru_and_dirty() {
        let mut t = TagArray::new(CacheGeometry::new(128, 32, 2));
        t.fill(0x000, true);
        t.fill(0x040, false);
        t.lookup(0x000, false); // refresh LRU of way A
        let mut w = StateWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = TagArray::new(CacheGeometry::new(128, 32, 2));
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        // Same fill now evicts the same victim in both arrays.
        assert_eq!(restored.fill(0x080, false), t.fill(0x080, false));
    }

    #[test]
    fn fill_into_4way_set_uses_free_ways_first() {
        let mut t = TagArray::new(CacheGeometry::new(512 * 1024, 64, 4));
        let stride = 512 * 1024 / 4; // same set, different tags
        for i in 0..4u64 {
            assert_eq!(t.fill(i * stride, false), None);
        }
        for i in 0..4u64 {
            assert!(t.probe(i * stride));
        }
        // Fifth fill evicts exactly one (the LRU = first filled).
        t.fill(4 * stride, false);
        assert!(!t.probe(0));
        assert!(t.probe(stride));
    }
}
