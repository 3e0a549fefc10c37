//! The L1 → L2 → DRAM timing model (paper Table 1).

use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::geometry::CacheGeometry;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::stats::CacheStats;
use crate::tagarray::{LookupResult, TagArray};

/// Configuration of the two-level data-memory hierarchy.
///
/// The default matches the paper's Table 1: a 32KB direct-mapped
/// write-back write-allocate L1 with 32-byte lines and a 1-cycle hit, a
/// 512KB 4-way L2 with 64-byte lines and a 4-cycle access (fully
/// pipelined, up to 64 pending), and a 10-cycle main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 capacity in bytes.
    pub l1_size: u64,
    /// L1 line size in bytes.
    pub l1_line: u64,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// L2 capacity in bytes.
    pub l2_size: u64,
    /// L2 line size in bytes.
    pub l2_line: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 access latency in cycles.
    pub l2_latency: u64,
    /// Main-memory access latency in cycles.
    pub mem_latency: u64,
    /// Number of L1 MSHRs (bound on outstanding misses).
    pub mshr_entries: usize,
}

impl HierarchyConfig {
    /// Serializes every configuration field.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.l1_size);
        w.put_u64(self.l1_line);
        w.put_u32(self.l1_assoc);
        w.put_u64(self.l1_hit_latency);
        w.put_u64(self.l2_size);
        w.put_u64(self.l2_line);
        w.put_u32(self.l2_assoc);
        w.put_u64(self.l2_latency);
        w.put_u64(self.mem_latency);
        w.put_usize(self.mshr_entries);
    }

    /// Decodes a configuration written by
    /// [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Any decode error from the reader.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            l1_size: r.get_u64()?,
            l1_line: r.get_u64()?,
            l1_assoc: r.get_u32()?,
            l1_hit_latency: r.get_u64()?,
            l2_size: r.get_u64()?,
            l2_line: r.get_u64()?,
            l2_assoc: r.get_u32()?,
            l2_latency: r.get_u64()?,
            mem_latency: r.get_u64()?,
            mshr_entries: r.get_usize()?,
        })
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1_size: 32 * 1024,
            l1_line: 32,
            l1_assoc: 1,
            l1_hit_latency: 1,
            l2_size: 512 * 1024,
            l2_line: 64,
            l2_assoc: 4,
            l2_latency: 4,
            mem_latency: 10,
            mshr_entries: 64,
        }
    }
}

/// The timing outcome of one data-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the L1 (including hits on lines whose
    /// fill is still in flight — those report `l1_hit = false` only on the
    /// access that initiated the miss).
    pub l1_hit: bool,
    /// The cycle at which the data is available (loads) or the store is
    /// absorbed.
    pub ready_at: u64,
    /// The access was rejected because every MSHR is busy; the requester
    /// must retry on a later cycle. No state was modified.
    pub rejected: bool,
}

/// A non-blocking two-level data-memory hierarchy, tag-only.
///
/// Fills update the tag arrays immediately while the [`MshrFile`] carries
/// the outstanding-miss latency, so secondary accesses to an in-flight
/// line merge (they see a tag hit whose `ready_at` is the fill completion).
/// Dirty-victim writebacks are latency-free — the paper's
/// store-queue/writeback-buffer assumption. An L1 writeback is counted in
/// the L1 statistics and allocates the line in L2; an L2 victim leaves
/// the hierarchy uncounted.
///
/// # Examples
///
/// ```
/// use hbdc_mem::{Hierarchy, HierarchyConfig};
///
/// let mut h = Hierarchy::new(HierarchyConfig::default());
/// let a = h.access(0x2000_0000, false, 0);
/// assert!(!a.l1_hit);
/// assert_eq!(a.ready_at, 15); // 1 (L1) + 4 (L2 miss probe) + 10 (DRAM)
/// let b = h.access(0x2000_0008, false, 1); // merges with in-flight fill
/// assert!(b.l1_hit);
/// assert_eq!(b.ready_at, 15);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: TagArray,
    l2: TagArray,
    mshrs: MshrFile,
    l1_stats: CacheStats,
    l2_stats: CacheStats,
}

impl Hierarchy {
    /// Creates a cold hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1: TagArray::new(CacheGeometry::new(cfg.l1_size, cfg.l1_line, cfg.l1_assoc)),
            l2: TagArray::new(CacheGeometry::new(cfg.l2_size, cfg.l2_line, cfg.l2_assoc)),
            mshrs: MshrFile::new(cfg.mshr_entries),
            cfg,
            l1_stats: CacheStats::new("dl1"),
            l2_stats: CacheStats::new("l2"),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Performs one access at cycle `now` and returns its timing.
    pub fn access(&mut self, addr: u64, is_store: bool, now: u64) -> AccessOutcome {
        // Event-driven retirement: pops only the fills due by `now` off
        // the MSHR min-ready heap (an O(1) peek when nothing is due).
        // This must happen before the lookups below — a completed but
        // unretired entry would otherwise merge a fresh miss into a fill
        // that already landed.
        self.mshrs.retire_completed(now);
        let line = self.l1.geometry().line_addr(addr);

        if self.l1.lookup(addr, is_store) == LookupResult::Hit {
            // Present — but the fill may still be in flight.
            let ready_at = match self.mshrs.ready_at(line) {
                Some(t) => t.max(now + self.cfg.l1_hit_latency),
                None => now + self.cfg.l1_hit_latency,
            };
            self.l1_stats.record_access(true, is_store);
            return AccessOutcome {
                l1_hit: true,
                ready_at,
                rejected: false,
            };
        }

        // The line may have been evicted while its fill is still in
        // flight (a conflicting fill displaced it). Merge with the
        // outstanding miss and restore the tags.
        if let Some(ready_at) = self.mshrs.ready_at(line) {
            self.l1_stats.record_access(false, is_store);
            if let Some(victim) = self.l1.fill(addr, is_store) {
                self.writeback_to_l2(victim);
            }
            return AccessOutcome {
                l1_hit: false,
                ready_at: ready_at.max(now + self.cfg.l1_hit_latency),
                rejected: false,
            };
        }

        // Primary miss: needs an MSHR before anything else changes.
        if !self.mshrs.has_free_entry() {
            return AccessOutcome {
                l1_hit: false,
                ready_at: now,
                rejected: true,
            };
        }
        self.l1_stats.record_access(false, is_store);

        // Probe L2.
        let l2_hit = self.l2.lookup(addr, false) == LookupResult::Hit;
        let latency = if l2_hit {
            self.cfg.l1_hit_latency + self.cfg.l2_latency
        } else {
            // Fill L2 from memory (write-allocate at L2 as well).
            self.l2.fill(addr, false);
            self.cfg.l1_hit_latency + self.cfg.l2_latency + self.cfg.mem_latency
        };
        self.l2_stats.record_access(l2_hit, false);

        let ready_at = now + latency;
        let outcome = self.mshrs.register(line, ready_at);
        debug_assert!(matches!(outcome, MshrOutcome::Allocated));

        // Fill L1 immediately; the MSHR carries the latency.
        if let Some(victim) = self.l1.fill(addr, is_store) {
            self.writeback_to_l2(victim);
        }

        AccessOutcome {
            l1_hit: false,
            ready_at,
            rejected: false,
        }
    }

    fn writeback_to_l2(&mut self, victim_line: u64) {
        self.l1_stats.record_writeback();
        if self.l2.lookup(victim_line, true) == LookupResult::Miss {
            // Write-allocate the victim's line in L2.
            self.l2.fill(victim_line, true);
            self.l2_stats.record_access(false, true);
        } else {
            self.l2_stats.record_access(true, true);
        }
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        &self.l1_stats
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_stats
    }

    /// Serializes both tag arrays, the MSHR file, and all statistics.
    /// The configuration is *not* serialized here — callers persist it
    /// separately (see [`HierarchyConfig::save_state`]) and rebuild via
    /// [`Hierarchy::new`] before loading.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.l1.save_state(w);
        self.l2.save_state(w);
        self.mshrs.save_state(w);
        self.l1_stats.save_state(w);
        self.l2_stats.save_state(w);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// hierarchy built with the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a geometry or capacity mismatch, or any
    /// decode error.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.l1.load_state(r)?;
        self.l2.load_state(r)?;
        self.mshrs.load_state(r)?;
        self.l1_stats.load_state(r)?;
        self.l2_stats.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn cold_miss_latency_is_l1_l2_mem() {
        let mut h = hier();
        let a = h.access(0x1000_0000, false, 100);
        assert!(!a.l1_hit);
        assert!(!a.rejected);
        assert_eq!(a.ready_at, 100 + 1 + 4 + 10);
    }

    #[test]
    fn l2_hit_latency_after_l1_eviction() {
        let mut h = hier();
        h.access(0x0000_0000, false, 0); // fills L1+L2
        h.access(0x0000_8000, false, 100); // evicts L1 line (same DM set), fills L2
        let back = h.access(0x0000_0000, false, 200); // L1 miss, L2 hit
        assert!(!back.l1_hit);
        assert_eq!(back.ready_at, 200 + 1 + 4);
    }

    #[test]
    fn hit_latency_is_one_cycle() {
        let mut h = hier();
        h.access(0x4000, false, 0);
        let a = h.access(0x4010, false, 50);
        assert!(a.l1_hit);
        assert_eq!(a.ready_at, 51);
    }

    #[test]
    fn secondary_miss_merges_with_inflight_fill() {
        let mut h = hier();
        let first = h.access(0x6000, false, 0);
        let second = h.access(0x6008, false, 1);
        assert!(second.l1_hit);
        assert_eq!(second.ready_at, first.ready_at);
        // After the fill completes, same line is a plain 1-cycle hit.
        let third = h.access(0x6010, false, first.ready_at);
        assert_eq!(third.ready_at, first.ready_at + 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_without_side_effects() {
        let mut h = Hierarchy::new(HierarchyConfig {
            mshr_entries: 1,
            ..HierarchyConfig::default()
        });
        h.access(0x0000, false, 0);
        let rejected = h.access(0x10_0000, false, 0);
        assert!(rejected.rejected);
        // After the first fill completes, the line can be requested, and
        // the rejected access left it absent: this is a cold miss.
        let ok = h.access(0x10_0000, false, 20);
        assert!(!ok.rejected);
        assert!(!ok.l1_hit);
        assert_eq!(ok.ready_at, 20 + 1 + 4 + 10);
    }

    #[test]
    fn store_miss_write_allocates_and_dirties() {
        let mut h = hier();
        h.access(0x0000, true, 0); // store miss: allocate dirty
        assert!(h.access(0x0008, false, 50).l1_hit);
        // Evict it: the dirty victim must be written back to L2.
        h.access(0x8000, false, 100);
        assert_eq!(h.l1_stats().writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut h = hier();
        h.access(0x0000, false, 0);
        h.access(0x8000, false, 100);
        assert_eq!(h.l1_stats().writebacks(), 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut h = hier();
        h.access(0x100, false, 0);
        h.access(0x104, false, 20);
        h.access(0x108, true, 40);
        assert_eq!(h.l1_stats().accesses(), 3);
        assert_eq!(h.l1_stats().misses(), 1);
        assert_eq!(h.l1_stats().hits(), 2);
        assert!((h.l1_stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merged_store_dirties_inflight_line() {
        let mut h = hier();
        h.access(0x0000, false, 0); // clean load miss in flight
        h.access(0x0008, true, 1); // merged store must dirty the line
        h.access(0x8000, false, 100); // evict → writeback expected
        assert_eq!(h.l1_stats().writebacks(), 1);
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        let mut h = hier();
        for i in 0..32u64 {
            h.access(i * 0x340, i % 3 == 0, i * 7);
        }
        let mut w = StateWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = hier();
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        // Identical accesses from here on produce identical outcomes.
        for i in 0..16u64 {
            let a = h.access(i * 0x2340, i % 2 == 0, 400 + i * 3);
            let b = restored.access(i * 0x2340, i % 2 == 0, 400 + i * 3);
            assert_eq!(a, b);
        }
        assert_eq!(restored.l1_stats().accesses(), h.l1_stats().accesses());
        assert_eq!(restored.l2_stats().misses(), h.l2_stats().misses());
    }

    #[test]
    fn config_codec_roundtrip() {
        let cfg = HierarchyConfig::default();
        let mut w = StateWriter::new();
        cfg.save_state(&mut w);
        let bytes = w.into_bytes();
        let back = HierarchyConfig::load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(back, cfg);
    }
}
