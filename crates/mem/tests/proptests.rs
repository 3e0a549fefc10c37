//! Property tests: the memory and tag-array models against naive
//! reference implementations.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use hbdc_mem::{
    BankMapper, BankSelect, CacheGeometry, LookupResult, Memory, MshrFile, MshrOutcome, TagArray,
};

/// The functional memory's page size.
const PAGE: usize = 4096;

proptest! {
    #[test]
    fn memory_matches_hashmap_model(
        ops in prop::collection::vec((0u64..0x4000, any::<u8>(), any::<bool>()), 1..300)
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (addr, value, is_write) in ops {
            if is_write {
                mem.write_u8(addr, value);
                model.insert(addr, value);
            } else {
                let expected = model.get(&addr).copied().unwrap_or(0);
                prop_assert_eq!(mem.read_u8(addr), expected);
            }
        }
    }

    #[test]
    fn wide_accesses_compose_from_bytes(
        addr in 0u64..0x10000,
        value in any::<u64>(),
        n in 1usize..=8
    ) {
        let mut mem = Memory::new();
        mem.write_le(addr, value, n);
        let mask = if n == 8 { u64::MAX } else { (1u64 << (8 * n)) - 1 };
        prop_assert_eq!(mem.read_le(addr, n), value & mask);
        for i in 0..n as u64 {
            prop_assert_eq!(mem.read_u8(addr + i), (value >> (8 * i)) as u8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed 1/2/4/8-byte reads and writes and multi-page `write_bytes`
    /// spans, within 16 bytes of thirteen page edges five pages apart
    /// (more pages than the frame cache holds). Edge 0 is address 0, so
    /// its neighbourhood wraps past `u64::MAX`. The spans put thousands
    /// of bytes in each case's model, so this property runs fewer cases.
    #[test]
    fn wide_accesses_and_spans_match_a_byte_model(
        ops in prop::collection::vec(
            (0u64..13, 0u64..32, prop::sample::select(vec![1usize, 2, 4, 8]), 0u8..16, any::<u64>(),
             prop::sample::select(vec![1usize, 7, PAGE - 1, PAGE + 9, 2 * PAGE + 33])),
            1..120,
        )
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let byte = |model: &HashMap<u64, u8>, a: u64| model.get(&a).copied().unwrap_or(0);
        for (edge, delta, n, kind, value, span) in ops {
            let addr = (edge * 5 * PAGE as u64).wrapping_add(delta).wrapping_sub(16);
            match kind {
                0..=7 => {
                    let pages = mem.resident_pages();
                    let expected = (0..n as u64)
                        .map(|i| (byte(&model, addr.wrapping_add(i)) as u64) << (8 * i))
                        .fold(0, |v, b| v | b);
                    prop_assert_eq!(mem.read_le(addr, n), expected, "read {} at {:#x}", n, addr);
                    prop_assert_eq!(mem.resident_pages(), pages, "a read allocated");
                }
                8..=14 => {
                    mem.write_le(addr, value, n);
                    for i in 0..n as u64 {
                        model.insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
                    }
                }
                _ => {
                    let bytes: Vec<u8> = (0..span).map(|i| (value as usize + i) as u8).collect();
                    mem.write_bytes(addr, &bytes);
                    for (i, &b) in bytes.iter().enumerate() {
                        model.insert(addr.wrapping_add(i as u64), b);
                    }
                }
            }
        }
        let pages: HashSet<u64> = model.keys().map(|a| a >> 12).collect();
        prop_assert_eq!(mem.resident_pages(), pages.len());
        for (&a, &b) in &model {
            prop_assert_eq!(mem.read_u8(a), b, "byte at {:#x}", a);
        }
    }
}

/// A naive set-associative LRU cache used as the reference model.
struct NaiveCache {
    geom: CacheGeometry,
    // Per set: (tag, dirty), most-recently-used last.
    sets: Vec<Vec<(u64, bool)>>,
}

impl NaiveCache {
    fn new(geom: CacheGeometry) -> Self {
        Self {
            sets: vec![Vec::new(); geom.num_sets() as usize],
            geom,
        }
    }

    /// Returns (hit, writeback_addr).
    fn access(&mut self, addr: u64, is_store: bool) -> (bool, Option<u64>) {
        let set = self.geom.set_index(addr) as usize;
        let tag = self.geom.tag(addr);
        let assoc = self.geom.assoc() as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
            let (t, d) = ways.remove(pos);
            ways.push((t, d || is_store));
            return (true, None);
        }
        let mut wb = None;
        if ways.len() == assoc {
            let (vt, vd) = ways.remove(0); // LRU at the front
            if vd {
                wb = Some(self.geom.rebuild_addr(vt, set as u64));
            }
        }
        ways.push((tag, is_store));
        (false, wb)
    }
}

proptest! {
    #[test]
    fn tag_array_matches_naive_lru(
        accesses in prop::collection::vec((0u64..0x8000, any::<bool>()), 1..500),
        assoc in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let geom = CacheGeometry::new(4096, 32, assoc);
        let mut tags = TagArray::new(geom);
        let mut naive = NaiveCache::new(geom);
        for (addr, is_store) in accesses {
            let (expected_hit, expected_wb) = naive.access(addr, is_store);
            let hit = tags.lookup(addr, is_store) == LookupResult::Hit;
            prop_assert_eq!(hit, expected_hit, "addr {:#x}", addr);
            if !hit {
                let wb = tags.fill(addr, is_store);
                prop_assert_eq!(wb, expected_wb, "victim for {:#x}", addr);
            }
        }
    }

    #[test]
    fn bank_mappers_are_total_and_line_consistent(
        addrs in prop::collection::vec(any::<u64>(), 1..200),
        banks in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
    ) {
        for mapper in [
            BankMapper::bit_select(banks, 32),
            BankMapper::with_select(BankSelect::XorFold, banks, 32),
            BankMapper::with_select(BankSelect::PseudoRandom, banks, 32),
        ] {
            for &a in &addrs {
                let b = mapper.bank_of(a);
                prop_assert!(b < banks);
                // Same line => same bank.
                prop_assert_eq!(mapper.bank_of(a & !31), b);
                prop_assert_eq!(mapper.bank_of(a | 31), b);
            }
        }
    }

    #[test]
    fn mshr_outstanding_never_exceeds_capacity(
        ops in prop::collection::vec((0u64..64, 1u64..100), 1..200),
        capacity in 1usize..8,
    ) {
        let mut mshrs = MshrFile::new(capacity);
        let mut now = 0u64;
        for (line, delay) in ops {
            now += 1;
            mshrs.retire_completed(now);
            let outcome = mshrs.register(line * 32, now + delay);
            prop_assert!(mshrs.outstanding() <= capacity);
            if let MshrOutcome::Merged { ready_at } = outcome {
                prop_assert!(ready_at > now.saturating_sub(100));
            }
        }
    }
}
