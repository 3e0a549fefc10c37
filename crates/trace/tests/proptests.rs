//! Property tests: trace analysis invariants over arbitrary streams.

use proptest::prelude::*;

use hbdc_mem::{BankMapper, CacheGeometry};
use hbdc_trace::{ConflictAnalysis, ConsecutiveMapping, MemRef, TraceCacheSim};

fn arb_refs() -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec(
        (0u64..0x10000, any::<bool>()).prop_map(
            |(a, s)| {
                if s {
                    MemRef::store(a)
                } else {
                    MemRef::load(a)
                }
            },
        ),
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn figure3_segments_always_sum_to_one(refs in arb_refs()) {
        let mut f3 = ConsecutiveMapping::new(4, 32);
        f3.extend(refs.iter().copied());
        let total: f64 = f3.segments().iter().sum();
        if refs.len() >= 2 {
            prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
            prop_assert_eq!(f3.pairs(), refs.len() as u64 - 1);
        } else {
            prop_assert_eq!(f3.pairs(), 0);
        }
    }

    #[test]
    fn figure3_segment_count_matches_banks(
        refs in arb_refs(),
        banks in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let mut f3 = ConsecutiveMapping::new(banks, 32);
        f3.extend(refs);
        prop_assert_eq!(f3.segments().len(), banks as usize + 1);
    }

    #[test]
    fn conflict_rates_are_probabilities(refs in arb_refs(), window in 1usize..10) {
        let mut a = ConflictAnalysis::new(BankMapper::bit_select(4, 32), window);
        a.extend(refs.iter().copied());
        a.finish();
        prop_assert!((0.0..=1.0).contains(&a.conflict_rate()));
        prop_assert!((0.0..=1.0).contains(&a.same_line_rate()));
        prop_assert!(a.conflict_rate() + a.same_line_rate() <= 1.0 + 1e-9);
        prop_assert_eq!(a.refs(), refs.len() as u64);
    }

    #[test]
    fn cache_sim_counts_are_consistent(refs in arb_refs()) {
        let mut sim = TraceCacheSim::new(CacheGeometry::new(4096, 32, 2));
        sim.extend(refs.iter().copied());
        let s = sim.stats();
        prop_assert_eq!(s.hits() + s.misses(), s.accesses());
        prop_assert_eq!(s.accesses(), refs.len() as u64);
        prop_assert!(s.writebacks() <= s.misses());
    }

    #[test]
    fn repeating_a_resident_stream_only_hits(slots in prop::collection::vec(0u64..64, 1..50)) {
        // A working set of <= 64 lines fits a 4KB 2-way cache... only if
        // no set has more than 2 of them; use a direct index so each slot
        // is its own line in a 32KB cache (1024 sets, direct-mapped).
        let mut sim = TraceCacheSim::paper_l1();
        let refs: Vec<MemRef> = slots.iter().map(|&s| MemRef::load(s * 32)).collect();
        sim.extend(refs.iter().copied()); // warm
        let misses_after_warm = sim.stats().misses();
        sim.extend(refs.iter().copied()); // replay
        prop_assert_eq!(sim.stats().misses(), misses_after_warm);
    }
}
