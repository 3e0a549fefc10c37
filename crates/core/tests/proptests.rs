//! Property tests: structural invariants of every port model under
//! arbitrary ready lists (DESIGN.md §7).

use proptest::prelude::*;

use hbdc_core::{ArbStats, CombinePolicy, MemRequest, PortConfig, PortModel};
use hbdc_mem::BankMapper;
use hbdc_snap::{StateReader, StateWriter};

fn arb_request() -> impl Strategy<Value = MemRequest> {
    (0u64..4096, any::<bool>()).prop_map(|(slot, is_store)| {
        // Addresses over a 128KB region, 8-byte aligned.
        let addr = slot * 8 % 0x20000;
        MemRequest {
            id: slot,
            addr,
            is_store,
        }
    })
}

fn arb_ready() -> impl Strategy<Value = Vec<MemRequest>> {
    prop::collection::vec(arb_request(), 0..40)
}

fn all_configs() -> Vec<PortConfig> {
    vec![
        PortConfig::Ideal { ports: 1 },
        PortConfig::Ideal { ports: 7 },
        PortConfig::Replicated { ports: 3 },
        PortConfig::banked(4),
        PortConfig::banked(16),
        PortConfig::lbic(2, 2),
        PortConfig::lbic(4, 4),
        PortConfig::Lbic {
            banks: 4,
            line_ports: 2,
            store_queue: 2,
            policy: CombinePolicy::LargestGroup,
        },
    ]
}

/// Banked configurations for the reference-walk sessions: degenerate,
/// paper and wide bank counts, plus a non-bit-select mapper.
fn banked_configs() -> Vec<PortConfig> {
    vec![
        PortConfig::banked(1),
        PortConfig::banked(4),
        PortConfig::banked(16),
        PortConfig::Banked {
            banks: 8,
            select: hbdc_mem::BankSelect::XorFold,
        },
    ]
}

/// The banked and LBIC configurations, each of which records one cause
/// for every reference it denies. The small store queues make stores
/// stall on full queues within a few rounds.
fn denial_counting_configs() -> Vec<PortConfig> {
    let lbic = |banks, line_ports, store_queue, policy| PortConfig::Lbic {
        banks,
        line_ports,
        store_queue,
        policy,
    };
    let mut configs = banked_configs();
    for policy in [CombinePolicy::LeadingRequest, CombinePolicy::LargestGroup] {
        configs.push(lbic(1, 1, 1, policy));
        configs.push(lbic(2, 2, 2, policy));
        configs.push(lbic(4, 3, 1, policy));
        configs.push(lbic(4, 4, 8, policy));
    }
    configs
}

/// A fresh model for `config` with zeroed stats sized for its peak.
fn fresh(config: PortConfig) -> (Box<dyn PortModel>, ArbStats) {
    (config.build(32), ArbStats::new(config.peak()))
}

/// The reference banked round: one age-ordered walk over the ready
/// slice, granting the first reference to each bank. Returns the grant
/// indices and the bank-conflict count.
fn reference_banked_walk(mapper: &BankMapper, ready: &[MemRequest]) -> (Vec<usize>, u64) {
    let mut taken = vec![false; mapper.banks() as usize];
    let mut granted = Vec::new();
    let mut conflicts = 0;
    for (i, r) in ready.iter().enumerate() {
        let bank = mapper.bank_of(r.addr) as usize;
        if taken[bank] {
            conflicts += 1;
        } else {
            taken[bank] = true;
            granted.push(i);
        }
    }
    (granted, conflicts)
}

proptest! {
    #[test]
    fn grants_are_sorted_unique_bounded(rounds in prop::collection::vec(arb_ready(), 1..20)) {
        for config in all_configs() {
            let (mut model, mut stats) = fresh(config);
            for ready in &rounds {
                let granted = model.arbitrate(ready, &mut stats);
                model.tick(&mut stats);
                prop_assert!(granted.len() <= config.peak(), "{}", config.label());
                prop_assert!(granted.windows(2).all(|w| w[0] < w[1]),
                    "{}: not strictly increasing", config.label());
                prop_assert!(granted.iter().all(|&i| i < ready.len()),
                    "{}: index out of range", config.label());
            }
        }
    }

    #[test]
    fn ideal_grants_exactly_the_oldest_prefix(ready in arb_ready()) {
        let (mut model, mut stats) = fresh(PortConfig::Ideal { ports: 5 });
        let granted = model.arbitrate(&ready, &mut stats);
        let expect: Vec<usize> = (0..ready.len().min(5)).collect();
        prop_assert_eq!(granted, expect);
    }

    #[test]
    fn replicated_stores_are_always_alone(rounds in prop::collection::vec(arb_ready(), 1..10)) {
        let (mut model, mut stats) = fresh(PortConfig::Replicated { ports: 4 });
        for ready in &rounds {
            let granted = model.arbitrate(ready, &mut stats);
            model.tick(&mut stats);
            let has_store = granted.iter().any(|&i| ready[i].is_store);
            if has_store {
                prop_assert_eq!(granted.len(), 1, "a broadcast store must go alone");
            }
        }
    }

    #[test]
    fn banked_grants_at_most_one_per_bank(ready in arb_ready()) {
        let mapper = BankMapper::bit_select(4, 32);
        let (mut model, mut stats) = fresh(PortConfig::banked(4));
        let granted = model.arbitrate(&ready, &mut stats);
        let mut seen = [false; 4];
        for &i in &granted {
            let bank = mapper.bank_of(ready[i].addr) as usize;
            prop_assert!(!seen[bank], "two grants in bank {}", bank);
            seen[bank] = true;
        }
    }

    #[test]
    fn banked_is_age_greedy(ready in arb_ready()) {
        // Every non-granted request must conflict with an older grant in
        // its bank (work conservation).
        let mapper = BankMapper::bit_select(4, 32);
        let (mut model, mut stats) = fresh(PortConfig::banked(4));
        let granted = model.arbitrate(&ready, &mut stats);
        for (i, r) in ready.iter().enumerate() {
            if granted.contains(&i) {
                continue;
            }
            let bank = mapper.bank_of(r.addr);
            let blocked_by_older = granted
                .iter()
                .any(|&g| g < i && mapper.bank_of(ready[g].addr) == bank);
            prop_assert!(blocked_by_older, "request {i} refused without cause");
        }
    }

    #[test]
    fn lbic_grants_single_line_per_bank(ready in arb_ready()) {
        let mapper = BankMapper::bit_select(4, 32);
        for policy in [CombinePolicy::LeadingRequest, CombinePolicy::LargestGroup] {
            let (mut model, mut stats) = fresh(PortConfig::Lbic {
                banks: 4,
                line_ports: 3,
                store_queue: 8,
                policy,
            });
            let granted = model.arbitrate(&ready, &mut stats);
            let mut per_bank: [Option<u64>; 4] = [None; 4];
            let mut counts = [0usize; 4];
            for &i in &granted {
                let bank = mapper.bank_of(ready[i].addr) as usize;
                let line = ready[i].addr >> 5;
                match per_bank[bank] {
                    None => per_bank[bank] = Some(line),
                    Some(l) => prop_assert_eq!(l, line,
                        "{:?}: two lines granted in bank {}", policy, bank),
                }
                counts[bank] += 1;
                prop_assert!(counts[bank] <= 3, "line-port cap exceeded");
            }
        }
    }

    #[test]
    fn lbic_dominates_banked_grant_count(ready in arb_ready()) {
        // With an empty store queue, the LBIC's grant set in a single
        // round is always at least as large as traditional banking's: the
        // leading requests coincide, and combining only adds.
        let (mut banked, mut banked_stats) = fresh(PortConfig::banked(4));
        let (mut lbic, mut lbic_stats) = fresh(PortConfig::lbic(4, 4));
        let b = banked.arbitrate(&ready, &mut banked_stats).len();
        let l = lbic.arbitrate(&ready, &mut lbic_stats).len();
        prop_assert!(l >= b, "LBIC granted {l} < banked {b}");
    }

    #[test]
    fn stats_account_every_offer(rounds in prop::collection::vec(arb_ready(), 1..12)) {
        for config in all_configs() {
            let (mut model, mut stats) = fresh(config);
            let mut offered = 0u64;
            let mut granted = 0u64;
            for ready in &rounds {
                offered += ready.len() as u64;
                granted += model.arbitrate(ready, &mut stats).len() as u64;
                model.tick(&mut stats);
            }
            prop_assert_eq!(stats.offered(), offered);
            prop_assert_eq!(stats.granted(), granted);
            let busy = rounds.iter().filter(|r| !r.is_empty()).count() as u64;
            prop_assert_eq!(stats.rounds(), busy);
        }
    }

    /// Denial accounting: over a multi-round session (store queues
    /// filling and draining between rounds), every reference a banked or
    /// LBIC model denies is counted under exactly one cause. Banking and
    /// the largest-group LBIC count every loser as a bank conflict; the
    /// leading-request LBIC splits them into bank conflicts, line-port
    /// exhaustion and full store queues.
    #[test]
    fn every_denial_has_exactly_one_recorded_cause(
        rounds in prop::collection::vec(arb_ready(), 1..16),
    ) {
        for config in denial_counting_configs() {
            let (mut model, mut s) = fresh(config);
            for ready in &rounds {
                model.arbitrate(ready, &mut s);
                model.tick(&mut s);
            }
            let denied = s.offered() - s.granted();
            let causes = match config {
                PortConfig::Lbic { policy: CombinePolicy::LeadingRequest, .. } => {
                    s.bank_conflicts + s.port_exhaustion + s.sq_full_stalls
                }
                _ => s.bank_conflicts,
            };
            prop_assert_eq!(denied, causes, "{:?}: {:?}", config, s);
        }
    }

    #[test]
    fn banked_matches_reference_walk(
        rounds in prop::collection::vec(arb_ready(), 1..16),
        snap in 0usize..16,
    ) {
        // Multi-round sessions, with the model and its stats saved and
        // rebuilt from the snapshot bytes before one round: every
        // round's grants and the final statistics must match the
        // reference walk.
        let snap = snap % rounds.len();
        for config in banked_configs() {
            let PortConfig::Banked { banks, select } = config else {
                unreachable!("banked configurations only");
            };
            let mapper = BankMapper::with_select(select, banks, 32);
            let (mut model, mut stats) = fresh(config);
            let label = config.label();
            let mut granted = Vec::new();
            let (mut offered, mut granted_total, mut conflicts) = (0u64, 0u64, 0u64);
            for (round, ready) in rounds.iter().enumerate() {
                if round == snap {
                    let mut w = StateWriter::new();
                    model.save_state(&mut w);
                    stats.save_state(&mut w);
                    let bytes = w.into_bytes();
                    (model, stats) = fresh(config);
                    let mut r = StateReader::new(&bytes);
                    model.load_state(&mut r).expect("model state round-trips");
                    stats.load_state(&mut r).expect("stats round-trip");
                    r.expect_end().expect("nothing left over");
                }
                let (want, round_conflicts) = reference_banked_walk(&mapper, ready);
                model.arbitrate_into(ready, &mut granted, &mut stats);
                stats.record_round(ready.len(), granted.len());
                prop_assert_eq!(
                    &granted,
                    &want,
                    "{}: grant divergence in round {}",
                    label,
                    round
                );
                offered += ready.len() as u64;
                granted_total += want.len() as u64;
                conflicts += round_conflicts;
                model.tick(&mut stats);
            }
            prop_assert_eq!(stats.offered(), offered, "{}", label);
            prop_assert_eq!(stats.granted(), granted_total, "{}", label);
            prop_assert_eq!(stats.bank_conflicts, conflicts, "{}", label);
            let busy = rounds.iter().filter(|r| !r.is_empty()).count() as u64;
            prop_assert_eq!(stats.rounds(), busy, "{}", label);
        }
    }
}
