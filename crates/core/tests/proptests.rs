//! Property tests: structural invariants of every port model under
//! arbitrary ready lists (DESIGN.md §7).

use proptest::prelude::*;

use hbdc_core::{CombinePolicy, MemRequest, PortConfig, PortModel};
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

/// `ready` put in age order — sorted by its random ids, repeated ids
/// dropped — so ids strictly increase along the list: the ordering
/// contract of `MemRequest::id`, which models with an id-keyed
/// offered-set index (`mirrors_offers()`, the banked model) enforce.
/// Id-agnostic models keep arbitrating the raw [`arb_ready`] lists.
fn in_age_order(ready: &[MemRequest]) -> Vec<MemRequest> {
    let mut ordered = ready.to_vec();
    ordered.sort_by_key(|r| r.id);
    ordered.dedup_by_key(|r| r.id);
    ordered
}

/// The list `model` arbitrates for a generated `ready`.
fn input_for(model: &dyn PortModel, ready: &[MemRequest]) -> Vec<MemRequest> {
    if model.mirrors_offers() {
        in_age_order(ready)
    } else {
        ready.to_vec()
    }
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

/// Multi-round arrival schedule for the banked mirror sessions: per
/// round, a batch of (address slot, is_store, late) arrivals. Ids are
/// assigned monotonically by the driver; a `late` arrival is offered one
/// round after its id was assigned, so it lands ahead of younger
/// references already offered — the out-of-order wakeups the
/// simulator's LSQ ready list produces.
fn arb_arrivals() -> impl Strategy<Value = Vec<Vec<(u64, bool, bool)>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..512, any::<bool>(), any::<bool>()), 0..12),
        1..16,
    )
}

/// Banked configurations for the mirror sessions: degenerate, paper and
/// wide bank counts, plus a non-bit-select mapper.
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

/// Drives a banked model the way the simulator does — offered-set deltas
/// through `offer_insert`/`offer_remove`, one `arbitrate_into` per round,
/// some grants left unserviced (an MSHR-full rejection keeps them
/// offered) — and checks every round's grants, and the final
/// statistics, against the reference walk. When `snapshot_round` is
/// set, the model is serialized and rebuilt mid-burst — `load_state`
/// from the unchanged snapshot bytes plus `offer_reset` from the live
/// offered set — and must still track the reference afterwards.
fn check_banked_mirror(
    config: &PortConfig,
    arrivals: &[Vec<(u64, bool, bool)>],
    snapshot_round: Option<usize>,
) -> Result<(), TestCaseError> {
    let PortConfig::Banked { banks, select } = *config else {
        unreachable!("banked configurations only");
    };
    let mapper = BankMapper::with_select(select, banks, 32);
    let mut model = config.build(32);
    prop_assert!(model.mirrors_offers());
    let label = model.label();
    let mut offered: Vec<MemRequest> = Vec::new();
    let mut late: Vec<MemRequest> = Vec::new();
    let mut next_id = 0u64;
    let mut granted = Vec::new();
    let (mut want_offered, mut want_granted, mut want_conflicts) = (0u64, 0u64, 0u64);
    let offer = |model: &mut Box<dyn PortModel>, offered: &mut Vec<MemRequest>, r: MemRequest| {
        let pos = offered.partition_point(|o| o.id < r.id);
        offered.insert(pos, r);
        model.offer_insert(r);
    };
    for (round, batch) in arrivals.iter().enumerate() {
        for r in std::mem::take(&mut late) {
            offer(&mut model, &mut offered, r);
        }
        for &(slot, is_store, is_late) in batch {
            let r = MemRequest {
                id: next_id,
                addr: slot * 8 % 0x20000,
                is_store,
            };
            next_id += 1;
            if is_late {
                late.push(r);
            } else {
                offer(&mut model, &mut offered, r);
            }
        }
        if snapshot_round == Some(round) {
            let mut w = StateWriter::new();
            model.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored = config.build(32);
            restored
                .load_state(&mut StateReader::new(&bytes))
                .expect("snapshot round-trips");
            restored.offer_reset(&offered);
            model = restored;
        }
        let (want, conflicts) = reference_banked_walk(&mapper, &offered);
        model.arbitrate_into(&offered, &mut granted);
        prop_assert_eq!(
            &granted,
            &want,
            "{}: grant divergence in round {}",
            label,
            round
        );
        want_offered += offered.len() as u64;
        want_granted += want.len() as u64;
        want_conflicts += conflicts;
        // Service the grants youngest-first so indices stay valid,
        // rejecting a deterministic subset that must stay offered.
        for &g in granted.iter().rev() {
            if !(offered[g].id + round as u64).is_multiple_of(5) {
                model.offer_remove(offered.remove(g));
            }
        }
        model.tick();
    }
    prop_assert_eq!(model.stats().offered(), want_offered, "{}", label);
    prop_assert_eq!(model.stats().granted(), want_granted, "{}", label);
    prop_assert_eq!(
        model.stats().extra_counter("bank_conflicts"),
        want_conflicts,
        "{}",
        label
    );
    prop_assert_eq!(model.stats().cycles(), arrivals.len() as u64, "{}", label);
    Ok(())
}

proptest! {
    #[test]
    fn grants_are_sorted_unique_bounded(rounds in prop::collection::vec(arb_ready(), 1..20)) {
        for config in all_configs() {
            let mut model = config.build(32);
            for ready in &rounds {
                let ready = &input_for(&*model, ready);
                let granted = model.arbitrate(ready);
                model.tick();
                prop_assert!(granted.len() <= model.peak_per_cycle(), "{}", model.label());
                prop_assert!(granted.windows(2).all(|w| w[0] < w[1]),
                    "{}: not strictly increasing", model.label());
                prop_assert!(granted.iter().all(|&i| i < ready.len()),
                    "{}: index out of range", model.label());
            }
        }
    }

    #[test]
    fn ideal_grants_exactly_the_oldest_prefix(ready in arb_ready()) {
        let mut model = PortConfig::Ideal { ports: 5 }.build(32);
        let granted = model.arbitrate(&ready);
        let expect: Vec<usize> = (0..ready.len().min(5)).collect();
        prop_assert_eq!(granted, expect);
    }

    #[test]
    fn replicated_stores_are_always_alone(rounds in prop::collection::vec(arb_ready(), 1..10)) {
        let mut model = PortConfig::Replicated { ports: 4 }.build(32);
        for ready in &rounds {
            let granted = model.arbitrate(ready);
            model.tick();
            let has_store = granted.iter().any(|&i| ready[i].is_store);
            if has_store {
                prop_assert_eq!(granted.len(), 1, "a broadcast store must go alone");
            }
        }
    }

    #[test]
    fn banked_grants_at_most_one_per_bank(ready in arb_ready()) {
        let ready = in_age_order(&ready);
        let mapper = BankMapper::bit_select(4, 32);
        let mut model = PortConfig::banked(4).build(32);
        let granted = model.arbitrate(&ready);
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
        let ready = in_age_order(&ready);
        let mapper = BankMapper::bit_select(4, 32);
        let mut model = PortConfig::banked(4).build(32);
        let granted = model.arbitrate(&ready);
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
            let mut model = PortConfig::Lbic {
                banks: 4,
                line_ports: 3,
                store_queue: 8,
                policy,
            }
            .build(32);
            let granted = model.arbitrate(&ready);
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
        let ready = in_age_order(&ready);
        let mut banked = PortConfig::banked(4).build(32);
        let mut lbic = PortConfig::lbic(4, 4).build(32);
        let b = banked.arbitrate(&ready).len();
        let l = lbic.arbitrate(&ready).len();
        prop_assert!(l >= b, "LBIC granted {l} < banked {b}");
    }

    #[test]
    fn stats_account_every_offer(rounds in prop::collection::vec(arb_ready(), 1..12)) {
        for config in all_configs() {
            let mut model = config.build(32);
            let mut offered = 0u64;
            let mut granted = 0u64;
            for ready in &rounds {
                let ready = &input_for(&*model, ready);
                offered += ready.len() as u64;
                granted += model.arbitrate(ready).len() as u64;
                model.tick();
            }
            prop_assert_eq!(model.stats().offered(), offered);
            prop_assert_eq!(model.stats().granted(), granted);
            prop_assert_eq!(model.stats().cycles(), rounds.len() as u64);
        }
    }

    #[test]
    fn banked_mirror_matches_reference_walk(arrivals in arb_arrivals()) {
        for config in banked_configs() {
            check_banked_mirror(&config, &arrivals, None)?;
        }
    }

    #[test]
    fn banked_mirror_survives_midburst_snapshot(
        arrivals in arb_arrivals(),
        snap in 0usize..16,
    ) {
        // The snapshot bytes carry no mirror state; the rebuilt model's
        // buckets must reconstruct from `offer_reset` alone.
        for config in banked_configs() {
            let round = snap % arrivals.len();
            check_banked_mirror(&config, &arrivals, Some(round))?;
        }
    }
}
