//! Property tests for the invariant auditor and fault injector: clean
//! arbitration never raises a violation, and every injected fault is
//! reported within the cycle it corrupts (DESIGN.md §8).

use proptest::prelude::*;

use hbdc_core::{CombinePolicy, FaultClass, FaultInjector, MemRequest, PortConfig, PortModel};

fn arb_request() -> impl Strategy<Value = MemRequest> {
    (0u64..4096, any::<bool>()).prop_map(|(slot, is_store)| {
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

/// Every (config, fault class) pair the injector accepts.
fn all_injectable() -> Vec<(PortConfig, FaultClass)> {
    let mut pairs = Vec::new();
    for cfg in all_configs() {
        for class in [
            FaultClass::BankDoubleGrant,
            FaultClass::CrossLineGrant,
            FaultClass::CombiningOverflow,
            FaultClass::StoreBroadcastOverlap,
            FaultClass::DuplicateGrant,
            FaultClass::PeakOverflow,
        ] {
            if FaultInjector::new(cfg, 32, class, 1).is_ok() {
                pairs.push((cfg, class));
            }
        }
    }
    pairs
}

proptest! {
    /// The auditor is a pure observer with no false positives: every
    /// uncorrupted arbitration round passes every model's own rules.
    #[test]
    fn clean_rounds_have_zero_violations(
        rounds in prop::collection::vec(arb_ready(), 1..16),
    ) {
        for config in all_configs() {
            let mut model = config.build(32);
            let mut out = Vec::new();
            for ready in &rounds {
                let ready = &input_for(&*model, ready);
                let granted = model.arbitrate(ready);
                model.audit_round(ready, &granted, &mut out);
                prop_assert!(
                    out.is_empty(),
                    "{}: clean round flagged: {:?}",
                    model.label(),
                    out
                );
                model.tick();
            }
        }
    }

    /// Completeness of detection: whenever the injector corrupts a round
    /// (any class, any model it applies to), the audit of that same round
    /// reports at least one violation.
    #[test]
    fn every_fired_injection_is_detected_same_round(
        rounds in prop::collection::vec(arb_ready(), 1..16),
        seed in any::<u64>(),
    ) {
        for (cfg, class) in all_injectable() {
            let mut inj = FaultInjector::new(cfg, 32, class, seed).unwrap();
            let mut out = Vec::new();
            for ready in &rounds {
                let ready = &input_for(&inj, ready);
                let granted = inj.arbitrate(ready);
                out.clear();
                inj.audit_round(ready, &granted, &mut out);
                if inj.fired_last_round() {
                    prop_assert!(
                        !out.is_empty(),
                        "{:?} on {:?}: injected fault escaped the auditor \
                         (ready {:?}, granted {:?})",
                        class,
                        cfg,
                        ready,
                        granted
                    );
                }
                inj.tick();
            }
        }
    }
}

/// Each of the four paper-level fault classes actually fires (and is
/// caught) on a ready mix crafted to make it eligible — the proptest above
/// only proves "fired implies caught"; this proves "fires at all".
#[test]
fn all_four_fault_classes_fire_and_are_caught() {
    let same_bank_loads = vec![MemRequest::load(0, 0x00), MemRequest::load(1, 0x100)];
    let cross_line = vec![MemRequest::load(0, 0x00), MemRequest::load(1, 0x100)];
    // Three same-line references against a 2-ported line buffer.
    let combine_heavy = vec![
        MemRequest::load(0, 0x00),
        MemRequest::load(1, 0x08),
        MemRequest::load(2, 0x10),
    ];
    let store_mix = vec![MemRequest::store(0, 0x00), MemRequest::load(1, 0x40)];
    let cases: Vec<(PortConfig, FaultClass, &str, &Vec<MemRequest>)> = vec![
        (
            PortConfig::banked(4),
            FaultClass::BankDoubleGrant,
            "banked-double-grant",
            &same_bank_loads,
        ),
        (
            PortConfig::lbic(4, 2),
            FaultClass::CrossLineGrant,
            "lbic-cross-line",
            &cross_line,
        ),
        (
            PortConfig::lbic(4, 2),
            FaultClass::CombiningOverflow,
            "lbic-combining-overflow",
            &combine_heavy,
        ),
        (
            PortConfig::Replicated { ports: 4 },
            FaultClass::StoreBroadcastOverlap,
            "repl-store-overlap",
            &store_mix,
        ),
    ];
    for (cfg, class, rule, ready) in cases {
        let mut inj = FaultInjector::new(cfg, 32, class, 0xC0FFEE).unwrap();
        let mut caught = false;
        for _ in 0..128 {
            let granted = inj.arbitrate(ready);
            let mut out = Vec::new();
            inj.audit_round(ready, &granted, &mut out);
            if inj.fired_last_round() {
                assert!(
                    out.iter().any(|v| v.rule == rule),
                    "{class:?}: expected rule {rule}, got {out:?}"
                );
                caught = true;
                break;
            }
            inj.tick();
        }
        assert!(caught, "{class:?} never fired on {cfg:?}");
    }
}
