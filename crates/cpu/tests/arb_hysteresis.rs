//! Hysteresis anchors for the adaptive arbitration-mode switch
//! (DESIGN.md §14): goldens pinning the exact enter boundary
//! (backlog == peak×16 engages, one less does not) and the no-exit
//! floor (an engaged switch holds at backlog == peak×8, and only
//! disengages below it), plus a property test that mode flips — forced,
//! adaptive, or deliberately thrashing — never perturb grants or
//! statistics.

use proptest::prelude::*;

use hbdc_core::PortConfig;
use hbdc_cpu::{arb_batched_next, CpuConfig, Simulator};
use hbdc_isa::asm::assemble;
use hbdc_isa::{AluOp, Inst, Program, Reg, Width, DATA_BASE};
use hbdc_mem::HierarchyConfig;

/// The mirrored port models the adaptive switch applies to (ideal and
/// replicated ports are mirror-free and never take the batched round).
fn mirrored_ports() -> [PortConfig; 3] {
    [
        PortConfig::banked(1),
        PortConfig::banked(4),
        PortConfig::lbic(4, 2),
    ]
}

/// Boundary goldens on the pure hysteresis step, with the thresholds
/// each port model actually computes (`peak×16` enter, `peak×8` exit).
#[test]
fn hysteresis_boundaries_sit_exactly_at_the_documented_ratios() {
    for port in mirrored_ports() {
        let peak = port.build(32).peak_per_cycle();
        let (enter, exit) = (peak * 16, peak * 8);

        // Enter exactly at backlog == peak×16, not one reference sooner.
        assert!(
            arb_batched_next(false, enter, enter, exit),
            "{port:?}: backlog {enter} must engage the batched round"
        );
        assert!(
            !arb_batched_next(false, enter - 1, enter, exit),
            "{port:?}: backlog {} must stay in the slice walk",
            enter - 1
        );

        // No exit at backlog == peak×8: the engaged switch holds at the
        // floor and only releases strictly below it.
        assert!(
            arb_batched_next(true, exit, enter, exit),
            "{port:?}: an engaged switch must hold at backlog {exit}"
        );
        assert!(
            arb_batched_next(true, enter - 1, enter, exit),
            "{port:?}: no exit anywhere inside the hysteresis band"
        );
        assert!(
            !arb_batched_next(true, exit - 1, enter, exit),
            "{port:?}: backlog {} must disengage",
            exit - 1
        );
    }
}

/// A program whose LSQ backlog peaks at exactly `stores` ready
/// references: one gating load, a burst of independent same-bank
/// stores behind it, and a chain of long-latency divides on the load
/// result so the commit frontier promotes the whole burst at once and
/// then pins it while the single bank drains one grant per cycle.
fn burst_workload(stores: usize) -> Program {
    let mut s = String::from(".data\nv: .space 8192\n.text\nmain:\n li r9, 7\n la r8, v\n");
    s.push_str(" lw r1, 4096(r8)\n");
    for i in 0..stores {
        s.push_str(&format!(" sw r9, {}(r8)\n", i * 32));
    }
    s.push_str(" div r10, r1, r9\n div r10, r10, r9\n halt\n");
    assemble(&s).expect("burst workload assembles")
}

/// Sim-level enter golden: on a single bank (peak 1, so enter = 16) a
/// 16-store backlog flips the machine into the batched mode and a
/// 15-store backlog never does. The auditor is pinned off (the `audit`
/// feature turns it on by default): audited rounds always walk the
/// slice, so only the plain path has a mode switch to observe.
#[test]
fn backlog_of_exactly_enter_ratio_engages_the_batched_round() {
    for (stores, expect_engaged) in [(16usize, true), (15, false)] {
        let mut sim = Simulator::new(
            &burst_workload(stores),
            CpuConfig {
                audit: false,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::banked(1),
        );
        let mut engaged_ever = false;
        loop {
            let done = sim.run_for(1).expect("burst workload simulates");
            engaged_ever |= sim.arb_batched();
            if done {
                break;
            }
        }
        assert_eq!(
            engaged_ever, expect_engaged,
            "a {stores}-store backlog on bank:1 (enter threshold 16)"
        );
    }
}

/// A random straight-line program with enough independent memory
/// traffic to swing the backlog across both thresholds repeatedly.
fn arb_program() -> impl Strategy<Value = Program> {
    let reg = (1u8..16).prop_map(Reg::new);
    let inst = prop_oneof![
        (reg.clone(), 0i64..256).prop_map(|(rd, slot)| Inst::Load {
            width: Width::Double,
            rd,
            base: Reg::ZERO,
            offset: DATA_BASE as i64 + slot * 8,
        }),
        (reg.clone(), 0i64..256).prop_map(|(rs, slot)| Inst::Store {
            width: Width::Double,
            rs,
            base: Reg::ZERO,
            offset: DATA_BASE as i64 + slot * 8,
        }),
        (reg.clone(), reg.clone(), reg).prop_map(|(rd, rs, rt)| Inst::Alu {
            op: AluOp::Div,
            rd,
            rs,
            rt
        }),
    ];
    prop::collection::vec(inst, 1..160).prop_map(|mut text| {
        text.push(Inst::Halt);
        Program::from_parts(text, vec![0; 2048], Default::default(), 0)
    })
}

fn run_with_thresholds(
    program: &Program,
    port: PortConfig,
    thresholds: Option<(usize, usize)>,
) -> hbdc_cpu::SimReport {
    let mut sim = Simulator::new(
        program,
        CpuConfig::default(),
        HierarchyConfig::default(),
        port,
    );
    if let Some((enter, exit)) = thresholds {
        sim.set_batch_thresholds(enter, exit);
    }
    sim.run().expect("property-generated program simulates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mode flips never perturb grants or statistics: the adaptive
    /// default, both forced pins, and a deliberately thrashing
    /// zero-width hysteresis band (enter 2 / exit 2, flipping on nearly
    /// every backlog change) all produce bit-identical reports.
    #[test]
    fn mode_flips_never_perturb_grants_or_stats(program in arb_program()) {
        for port in mirrored_ports() {
            let adaptive = run_with_thresholds(&program, port, None);
            for (what, enter, exit) in [
                ("forced naive", usize::MAX, 0),
                ("forced batched", 0, 0),
                ("thrashing band", 2, 2),
            ] {
                let pinned = run_with_thresholds(&program, port, Some((enter, exit)));
                prop_assert_eq!(
                    &pinned, &adaptive,
                    "{:?}: {} diverged from adaptive", port, what
                );
            }
        }
    }
}
