//! Property tests: the emulator and timing simulator over randomly
//! generated straight-line programs.

use proptest::prelude::*;

use hbdc_core::PortConfig;
use hbdc_cpu::{CpuConfig, Emulator, Simulator};
use hbdc_isa::{AluOp, Inst, Program, Reg, Width, DATA_BASE};
use hbdc_mem::HierarchyConfig;

/// A random straight-line instruction whose memory accesses stay inside a
/// 4KB window of the data region (base register r0 + absolute offset).
fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = (1u8..16).prop_map(Reg::new);
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(rd, rs, rt)| Inst::Alu {
            op: AluOp::Add,
            rd,
            rs,
            rt
        }),
        (reg.clone(), reg.clone(), -64i64..64).prop_map(|(rd, rs, imm)| Inst::AluImm {
            op: AluOp::Xor,
            rd,
            rs,
            imm
        }),
        (reg.clone(), 0i64..512).prop_map(|(rd, slot)| Inst::Load {
            width: Width::Double,
            rd,
            base: Reg::ZERO,
            offset: DATA_BASE as i64 + slot * 8,
        }),
        (reg, 0i64..512).prop_map(|(rs, slot)| Inst::Store {
            width: Width::Double,
            rs,
            base: Reg::ZERO,
            offset: DATA_BASE as i64 + slot * 8,
        }),
        Just(Inst::Nop),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(arb_inst(), 1..200).prop_map(|mut text| {
        text.push(Inst::Halt);
        Program::from_parts(text, vec![0; 4096], 0)
    })
}

fn run(program: &Program, port: PortConfig) -> hbdc_cpu::SimReport {
    Simulator::new(
        program,
        CpuConfig::default(),
        HierarchyConfig::default(),
        port,
    )
    .run()
    .expect("property-generated program must simulate cleanly")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emulator_executes_every_instruction_once(program in arb_program()) {
        let count = Emulator::new(&program).count();
        prop_assert_eq!(count, program.text().len());
    }

    #[test]
    fn emulator_is_deterministic(program in arb_program()) {
        let a: Vec<_> = Emulator::new(&program).collect();
        let b: Vec<_> = Emulator::new(&program).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn simulator_commits_the_whole_program(program in arb_program()) {
        let report = run(&program, PortConfig::lbic(4, 2));
        prop_assert_eq!(report.committed as usize, program.text().len());
        // Loads either reach the cache or forward; stores always access.
        prop_assert_eq!(
            report.l1_accesses + report.forwards,
            report.loads + report.stores
        );
    }

    #[test]
    fn ipc_never_exceeds_machine_width(program in arb_program()) {
        for port in [
            PortConfig::Ideal { ports: 16 },
            PortConfig::banked(8),
            PortConfig::lbic(4, 4),
        ] {
            let report = run(&program, port);
            prop_assert!(report.ipc() <= 64.0 + 1e-9);
            prop_assert!(report.cycles > 0);
        }
    }

    #[test]
    fn every_port_model_commits_identically(program in arb_program()) {
        let reference = run(&program, PortConfig::Ideal { ports: 16 });
        for port in [
            PortConfig::Ideal { ports: 1 },
            PortConfig::Replicated { ports: 2 },
            PortConfig::banked(4),
            PortConfig::lbic(2, 2),
        ] {
            let report = run(&program, port);
            prop_assert_eq!(report.committed, reference.committed);
            prop_assert_eq!(report.loads, reference.loads);
            prop_assert_eq!(report.stores, reference.stores);
        }
    }

    #[test]
    fn more_ideal_ports_never_slow_the_machine(program in arb_program()) {
        let one = run(&program, PortConfig::Ideal { ports: 1 });
        let four = run(&program, PortConfig::Ideal { ports: 4 });
        prop_assert!(four.cycles <= one.cycles);
    }
}
