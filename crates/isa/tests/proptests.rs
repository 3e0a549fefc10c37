//! Property tests: assembler ↔ disassembler round trips over randomly
//! generated instruction sequences.

use proptest::prelude::*;

use hbdc_isa::asm::assemble;
use hbdc_isa::{disasm, AluOp, BranchCond, FReg, FpuOp, Inst, Reg, Width};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn arb_freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(FReg::new)
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Nor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
    ]
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::Byte),
        Just(Width::Half),
        Just(Width::Word),
        Just(Width::Double)
    ]
}

fn arb_cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Le),
        Just(BranchCond::Gt),
    ]
}

/// Non-control instructions round-trip one at a time; control flow is
/// covered by the whole-program strategy below (targets must resolve).
fn arb_plain_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs, rt)| Inst::Alu {
            op,
            rd,
            rs,
            rt
        }),
        (arb_alu_op(), arb_reg(), arb_reg(), -100_000i64..100_000)
            .prop_map(|(op, rd, rs, imm)| Inst::AluImm { op, rd, rs, imm }),
        (
            prop_oneof![
                Just(FpuOp::Add),
                Just(FpuOp::Sub),
                Just(FpuOp::Mul),
                Just(FpuOp::Div)
            ],
            arb_freg(),
            arb_freg(),
            arb_freg()
        )
            .prop_map(|(op, fd, fs, ft)| Inst::Fpu { op, fd, fs, ft }),
        (arb_cond(), arb_reg(), arb_freg(), arb_freg())
            .prop_map(|(cond, rd, fs, ft)| Inst::FpCmp { cond, rd, fs, ft }),
        (arb_freg(), arb_reg()).prop_map(|(fd, rs)| Inst::MovToFp { fd, rs }),
        (arb_reg(), arb_freg()).prop_map(|(rd, fs)| Inst::MovFromFp { rd, fs }),
        (arb_width(), arb_reg(), arb_reg(), -4096i64..4096).prop_map(
            |(width, rd, base, offset)| Inst::Load {
                width,
                rd,
                base,
                offset
            }
        ),
        (arb_width(), arb_reg(), arb_reg(), -4096i64..4096).prop_map(
            |(width, rs, base, offset)| Inst::Store {
                width,
                rs,
                base,
                offset
            }
        ),
        (arb_freg(), arb_reg(), -4096i64..4096).prop_map(|(fd, base, offset)| Inst::FLoad {
            width: Width::Double,
            fd,
            base,
            offset
        }),
        (arb_freg(), arb_reg(), -4096i64..4096).prop_map(|(fs, base, offset)| Inst::FStore {
            width: Width::Word,
            fs,
            base,
            offset
        }),
        (arb_reg()).prop_map(|rs| Inst::JumpReg { rs }),
        Just(Inst::Nop),
    ]
}

proptest! {
    #[test]
    fn disassembled_instructions_reassemble_identically(
        insts in prop::collection::vec(arb_plain_inst(), 1..60)
    ) {
        // Render each instruction, assemble the whole block, compare.
        let mut src = String::from(".text\nmain:\n");
        for i in &insts {
            src.push_str(&disasm::inst_to_string(i));
            src.push('\n');
        }
        src.push_str("halt\n");
        let program = assemble(&src).expect("disassembler output must assemble");
        prop_assert_eq!(program.text().len(), insts.len() + 1);
        for (original, reparsed) in insts.iter().zip(program.text()) {
            prop_assert_eq!(original, reparsed);
        }
    }

    #[test]
    fn whole_program_roundtrip_with_branches(
        insts in prop::collection::vec(arb_plain_inst(), 1..40),
        branch_points in prop::collection::vec((0usize..40, 0usize..40), 0..6)
    ) {
        // Build a program, sprinkle branches at valid targets, round-trip
        // through program_to_string.
        let mut text: Vec<Inst> = insts;
        let len = text.len() as u32;
        for (pos, target) in branch_points {
            let pos = pos % text.len();
            let target = (target as u32) % len;
            text[pos] = Inst::Branch {
                cond: BranchCond::Ne,
                rs: Reg::new(1),
                rt: Reg::new(2),
                target,
            };
        }
        text.push(Inst::Halt);
        let p1 = hbdc_isa::Program::from_parts(text, vec![], 0);
        let rendered = disasm::program_to_string(&p1);
        let p2 = assemble(&rendered).expect("rendered program must assemble");
        prop_assert_eq!(p1.text(), p2.text());
    }

    #[test]
    fn assembler_never_panics_on_arbitrary_text(src in "\\PC{0,200}") {
        // Errors are fine; panics are not.
        let _ = assemble(&src);
    }

    #[test]
    fn uses_and_defs_exclude_r0(inst in arb_plain_inst()) {
        let mut uses = Vec::new();
        inst.for_each_use(|u| uses.push(u));
        for u in uses {
            if let hbdc_isa::ArchReg::Int(r) = u {
                prop_assert!(!r.is_zero());
            }
        }
        if let Some(hbdc_isa::ArchReg::Int(r)) = inst.def() {
            prop_assert!(!r.is_zero());
        }
    }
}

proptest! {
    #[test]
    fn object_format_roundtrips(insts in prop::collection::vec(arb_plain_inst(), 1..80)) {
        let mut text = insts;
        text.push(Inst::Halt);
        let p = hbdc_isa::Program::from_parts(text, vec![1, 2, 3], 0);
        let bytes = hbdc_isa::object::to_bytes(&p);
        let q = hbdc_isa::object::from_bytes(&bytes).expect("roundtrip decodes");
        prop_assert_eq!(p.text(), q.text());
        prop_assert_eq!(p.data(), q.data());
    }

    #[test]
    fn object_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = hbdc_isa::object::from_bytes(&bytes);
    }
}
