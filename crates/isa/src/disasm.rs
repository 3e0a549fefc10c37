//! Disassembler: renders instructions back to assembler-compatible text.
//!
//! The output of [`inst_to_string`] re-assembles to the same instruction,
//! which the property tests in this crate verify. Branch and jump targets
//! render as synthetic labels `L<target>`, so whole-program output from
//! [`program_to_string`] is self-consistent.

use crate::inst::{Inst, Width};
use crate::program::Program;

fn width_suffix(width: Width) -> &'static str {
    match width {
        Width::Byte => "b",
        Width::Half => "h",
        Width::Word => "w",
        Width::Double => "d",
    }
}

/// Renders one instruction as assembler text.
///
/// # Examples
///
/// ```
/// use hbdc_isa::{disasm, AluOp, Inst, Reg};
///
/// let i = Inst::Alu { op: AluOp::Add, rd: Reg::new(1), rs: Reg::new(2), rt: Reg::new(3) };
/// assert_eq!(disasm::inst_to_string(&i), "add r1, r2, r3");
/// ```
pub fn inst_to_string(inst: &Inst) -> String {
    match *inst {
        Inst::Alu { op, rd, rs, rt } => format!("{} {rd}, {rs}, {rt}", op.mnemonic()),
        Inst::AluImm { op, rd, rs, imm } => format!("{}i {rd}, {rs}, {imm}", op.mnemonic()),
        Inst::Fpu { op, fd, fs, ft } => format!("{} {fd}, {fs}, {ft}", op.mnemonic()),
        Inst::FpCmp { cond, rd, fs, ft } => {
            // fcmp.<cond> reuses the branch mnemonic without its leading 'b'.
            format!("fcmp.{} {rd}, {fs}, {ft}", &cond.mnemonic()[1..])
        }
        Inst::MovToFp { fd, rs } => format!("itof {fd}, {rs}"),
        Inst::MovFromFp { rd, fs } => format!("ftoi {rd}, {fs}"),
        Inst::Load {
            width,
            rd,
            base,
            offset,
        } => {
            format!("l{} {rd}, {offset}({base})", width_suffix(width))
        }
        Inst::Store {
            width,
            rs,
            base,
            offset,
        } => {
            format!("s{} {rs}, {offset}({base})", width_suffix(width))
        }
        Inst::FLoad {
            width,
            fd,
            base,
            offset,
        } => {
            let m = if width == Width::Double { "fld" } else { "flw" };
            format!("{m} {fd}, {offset}({base})")
        }
        Inst::FStore {
            width,
            fs,
            base,
            offset,
        } => {
            let m = if width == Width::Double { "fsd" } else { "fsw" };
            format!("{m} {fs}, {offset}({base})")
        }
        Inst::Branch {
            cond,
            rs,
            rt,
            target,
        } => {
            format!("{} {rs}, {rt}, L{target}", cond.mnemonic())
        }
        Inst::Jump { target } => format!("j L{target}"),
        Inst::JumpAndLink { rd: _, target } => format!("jal L{target}"),
        Inst::JumpReg { rs } => format!("jr {rs}"),
        Inst::Nop => "nop".to_string(),
        Inst::Halt => "halt".to_string(),
    }
}

/// Renders a program's initialized data image as `.data` directives:
/// zero runs compress to `.space`, other bytes emit as `.byte` rows. The
/// output re-assembles to the identical image.
fn data_section(data: &[u8]) -> String {
    let mut out = String::from(".data\n");
    let mut i = 0;
    while i < data.len() {
        let start = i;
        if data[i] == 0 {
            while i < data.len() && data[i] == 0 {
                i += 1;
            }
            out.push_str(&format!("    .space {}\n", i - start));
        } else {
            while i < data.len() && data[i] != 0 && i - start < 16 {
                i += 1;
            }
            let row: Vec<String> = data[start..i].iter().map(u8::to_string).collect();
            out.push_str(&format!("    .byte {}\n", row.join(", ")));
        }
    }
    out
}

/// Renders a whole program — `.data` image (when present) and `.text`
/// with synthetic `L<pc>` labels on every instruction — producing
/// re-assemblable output: assembling it reproduces the same instruction
/// text, data image, and entry point.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    if !program.data().is_empty() {
        out.push_str(&data_section(program.data()));
    }
    out.push_str(".text\n");
    for (pc, inst) in program.text().iter().enumerate() {
        if program.entry() as usize == pc {
            out.push_str("main:\n");
        }
        out.push_str(&format!("L{pc}: {}\n", inst_to_string(inst)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::inst::{AluOp, BranchCond, FpuOp};
    use crate::reg::{FReg, Reg};

    #[test]
    fn renders_core_forms() {
        let r = Reg::new;
        let f = FReg::new;
        assert_eq!(
            inst_to_string(&Inst::AluImm {
                op: AluOp::Add,
                rd: r(1),
                rs: r(2),
                imm: -4
            }),
            "addi r1, r2, -4"
        );
        assert_eq!(
            inst_to_string(&Inst::Fpu {
                op: FpuOp::Mul,
                fd: f(1),
                fs: f(2),
                ft: f(3)
            }),
            "fmul.d f1, f2, f3"
        );
        assert_eq!(
            inst_to_string(&Inst::Load {
                width: Width::Byte,
                rd: r(1),
                base: r(2),
                offset: 3
            }),
            "lb r1, 3(r2)"
        );
        assert_eq!(
            inst_to_string(&Inst::FStore {
                width: Width::Double,
                fs: f(4),
                base: r(5),
                offset: -8
            }),
            "fsd f4, -8(r5)"
        );
        assert_eq!(
            inst_to_string(&Inst::Branch {
                cond: BranchCond::Ne,
                rs: r(1),
                rt: r(0),
                target: 7
            }),
            "bne r1, r0, L7"
        );
        assert_eq!(
            inst_to_string(&Inst::FpCmp {
                cond: BranchCond::Le,
                rd: r(2),
                fs: f(0),
                ft: f(1)
            }),
            "fcmp.le r2, f0, f1"
        );
    }

    #[test]
    fn program_roundtrip_through_assembler() {
        let src = r#"
        main:
            li   r8, 10
            li   r9, 0
        loop:
            add  r9, r9, r8
            addi r8, r8, -1
            bne  r8, r0, loop
            fadd.d f1, f2, f3
            jal  loop
            jr   ra
            halt
        "#;
        let p1 = assemble(src).unwrap();
        let text = program_to_string(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1.text(), p2.text());
        assert_eq!(p2.entry(), p1.entry());
    }

    #[test]
    fn data_image_roundtrips_through_assembler() {
        let src = r#"
        .data
        v: .word 1, -1
        s: .asciiz "hbdc"
        pad: .space 9
        tail: .byte 7, 0, 255
        .text
        main:
            la r8, v
            lw r1, 0(r8)
            halt
        "#;
        let p1 = assemble(src).unwrap();
        let text = program_to_string(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1.text(), p2.text());
        assert_eq!(
            p1.data(),
            p2.data(),
            "data image must survive the round trip"
        );
        assert_eq!(p1.entry(), p2.entry());
    }

    #[test]
    fn dataless_program_renders_without_data_section() {
        let p = assemble(".text\nmain:\n halt\n").unwrap();
        assert!(program_to_string(&p).starts_with(".text\n"));
    }
}
