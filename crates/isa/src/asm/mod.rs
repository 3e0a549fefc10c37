//! Two-pass textual assembler for the micro-ISA.
//!
//! # Syntax
//!
//! * Sections: `.text` (default) and `.data`.
//! * Labels: `name:` at the start of a line (may be followed by an
//!   instruction or directive on the same line).
//! * Comments: `#`, `;`, or `//` to end of line.
//! * Data directives: `.byte`, `.half`, `.word`, `.dword`, `.double`,
//!   `.space N`, `.align N` (align to `2^N` bytes), `.asciiz "s"`.
//! * Register aliases: `zero` (r0), `sp` (r29), `fp` (r30), `ra` (r31).
//! * Pseudo-instructions: `li`, `la`, `mov`, `neg`, `not`, `b`,
//!   `beqz`/`bnez`/`bltz`/`bgez`/`blez`/`bgtz`.
//!
//! The entry point is the `main` label if present, otherwise instruction 0.
//!
//! # Examples
//!
//! ```
//! use hbdc_isa::asm::assemble;
//!
//! let p = assemble(
//!     r#"
//!     .data
//!     table:  .word 1, 2, 3, 4
//!     .text
//!     main:
//!         la   r8, table
//!         lw   r9, 0(r8)
//!         lw   r10, 4(r8)
//!         add  r9, r9, r10
//!         halt
//!     "#,
//! )?;
//! assert_eq!(p.text().len(), 5);
//! # Ok::<(), hbdc_isa::AsmError>(())
//! ```

mod directive;
mod operand;

use std::collections::HashMap;

use crate::error::AsmError;
use crate::inst::{AluOp, BranchCond, FpuOp, Inst, Width};
use crate::layout::DATA_BASE;
use crate::program::Program;
use crate::reg::Reg;

use directive::DataImage;
use operand::{parse_freg, parse_imm, parse_mem, parse_reg};

/// A label resolved by the assembler's first pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symbol {
    /// A label in the text section: absolute instruction index.
    Text(u32),
    /// A label in the data section: absolute virtual byte address.
    Data(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// A source line reduced to label / body parts with its 1-based line number.
#[derive(Debug)]
struct Line<'a> {
    number: u32,
    labels: Vec<&'a str>,
    body: Option<&'a str>,
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, c) in line.char_indices() {
        if c == '#' || c == ';' {
            end = i;
            break;
        }
        if c == '/' && line[i + 1..].starts_with('/') {
            end = i;
            break;
        }
    }
    &line[..end]
}

fn split_lines(src: &str) -> Result<Vec<Line<'_>>, AsmError> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let number = idx as u32 + 1;
        let mut rest = strip_comment(raw).trim();
        let mut labels = Vec::new();
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let label = head.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                || label.starts_with('.')
            {
                break; // not a label — e.g. a string containing ':'
            }
            labels.push(label);
            rest = tail[1..].trim();
        }
        let body = if rest.is_empty() { None } else { Some(rest) };
        if body.is_none() && labels.is_empty() {
            continue;
        }
        out.push(Line {
            number,
            labels,
            body,
        });
    }
    Ok(out)
}

/// Splits an instruction body into mnemonic and comma-separated operands.
fn split_operands(body: &str) -> (&str, Vec<&str>) {
    let body = body.trim();
    match body.find(char::is_whitespace) {
        None => (body, Vec::new()),
        Some(ws) => {
            let (m, rest) = body.split_at(ws);
            let ops = rest
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            (m, ops)
        }
    }
}

/// Assembles micro-ISA source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending source line for unknown
/// mnemonics, malformed operands, duplicate or undefined labels, and
/// malformed directives.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let lines = split_lines(src)?;

    // Pass 1: assign label values. Every instruction occupies exactly one
    // text slot (all pseudo-instructions expand 1:1), so text offsets are
    // simple counts; data offsets come from a dry-run of the directives.
    let mut symbols: HashMap<String, Symbol> = HashMap::new();
    let mut section = Section::Text;
    let mut text_len: u32 = 0;
    let mut data_len: u64 = 0;
    for line in &lines {
        for label in &line.labels {
            let sym = match section {
                Section::Text => Symbol::Text(text_len),
                Section::Data => Symbol::Data(DATA_BASE + data_len),
            };
            if symbols.insert((*label).to_string(), sym).is_some() {
                return Err(AsmError::new(
                    line.number,
                    format!("duplicate label `{label}`"),
                ));
            }
        }
        let Some(body) = line.body else { continue };
        if let Some(dir) = body.strip_prefix('.') {
            let (name, _) = split_operands(dir);
            match name {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                _ => {
                    if section != Section::Data {
                        return Err(AsmError::new(
                            line.number,
                            format!("directive `.{name}` only allowed in .data"),
                        ));
                    }
                    data_len = directive::sized(body, data_len, line.number)?;
                }
            }
        } else {
            if section != Section::Text {
                return Err(AsmError::new(line.number, "instruction outside .text"));
            }
            text_len += 1;
        }
    }

    // Pass 2: emit. Section legality was already checked in pass 1.
    let mut text: Vec<Inst> = Vec::with_capacity(text_len as usize);
    let mut data = DataImage::new();
    for line in &lines {
        let Some(body) = line.body else { continue };
        if let Some(dir) = body.strip_prefix('.') {
            let (name, _) = split_operands(dir);
            match name {
                "text" | "data" => {}
                _ => data.emit(body, line.number)?,
            }
        } else {
            text.push(encode_line(body, line.number, &symbols)?);
        }
    }
    debug_assert_eq!(text.len(), text_len as usize);
    debug_assert_eq!(data.len() as u64, data_len);

    let entry = match symbols.get("main") {
        Some(Symbol::Text(pc)) => *pc,
        Some(Symbol::Data(_)) => {
            return Err(AsmError::new(0, "`main` must be a text label"));
        }
        None => 0,
    };
    if text.is_empty() {
        return Err(AsmError::new(0, "program has no instructions"));
    }
    Ok(Program::from_parts(text, data.into_bytes(), entry))
}

fn text_target(name: &str, symbols: &HashMap<String, Symbol>, line: u32) -> Result<u32, AsmError> {
    match symbols.get(name) {
        Some(Symbol::Text(pc)) => Ok(*pc),
        Some(Symbol::Data(_)) => Err(AsmError::new(
            line,
            format!("`{name}` is a data label, expected text"),
        )),
        None => Err(AsmError::new(line, format!("undefined label `{name}`"))),
    }
}

fn expect_ops(ops: &[&str], n: usize, mnemonic: &str, line: u32) -> Result<(), AsmError> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(AsmError::new(
            line,
            format!("`{mnemonic}` expects {n} operand(s), got {}", ops.len()),
        ))
    }
}

fn alu_op(name: &str) -> Option<AluOp> {
    Some(match name {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "rem" => AluOp::Rem,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "nor" => AluOp::Nor,
        "sll" => AluOp::Sll,
        "srl" => AluOp::Srl,
        "sra" => AluOp::Sra,
        "slt" => AluOp::Slt,
        "sltu" => AluOp::Sltu,
        _ => return None,
    })
}

fn branch_cond(name: &str) -> Option<BranchCond> {
    Some(match name {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "blt" => BranchCond::Lt,
        "bge" => BranchCond::Ge,
        "ble" => BranchCond::Le,
        "bgt" => BranchCond::Gt,
        _ => return None,
    })
}

fn encode_line(body: &str, line: u32, symbols: &HashMap<String, Symbol>) -> Result<Inst, AsmError> {
    let (mnemonic, ops) = split_operands(body);
    let m = mnemonic.to_ascii_lowercase();

    // Integer ALU register-register.
    if let Some(op) = alu_op(&m) {
        expect_ops(&ops, 3, &m, line)?;
        return Ok(Inst::Alu {
            op,
            rd: parse_reg(ops[0], line)?,
            rs: parse_reg(ops[1], line)?,
            rt: parse_reg(ops[2], line)?,
        });
    }
    // Integer ALU register-immediate: `<op>i`.
    if let Some(base) = m.strip_suffix('i') {
        if let Some(op) = alu_op(base) {
            expect_ops(&ops, 3, &m, line)?;
            return Ok(Inst::AluImm {
                op,
                rd: parse_reg(ops[0], line)?,
                rs: parse_reg(ops[1], line)?,
                imm: parse_imm(ops[2], line)?,
            });
        }
    }
    // `sltui` spelled `sltiu` in MIPS tradition: accept both.
    if m == "sltiu" {
        expect_ops(&ops, 3, &m, line)?;
        return Ok(Inst::AluImm {
            op: AluOp::Sltu,
            rd: parse_reg(ops[0], line)?,
            rs: parse_reg(ops[1], line)?,
            imm: parse_imm(ops[2], line)?,
        });
    }

    // Floating point arithmetic.
    let fpu = match m.as_str() {
        "fadd.d" => Some(FpuOp::Add),
        "fsub.d" => Some(FpuOp::Sub),
        "fmul.d" => Some(FpuOp::Mul),
        "fdiv.d" => Some(FpuOp::Div),
        _ => None,
    };
    if let Some(op) = fpu {
        expect_ops(&ops, 3, &m, line)?;
        return Ok(Inst::Fpu {
            op,
            fd: parse_freg(ops[0], line)?,
            fs: parse_freg(ops[1], line)?,
            ft: parse_freg(ops[2], line)?,
        });
    }
    if let Some(cond_name) = m.strip_prefix("fcmp.") {
        let cond = branch_cond(&format!("b{cond_name}"))
            .ok_or_else(|| AsmError::new(line, format!("unknown fp compare `{m}`")))?;
        expect_ops(&ops, 3, &m, line)?;
        return Ok(Inst::FpCmp {
            cond,
            rd: parse_reg(ops[0], line)?,
            fs: parse_freg(ops[1], line)?,
            ft: parse_freg(ops[2], line)?,
        });
    }

    // Register moves between files.
    match m.as_str() {
        "itof" => {
            expect_ops(&ops, 2, &m, line)?;
            return Ok(Inst::MovToFp {
                fd: parse_freg(ops[0], line)?,
                rs: parse_reg(ops[1], line)?,
            });
        }
        "ftoi" => {
            expect_ops(&ops, 2, &m, line)?;
            return Ok(Inst::MovFromFp {
                rd: parse_reg(ops[0], line)?,
                fs: parse_freg(ops[1], line)?,
            });
        }
        _ => {}
    }

    // Loads and stores.
    let int_mem = |width| -> Result<Inst, AsmError> {
        expect_ops(&ops, 2, &m, line)?;
        let rd = parse_reg(ops[0], line)?;
        let (base, offset) = parse_mem(ops[1], symbols, line)?;
        Ok(if m.starts_with('l') {
            Inst::Load {
                width,
                rd,
                base,
                offset,
            }
        } else {
            Inst::Store {
                width,
                rs: rd,
                base,
                offset,
            }
        })
    };
    match m.as_str() {
        "lb" | "sb" => return int_mem(Width::Byte),
        "lh" | "sh" => return int_mem(Width::Half),
        "lw" | "sw" => return int_mem(Width::Word),
        "ld" | "sd" => return int_mem(Width::Double),
        _ => {}
    }
    let fp_mem = |width, is_load: bool| -> Result<Inst, AsmError> {
        expect_ops(&ops, 2, &m, line)?;
        let f = parse_freg(ops[0], line)?;
        let (base, offset) = parse_mem(ops[1], symbols, line)?;
        Ok(if is_load {
            Inst::FLoad {
                width,
                fd: f,
                base,
                offset,
            }
        } else {
            Inst::FStore {
                width,
                fs: f,
                base,
                offset,
            }
        })
    };
    match m.as_str() {
        "flw" => return fp_mem(Width::Word, true),
        "fld" => return fp_mem(Width::Double, true),
        "fsw" => return fp_mem(Width::Word, false),
        "fsd" => return fp_mem(Width::Double, false),
        _ => {}
    }

    // Branches.
    if let Some(cond) = branch_cond(&m) {
        expect_ops(&ops, 3, &m, line)?;
        return Ok(Inst::Branch {
            cond,
            rs: parse_reg(ops[0], line)?,
            rt: parse_reg(ops[1], line)?,
            target: text_target(ops[2], symbols, line)?,
        });
    }
    // Branch-against-zero pseudo forms.
    let bz = match m.as_str() {
        "beqz" => Some(BranchCond::Eq),
        "bnez" => Some(BranchCond::Ne),
        "bltz" => Some(BranchCond::Lt),
        "bgez" => Some(BranchCond::Ge),
        "blez" => Some(BranchCond::Le),
        "bgtz" => Some(BranchCond::Gt),
        _ => None,
    };
    if let Some(cond) = bz {
        expect_ops(&ops, 2, &m, line)?;
        return Ok(Inst::Branch {
            cond,
            rs: parse_reg(ops[0], line)?,
            rt: Reg::ZERO,
            target: text_target(ops[1], symbols, line)?,
        });
    }

    // Jumps.
    match m.as_str() {
        "j" | "b" => {
            expect_ops(&ops, 1, &m, line)?;
            return Ok(Inst::Jump {
                target: text_target(ops[0], symbols, line)?,
            });
        }
        "jal" => {
            expect_ops(&ops, 1, &m, line)?;
            return Ok(Inst::JumpAndLink {
                rd: Reg::RA,
                target: text_target(ops[0], symbols, line)?,
            });
        }
        "jr" => {
            expect_ops(&ops, 1, &m, line)?;
            return Ok(Inst::JumpReg {
                rs: parse_reg(ops[0], line)?,
            });
        }
        _ => {}
    }

    // Remaining pseudo-instructions.
    match m.as_str() {
        "li" => {
            expect_ops(&ops, 2, &m, line)?;
            return Ok(Inst::AluImm {
                op: AluOp::Or,
                rd: parse_reg(ops[0], line)?,
                rs: Reg::ZERO,
                imm: parse_imm(ops[1], line)?,
            });
        }
        "la" => {
            expect_ops(&ops, 2, &m, line)?;
            // `la rd, label` or `la rd, label+disp` — reuse the memory
            // operand grammar, restricted to absolute (r0-based) forms.
            let (base, imm) = parse_mem(ops[1], symbols, line)?;
            if !base.is_zero() {
                return Err(AsmError::new(line, "`la` expects a data label"));
            }
            return Ok(Inst::AluImm {
                op: AluOp::Or,
                rd: parse_reg(ops[0], line)?,
                rs: Reg::ZERO,
                imm,
            });
        }
        "mov" => {
            expect_ops(&ops, 2, &m, line)?;
            return Ok(Inst::Alu {
                op: AluOp::Or,
                rd: parse_reg(ops[0], line)?,
                rs: parse_reg(ops[1], line)?,
                rt: Reg::ZERO,
            });
        }
        "neg" => {
            expect_ops(&ops, 2, &m, line)?;
            return Ok(Inst::Alu {
                op: AluOp::Sub,
                rd: parse_reg(ops[0], line)?,
                rs: Reg::ZERO,
                rt: parse_reg(ops[1], line)?,
            });
        }
        "not" => {
            expect_ops(&ops, 2, &m, line)?;
            return Ok(Inst::Alu {
                op: AluOp::Nor,
                rd: parse_reg(ops[0], line)?,
                rs: parse_reg(ops[1], line)?,
                rt: Reg::ZERO,
            });
        }
        "nop" => {
            expect_ops(&ops, 0, &m, line)?;
            return Ok(Inst::Nop);
        }
        "halt" => {
            expect_ops(&ops, 0, &m, line)?;
            return Ok(Inst::Halt);
        }
        _ => {}
    }

    Err(AsmError::new(
        line,
        format!("unknown mnemonic `{mnemonic}`"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Inst};

    #[test]
    fn assembles_minimal_program() {
        let p = assemble("halt\n").unwrap();
        assert_eq!(p.text(), &[Inst::Halt]);
    }

    #[test]
    fn empty_program_is_error() {
        assert!(assemble("").is_err());
        assert!(assemble(".data\nx: .word 1\n").is_err());
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble("main:\n  j end\nmid:\n  nop\n  j mid\nend:\n  halt\n").unwrap();
        assert_eq!(p.text()[0], Inst::Jump { target: 3 });
        assert_eq!(p.text()[2], Inst::Jump { target: 1 });
    }

    #[test]
    fn duplicate_label_is_error() {
        let err = assemble("a:\n nop\na:\n halt\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn undefined_label_is_error() {
        let err = assemble("j nowhere\n").unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn li_and_la_expand() {
        let p =
            assemble(".data\nbuf: .space 8\n.text\nmain: li r1, -7\n la r2, buf\n halt\n").unwrap();
        assert_eq!(
            p.text()[0],
            Inst::AluImm {
                op: AluOp::Or,
                rd: Reg::new(1),
                rs: Reg::ZERO,
                imm: -7
            }
        );
        match p.text()[1] {
            Inst::AluImm { imm, .. } => assert_eq!(imm as u64, DATA_BASE),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_are_stripped() {
        let p = assemble("# header\nmain: nop // trailing\n halt ; also\n").unwrap();
        assert_eq!(p.text().len(), 2);
    }

    #[test]
    fn entry_defaults_to_zero_without_main() {
        let p = assemble("nop\nhalt\n").unwrap();
        assert_eq!(p.entry(), 0);
    }

    #[test]
    fn entry_uses_main() {
        let p = assemble("helper: nop\nmain: halt\n").unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn instruction_in_data_section_is_error() {
        let err = assemble(".data\nadd r1, r2, r3\n").unwrap_err();
        assert!(err.to_string().contains("outside .text"));
    }

    #[test]
    fn wrong_operand_count_is_error() {
        let err = assemble("add r1, r2\n").unwrap_err();
        assert!(err.to_string().contains("expects 3"));
    }

    #[test]
    fn branch_zero_pseudos() {
        let p = assemble("main: beqz r4, main\n bgtz r5, main\n halt\n").unwrap();
        assert_eq!(
            p.text()[0],
            Inst::Branch {
                cond: BranchCond::Eq,
                rs: Reg::new(4),
                rt: Reg::ZERO,
                target: 0
            }
        );
        assert_eq!(
            p.text()[1],
            Inst::Branch {
                cond: BranchCond::Gt,
                rs: Reg::new(5),
                rt: Reg::ZERO,
                target: 0
            }
        );
    }

    #[test]
    fn fp_instructions_parse() {
        let p = assemble("fadd.d f1, f2, f3\nfcmp.lt r1, f2, f3\nitof f4, r5\nftoi r6, f7\nhalt\n")
            .unwrap();
        assert!(matches!(p.text()[0], Inst::Fpu { op: FpuOp::Add, .. }));
        assert!(matches!(
            p.text()[1],
            Inst::FpCmp {
                cond: BranchCond::Lt,
                ..
            }
        ));
        assert!(matches!(p.text()[2], Inst::MovToFp { .. }));
        assert!(matches!(p.text()[3], Inst::MovFromFp { .. }));
    }

    #[test]
    fn memory_operand_forms() {
        let p = assemble(
            ".data\nv: .word 9\n.text\nmain: lw r1, 4(r2)\n lw r3, (r4)\n lw r5, v\n sd r6, -8(sp)\n halt\n",
        )
        .unwrap();
        assert_eq!(
            p.text()[0],
            Inst::Load {
                width: Width::Word,
                rd: Reg::new(1),
                base: Reg::new(2),
                offset: 4
            }
        );
        assert_eq!(
            p.text()[1],
            Inst::Load {
                width: Width::Word,
                rd: Reg::new(3),
                base: Reg::new(4),
                offset: 0
            }
        );
        assert_eq!(
            p.text()[2],
            Inst::Load {
                width: Width::Word,
                rd: Reg::new(5),
                base: Reg::ZERO,
                offset: DATA_BASE as i64
            }
        );
        assert_eq!(
            p.text()[3],
            Inst::Store {
                width: Width::Double,
                rs: Reg::new(6),
                base: Reg::SP,
                offset: -8
            }
        );
    }

    #[test]
    fn multiple_labels_on_one_address() {
        let p = assemble("a: b_label: nop\n j a\n j b_label\n halt\n").unwrap();
        assert_eq!(p.text()[1], Inst::Jump { target: 0 });
        assert_eq!(p.text()[2], Inst::Jump { target: 0 });
    }

    #[test]
    fn sltiu_alias() {
        let p = assemble("sltiu r1, r2, 10\nhalt\n").unwrap();
        assert!(matches!(
            p.text()[0],
            Inst::AluImm {
                op: AluOp::Sltu,
                imm: 10,
                ..
            }
        ));
    }
}
