//! Binary object format: compact serialization of assembled programs.
//!
//! Workload kernels are cheap to re-assemble, but experiment fleets that
//! run hundreds of simulations benefit from assembling once and reloading
//! a verified binary image. The format is deliberately simple:
//!
//! ```text
//! magic "HBDC"  u32 version  u32 entry  u32 text_len  u64 data_len
//! text_len x 12-byte instruction records
//! data bytes
//! ```
//!
//! Each instruction record is `opcode:u8 a:u8 b:u8 c:u8 imm:i64` where the
//! register/immediate fields are opcode-specific. Symbols are not
//! serialized — they exist for assembly-time resolution only.

use crate::error::AsmError;
use crate::inst::{AluOp, BranchCond, FpuOp, Inst, Width};
use crate::program::Program;
use crate::reg::{FReg, Reg};

const MAGIC: &[u8; 4] = b"HBDC";
const VERSION: u32 = 1;

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Nor => 8,
        AluOp::Sll => 9,
        AluOp::Srl => 10,
        AluOp::Sra => 11,
        AluOp::Slt => 12,
        AluOp::Sltu => 13,
    }
}

fn alu_from(code: u8) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Nor,
        9 => AluOp::Sll,
        10 => AluOp::Srl,
        11 => AluOp::Sra,
        12 => AluOp::Slt,
        13 => AluOp::Sltu,
        _ => return None,
    })
}

fn width_code(w: Width) -> u8 {
    match w {
        Width::Byte => 0,
        Width::Half => 1,
        Width::Word => 2,
        Width::Double => 3,
    }
}

fn width_from(code: u8) -> Option<Width> {
    Some(match code {
        0 => Width::Byte,
        1 => Width::Half,
        2 => Width::Word,
        3 => Width::Double,
        _ => return None,
    })
}

fn cond_code(c: BranchCond) -> u8 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
        BranchCond::Le => 4,
        BranchCond::Gt => 5,
    }
}

fn cond_from(code: u8) -> Option<BranchCond> {
    Some(match code {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Le,
        5 => BranchCond::Gt,
        _ => return None,
    })
}

/// (opcode, a, b, c, imm) record for one instruction.
fn encode_inst(inst: &Inst) -> (u8, u8, u8, u8, i64) {
    match *inst {
        Inst::Alu { op, rd, rs, rt } => (
            0,
            rd.index() as u8,
            rs.index() as u8,
            rt.index() as u8,
            alu_code(op) as i64,
        ),
        Inst::AluImm { op, rd, rs, imm } => {
            (1, rd.index() as u8, rs.index() as u8, alu_code(op), imm)
        }
        Inst::Fpu { op, fd, fs, ft } => {
            let code = match op {
                FpuOp::Add => 0,
                FpuOp::Sub => 1,
                FpuOp::Mul => 2,
                FpuOp::Div => 3,
            };
            (
                2,
                fd.index() as u8,
                fs.index() as u8,
                ft.index() as u8,
                code,
            )
        }
        Inst::FpCmp { cond, rd, fs, ft } => (
            3,
            rd.index() as u8,
            fs.index() as u8,
            ft.index() as u8,
            cond_code(cond) as i64,
        ),
        Inst::MovToFp { fd, rs } => (4, fd.index() as u8, rs.index() as u8, 0, 0),
        Inst::MovFromFp { rd, fs } => (5, rd.index() as u8, fs.index() as u8, 0, 0),
        Inst::Load {
            width,
            rd,
            base,
            offset,
        } => (
            6,
            rd.index() as u8,
            base.index() as u8,
            width_code(width),
            offset,
        ),
        Inst::Store {
            width,
            rs,
            base,
            offset,
        } => (
            7,
            rs.index() as u8,
            base.index() as u8,
            width_code(width),
            offset,
        ),
        Inst::FLoad {
            width,
            fd,
            base,
            offset,
        } => (
            8,
            fd.index() as u8,
            base.index() as u8,
            width_code(width),
            offset,
        ),
        Inst::FStore {
            width,
            fs,
            base,
            offset,
        } => (
            9,
            fs.index() as u8,
            base.index() as u8,
            width_code(width),
            offset,
        ),
        Inst::Branch {
            cond,
            rs,
            rt,
            target,
        } => (
            10,
            rs.index() as u8,
            rt.index() as u8,
            cond_code(cond),
            target as i64,
        ),
        Inst::Jump { target } => (11, 0, 0, 0, target as i64),
        Inst::JumpAndLink { rd, target } => (12, rd.index() as u8, 0, 0, target as i64),
        Inst::JumpReg { rs } => (13, rs.index() as u8, 0, 0, 0),
        Inst::Nop => (14, 0, 0, 0, 0),
        Inst::Halt => (15, 0, 0, 0, 0),
    }
}

fn decode_inst(op: u8, a: u8, b: u8, c: u8, imm: i64) -> Result<Inst, AsmError> {
    let bad = |what: &str| AsmError::new(0, format!("corrupt object: bad {what}"));
    let reg = |i: u8| -> Result<Reg, AsmError> {
        if (i as usize) < 32 {
            Ok(Reg::new(i))
        } else {
            Err(bad("register"))
        }
    };
    let freg = |i: u8| -> Result<FReg, AsmError> {
        if (i as usize) < 32 {
            Ok(FReg::new(i))
        } else {
            Err(bad("fp register"))
        }
    };
    Ok(match op {
        0 => Inst::Alu {
            op: alu_from(imm as u8).ok_or_else(|| bad("alu op"))?,
            rd: reg(a)?,
            rs: reg(b)?,
            rt: reg(c)?,
        },
        1 => Inst::AluImm {
            op: alu_from(c).ok_or_else(|| bad("alu op"))?,
            rd: reg(a)?,
            rs: reg(b)?,
            imm,
        },
        2 => Inst::Fpu {
            op: match imm {
                0 => FpuOp::Add,
                1 => FpuOp::Sub,
                2 => FpuOp::Mul,
                3 => FpuOp::Div,
                _ => return Err(bad("fpu op")),
            },
            fd: freg(a)?,
            fs: freg(b)?,
            ft: freg(c)?,
        },
        3 => Inst::FpCmp {
            cond: cond_from(imm as u8).ok_or_else(|| bad("condition"))?,
            rd: reg(a)?,
            fs: freg(b)?,
            ft: freg(c)?,
        },
        4 => Inst::MovToFp {
            fd: freg(a)?,
            rs: reg(b)?,
        },
        5 => Inst::MovFromFp {
            rd: reg(a)?,
            fs: freg(b)?,
        },
        6 => Inst::Load {
            width: width_from(c).ok_or_else(|| bad("width"))?,
            rd: reg(a)?,
            base: reg(b)?,
            offset: imm,
        },
        7 => Inst::Store {
            width: width_from(c).ok_or_else(|| bad("width"))?,
            rs: reg(a)?,
            base: reg(b)?,
            offset: imm,
        },
        8 => Inst::FLoad {
            width: width_from(c).ok_or_else(|| bad("width"))?,
            fd: freg(a)?,
            base: reg(b)?,
            offset: imm,
        },
        9 => Inst::FStore {
            width: width_from(c).ok_or_else(|| bad("width"))?,
            fs: freg(a)?,
            base: reg(b)?,
            offset: imm,
        },
        10 => Inst::Branch {
            cond: cond_from(c).ok_or_else(|| bad("condition"))?,
            rs: reg(a)?,
            rt: reg(b)?,
            target: u32::try_from(imm).map_err(|_| bad("target"))?,
        },
        11 => Inst::Jump {
            target: u32::try_from(imm).map_err(|_| bad("target"))?,
        },
        12 => Inst::JumpAndLink {
            rd: reg(a)?,
            target: u32::try_from(imm).map_err(|_| bad("target"))?,
        },
        13 => Inst::JumpReg { rs: reg(a)? },
        14 => Inst::Nop,
        15 => Inst::Halt,
        _ => return Err(bad("opcode")),
    })
}

/// Serializes a program to the binary object format.
///
/// # Examples
///
/// ```
/// use hbdc_isa::asm::assemble;
/// use hbdc_isa::object;
///
/// let p = assemble("main: li r1, 7\n halt\n")?;
/// let bytes = object::to_bytes(&p);
/// let back = object::from_bytes(&bytes)?;
/// assert_eq!(p.text(), back.text());
/// # Ok::<(), hbdc_isa::AsmError>(())
/// ```
pub fn to_bytes(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + program.text().len() * 12 + program.data().len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&program.entry().to_le_bytes());
    out.extend_from_slice(&(program.text().len() as u32).to_le_bytes());
    out.extend_from_slice(&(program.data().len() as u64).to_le_bytes());
    for inst in program.text() {
        let (op, a, b, c, imm) = encode_inst(inst);
        out.extend_from_slice(&[op, a, b, c]);
        out.extend_from_slice(&imm.to_le_bytes());
    }
    out.extend_from_slice(program.data());
    out
}

/// Deserializes a program from the binary object format.
///
/// # Errors
///
/// Returns an [`AsmError`] on a bad magic, unsupported version, truncated
/// input, or any corrupt instruction record.
pub fn from_bytes(bytes: &[u8]) -> Result<Program, AsmError> {
    let bad = |what: &str| AsmError::new(0, format!("corrupt object: {what}"));
    if bytes.len() < 24 {
        return Err(bad("truncated header"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sliced"));
    if version != VERSION {
        return Err(AsmError::new(
            0,
            format!("unsupported object version {version}"),
        ));
    }
    let entry = u32::from_le_bytes(bytes[8..12].try_into().expect("sliced"));
    let text_len = u32::from_le_bytes(bytes[12..16].try_into().expect("sliced")) as usize;
    let data_len = u64::from_le_bytes(bytes[16..24].try_into().expect("sliced")) as usize;
    let need = 24 + text_len * 12 + data_len;
    if bytes.len() != need {
        return Err(bad("length mismatch"));
    }
    let mut text = Vec::with_capacity(text_len);
    let mut pos = 24;
    for _ in 0..text_len {
        let rec = &bytes[pos..pos + 12];
        let imm = i64::from_le_bytes(rec[4..12].try_into().expect("sliced"));
        let inst = decode_inst(rec[0], rec[1], rec[2], rec[3], imm)?;
        if let Some(target) = match inst {
            Inst::Branch { target, .. }
            | Inst::Jump { target }
            | Inst::JumpAndLink { target, .. } => Some(target),
            _ => None,
        } {
            if target as usize >= text_len {
                return Err(bad("branch target out of range"));
            }
        }
        text.push(inst);
        pos += 12;
    }
    if entry as usize >= text_len {
        return Err(bad("entry out of range"));
    }
    let data = bytes[pos..pos + data_len].to_vec();
    Ok(Program::from_parts(text, data, entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn sample() -> Program {
        assemble(
            ".data\nv: .word 1, 2, 3\n.text\nmain:\n la r8, v\n li r9, 3\nloop:\n \
             lw r1, 0(r8)\n fadd.d f1, f2, f3\n itof f4, r1\n fcmp.lt r2, f1, f4\n \
             sd r1, -8(sp)\n addi r8, r8, 4\n addi r9, r9, -1\n bnez r9, loop\n \
             jal loop\n jr ra\n halt\n",
        )
        .expect("assembles")
    }

    #[test]
    fn roundtrip_preserves_text_data_entry() {
        let p = sample();
        let bytes = to_bytes(&p);
        let q = from_bytes(&bytes).expect("decodes");
        assert_eq!(p.text(), q.text());
        assert_eq!(p.data(), q.data());
        assert_eq!(p.entry(), q.entry());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert!(from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("magic"));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 99;
        assert!(from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = to_bytes(&sample());
        for cut in [0, 10, 23, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_opcode_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[24] = 200; // first instruction's opcode
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_register_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[25] = 77; // first instruction's rd
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn out_of_range_branch_target_rejected() {
        // Hand-build an object with a jump past the end.
        let p = Program::from_parts(vec![Inst::Jump { target: 0 }, Inst::Halt], vec![], 0);
        let mut bytes = to_bytes(&p);
        // Patch the jump's imm (record 0, bytes 28..36) to 99.
        bytes[28..36].copy_from_slice(&99i64.to_le_bytes());
        assert!(from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("target"));
    }

    #[test]
    fn empty_data_section_roundtrips() {
        let p = assemble("main: halt\n").unwrap();
        let q = from_bytes(&to_bytes(&p)).unwrap();
        assert_eq!(q.data().len(), 0);
        assert_eq!(q.text(), p.text());
    }
}
