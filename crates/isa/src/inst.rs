//! The structured instruction set.

use crate::reg::{FReg, Reg};

/// Integer ALU operations (register-register and register-immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (low 64 bits).
    Mul,
    /// Signed division (result 0 on divide-by-zero, as SimpleScalar traps
    /// are out of scope for this study).
    Div,
    /// Signed remainder (0 on divide-by-zero).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Logical shift left (shift amount taken modulo 64).
    Sll,
    /// Logical shift right (modulo 64).
    Srl,
    /// Arithmetic shift right (modulo 64).
    Sra,
    /// Set-if-less-than, signed: `rd = (rs < rt) as i64`.
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Assembler mnemonic for the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Nor => "nor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Floating-point operations on 64-bit registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// FP addition.
    Add,
    /// FP subtraction.
    Sub,
    /// FP multiplication.
    Mul,
    /// FP division.
    Div,
}

impl FpuOp {
    /// Assembler mnemonic (`.d` suffix form).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Add => "fadd.d",
            FpuOp::Sub => "fsub.d",
            FpuOp::Mul => "fmul.d",
            FpuOp::Div => "fdiv.d",
        }
    }
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
    /// 8 bytes.
    Double,
}

impl Width {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
            Width::Double => 8,
        }
    }
}

/// Branch comparison conditions (signed, register-register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if `rs < rt` (signed).
    Lt,
    /// Branch if `rs >= rt` (signed).
    Ge,
    /// Branch if `rs <= rt` (signed).
    Le,
    /// Branch if `rs > rt` (signed).
    Gt,
}

impl BranchCond {
    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Le => "ble",
            BranchCond::Gt => "bgt",
        }
    }

    /// Evaluates the condition on two operand values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Le => a <= b,
            BranchCond::Gt => a > b,
        }
    }
}

/// Either register file, for dependence tracking in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchReg {
    /// An integer register.
    Int(Reg),
    /// A floating-point register.
    Fp(FReg),
}

/// Functional-unit class an instruction executes on (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Integer ALU: 1-cycle latency, fully pipelined.
    IntAlu,
    /// Integer multiplier: 3-cycle latency, pipelined.
    IntMult,
    /// Integer divider: 12-cycle latency, unpipelined.
    IntDiv,
    /// FP adder: 2-cycle latency, pipelined.
    FpAdd,
    /// FP multiplier: 4-cycle latency, pipelined.
    FpMult,
    /// FP divider: 12-cycle latency, unpipelined.
    FpDiv,
    /// Load/store address generation + cache access port.
    LoadStore,
    /// Consumes no functional unit (jumps, `nop`, `halt`).
    None,
}

/// A single micro-ISA instruction.
///
/// Branch and jump targets are absolute instruction indices into the
/// program text, resolved by the assembler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// Integer register-register ALU operation: `rd = rs op rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// Integer register-immediate ALU operation: `rd = rs op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// Floating-point register-register operation: `fd = fs op ft`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        fd: FReg,
        /// First source.
        fs: FReg,
        /// Second source.
        ft: FReg,
    },
    /// FP compare: `rd = (fs cond ft) as i64`, executed on the FP adder.
    FpCmp {
        /// Condition (signed semantics applied to the FP ordering).
        cond: BranchCond,
        /// Integer destination.
        rd: Reg,
        /// First FP source.
        fs: FReg,
        /// Second FP source.
        ft: FReg,
    },
    /// Move integer register to FP register (bit conversion from i64).
    MovToFp {
        /// FP destination.
        fd: FReg,
        /// Integer source (value converted `as f64`).
        rs: Reg,
    },
    /// Move FP register to integer register (truncating `as i64`).
    MovFromFp {
        /// Integer destination.
        rd: Reg,
        /// FP source.
        fs: FReg,
    },
    /// Integer load: `rd = mem[rs + offset]`, sign-extended.
    Load {
        /// Access width.
        width: Width,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Integer store: `mem[base + offset] = rs`.
    Store {
        /// Access width.
        width: Width,
        /// Value register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// FP load (width is `Word` for f32-converted or `Double` for f64).
    FLoad {
        /// Access width (`Word` or `Double`).
        width: Width,
        /// FP destination.
        fd: FReg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// FP store.
    FStore {
        /// Access width (`Word` or `Double`).
        width: Width,
        /// FP value register.
        fs: FReg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Conditional branch on two integer registers.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
        /// Absolute instruction-index target.
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute instruction-index target.
        target: u32,
    },
    /// Jump and link: `rd = return pc; pc = target`.
    JumpAndLink {
        /// Link destination (conventionally `ra`).
        rd: Reg,
        /// Absolute instruction-index target.
        target: u32,
    },
    /// Indirect jump through a register holding an instruction index.
    JumpReg {
        /// Register holding the target instruction index.
        rs: Reg,
    },
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
}

impl Inst {
    /// The architectural register this instruction writes, if any.
    ///
    /// Writes to `r0` are reported as `None`, so dependence tracking never
    /// creates producers for the hardwired-zero register.
    pub fn def(&self) -> Option<ArchReg> {
        let d = match *self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::MovFromFp { rd, .. }
            | Inst::FpCmp { rd, .. }
            | Inst::JumpAndLink { rd, .. } => ArchReg::Int(rd),
            Inst::Fpu { fd, .. } | Inst::FLoad { fd, .. } | Inst::MovToFp { fd, .. } => {
                ArchReg::Fp(fd)
            }
            _ => return None,
        };
        match d {
            ArchReg::Int(r) if r.is_zero() => None,
            other => Some(other),
        }
    }

    /// Calls `f` for each architectural register this instruction
    /// reads, in operand order — allocation-free, since dependence
    /// analysis runs it once per dispatched instruction.
    ///
    /// Reads of `r0` are omitted (always-ready constant zero).
    pub fn for_each_use(&self, mut f: impl FnMut(ArchReg)) {
        fn int(f: &mut impl FnMut(ArchReg), r: Reg) {
            if !r.is_zero() {
                f(ArchReg::Int(r));
            }
        }
        match *self {
            Inst::Alu { rs, rt, .. } => {
                int(&mut f, rs);
                int(&mut f, rt);
            }
            Inst::AluImm { rs, .. } => int(&mut f, rs),
            Inst::Fpu { fs, ft, .. } | Inst::FpCmp { fs, ft, .. } => {
                f(ArchReg::Fp(fs));
                f(ArchReg::Fp(ft));
            }
            Inst::MovToFp { rs, .. } => int(&mut f, rs),
            Inst::MovFromFp { fs, .. } => f(ArchReg::Fp(fs)),
            Inst::Load { base, .. } | Inst::FLoad { base, .. } => int(&mut f, base),
            Inst::Store { rs, base, .. } => {
                int(&mut f, rs);
                int(&mut f, base);
            }
            Inst::FStore { fs, base, .. } => {
                f(ArchReg::Fp(fs));
                int(&mut f, base);
            }
            Inst::Branch { rs, rt, .. } => {
                int(&mut f, rs);
                int(&mut f, rt);
            }
            Inst::JumpReg { rs } => int(&mut f, rs),
            Inst::Jump { .. } | Inst::JumpAndLink { .. } | Inst::Nop | Inst::Halt => {}
        }
    }

    /// The functional-unit class this instruction occupies (paper Table 1).
    pub fn fu_class(&self) -> FuClass {
        match *self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => FuClass::IntMult,
                AluOp::Div | AluOp::Rem => FuClass::IntDiv,
                _ => FuClass::IntAlu,
            },
            Inst::Fpu { op, .. } => match op {
                FpuOp::Add | FpuOp::Sub => FuClass::FpAdd,
                FpuOp::Mul => FuClass::FpMult,
                FpuOp::Div => FuClass::FpDiv,
            },
            Inst::FpCmp { .. } => FuClass::FpAdd,
            Inst::MovToFp { .. } | Inst::MovFromFp { .. } => FuClass::IntAlu,
            Inst::Load { .. } | Inst::FLoad { .. } | Inst::Store { .. } | Inst::FStore { .. } => {
                FuClass::LoadStore
            }
            Inst::Branch { .. } => FuClass::IntAlu,
            Inst::Jump { .. } | Inst::JumpAndLink { .. } | Inst::JumpReg { .. } => FuClass::IntAlu,
            Inst::Nop | Inst::Halt => FuClass::None,
        }
    }

    /// Whether this is a memory (load or store) instruction.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::FLoad { .. } | Inst::FStore { .. }
        )
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::FLoad { .. })
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::FStore { .. })
    }

    /// The base (address) register of a memory instruction, if any.
    ///
    /// Timing models use this to distinguish *address* dependences from
    /// *data* dependences: a store's effective address is known as soon as
    /// its base register is available, even if the stored value is not —
    /// which is what lets younger loads proceed ("loads may execute when
    /// all prior store addresses are known", paper §2.1).
    pub fn mem_base(&self) -> Option<Reg> {
        match *self {
            Inst::Load { base, .. }
            | Inst::Store { base, .. }
            | Inst::FLoad { base, .. }
            | Inst::FStore { base, .. } => Some(base),
            _ => None,
        }
    }

    /// Memory access width, if this is a memory instruction.
    pub fn mem_width(&self) -> Option<Width> {
        match *self {
            Inst::Load { width, .. }
            | Inst::Store { width, .. }
            | Inst::FLoad { width, .. }
            | Inst::FStore { width, .. } => Some(width),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }
    fn f(i: u8) -> FReg {
        FReg::new(i)
    }

    #[test]
    fn def_skips_zero_register() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs: r(1),
            rt: r(2),
        };
        assert_eq!(i.def(), None);
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: r(3),
            rs: r(1),
            rt: r(2),
        };
        assert_eq!(i.def(), Some(ArchReg::Int(r(3))));
    }

    #[test]
    fn uses_skip_zero_register() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: r(3),
            rs: Reg::ZERO,
            rt: r(2),
        };
        let mut uses = Vec::new();
        i.for_each_use(|u| uses.push(u));
        assert_eq!(uses, [ArchReg::Int(r(2))]);
    }

    #[test]
    fn store_uses_value_and_base() {
        let i = Inst::Store {
            width: Width::Word,
            rs: r(4),
            base: r(5),
            offset: 8,
        };
        let mut uses = Vec::new();
        i.for_each_use(|u| uses.push(u));
        assert_eq!(uses, [ArchReg::Int(r(4)), ArchReg::Int(r(5))]);
        assert_eq!(i.def(), None);
        assert!(i.is_store() && i.is_mem() && !i.is_load());
    }

    #[test]
    fn fp_load_defines_fp_register() {
        let i = Inst::FLoad {
            width: Width::Double,
            fd: f(2),
            base: r(5),
            offset: 0,
        };
        assert_eq!(i.def(), Some(ArchReg::Fp(f(2))));
        assert!(i.is_load());
        assert_eq!(i.mem_width(), Some(Width::Double));
    }

    #[test]
    fn fu_classes_follow_table1() {
        let add = Inst::Alu {
            op: AluOp::Add,
            rd: r(1),
            rs: r(2),
            rt: r(3),
        };
        let mul = Inst::Alu {
            op: AluOp::Mul,
            rd: r(1),
            rs: r(2),
            rt: r(3),
        };
        let div = Inst::AluImm {
            op: AluOp::Rem,
            rd: r(1),
            rs: r(2),
            imm: 3,
        };
        let fadd = Inst::Fpu {
            op: FpuOp::Add,
            fd: f(1),
            fs: f(2),
            ft: f(3),
        };
        let fdiv = Inst::Fpu {
            op: FpuOp::Div,
            fd: f(1),
            fs: f(2),
            ft: f(3),
        };
        let lw = Inst::Load {
            width: Width::Word,
            rd: r(1),
            base: r(2),
            offset: 0,
        };
        assert_eq!(add.fu_class(), FuClass::IntAlu);
        assert_eq!(mul.fu_class(), FuClass::IntMult);
        assert_eq!(div.fu_class(), FuClass::IntDiv);
        assert_eq!(fadd.fu_class(), FuClass::FpAdd);
        assert_eq!(fdiv.fu_class(), FuClass::FpDiv);
        assert_eq!(lw.fu_class(), FuClass::LoadStore);
        assert_eq!(Inst::Halt.fu_class(), FuClass::None);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(1, 1));
        assert!(BranchCond::Ne.eval(1, 2));
        assert!(BranchCond::Lt.eval(-1, 0));
        assert!(BranchCond::Ge.eval(0, 0));
        assert!(BranchCond::Le.eval(-5, -5));
        assert!(BranchCond::Gt.eval(5, -5));
        assert!(!BranchCond::Gt.eval(-5, 5));
    }

    #[test]
    fn widths() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Half.bytes(), 2);
        assert_eq!(Width::Word.bytes(), 4);
        assert_eq!(Width::Double.bytes(), 8);
    }
}
