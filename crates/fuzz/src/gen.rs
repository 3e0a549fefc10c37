//! Seeded random program generator.
//!
//! Emits valid, terminating [`Program`]s biased toward the access patterns
//! that stress cache-port arbitration hardest — the cases the paper's
//! Tables 3/4 orderings hinge on:
//!
//! * **aliasing load/store chains** — a store followed by loads of the
//!   same or partially overlapping bytes, exercising LSQ forwarding and
//!   ordering;
//! * **bank-conflict strides** — bursts of loads whose addresses differ
//!   by `line × banks` multiples, so they collide in one bank of a banked
//!   or LBIC cache while an ideal cache services them in parallel;
//! * **same-line bursts** — references inside one cache line, the access
//!   combining (LBIC) opportunity;
//! * **store-forwarding windows** — a store, a window of independent ALU
//!   work, then a load of the stored bytes;
//! * **branchy control flow** — forward skips and diamonds over the
//!   memory traffic, plus occasional `jal`/`jr ra` calls;
//! * **FP stencils** — the `swim`/`mgrid`-shaped 3-point load/compute/
//!   store kernels that dominate the paper's FP suite;
//! * **sustained store backlogs** — a load feeding a chain of
//!   long-latency divides with a pile of independent same-bank stores
//!   in between, so the stores promote to the ready list together and
//!   then drain one grant per cycle while the divide chain pins the
//!   commit frontier — a standing backlog with every other pipeline
//!   stage quiet.
//!
//! **Termination by construction.** The only backward edge is the outer
//! loop's counted branch; its counter register is reserved (written only
//! by the prologue `li` and the epilogue decrement, never by a load),
//! every other branch targets strictly forward, and subroutines return
//! through `ra`, written only by the corresponding `jal`. Forward
//! branches may read load-written scratch registers — data-dependent
//! control is part of the point — but a forward edge cannot form a loop,
//! so the dynamic instruction count of one run is bounded by
//! `iters × body + prologue + calls` for any memory contents.
//!
//! Registers are partitioned so blocks compose freely:
//!
//! | registers | role |
//! |---|---|
//! | `r1..=r12` | scratch values (block inputs/outputs) |
//! | `r16..=r19` | data-region base pointers |
//! | `r20` | loop counter (reserved) |
//! | `r26` | integer sink (reserved for the load-only transform) |
//! | `f1..=f8` | FP scratch |
//! | `f28` | FP sink (reserved for the load-only transform) |

use hbdc_isa::{AluOp, BranchCond, FReg, FpuOp, Inst, Program, Reg, Width, DATA_BASE};

use crate::rng::Rng;

/// Integer sink register: written by the load-only transform, never read
/// or written by generated code.
pub const INT_SINK: u8 = 26;
/// FP sink register: written by the load-only transform, never read or
/// written by generated code.
pub const FP_SINK: u8 = 28;

const LOOP_REG: u8 = 20;
const BASE_REGS: [u8; 4] = [16, 17, 18, 19];
const VALUE_REGS: std::ops::RangeInclusive<u8> = 1..=12;
const FP_REGS: std::ops::RangeInclusive<u8> = 1..=8;

/// L1 line size the stride patterns are tuned against (the default
/// hierarchy's 32B lines; the patterns still stress other geometries,
/// they are just no longer bank-exact).
const LINE: i64 = 32;
/// Bank count the conflict strides are tuned against.
const BANKS: i64 = 4;

/// Tunable envelope for one generated program.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Body blocks per loop iteration (the static-size lever).
    pub blocks: std::ops::RangeInclusive<u64>,
    /// Outer-loop trip count range.
    pub iters: std::ops::RangeInclusive<u64>,
    /// Bytes in the zero-initialized data region.
    pub data_bytes: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            blocks: 3..=10,
            iters: 4..=40,
            data_bytes: 8192,
        }
    }
}

/// Instructions the prologue commits: four base pointers, the loop
/// counter, six scratch values and four integer-to-FP moves.
const PROLOGUE_INSTS: u64 = 15;

/// Instructions the loop epilogue commits per trip: pointer drift,
/// counter decrement, backward branch.
const EPILOGUE_INSTS: u64 = 3;

/// The most instructions one body block commits per trip. The largest is
/// `store_backlog`: one load, at most 12 stores, two divides, and its
/// forward skip (branch plus one short instruction). Every other block
/// commits at most 6.
const MAX_BLOCK_INSTS: u64 = 17;

impl GenConfig {
    /// An upper bound on the instructions any program of this envelope
    /// commits, halt included: the prologue, `iters.end()` trips of
    /// `blocks.end()` maximal blocks plus the epilogue, and the `halt`.
    /// For [`GenConfig::default`] that is 15 + 40 × (10 × 17 + 3) + 1 =
    /// 6 936.
    pub fn max_committed(&self) -> u64 {
        PROLOGUE_INSTS
            + self.iters.end() * (self.blocks.end() * MAX_BLOCK_INSTS + EPILOGUE_INSTS)
            + 1
    }

    /// A smaller envelope for self-tests and shrinking experiments: short
    /// bodies whose minimal failing core is a handful of instructions.
    pub fn small() -> Self {
        Self {
            blocks: 2..=4,
            iters: 4..=12,
            data_bytes: 4096,
        }
    }
}

struct Gen {
    rng: Rng,
    text: Vec<Inst>,
    /// `(branch index, subroutine id)` fix-ups for `jal` sites.
    calls: Vec<(usize, usize)>,
    /// Subroutine bodies, appended after `halt` and patched into calls.
    subs: Vec<Vec<Inst>>,
    data_bytes: u64,
}

/// Generates one program from a seed. Equal seeds yield equal programs.
pub fn generate(seed: u64, cfg: &GenConfig) -> Program {
    let mut g = Gen {
        rng: Rng::new(seed),
        text: Vec::new(),
        calls: Vec::new(),
        subs: Vec::new(),
        data_bytes: cfg.data_bytes,
    };
    g.program(cfg)
}

impl Gen {
    fn r(&mut self) -> Reg {
        Reg::new(
            self.rng
                .range(*VALUE_REGS.start() as i64, *VALUE_REGS.end() as i64) as u8,
        )
    }

    fn f(&mut self) -> FReg {
        FReg::new(
            self.rng
                .range(*FP_REGS.start() as i64, *FP_REGS.end() as i64) as u8,
        )
    }

    fn base(&mut self) -> Reg {
        Reg::new(*self.rng.pick(&BASE_REGS))
    }

    /// A data-region offset that stays inside the region even after the
    /// per-iteration pointer drift.
    fn off(&mut self) -> i64 {
        self.rng.range(0, (self.data_bytes as i64 / 2).max(8)) & !7
    }

    fn emit(&mut self, inst: Inst) {
        self.text.push(inst);
    }

    fn li(&mut self, rd: Reg, imm: i64) {
        self.emit(Inst::AluImm {
            op: AluOp::Or,
            rd,
            rs: Reg::ZERO,
            imm,
        });
    }

    fn program(&mut self, cfg: &GenConfig) -> Program {
        // Prologue: base pointers spread across the data region, the loop
        // counter, and seeded scratch values.
        for (i, &b) in BASE_REGS.iter().enumerate() {
            let spread = (self.data_bytes as i64 / 8) * i as i64;
            let jitter = self.rng.range(0, 64) & !7;
            self.li(Reg::new(b), DATA_BASE as i64 + spread + jitter);
        }
        let iters = self
            .rng
            .range(*cfg.iters.start() as i64, *cfg.iters.end() as i64);
        self.li(Reg::new(LOOP_REG), iters);
        for r in 1..=6u8 {
            let v = self.rng.range(-9, 23);
            self.li(Reg::new(r), v);
        }
        for fr in 1..=4u8 {
            let src = Reg::new(fr);
            self.emit(Inst::MovToFp {
                fd: FReg::new(fr),
                rs: src,
            });
        }

        let loop_top = self.text.len() as u32;
        let blocks = self
            .rng
            .range(*cfg.blocks.start() as i64, *cfg.blocks.end() as i64);
        for _ in 0..blocks {
            self.block();
        }

        // Epilogue: drift one base pointer (so iterations touch fresh
        // lines), decrement, loop.
        let drift_base = self.base();
        let drift = self.rng.range(0, 6) * 8;
        self.emit(Inst::AluImm {
            op: AluOp::Add,
            rd: drift_base,
            rs: drift_base,
            imm: drift,
        });
        self.emit(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::new(LOOP_REG),
            rs: Reg::new(LOOP_REG),
            imm: -1,
        });
        self.emit(Inst::Branch {
            cond: BranchCond::Ne,
            rs: Reg::new(LOOP_REG),
            rt: Reg::ZERO,
            target: loop_top,
        });
        self.emit(Inst::Halt);

        // Lay out subroutines after the halt and patch the call sites.
        let mut sub_entries = Vec::with_capacity(self.subs.len());
        let subs = std::mem::take(&mut self.subs);
        for body in subs {
            sub_entries.push(self.text.len() as u32);
            self.text.extend(body);
            self.emit(Inst::JumpReg { rs: Reg::RA });
        }
        for &(site, sub) in &self.calls {
            if let Inst::JumpAndLink { target, .. } = &mut self.text[site] {
                *target = sub_entries[sub];
            }
        }

        Program::from_parts(
            std::mem::take(&mut self.text),
            vec![0u8; self.data_bytes as usize],
            0,
        )
    }

    fn block(&mut self) {
        match self.rng.below(100) {
            0..=16 => self.alias_chain(),
            17..=32 => self.bank_conflict_burst(),
            33..=43 => self.same_line_burst(),
            44..=55 => self.forwarding_window(),
            56..=67 => self.fp_stencil(),
            68..=79 => self.branchy(),
            80..=89 => self.store_backlog(),
            90..=95 => self.alu_chain(),
            _ => self.call(),
        }
    }

    /// Store then load the same (or overlapping) bytes, then store back —
    /// a dependence chain through memory.
    fn alias_chain(&mut self) {
        let b = self.base();
        let o = self.off();
        let (src, dst) = (self.r(), self.r());
        let store_w = *self.rng.pick(&[Width::Word, Width::Double]);
        self.emit(Inst::Store {
            width: store_w,
            rs: src,
            base: b,
            offset: o,
        });
        // Same-address reload, or a partial overlap inside the store.
        let (load_w, load_off) = if self.rng.chance(40) {
            (
                Width::Word,
                o + if store_w == Width::Double { 4 } else { 0 },
            )
        } else {
            (store_w, o)
        };
        self.emit(Inst::Load {
            width: load_w,
            rd: dst,
            base: b,
            offset: load_off,
        });
        let bump = self.rng.range(1, 5);
        self.emit(Inst::AluImm {
            op: AluOp::Add,
            rd: dst,
            rs: dst,
            imm: bump,
        });
        if self.rng.chance(60) {
            self.emit(Inst::Store {
                width: store_w,
                rs: dst,
                base: b,
                offset: o,
            });
        }
    }

    /// A burst of loads whose addresses differ by `line × banks`: same
    /// bank, different lines — serialized by banked designs, parallel on
    /// an ideal cache.
    fn bank_conflict_burst(&mut self) {
        let b = self.base();
        let o = self.off().min(self.data_bytes as i64 / 4);
        let n = self.rng.range(3, 5);
        let stride = LINE * BANKS;
        for k in 0..n {
            let rd = self.r();
            self.emit(Inst::Load {
                width: Width::Word,
                rd,
                base: b,
                offset: o + k * stride,
            });
        }
        if self.rng.chance(35) {
            let rs = self.r();
            self.emit(Inst::Store {
                width: Width::Word,
                rs,
                base: b,
                offset: o + stride,
            });
        }
    }

    /// References packed into one cache line — the LBIC combining case.
    fn same_line_burst(&mut self) {
        let b = self.base();
        let o = self.off() & !(LINE - 1);
        let n = self.rng.range(2, 4);
        for k in 0..n {
            let rd = self.r();
            self.emit(Inst::Load {
                width: Width::Double,
                rd,
                base: b,
                offset: o + k * 8,
            });
        }
    }

    /// Store, a window of independent ALU work, then a load of the stored
    /// bytes: the forwarding distance varies with the window length.
    fn forwarding_window(&mut self) {
        let b = self.base();
        let o = self.off();
        let src = self.r();
        self.emit(Inst::Store {
            width: Width::Double,
            rs: src,
            base: b,
            offset: o,
        });
        let window = self.rng.range(1, 4);
        for _ in 0..window {
            let (rd, rs, rt) = (self.r(), self.r(), self.r());
            let op = *self
                .rng
                .pick(&[AluOp::Add, AluOp::Xor, AluOp::Sub, AluOp::And]);
            self.emit(Inst::Alu { op, rd, rs, rt });
        }
        let dst = self.r();
        self.emit(Inst::Load {
            width: Width::Double,
            rd: dst,
            base: b,
            offset: o,
        });
    }

    /// 3-point stencil: load neighbors, combine, store the center.
    fn fp_stencil(&mut self) {
        let b = self.base();
        let o = self.off().max(8);
        let (a, c, r2) = (self.f(), self.f(), self.f());
        let acc = self.f();
        let t = self.f();
        self.emit(Inst::FLoad {
            width: Width::Double,
            fd: a,
            base: b,
            offset: o - 8,
        });
        self.emit(Inst::FLoad {
            width: Width::Double,
            fd: c,
            base: b,
            offset: o,
        });
        self.emit(Inst::FLoad {
            width: Width::Double,
            fd: r2,
            base: b,
            offset: o + 8,
        });
        let op1 = *self.rng.pick(&[FpuOp::Add, FpuOp::Sub]);
        let op2 = *self.rng.pick(&[FpuOp::Mul, FpuOp::Add]);
        self.emit(Inst::Fpu {
            op: op1,
            fd: t,
            fs: a,
            ft: c,
        });
        self.emit(Inst::Fpu {
            op: op2,
            fd: acc,
            fs: t,
            ft: r2,
        });
        self.emit(Inst::FStore {
            width: Width::Double,
            fs: acc,
            base: b,
            offset: o,
        });
    }

    /// A forward skip or diamond over a couple of instructions. Branch
    /// inputs are scratch registers, which earlier blocks may have loaded
    /// from memory — data-dependent forward control, still loop-free.
    fn branchy(&mut self) {
        let (ra, rb) = (self.r(), self.r());
        let cond = *self.rng.pick(&[
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Le,
            BranchCond::Gt,
        ]);
        let br_at = self.text.len();
        self.emit(Inst::Branch {
            cond,
            rs: ra,
            rt: rb,
            target: 0, // patched below
        });
        let then_len = self.rng.range(1, 3);
        for _ in 0..then_len {
            self.short_work();
        }
        if self.rng.chance(40) {
            // Diamond: jump over the else-arm.
            let j_at = self.text.len();
            self.emit(Inst::Jump { target: 0 });
            let else_target = self.text.len() as u32;
            self.short_work();
            let join = self.text.len() as u32;
            if let Inst::Branch { target, .. } = &mut self.text[br_at] {
                *target = else_target;
            }
            if let Inst::Jump { target } = &mut self.text[j_at] {
                *target = join;
            }
        } else {
            let join = self.text.len() as u32;
            if let Inst::Branch { target, .. } = &mut self.text[br_at] {
                *target = join;
            }
        }
    }

    /// One cheap instruction for branch arms: ALU or a single load.
    fn short_work(&mut self) {
        if self.rng.chance(40) {
            let b = self.base();
            let o = self.off();
            let rd = self.r();
            self.emit(Inst::Load {
                width: Width::Word,
                rd,
                base: b,
                offset: o,
            });
        } else {
            let (rd, rs, rt) = (self.r(), self.r(), self.r());
            let op = *self
                .rng
                .pick(&[AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Slt]);
            self.emit(Inst::Alu { op, rd, rs, rt });
        }
    }

    /// A standing all-store backlog: a load whose result feeds a chain
    /// of long-latency divides, with a burst of independent stores —
    /// one line apart, all in one bank of the tuned interleave — between
    /// the two. The stores join the LSQ ready list together the moment
    /// the commit frontier passes the load, then drain one grant per
    /// cycle through the shared bank while the divide chain keeps the
    /// frontier (and, behind a data-dependent forward branch half the
    /// time, fetch) pinned for tens of cycles.
    fn store_backlog(&mut self) {
        let b = self.base();
        let o = self.off().min(self.data_bytes as i64 / 8);
        let stride = LINE * BANKS;
        let barrier = self.r();
        self.emit(Inst::Load {
            width: Width::Word,
            rd: barrier,
            base: b,
            offset: o,
        });
        let n = self.rng.range(6, 12);
        let src = self.r();
        for k in 0..n {
            self.emit(Inst::Store {
                width: Width::Word,
                rs: src,
                base: b,
                offset: o + k * stride,
            });
        }
        let mut prev = barrier;
        for _ in 0..2 {
            let rd = self.r();
            self.emit(Inst::Alu {
                op: AluOp::Div,
                rd,
                rs: prev,
                rt: barrier,
            });
            prev = rd;
        }
        if self.rng.chance(50) {
            // Forward skip conditioned on the divide result: fetch
            // stalls on the unresolved branch, leaving the machine
            // fully quiescent while the backlog drains.
            let br_at = self.text.len();
            self.emit(Inst::Branch {
                cond: BranchCond::Ge,
                rs: prev,
                rt: Reg::ZERO,
                target: 0, // patched below
            });
            self.short_work();
            let join = self.text.len() as u32;
            if let Inst::Branch { target, .. } = &mut self.text[br_at] {
                *target = join;
            }
        }
    }

    /// A dependent ALU chain with long-latency ops mixed in.
    fn alu_chain(&mut self) {
        let n = self.rng.range(2, 4);
        let mut prev = self.r();
        for _ in 0..n {
            let rd = self.r();
            let rt = self.r();
            let op = *self
                .rng
                .pick(&[AluOp::Add, AluOp::Mul, AluOp::Div, AluOp::Sub, AluOp::Sll]);
            self.emit(Inst::Alu {
                op,
                rd,
                rs: prev,
                rt,
            });
            prev = rd;
        }
    }

    /// `jal` to a small shared subroutine ending in `jr ra`.
    fn call(&mut self) {
        let sub = if self.subs.is_empty() || (self.subs.len() < 3 && self.rng.chance(50)) {
            let mut body = Vec::new();
            let b = Reg::new(*self.rng.pick(&BASE_REGS));
            let o = self.rng.range(0, 64) & !7;
            let rd = Reg::new(self.rng.range(7, 12) as u8);
            body.push(Inst::Load {
                width: Width::Double,
                rd,
                base: b,
                offset: o,
            });
            body.push(Inst::AluImm {
                op: AluOp::Xor,
                rd,
                rs: rd,
                imm: self.rng.range(0, 255),
            });
            if self.rng.chance(50) {
                body.push(Inst::Store {
                    width: Width::Word,
                    rs: rd,
                    base: b,
                    offset: o,
                });
            }
            self.subs.push(body);
            self.subs.len() - 1
        } else {
            self.rng.below(self.subs.len() as u64) as usize
        };
        let site = self.text.len();
        self.emit(Inst::JumpAndLink {
            rd: Reg::RA,
            target: 0, // patched once subroutines are laid out
        });
        self.calls.push((site, sub));
    }
}

/// The load-only metamorphic transform: every store becomes a load of the
/// same address into a reserved sink register. On the transformed program
/// replicated ports are *definitionally* equivalent to ideal ports (the
/// store-broadcast machinery never engages), which the oracle checks
/// bit-for-bit. Termination is preserved: control flow never reads the
/// sinks, and the loop counter is never a memory destination.
pub fn stores_to_loads(p: &Program) -> Program {
    let text = p
        .text()
        .iter()
        .map(|inst| match *inst {
            Inst::Store {
                width,
                rs: _,
                base,
                offset,
            } => Inst::Load {
                width,
                rd: Reg::new(INT_SINK),
                base,
                offset,
            },
            Inst::FStore {
                width,
                fs: _,
                base,
                offset,
            } => Inst::FLoad {
                width,
                fd: FReg::new(FP_SINK),
                base,
                offset,
            },
            other => other,
        })
        .collect();
    Program::from_parts(text, p.data().to_vec(), p.entry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_cpu::Emulator;

    /// Committed instructions of `p` run to its halt.
    fn committed(p: &Program) -> u64 {
        let mut emu = Emulator::new(p);
        let mut n = 0;
        while emu.step().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn programs_stay_within_the_envelope_bound() {
        assert_eq!(GenConfig::default().max_committed(), 6936);
        // The envelope's largest corner: every program runs the most
        // trips of the most blocks.
        let corner = GenConfig {
            blocks: 10..=10,
            iters: 40..=40,
            ..GenConfig::default()
        };
        let bound = corner.max_committed();
        assert_eq!(bound, GenConfig::default().max_committed());
        for seed in 0..200 {
            let n = committed(&generate(seed, &corner));
            assert!(n <= bound, "seed {seed} committed {n} > {bound}");
        }
        let small = GenConfig::small();
        for seed in 0..50 {
            assert!(committed(&generate(seed, &small)) <= small.max_committed());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(11, &cfg);
        let b = generate(11, &cfg);
        assert_eq!(a.text(), b.text());
        assert_ne!(a.text(), generate(12, &cfg).text());
    }

    /// Pins the generator's output: `checkpoint-resume` in the perfbench
    /// benchmark draws its programs from [`generate`], so any edit to the
    /// block mix or a block's body silently changes benchmark inputs.
    /// Such an edit must update these fingerprints on purpose. (They
    /// were re-taken when the hash moved from FNV-1a to XXH64; the
    /// images themselves were byte-identical across that change.)
    #[test]
    fn generated_programs_match_golden_fingerprints() {
        let cfg = GenConfig {
            blocks: 150..=170,
            iters: 40..=50,
            data_bytes: 64 * 1024,
        };
        for (seed, want) in [
            (1u64, 0x3fc3_d3a3_e153_eeed_u64),
            (2, 0xa44c_61bb_b1d9_d5d4),
        ] {
            let image = hbdc_isa::object::to_bytes(&generate(seed, &cfg));
            let got = hbdc_snap::hash64(&image);
            assert_eq!(got, want, "seed {seed}: fingerprint {got:#018x}");
        }
    }

    #[test]
    fn programs_terminate_functionally() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let p = generate(seed, &cfg);
            let mut emu = Emulator::new(&p);
            let mut steps = 0u64;
            while emu.step().is_some() {
                steps += 1;
                assert!(steps < 5_000_000, "seed {seed}: runaway program");
            }
            assert!(steps > 10, "seed {seed}: trivially empty program");
        }
    }

    #[test]
    fn programs_contain_memory_traffic() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let p = generate(seed, &cfg);
            assert!(
                p.text().iter().any(|i| i.is_mem()),
                "seed {seed}: no memory instructions"
            );
        }
    }

    #[test]
    fn load_only_transform_strips_every_store() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let p = stores_to_loads(&generate(seed, &cfg));
            assert!(p.text().iter().all(|i| !i.is_store()), "seed {seed}");
            // And still terminates.
            let mut emu = Emulator::new(&p);
            let mut steps = 0u64;
            while emu.step().is_some() {
                steps += 1;
                assert!(
                    steps < 5_000_000,
                    "seed {seed}: transform broke termination"
                );
            }
        }
    }

    #[test]
    fn generated_code_never_touches_reserved_registers() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let p = generate(seed, &cfg);
            for inst in p.text() {
                if let Some(hbdc_isa::ArchReg::Int(r)) = inst.def() {
                    assert_ne!(r.index(), INT_SINK as usize, "seed {seed}: wrote int sink");
                }
                if let Some(hbdc_isa::ArchReg::Fp(f)) = inst.def() {
                    assert_ne!(f.index(), FP_SINK as usize, "seed {seed}: wrote fp sink");
                }
            }
        }
    }
}
