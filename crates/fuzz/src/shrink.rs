//! Delta-debugging shrinker: reduces a violating program to a small
//! repro while preserving the violation.
//!
//! The reduction runs in four phases, each of which only commits a
//! candidate the caller's `interesting` predicate accepts (i.e. the
//! candidate still violates the *same* relation):
//!
//! 1. **Data shrink** — halve the data image repeatedly. (Generated
//!    images are zero-initialized and memory is sparse, so this almost
//!    always succeeds outright.)
//! 2. **Instruction-range nopping** — classic ddmin over the text, with
//!    chunk sizes halving from `len/2` down to 1. Ranges are replaced by
//!    [`Inst::Nop`] rather than deleted, so every branch and jump target
//!    stays valid without remapping.
//! 3. **Operand simplification** — per surviving instruction: zero the
//!    immediate or displacement, and retarget source registers at `r0`.
//!    Smaller operands make the repro easier to read and often reveal
//!    that the value never mattered.
//! 4. **Nop compaction** — drop the nops, remap branch/jump targets to
//!    the surviving indices, and append a terminal `halt`. If the
//!    violation is timing-sensitive enough that compaction loses it, the
//!    nop-padded form from phase 3 is returned instead — correctness of
//!    the repro beats its line count.
//!
//! The predicate must treat a candidate that *errors differently* as
//! uninteresting. The fuzz driver's and the self-test's predicates also
//! reject a candidate that no longer halts (e.g. a nopped loop
//! decrement) before simulating it, with
//! [`crate::oracle::halts_within_budget`].

use hbdc_isa::{Inst, Program, Reg};

/// Counts the instructions that actually do something — the size metric
/// reported for a shrunk repro (nop padding kept for timing fidelity
/// shouldn't inflate it).
pub fn live_insts(program: &Program) -> usize {
    program
        .text()
        .iter()
        .filter(|i| !matches!(i, Inst::Nop))
        .count()
}

fn with_text(text: Vec<Inst>, data: Vec<u8>, entry: u32) -> Program {
    Program::from_parts(text, data, entry)
}

/// Shrinks `program` while `interesting` holds, returning the smallest
/// form found. `interesting(program)` itself must be true on entry; if it
/// is not (a flaky, non-deterministic violation — which the oracle's
/// deterministic relations should never produce), the program is returned
/// unshrunk.
pub fn shrink(program: &Program, interesting: &dyn Fn(&Program) -> bool) -> Program {
    if !interesting(program) {
        return program.clone();
    }
    let entry = program.entry();
    let mut data = program.data().to_vec();
    let mut text = program.text().to_vec();

    // Phase 1: data image.
    while !data.is_empty() {
        let half = data[..data.len() / 2].to_vec();
        if interesting(&with_text(text.clone(), half.clone(), entry)) {
            data = half;
        } else {
            break;
        }
    }

    // Phase 2: ddmin range nopping.
    let mut chunk = (text.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < text.len() {
            let end = (start + chunk).min(text.len());
            if text[start..end].iter().any(|i| !matches!(i, Inst::Nop)) {
                let mut cand = text.clone();
                for slot in &mut cand[start..end] {
                    *slot = Inst::Nop;
                }
                if interesting(&with_text(cand.clone(), data.clone(), entry)) {
                    text = cand;
                    progressed = true;
                }
            }
            start = end;
        }
        if chunk == 1 {
            if !progressed {
                break;
            }
            // A committed nop can unlock earlier ranges; one more lap.
            continue;
        }
        chunk = (chunk / 2).max(1);
    }

    // Phase 3: operand simplification on the survivors.
    for idx in 0..text.len() {
        for cand_inst in simplifications(&text[idx]) {
            if cand_inst == text[idx] {
                continue;
            }
            let mut cand = text.clone();
            cand[idx] = cand_inst;
            if interesting(&with_text(cand.clone(), data.clone(), entry)) {
                text = cand;
            }
        }
    }

    // Phase 4: compact the nops away, remapping control-flow targets.
    let padded = with_text(text.clone(), data.clone(), entry);
    if let Some(compact) = compact_nops(&text, &data, entry) {
        if interesting(&compact) {
            return compact;
        }
    }
    padded
}

/// Candidate one-step simplifications of an instruction, mildest first.
fn simplifications(inst: &Inst) -> Vec<Inst> {
    let z = Reg::ZERO;
    match *inst {
        Inst::AluImm { op, rd, rs, imm } if imm != 0 => {
            vec![Inst::AluImm { op, rd, rs, imm: 0 }]
        }
        Inst::Load {
            width,
            rd,
            base,
            offset,
        } if offset != 0 => vec![Inst::Load {
            width,
            rd,
            base,
            offset: 0,
        }],
        Inst::Store {
            width,
            rs,
            base,
            offset,
        } => {
            let mut out = Vec::new();
            if offset != 0 {
                out.push(Inst::Store {
                    width,
                    rs,
                    base,
                    offset: 0,
                });
            }
            if rs != z {
                out.push(Inst::Store {
                    width,
                    rs: z,
                    base,
                    offset,
                });
            }
            out
        }
        Inst::FLoad {
            width,
            fd,
            base,
            offset,
        } if offset != 0 => vec![Inst::FLoad {
            width,
            fd,
            base,
            offset: 0,
        }],
        Inst::FStore {
            width,
            fs,
            base,
            offset,
        } if offset != 0 => vec![Inst::FStore {
            width,
            fs,
            base,
            offset: 0,
        }],
        Inst::Alu { op, rd, rs, rt } => {
            let mut out = Vec::new();
            if rt != z {
                out.push(Inst::Alu { op, rd, rs, rt: z });
            }
            if rs != z {
                out.push(Inst::Alu { op, rd, rs: z, rt });
            }
            out
        }
        _ => Vec::new(),
    }
}

/// Rebuilds the text without nops, remapping every control-flow target to
/// the index its (first surviving) destination landed on. Targets whose
/// destination was nopped fall through to the next survivor; targets past
/// the last survivor land on the terminal `halt` this function appends.
/// Returns `None` when the entry instruction itself was nopped away in a
/// way that would reorder semantics (it can't be: entry is only remapped,
/// never dropped — kept for defensive clarity).
fn compact_nops(text: &[Inst], data: &[u8], entry: u32) -> Option<Program> {
    // old index -> new index of the first surviving instruction at or
    // after it (off-end maps to the appended halt).
    let mut map = vec![0u32; text.len() + 1];
    let mut kept = Vec::new();
    for (old, inst) in text.iter().enumerate() {
        map[old] = kept.len() as u32;
        if !matches!(inst, Inst::Nop) {
            kept.push(*inst);
        }
    }
    map[text.len()] = kept.len() as u32;
    let halt_idx = kept.len() as u32; // the halt appended below
    let remap = |t: u32| -> u32 {
        if (t as usize) < text.len() {
            map[t as usize]
        } else {
            halt_idx
        }
    };
    for inst in &mut kept {
        match inst {
            Inst::Branch { target, .. }
            | Inst::Jump { target }
            | Inst::JumpAndLink { target, .. } => *target = remap(*target),
            _ => {}
        }
    }
    kept.push(Inst::Halt);
    let new_entry = remap(entry);
    if (new_entry as usize) >= kept.len() {
        return None;
    }
    Some(with_text(kept, data.to_vec(), new_entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use hbdc_core::PortConfig;
    use hbdc_cpu::Simulator;
    use hbdc_mem::HierarchyConfig;

    fn cycles(p: &Program, port: PortConfig) -> Option<u64> {
        Simulator::try_new(
            p,
            crate::oracle::fuzz_cfg(),
            HierarchyConfig::default(),
            port,
        )
        .and_then(|mut s| s.run())
        .ok()
        .map(|r| r.cycles)
    }

    #[test]
    fn shrinks_to_the_single_guilty_instruction() {
        // Interesting = "the program still contains a Div by r0"; the
        // shrinker should strip everything else and compact to a handful
        // of instructions.
        let p = generate(11, &GenConfig::default());
        let has_div = |p: &Program| {
            p.text().iter().any(|i| {
                matches!(
                    i,
                    Inst::Alu {
                        op: hbdc_isa::AluOp::Div,
                        ..
                    } | Inst::AluImm {
                        op: hbdc_isa::AluOp::Div,
                        ..
                    }
                )
            })
        };
        if !has_div(&p) {
            return; // seed didn't draw a div; other seeds cover it
        }
        let small = shrink(&p, &has_div);
        assert!(has_div(&small), "shrink lost the property");
        assert!(
            live_insts(&small) <= 2,
            "expected near-minimal repro, got {} live insts",
            live_insts(&small)
        );
    }

    #[test]
    fn shrunk_program_still_simulates() {
        // Interesting = "still halts, runs clean and issues >= 1 store"
        // (halting checked first, as the fuzz driver's predicates do): the
        // result must remain a valid, terminating program after
        // compaction remapped all targets.
        let p = generate(4, &GenConfig::default());
        let pred = |p: &Program| {
            crate::oracle::halts_within_budget(p)
                && Simulator::try_new(
                    p,
                    crate::oracle::fuzz_cfg(),
                    HierarchyConfig::default(),
                    PortConfig::banked(4),
                )
                .and_then(|mut s| s.run())
                .map(|r| r.stores >= 1)
                .unwrap_or(false)
        };
        let small = shrink(&p, &pred);
        assert!(pred(&small));
        assert!(live_insts(&small) < live_insts(&p));
        assert!(cycles(&small, PortConfig::banked(4)).is_some());
    }

    #[test]
    fn uninteresting_input_is_returned_unchanged() {
        let p = generate(2, &GenConfig::small());
        let never = |_: &Program| false;
        let same = shrink(&p, &never);
        assert_eq!(same.text(), p.text());
    }

    #[test]
    fn compaction_remaps_forward_and_backward_edges() {
        use hbdc_isa::{AluOp, BranchCond};
        let r = Reg::new;
        // 0: li r1, 2       (addi r1, r0, 2)
        // 1: nop
        // 2: addi r1, r1, -1
        // 3: nop
        // 4: bne r1, r0, L2  (backward)
        // 5: nop
        // 6: halt
        let text = vec![
            Inst::AluImm {
                op: AluOp::Add,
                rd: r(1),
                rs: Reg::ZERO,
                imm: 2,
            },
            Inst::Nop,
            Inst::AluImm {
                op: AluOp::Add,
                rd: r(1),
                rs: r(1),
                imm: -1,
            },
            Inst::Nop,
            Inst::Branch {
                cond: BranchCond::Ne,
                rs: r(1),
                rt: Reg::ZERO,
                target: 2,
            },
            Inst::Nop,
            Inst::Halt,
        ];
        let p = compact_nops(&text, &[], 0).unwrap();
        assert_eq!(p.text().len(), 5); // 3 live + original halt + appended halt
        match p.text()[2] {
            Inst::Branch { target, .. } => assert_eq!(target, 1),
            ref other => panic!("expected branch, got {other:?}"),
        }
        // And it still terminates with the loop taken once.
        let c = cycles(&p, PortConfig::Ideal { ports: 4 });
        assert!(c.is_some());
    }
}
