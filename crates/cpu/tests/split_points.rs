//! Exhaustive snapshot split-point anchor: for *every* cycle-budget K of
//! two small workloads, pausing at K, round-tripping the snapshot
//! through its byte encoding, and resuming must reproduce the straight
//! run's report bit for bit. The differential fuzzer (DESIGN.md §13)
//! samples one random split per program; this test closes the gap by
//! walking the whole split axis on fixed kernels, so an off-by-one in
//! any piece of serialized microarchitectural state (LSQ, bank queues,
//! MSHRs, store queue, predictor) fails here with the exact split cycle
//! in the assertion message.

use hbdc_core::PortConfig;
use hbdc_cpu::{CpuConfig, SimSnapshot, Simulator};
use hbdc_isa::asm::assemble;
use hbdc_isa::Program;
use hbdc_mem::HierarchyConfig;

/// Small but structurally busy: strided same-bank loads, dependent
/// stores, and a data-dependent branch keep the LSQ, bank queues, and
/// predictor populated at every split point without making the
/// quadratic split sweep expensive.
const WORKLOAD: &str = ".data\nv: .space 4096\n.text\nmain:\n la r8, v\n li r9, 40\n\
    loop:\n lw r1, 0(r8)\n lw r2, 128(r8)\n lw r3, 256(r8)\n addi r1, r1, 3\n\
    sw r1, 384(r8)\n fld f1, 512(r8)\n fadd.d f2, f2, f1\n andi r10, r9, 3\n\
    bnez r10, skip\n addi r8, r8, 8\n skip:\n addi r9, r9, -1\n bnez r9, loop\n halt\n";

/// Three bursts of { one cold load (a DRAM miss) followed by a pile of
/// independent same-bank stores }. The stores sit behind the load in
/// the window, so they join the ready list only once it completes —
/// and then drain as a standing all-store backlog, each committing the
/// cycle its access lands, while the LBIC's store queues drain on the
/// otherwise-idle cycles of each DRAM fill. A chain of
/// two 12-cycle `div`s on the load result keeps a non-Done frontier
/// entry alive through the drain and holds the next burst's
/// instructions — whose base address it feeds — out of the ready view
/// until the drain is over. The data is zero-initialized, so the
/// chained address arithmetic leaves `r8` unchanged.
fn store_backlog_program() -> Program {
    let mut s = String::from(".data\nv: .space 16384\n.text\nmain:\n li r9, 7\n la r8, v\n");
    for burst in 0..3u64 {
        let base = burst * 4096;
        s.push_str(&format!(" lw r1, {}(r8)\n", base + 3968));
        for i in 0..15u64 {
            // Stride 128 = one line per access, all mapping to bank 0 of
            // a 4-bank interleave over 32-byte lines.
            s.push_str(&format!(" sw r9, {}(r8)\n", base + i * 128));
        }
        s.push_str(" div r10, r1, r9\n div r10, r10, r9\n add r8, r8, r10\n");
    }
    s.push_str(" halt\n");
    assemble(&s).expect("store-backlog workload assembles")
}

#[test]
fn every_split_point_resumes_bit_identically() {
    let cfg = CpuConfig::default();
    for (name, p) in [
        ("mixed", assemble(WORKLOAD).unwrap()),
        ("store-backlog", store_backlog_program()),
    ] {
        for port in [
            PortConfig::Ideal { ports: 2 },
            PortConfig::Replicated { ports: 2 },
            PortConfig::banked(4),
            PortConfig::lbic(4, 2),
        ] {
            let straight = Simulator::new(&p, cfg, HierarchyConfig::default(), port)
                .run()
                .expect("straight run completes");
            let mut splits = 0u64;
            for k in 1u64.. {
                let mut sim = Simulator::new(&p, cfg, HierarchyConfig::default(), port);
                let finished = sim.run_for(k).expect("prefix run completes");
                if finished {
                    // The budget now covers the whole run; the sweep is done.
                    assert_eq!(sim.report(), straight, "{name} {port:?}: full-budget run");
                    break;
                }
                let bytes = sim.save_snapshot().as_bytes().to_vec();
                let snap = SimSnapshot::from_bytes(bytes).expect("snapshot bytes roundtrip");
                let report = Simulator::resume(&snap)
                    .expect("snapshot resumes")
                    .run()
                    .expect("resumed run completes");
                assert_eq!(
                    report, straight,
                    "{name} {port:?}: split at step {k} diverged"
                );
                splits += 1;
            }
            assert!(
                splits >= 20,
                "{name} {port:?}: workload finished after only {splits} split points — too short to anchor"
            );
        }
    }
}
