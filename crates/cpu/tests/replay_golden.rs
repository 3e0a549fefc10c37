//! Golden gate for trace-driven replay. Every simulator replays a
//! captured committed-stream trace: [`Simulator::new`] captures its own,
//! [`Simulator::try_from_trace`] takes one captured elsewhere. Both must
//! produce the same [`SimReport`](hbdc_cpu::SimReport), branch
//! statistics and LSQ stall census for every port model, with the
//! invariant auditor on and off, across warmup offsets, and across a
//! snapshot/resume split taken mid-replay. Anything less and the matrix
//! fan-out (capture once, replay per cell) would silently change results.
//!
//! The reports are also pinned against a functional-execution
//! reference: `EXECUTE_PINS` and `GSHARE_PIN` are the hash64 of
//! `SimReport::to_record()` for reports recorded when fetch still read a
//! live functional emulator instead of a trace. Replay must keep matching
//! them. When the record later gained the branch, store-queue and
//! grants-per-round fields, the pins were re-taken only after each new
//! record, with those fields cut out, equalled the recorded one byte for
//! byte. When the pins moved from FNV-1a to hash64 (XXH64), they were
//! re-taken only after every hashed record was shown byte-identical
//! under both hashes' builds.

use hbdc_core::PortConfig;
use hbdc_cpu::{
    CommittedTrace, CpuConfig, FrontEnd, PredictorKind, SimError, SimReport, SimSnapshot, Simulator,
};
use hbdc_isa::asm::assemble;
use hbdc_isa::Program;
use hbdc_mem::HierarchyConfig;
use hbdc_snap::hash64;

/// Mixed workload: strided loads, dependent stores, a data-dependent
/// branch — populates the LSQ, bank queues, MSHRs, and the misprediction
/// path for a few thousand cycles.
const WORKLOAD: &str = ".data\nv: .space 8192\n.text\nmain:\n la r8, v\n li r9, 150\n\
    loop:\n lw r1, 0(r8)\n lw r2, 64(r8)\n lw r3, 128(r8)\n addi r1, r1, 3\n\
    sw r1, 192(r8)\n sw r2, 256(r8)\n andi r10, r9, 1\n bnez r10, odd\n\
    addi r8, r8, 8\n odd:\n addi r8, r8, 8\n addi r9, r9, -1\n bnez r9, loop\n halt\n";

fn program() -> Program {
    assemble(WORKLOAD).unwrap()
}

fn every_port() -> [PortConfig; 4] {
    [
        PortConfig::Ideal { ports: 4 },
        PortConfig::Replicated { ports: 4 },
        PortConfig::banked(4),
        PortConfig::lbic(4, 2),
    ]
}

/// hash64 of `to_record()` for each of [`every_port`]: the reports
/// recorded with a functional emulator driving fetch. The auditor does
/// not perturb timing, so the same values hold with it on and off.
const EXECUTE_PINS: [u64; 4] = [
    0x1b59e64e3a85dbb2,
    0x31b99a521658e796,
    0x0aff00efd857e396,
    0xfa8e47446cf5665c,
];

/// The warmup + gshare case under LBIC-4x2, recorded the same way:
/// `(hash64 of to_record(), (branches, mispredicts))`.
const GSHARE_PIN: (u64, (u64, u64)) = (0xbdef34dc2f2f0e26, (266, 10));

fn fingerprint(r: &SimReport) -> u64 {
    hash64(r.to_record().as_bytes())
}

/// [`Simulator::new`], which captures its own trace.
fn simulate(p: &Program, cfg: CpuConfig, port: PortConfig) -> (SimReport, Simulator) {
    let mut sim = Simulator::new(p, cfg, HierarchyConfig::default(), port);
    let report = sim.run().unwrap();
    (report, sim)
}

fn replay(t: &CommittedTrace, cfg: CpuConfig, port: PortConfig) -> (SimReport, Simulator) {
    let mut sim = Simulator::try_from_trace(t, cfg, HierarchyConfig::default(), port).unwrap();
    let report = sim.run().unwrap();
    (report, sim)
}

fn golden_sweep(audit: bool) {
    let p = program();
    let cfg = CpuConfig {
        audit,
        ..CpuConfig::default()
    };
    let trace = CommittedTrace::capture(&p, cfg.warmup_insts, None).unwrap();
    for (port, pin) in every_port().into_iter().zip(EXECUTE_PINS) {
        let (base, base_sim) = simulate(&p, cfg, port);
        let (rep, rep_sim) = replay(&trace, cfg, port);
        assert_eq!(base, rep, "{port:?} replay diverged (audit={audit})");
        assert_eq!(
            fingerprint(&base),
            pin,
            "{port:?} differs from the execute-mode report (audit={audit})"
        );
        assert_eq!(
            (base.branches, base.mispredicts),
            (rep.branches, rep.mispredicts),
            "{port:?} branch stats diverged (audit={audit})"
        );
        assert_eq!(
            base_sim.lsq_stalls(),
            rep_sim.lsq_stalls(),
            "{port:?} LSQ stalls diverged (audit={audit})"
        );
    }
}

#[test]
fn replay_is_bit_identical_for_every_port_model() {
    golden_sweep(false);
}

#[test]
fn replay_is_bit_identical_under_audit() {
    golden_sweep(true);
}

#[test]
fn replay_is_bit_identical_with_warmup_and_predictor() {
    let p = program();
    let cfg = CpuConfig {
        warmup_insts: 200,
        front_end: FrontEnd::Predicted {
            kind: PredictorKind::Gshare {
                entries: 1024,
                history_bits: 8,
            },
            redirect_penalty: 2,
        },
        ..CpuConfig::default()
    };
    let trace = CommittedTrace::capture(&p, cfg.warmup_insts, None).unwrap();
    let port = PortConfig::lbic(4, 2);
    let (base, _) = simulate(&p, cfg, port);
    let (rep, _) = replay(&trace, cfg, port);
    assert_eq!(base, rep);
    let branch_stats = |r: &SimReport| (r.branches, r.mispredicts);
    assert_eq!(branch_stats(&base), branch_stats(&rep));
    assert_eq!((fingerprint(&base), branch_stats(&base)), GSHARE_PIN);
}

/// One trace, every port model: the whole point of capture-once is that
/// a single functional pass feeds the entire configuration fan-out.
#[test]
fn one_trace_feeds_the_whole_port_fanout() {
    let p = program();
    let cfg = CpuConfig::default();
    let trace = CommittedTrace::capture(&p, cfg.warmup_insts, None).unwrap();
    let mut reports = Vec::new();
    for port in every_port() {
        reports.push(replay(&trace, cfg, port).0);
    }
    // The port models genuinely differ, so the sweep exercised four
    // distinct timing behaviours off the same captured stream.
    assert!(reports.iter().any(|r| r.cycles != reports[0].cycles));
    for (r, port) in reports.iter().zip(every_port()) {
        assert_eq!(r, &simulate(&p, cfg, port).0, "{port:?}");
    }
}

/// Snapshot taken in the middle of a replay run, round-tripped through
/// bytes, resumed, and run to completion — must equal the uninterrupted
/// run.
#[test]
fn snapshot_mid_replay_resumes_bit_identically() {
    let p = program();
    let cfg = CpuConfig::default();
    let trace = CommittedTrace::capture(&p, cfg.warmup_insts, None).unwrap();
    for port in every_port() {
        let (baseline, _) = simulate(&p, cfg, port);
        for k in [0, baseline.cycles / 2, baseline.cycles - 1] {
            let mut head =
                Simulator::try_from_trace(&trace, cfg, HierarchyConfig::default(), port).unwrap();
            head.run_for(k).unwrap();
            let snap = SimSnapshot::from_bytes(head.save_snapshot().as_bytes().to_vec()).unwrap();
            let mut tail = Simulator::resume(&snap).unwrap();
            let resumed = tail.run().unwrap();
            assert_eq!(baseline, resumed, "{port:?} resumed at cycle {k} diverged");
        }
    }
}

#[test]
fn warmup_mismatch_is_a_typed_trace_error() {
    let p = program();
    let trace = CommittedTrace::capture(&p, 100, None).unwrap();
    let cfg = CpuConfig {
        warmup_insts: 0,
        ..CpuConfig::default()
    };
    match Simulator::try_from_trace(
        &trace,
        cfg,
        HierarchyConfig::default(),
        PortConfig::banked(4),
    ) {
        Err(SimError::Trace { detail }) => {
            assert!(detail.contains("warmup"), "{detail}");
        }
        other => panic!("expected SimError::Trace, got {other:?}"),
    }
}

#[test]
fn incomplete_capture_is_a_typed_trace_error() {
    let p = program();
    let trace = CommittedTrace::capture(&p, 0, Some(10)).unwrap();
    assert!(!trace.is_complete());
    match Simulator::try_from_trace(
        &trace,
        CpuConfig::default(),
        HierarchyConfig::default(),
        PortConfig::banked(4),
    ) {
        Err(SimError::Trace { detail }) => {
            assert!(detail.contains("incomplete"), "{detail}");
        }
        other => panic!("expected SimError::Trace, got {other:?}"),
    }
}

/// Corrupted or truncated trace files must surface as typed errors —
/// through both the codec layer and the simulator constructor — never as
/// panics or silently wrong replays.
#[test]
fn corrupt_and_truncated_trace_files_are_rejected() {
    let p = program();
    let trace = CommittedTrace::capture(&p, 0, None).unwrap();
    let good = trace.as_bytes().to_vec();

    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(CommittedTrace::from_bytes(flipped).is_err());

    let truncated = good[..good.len() - 5].to_vec();
    assert!(CommittedTrace::from_bytes(truncated).is_err());

    let mut wrong_magic = good;
    wrong_magic[0] ^= 0xff;
    assert!(CommittedTrace::from_bytes(wrong_magic).is_err());
}
