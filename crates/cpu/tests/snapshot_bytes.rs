//! Byte-level pin on the snapshot format. The resume goldens compare
//! only reports, so they cannot see a change in how the window's
//! dependence edges or the replay cursor serialize; this suite can.
//!
//! * The fnv1a64 of `save_snapshot().as_bytes()` at three fixed cycles
//!   of one replayed kernel, under each of the four port families, is
//!   pinned to values recorded before the window and the trace player
//!   were reworked: first the slot-ring window and a whole-trace
//!   predecoded table, then the one block-decoding player that replaced
//!   that table and the streaming path. The replay cursor (byte offset,
//!   sequence number, previous pc, previous memory address) kept its
//!   fields and their order through both. Any reordering of edges,
//!   completion events or cursor fields changes them.
//! * save → resume → save reproduces the same bytes at each of those
//!   cycles.

use hbdc_core::PortConfig;
use hbdc_cpu::{CommittedTrace, CpuConfig, SimSnapshot, Simulator};
use hbdc_isa::asm::assemble;
use hbdc_mem::HierarchyConfig;
use hbdc_snap::fnv1a64;

/// Strided loads, a dependent store chain, a data-dependent branch and a
/// long ALU chain: at every pinned cycle the window holds waiting
/// consumers with several outgoing edges, pending completions and
/// known-address stores.
const KERNEL: &str = ".data\nv: .space 40960\n.text\nmain:\n la r8, v\n li r9, 1500\n\
    loop:\n lw r1, 0(r8)\n lw r2, 64(r8)\n add r3, r1, r2\n mul r4, r3, r3\n\
    sw r4, 128(r8)\n sw r3, 256(r8)\n lw r5, 128(r8)\n add r6, r5, r4\n\
    andi r10, r9, 1\n bnez r10, odd\n addi r8, r8, 16\n odd:\n addi r8, r8, 8\n\
    addi r9, r9, -1\n bnez r9, loop\n halt\n";

const CYCLES: [u64; 3] = [37, 411, 1503];

fn ports() -> [(&'static str, PortConfig); 4] {
    [
        ("ideal", PortConfig::Ideal { ports: 4 }),
        ("replicated", PortConfig::Replicated { ports: 4 }),
        ("banked", PortConfig::banked(4)),
        ("lbic", PortConfig::lbic(4, 2)),
    ]
}

/// Recorded on the tree before the slot-ring window and the block
/// trace player: `(family, [fnv1a64 at each of CYCLES])`.
const PINNED: [(&str, [u64; 3]); 4] = [
    (
        "ideal",
        [0x702c1cb00c9c9295, 0x3ce9e764f9615532, 0x4a1cdeea2617c9f8],
    ),
    (
        "replicated",
        [0xc646775831dc7f83, 0xbec134cb2872de3c, 0x956ac2f0589a507d],
    ),
    (
        "banked",
        [0xfca9055811a7cc15, 0x06fb23fdc3bcf654, 0xe8381741ebc135f9],
    ),
    (
        "lbic",
        [0x292a6a2e8e8c97c6, 0x0c17cac1faac534e, 0x58e8a0da2193855d],
    ),
];

/// Snapshot bytes of one replayed run paused at each of `CYCLES`. The
/// configuration is embedded in the bytes, so it is pinned here rather
/// than taken from the build's default (the `audit` feature flips it).
fn snapshots(trace: &CommittedTrace, port: PortConfig) -> Vec<Vec<u8>> {
    let cfg = CpuConfig {
        audit: false,
        ..CpuConfig::default()
    };
    let mut sim = Simulator::try_from_trace(trace, cfg, HierarchyConfig::default(), port).unwrap();
    let mut at = 0;
    CYCLES
        .iter()
        .map(|&c| {
            assert!(!sim.run_for(c - at).unwrap(), "kernel ended before {c}");
            at = c;
            assert_eq!(sim.current_cycle(), c);
            let (waiting, _, issued, _) = sim.census();
            assert!(waiting > 0 && issued > 0, "cycle {c}: window too quiet");
            sim.save_snapshot().as_bytes().to_vec()
        })
        .collect()
}

#[test]
fn snapshot_bytes_match_the_pinned_fingerprints() {
    let p = assemble(KERNEL).unwrap();
    let trace = CommittedTrace::capture(&p, 0, None).unwrap();
    for ((name, port), (pinned_name, pinned)) in ports().into_iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let got: Vec<u64> = snapshots(&trace, port).iter().map(|b| fnv1a64(b)).collect();
        assert_eq!(got, pinned, "{name}: snapshot bytes changed");
    }
}

#[test]
fn save_resume_save_reproduces_the_bytes() {
    let p = assemble(KERNEL).unwrap();
    let trace = CommittedTrace::capture(&p, 0, None).unwrap();
    for (name, port) in ports() {
        for (bytes, c) in snapshots(&trace, port).into_iter().zip(CYCLES) {
            let snap = SimSnapshot::from_bytes(bytes.clone()).unwrap();
            let resumed = Simulator::resume(&snap).unwrap();
            assert_eq!(
                resumed.save_snapshot().as_bytes(),
                &bytes[..],
                "{name}: bytes changed across a resume at cycle {c}"
            );
        }
    }
}
