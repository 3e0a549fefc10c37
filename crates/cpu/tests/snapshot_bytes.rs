//! Byte-level pin on the snapshot format. The resume goldens compare
//! only reports, so they cannot see a change in how the window's
//! dependence edges or the replay cursor serialize; this suite can.
//!
//! * The hash64 of `save_snapshot().as_bytes()` at three fixed cycles
//!   of one replayed kernel, under each of the four port families, is
//!   pinned. The window, edge and replay-cursor bytes (byte offset,
//!   sequence number, previous pc, previous memory address) have not
//!   changed since before the slot-ring window and the block-decoding
//!   trace player. The pins were last re-recorded at format version 8,
//!   which moved only the arbitration counters: the simulator now owns
//!   them and writes them once, at the end of the payload after the
//!   port model's own state, as six fixed `u64`s (bank conflicts,
//!   combined, store serializations, port exhaustion, store-queue-full
//!   stalls, store-queue drains) where version 7 had the model's
//!   name/value list (a count, then a length-prefixed name and a value
//!   per counter the model had bumped). Every other byte of each
//!   version-8 payload equals its version-7 payload: cutting the last 48
//!   bytes of the version-8 payload and the counter list of the
//!   version-7 payload (8 bytes for ideal, 38 for banked, 44 for
//!   replicated, 87 for the LBIC at these cycles) leaves identical
//!   prefixes, and the six words hold the listed values, absent names
//!   reading 0. Version 7 only cut fields: each version-7 payload
//!   equals its version-6 payload with the hierarchy's memory-writeback
//!   word, the five pipeline histograms (14,024 bytes) and the port
//!   model's ticked-cycle word cut out. (Version 6 changed only the hash:
//!   version, checksum and embedded-trace words aside, it equals
//!   version 5 byte for byte. Version 5 moved the sealed trace to the
//!   front of the payload and cut the source tag and the later trace
//!   field; version 4 cut the `cycle_skip` byte and the skipped-cycle
//!   word out of version 3.)
//!   Any reordering of edges, completion events or cursor fields
//!   changes them.
//! * save → resume → save reproduces the same bytes at each of those
//!   cycles.

use hbdc_core::PortConfig;
use hbdc_cpu::{CommittedTrace, CpuConfig, SimSnapshot, Simulator};
use hbdc_isa::asm::assemble;
use hbdc_mem::HierarchyConfig;
use hbdc_snap::hash64;

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

/// Recorded at snapshot format version 8: `(family, [hash64 at each
/// of CYCLES])`.
const PINNED: [(&str, [u64; 3]); 4] = [
    (
        "ideal",
        [0xbdfd12fa935deae1, 0xea19f4927308777e, 0xe6b9ec61b9f320b3],
    ),
    (
        "replicated",
        [0xba3dc1195739f798, 0xae30806a9133f097, 0xf68c687685dca268],
    ),
    (
        "banked",
        [0x827b9cda466b1a6e, 0x23ffe17570c7d8db, 0x7fcee1772d13245c],
    ),
    (
        "lbic",
        [0xa4d95ced86f15ac7, 0x45f72f327920fce2, 0x903ac322739b8bec],
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
        let got: Vec<u64> = snapshots(&trace, port).iter().map(|b| hash64(b)).collect();
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
