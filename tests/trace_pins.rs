//! Byte pins of every benchmark's captured trace and final state.
//!
//! Each benchmark analog is captured at `Scale::Test` with no warmup and
//! the `hash64` of its sealed HBTR container is compared with a value
//! recorded before the functional memory was rewritten around page
//! frames. The container embeds the program image and every record's pc
//! and effective-address deltas, so it moves whenever a loaded value
//! steers an address or a branch (the integer analogs chase pointers
//! and index tables with loaded data). A loaded value that only feeds
//! arithmetic leaves the trace alone, so each benchmark also pins the
//! `hash64` of its integer and FP register files at the halt: a flipped
//! low bit in FP loads moves only that pin. Between them the analogs
//! use `lb`, `lw`, `ld`, `fld` and their stores; none uses `lh`, `flw`
//! or their stores, so these pins do not cover those widths.

use hbdc::cpu::CommittedTrace;
use hbdc::prelude::*;
use hbdc::snap::hash64;

/// (benchmark, trace hash, final-register hash), in `all()` order.
const PINS: [(&str, u64, u64); 10] = [
    ("compress", 0xefeddc5e88a44d1d, 0x01729fb89711bfc1),
    ("gcc", 0x2cfbb8a9775e4ea7, 0x8ae67bc0c03e77fd),
    ("go", 0x105b83604d39e9ff, 0x6a131b2c8508e7f7),
    ("li", 0xc88279561c7531a8, 0x1fcde4e29047c5bb),
    ("perl", 0x396aef1bc52f771f, 0xffefa833bdc9b7c8),
    ("hydro2d", 0xc8bfa903d01657cb, 0xca1ffa201f17446c),
    ("mgrid", 0x21f27b293ab2b80b, 0x057b4f2e3d2d37ca),
    ("su2cor", 0xfef6aeda30ca7f3f, 0x2b6dcb07105831fb),
    ("swim", 0xde52b26961fc88e1, 0x723355f124627139),
    ("wave5", 0xa654990c86a725d1, 0x0bc04957fe251f2b),
];

/// `hash64` of the registers after running `program` to its halt.
fn final_registers(program: &Program) -> u64 {
    let mut emu = Emulator::new(program);
    while emu.step().is_some() {}
    let mut bytes = Vec::new();
    for i in 0..32 {
        bytes.extend_from_slice(&emu.reg(i).to_le_bytes());
        bytes.extend_from_slice(&emu.freg(i).to_bits().to_le_bytes());
    }
    hash64(&bytes)
}

#[test]
fn every_benchmark_trace_matches_its_pin() {
    let names: Vec<&str> = all().iter().map(|b| b.name()).collect();
    assert_eq!(names, PINS.map(|(n, _, _)| n), "one pin per benchmark");
    let mut got = Vec::new();
    for bench in all() {
        let program = bench.build(Scale::Test);
        let trace = CommittedTrace::capture(&program, 0, None).unwrap();
        assert!(trace.is_complete(), "{}", bench.name());
        got.push((
            bench.name(),
            hash64(trace.as_bytes()),
            final_registers(&program),
        ));
    }
    for (&(name, trace_pin, regs_pin), &(_, trace, regs)) in PINS.iter().zip(&got) {
        assert!(
            trace == trace_pin && regs == regs_pin,
            "{name}: trace {trace:#018x} (pinned {trace_pin:#018x}), registers {regs:#018x} \
             (pinned {regs_pin:#018x}); all: {got:#x?}"
        );
    }
}
