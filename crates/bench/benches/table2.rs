//! Criterion bench for the Table 2 pipeline: functional emulation of a
//! benchmark analog plus trace-driven L1 simulation. The full-scale rows
//! are produced by `hbdc-sim campaign table2`; this bench
//! tracks the cost of the measurement machinery itself at test scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hbdc_cpu::Emulator;
use hbdc_trace::{MemRef, TraceCacheSim};
use hbdc_workloads::{by_name, Scale};

fn table2_row(name: &str) -> (u64, f64) {
    let bench = by_name(name).expect("registered benchmark");
    let program = bench.build(Scale::Test);
    let mut emu = Emulator::new(&program);
    let mut dl1 = TraceCacheSim::paper_l1();
    let mut total = 0u64;
    while let Some(di) = emu.step() {
        total += 1;
        if let Some(addr) = di.addr {
            dl1.access(if di.inst.is_store() {
                MemRef::store(addr)
            } else {
                MemRef::load(addr)
            });
        }
    }
    (total, dl1.stats().miss_rate())
}

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    for name in ["compress", "swim"] {
        group.bench_function(name, |b| b.iter(|| black_box(table2_row(name))));
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
