//! Criterion bench for the Figure 3 analyzer: consecutive-reference
//! classification over an emulated benchmark's stream. Full-scale output
//! comes from `hbdc-sim campaign figure3`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hbdc_cpu::Emulator;
use hbdc_trace::{ConsecutiveMapping, MemRef};
use hbdc_workloads::{by_name, Scale};

fn bench_figure3(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure3");
    group.sample_size(10);

    // End-to-end: emulate a benchmark and classify its stream.
    group.bench_function("gcc-emulated", |b| {
        let bench = by_name("gcc").expect("registered benchmark");
        let program = bench.build(Scale::Test);
        b.iter(|| {
            let mut emu = Emulator::new(&program);
            let mut f3 = ConsecutiveMapping::new(4, 32);
            while let Some(di) = emu.step() {
                if let Some(addr) = di.addr {
                    f3.record(if di.inst.is_store() {
                        MemRef::store(addr)
                    } else {
                        MemRef::load(addr)
                    });
                }
            }
            black_box(f3.segments())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_figure3);
criterion_main!(benches);
