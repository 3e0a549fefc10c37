//! Micro-benchmarks of the core building blocks: assembler throughput,
//! tag-array access, port-model arbitration, and functional emulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hbdc_core::{ArbStats, MemRequest, PortConfig};
use hbdc_cpu::Emulator;
use hbdc_isa::asm::assemble;
use hbdc_mem::{CacheGeometry, LookupResult, TagArray};
use hbdc_workloads::{by_name, Scale};

fn bench_assembler(c: &mut Criterion) {
    let src = by_name("mgrid").expect("registered").source(Scale::Test);
    c.bench_function("assembler/mgrid", |b| {
        b.iter(|| black_box(assemble(&src).expect("assembles").text().len()))
    });
}

fn bench_tag_array(c: &mut Criterion) {
    c.bench_function("tagarray/lookup-fill-10k", |b| {
        b.iter(|| {
            let mut tags = TagArray::new(CacheGeometry::new(32 * 1024, 32, 1));
            let mut hits = 0u64;
            for i in 0..10_000u64 {
                let addr = (i.wrapping_mul(0x9e37_79b9) >> 3) & 0xf_ffff;
                if tags.lookup(addr, i % 4 == 0) == LookupResult::Hit {
                    hits += 1;
                } else {
                    tags.fill(addr, i % 4 == 0);
                }
            }
            black_box(hits)
        })
    });
}

fn bench_arbitration(c: &mut Criterion) {
    let mut group = c.benchmark_group("arbitrate");
    let ready: Vec<MemRequest> = (0..32u64)
        .map(|i| {
            let addr = (i.wrapping_mul(0x9e37_79b9) >> 2) & 0xffff8;
            if i % 4 == 0 {
                MemRequest::store(i, addr)
            } else {
                MemRequest::load(i, addr)
            }
        })
        .collect();
    for config in [
        PortConfig::Ideal { ports: 8 },
        PortConfig::Replicated { ports: 8 },
        PortConfig::banked(8),
        PortConfig::lbic(8, 4),
    ] {
        let mut model = config.build(32);
        let mut stats = ArbStats::new(config.peak());
        group.bench_function(config.label(), |b| {
            b.iter(|| {
                let g = model.arbitrate(black_box(&ready), &mut stats);
                model.tick(&mut stats);
                black_box(g.len())
            })
        });
    }
    group.finish();
}

fn bench_emulator(c: &mut Criterion) {
    let bench = by_name("li").expect("registered");
    let program = bench.build(Scale::Test);
    c.bench_function("emulator/li-test-scale", |b| {
        b.iter(|| {
            let emu = Emulator::new(&program);
            black_box(emu.count())
        })
    });
}

criterion_group!(
    benches,
    bench_assembler,
    bench_tag_array,
    bench_arbitration,
    bench_emulator
);
criterion_main!(benches);
