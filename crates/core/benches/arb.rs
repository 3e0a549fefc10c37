//! Microbenchmarks for the memory-stage hot loops: each port model's one
//! arbitration round (`arbitrate_into`) and `Hierarchy::access`.
//!
//! The offered sets come in two flavours so both regimes of the
//! arbiters are visible: *conflict-free* (one reference per bank, every
//! round grants everything) and *conflict-heavy* (the whole backlog on
//! one bank, so most references wait many rounds). Every iteration runs
//! one round, then services the grants and offers a replacement for
//! each (a younger reference to the same address), so the backlog stays
//! at a fixed depth and models that mirror offers (banked) pay their
//! `offer_remove`/`offer_insert` upkeep exactly as the simulator feeds it.
//!
//! Run via `scripts/microbench.sh` or
//! `cargo bench -p hbdc-core --bench arb`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hbdc_core::{MemRequest, PortConfig};
use hbdc_mem::{Hierarchy, HierarchyConfig};

/// Line size the models are built with (also the bank-mapping stride).
const LINE: u64 = 32;
/// Backlog depth per offered set — deep enough that a conflicted bank
/// keeps most of it waiting for many rounds.
const N_READY: u64 = 32;

/// One reference per bank on an 8-bank layout: no two requests collide,
/// so every round is all-grant.
fn conflict_free() -> Vec<MemRequest> {
    (0..N_READY)
        .map(|i| MemRequest::load(i, i * LINE))
        .collect()
}

/// Every reference on bank 0, spread over four distinct lines so the
/// LBIC sees same-line groups it can combine; every fourth is a store.
fn conflict_heavy() -> Vec<MemRequest> {
    (0..N_READY)
        .map(|i| {
            let addr = (i % 4) * LINE * 8 + (i / 4) * 8;
            if i % 4 == 0 {
                MemRequest::store(i, addr)
            } else {
                MemRequest::load(i, addr)
            }
        })
        .collect()
}

fn bench_arbitrate(c: &mut Criterion) {
    for (shape, reqs) in [
        ("conflict-free", conflict_free()),
        ("conflict-heavy", conflict_heavy()),
    ] {
        let mut group = c.benchmark_group(format!("arbitrate/{shape}"));
        for config in [
            PortConfig::Ideal { ports: 8 },
            PortConfig::Replicated { ports: 8 },
            PortConfig::banked(8),
            PortConfig::lbic(8, 4),
        ] {
            let mut model = config.build(LINE);
            let mut ready = reqs.clone();
            model.offer_reset(&ready);
            let mut next_id = N_READY;
            let mut granted = Vec::new();
            group.bench_function(model.label(), |b| {
                b.iter(|| {
                    model.arbitrate_into(black_box(&ready), &mut granted);
                    model.tick();
                    for &g in granted.iter().rev() {
                        let done = ready.remove(g);
                        model.offer_remove(done);
                        let fresh = MemRequest {
                            id: next_id,
                            ..done
                        };
                        next_id += 1;
                        ready.push(fresh);
                        model.offer_insert(fresh);
                    }
                    black_box(granted.len())
                })
            });
        }
        group.finish();
    }
}

fn bench_hierarchy_access(c: &mut Criterion) {
    // A hashed 512 KiB footprint: misses in both levels plus in-flight
    // merges, so the MSHR heap and tag arrays all stay exercised.
    c.bench_function("hierarchy/access-stream-4k", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(HierarchyConfig::default());
            let mut hits = 0u64;
            for i in 0..4096u64 {
                let addr = (i.wrapping_mul(0x9e37_79b9) >> 4) & 0x7_ffff;
                let out = h.access(addr, i % 5 == 0, i);
                if out.l1_hit {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

criterion_group!(benches, bench_arbitrate, bench_hierarchy_access);
criterion_main!(benches);
