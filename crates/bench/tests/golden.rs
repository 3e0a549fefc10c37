//! Golden-equivalence check: the optimized simulator must be
//! bit-identical to the reference implementation.
//!
//! The constants below are the complete `SimReport`s produced for `li`
//! at `Scale::Test` by the pre-optimization (allocating) simulator.
//! Any divergence means a scratch-buffer or ready-list change altered
//! simulated behavior, which is never acceptable for a pure perf change.
//! The branch, store-queue and grants-per-round fields joined the report
//! later and were pinned from the simulator that added them; the other
//! fields are the original constants.

use hbdc_bench::runner::{column, simulate_matrix};
use hbdc_core::PortConfig;
use hbdc_cpu::{CpuConfig, SimReport, Simulator};
use hbdc_mem::HierarchyConfig;
use hbdc_workloads::{by_name, Benchmark, Scale};

/// One `Scale::Test` run of `bench` straight through a fresh simulator.
fn simulate(bench: &Benchmark, port: PortConfig, cfg: CpuConfig) -> SimReport {
    let program = bench.build(Scale::Test);
    Simulator::try_new(&program, cfg, HierarchyConfig::default(), port)
        .and_then(|mut sim| sim.run())
        .expect("clean run")
}

fn golden(port_label: &str) -> SimReport {
    let common = SimReport {
        arb_rounds: 0, // per-config below
        committed: 58493,
        cycles: 0, // per-config below
        loads: 12600,
        stores: 11472,
        forwards: 0,
        l1_accesses: 24072,
        l1_misses: 1024,
        l1_writebacks: 0,
        l2_accesses: 1024,
        l2_misses: 512,
        arb_offered: 0, // per-config below
        arb_granted: 24072,
        bank_conflicts: 0,
        combined: 0,
        store_serializations: 0,
        branches: 0,
        mispredicts: 0,
        sq_drains: 0,
        sq_full_stalls: 0,
        grants_per_round: Vec::new(), // per-config below
        port_label: port_label.into(),
        skipped_cycles: 0,
        cpu_secs: 0.0,
        cycles_per_sec: 0.0,
    };
    match port_label {
        "True-4" => SimReport {
            cycles: 7142,
            arb_offered: 28279,
            arb_rounds: 7136,
            grants_per_round: vec![0, 1, 1535, 1399, 4201],
            ..common
        },
        "Bank-4" => SimReport {
            cycles: 14667,
            arb_offered: 59697,
            arb_rounds: 14660,
            bank_conflicts: 35625,
            grants_per_round: vec![0, 6826, 6256, 1578, 0],
            ..common
        },
        "LBIC-4x2" => SimReport {
            cycles: 10730,
            arb_offered: 42063,
            arb_rounds: 10724,
            bank_conflicts: 15365,
            combined: 6260,
            sq_drains: 11466,
            sq_full_stalls: 655,
            grants_per_round: vec![0, 2233, 4554, 3017, 920, 0, 0, 0, 0],
            ..common
        },
        other => panic!("no golden for {other}"),
    }
}

const CONFIGS: [PortConfig; 3] = [
    PortConfig::Ideal { ports: 4 },
    PortConfig::Banked {
        banks: 4,
        select: hbdc_mem::BankSelect::BitSelect,
    },
    PortConfig::Lbic {
        banks: 4,
        line_ports: 2,
        store_queue: 8,
        policy: hbdc_core::CombinePolicy::LeadingRequest,
    },
];

#[test]
fn li_reports_match_reference_implementation() {
    let li = by_name("li").unwrap();
    for port in CONFIGS {
        let r = simulate(&li, port, CpuConfig::default());
        assert_eq!(r, golden(&r.port_label), "{} diverged", r.port_label);
    }
}

#[test]
fn matrix_reports_match_reference_implementation() {
    let li = by_name("li").unwrap();
    let configs: Vec<_> = CONFIGS.iter().map(|&p| column("", p)).collect();
    let matrix = simulate_matrix(&[li], Scale::Test, &configs).expect_complete();
    for r in &matrix[0] {
        assert_eq!(*r, golden(&r.port_label), "{} diverged", r.port_label);
    }
}

/// The invariant auditor is a pure observer: running with `audit` on must
/// produce reports bit-identical to the golden references (and therefore
/// to audit-off runs). A divergence means the auditor perturbed
/// simulated behavior, which is never acceptable.
#[test]
fn audited_runs_match_reference_implementation() {
    let li = by_name("li").unwrap();
    for port in CONFIGS {
        let audited = CpuConfig {
            audit: true,
            ..CpuConfig::default()
        };
        let r = simulate(&li, port, audited);
        assert_eq!(
            r,
            golden(&r.port_label),
            "{} diverged under audit",
            r.port_label
        );
    }
}

/// The audited round is the production round: under Bank-4, whose round
/// stops walking the backlog at its fourth grant, a deep-backlog stencil
/// (more than 64 references offered per round on average) must run
/// audit-clean and bit-identical to the unaudited run.
#[test]
fn audited_deep_backlog_matches_unaudited_under_bank4() {
    let mgrid = by_name("mgrid").unwrap();
    let port = PortConfig::banked(4);
    let run = |audit| {
        let cfg = CpuConfig {
            audit,
            ..CpuConfig::default()
        };
        simulate(&mgrid, port, cfg)
    };
    let plain = run(false);
    assert!(
        plain.arb_offered > 64 * plain.arb_rounds,
        "backlog too shallow: {} offered over {} rounds",
        plain.arb_offered,
        plain.arb_rounds
    );
    assert_eq!(run(true), plain, "auditing must not perturb");
}
