//! The differential oracle: metamorphic and mode-pair relations.
//!
//! Every generated program is checked against two families of relations,
//! none of which needs a golden output:
//!
//! **Metamorphic relations from the paper** (orderings between port
//! models on the *same* program):
//!
//! * `runs-clean` — every configuration simulates without a
//!   [`SimError`](hbdc_cpu::SimError);
//! * `commit-invariance` — committed/load/store counts are properties of
//!   the program, identical under every port model;
//! * `ideal-upper-bound` / `port-monotonicity` — an ideal cache whose
//!   port count covers a design's peak bandwidth never loses to it
//!   beyond the [`anomaly_allowance`] (age-ordered LSQ arbitration
//!   admits Graham-style timing anomalies of a few cycles; the fuzzer's
//!   own first session produced the nine-instruction counterexample in
//!   DESIGN.md §13), driven by
//!   [`hbdc_core::relations::must_dominate`]; the ideal-vs-ideal
//!   instances are "more ports never lowers IPC";
//! * `single-port-equivalence` — every peak-width-1 configuration
//!   (ideal:1, repl:1, bank:1) takes exactly the same cycle count (all
//!   three grant exactly the oldest ready reference, so this one *is*
//!   cycle-exact);
//! * `lbic-degree1-vs-banked` — an M×1 LBIC with a deep store queue is
//!   a banked cache plus store-queue absorption: cycles ≤ banked(M)
//!   plus the same anomaly allowance;
//! * `replicated-load-only` — on the store-free transform of the program
//!   ([`stores_to_loads`]), replicated ports are bit-identical to ideal
//!   ports (the broadcast machinery never engages).
//!
//! **Bit-identity relations** (same program, same configuration,
//! different engine path or representation):
//!
//! * `source-roundtrip` — disassembling and re-assembling reproduces the
//!   identical program (text, data, entry), and so does the object codec;
//! * `trace-vs-emulator` — the captured committed-stream trace, which
//!   every simulator replays, yields record for record (sequence number,
//!   pc, instruction, address, branch direction) what a fresh functional
//!   emulator commits past the same warmup, ends where it halts, and is
//!   complete;
//! * `audit-vs-plain` — the per-cycle invariant auditor neither fires
//!   nor perturbs the run;
//! * `snapshot-split` — splitting the run at a fuzzer-chosen cycle,
//!   round-tripping the snapshot through bytes, and resuming equals the
//!   straight run;
//! * `journal-matrix` — driving the program through the journaled
//!   campaign engine (the one loop every matrix run takes: capture,
//!   replay, journal records), then continuing the journal, equals direct
//!   simulation; the engine's subprocess executor is covered end-to-end
//!   by `scripts/chaos_test.sh`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use hbdc_core::relations::{anomaly_allowance, must_dominate, single_port_equivalent};
use hbdc_core::{CombinePolicy, PortConfig};
use hbdc_cpu::{CommittedTrace, CpuConfig, Emulator, SimReport, Simulator};
use hbdc_isa::Program;
use hbdc_mem::HierarchyConfig;

use crate::gen::stores_to_loads;

/// Names of every relation the oracle can evaluate, for reporting.
pub const RELATIONS: &[&str] = &[
    "runs-clean",
    "commit-invariance",
    "ideal-upper-bound",
    "port-monotonicity",
    "single-port-equivalence",
    "lbic-degree1-vs-banked",
    "replicated-load-only",
    "source-roundtrip",
    "trace-vs-emulator",
    "audit-vs-plain",
    "snapshot-split",
    "journal-matrix",
];

/// A relation the program falsified: which one, plus enough rendered
/// state to reproduce and eyeball the disagreement.
#[derive(Debug, Clone)]
pub struct RelationViolation {
    /// Relation name (one of [`RELATIONS`]).
    pub relation: &'static str,
    /// Human-readable account of the disagreement.
    pub detail: String,
    /// Expected-side rendering (report record, cycles, ...).
    pub expected: String,
    /// Actual-side rendering.
    pub actual: String,
}

impl std::fmt::Display for RelationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (expected {}, got {})",
            self.relation, self.detail, self.expected, self.actual
        )
    }
}

/// Per-program oracle knobs.
#[derive(Debug, Clone, Default)]
pub struct OracleKnobs {
    /// Salt for the fuzzer-chosen snapshot split cycle.
    pub split_salt: u64,
    /// Scratch directory enabling the (heavier, sampled) `journal-matrix`
    /// relation; `None` skips it.
    pub matrix_dir: Option<PathBuf>,
}

/// The machine configuration every oracle run uses: defaults plus a hard
/// cycle ceiling, so a run that stops making progress dies with a typed
/// `CycleLimit` instead of hanging the harness.
///
/// Programs reach it only once they are known to halt: generated ones
/// always do, and the shrinker's predicates first require
/// [`halts_within_budget`]. A candidate that loses its loop exit (the
/// decrement nopped out from under a backward branch) would otherwise
/// have its committed stream captured up to the cycle cap — `max_cycles
/// × fetch_width` records — before the simulator even starts.
pub fn fuzz_cfg() -> CpuConfig {
    CpuConfig {
        max_cycles: 250_000,
        ..CpuConfig::default()
    }
}

/// Whether `program` halts on the functional emulator within the
/// instruction budget of the generator's envelope,
/// [`GenConfig::max_committed`] of [`GenConfig::default`] (which
/// contains [`GenConfig::small`]'s). Every generated program does;
/// shrink candidates that do not are rejected before they are simulated.
///
/// [`GenConfig::max_committed`]: crate::gen::GenConfig::max_committed
/// [`GenConfig::default`]: crate::gen::GenConfig
/// [`GenConfig::small`]: crate::gen::GenConfig::small
pub fn halts_within_budget(program: &Program) -> bool {
    let budget = crate::gen::GenConfig::default().max_committed();
    let mut emu = Emulator::new(program);
    (0..=budget).any(|_| emu.step().is_none())
}

/// The flagship configuration mode-pair relations run under: the paper's
/// LBIC 4×2, the design the reproduction is about.
fn flagship() -> PortConfig {
    PortConfig::lbic(4, 2)
}

fn violation(
    relation: &'static str,
    detail: impl Into<String>,
    expected: impl Into<String>,
    actual: impl Into<String>,
) -> RelationViolation {
    RelationViolation {
        relation,
        detail: detail.into(),
        expected: expected.into(),
        actual: actual.into(),
    }
}

/// Runs the program to completion under one configuration; any simulator
/// error is a `runs-clean` violation.
fn try_run(
    program: &Program,
    port: PortConfig,
    cfg: CpuConfig,
    what: &str,
) -> Result<SimReport, RelationViolation> {
    Simulator::try_new(program, cfg, HierarchyConfig::default(), port)
        .and_then(|mut sim| sim.run())
        .map_err(|e| {
            violation(
                "runs-clean",
                format!("{what} failed to simulate"),
                "a finished report",
                e.to_string(),
            )
        })
}

/// A report record with the port label stripped: the comparison key for
/// cross-model equivalences, where the label legitimately differs.
fn record_sans_label(r: &SimReport) -> String {
    let rec = r.to_record();
    match rec.rsplit_once('\t') {
        Some((head, _label)) => head.to_string(),
        None => rec,
    }
}

/// Checks every relation on one program. Returns the number of relations
/// evaluated, or the first violation found.
pub fn check_program(
    program: &Program,
    knobs: &OracleKnobs,
) -> Result<usize, Box<RelationViolation>> {
    let cfg = fuzz_cfg();
    let mut checked = 1; // runs-clean is on trial in every try_run below

    // --- Metamorphic family -------------------------------------------
    let lbic_deep_m1 = PortConfig::Lbic {
        banks: 4,
        line_ports: 1,
        store_queue: 4096,
        policy: CombinePolicy::LeadingRequest,
    };
    let roster: Vec<(&str, PortConfig)> = vec![
        ("ideal:1", PortConfig::Ideal { ports: 1 }),
        ("ideal:2", PortConfig::Ideal { ports: 2 }),
        ("ideal:4", PortConfig::Ideal { ports: 4 }),
        ("repl:1", PortConfig::Replicated { ports: 1 }),
        ("repl:4", PortConfig::Replicated { ports: 4 }),
        ("bank:1", PortConfig::banked(1)),
        ("bank:4", PortConfig::banked(4)),
        ("lbic:4x1:sq=4096", lbic_deep_m1),
        ("lbic:4x2", flagship()),
    ];
    let mut reports = Vec::with_capacity(roster.len());
    for (name, port) in &roster {
        reports.push(try_run(program, *port, cfg, name)?);
    }

    // commit-invariance: the committed stream is a program property.
    checked += 1;
    let (c0, l0, s0) = (reports[0].committed, reports[0].loads, reports[0].stores);
    for ((name, _), r) in roster.iter().zip(&reports) {
        if (r.committed, r.loads, r.stores) != (c0, l0, s0) {
            return Err(Box::new(violation(
                "commit-invariance",
                format!(
                    "{name} commits a different instruction stream than {}",
                    roster[0].0
                ),
                format!("committed/loads/stores {c0}/{l0}/{s0}"),
                format!("{}/{}/{}", r.committed, r.loads, r.stores),
            )));
        }
    }

    // ideal-upper-bound and port-monotonicity, driven by the core
    // dominance predicate over every roster pair.
    checked += 2;
    for (i, (name_a, port_a)) in roster.iter().enumerate() {
        for (j, (name_b, port_b)) in roster.iter().enumerate() {
            if i == j || !must_dominate(port_a, port_b) {
                continue;
            }
            let bound = reports[j].cycles + anomaly_allowance(reports[j].cycles);
            if reports[i].cycles > bound {
                let both_ideal = matches!(
                    (port_a, port_b),
                    (PortConfig::Ideal { .. }, PortConfig::Ideal { .. })
                );
                let relation = if both_ideal {
                    "port-monotonicity"
                } else {
                    "ideal-upper-bound"
                };
                return Err(Box::new(violation(
                    relation,
                    format!(
                        "{name_a} must dominate {name_b} but exceeded it past the \
                         anomaly allowance"
                    ),
                    format!("cycles({name_a}) <= {bound}"),
                    reports[i].cycles.to_string(),
                )));
            }
        }
    }

    // single-port-equivalence: exact cycle equality across the class.
    checked += 1;
    let singles: Vec<usize> = roster
        .iter()
        .enumerate()
        .filter(|(_, (_, p))| single_port_equivalent(p))
        .map(|(i, _)| i)
        .collect();
    for &i in &singles[1..] {
        if reports[i].cycles != reports[singles[0]].cycles {
            return Err(Box::new(violation(
                "single-port-equivalence",
                format!(
                    "{} and {} are both effectively single-ported yet disagree",
                    roster[singles[0]].0, roster[i].0
                ),
                format!("cycles == {}", reports[singles[0]].cycles),
                reports[i].cycles.to_string(),
            )));
        }
    }

    // lbic-degree1-vs-banked: combining degree 1 plus a deep store queue
    // can only absorb latency relative to the plain banked cache.
    checked += 1;
    let l41 = &reports[7];
    let b4 = &reports[6];
    let bound = b4.cycles + anomaly_allowance(b4.cycles);
    if l41.cycles > bound {
        return Err(Box::new(violation(
            "lbic-degree1-vs-banked",
            "lbic:4x1 with a deep store queue lost to bank:4",
            format!("cycles <= {bound}"),
            l41.cycles.to_string(),
        )));
    }

    // replicated-load-only: on the store-free transform, replication is
    // definitionally ideal — bit-identical up to the port label.
    checked += 1;
    let load_only = stores_to_loads(program);
    let ideal_lo = try_run(
        &load_only,
        PortConfig::Ideal { ports: 4 },
        cfg,
        "ideal:4/load-only",
    )?;
    let repl_lo = try_run(
        &load_only,
        PortConfig::Replicated { ports: 4 },
        cfg,
        "repl:4/load-only",
    )?;
    if record_sans_label(&ideal_lo) != record_sans_label(&repl_lo) {
        return Err(Box::new(violation(
            "replicated-load-only",
            "repl:4 diverged from ideal:4 on load-only traffic",
            record_sans_label(&ideal_lo),
            record_sans_label(&repl_lo),
        )));
    }

    // --- Mode-pair family ---------------------------------------------
    let base = reports[8].clone(); // flagship lbic:4x2 run

    // source-roundtrip: disasm → asm and object encode → decode both
    // reproduce the program exactly.
    checked += 1;
    check_source_roundtrip(program)?;

    // trace-vs-emulator: the stream every simulator replays is the
    // functional emulator's committed stream.
    checked += 1;
    check_trace_vs_emulator(program, cfg)?;

    // audit-vs-plain: the auditor must neither fire nor perturb.
    checked += 1;
    let audited = Simulator::try_new(
        program,
        CpuConfig { audit: true, ..cfg },
        HierarchyConfig::default(),
        flagship(),
    )
    .and_then(|mut sim| sim.run())
    .map_err(|e| {
        violation(
            "audit-vs-plain",
            "the invariant auditor rejected the run",
            "a clean audited run",
            e.to_string(),
        )
    })?;
    if audited != base {
        return Err(Box::new(violation(
            "audit-vs-plain",
            "running under the auditor changed the report",
            base.to_record(),
            audited.to_record(),
        )));
    }

    // snapshot-split at a fuzzer-chosen cycle, through the byte codec.
    checked += 1;
    check_snapshot_split(program, &base, knobs.split_salt, cfg)?;

    // journal-matrix (sampled by the driver via `matrix_dir`).
    if let Some(dir) = &knobs.matrix_dir {
        checked += 1;
        check_journal_matrix(program, &base, dir)?;
    }

    Ok(checked)
}

/// `trace-vs-emulator`: replay's only reference to the functional model.
/// Steps a fresh [`Emulator`] (warmed up and rebased like the capture)
/// alongside the captured trace's player and requires identical records,
/// a common end, and a complete capture.
fn check_trace_vs_emulator(
    program: &Program,
    cfg: CpuConfig,
) -> Result<(), Box<RelationViolation>> {
    let v = |detail: &str, expected: String, actual: String| {
        Box::new(violation("trace-vs-emulator", detail, expected, actual))
    };
    let trace = CommittedTrace::capture(program, cfg.warmup_insts, None).map_err(|e| {
        v(
            "trace capture failed",
            "a sealed trace".into(),
            e.to_string(),
        )
    })?;
    if !trace.is_complete() {
        return Err(v(
            "the uncapped capture is marked incomplete",
            "complete".into(),
            format!("incomplete after {} records", trace.records()),
        ));
    }
    let mut emu = Emulator::new(program);
    for _ in 0..cfg.warmup_insts {
        if emu.step().is_none() {
            break;
        }
    }
    emu.rebase_seq();
    let mut player = trace.player();
    loop {
        match (emu.step(), player.step()) {
            (None, None) => return Ok(()),
            (want, got) if want == got => {}
            (want, got) => {
                return Err(v(
                    "the trace diverged from the emulator's committed stream",
                    format!("{want:?}"),
                    format!("{got:?} ({} trace records delivered)", player.delivered()),
                ))
            }
        }
    }
}

/// `source-roundtrip`: the disassembler and the object codec must both
/// reproduce the program exactly — the property every repro artifact and
/// the matrix relation lean on.
fn check_source_roundtrip(program: &Program) -> Result<(), Box<RelationViolation>> {
    let src = hbdc_isa::disasm::program_to_string(program);
    let reassembled = hbdc_isa::asm::assemble(&src).map_err(|e| {
        violation(
            "source-roundtrip",
            "disassembled source failed to re-assemble",
            "a valid program",
            e.to_string(),
        )
    })?;
    if reassembled.text() != program.text()
        || reassembled.data() != program.data()
        || reassembled.entry() != program.entry()
    {
        return Err(Box::new(violation(
            "source-roundtrip",
            "disasm → asm did not reproduce the program",
            format!(
                "{} insts, {} data bytes, entry {}",
                program.text().len(),
                program.data().len(),
                program.entry()
            ),
            format!(
                "{} insts, {} data bytes, entry {}",
                reassembled.text().len(),
                reassembled.data().len(),
                reassembled.entry()
            ),
        )));
    }
    let decoded =
        hbdc_isa::object::from_bytes(&hbdc_isa::object::to_bytes(program)).map_err(|e| {
            violation(
                "source-roundtrip",
                "object bytes failed to decode",
                "a valid program",
                e.to_string(),
            )
        })?;
    if decoded.text() != program.text() || decoded.data() != program.data() {
        return Err(Box::new(violation(
            "source-roundtrip",
            "object encode → decode did not reproduce the program",
            "identical text and data",
            "a diverging image",
        )));
    }
    Ok(())
}

/// `snapshot-split`: pause at a salt-chosen cycle, round-trip the
/// snapshot through its byte encoding, resume, and require the stitched
/// run to equal the straight one bit-for-bit.
fn check_snapshot_split(
    program: &Program,
    base: &SimReport,
    salt: u64,
    cfg: CpuConfig,
) -> Result<(), Box<RelationViolation>> {
    let fail = |detail: &str, actual: String| {
        Box::new(violation(
            "snapshot-split",
            detail.to_string(),
            base.to_record(),
            actual,
        ))
    };
    let split = 1 + salt % base.cycles.max(2);
    let mut sim = Simulator::try_new(program, cfg, HierarchyConfig::default(), flagship())
        .map_err(|e| fail("construction failed", e.to_string()))?;
    let done = sim
        .run_for(split)
        .map_err(|e| fail("first half failed", e.to_string()))?;
    let stitched = if done {
        sim.report()
    } else {
        let bytes = sim.save_snapshot().as_bytes().to_vec();
        let snap = hbdc_cpu::SimSnapshot::from_bytes(bytes)
            .map_err(|e| fail("snapshot byte round-trip failed", e.to_string()))?;
        let mut resumed =
            Simulator::resume(&snap).map_err(|e| fail("resume failed", e.to_string()))?;
        resumed
            .run()
            .map_err(|e| fail("second half failed", e.to_string()))?
    };
    if stitched != *base {
        return Err(fail(
            &format!("split at cycle {split} diverged from the straight run"),
            stitched.to_record(),
        ));
    }
    Ok(())
}

/// Source hook for the `journal-matrix` relation's custom benchmark:
/// [`Benchmark::custom`] takes a `fn(Scale) -> String`, so the current
/// program's source travels through this process-global slot. The fuzz
/// driver is sequential, and the matrix engine only reads the source
/// during its (single-threaded-per-bench) build, so a plain mutex
/// suffices.
static MATRIX_SRC: Mutex<String> = Mutex::new(String::new());

fn matrix_src(_: hbdc_workloads::Scale) -> String {
    MATRIX_SRC.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// `journal-matrix`: one program × two configurations through the
/// journaled campaign engine, then a second pass served entirely from the
/// journal's records — both must equal direct simulation. This exercises
/// the campaign's persistence stack: trace capture, replay cells, journal
/// render/parse, and the report record codec.
fn check_journal_matrix(
    program: &Program,
    base: &SimReport,
    dir: &Path,
) -> Result<(), Box<RelationViolation>> {
    use hbdc_bench::runner::run_matrix;
    use hbdc_workloads::{Benchmark, Suite};

    let fail = |detail: String, expected: String, actual: String| {
        Box::new(violation("journal-matrix", detail, expected, actual))
    };

    *MATRIX_SRC.lock().unwrap_or_else(|e| e.into_inner()) =
        hbdc_isa::disasm::program_to_string(program);
    let benches = vec![Benchmark::custom("fuzz-matrix", Suite::Int, matrix_src)];
    let configs = vec![
        ("lbic:4x2".to_string(), fuzz_cfg(), flagship()),
        ("bank:4".to_string(), fuzz_cfg(), PortConfig::banked(4)),
    ];
    // The matrix fingerprint covers the generated program, so a journal
    // left behind by a previous case would be refused as another
    // matrix's: remove it.
    if let Err(e) = std::fs::create_dir_all(dir) {
        return Err(fail(
            format!("cannot create matrix scratch dir {}", dir.display()),
            "a writable directory".into(),
            e.to_string(),
        ));
    }
    let journal = dir.join("fuzz-matrix.journal");
    let _ = std::fs::remove_file(&journal);

    let journaled = |what: &str| -> Result<Vec<SimReport>, Box<RelationViolation>> {
        let run = run_matrix(
            &benches,
            hbdc_workloads::Scale::Test,
            &configs,
            Some(&journal),
        )
        .map_err(|e| {
            fail(
                format!("{what} journal error"),
                "a journaled matrix run".into(),
                e,
            )
        })?;
        if !run.failures.is_empty() {
            return Err(fail(
                format!("{what} had failing cells"),
                "a complete matrix".into(),
                format!("{:?}", run.failures),
            ));
        }
        Ok(run.reports.into_iter().flatten().flatten().collect())
    };

    let first = journaled("matrix pass")?;
    // The journal now exists, so the second pass continues it: every
    // cell is served from its record.
    let second = journaled("journal-resume pass")?;

    // Direct runs: cell 0 is the flagship report we already have.
    let direct_b4 =
        try_run(program, PortConfig::banked(4), fuzz_cfg(), "bank:4/direct").map_err(Box::new)?;
    let direct = vec![base.clone(), direct_b4];
    for (i, (m, d)) in first.iter().zip(&direct).enumerate() {
        if m != d {
            return Err(fail(
                format!("matrix cell {i} diverged from direct simulation"),
                d.to_record(),
                m.to_record(),
            ));
        }
    }
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        if a != b {
            return Err(fail(
                format!("journal-served cell {i} diverged from the original run"),
                a.to_record(),
                b.to_record(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn oracle_passes_on_generated_programs() {
        let cfg = GenConfig::default();
        for seed in 0..6 {
            let p = generate(seed, &cfg);
            let knobs = OracleKnobs {
                split_salt: seed.wrapping_mul(977),
                matrix_dir: None,
            };
            let checked = check_program(&p, &knobs).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(checked >= 6, "fewer than 6 relations checked: {checked}");
        }
    }

    #[test]
    fn oracle_flags_a_real_divergence() {
        // Sanity: the mode-pair machinery is live, not vacuously true. A
        // cycle-limited config fails runs-clean with a typed violation.
        let p = generate(3, &GenConfig::default());
        let r = try_run(
            &p,
            PortConfig::Ideal { ports: 1 },
            CpuConfig {
                max_cycles: 3,
                ..CpuConfig::default()
            },
            "tiny",
        );
        let v = r.unwrap_err();
        assert_eq!(v.relation, "runs-clean");
        assert!(v.actual.contains("cycle limit"), "{}", v.actual);
    }

    #[test]
    fn journal_matrix_relation_holds_on_a_generated_program() {
        let p = generate(9, &GenConfig::small());
        let dir = std::env::temp_dir().join(format!("hbdc-fuzz-matrix-{}", std::process::id()));
        let knobs = OracleKnobs {
            split_salt: 1,
            matrix_dir: Some(dir.clone()),
        };
        let checked = check_program(&p, &knobs).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(checked, RELATIONS.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
