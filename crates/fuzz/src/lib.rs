//! `hbdc-fuzz`: differential fuzzing harness for the whole simulator.
//!
//! The crate closes the loop the hand-written test suite cannot: instead
//! of checking fixed programs against fixed expectations, it generates
//! unbounded random-but-valid programs ([`gen`]) and checks *relations
//! between runs* that must hold for every program ([`oracle`]) — the
//! paper's model orderings (ideal bounds realistic, single-port designs
//! coincide, LBIC degree 1 vs. banked, replication on load-only traffic),
//! bit-identity across every execution-mode pair the simulator offers
//! (audit on/off, snapshot split/straight, journaled matrix/direct), and
//! the captured trace against the functional emulator's committed stream.
//!
//! When a relation breaks, the harness shrinks the program to a minimal
//! repro ([`shrink`]) and writes a self-contained artifact ([`artifact`])
//! so the bug outlives the session. [`selftest`] keeps the harness
//! honest by injecting a known fault and requiring the whole
//! detect → shrink → artifact pipeline to catch it.
//!
//! Entry point: [`run_fuzz`], surfaced as `hbdc-sim fuzz --seed S
//! --budget N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

pub mod artifact;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod selftest;
pub mod shrink;

use gen::{generate, GenConfig};
use oracle::{check_program, OracleKnobs, RelationViolation};
use rng::Rng;

/// Options for one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed: the same seed replays the same session exactly.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub budget: u64,
    /// Corpus directory violations are written to.
    pub corpus: PathBuf,
    /// Run the (heavier) journaled-matrix relation on every `n`-th
    /// program; 0 disables it.
    pub matrix_every: u64,
    /// Program-shape knobs.
    pub gen: GenConfig,
    /// Keep fuzzing after a violation instead of stopping at the first.
    pub keep_going: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            seed: 1,
            budget: 100,
            corpus: PathBuf::from("fuzz-corpus"),
            matrix_every: 32,
            gen: GenConfig::default(),
            keep_going: false,
        }
    }
}

/// One caught violation: the case that produced it and where its repro
/// artifact landed.
#[derive(Debug)]
pub struct CaughtViolation {
    /// Case index within the session (0-based).
    pub case: u64,
    /// The generator seed of the offending program.
    pub program_seed: u64,
    /// The relation that broke.
    pub violation: RelationViolation,
    /// Repro directory under the corpus (`None` if writing it failed;
    /// the failure is folded into `violation.detail` then).
    pub artifact: Option<PathBuf>,
    /// Live instructions in the shrunk repro.
    pub shrunk_insts: usize,
}

/// Outcome of a fuzzing session.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Programs generated and checked.
    pub checked_programs: u64,
    /// Total relation evaluations across all programs.
    pub relations_checked: u64,
    /// Every violation caught (empty on a clean session).
    pub violations: Vec<CaughtViolation>,
}

/// Runs a fuzzing session: `budget` programs derived from `seed`, each
/// checked against the full relation catalog. `progress` is called after
/// every case with (cases done, relations checked so far).
///
/// Violations are shrunk and written to the corpus as they are found.
pub fn run_fuzz(opts: &FuzzOptions, mut progress: impl FnMut(u64, u64)) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    let master = Rng::new(opts.seed);
    let matrix_dir = std::env::temp_dir().join(format!("hbdc-fuzz-mx-{}", std::process::id()));

    for case in 0..opts.budget {
        let mut stream = master.derive(case);
        let program_seed = stream.next_u64();
        let split_salt = stream.next_u64();
        let program = generate(program_seed, &opts.gen);
        let with_matrix = opts.matrix_every > 0 && case % opts.matrix_every == 0;
        let knobs = OracleKnobs {
            split_salt,
            matrix_dir: with_matrix.then(|| matrix_dir.clone()),
        };
        match check_program(&program, &knobs) {
            Ok(n) => summary.relations_checked += n as u64,
            Err(v) => {
                summary.violations.push(handle_violation(
                    opts,
                    case,
                    program_seed,
                    &program,
                    &knobs,
                    *v,
                ));
                if !opts.keep_going {
                    summary.checked_programs += 1;
                    break;
                }
            }
        }
        summary.checked_programs += 1;
        progress(case + 1, summary.relations_checked);
    }
    let _ = std::fs::remove_dir_all(&matrix_dir);
    summary
}

/// Shrinks a violating program under "still breaks the same relation" and
/// writes the repro artifact.
fn handle_violation(
    opts: &FuzzOptions,
    case: u64,
    program_seed: u64,
    program: &hbdc_isa::Program,
    knobs: &OracleKnobs,
    violation: RelationViolation,
) -> CaughtViolation {
    let target = violation.relation;
    // Re-check candidates with the journaled-matrix relation only when it
    // is the one that broke: it is orders of magnitude slower than the
    // in-memory relations and irrelevant to any other target.
    let shrink_knobs = OracleKnobs {
        split_salt: knobs.split_salt,
        matrix_dir: if target == "journal-matrix" {
            knobs.matrix_dir.clone()
        } else {
            None
        },
    };
    let pred = |p: &hbdc_isa::Program| {
        oracle::halts_within_budget(p)
            && matches!(check_program(p, &shrink_knobs), Err(v) if v.relation == target)
    };
    let shrunk = shrink::shrink(program, &pred);
    let mut violation = violation;
    let artifact =
        match artifact::write_repro(&opts.corpus, program_seed, program, &shrunk, &violation) {
            Ok(dir) => Some(dir),
            Err(e) => {
                violation.detail = format!("{} [artifact write failed: {e}]", violation.detail);
                None
            }
        };
    CaughtViolation {
        case,
        program_seed,
        violation,
        artifact,
        shrunk_insts: shrink::live_insts(&shrunk),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_session_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            seed: 42,
            budget: 4,
            corpus: std::env::temp_dir().join(format!("hbdc-fuzz-lib-{}", std::process::id())),
            matrix_every: 0,
            gen: GenConfig::small(),
            keep_going: false,
        };
        let a = run_fuzz(&opts, |_, _| {});
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.checked_programs, 4);
        assert!(a.relations_checked >= 4 * 6, "{}", a.relations_checked);
        let b = run_fuzz(&opts, |_, _| {});
        assert_eq!(a.relations_checked, b.relations_checked);
    }
}
