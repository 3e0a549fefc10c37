//! End-to-end harness self-test: prove the pipeline *detects* bugs.
//!
//! A differential oracle that never fires is indistinguishable from one
//! that can't. This module seeds a known bug — a [`FaultInjector`]
//! deliberately corrupting port-model grants — and requires the full
//! detect → shrink → artifact pipeline to catch it: the audited run must
//! fail with an invariant violation, the shrinker must cut the program
//! down while the injected fault still fires, and the repro artifact must
//! land in the corpus. `hbdc-sim fuzz --selftest` runs it, and CI runs it
//! before trusting a zero-violation fuzz session.

use std::path::Path;

use hbdc_core::{FaultInjector, PortConfig};
use hbdc_cpu::{CpuConfig, SimError, Simulator};
use hbdc_isa::Program;
use hbdc_mem::HierarchyConfig;

use crate::artifact::write_repro;
use crate::gen::{generate, GenConfig};
use crate::oracle::{fuzz_cfg, halts_within_budget, RelationViolation};
use crate::shrink::{live_insts, shrink};

/// Outcome of a successful self-test.
#[derive(Debug)]
pub struct SelfTestReport {
    /// Generator seed whose program exposed the injected fault.
    pub seed: u64,
    /// Live instructions in the shrunk repro.
    pub shrunk_insts: usize,
    /// Live instructions before shrinking.
    pub original_insts: usize,
    /// Corpus directory the artifact was written to (when a corpus was
    /// given).
    pub artifact: Option<std::path::PathBuf>,
}

/// The audited, fault-injected run: returns true iff the invariant
/// auditor catches the injector corrupting grants on this program.
fn injected_run_trips_auditor(program: &Program, fault_seed: u64) -> bool {
    let hier = HierarchyConfig::default();
    let cfg = CpuConfig {
        audit: true,
        ..fuzz_cfg()
    };
    let port = PortConfig::banked(4);
    let Ok(injector) = FaultInjector::auto(port, hier.l1_line, fault_seed) else {
        return false;
    };
    let mut sim = Simulator::with_port_model(program, cfg, hier, port, Box::new(injector));
    matches!(sim.run(), Err(SimError::Invariant { .. }))
}

/// Runs the self-test: injects a grant-corruption fault, requires the
/// auditor to detect it on some small generated program, shrinks the
/// program under the "still detected" predicate, and (when `corpus` is
/// given) writes the repro artifact.
///
/// # Errors
///
/// Returns a description of the first broken pipeline stage: the auditor
/// never firing across the seed sweep, the shrinker losing the fault, or
/// the artifact failing to write.
pub fn run_selftest(fault_seed: u64, corpus: Option<&Path>) -> Result<SelfTestReport, String> {
    let gen_cfg = GenConfig::small();
    // The injector needs memory traffic to corrupt; every generated
    // program has some, so the first few seeds should suffice. Sweeping a
    // handful keeps the test robust to an unlucky (traffic-light) draw.
    let found = (0..16)
        .map(|seed| (seed, generate(seed, &gen_cfg)))
        .find(|(_, p)| injected_run_trips_auditor(p, fault_seed));
    let Some((seed, program)) = found else {
        return Err(format!(
            "fault injector (seed {fault_seed}) was never caught by the auditor \
             across 16 generated programs — the detection pipeline is broken"
        ));
    };

    let pred = |p: &Program| halts_within_budget(p) && injected_run_trips_auditor(p, fault_seed);
    let shrunk = shrink(&program, &pred);
    if !pred(&shrunk) {
        return Err("shrinker returned a program that no longer trips the auditor".into());
    }

    let violation = RelationViolation {
        relation: "fault-injection-selftest",
        detail: format!(
            "FaultInjector::auto(banked:4, seed {fault_seed}) must be caught by the audit"
        ),
        expected: "SimError::Invariant".into(),
        actual: "SimError::Invariant (detected, as required)".into(),
    };
    let artifact = match corpus {
        Some(dir) => Some(
            write_repro(dir, seed, &program, &shrunk, &violation)
                .map_err(|e| format!("failed to write self-test artifact: {e}"))?,
        ),
        None => None,
    };

    Ok(SelfTestReport {
        seed,
        shrunk_insts: live_insts(&shrunk),
        original_insts: live_insts(&program),
        artifact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_detects_and_shrinks_the_injected_fault() {
        let corpus = std::env::temp_dir().join(format!("hbdc-fuzz-self-{}", std::process::id()));
        let report = run_selftest(7, Some(&corpus)).expect("self-test pipeline");
        assert!(
            report.shrunk_insts <= 32,
            "repro not minimal: {} live instructions",
            report.shrunk_insts
        );
        assert!(report.shrunk_insts <= report.original_insts);
        let dir = report.artifact.expect("artifact written");
        assert!(dir.join("repro.s").exists());
        let _ = std::fs::remove_dir_all(&corpus);
    }
}
