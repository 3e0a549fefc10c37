//! Self-contained repro artifacts for relation violations.
//!
//! A violation is only useful if it survives the fuzzing session, so each
//! one is written to the corpus directory as a directory of plain files
//! that reproduce without the fuzzer:
//!
//! ```text
//! corpus/<relation>-seed<seed>/
//!     repro.s      shrunk program, assembler source (feed to `hbdc-sim run`)
//!     original.s   pre-shrink program, for shrinker forensics
//!     report.txt   relation, expected/actual sides, seed, machine config
//! ```
//!
//! `repro.s` round-trips through the assembler by construction (the
//! oracle's `source-roundtrip` relation pins the disassembler to that
//! guarantee), so `hbdc-sim run corpus/<case>/repro.s --port <SPEC>`
//! replays the disagreement directly.

use std::io;
use std::path::{Path, PathBuf};

use hbdc_isa::Program;

use crate::oracle::RelationViolation;
use crate::shrink::live_insts;

/// Writes one violation's repro directory under `corpus`, returning its
/// path. An existing directory for the same relation and seed is
/// overwritten — later runs of the same seed produce the same case.
pub fn write_repro(
    corpus: &Path,
    seed: u64,
    original: &Program,
    shrunk: &Program,
    violation: &RelationViolation,
) -> io::Result<PathBuf> {
    let dir = corpus.join(format!("{}-seed{}", violation.relation, seed));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join("repro.s"),
        hbdc_isa::disasm::program_to_string(shrunk),
    )?;
    std::fs::write(
        dir.join("original.s"),
        hbdc_isa::disasm::program_to_string(original),
    )?;
    let cfg = crate::oracle::fuzz_cfg();
    let report = format!(
        "relation: {}\nseed: {}\ndetail: {}\nexpected: {}\nactual: {}\n\
         shrunk: {} live instructions (from {})\nmachine: {:?}\n\n\
         reproduce with:\n  hbdc-sim run {}/repro.s\n",
        violation.relation,
        seed,
        violation.detail,
        violation.expected,
        violation.actual,
        live_insts(shrunk),
        live_insts(original),
        cfg,
        dir.display(),
    );
    std::fs::write(dir.join("report.txt"), report)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn repro_directory_is_complete_and_reassemblable() {
        let p = generate(1, &GenConfig::small());
        let v = RelationViolation {
            relation: "audit-vs-plain",
            detail: "synthetic".into(),
            expected: "a".into(),
            actual: "b".into(),
        };
        let corpus = std::env::temp_dir().join(format!("hbdc-fuzz-art-{}", std::process::id()));
        let dir = write_repro(&corpus, 1, &p, &p, &v).unwrap();
        let src = std::fs::read_to_string(dir.join("repro.s")).unwrap();
        let back = hbdc_isa::asm::assemble(&src).unwrap();
        assert_eq!(back.text(), p.text());
        let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert!(report.contains("audit-vs-plain"));
        assert!(dir.join("original.s").exists());
        let _ = std::fs::remove_dir_all(&corpus);
    }
}
