//! Stamps the simulator build into every matrix fingerprint: `BUILD_ID`
//! is the `hash64` (XXH64) of the simulator crates' sources, so a journal
//! written under one timing model is refused by a binary built from
//! another instead of serving the old model's reports.

use std::path::{Path, PathBuf};

use hbdc_snap::{hash64, StateWriter};

/// Workspace crates (under `crates/`) whose sources are hashed.
const SIMULATOR_CRATES: [&str; 6] = ["core", "cpu", "isa", "mem", "snap", "stats"];

/// Appends every file under `dir`, recursively, to `out`.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut sources = Vec::new();
    for name in SIMULATOR_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        files(&src, &mut sources);
    }
    sources.sort();
    let mut w = StateWriter::new();
    for path in &sources {
        let rel = path.strip_prefix(&crates).expect("under crates/");
        w.put_str(&rel.to_string_lossy());
        w.put_bytes(&std::fs::read(path).expect("readable source file"));
    }
    let id = hash64(&w.into_bytes());
    let out = Path::new(&std::env::var("OUT_DIR").expect("set by cargo")).join("build_id.rs");
    let line = format!("pub(crate) const BUILD_ID: u64 = {id:#018x};\n");
    std::fs::write(out, line).expect("writable OUT_DIR");
}
