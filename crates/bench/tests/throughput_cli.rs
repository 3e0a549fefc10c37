//! `throughput` must never record a rate for cells it did not time:
//! repetitions that a journal would serve are refused, and a run served
//! entirely from a journal leaves the tracked files alone.

use std::path::{Path, PathBuf};
use std::process::Command;

fn throughput(cwd: &Path, extra: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .args(["--scale", "test", "--bench", "li", "--threads", "2"])
        .args(extra)
        .current_dir(cwd)
        .output()
        .expect("run throughput");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    (err, out.status.code().unwrap_or(-1))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbdc-throughput-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The aggregate rate: the first `"cycles_per_sec"` line of the JSON.
fn rate(json: &str) -> f64 {
    let line = json
        .lines()
        .find(|l| l.contains("\"cycles_per_sec\""))
        .unwrap();
    let v = line.split(':').nth(1).unwrap().trim().trim_end_matches(',');
    v.parse().unwrap()
}

#[test]
fn repetitions_refuse_a_journal() {
    let dir = scratch("runs");
    let (err, code) = throughput(&dir, &["--runs", "2", "--journal", "j"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--runs N > 1 cannot take"), "{err}");
    assert!(!dir.join("BENCH_throughput.json").exists());
    assert!(
        !dir.join("j").exists(),
        "a refused run must not start the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_served_from_its_journal_records_no_rate() {
    let dir = scratch("served");
    let bench = dir.join("BENCH_throughput.json");
    let (err, code) = throughput(&dir, &["--journal", "j"]);
    assert_eq!(code, 0, "{err}");
    let first = std::fs::read_to_string(&bench).unwrap();
    assert!(rate(&first) > 0.0, "{first}");

    // Every cell now comes from the journal: nothing is timed, so the
    // tracked rate and the history stay as the first run left them.
    let (err, code) = throughput(&dir, &["--journal", "j"]);
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("13 of 13 cells served from it"), "{err}");
    assert!(err.contains("no cell was timed"), "{err}");
    assert_eq!(std::fs::read_to_string(&bench).unwrap(), first);
    let history = std::fs::read_dir(dir.join("results/bench_history")).unwrap();
    assert_eq!(history.count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_refused_before_anything_runs() {
    let dir = scratch("flags");
    for extra in [&["--trace-cache", "traces"][..], &["--run", "2"]] {
        let (err, code) = throughput(&dir, extra);
        assert_eq!(code, 2, "{err}");
        assert!(
            err.contains(&format!("unknown flag `{}`", extra[0])),
            "{err}"
        );
        assert!(!dir.join("BENCH_throughput.json").exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
