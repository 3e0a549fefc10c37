//! End-to-end tests of the `hbdc-sim` command-line interface.

use std::process::Command;

fn hbdc_sim(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hbdc-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_arguments_prints_usage() {
    let (_, err, ok) = hbdc_sim(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"));
}

#[test]
fn bench_list_names_all_ten() {
    let (out, _, ok) = hbdc_sim(&["bench-list"]);
    assert!(ok);
    for name in [
        "compress", "gcc", "go", "li", "perl", "hydro2d", "mgrid", "su2cor", "swim", "wave5",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn run_reports_ipc_for_a_bundled_benchmark() {
    let (out, _, ok) = hbdc_sim(&["run", "bench:li", "--port", "lbic:4x2"]);
    assert!(ok);
    assert!(out.contains("IPC"));
    assert!(out.contains("LBIC-4x2"));
}

#[test]
fn run_with_predictor_reports_branch_stats() {
    let (out, _, ok) = hbdc_sim(&["run", "bench:go", "--frontend", "bimodal"]);
    assert!(ok, "run failed:\n{out}");
    assert!(out.contains("mispredicted"));
}

#[test]
fn bad_port_spec_fails_cleanly() {
    let (_, err, ok) = hbdc_sim(&["run", "bench:li", "--port", "omega:4"]);
    assert!(!ok);
    assert!(err.contains("bad port spec"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let (_, err, ok) = hbdc_sim(&["run", "bench:doom"]);
    assert!(!ok);
    assert!(err.contains("unknown benchmark"));
}

#[test]
fn asm_disasm_roundtrip_through_object_file() {
    let dir = std::env::temp_dir();
    let src = dir.join("hbdc_cli_test.s");
    let obj = dir.join("hbdc_cli_test.hbo");
    std::fs::write(&src, "main: li r1, 41\n addi r1, r1, 1\n halt\n").unwrap();

    let (out, _, ok) = hbdc_sim(&["asm", src.to_str().unwrap(), "-o", obj.to_str().unwrap()]);
    assert!(ok, "asm failed:\n{out}");
    assert!(out.contains("3 instructions"));

    let (text, _, ok) = hbdc_sim(&["disasm", obj.to_str().unwrap()]);
    assert!(ok);
    assert!(text.contains("ori r1, r0, 41"));
    assert!(text.contains("halt"));

    // The object is also directly runnable.
    let (run_out, _, ok) = hbdc_sim(&["run", obj.to_str().unwrap(), "--port", "ideal:1"]);
    assert!(ok);
    assert!(run_out.contains("committed      3"));

    std::fs::remove_file(&src).ok();
    std::fs::remove_file(&obj).ok();
}

fn hbdc_sim_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_hbdc-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn fuzz_short_session_is_clean() {
    let corpus = std::env::temp_dir().join(format!("hbdc-cli-fuzz-{}", std::process::id()));
    let (out, err, code) = hbdc_sim_code(&[
        "fuzz",
        "--seed",
        "3",
        "--budget",
        "5",
        "--small",
        "--matrix-every",
        "0",
        "--corpus",
        corpus.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("5 programs checked"), "{out}");
    assert!(out.contains("0 violations"), "{out}");
    std::fs::remove_dir_all(&corpus).ok();
}

#[test]
fn fuzz_selftest_catches_the_injected_fault() {
    let corpus = std::env::temp_dir().join(format!("hbdc-cli-self-{}", std::process::id()));
    let (out, err, code) =
        hbdc_sim_code(&["fuzz", "--selftest", "--corpus", corpus.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("self-test passed"), "{out}");
    std::fs::remove_dir_all(&corpus).ok();
}

#[test]
fn fuzz_rejects_malformed_budget() {
    let (_, err, code) = hbdc_sim_code(&["fuzz", "--budget", "lots"]);
    assert_eq!(code, 2);
    assert!(err.contains("--budget expects a number"), "{err}");
}

#[test]
fn resume_requires_an_existing_journal() {
    // `--resume PATH` is `--journal PATH` that insists the campaign
    // exists; starting one is `--journal`'s job.
    let journal = std::env::temp_dir().join(format!("hbdc-cli-nojournal-{}", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let (_, err, code) = hbdc_sim_code(&[
        "campaign",
        "table4",
        "--scale",
        "test",
        "--bench",
        "li",
        "--resume",
        journal.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--resume: no journal"), "{err}");
    assert!(
        !journal.exists(),
        "a refused --resume must not create the journal"
    );
}

#[test]
fn threads_rejects_zero() {
    let journal = std::env::temp_dir().join(format!("hbdc-cli-z-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let (_, err, code) = hbdc_sim_code(&[
        "campaign",
        "table4",
        "--scale",
        "test",
        "--bench",
        "li",
        "--journal",
        journal.to_str().unwrap(),
        "--threads",
        "0",
    ]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--threads needs a positive integer"), "{err}");
    assert!(
        !journal.exists(),
        "a usage error must not create the journal"
    );
}

#[test]
fn campaign_rejects_removed_and_mistyped_flags() {
    // A flag the campaign does not read must not run a different campaign
    // than the one asked for: the flags of the removed multi-process
    // engine and a typo of `--threads` all exit 2, naming the flag.
    for (flag, value) in [
        ("--shard", None),
        ("--trace-cache", Some("traces")),
        ("--timeout-secs", Some("5")),
        ("--max-attempts", Some("3")),
        ("--lease-ttl-secs", Some("10")),
        ("--thread", Some("0")),
        ("--bogus-flag", None),
    ] {
        let mut args = vec!["campaign", "table4", "--scale", "test", "--bench", "li"];
        args.push(flag);
        args.extend(value);
        let (out, err, code) = hbdc_sim_code(&args);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(out.is_empty(), "{flag} ran a campaign:\n{out}");
    }
    // A stray positional after the flags is refused too.
    let (_, err, code) = hbdc_sim_code(&["campaign", "table4", "--scale", "test", "extra"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown argument `extra`"), "{err}");
}

/// The simulated-cycle count of a campaign's `sim-speed` stderr line.
fn sim_speed_cycles(stderr: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("sim-speed:"))
        .unwrap_or_else(|| panic!("no sim-speed line in:\n{stderr}"));
    let (_, rest) = line.split_once('(').expect("sim-speed line has a count");
    rest.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn sim_speed_counts_only_the_cells_this_run_timed() {
    // A cell served from the journal was not simulated by this process,
    // so it adds no cycles to the rate; a fresh run's count is exactly
    // the cells' simulated work, as the work profile pins it.
    let journal =
        std::env::temp_dir().join(format!("hbdc-cli-speed-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let table3 = [
        "campaign",
        "table3",
        "--scale",
        "test",
        "--bench",
        "li",
        "--journal",
        journal.to_str().unwrap(),
    ];
    let (_, err, code) = hbdc_sim_code(&table3);
    assert_eq!(code, 0, "{err}");
    let timed = sim_speed_cycles(&err);

    let (_, err, code) = hbdc_sim_code(&table3);
    std::fs::remove_file(&journal).ok();
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("13 of 13 cells served from it"), "{err}");
    assert_eq!(sim_speed_cycles(&err), 0, "{err}");

    let (out, err, code) = hbdc_sim_code(&[
        "campaign",
        "work_profile",
        "--scale",
        "test",
        "--bench",
        "li",
    ]);
    assert_eq!(code, 0, "{err}");
    let total: u64 = out
        .lines()
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            ["li", "total", cycles, ..] => cycles.parse().ok(),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no li total row in:\n{out}"));
    assert_eq!(timed, total, "{out}");
}

#[test]
fn run_rejects_a_mistyped_flag() {
    // `--chekpoint` must not run a simulation that writes no checkpoint;
    // the value-less `--audit` is still accepted.
    let snap = std::env::temp_dir().join(format!("hbdc-cli-typo-{}.snap", std::process::id()));
    let snap = snap.to_str().unwrap();
    let (out, err, code) = hbdc_sim_code(&["run", "bench:li", "--audit", "--chekpoint", snap]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown flag `--chekpoint`"), "{err}");
    assert!(out.is_empty(), "--chekpoint ran a simulation:\n{out}");
    let (_, err, code) = hbdc_sim_code(&["run", "bench:li", "--audit", "--port", "ideal:2"]);
    assert_eq!(code, 0, "{err}");
}

#[test]
fn fuzz_rejects_a_mistyped_flag() {
    // `--budgett` must not run the default 500-program session.
    let (out, err, code) =
        hbdc_sim_code(&["fuzz", "--budgett", "3", "--small", "--matrix-every", "0"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("unknown flag `--budgett`"), "{err}");
    assert!(out.is_empty(), "--budgett ran a session:\n{out}");
}

#[test]
fn resume_continues_a_snapshot_to_the_straight_run_report() {
    use hbdc::prelude::*;

    let (straight, err, ok) = hbdc_sim(&["run", "bench:li", "--port", "bank:4"]);
    assert!(ok, "{err}");
    let cycles: u64 = straight
        .lines()
        .find_map(|l| l.strip_prefix("cycles"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a cycles line");

    // The program and machine `run` simulated above, stopped halfway.
    let program = by_name("li").unwrap().build(Scale::Test);
    let mut sim = Simulator::try_new(
        &program,
        CpuConfig::default(),
        HierarchyConfig::default(),
        PortConfig::banked(4),
    )
    .unwrap();
    assert!(!sim.run_for(cycles / 2).unwrap(), "li ended before mid-run");
    let snap = std::env::temp_dir().join(format!("hbdc-cli-resume-{}.snap", std::process::id()));
    sim.save_snapshot().write_to_path(&snap).unwrap();

    let (resumed, err, ok) = hbdc_sim(&["resume", snap.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(err.contains(&format!("at cycle {}", cycles / 2)), "{err}");
    // The report block, without its `program` line (the target differs).
    let block = |out: &str| out.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert!(resumed.starts_with("program "), "{resumed}");
    assert_eq!(block(&resumed), block(&straight));
    assert!(!snap.exists(), "a finished run removes its snapshot");
}

#[test]
fn fuzz_session_stderr_carries_no_inner_campaign_output() {
    // `journal-matrix` runs a journaled campaign for every checked
    // program here; its progress marks and summary lines belong to the
    // binaries' campaigns, not to the fuzz session's stderr.
    let corpus = std::env::temp_dir().join(format!("hbdc-cli-quiet-{}", std::process::id()));
    let (out, err, code) = hbdc_sim_code(&[
        "fuzz",
        "--seed",
        "1",
        "--budget",
        "4",
        "--small",
        "--matrix-every",
        "1",
        "--corpus",
        corpus.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("0 violations"), "{out}");
    for line in err.lines() {
        assert!(
            line.starts_with("fuzz: "),
            "unexpected stderr line {line:?} in:\n{err}"
        );
    }
    std::fs::remove_dir_all(&corpus).ok();
}

#[test]
fn analyze_prints_locality_breakdown() {
    let (out, _, ok) = hbdc_sim(&["analyze", "bench:swim", "--banks", "4"]);
    assert!(ok);
    for line in [
        "instructions",
        "memory mix",
        "32KB DM miss rate",
        "consecutive mapping (4 banks):",
        "B-same-line",
        "B-diff-line",
        "(B+1)%4",
        "(B+3)%4",
    ] {
        assert!(out.contains(line), "missing {line:?} in:\n{out}");
    }
}
