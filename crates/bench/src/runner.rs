//! Shared experiment machinery: scale parsing, suite-average
//! bookkeeping, and the matrix campaign engine — its column type, result
//! type, trace capture, cell runner and the one campaign loop (the
//! journal's file format lives in `crate::journal`).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hbdc_core::PortConfig;
use hbdc_cpu::{CommittedTrace, CpuConfig, SimReport, Simulator};
use hbdc_mem::HierarchyConfig;
use hbdc_snap::{hash64, StateWriter};
use hbdc_stats::summary::arithmetic_mean;
use hbdc_workloads::{Benchmark, Scale, Suite};

use crate::journal;

/// One matrix column: its label, the machine configuration and the port
/// model every benchmark runs under in that column.
pub type Column = (String, CpuConfig, PortConfig);

// CLI parsing lives in [`crate::args`] (one shared argv scanner);
// re-exported here because `hbdc-sim` imports it from the runner.
pub(crate) use crate::args::usage_bail;
pub use crate::args::{
    benches_from_args, journal_from_args, parse_scale, reject_unknown_flags, scale_from_args,
    scale_label, threads_from_args, MATRIX_FLAGS,
};

/// Accumulates per-suite IPC rows and produces the paper's "SPECint Ave."
/// and "SPECfp Ave." rows.
#[derive(Debug, Default, Clone)]
pub struct SuiteAverages {
    int: Vec<Vec<f64>>,
    fp: Vec<Vec<f64>>,
}

impl SuiteAverages {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one benchmark's row of column values.
    pub fn push(&mut self, suite: Suite, row: Vec<f64>) {
        match suite {
            Suite::Int => self.int.push(row),
            Suite::Fp => self.fp.push(row),
        }
    }

    fn column_means(rows: &[Vec<f64>]) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        let cols = rows[0].len();
        (0..cols)
            .map(|c| arithmetic_mean(&rows.iter().map(|r| r[c]).collect::<Vec<_>>()))
            .collect()
    }

    /// Per-column means over the integer suite.
    pub fn int_means(&self) -> Vec<f64> {
        Self::column_means(&self.int)
    }

    /// Per-column means over the floating-point suite.
    pub fn fp_means(&self) -> Vec<f64> {
        Self::column_means(&self.fp)
    }
}

/// One failed matrix cell: which cell, and the error (or panic payload)
/// that ended it.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark name of the failed cell.
    pub bench: String,
    /// Config label of the failed cell.
    pub config: String,
    /// Rendered [`hbdc_cpu::SimError`], trace-capture error, or panic
    /// payload.
    pub error: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} under {} failed: {}",
            self.bench, self.config, self.error
        )
    }
}

/// The outcome of a matrix run: every cell's report in `[bench][config]`
/// order (`None` where the cell failed), plus a failure record per failed
/// cell.
#[derive(Debug, Clone, Default)]
pub struct MatrixRun {
    /// Reports in `[bench][config]` order; `None` marks a failed cell.
    pub reports: Vec<Vec<Option<SimReport>>>,
    /// One record per cell that failed in this run. The campaign
    /// completed around these; a continued journal runs them again.
    pub failures: Vec<JobFailure>,
    /// Summed wall-clock seconds of this run's trace captures (each
    /// overlaps the replay of other benchmarks' cells). 0.0 when every
    /// cell came from the journal.
    pub capture_secs: f64,
    /// How many cells were served from a continued journal.
    pub served: usize,
}

impl MatrixRun {
    /// Whether every cell produced a report.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints one line per failed cell to stderr (no-op on a clean run).
    pub fn print_failure_summary(&self) {
        if self.failures.is_empty() {
            return;
        }
        let total = self.reports.iter().map(Vec::len).sum::<usize>();
        eprintln!("{} of {total} matrix cells failed:", self.failures.len());
        for f in &self.failures {
            eprintln!("  {f}");
        }
    }

    /// Unwraps a run that must be complete (golden tests, callers with no
    /// partial-output story), panicking with the failure summary if any
    /// cell failed.
    ///
    /// # Panics
    ///
    /// Panics listing every failure if the run was not complete.
    pub fn expect_complete(self) -> Vec<Vec<SimReport>> {
        assert!(
            self.failures.is_empty(),
            "matrix run has failed cells: {:?}",
            self.failures
        );
        self.reports
            .into_iter()
            .map(|row| row.into_iter().flatten().collect())
            .collect()
    }

    /// The exit code a binary should end with: 0 for a clean run, 3 if
    /// any cell failed (the partial results were still printed).
    pub fn exit_code(&self) -> std::process::ExitCode {
        if self.failures.is_empty() {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::from(3)
        }
    }
}

/// Name prefix for matrix cell threads; the panic hook uses it to keep
/// an intentionally-caught cell panic from spraying stderr.
const CELL_THREAD_PREFIX: &str = "hbdc-cell";

/// Silences default panic output from matrix cell threads (their panics
/// are caught, recorded as failed cells, and reported in the failure
/// summary); panics anywhere else keep the previous hook.
fn install_cell_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_cell = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(CELL_THREAD_PREFIX));
            if !in_cell {
                previous(info);
            }
        }));
    });
}

/// Renders a caught panic payload for a [`JobFailure`] record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Runs the full (benchmark x column) matrix for a binary, returning a
/// [`MatrixRun`] with reports in `[bench][column]` order. The journal
/// (`--journal`/`--resume`) and `--threads` are read from `argv` like
/// the rest of the matrix flags; a journal problem is a usage error
/// (reported and exit 2).
///
/// This is [`run_matrix`] plus its console output. Progress marks go to
/// one stderr line (`.` per completed cell, `x` per failed cell),
/// followed by the journal, trace-capture and
/// `sim-speed` summary lines and the failure summary.
pub fn simulate_matrix(benches: &[Benchmark], scale: Scale, configs: &[Column]) -> MatrixRun {
    use std::io::Write;

    let journal = journal_from_args();
    let mark = |m: char| {
        let _ = write!(std::io::stderr(), "{m}");
    };
    let run = campaign(benches, scale, configs, journal.as_deref(), &mark)
        .unwrap_or_else(|e| usage_bail(&e));
    eprintln!();
    if let (Some(path), true) = (&journal, run.served > 0) {
        eprintln!(
            "continuing journal {}: {} of {} cells served from it",
            path.display(),
            run.served,
            benches.len() * configs.len()
        );
    }
    if run.capture_secs > 0.0 {
        eprintln!("trace-capture: {:.2}s", run.capture_secs);
    }
    let (cycles, cpu, rate) = sim_speed(run.reports.iter().flatten().flatten());
    eprintln!("sim-speed: {rate:.0} cycles/sec ({cycles} simulated cycles in {cpu:.2}s of simulator CPU time)");
    run.print_failure_summary();
    run
}

// `BUILD_ID`: the fingerprint of the simulator sources this binary was
// built from (see `build.rs`).
include!(concat!(env!("OUT_DIR"), "/build_id.rs"));

/// Content fingerprint of a matrix campaign: the simulator build
/// ([`BUILD_ID`], a hash of the simulator crates' sources), scale, each
/// benchmark's name and program (its object-byte fingerprint), and each
/// column's label, machine configuration and port parameters. A journal
/// records the fingerprint it was written under, and continuing it under
/// any other matrix — a kernel-generator or timing-model edit included —
/// is refused rather than silently mixing results.
pub(crate) fn matrix_hash(benches: &[Benchmark], scale: Scale, configs: &[Column]) -> u64 {
    build_matrix_hash(BUILD_ID, benches, scale, configs)
}

/// [`matrix_hash`] as a binary built with simulator fingerprint `build`
/// computes it.
fn build_matrix_hash(build: u64, benches: &[Benchmark], scale: Scale, configs: &[Column]) -> u64 {
    let mut w = StateWriter::new();
    w.put_u64(build);
    w.put_str(scale_label(scale));
    w.put_usize(benches.len());
    for b in benches {
        w.put_str(b.name());
        // A generator that panics fingerprints as 0; its cells fail with
        // the panic when they capture.
        let program = std::panic::catch_unwind(|| b.build(scale));
        w.put_u64(program.map_or(0, |p| hash64(&hbdc_isa::object::to_bytes(&p))));
    }
    w.put_usize(configs.len());
    for (label, cpu, port) in configs {
        w.put_str(label);
        cpu.save_state(&mut w);
        port.save_state(&mut w);
    }
    hash64(&w.into_bytes())
}

/// The record cap for the trace that every column warming up `warmup`
/// instructions replays: the largest [`CpuConfig::capture_bound`] among
/// those columns, or `None` (capture to the program's halt) if any of
/// them is uncapped. Each such column's own bound is then at most the
/// cap, so a capture cut off there still covers every cell it feeds.
pub(crate) fn capture_cap(configs: &[Column], warmup: u64) -> Option<u64> {
    configs
        .iter()
        .filter(|(_, cpu, _)| cpu.warmup_insts == warmup)
        .map(|(_, cpu, _)| cpu.capture_bound())
        .try_fold(0, |cap, bound| bound.map(|b| cap.max(b)))
}

/// Captures one benchmark's committed-stream trace past `warmup`
/// instructions, stopping after `cap` records (see [`capture_cap`]). A
/// panic in the kernel generator or the functional pass is caught and
/// returned as the error, so a failed capture fails that benchmark's
/// cells with the real cause.
pub(crate) fn capture_trace(
    bench: &Benchmark,
    scale: Scale,
    warmup: u64,
    cap: Option<u64>,
) -> Result<CommittedTrace, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let body =
        || CommittedTrace::capture(&bench.build(scale), warmup, cap).map_err(|e| e.to_string());
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| Err(panic_message(payload)))
}

/// Runs one matrix cell by replaying its benchmark's `trace` to
/// completion, returning its report or the rendered error. A panic
/// anywhere inside is caught and rendered as the error.
pub(crate) fn run_cell(
    trace: &Result<CommittedTrace, String>,
    cpu_cfg: CpuConfig,
    port: PortConfig,
) -> Result<SimReport, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let trace = trace.as_ref().map_err(Clone::clone)?;
    let body = || {
        Simulator::try_from_trace(trace, cpu_cfg, HierarchyConfig::default(), port)
            .and_then(|mut sim| sim.run())
            .map_err(|e| e.to_string())
    };
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| Err(panic_message(payload)))
}

/// [`simulate_matrix`] without console output, with the journal given
/// rather than read from `argv` — the engine every matrix entry point
/// runs through.
///
/// Cells run on `--threads` scoped threads (default: every available
/// core), which take the pending cells in index order. Each benchmark's
/// trace is captured once per distinct warmup among the columns, by the
/// first cell that needs it, and replayed by all of them. A failed cell
/// is reported in [`MatrixRun::failures`] and the rest of the matrix
/// still completes: one diverging cell costs one cell, not a whole
/// Table 3 overnight run.
///
/// With a `journal`, every finished cell is recorded in it as it
/// concludes, so a campaign killed at any point (Ctrl-C included) loses
/// only its in-flight cells. Running again on the journal continues it:
/// finished cells are served from it and the rest run — the continued
/// campaign's reports equal an uninterrupted run's.
///
/// # Errors
///
/// Fails only on journal problems: an unreadable or corrupt journal, a
/// fingerprint mismatch (the journal belongs to a different matrix), or
/// an I/O failure writing it.
pub fn run_matrix(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[Column],
    journal: Option<&Path>,
) -> Result<MatrixRun, String> {
    campaign(benches, scale, configs, journal, &|_| {})
}

/// The campaign loop under [`run_matrix`] and [`simulate_matrix`]:
/// `mark` is called with each concluded cell's progress mark.
fn campaign(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[Column],
    journal: Option<&Path>,
    mark: &dyn Fn(char),
) -> Result<MatrixRun, String> {
    // A bad `--threads` is a usage error before the journal is touched.
    let threads = threads_from_args().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    let total = benches.len() * configs.len();
    let hash = matrix_hash(benches, scale, configs);
    // Load or create the journal before any cell runs, so a fingerprint
    // mismatch is a usage error and a kill from here on leaves a journal
    // to continue.
    let mut records = vec![None; total];
    if let Some(path) = journal {
        match std::fs::read_to_string(path) {
            Ok(text) => records = journal::parse(&text, path, hash, total)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                journal::write(path, hash, &records)?;
            }
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        }
    }
    let served = records.iter().flatten().count();
    let pending: Vec<usize> = (0..total).filter(|&i| records[i].is_none()).collect();

    // One trace per (benchmark, distinct warmup), captured by the first
    // cell that needs it, with the capture's duration.
    let mut warmups: Vec<u64> = configs.iter().map(|(_, cpu, _)| cpu.warmup_insts).collect();
    warmups.sort_unstable();
    warmups.dedup();
    let traces: Vec<OnceLock<(Result<CommittedTrace, String>, Duration)>> = (0..benches.len()
        * warmups.len())
        .map(|_| OnceLock::new())
        .collect();
    let run_one = |idx: usize| {
        let (b, (_, cpu_cfg, port)) = (idx / configs.len(), &configs[idx % configs.len()]);
        let w = warmups
            .binary_search(&cpu_cfg.warmup_insts)
            .expect("every column's warmup is listed");
        let (trace, _) = traces[b * warmups.len() + w].get_or_init(|| {
            let start = Instant::now();
            let cap = capture_cap(configs, cpu_cfg.warmup_insts);
            (
                capture_trace(&benches[b], scale, warmups[w], cap),
                start.elapsed(),
            )
        });
        run_cell(trace, *cpu_cfg, *port)
    };

    install_cell_panic_hook();
    let next = AtomicUsize::new(0);
    let mut live: Vec<Option<SimReport>> = vec![None; total];
    let mut errors: Vec<Option<String>> = vec![None; total];
    std::thread::scope(|scope| -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel();
        for t in 0..threads.min(pending.len()) {
            let (tx, next, pending, run_one) = (tx.clone(), &next, &pending, &run_one);
            std::thread::Builder::new()
                .name(format!("{CELL_THREAD_PREFIX}-{t}"))
                .spawn_scoped(scope, move || {
                    // A closed channel means the loop below gave up on a
                    // journal error.
                    while let Some(&idx) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if tx.send((idx, run_one(idx))).is_err() {
                            break;
                        }
                    }
                })
                .map_err(|e| format!("cannot start a cell thread: {e}"))?;
        }
        drop(tx);
        for (idx, outcome) in rx {
            match outcome {
                Ok(report) => {
                    if let Some(path) = journal {
                        records[idx] = Some(report.to_record());
                        journal::write(path, hash, &records)?;
                    }
                    live[idx] = Some(report);
                    mark('.');
                }
                Err(e) => {
                    errors[idx] = Some(e);
                    mark('x');
                }
            }
        }
        Ok(())
    })?;

    let mut run = MatrixRun {
        capture_secs: traces
            .iter()
            .filter_map(OnceLock::get)
            .map(|(_, d)| d.as_secs_f64())
            .sum(),
        served,
        ..MatrixRun::default()
    };
    for (b, bench) in benches.iter().enumerate() {
        let mut row = Vec::with_capacity(configs.len());
        for (c, (label, ..)) in configs.iter().enumerate() {
            let idx = b * configs.len() + c;
            if let Some(error) = errors[idx].take() {
                run.failures.push(JobFailure {
                    bench: bench.name().to_string(),
                    config: label.clone(),
                    error,
                });
            }
            row.push(live[idx].take().or_else(|| {
                records[idx]
                    .as_deref()
                    .and_then(|r| SimReport::from_record(r).ok())
            }));
        }
        run.reports.push(row);
    }
    Ok(run)
}

/// Summarizes simulator throughput over a set of finished reports.
/// Returns `(simulated cycles, cpu seconds, cycles per cpu-second)`. A
/// report without host timing (`cpu_secs` 0: parsed back from a journal
/// record) adds nothing, so cells served from a journal add no free
/// cycles.
pub fn sim_speed(
    reports: impl IntoIterator<Item = impl std::borrow::Borrow<SimReport>>,
) -> (u64, f64, f64) {
    let (mut cycles, mut cpu) = (0, 0.0);
    for r in reports {
        let r = r.borrow();
        if r.cpu_secs > 0.0 {
            cycles += r.cycles;
            cpu += r.cpu_secs;
        }
    }
    let rate = if cpu > 0.0 { cycles as f64 / cpu } else { 0.0 };
    (cycles, cpu, rate)
}

/// A column on the paper's Table 1 machine (`CpuConfig::default()`).
pub fn column(label: impl Into<String>, port: PortConfig) -> Column {
    (label.into(), CpuConfig::default(), port)
}

/// The port-model columns of the paper's Table 3: the single-ported
/// baseline ("~"), then True/Repl/Bank at 2, 4, 8, and 16 ports.
pub fn table3_columns() -> Vec<Column> {
    let mut cols = vec![column("~1", PortConfig::Ideal { ports: 1 })];
    for p in [2usize, 4, 8, 16] {
        cols.push(column(format!("True-{p}"), PortConfig::Ideal { ports: p }));
        cols.push(column(
            format!("Repl-{p}"),
            PortConfig::Replicated { ports: p },
        ));
        cols.push(column(format!("Bank-{p}"), PortConfig::banked(p as u32)));
    }
    cols
}

/// The six LBIC configurations of the paper's Table 4.
pub fn table4_columns() -> Vec<Column> {
    [(2, 2), (2, 4), (4, 2), (4, 4), (8, 2), (8, 4)]
        .into_iter()
        .map(|(m, n)| column(format!("{m}x{n}"), PortConfig::lbic(m, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_workloads::by_name;

    #[test]
    fn table3_has_thirteen_columns() {
        let cols = table3_columns();
        assert_eq!(cols.len(), 13);
        assert_eq!(cols[0].0, "~1");
        assert_eq!(cols[12].0, "Bank-16");
    }

    #[test]
    fn table4_has_six_configs() {
        let cols = table4_columns();
        assert_eq!(cols.len(), 6);
        assert_eq!(cols[0].0, "2x2");
        assert_eq!(cols[5].0, "8x4");
    }

    #[test]
    fn suite_averages_compute_column_means() {
        let mut s = SuiteAverages::new();
        s.push(Suite::Int, vec![2.0, 4.0]);
        s.push(Suite::Int, vec![4.0, 8.0]);
        s.push(Suite::Fp, vec![10.0, 20.0]);
        assert_eq!(s.int_means(), vec![3.0, 6.0]);
        assert_eq!(s.fp_means(), vec![10.0, 20.0]);
    }

    /// One cell run straight through a fresh simulator.
    fn serial(bench: &Benchmark, port: PortConfig) -> SimReport {
        let program = bench.build(Scale::Test);
        Simulator::try_new(
            &program,
            CpuConfig::default(),
            HierarchyConfig::default(),
            port,
        )
        .and_then(|mut sim| sim.run())
        .unwrap()
    }

    #[test]
    fn simulate_matrix_matches_serial() {
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            column("a", PortConfig::Ideal { ports: 1 }),
            column("b", PortConfig::banked(4)),
        ];
        let matrix = simulate_matrix(&benches, Scale::Test, &configs).expect_complete();
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].len(), 2);
        for (j, (_, _, port)) in configs.iter().enumerate() {
            let serial = serial(&benches[0], *port);
            assert_eq!(matrix[0][j], serial, "config {j} differs from serial");
        }
    }

    #[test]
    fn simulate_smoke() {
        let b = by_name("li").unwrap();
        let r = serial(&b, PortConfig::Ideal { ports: 4 });
        assert!(r.committed > 10_000);
        assert!(r.ipc() > 0.5);
    }

    #[test]
    fn matrix_survives_a_degenerate_config() {
        // banks=3 fails PortConfig validation; the cell is recorded as a
        // failure and the other cell still completes.
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            column("good", PortConfig::Ideal { ports: 2 }),
            column("bad", PortConfig::banked(3)),
        ];
        let run = simulate_matrix(&benches, Scale::Test, &configs);
        assert!(!run.is_complete());
        assert!(run.reports[0][0].is_some(), "good cell must complete");
        assert!(run.reports[0][1].is_none(), "bad cell must be None");
        assert_eq!(run.failures.len(), 1);
        let f = &run.failures[0];
        assert_eq!(f.bench, "li");
        assert_eq!(f.config, "bad");
        assert!(f.error.contains("power of two"), "{}", f.error);
    }

    #[test]
    fn matrix_survives_a_panicking_job() {
        fn bomb(_: Scale) -> String {
            panic!("kernel generator exploded");
        }
        let benches = vec![
            Benchmark::custom("bomb", Suite::Int, bomb),
            by_name("li").unwrap(),
        ];
        let configs = vec![column("i2", PortConfig::Ideal { ports: 2 })];
        let run = simulate_matrix(&benches, Scale::Test, &configs);
        assert!(run.reports[0][0].is_none());
        assert!(run.reports[1][0].is_some(), "healthy bench still runs");
        assert_eq!(run.failures.len(), 1);
        assert!(
            run.failures[0].error.contains("kernel generator exploded"),
            "{}",
            run.failures[0].error
        );
    }

    #[test]
    fn matrix_records_cycle_limit_failures() {
        let benches = vec![by_name("li").unwrap()];
        let capped = CpuConfig {
            max_cycles: 50,
            ..CpuConfig::default()
        };
        let configs = vec![("i2".to_string(), capped, PortConfig::Ideal { ports: 2 })];
        // The capture stops at the column's bound, far short of li's
        // full stream.
        let bound = capped.capture_bound().unwrap();
        assert_eq!(capture_cap(&configs, 0), Some(bound));
        let trace = capture_trace(&benches[0], Scale::Test, 0, Some(bound)).unwrap();
        assert_eq!(trace.records(), bound);
        assert!(!trace.is_complete());
        let run = run_matrix(&benches, Scale::Test, &configs, None).unwrap();
        assert!(!run.is_complete());
        assert!(
            run.failures[0].error.contains("cycle limit"),
            "{}",
            run.failures[0].error
        );
    }

    #[test]
    fn matrix_over_a_program_that_never_halts_ends_at_its_cycle_limit() {
        fn spin(_: Scale) -> String {
            "main: j main\n".to_string()
        }
        let benches = vec![Benchmark::custom("spin", Suite::Int, spin)];
        let capped = CpuConfig {
            max_cycles: 1_000,
            ..CpuConfig::default()
        };
        let configs = vec![
            ("narrow".to_string(), capped, PortConfig::Ideal { ports: 1 }),
            (
                "wide".to_string(),
                CpuConfig {
                    max_cycles: 2_000,
                    ..capped
                },
                PortConfig::banked(4),
            ),
        ];
        let run = simulate_matrix(&benches, Scale::Test, &configs);
        assert_eq!(run.failures.len(), 2);
        for f in &run.failures {
            assert!(f.error.contains("cycle limit"), "{}", f.error);
        }
    }

    #[test]
    fn capture_cap_is_the_largest_bound_unless_a_column_is_uncapped() {
        let by_insts = CpuConfig {
            max_insts: 500,
            ..CpuConfig::default()
        };
        let by_cycles = CpuConfig {
            max_cycles: 10_000,
            ..CpuConfig::default()
        };
        let port = PortConfig::Ideal { ports: 1 };
        let cols = vec![
            ("a".to_string(), by_insts, port),
            ("b".to_string(), by_cycles, port),
        ];
        let larger = by_insts.capture_bound().max(by_cycles.capture_bound());
        assert_eq!(capture_cap(&cols, 0), larger);
        let mut with_uncapped = cols.clone();
        with_uncapped.push(column("c", port));
        assert_eq!(capture_cap(&with_uncapped, 0), None);
        // Only the columns sharing the warmup count.
        let warm = CpuConfig {
            warmup_insts: 7,
            ..CpuConfig::default()
        };
        let mut other_warmup = cols;
        other_warmup.push(("w".to_string(), warm, port));
        assert_eq!(capture_cap(&other_warmup, 0), larger);
        assert_eq!(capture_cap(&other_warmup, 7), None);
    }

    #[test]
    fn matrix_exit_codes() {
        let clean = MatrixRun::default();
        // ExitCode lacks PartialEq; compare the Debug renderings.
        assert_eq!(
            format!("{:?}", clean.exit_code()),
            format!("{:?}", std::process::ExitCode::SUCCESS)
        );
        // Failed cells: the campaign completed around them — exit 3.
        let failed = MatrixRun {
            reports: vec![vec![None]],
            failures: vec![JobFailure {
                bench: "x".into(),
                config: "y".into(),
                error: "boom".into(),
            }],
            ..MatrixRun::default()
        };
        assert!(!failed.is_complete());
        assert_eq!(
            format!("{:?}", failed.exit_code()),
            format!("{:?}", std::process::ExitCode::from(3))
        );
    }

    /// An empty scratch directory unique to this test process.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hbdc-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An uninterrupted run without a journal: the reference for
    /// journaled runs.
    fn reference(benches: &[Benchmark], configs: &[Column]) -> Vec<Vec<SimReport>> {
        run_matrix(benches, Scale::Test, configs, None)
            .unwrap()
            .expect_complete()
    }

    #[test]
    fn a_continued_journal_serves_its_records_and_runs_the_rest() {
        let dir = scratch_dir("continue");
        let journal = dir.join("c.journal");
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            column("i2", PortConfig::Ideal { ports: 2 }),
            column("b4", PortConfig::banked(4)),
        ];
        let fresh = reference(&benches, &configs);

        // The journal of a campaign killed after its first cell, with that
        // cell's record marked, so a report that comes back with the mark
        // was served from the journal, not re-run.
        let hash = matrix_hash(&benches, Scale::Test, &configs);
        let mut marked = fresh[0][0].clone();
        marked.port_label = "served-from-journal".into();
        journal::write(&journal, hash, &[Some(marked.to_record()), None]).unwrap();

        // The same journal again: it is continued, not truncated.
        let continued = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        assert_eq!(continued.served, 1);
        let continued = continued.expect_complete();
        assert_eq!(continued[0][0].port_label, "served-from-journal");
        assert_eq!(continued[0][1], fresh[0][1]);

        // A third run serves every cell straight from the journal
        // (exercising the record parser) and still matches.
        let replayed = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        assert_eq!(replayed.served, 2);
        assert_eq!(replayed.capture_secs, 0.0, "served cells capture nothing");
        let replayed = replayed.expect_complete();
        assert_eq!(replayed[0][0].port_label, "served-from-journal");
        assert_eq!(replayed[0][1], fresh[0][1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_matrix() {
        let dir = scratch_dir("mismatch");
        let journal = dir.join("m.journal");
        let benches = vec![by_name("li").unwrap()];
        let configs_a = vec![column("i2", PortConfig::Ideal { ports: 2 })];
        let run = |benches: &[Benchmark], configs: &[Column]| {
            run_matrix(benches, Scale::Test, configs, Some(&journal))
        };
        run(&benches, &configs_a).unwrap().expect_complete();

        // Same journal, different port configuration: refused.
        let configs_b = vec![column("i4", PortConfig::Ideal { ports: 4 })];
        let err = run(&benches, &configs_b).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");

        // Same name and columns, edited kernel program: refused too, not
        // served the old program's reports.
        fn edited(_: Scale) -> String {
            hbdc_workloads::MicroKernel::SameLineBurst.source(4)
        }
        let benches_edited = vec![Benchmark::custom("li", Suite::Int, edited)];
        let err = run(&benches_edited, &configs_a).unwrap_err();
        assert!(err.contains("does not match"), "{err}");

        // The same matrix journaled by a binary built from other
        // simulator sources: refused too.
        let stamped = build_matrix_hash(BUILD_ID ^ 1, &benches, Scale::Test, &configs_a);
        journal::write(&journal, stamped, &[None]).unwrap();
        let err = run(&benches, &configs_a).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");

        // Garbage file: refused, with the offending path named.
        std::fs::write(&journal, "not a journal\n").unwrap();
        let err = run(&benches, &configs_a).unwrap_err();
        assert!(err.contains("not a matrix journal"), "{err}");
        assert!(err.contains("m.journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cell_is_not_journaled_and_fails_again_when_continued() {
        let dir = scratch_dir("fail-journal");
        let journal = dir.join("f.journal");
        let benches = vec![by_name("li").unwrap()];
        // banks=3 fails PortConfig validation at build time.
        let configs = vec![
            column("good", PortConfig::Ideal { ports: 2 }),
            column("bad", PortConfig::banked(3)),
        ];
        let run = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        assert_eq!(run.failures.len(), 1);
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with(journal::JOURNAL_HEADER), "{text}");
        assert!(text.contains("\nok 0 "), "{text}");
        assert!(!text.contains("\nok 1 "), "{text}");

        // Continuing the journal serves the good cell and runs the bad one
        // again, which fails the same way.
        let again = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        assert_eq!(again.served, 1);
        assert!(again.reports[0][0].is_some());
        assert!(again.reports[0][1].is_none());
        assert_eq!(again.failures.len(), 1);
        assert_eq!(again.failures[0].error, run.failures[0].error);
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
