//! Shared experiment machinery: scale parsing, suite-average
//! bookkeeping, and the matrix campaign engine — its column type, result
//! type, trace capture, cell runner and the one campaign loop (the
//! journal's file format lives in `crate::journal`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hbdc_core::PortConfig;
use hbdc_cpu::{CommittedTrace, CpuConfig, SimError, SimReport, SimSnapshot, Simulator};
use hbdc_mem::HierarchyConfig;
use hbdc_snap::{hash64, interrupt, StateWriter};
use hbdc_stats::summary::arithmetic_mean;
use hbdc_workloads::{Benchmark, Scale, Suite};

use crate::journal;

/// One matrix column: its label, the machine configuration and the port
/// model every benchmark runs under in that column.
pub type Column = (String, CpuConfig, PortConfig);

// CLI parsing lives in [`crate::args`] (one shared argv scanner);
// re-exported here because the binaries import it from the runner.
pub(crate) use crate::args::usage_bail;
pub use crate::args::{
    benches_from_args, journal_from_args, parse_scale, reject_unknown_flags, runs_from_args,
    scale_from_args, scale_from_args_or, scale_label, threads_from_args, MATRIX_FLAGS,
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
    /// Rendered [`SimError`], trace-capture error, or panic payload.
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
    /// Reports in `[bench][config]` order; `None` marks a failed cell
    /// (or, on an interrupted run, a checkpointed or never-started one).
    pub reports: Vec<Vec<Option<SimReport>>>,
    /// One record per cell that failed in this run. The campaign
    /// completed around these; a continued journal runs them again.
    pub failures: Vec<JobFailure>,
    /// Whether the run was cut short by an interrupt request (SIGINT on a
    /// journaled campaign): in-flight cells were checkpointed at a cycle
    /// boundary and the journal flushed, so rerunning with the same
    /// journal continues where this run stopped.
    pub interrupted: bool,
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
        self.failures.is_empty() && !self.interrupted
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
        assert!(!self.interrupted, "matrix run was interrupted");
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
    /// any cell failed (the partial results were still printed), 130 —
    /// the conventional SIGINT code — if the run was interrupted and
    /// checkpointed.
    pub fn exit_code(&self) -> std::process::ExitCode {
        if self.interrupted {
            std::process::ExitCode::from(130)
        } else if !self.failures.is_empty() {
            std::process::ExitCode::from(3)
        } else {
            std::process::ExitCode::SUCCESS
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
/// one stderr line (`.` per completed cell, `x` per failed cell, `!` per
/// checkpointed one), followed by the journal, trace-capture and
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
    if let (Some(path), true) = (&journal, run.interrupted) {
        eprintln!(
            "interrupted: journal flushed and in-flight cells checkpointed; \
             rerun with --journal {} to continue",
            path.display()
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

/// Cycle-chunk size for interruptible jobs: large enough that the
/// chunking overhead disappears into the noise, small enough that SIGINT
/// latency stays in the low milliseconds.
const CHUNK_CYCLES: u64 = 4096;

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

/// Where a journaled run checkpoints cell `idx`'s in-flight simulator
/// state on interrupt (deleted once the cell concludes).
pub(crate) fn cell_snap_path(journal: &Path, idx: usize) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(format!(".cell{idx}.snap"));
    PathBuf::from(name)
}

/// Moves an unusable cell checkpoint out of the way by renaming it to
/// `<path>.corrupt`, returning that path: the rerun starts the cell
/// fresh, and the evidence stays on disk for a post-mortem.
fn evict_corrupt(path: &Path) -> std::io::Result<PathBuf> {
    let mut name = path.as_os_str().to_owned();
    name.push(".corrupt");
    let dest = PathBuf::from(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
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

/// One matrix cell's outcome.
#[derive(Debug)]
pub(crate) enum JobOutcome {
    /// The simulation finished and produced a report.
    Done(Box<SimReport>),
    /// The simulation, its setup, or its trace capture failed; the
    /// rendered error.
    Failed(String),
    /// An interrupt was requested; the in-flight state was checkpointed
    /// to the cell's snapshot file.
    Interrupted,
}

/// Runs one matrix cell by replaying its benchmark's `trace`. Without a
/// `checkpoint` path the cell runs straight to completion; with one it
/// runs in [`CHUNK_CYCLES`]-cycle slices, polling the interrupt latch
/// between slices, and resumes from a checkpoint already there. Panics
/// anywhere inside are caught and rendered as failures.
pub(crate) fn run_cell(
    trace: &Result<CommittedTrace, String>,
    cpu_cfg: CpuConfig,
    port: PortConfig,
    checkpoint: Option<&Path>,
) -> JobOutcome {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let trace = match trace {
        Ok(t) => t,
        Err(e) => return JobOutcome::Failed(e.clone()),
    };
    let body = || -> JobOutcome {
        let fresh = || Simulator::try_from_trace(trace, cpu_cfg, HierarchyConfig::default(), port);
        let Some(checkpoint) = checkpoint else {
            // Nothing to poll for between cycle chunks.
            return match fresh().and_then(|mut sim| sim.run()) {
                Ok(r) => JobOutcome::Done(Box::new(r)),
                Err(e) => JobOutcome::Failed(e.to_string()),
            };
        };
        let resumed = checkpoint.exists().then(|| {
            SimSnapshot::read_from_path(checkpoint)
                .map_err(SimError::from)
                .and_then(|snap| Simulator::resume(&snap))
        });
        let built = match resumed {
            Some(Ok(sim)) => Ok(sim),
            // A stale or corrupt cell checkpoint costs a fresh run of that
            // one cell, never the campaign.
            Some(Err(e)) => {
                match evict_corrupt(checkpoint) {
                    Ok(dest) => eprintln!(
                        "warning: unusable cell checkpoint {}: {e}; evicted to {} and \
                         rerunning the cell fresh",
                        checkpoint.display(),
                        dest.display()
                    ),
                    Err(_) => {
                        let _ = std::fs::remove_file(checkpoint);
                    }
                }
                fresh()
            }
            None => fresh(),
        };
        let mut sim = match built {
            Ok(sim) => sim,
            Err(e) => return JobOutcome::Failed(e.to_string()),
        };
        loop {
            match sim.run_for(CHUNK_CYCLES) {
                Ok(true) => return JobOutcome::Done(Box::new(sim.report())),
                Ok(false) => {}
                Err(e) => return JobOutcome::Failed(e.to_string()),
            }
            if interrupt::requested() {
                return match sim.save_snapshot().write_to_path(checkpoint) {
                    Ok(()) => JobOutcome::Interrupted,
                    Err(e) => JobOutcome::Failed(format!("interrupt checkpoint: {e}")),
                };
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(outcome) => outcome,
        Err(payload) => JobOutcome::Failed(panic_message(payload)),
    }
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
/// With a `journal`, every finished cell is recorded in it, and Ctrl-C
/// checkpoints in-flight cells to `<journal>.cell<idx>.snap` at the next
/// cycle-chunk boundary and returns with [`MatrixRun::interrupted`] set.
/// Running again on the journal continues it: finished cells are served
/// from it, checkpointed cells resume bit-identically, and the rest run —
/// the continued campaign's reports equal an uninterrupted run's.
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
                // A new journal starts without checkpoints: any left under
                // its name belong to a deleted campaign.
                for idx in 0..total {
                    let _ = std::fs::remove_file(cell_snap_path(path, idx));
                }
                journal::write(path, hash, &records)?;
            }
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        }
        interrupt::install();
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
        let checkpoint = journal.map(|j| cell_snap_path(j, idx));
        run_cell(trace, *cpu_cfg, *port, checkpoint.as_deref())
    };

    install_cell_panic_hook();
    let threads = threads_from_args().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    // Only a journaled run can checkpoint, so only it honors the latch.
    let stopping = || journal.is_some() && interrupt::requested();
    // A concluded cell's interrupt checkpoint (if any) is stale.
    let settle = |idx: usize| {
        if let Some(j) = journal {
            let _ = std::fs::remove_file(cell_snap_path(j, idx));
        }
    };
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
                    // The latch is read after each cell, so one that is
                    // already set still lets each thread's first cell start
                    // (and checkpoint at once). A closed channel means the
                    // loop below gave up on a journal error.
                    while let Some(&idx) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if tx.send((idx, run_one(idx))).is_err() || stopping() {
                            break;
                        }
                    }
                })
                .map_err(|e| format!("cannot start a cell thread: {e}"))?;
        }
        drop(tx);
        for (idx, outcome) in rx {
            let m = match outcome {
                JobOutcome::Done(report) => {
                    if let Some(path) = journal {
                        records[idx] = Some(report.to_record());
                        journal::write(path, hash, &records)?;
                    }
                    live[idx] = Some(*report);
                    '.'
                }
                JobOutcome::Failed(e) => {
                    errors[idx] = Some(e);
                    'x'
                }
                JobOutcome::Interrupted => '!',
            };
            if m != '!' {
                settle(idx);
            }
            mark(m);
        }
        Ok(())
    })?;

    let mut run = MatrixRun {
        interrupted: stopping(),
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
            // A cell served from the journal may still have the checkpoint
            // of a run killed between its record and the deletion.
            if records[idx].is_some() {
                settle(idx);
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
        // An interrupt outranks failures.
        let interrupted = MatrixRun {
            interrupted: true,
            ..failed
        };
        assert!(!interrupted.is_complete());
        assert_eq!(
            format!("{:?}", interrupted.exit_code()),
            format!("{:?}", std::process::ExitCode::from(130))
        );
    }

    /// An empty scratch directory unique to this test process.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbdc-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An uninterrupted run without a journal: the reference for
    /// interrupted journaled runs.
    fn reference(benches: &[Benchmark], configs: &[Column]) -> Vec<Vec<SimReport>> {
        run_matrix(benches, Scale::Test, configs, None)
            .unwrap()
            .expect_complete()
    }

    /// The SIGINT latch is process-global, so tests that trigger it — or
    /// run a journaled matrix, which polls it — serialize on this lock to
    /// keep one test's Ctrl-C out of another's campaign.
    fn latch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn journaled_interrupt_and_resume_matches_uninterrupted() {
        let _guard = latch_lock();
        interrupt::reset();
        let dir = scratch_dir("interrupt");
        let journal = dir.join("run.journal");
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            column("i2", PortConfig::Ideal { ports: 2 }),
            column("b4", PortConfig::banked(4)),
        ];

        // With the latch set before the run starts, each cell thread's
        // first cell captures its trace, replays exactly one cycle chunk,
        // checkpoints, and winds down — a deterministic mid-run
        // interruption of replay cells.
        let fresh = reference(&benches, &configs);
        interrupt::trigger();
        let halted = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        interrupt::reset();
        assert!(halted.interrupted);
        assert_eq!(
            format!("{:?}", halted.exit_code()),
            format!("{:?}", std::process::ExitCode::from(130))
        );
        assert!(halted.failures.is_empty(), "an interrupt is not a failure");
        assert!(halted.reports[0].iter().all(Option::is_none));
        assert!(
            (0..2).any(|i| cell_snap_path(&journal, i).exists()),
            "an in-flight cell checkpoint must exist after the interrupt"
        );
        assert!(journal.exists(), "the journal is flushed on interrupt");

        // Rerunning on the journal runs the campaign to completion from
        // the checkpoints.
        let resumed = run_matrix(&benches, Scale::Test, &configs, Some(&journal))
            .unwrap()
            .expect_complete();
        assert!(
            (0..2).all(|i| !cell_snap_path(&journal, i).exists()),
            "completed cells delete their checkpoints"
        );

        // The interrupted-then-resumed campaign equals an uninterrupted
        // one, bit for bit.
        assert_eq!(resumed, fresh);

        // A third run serves every cell straight from the journal
        // (exercising the record parser) and still matches.
        let replayed = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        assert_eq!(replayed.served, 2);
        assert_eq!(replayed.capture_secs, 0.0, "served cells capture nothing");
        assert_eq!(replayed.expect_complete(), fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unusable_cell_checkpoint_is_evicted_and_the_cell_reruns_fresh() {
        let _guard = latch_lock();
        interrupt::reset();
        let dir = scratch_dir("corrupt-checkpoint");
        let journal = dir.join("k.journal");
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![column("i2", PortConfig::Ideal { ports: 2 })];
        let fresh = reference(&benches, &configs);
        interrupt::trigger();
        let halted = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        interrupt::reset();
        assert!(halted.interrupted);
        let snap = cell_snap_path(&journal, 0);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();

        let resumed = run_matrix(&benches, Scale::Test, &configs, Some(&journal))
            .unwrap()
            .expect_complete();
        assert_eq!(resumed, fresh);
        assert!(!snap.exists());
        let mut evicted = snap.into_os_string();
        evicted.push(".corrupt");
        assert_eq!(std::fs::read(PathBuf::from(evicted)).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerunning_an_interrupted_journal_continues_it() {
        // A kernel that halts inside its first cycle chunk, so its cell
        // completes even under a pre-set interrupt latch.
        fn tiny(_: Scale) -> String {
            hbdc_workloads::MicroKernel::SameLineBurst.source(4)
        }
        let _guard = latch_lock();
        interrupt::reset();
        let dir = scratch_dir("continue");
        let journal = dir.join("c.journal");
        let benches = vec![
            Benchmark::custom("tiny", Suite::Int, tiny),
            by_name("li").unwrap(),
        ];
        let configs = vec![column("i2", PortConfig::Ideal { ports: 2 })];
        let fresh = reference(&benches, &configs);

        interrupt::trigger();
        let halted = run_matrix(&benches, Scale::Test, &configs, Some(&journal)).unwrap();
        interrupt::reset();
        assert!(halted.interrupted);
        assert!(halted.reports[0][0].is_some(), "the tiny cell completes");
        assert!(halted.reports[1][0].is_none(), "the li cell does not");

        // Mark the completed cell's journal record, so a report that comes
        // back with the mark was served from the journal, not re-run.
        let hash = matrix_hash(&benches, Scale::Test, &configs);
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut records = journal::parse(&text, &journal, hash, 2).unwrap();
        let Some(record) = &mut records[0] else {
            panic!("cell 0 must be journaled as ok: {text}");
        };
        let mut marked = SimReport::from_record(record).unwrap();
        marked.port_label = "served-from-journal".into();
        *record = marked.to_record();
        journal::write(&journal, hash, &records).unwrap();

        // The same journal again: it is continued, not truncated.
        let continued = run_matrix(&benches, Scale::Test, &configs, Some(&journal))
            .unwrap()
            .expect_complete();
        assert_eq!(continued[0][0].port_label, "served-from-journal");
        assert_eq!(continued[1][0], fresh[1][0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_matrix() {
        let _guard = latch_lock();
        interrupt::reset();
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
    }

    #[test]
    fn a_failed_cell_is_not_journaled_and_fails_again_when_continued() {
        let _guard = latch_lock();
        interrupt::reset();
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
