//! Shared experiment machinery: simulation driving, scale parsing,
//! suite-average bookkeeping, and the crash-safe journaled matrix runner
//! (per-cell run journal, SIGINT checkpointing, per-job timeouts).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hbdc_core::PortConfig;
use hbdc_cpu::{
    CacheLookup, CommittedTrace, CpuConfig, SimError, SimReport, SimSnapshot, Simulator,
};
use hbdc_mem::HierarchyConfig;
use hbdc_snap::lock::{evict_corrupt, FileLock};
use hbdc_snap::{fnv1a64, interrupt, write_atomic, StateWriter};
use hbdc_stats::summary::arithmetic_mean;
use hbdc_workloads::{Benchmark, Scale, Suite};

use crate::supervise::{self, CellState, JournalState, ShardParams};

/// Runs one benchmark under one port model and returns its report.
///
/// Uses the paper's Table 1 machine and memory hierarchy. The run length
/// is whatever the kernel's `scale` dictates (kernels halt on their own).
///
/// # Errors
///
/// Propagates any [`SimError`] from configuration or the run (deadlock
/// watchdog, cycle cap, invariant auditor).
pub fn simulate(bench: &Benchmark, scale: Scale, port: PortConfig) -> Result<SimReport, SimError> {
    simulate_with(bench, scale, port, CpuConfig::default())
}

/// [`simulate`] with an explicit machine configuration (auditing on, a
/// tighter cycle cap, non-default widths).
///
/// # Errors
///
/// Propagates any [`SimError`] from configuration or the run.
pub fn simulate_with(
    bench: &Benchmark,
    scale: Scale,
    port: PortConfig,
    cpu_cfg: CpuConfig,
) -> Result<SimReport, SimError> {
    let program = bench.build(scale);
    Simulator::try_new(&program, cpu_cfg, HierarchyConfig::default(), port)?.run()
}

/// Unwraps a simulation result in an experiment binary: on failure,
/// prints the error to stderr and exits with status 2.
///
/// Experiment binaries have no meaningful partial output for a single
/// failed run (unlike [`simulate_matrix`], which completes the rest of
/// the matrix), so failing loudly and immediately is the right behavior.
pub fn sim_ok(result: Result<SimReport, SimError>) -> SimReport {
    result.unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(2);
    })
}

// CLI parsing lives in [`crate::args`] (one shared argv scanner);
// re-exported here because the binaries import it from the runner.
pub(crate) use crate::args::usage_bail;
pub use crate::args::{
    benches_from_args, csv_from_args, matrix_opts_from_args, parse_scale, parse_trace_mode,
    runs_from_args, scale_from_args, scale_from_args_or, scale_label, threads_from_args,
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

/// One failed matrix job: which cell failed, how many attempts it got,
/// and the error (or panic payload) that killed it.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark name of the failed cell.
    pub bench: String,
    /// Config label of the failed cell.
    pub config: String,
    /// Attempts made (the runner retries a failed job once).
    pub attempts: u32,
    /// Rendered [`SimError`] or panic payload from the final attempt.
    pub error: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} under {} failed after {} attempt{}: {}",
            self.bench,
            self.config,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error
        )
    }
}

/// The outcome of a fault-tolerant matrix run: every cell's report in
/// `[bench][config]` order (`None` where the job failed), plus a failure
/// record per dead cell.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Reports in `[bench][config]` order; `None` marks a failed job (or,
    /// on an interrupted run, a checkpointed or never-started one).
    pub reports: Vec<Vec<Option<SimReport>>>,
    /// One record per failed job (empty on a clean run).
    pub failures: Vec<JobFailure>,
    /// One record per quarantined cell: in shard mode, a cell that failed
    /// its whole `--max-attempts` budget (or timed out). The campaign
    /// completed around these; rerunning with a larger `--max-attempts`
    /// gives them fresh attempts.
    pub quarantined: Vec<JobFailure>,
    /// Whether the run was cut short by an interrupt request (SIGINT on a
    /// journaled campaign): in-flight cells were checkpointed at a cycle
    /// boundary and the journal flushed, so a later `--resume` continues
    /// where this run stopped.
    pub interrupted: bool,
    /// Wall-clock seconds the trace-capture phase took (0.0 in execute
    /// mode, and tiny when the trace cache was warm). Kept separate from
    /// the per-report `cpu_secs` so replay timing is reported apart from
    /// the one-shot functional pass.
    pub capture_secs: f64,
}

impl MatrixRun {
    /// Whether every job produced a report.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.quarantined.is_empty() && !self.interrupted
    }

    /// Prints one line per failed and per quarantined cell to stderr
    /// (no-op on a clean run).
    pub fn print_failure_summary(&self) {
        let total = self.reports.iter().map(Vec::len).sum::<usize>();
        if !self.failures.is_empty() {
            eprintln!("{} of {total} matrix jobs failed:", self.failures.len());
            for f in &self.failures {
                eprintln!("  {f}");
            }
        }
        if !self.quarantined.is_empty() {
            eprintln!(
                "{} of {total} matrix jobs quarantined (rerun with a larger \
                 --max-attempts to retry them):",
                self.quarantined.len()
            );
            for f in &self.quarantined {
                eprintln!("  {f}");
            }
        }
    }

    /// Unwraps a run that must be complete (golden tests, callers with no
    /// partial-output story), panicking with the failure summary if any
    /// job died.
    ///
    /// # Panics
    ///
    /// Panics listing every failure if the run was not complete.
    pub fn expect_complete(self) -> Vec<Vec<SimReport>> {
        assert!(!self.interrupted, "matrix run was interrupted");
        assert!(
            self.failures.is_empty(),
            "matrix run incomplete: {:?}",
            self.failures
        );
        assert!(
            self.quarantined.is_empty(),
            "matrix run has quarantined cells: {:?}",
            self.quarantined
        );
        self.reports
            .into_iter()
            .map(|row| row.into_iter().flatten().collect())
            .collect()
    }

    /// The exit code a binary should end with: 0 for a clean run, 1 if
    /// any job failed (partial results were still printed), 3 if the only
    /// incomplete cells are quarantined ones (the campaign is as done as
    /// its attempt budget allows), 130 — the conventional SIGINT code —
    /// if the run was interrupted and checkpointed.
    pub fn exit_code(&self) -> std::process::ExitCode {
        if self.interrupted {
            std::process::ExitCode::from(130)
        } else if !self.failures.is_empty() {
            std::process::ExitCode::from(1)
        } else if !self.quarantined.is_empty() {
            std::process::ExitCode::from(3)
        } else {
            std::process::ExitCode::SUCCESS
        }
    }
}

/// Name prefix for matrix worker threads; the panic hook uses it to keep
/// an intentionally-caught job panic from spraying stderr.
const WORKER_PREFIX: &str = "hbdc-job";

/// Silences default panic output from matrix worker threads (their
/// panics are caught, recorded as [`JobFailure`]s, and reported in the
/// failure summary); panics anywhere else keep the previous hook.
fn install_worker_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_PREFIX));
            if !in_worker {
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

/// Runs the full (benchmark x port-config) matrix across OS threads,
/// returning a [`MatrixRun`] with reports in `[bench][config]` order.
///
/// Simulations are independent, so this is an embarrassingly parallel
/// work queue; on an N-core machine the full-scale Table 3 matrix runs
/// ~N times faster than the serial loop. The worker count honors
/// `--threads N` (default: every available core). Workers hand finished
/// reports to the calling thread over a channel, which fills the result
/// slots and batches the progress marks through one locked stderr handle
/// (one writer, no interleaved syscalls; `.` per success, `x` per
/// failure). A `sim-speed` summary line follows the marks.
///
/// **Fault tolerance:** a job that fails — a [`SimError`], or a panic
/// caught at the job boundary — is retried once, then recorded as a
/// [`JobFailure`]; the rest of the matrix still completes. One diverging
/// cell costs one cell, not a whole Table 3 overnight run.
pub fn simulate_matrix(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[(String, PortConfig)],
) -> MatrixRun {
    simulate_matrix_with(benches, scale, configs, CpuConfig::default())
}

/// [`simulate_matrix`] with an explicit machine configuration. The
/// campaign options (`--journal`, `--resume`, `--timeout-secs`) are read
/// from `argv` like the rest of the matrix flags; a journal problem is a
/// usage error (reported and exit 2).
pub fn simulate_matrix_with(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[(String, PortConfig)],
    cpu_cfg: CpuConfig,
) -> MatrixRun {
    let opts = MatrixOpts {
        cpu_cfg,
        ..matrix_opts_from_args()
    };
    simulate_matrix_opts(benches, scale, configs, &opts).unwrap_or_else(|e| usage_bail(&e))
}

/// How matrix cells obtain their dynamic instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Capture each benchmark's committed stream once (one functional
    /// pass per benchmark, served from the trace cache when possible),
    /// then drive every cell of the configuration fan-out by timing-only
    /// replay. Reports are bit-identical to [`Execute`](Self::Execute);
    /// the functional work is simply not repeated per cell.
    #[default]
    Replay,
    /// Execute the program functionally inside every cell.
    Execute,
}

/// Coordinates for the hidden worker-cell mode: a shard supervisor
/// re-executes its own binary with `--worker-cell IDX --worker-out PATH
/// --worker-matrix HEX` appended, and the child runs exactly that one
/// matrix cell and reports through the out file. Not a user-facing
/// interface; see `crate::supervise` for the protocol.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Flat matrix cell index (`bench * configs + config`) to run.
    pub cell: usize,
    /// Outcome file, written atomically on exit.
    pub out: PathBuf,
    /// The supervisor's matrix fingerprint; the worker recomputes its own
    /// and refuses to run on a mismatch (binary rebuilt mid-campaign).
    pub matrix: u64,
}

/// Campaign options for [`simulate_matrix_opts`].
#[derive(Debug, Clone)]
pub struct MatrixOpts {
    /// Machine configuration for every cell.
    pub cpu_cfg: CpuConfig,
    /// Per-job wall-clock budget. A cell still running when it expires is
    /// recorded as a `timeout` failure (never retried: a hung model hangs
    /// again) and the rest of the matrix continues. `None` disables it.
    pub timeout: Option<Duration>,
    /// Journal path. Enables crash-safe campaign journaling: every
    /// finished cell is persisted with an atomic whole-file rewrite, and
    /// SIGINT checkpoints in-flight cells instead of killing the process.
    pub journal: Option<PathBuf>,
    /// Resume from the journal at [`journal`](Self::journal): completed
    /// cells are served from the journal, failed cells are re-run, and
    /// checkpointed in-flight cells resume bit-identically from their
    /// snapshots.
    pub resume: bool,
    /// Whether cells replay a captured trace or execute functionally.
    pub trace_mode: TraceMode,
    /// Directory for the on-disk trace corpus. Captured traces are
    /// persisted here keyed by benchmark, scale, warmup, and program
    /// fingerprint, so later campaigns — and *other* experiment binaries
    /// sharing the directory — skip the capture pass entirely. `None`
    /// keeps traces in memory for this campaign only.
    pub trace_cache: Option<PathBuf>,
    /// Run as one of N cooperating shard processes draining the journal
    /// at [`journal`](Self::journal) (required) together: cells are
    /// claimed under heartbeat leases, each runs in a subprocess, and the
    /// run returns once every cell is terminal campaign-wide. Start the
    /// same command in several terminals (or on several machines sharing
    /// a filesystem with sane rename semantics) to parallelize.
    pub shard: bool,
    /// Shard mode: attempts a cell gets before it is quarantined.
    pub max_attempts: u32,
    /// Shard mode: heartbeat TTL after which other processes may steal a
    /// lease from an unresponsive owner.
    pub lease_ttl: Duration,
    /// Hidden worker-cell mode (set only by a shard supervisor when it
    /// re-executes the binary); runs one cell and exits.
    pub worker: Option<WorkerSpec>,
}

impl Default for MatrixOpts {
    fn default() -> Self {
        Self {
            cpu_cfg: CpuConfig::default(),
            timeout: None,
            journal: None,
            resume: false,
            trace_mode: TraceMode::default(),
            trace_cache: None,
            shard: false,
            max_attempts: supervise::DEFAULT_MAX_ATTEMPTS,
            lease_ttl: supervise::DEFAULT_LEASE_TTL,
            worker: None,
        }
    }
}

/// Cycle-chunk size for interruptible and timed jobs: large enough that
/// the chunking overhead disappears into the noise, small enough that
/// SIGINT and timeout latency stay in the low milliseconds.
const CHUNK_CYCLES: u64 = 4096;

/// Content fingerprint of a matrix campaign: scale, benchmark roster,
/// column labels and port parameters, and the machine configuration. A
/// journal records the fingerprint it was written under, and resuming it
/// under any other matrix is refused rather than silently mixing results.
pub(crate) fn matrix_hash(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[(String, PortConfig)],
    cpu_cfg: &CpuConfig,
) -> u64 {
    let mut w = StateWriter::new();
    w.put_str(scale_label(scale));
    w.put_usize(benches.len());
    for b in benches {
        w.put_str(b.name());
    }
    w.put_usize(configs.len());
    for (label, port) in configs {
        w.put_str(label);
        port.save_state(&mut w);
    }
    cpu_cfg.save_state(&mut w);
    fnv1a64(&w.into_bytes())
}

/// Where a journaled run checkpoints cell `idx`'s in-flight simulator
/// state on interrupt (deleted once the cell completes).
pub(crate) fn cell_snap_path(journal: &Path, idx: usize) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(format!(".cell{idx}.snap"));
    PathBuf::from(name)
}

/// The single-process campaign log: the in-memory [`JournalState`] plus
/// its path. [`flush`](Self::flush) atomically rewrites the whole file
/// under the journal's advisory lock, so a kill at any instant leaves
/// either the previous journal or the new one on disk — never a torn
/// file — and a concurrent shard supervisor pointed at the same journal
/// never reads mid-rename. The file format (journal v2) is shared with
/// the multi-process supervisor in [`crate::supervise`].
struct Journal {
    path: PathBuf,
    state: JournalState,
}

impl Journal {
    fn new(path: PathBuf, hash: u64, total: usize) -> Self {
        Self {
            path,
            state: JournalState::fresh(hash, total),
        }
    }

    fn record_ok(&mut self, idx: usize, attempts: u32, report: &SimReport) {
        self.state.set_ok(idx, attempts, report.to_record());
    }

    fn record_fail(&mut self, idx: usize, attempts: u32, error: &str) {
        // The single-process runner's retry policy (one in-line retry) has
        // already run its course by the time a failure is recorded, so
        // the cell is never quarantined here — a later --resume re-runs
        // it immediately (no backoff deadline).
        self.state
            .set_fail(idx, attempts, 0, error.to_string(), u32::MAX);
    }

    fn flush(&self) -> Result<(), String> {
        let lock = supervise::lock_path(&self.path);
        let _lock = FileLock::exclusive(&lock)
            .map_err(|e| format!("journal lock {}: {e}", lock.display()))?;
        write_atomic(
            &self.path,
            supervise::render_journal(&self.state).as_bytes(),
        )
        .map_err(|e| format!("journal {}: {e}", self.path.display()))
    }
}

/// Parses and validates a journal for resumption: the header, matrix
/// fingerprint, and cell count must all match this run. Returns the
/// completed (`ok`) cells; `fail`, `quar`, and stale `lease` cells are
/// dropped so the resume re-runs them.
fn load_journal(
    path: &Path,
    hash: u64,
    total: usize,
) -> Result<Vec<Option<(SimReport, u32)>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let state = supervise::parse_journal(&text, path, hash, total)?;
    let mut out: Vec<Option<(SimReport, u32)>> = vec![None; total];
    for (idx, cell) in state.cells.iter().enumerate() {
        if let CellState::Ok { attempts, record } = cell {
            let report = SimReport::from_record(record)
                .map_err(|e| format!("{}: cell {idx}: {e}", path.display()))?;
            out[idx] = Some((report, *attempts));
        }
    }
    Ok(out)
}

/// The on-disk name of a benchmark's cached trace. The program
/// fingerprint is part of the name, so a kernel-generator change makes
/// the stale file unreachable rather than silently replayed.
fn trace_cache_path(dir: &Path, bench: &str, scale: Scale, warmup: u64, fp: u64) -> PathBuf {
    dir.join(format!(
        "{bench}-{}-w{warmup}-{fp:016x}.hbtr",
        scale_label(scale)
    ))
}

/// Captures (or loads from the cache) one committed-stream trace per
/// benchmark, in parallel across the benchmarks. Returns the traces —
/// `None` where capture failed, leaving those cells to execute
/// functionally and report the real error — and the wall-clock seconds
/// the phase took, which callers report separately from replay time.
///
/// A corrupt or truncated cache file is **evicted** (renamed to
/// `*.corrupt`, with one warning) and the trace recaptured, so one bad
/// byte costs one capture — not a warning storm or a silent functional
/// re-parse on every later campaign.
///
/// The interrupt latch is polled before each fresh capture (cached hits
/// still load — they are nearly free and make the later resume fast), so
/// a Ctrl-C during this phase stops promptly instead of executing every
/// remaining benchmark first. The caller is responsible for turning the
/// pending interrupt into an interrupted, resumable run.
pub(crate) fn capture_traces(
    benches: &[Benchmark],
    wanted: &[bool],
    scale: Scale,
    cpu_cfg: &CpuConfig,
    cache: Option<&Path>,
) -> (Vec<Option<CommittedTrace>>, f64) {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let start = Instant::now();
    if let Some(dir) = cache {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "warning: cannot create trace cache {}: {e}; capturing in memory",
                dir.display()
            );
        }
    }
    let warmup = cpu_cfg.warmup_insts;
    let one = |bench: &Benchmark| -> Option<CommittedTrace> {
        // A pending SIGINT stops new captures before the expensive
        // build/execute work; the journal (if any) is already on disk,
        // so the caller winds down into a resumable interrupted run.
        if interrupt::requested() {
            return None;
        }
        let program = bench.build(scale);
        let fp = fnv1a64(&hbdc_isa::object::to_bytes(&program));
        let path = cache.map(|d| trace_cache_path(d, bench.name(), scale, warmup, fp));
        if let Some(p) = &path {
            // The fingerprint is in the file name, but a renamed or
            // hand-edited file must still not drive a replay (that case
            // reads as a miss, not corruption).
            match CommittedTrace::read_cached(p, fp, warmup) {
                CacheLookup::Hit(t) => return Some(*t),
                CacheLookup::Miss => {}
                CacheLookup::Corrupt(e) => match evict_corrupt(p) {
                    Ok(dest) => eprintln!(
                        "warning: corrupt cached trace {}: {e}; evicted to {} and recapturing",
                        p.display(),
                        dest.display()
                    ),
                    Err(e2) => eprintln!(
                        "warning: corrupt cached trace {}: {e}; eviction failed ({e2}), \
                         recapturing anyway",
                        p.display()
                    ),
                },
            }
        }
        // Re-check after the cache lookup: a cached hit above still
        // loads under a pending interrupt (it is nearly free and keeps
        // resume fast), but a fresh execute-once capture does not start.
        if interrupt::requested() {
            return None;
        }
        let t = CommittedTrace::capture(&program, warmup, None).ok()?;
        if let Some(p) = &path {
            if let Err(e) = t.write_to_path(p) {
                eprintln!("warning: cannot persist trace {}: {e}", p.display());
            }
        }
        Some(t)
    };
    let mut traces: Vec<Option<CommittedTrace>> = vec![None; benches.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, bench) in benches.iter().enumerate() {
            if !wanted[i] {
                continue;
            }
            // Worker-thread naming keeps a capture panic (a kernel
            // generator blowing up) quiet here; the execute-mode fallback
            // cell reproduces it as a proper JobFailure.
            let h = std::thread::Builder::new()
                .name(format!("{WORKER_PREFIX}-capture-{i}"))
                .spawn_scoped(scope, move || {
                    catch_unwind(AssertUnwindSafe(|| one(bench))).ok().flatten()
                });
            match h {
                Ok(h) => handles.push((i, h)),
                Err(e) => eprintln!("warning: failed to spawn capture worker: {e}"),
            }
        }
        for (i, h) in handles {
            if let Ok(t) = h.join() {
                traces[i] = t;
            }
        }
    });
    (traces, start.elapsed().as_secs_f64())
}

/// One matrix cell's outcome as a worker reports it.
pub(crate) enum JobOutcome {
    /// The simulation finished and produced a report.
    Done(Box<SimReport>),
    /// The simulation (or its setup) failed; the rendered error.
    Failed(String),
    /// An interrupt was requested; the in-flight state was checkpointed
    /// to the cell's snapshot file.
    Interrupted,
}

/// Everything a worker needs to run one matrix cell.
#[derive(Clone, Copy)]
pub(crate) struct CellJob<'a> {
    pub(crate) bench: &'a Benchmark,
    pub(crate) trace: Option<&'a CommittedTrace>,
    pub(crate) scale: Scale,
    pub(crate) port: PortConfig,
    pub(crate) cpu_cfg: CpuConfig,
    pub(crate) timeout: Option<Duration>,
    pub(crate) checkpoint: Option<&'a Path>,
    pub(crate) resume: bool,
}

/// Runs one matrix cell. Plain cells run straight to completion; cells
/// with a timeout or a checkpoint path run in [`CHUNK_CYCLES`]-cycle
/// slices, polling the interrupt latch and the wall clock between slices.
/// Panics anywhere inside (kernel generators included) are caught and
/// rendered as failures.
pub(crate) fn run_cell(job: CellJob<'_>) -> JobOutcome {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let CellJob {
        bench,
        trace,
        scale,
        port,
        cpu_cfg,
        timeout,
        checkpoint,
        resume,
    } = job;

    let body = || -> JobOutcome {
        // Fresh construction: timing-only replay of the benchmark's
        // captured trace when one exists, functional execution otherwise
        // (execute mode, or the capture itself failed and the cell should
        // reproduce the real error).
        let fresh = || match trace {
            Some(t) => Simulator::try_from_trace(t, cpu_cfg, HierarchyConfig::default(), port),
            None => {
                let program = bench.build(scale);
                Simulator::try_new(&program, cpu_cfg, HierarchyConfig::default(), port)
            }
        };
        if checkpoint.is_none() && timeout.is_none() {
            // Fast path: nothing to poll for between cycle chunks.
            return match fresh().and_then(|mut sim| sim.run()) {
                Ok(r) => JobOutcome::Done(Box::new(r)),
                Err(e) => JobOutcome::Failed(e.to_string()),
            };
        }
        let resumed = checkpoint.filter(|p| resume && p.exists()).map(|p| {
            SimSnapshot::read_from_path(p)
                .map_err(SimError::from)
                .and_then(|snap| Simulator::resume(&snap))
                .map_err(|e| (p, e))
        });
        let built = match resumed {
            Some(Ok(sim)) => Ok(sim),
            // A stale or corrupt cell checkpoint costs a fresh run of that
            // one cell, never the campaign. Evict the bad file so the next
            // resume doesn't trip over the same bytes (and the evidence
            // survives for a post-mortem).
            Some(Err((p, e))) => {
                match evict_corrupt(p) {
                    Ok(dest) => eprintln!(
                        "warning: unusable cell checkpoint {}: {e}; evicted to {} and \
                         rerunning the cell fresh",
                        p.display(),
                        dest.display()
                    ),
                    Err(_) => {
                        let _ = std::fs::remove_file(p);
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
        let start = Instant::now();
        loop {
            match sim.run_for(CHUNK_CYCLES) {
                Ok(true) => return JobOutcome::Done(Box::new(sim.report())),
                Ok(false) => {}
                Err(e) => return JobOutcome::Failed(e.to_string()),
            }
            if let Some(path) = checkpoint {
                if interrupt::requested() {
                    return match sim.save_snapshot().write_to_path(path) {
                        Ok(()) => JobOutcome::Interrupted,
                        Err(e) => JobOutcome::Failed(format!("interrupt checkpoint: {e}")),
                    };
                }
            }
            if let Some(t) = timeout {
                if start.elapsed() >= t {
                    return JobOutcome::Failed(format!(
                        "timeout: exceeded the {:.3}s wall-clock budget at cycle {} \
                         ({} committed)",
                        t.as_secs_f64(),
                        sim.current_cycle(),
                        sim.committed()
                    ));
                }
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(outcome) => outcome,
        Err(payload) => JobOutcome::Failed(panic_message(payload)),
    }
}

/// [`simulate_matrix`] with the full campaign option set — the journaled,
/// resumable, interruptible engine underneath every matrix entry point.
///
/// **Journaling** ([`MatrixOpts::journal`]): each finished cell (success
/// or failure) is recorded in a text journal that is atomically rewritten
/// after every cell, and the SIGINT latch is installed: on Ctrl-C,
/// workers checkpoint their in-flight simulation to
/// `<journal>.cell<idx>.snap` at the next cycle-chunk boundary, unstarted
/// cells are left for later, and the run returns with
/// [`MatrixRun::interrupted`] set. **Resuming** ([`MatrixOpts::resume`]):
/// `ok` cells are served from the journal, `fail` cells re-run, and
/// checkpointed cells resumed bit-identically from their snapshots — the
/// resumed campaign's reports equal an uninterrupted run's.
///
/// **Sharding** ([`MatrixOpts::shard`]): instead of running cells on
/// threads in this process, hand the whole campaign to the multi-process
/// supervisor (the `supervise` module): N invocations of the same command
/// drain one journal cooperatively, each cell runs in an isolated worker
/// subprocess, and failed cells are retried with backoff and quarantined
/// when their attempt budget runs out. `--threads` remains meaningful in
/// this mode — it caps the concurrent worker subprocesses *per
/// supervisor* (default: available cores), so the campaign-wide width is
/// the sum over the cooperating shard processes.
///
/// # Errors
///
/// Fails only on journal problems: an unreadable or corrupt journal, a
/// fingerprint mismatch (the journal belongs to a different matrix), or
/// an I/O failure flushing it.
pub fn simulate_matrix_opts(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[(String, PortConfig)],
    opts: &MatrixOpts,
) -> Result<MatrixRun, String> {
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    // Worker-cell mode (a shard supervisor re-executed this binary): run
    // the one assigned cell and exit through the out file. Checked before
    // everything else so a worker never becomes a supervisor itself.
    if let Some(spec) = &opts.worker {
        supervise::run_worker(benches, scale, configs, opts, spec);
    }
    if opts.shard {
        let journal = opts.journal.clone().ok_or_else(|| {
            "--shard requires --journal PATH (the journal is the shared campaign state)".to_string()
        })?;
        let hash = matrix_hash(benches, scale, configs, &opts.cpu_cfg);
        let threads = threads_from_args().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        return supervise::supervise(
            benches,
            configs,
            hash,
            &ShardParams {
                journal,
                max_attempts: opts.max_attempts,
                lease_ttl: opts.lease_ttl,
                timeout: opts.timeout,
                threads,
            },
        );
    }

    type JobResult = Result<SimReport, String>;

    let total = benches.len() * configs.len();
    let hash = matrix_hash(benches, scale, configs, &opts.cpu_cfg);
    let mut slots: Vec<Option<JobResult>> = (0..total).map(|_| None).collect();
    let mut attempts_by_slot: Vec<u32> = vec![0; total];

    let mut journal = match &opts.journal {
        Some(path) => {
            let mut j = Journal::new(path.clone(), hash, total);
            if opts.resume {
                for (i, cell) in load_journal(path, hash, total)?.into_iter().enumerate() {
                    if let Some((report, attempts)) = cell {
                        j.record_ok(i, attempts, &report);
                        slots[i] = Some(Ok(report));
                        attempts_by_slot[i] = attempts;
                        // The cell is settled; an interrupt checkpoint it
                        // left behind is stale — reclaim the disk space.
                        let _ = std::fs::remove_file(cell_snap_path(path, i));
                    }
                }
            }
            // The journal exists (header at minimum) from the first
            // instant, so a kill at any point leaves a resumable file.
            j.flush()?;
            interrupt::install();
            Some(j)
        }
        None => None,
    };

    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
    let threads = threads_from_args()
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .min(pending.len().max(1));
    install_worker_panic_hook();

    // Capture-then-fan-out front end: one functional pass per benchmark
    // that still has pending cells, then every cell replays its trace.
    // A journal resume with nothing left to run captures nothing.
    let (traces, capture_secs) = match opts.trace_mode {
        TraceMode::Execute => (vec![None; benches.len()], 0.0),
        TraceMode::Replay => {
            let mut wanted = vec![false; benches.len()];
            for &i in &pending {
                wanted[i / configs.len()] = true;
            }
            capture_traces(
                benches,
                &wanted,
                scale,
                &opts.cpu_cfg,
                opts.trace_cache.as_deref(),
            )
        }
    };
    if opts.trace_mode == TraceMode::Replay && !pending.is_empty() {
        eprintln!(
            "trace-capture: {capture_secs:.2}s for {} trace{}",
            traces.iter().flatten().count(),
            if traces.iter().flatten().count() == 1 {
                ""
            } else {
                "s"
            }
        );
    }

    // A SIGINT that landed during the capture phase stops the run right
    // there: every capture that finished is already in the trace cache,
    // and the journal (header at minimum) is flushed, so the campaign is
    // in its resumable state without starting a single replay cell.
    // Clearing the queue lets the worker scaffolding below wind down
    // immediately; the interrupted `MatrixRun` then exits with code 130.
    // (Execute mode has no capture phase — its cells checkpoint
    // themselves through the chunked run loop instead.)
    let pending =
        if opts.trace_mode == TraceMode::Replay && journal.is_some() && interrupt::requested() {
            Vec::new()
        } else {
            pending
        };

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome, u32)>();

    let scope_result: Result<(), String> = std::thread::scope(|scope| {
        let next = &next;
        let pending = &pending;
        let traces = &traces;
        for w in 0..threads {
            let tx = tx.clone();
            let worker = std::thread::Builder::new().name(format!("{WORKER_PREFIX}-{w}"));
            let body = move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= pending.len() {
                    break;
                }
                let i = pending[k];
                let bench = &benches[i / configs.len()];
                let trace = traces[i / configs.len()].as_ref();
                let (_, port) = &configs[i % configs.len()];
                let ckpt = opts.journal.as_deref().map(|p| cell_snap_path(p, i));
                let run_once = || {
                    run_cell(CellJob {
                        bench,
                        trace,
                        scale,
                        port: *port,
                        cpu_cfg: opts.cpu_cfg,
                        timeout: opts.timeout,
                        checkpoint: ckpt.as_deref(),
                        resume: opts.resume,
                    })
                };
                let mut attempts = 1;
                let mut outcome = run_once();
                if matches!(&outcome, JobOutcome::Failed(e) if !e.starts_with("timeout")) {
                    // One retry guards against transient host conditions
                    // (simulations themselves are deterministic). Timeouts
                    // are exempt: a hung model hangs again.
                    attempts = 2;
                    outcome = run_once();
                }
                let interrupted = matches!(outcome, JobOutcome::Interrupted);
                if tx.send((i, outcome, attempts)).is_err() || interrupted {
                    // On interrupt, wind down instead of claiming more
                    // cells; the journal records where we stopped.
                    break;
                }
            };
            if let Err(e) = worker.spawn_scoped(scope, body) {
                // Could not spawn this worker (resource limits); the ones
                // already running will drain the queue.
                eprintln!("warning: failed to spawn matrix worker: {e}");
            }
        }
        drop(tx); // the receive loop ends once every worker finishes
        let mut marks = std::io::stderr().lock();
        for (i, outcome, attempts) in rx {
            debug_assert!(slots[i].is_none(), "task {i} ran twice");
            let mark = match &outcome {
                JobOutcome::Done(_) => ".",
                JobOutcome::Failed(_) => "x",
                JobOutcome::Interrupted => "!",
            };
            let _ = write!(marks, "{mark}");
            attempts_by_slot[i] = attempts;
            if let Some(j) = journal.as_mut() {
                match &outcome {
                    JobOutcome::Done(r) => j.record_ok(i, attempts, r),
                    JobOutcome::Failed(e) => j.record_fail(i, attempts, e),
                    JobOutcome::Interrupted => {}
                }
                if !matches!(outcome, JobOutcome::Interrupted) {
                    j.flush()?;
                    // The cell is on the journal's books; its in-flight
                    // checkpoint (if any) is now stale.
                    let _ = std::fs::remove_file(cell_snap_path(&j.path, i));
                }
            }
            match outcome {
                JobOutcome::Done(r) => slots[i] = Some(Ok(*r)),
                JobOutcome::Failed(e) => slots[i] = Some(Err(e)),
                JobOutcome::Interrupted => {}
            }
        }
        let _ = writeln!(marks);
        Ok(())
    });
    scope_result?;

    let interrupted = journal.is_some() && interrupt::requested();
    if interrupted {
        if let Some(j) = &journal {
            eprintln!(
                "interrupted: journal and cell checkpoints flushed; \
                 rerun with --resume {} to continue",
                j.path.display()
            );
        }
    }

    let mut reports = Vec::with_capacity(benches.len());
    let mut failures = Vec::new();
    let mut it = slots.into_iter().zip(attempts_by_slot).enumerate();
    for bench in benches {
        let mut row = Vec::with_capacity(configs.len());
        for _ in 0..configs.len() {
            let (i, (result, attempts)) = it.next().expect("slots sized to the matrix");
            match result {
                Some(Ok(report)) => row.push(Some(report)),
                Some(Err(error)) => {
                    row.push(None);
                    failures.push(JobFailure {
                        bench: bench.name().to_string(),
                        config: configs[i % configs.len()].0.clone(),
                        attempts,
                        error,
                    });
                }
                // Interrupted mid-flight or never started: no report, no
                // failure record — the journal carries the resume state.
                None => row.push(None),
            }
        }
        reports.push(row);
    }
    print_sim_speed(reports.iter().flatten().flatten());
    let run = MatrixRun {
        reports,
        failures,
        quarantined: Vec::new(),
        interrupted,
        capture_secs,
    };
    run.print_failure_summary();
    Ok(run)
}

/// Summarizes simulator throughput over a set of finished reports.
/// Returns `(simulated cycles, cpu seconds, cycles per cpu-second)`.
pub fn sim_speed(
    reports: impl IntoIterator<Item = impl std::borrow::Borrow<SimReport>>,
) -> (u64, f64, f64) {
    let (mut cycles, mut cpu) = (0u64, 0f64);
    for r in reports {
        let r = r.borrow();
        cycles += r.cycles;
        cpu += r.cpu_secs;
    }
    let rate = if cpu > 0.0 { cycles as f64 / cpu } else { 0.0 };
    (cycles, cpu, rate)
}

/// Prints the simulator-throughput (`sim-speed`) line for finished
/// reports to stderr, keeping experiment stdout machine-parseable.
pub fn print_sim_speed(reports: impl IntoIterator<Item = impl std::borrow::Borrow<SimReport>>) {
    let (cycles, cpu, rate) = sim_speed(reports);
    eprintln!("sim-speed: {rate:.0} cycles/sec ({cycles} simulated cycles in {cpu:.2}s of simulator CPU time)");
}

/// Running simulator-throughput accumulator for experiment binaries that
/// drive [`simulate`]/`Simulator` serially instead of through
/// [`simulate_matrix`]: feed it every finished report, then
/// [`print`](Self::print) the `sim-speed` line on exit.
#[derive(Debug, Default, Clone)]
pub struct SpeedTally {
    cycles: u64,
    cpu: f64,
}

impl SpeedTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished report into the tally.
    pub fn add(&mut self, r: &SimReport) {
        self.cycles += r.cycles;
        self.cpu += r.cpu_secs;
    }

    /// Prints the `sim-speed` line for everything tallied (to stderr).
    pub fn print(&self) {
        let rate = if self.cpu > 0.0 {
            self.cycles as f64 / self.cpu
        } else {
            0.0
        };
        eprintln!(
            "sim-speed: {rate:.0} cycles/sec ({} simulated cycles in {:.2}s of simulator CPU time)",
            self.cycles, self.cpu
        );
    }
}

/// The port-model columns of the paper's Table 3: the single-ported
/// baseline ("~"), then True/Repl/Bank at 2, 4, 8, and 16 ports.
pub fn table3_columns() -> Vec<(String, PortConfig)> {
    let mut cols = vec![("~1".to_string(), PortConfig::Ideal { ports: 1 })];
    for p in [2usize, 4, 8, 16] {
        cols.push((format!("True-{p}"), PortConfig::Ideal { ports: p }));
        cols.push((format!("Repl-{p}"), PortConfig::Replicated { ports: p }));
        cols.push((format!("Bank-{p}"), PortConfig::banked(p as u32)));
    }
    cols
}

/// The six LBIC configurations of the paper's Table 4.
pub fn table4_columns() -> Vec<(String, PortConfig)> {
    [(2, 2), (2, 4), (4, 2), (4, 4), (8, 2), (8, 4)]
        .into_iter()
        .map(|(m, n)| (format!("{m}x{n}"), PortConfig::lbic(m, n)))
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

    #[test]
    fn simulate_matrix_matches_serial() {
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            ("a".to_string(), PortConfig::Ideal { ports: 1 }),
            ("b".to_string(), PortConfig::banked(4)),
        ];
        let matrix = simulate_matrix(&benches, Scale::Test, &configs).expect_complete();
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].len(), 2);
        for (j, (_, port)) in configs.iter().enumerate() {
            let serial = simulate(&benches[0], Scale::Test, *port).unwrap();
            assert_eq!(matrix[0][j], serial, "config {j} differs from serial");
        }
    }

    #[test]
    fn simulate_smoke() {
        let b = by_name("li").unwrap();
        let r = simulate(&b, Scale::Test, PortConfig::Ideal { ports: 4 }).unwrap();
        assert!(r.committed > 10_000);
        assert!(r.ipc() > 0.5);
    }

    #[test]
    fn matrix_survives_a_degenerate_config() {
        // banks=3 fails PortConfig validation; the cell is recorded as a
        // failure and the other cell still completes.
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            ("good".to_string(), PortConfig::Ideal { ports: 2 }),
            ("bad".to_string(), PortConfig::banked(3)),
        ];
        let run = simulate_matrix(&benches, Scale::Test, &configs);
        assert!(!run.is_complete());
        assert!(run.reports[0][0].is_some(), "good cell must complete");
        assert!(run.reports[0][1].is_none(), "bad cell must be None");
        assert_eq!(run.failures.len(), 1);
        let f = &run.failures[0];
        assert_eq!(f.bench, "li");
        assert_eq!(f.config, "bad");
        assert_eq!(f.attempts, 2, "failed jobs are retried once");
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
        let configs = vec![("i2".to_string(), PortConfig::Ideal { ports: 2 })];
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
        let configs = vec![("i2".to_string(), PortConfig::Ideal { ports: 2 })];
        let run = simulate_matrix_with(
            &benches,
            Scale::Test,
            &configs,
            CpuConfig {
                max_cycles: 50,
                ..CpuConfig::default()
            },
        );
        assert!(!run.is_complete());
        assert!(
            run.failures[0].error.contains("cycle limit"),
            "{}",
            run.failures[0].error
        );
    }

    #[test]
    fn matrix_exit_codes() {
        let clean = MatrixRun {
            reports: vec![],
            failures: vec![],
            quarantined: vec![],
            interrupted: false,
            capture_secs: 0.0,
        };
        // ExitCode lacks PartialEq; compare the Debug renderings.
        assert_eq!(
            format!("{:?}", clean.exit_code()),
            format!("{:?}", std::process::ExitCode::SUCCESS)
        );
        let boom = JobFailure {
            bench: "x".into(),
            config: "y".into(),
            attempts: 2,
            error: "boom".into(),
        };
        let dirty = MatrixRun {
            reports: vec![vec![None]],
            failures: vec![boom.clone()],
            quarantined: vec![],
            interrupted: false,
            capture_secs: 0.0,
        };
        assert_eq!(
            format!("{:?}", dirty.exit_code()),
            format!("{:?}", std::process::ExitCode::from(1))
        );
        // Quarantined-only: the campaign is as complete as its attempt
        // budget allows — a distinct exit code (3), not a hard failure.
        let quarantined = MatrixRun {
            reports: vec![vec![None]],
            failures: vec![],
            quarantined: vec![boom.clone()],
            interrupted: false,
            capture_secs: 0.0,
        };
        assert!(!quarantined.is_complete());
        assert_eq!(
            format!("{:?}", quarantined.exit_code()),
            format!("{:?}", std::process::ExitCode::from(3))
        );
        // A hard failure outranks quarantine.
        let both = MatrixRun {
            reports: vec![vec![None, None]],
            failures: vec![boom.clone()],
            quarantined: vec![boom],
            interrupted: false,
            capture_secs: 0.0,
        };
        assert_eq!(
            format!("{:?}", both.exit_code()),
            format!("{:?}", std::process::ExitCode::from(1))
        );
        let interrupted = MatrixRun {
            reports: vec![vec![None]],
            failures: vec![],
            quarantined: vec![],
            interrupted: true,
            capture_secs: 0.0,
        };
        assert!(!interrupted.is_complete());
        assert_eq!(
            format!("{:?}", interrupted.exit_code()),
            format!("{:?}", std::process::ExitCode::from(130))
        );
    }

    /// A scratch directory unique to this test process.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbdc-runner-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
        let dir = scratch_dir("interrupt");
        let journal = dir.join("run.journal");
        let _ = std::fs::remove_file(&journal);
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            ("i2".to_string(), PortConfig::Ideal { ports: 2 }),
            ("b4".to_string(), PortConfig::banked(4)),
        ];
        // Execute mode, deliberately: a pre-set latch in replay mode
        // stops at the capture phase before any cell starts (see
        // `interrupt_during_capture_phase_is_resumable`), and this test
        // is about the *cell* checkpoint path.
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            trace_mode: TraceMode::Execute,
            ..MatrixOpts::default()
        };

        // With the latch already set, every claimed cell runs exactly one
        // cycle chunk, checkpoints, and winds down — a deterministic
        // mid-run interruption.
        interrupt::reset();
        interrupt::trigger();
        let halted = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts).unwrap();
        interrupt::reset();
        assert!(halted.interrupted);
        assert!(halted.failures.is_empty());
        assert!(halted.reports[0].iter().all(Option::is_none));
        assert!(
            (0..2).any(|i| cell_snap_path(&journal, i).exists()),
            "an in-flight cell checkpoint must exist after the interrupt"
        );
        assert!(journal.exists(), "the journal is flushed on interrupt");

        // Resume runs the campaign to completion from the checkpoints.
        let resume_opts = MatrixOpts {
            resume: true,
            ..opts.clone()
        };
        let resumed = simulate_matrix_opts(&benches, Scale::Test, &configs, &resume_opts)
            .unwrap()
            .expect_complete();
        assert!(
            (0..2).all(|i| !cell_snap_path(&journal, i).exists()),
            "completed cells delete their checkpoints"
        );

        // The interrupted-then-resumed campaign equals an uninterrupted
        // one, bit for bit.
        let fresh = simulate_matrix_with(&benches, Scale::Test, &configs, CpuConfig::default())
            .expect_complete();
        assert_eq!(resumed, fresh);

        // A second resume serves every cell straight from the journal
        // (exercising the record parser) and still matches.
        let replayed = simulate_matrix_opts(&benches, Scale::Test, &configs, &resume_opts)
            .unwrap()
            .expect_complete();
        assert_eq!(replayed, fresh);
    }

    #[test]
    fn interrupt_during_capture_phase_is_resumable() {
        let _guard = latch_lock();
        let dir = scratch_dir("capture-interrupt");
        let journal = dir.join("cap.journal");
        let cache = dir.join("traces");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&cache);
        let benches = vec![by_name("li").unwrap(), by_name("compress").unwrap()];
        let configs = vec![
            ("i2".to_string(), PortConfig::Ideal { ports: 2 }),
            ("b4".to_string(), PortConfig::banked(4)),
        ];
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            trace_mode: TraceMode::Replay,
            trace_cache: Some(cache.clone()),
            ..MatrixOpts::default()
        };

        // With the latch set before the run starts, the capture phase
        // itself bails (no traces, no cache files) and no replay cell is
        // ever launched — yet the journal is flushed and resumable.
        interrupt::reset();
        interrupt::trigger();
        let halted = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts).unwrap();
        interrupt::reset();
        assert!(halted.interrupted, "capture-phase SIGINT must interrupt");
        assert_eq!(
            format!("{:?}", halted.exit_code()),
            format!("{:?}", std::process::ExitCode::from(130))
        );
        assert!(halted.failures.is_empty(), "an interrupt is not a failure");
        assert!(
            halted.reports.iter().flatten().all(Option::is_none),
            "no replay cell may start under a capture-phase interrupt"
        );
        assert!(journal.exists(), "the journal is flushed before capture");
        let captured = std::fs::read_dir(&cache).map(|d| d.count()).unwrap_or(0);
        assert_eq!(captured, 0, "no fresh capture may run under the latch");

        // Resuming with a clear latch captures the traces and completes;
        // the result equals an uninterrupted execute-mode run.
        let resume_opts = MatrixOpts {
            resume: true,
            ..opts
        };
        let resumed = simulate_matrix_opts(&benches, Scale::Test, &configs, &resume_opts)
            .unwrap()
            .expect_complete();
        let fresh = simulate_matrix_with(&benches, Scale::Test, &configs, CpuConfig::default())
            .expect_complete();
        assert_eq!(resumed, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_matrix() {
        let _guard = latch_lock();
        interrupt::reset();
        let dir = scratch_dir("mismatch");
        let journal = dir.join("m.journal");
        let benches = vec![by_name("li").unwrap()];
        let configs_a = vec![("i2".to_string(), PortConfig::Ideal { ports: 2 })];
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            ..MatrixOpts::default()
        };
        simulate_matrix_opts(&benches, Scale::Test, &configs_a, &opts)
            .unwrap()
            .expect_complete();

        // Same journal, different port configuration: refused.
        let configs_b = vec![("i4".to_string(), PortConfig::Ideal { ports: 4 })];
        let resume_opts = MatrixOpts {
            resume: true,
            ..opts
        };
        let err =
            simulate_matrix_opts(&benches, Scale::Test, &configs_b, &resume_opts).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");

        // Garbage file: refused, with the offending path named.
        std::fs::write(&journal, "not a journal\n").unwrap();
        let err =
            simulate_matrix_opts(&benches, Scale::Test, &configs_a, &resume_opts).unwrap_err();
        assert!(err.contains("not a matrix journal"), "{err}");
        assert!(err.contains("m.journal"), "{err}");
    }

    #[test]
    fn per_job_timeout_fails_hung_cells_without_retry() {
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![("i2".to_string(), PortConfig::Ideal { ports: 2 })];
        let opts = MatrixOpts {
            timeout: Some(Duration::from_nanos(1)),
            ..MatrixOpts::default()
        };
        let run = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts).unwrap();
        assert!(!run.is_complete());
        assert!(!run.interrupted);
        assert_eq!(run.failures.len(), 1);
        let f = &run.failures[0];
        assert!(f.error.starts_with("timeout"), "{}", f.error);
        assert!(f.error.contains("cycle"), "{}", f.error);
        assert_eq!(f.attempts, 1, "timed-out jobs are not retried");
    }

    #[test]
    fn journal_records_failures_for_rerun() {
        let _guard = latch_lock();
        interrupt::reset();
        let dir = scratch_dir("fail-journal");
        let journal = dir.join("f.journal");
        let benches = vec![by_name("li").unwrap()];
        // banks=3 fails PortConfig validation at build time.
        let configs = vec![
            ("good".to_string(), PortConfig::Ideal { ports: 2 }),
            ("bad".to_string(), PortConfig::banked(3)),
        ];
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            ..MatrixOpts::default()
        };
        let run = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts).unwrap();
        assert_eq!(run.failures.len(), 1);
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with(supervise::JOURNAL_HEADER), "{text}");
        assert!(text.contains("\nok 0 "), "{text}");
        assert!(text.contains("\nfail 1 "), "{text}");

        // Resuming re-runs the failed cell (and fails it again, since the
        // configuration is still degenerate) while serving the good cell
        // from the journal.
        let resumed = simulate_matrix_opts(
            &benches,
            Scale::Test,
            &configs,
            &MatrixOpts {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert!(resumed.reports[0][0].is_some());
        assert!(resumed.reports[0][1].is_none());
        assert_eq!(resumed.failures.len(), 1);
    }
}
