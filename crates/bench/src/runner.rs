//! Shared experiment machinery: scale parsing, suite-average
//! bookkeeping, and the matrix campaign API — its column type, options,
//! result type, trace capture and the in-process cell runner (the
//! campaign loop itself lives in `crate::supervise`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hbdc_core::PortConfig;
use hbdc_cpu::{
    CacheLookup, CommittedTrace, CpuConfig, SimError, SimReport, SimSnapshot, Simulator,
};
use hbdc_mem::HierarchyConfig;
use hbdc_snap::lock::evict_corrupt;
use hbdc_snap::{hash64, interrupt, StateWriter};
use hbdc_stats::summary::arithmetic_mean;
use hbdc_workloads::{Benchmark, Scale, Suite};

use crate::supervise;

/// One matrix column: its label, the machine configuration and the port
/// model every benchmark runs under in that column.
pub type Column = (String, CpuConfig, PortConfig);

// CLI parsing lives in [`crate::args`] (one shared argv scanner);
// re-exported here because the binaries import it from the runner.
pub(crate) use crate::args::usage_bail;
pub use crate::args::{
    benches_from_args, matrix_opts_from_args, parse_scale, runs_from_args, scale_from_args,
    scale_from_args_or, scale_label, threads_from_args,
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

/// One quarantined matrix cell: which cell, how many attempts it got,
/// and the error (or panic payload) that ended its last attempt.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark name of the failed cell.
    pub bench: String,
    /// Config label of the failed cell.
    pub config: String,
    /// Attempts made: a cell is quarantined once it has failed
    /// `--max-attempts` times (default 2), or at once when it times out.
    pub attempts: u32,
    /// Rendered [`SimError`], trace-capture error, or panic payload from
    /// the final attempt.
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
/// `[bench][config]` order (`None` where the cell was quarantined), plus a
/// failure record per quarantined cell.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Reports in `[bench][config]` order; `None` marks a quarantined cell
    /// (or, on an interrupted run, a checkpointed or never-started one).
    pub reports: Vec<Vec<Option<SimReport>>>,
    /// One record per quarantined cell: a cell that failed its whole
    /// `--max-attempts` budget or timed out. The campaign completed around
    /// these; rerunning the journal with a larger `--max-attempts` gives
    /// them fresh attempts.
    pub failures: Vec<JobFailure>,
    /// Whether the run was cut short by an interrupt request (SIGINT on a
    /// journaled campaign): in-flight cells were checkpointed at a cycle
    /// boundary and the journal flushed, so rerunning with the same
    /// journal continues where this run stopped.
    pub interrupted: bool,
    /// Wall-clock seconds from the start of this process's first trace
    /// capture (or trace-cache load) to the end of its last. Captures run
    /// concurrently with each other and with the replay of cells whose
    /// trace is ready, so this is the capture phase's span, not a share of
    /// the harness time. 0.0 under `--shard`, whose workers capture for
    /// themselves, and when every cell came from the journal.
    pub capture_secs: f64,
}

impl MatrixRun {
    /// Whether every cell produced a report.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && !self.interrupted
    }

    /// Prints one line per quarantined cell to stderr (no-op on a clean
    /// run).
    pub fn print_failure_summary(&self) {
        if self.failures.is_empty() {
            return;
        }
        let total = self.reports.iter().map(Vec::len).sum::<usize>();
        eprintln!(
            "{} of {total} matrix cells quarantined (rerun the journal with a larger \
             --max-attempts to retry them):",
            self.failures.len()
        );
        for f in &self.failures {
            eprintln!("  {f}");
        }
    }

    /// Unwraps a run that must be complete (golden tests, callers with no
    /// partial-output story), panicking with the failure summary if any
    /// cell was quarantined.
    ///
    /// # Panics
    ///
    /// Panics listing every failure if the run was not complete.
    pub fn expect_complete(self) -> Vec<Vec<SimReport>> {
        assert!(!self.interrupted, "matrix run was interrupted");
        assert!(
            self.failures.is_empty(),
            "matrix run has quarantined cells: {:?}",
            self.failures
        );
        self.reports
            .into_iter()
            .map(|row| row.into_iter().flatten().collect())
            .collect()
    }

    /// The exit code a binary should end with: 0 for a clean run, 3 if
    /// any cell was quarantined (the partial results were still printed),
    /// 130 — the conventional SIGINT code — if the run was interrupted
    /// and checkpointed.
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
pub(crate) const WORKER_PREFIX: &str = "hbdc-job";

/// Silences default panic output from matrix cell threads (their panics
/// are caught, recorded as failed attempts, and reported in the failure
/// summary); panics anywhere else keep the previous hook.
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

/// Runs the full (benchmark x column) matrix, returning a [`MatrixRun`]
/// with reports in `[bench][column]` order. The campaign options
/// (`--journal`, `--resume`, `--timeout-secs`, ...) are read from `argv`
/// like the rest of the matrix flags; a journal problem is a usage error
/// (reported and exit 2).
///
/// Simulations are independent, so cells run concurrently: `--threads N`
/// of them at a time (default: every available core). Progress marks go
/// to one stderr line (`.` per completed cell, `x` per failed attempt,
/// `Q` per quarantined cell, `!` per checkpointed one), followed by a
/// `sim-speed` summary line.
///
/// **Fault tolerance:** a cell that fails — a [`SimError`], a failed
/// trace capture, or a panic caught at the cell boundary — is retried
/// after a backoff until it has failed `--max-attempts` times (default
/// 2), then quarantined; the rest of the matrix still completes. One
/// diverging cell costs one cell, not a whole Table 3 overnight run.
pub fn simulate_matrix(benches: &[Benchmark], scale: Scale, configs: &[Column]) -> MatrixRun {
    simulate_matrix_opts(benches, scale, configs, &matrix_opts_from_args())
        .unwrap_or_else(|e| usage_bail(&e))
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
    /// Per-cell wall-clock budget. A cell still running when it expires
    /// is quarantined at once (never retried: a hung model hangs again)
    /// and the rest of the matrix continues. `None` disables it.
    pub timeout: Option<Duration>,
    /// Journal path. Keeps the campaign state in this file instead of in
    /// memory: every claim and result is an atomic whole-file rewrite, and
    /// SIGINT checkpoints in-flight cells instead of killing the process.
    /// An existing journal for the same matrix is always continued:
    /// completed cells are served from it, checkpointed cells resume
    /// bit-identically from their snapshots, and failed cells get the
    /// rest of their attempt budget.
    pub journal: Option<PathBuf>,
    /// Directory for the on-disk trace corpus. Captured traces are
    /// persisted here keyed by benchmark, scale, warmup, and program
    /// fingerprint, so later campaigns — and *other* experiment binaries
    /// sharing the directory — skip the capture pass entirely. `None`
    /// keeps traces in memory for this campaign only.
    pub trace_cache: Option<PathBuf>,
    /// Run each claimed cell in a re-executed worker subprocess instead of
    /// on a thread, as one of N cooperating shard processes draining the
    /// journal at [`journal`](Self::journal) (required) together under
    /// heartbeat leases. The run returns once every cell is terminal
    /// campaign-wide. Start the same command in several terminals (or on
    /// several machines sharing a filesystem with sane rename semantics)
    /// to parallelize.
    pub shard: bool,
    /// Attempts a failing cell gets, with an exponential backoff between
    /// them, before it is quarantined.
    pub max_attempts: u32,
    /// Heartbeat TTL after which another shard process may steal a lease
    /// from an unresponsive owner.
    pub lease_ttl: Duration,
    /// Hidden worker-cell mode (set only by a shard supervisor when it
    /// re-executes the binary); runs one cell and exits.
    pub worker: Option<WorkerSpec>,
}

impl Default for MatrixOpts {
    fn default() -> Self {
        Self {
            timeout: None,
            journal: None,
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

// `BUILD_ID`: the fingerprint of the simulator sources this binary was
// built from (see `build.rs`).
include!(concat!(env!("OUT_DIR"), "/build_id.rs"));

/// Content fingerprint of a matrix campaign: the simulator build
/// ([`BUILD_ID`], a hash of the simulator crates' sources), scale, each
/// benchmark's name and program (the object-byte fingerprint that also
/// keys the trace cache), and each column's label, machine configuration
/// and port parameters. A journal records the fingerprint it was
/// written under, and continuing it under any other matrix — a
/// kernel-generator or timing-model edit included — is refused rather
/// than silently mixing results.
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

/// The on-disk name of a benchmark's cached trace. The program
/// fingerprint is part of the name, so a kernel-generator change makes
/// the stale file unreachable rather than silently replayed.
fn trace_cache_path(dir: &Path, bench: &str, scale: Scale, warmup: u64, fp: u64) -> PathBuf {
    dir.join(format!(
        "{bench}-{}-w{warmup}-{fp:016x}.hbtr",
        scale_label(scale)
    ))
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
/// instructions, stopping after `cap` records (see [`capture_cap`]), or
/// loads it from the trace cache at [`MatrixOpts::trace_cache`]. Only a
/// complete capture is persisted there. A panic in the kernel
/// generator or the functional pass is caught and returned as the error,
/// so a failed capture fails that benchmark's cells with the real cause.
///
/// A corrupt or truncated cache file is **evicted** (renamed to
/// `*.corrupt`, with one warning) and the trace recaptured, so one bad
/// byte costs one capture — not a warning storm or a silent functional
/// re-parse on every later campaign.
///
/// On a journaled run a pending interrupt refuses a fresh capture (a
/// cached hit still loads: it is nearly free and keeps the continued run
/// fast); [`run_cell`] turns that refusal into a checkpoint-free
/// interrupted cell rather than a failure.
pub(crate) fn capture_trace(
    bench: &Benchmark,
    scale: Scale,
    warmup: u64,
    cap: Option<u64>,
    opts: &MatrixOpts,
) -> Result<CommittedTrace, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let body = || -> Result<CommittedTrace, String> {
        let program = bench.build(scale);
        let fp = hash64(&hbdc_isa::object::to_bytes(&program));
        let path = opts
            .trace_cache
            .as_deref()
            .map(|d| trace_cache_path(d, bench.name(), scale, warmup, fp));
        if let Some(p) = &path {
            // The fingerprint is in the file name, but a renamed or
            // hand-edited file must still not drive a replay (that case
            // reads as a miss, not corruption).
            match CommittedTrace::read_cached(p, fp, warmup) {
                CacheLookup::Hit(t) => return Ok(*t),
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
        if opts.journal.is_some() && interrupt::requested() {
            return Err("interrupted before the trace capture started".to_string());
        }
        let t = CommittedTrace::capture(&program, warmup, cap).map_err(|e| e.to_string())?;
        // A capped stream serves only columns this capped; the cache
        // serves any column, so it keeps complete streams alone.
        if let Some(p) = path.as_ref().filter(|_| t.is_complete()) {
            let persisted = p
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .map_err(|e| e.to_string())
                .and_then(|()| t.write_to_path(p).map_err(|e| e.to_string()));
            if let Err(e) = persisted {
                eprintln!("warning: cannot persist trace {}: {e}", p.display());
            }
        }
        Ok(t)
    };
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| Err(panic_message(payload)))
}

/// One matrix cell's outcome as an executor reports it.
#[derive(Debug)]
pub(crate) enum JobOutcome {
    /// The simulation finished and produced a report.
    Done(Box<SimReport>),
    /// The simulation, its setup, or its trace capture failed; the
    /// rendered error.
    Failed(String),
    /// The cell overran its wall-clock budget; the rendered error.
    TimedOut(String),
    /// An interrupt was requested; the in-flight state (if the cell had
    /// started simulating) was checkpointed to the cell's snapshot file.
    Interrupted,
}

/// Everything an executor needs to run one matrix cell.
#[derive(Clone, Copy)]
pub(crate) struct CellJob<'a> {
    /// The benchmark's captured trace, or why its capture failed.
    pub(crate) trace: &'a Result<CommittedTrace, String>,
    pub(crate) port: PortConfig,
    pub(crate) cpu_cfg: CpuConfig,
    pub(crate) timeout: Option<Duration>,
    /// Journaled runs only: where the cell checkpoints on interrupt, and
    /// resumes from when a checkpoint is already there.
    pub(crate) checkpoint: Option<&'a Path>,
}

/// Runs one matrix cell by replaying its benchmark's trace. Plain cells
/// run straight to completion; cells with a timeout or a checkpoint path
/// run in [`CHUNK_CYCLES`]-cycle slices, polling the interrupt latch and
/// the wall clock between slices. Panics anywhere inside are caught and
/// rendered as failures.
pub(crate) fn run_cell(job: CellJob<'_>) -> JobOutcome {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let CellJob {
        trace,
        port,
        cpu_cfg,
        timeout,
        checkpoint,
    } = job;
    let trace = match trace {
        Ok(t) => t,
        // A capture refused under a pending interrupt stops the cell; it
        // does not count against the cell's attempts.
        Err(_) if checkpoint.is_some() && interrupt::requested() => return JobOutcome::Interrupted,
        Err(e) => return JobOutcome::Failed(e.clone()),
    };

    let body = || -> JobOutcome {
        let fresh = || Simulator::try_from_trace(trace, cpu_cfg, HierarchyConfig::default(), port);
        if checkpoint.is_none() && timeout.is_none() {
            // Fast path: nothing to poll for between cycle chunks.
            return match fresh().and_then(|mut sim| sim.run()) {
                Ok(r) => JobOutcome::Done(Box::new(r)),
                Err(e) => JobOutcome::Failed(e.to_string()),
            };
        }
        let resumed = checkpoint.filter(|p| p.exists()).map(|p| {
            SimSnapshot::read_from_path(p)
                .map_err(SimError::from)
                .and_then(|snap| Simulator::resume(&snap))
                .map_err(|e| (p, e))
        });
        let built = match resumed {
            Some(Ok(sim)) => Ok(sim),
            // A stale or corrupt cell checkpoint costs a fresh run of that
            // one cell, never the campaign. Evict the bad file so the next
            // run doesn't trip over the same bytes (and the evidence
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
                    return JobOutcome::TimedOut(format!(
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

/// [`simulate_matrix`] with the full campaign option set — the one
/// campaign engine under every matrix entry point (its loop, lease
/// protocol and worker mode are described in `crate::supervise`).
///
/// Cells run on `--threads` executors: scoped threads replaying their
/// benchmark's trace in this process (each benchmark with cells left
/// captures its trace — one per distinct warmup among the columns — or
/// loads it from [`MatrixOpts::trace_cache`], on its own thread as the
/// run starts) or, with [`MatrixOpts::shard`],
/// re-executed worker subprocesses. A failed attempt is retried after an
/// exponential backoff until [`MatrixOpts::max_attempts`] is spent, then
/// the cell is quarantined; a timed-out cell is quarantined at once.
///
/// With [`MatrixOpts::journal`], Ctrl-C checkpoints in-flight cells to
/// `<journal>.cell<idx>.snap` at the next cycle-chunk boundary and the
/// run returns with [`MatrixRun::interrupted`] set. Running again on the
/// journal continues it: `ok` cells are served from it, checkpointed
/// cells resume bit-identically, and failed cells get the rest of their
/// attempts — the continued campaign's reports equal an uninterrupted
/// run's.
///
/// # Errors
///
/// Fails only on journal problems: an unreadable or corrupt journal, a
/// fingerprint mismatch (the journal belongs to a different matrix), an
/// I/O failure writing it, or `--shard` without a journal.
pub fn simulate_matrix_opts(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[Column],
    opts: &MatrixOpts,
) -> Result<MatrixRun, String> {
    use std::sync::OnceLock;

    // Worker-cell mode (a shard supervisor re-executed this binary): run
    // the one assigned cell and exit through the out file. Checked before
    // everything else so a worker never becomes a supervisor itself.
    if let Some(spec) = &opts.worker {
        supervise::run_worker(benches, scale, configs, opts, spec);
    }
    let hash = matrix_hash(benches, scale, configs);
    if opts.shard {
        let journal = opts.journal.as_deref().ok_or_else(|| {
            "--shard requires --journal PATH (the journal is the shared campaign state)".to_string()
        })?;
        return supervise::drive(benches, configs, hash, opts, None, &|idx| {
            supervise::run_in_worker(idx, journal, hash, opts.timeout)
        });
    }

    install_worker_panic_hook();
    // Per (benchmark, distinct warmup): its trace (or capture error) and
    // when the capture ran. `drive` starts every pending benchmark's
    // captures at once, so a cell waits only on its own trace.
    let mut warmups: Vec<u64> = configs.iter().map(|(_, cpu, _)| cpu.warmup_insts).collect();
    warmups.sort_unstable();
    warmups.dedup();
    let traces: Vec<OnceLock<_>> = (0..benches.len() * warmups.len())
        .map(|_| OnceLock::new())
        .collect();
    let trace = |b: usize, warmup: u64| {
        let capture = || {
            let start = Instant::now();
            let cap = capture_cap(configs, warmup);
            let trace = capture_trace(&benches[b], scale, warmup, cap, opts);
            (trace, start..Instant::now())
        };
        let w = warmups
            .binary_search(&warmup)
            .expect("every column's warmup is listed");
        &traces[b * warmups.len() + w].get_or_init(capture).0
    };
    let prepare = |b: usize| {
        for &w in &warmups {
            trace(b, w);
        }
    };
    let mut run = supervise::drive(benches, configs, hash, opts, Some(&prepare), &|idx| {
        let checkpoint = opts.journal.as_deref().map(|j| cell_snap_path(j, idx));
        let (_, cpu_cfg, port) = &configs[idx % configs.len()];
        run_cell(CellJob {
            trace: trace(idx / configs.len(), cpu_cfg.warmup_insts),
            port: *port,
            cpu_cfg: *cpu_cfg,
            timeout: opts.timeout,
            checkpoint: checkpoint.as_deref(),
        })
    })?;
    let spans: Vec<_> = traces.iter().filter_map(OnceLock::get).collect();
    let first = spans.iter().map(|(_, s)| s.start).min();
    if let (Some(first), Some(last)) = (first, spans.iter().map(|(_, s)| s.end).max()) {
        run.capture_secs = (last - first).as_secs_f64();
    }
    let captured = spans.iter().filter(|(t, _)| t.is_ok()).count();
    if captured > 0 {
        eprintln!(
            "trace-capture: {:.2}s for {captured} trace{}",
            run.capture_secs,
            if captured == 1 { "" } else { "s" }
        );
    }
    Ok(run)
}

/// Summarizes simulator throughput over a set of finished reports (see
/// [`SpeedTally::add`] for which count). Returns `(simulated cycles, cpu
/// seconds, cycles per cpu-second)`.
pub fn sim_speed(
    reports: impl IntoIterator<Item = impl std::borrow::Borrow<SimReport>>,
) -> (u64, f64, f64) {
    let mut tally = SpeedTally::new();
    for r in reports {
        tally.add(r.borrow());
    }
    tally.speed()
}

/// Running simulator-throughput accumulator: feed it every finished
/// report, then [`print`](Self::print) the `sim-speed` line on exit (to
/// stderr, keeping experiment stdout machine-parseable).
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

    /// Folds one finished report into the tally. A report without host
    /// timing (`cpu_secs` 0: parsed back from a journal or a worker's
    /// record) adds nothing, so cells served from a journal add no free
    /// cycles.
    pub fn add(&mut self, r: &SimReport) {
        if r.cpu_secs > 0.0 {
            self.cycles += r.cycles;
            self.cpu += r.cpu_secs;
        }
    }

    fn speed(&self) -> (u64, f64, f64) {
        let rate = if self.cpu > 0.0 {
            self.cycles as f64 / self.cpu
        } else {
            0.0
        };
        (self.cycles, self.cpu, rate)
    }

    /// Prints the `sim-speed` line for everything tallied (to stderr).
    pub fn print(&self) {
        let (cycles, cpu, rate) = self.speed();
        eprintln!("sim-speed: {rate:.0} cycles/sec ({cycles} simulated cycles in {cpu:.2}s of simulator CPU time)");
    }
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
    use crate::supervise::CellState;
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
        // full stream, and a cut-off stream is kept out of the cache.
        let bound = capped.capture_bound().unwrap();
        assert_eq!(capture_cap(&configs, 0), Some(bound));
        let cache = scratch_dir("capped-capture");
        let opts = MatrixOpts {
            trace_cache: Some(cache.clone()),
            ..MatrixOpts::default()
        };
        let trace = capture_trace(&benches[0], Scale::Test, 0, Some(bound), &opts).unwrap();
        assert_eq!(trace.records(), bound);
        assert!(!trace.is_complete());
        let run = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts).unwrap();
        assert!(!run.is_complete());
        assert!(
            run.failures[0].error.contains("cycle limit"),
            "{}",
            run.failures[0].error
        );
        assert_eq!(std::fs::read_dir(&cache).unwrap().count(), 0);
        std::fs::remove_dir_all(&cache).unwrap();
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
        let by_insts = CpuConfig::with_max_insts(500);
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
        let clean = MatrixRun {
            reports: vec![],
            failures: vec![],
            interrupted: false,
            capture_secs: 0.0,
        };
        // ExitCode lacks PartialEq; compare the Debug renderings.
        assert_eq!(
            format!("{:?}", clean.exit_code()),
            format!("{:?}", std::process::ExitCode::SUCCESS)
        );
        // Quarantined cells: the campaign is as complete as its attempt
        // budget allows — exit 3.
        let quarantined = MatrixRun {
            reports: vec![vec![None]],
            failures: vec![JobFailure {
                bench: "x".into(),
                config: "y".into(),
                attempts: 2,
                error: "boom".into(),
            }],
            interrupted: false,
            capture_secs: 0.0,
        };
        assert!(!quarantined.is_complete());
        assert_eq!(
            format!("{:?}", quarantined.exit_code()),
            format!("{:?}", std::process::ExitCode::from(3))
        );
        // An interrupt outranks quarantine.
        let interrupted = MatrixRun {
            interrupted: true,
            ..quarantined
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

    /// An uninterrupted in-memory run that warms the trace cache at
    /// `cache`: the reference for interrupted runs sharing that cache.
    fn warm_run(benches: &[Benchmark], configs: &[Column], cache: &Path) -> Vec<Vec<SimReport>> {
        let opts = MatrixOpts {
            trace_cache: Some(cache.to_path_buf()),
            ..MatrixOpts::default()
        };
        simulate_matrix_opts(benches, Scale::Test, configs, &opts)
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
        let cache = dir.join("traces");
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![
            column("i2", PortConfig::Ideal { ports: 2 }),
            column("b4", PortConfig::banked(4)),
        ];

        // An uninterrupted run warms the trace cache (and is the
        // reference). With the cache warm, a pre-set latch refuses no
        // capture (contrast `interrupt_during_capture_phase_is_resumable`),
        // so every claimed cell replays exactly one cycle chunk,
        // checkpoints, and winds down — a deterministic mid-run
        // interruption of replay cells.
        let fresh = warm_run(&benches, &configs, &cache);
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            trace_cache: Some(cache),
            ..MatrixOpts::default()
        };
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

        // Rerunning on the journal runs the campaign to completion from
        // the checkpoints.
        let resumed = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts)
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
        let replayed = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts)
            .unwrap()
            .expect_complete();
        assert_eq!(replayed, fresh);
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
        let cache = dir.join("traces");
        let benches = vec![
            Benchmark::custom("tiny", Suite::Int, tiny),
            by_name("li").unwrap(),
        ];
        let configs = vec![column("i2", PortConfig::Ideal { ports: 2 })];
        // Warm the trace cache so the latch refuses no capture below.
        let fresh = warm_run(&benches, &configs, &cache);
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            trace_cache: Some(cache),
            ..MatrixOpts::default()
        };

        interrupt::trigger();
        let halted = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts).unwrap();
        interrupt::reset();
        assert!(halted.interrupted);
        assert!(halted.reports[0][0].is_some(), "the tiny cell completes");
        assert!(halted.reports[1][0].is_none(), "the li cell does not");

        // Mark the completed cell's journal record, so a report that comes
        // back with the mark was served from the journal, not re-run.
        let hash = matrix_hash(&benches, Scale::Test, &configs);
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut state = supervise::parse_journal(&text, &journal, hash, 2).unwrap();
        let CellState::Ok { record, .. } = &mut state.cells[0] else {
            panic!("cell 0 must be journaled as ok: {text}");
        };
        let mut marked = SimReport::from_record(record).unwrap();
        marked.port_label = "served-from-journal".into();
        *record = marked.to_record();
        std::fs::write(&journal, supervise::render_journal(&state)).unwrap();

        // The same options again: the journal is continued, not
        // truncated.
        let continued = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts)
            .unwrap()
            .expect_complete();
        assert_eq!(continued[0][0].port_label, "served-from-journal");
        assert_eq!(continued[1][0], fresh[1][0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupt_during_capture_phase_is_resumable() {
        let _guard = latch_lock();
        let dir = scratch_dir("capture-interrupt");
        let journal = dir.join("cap.journal");
        let cache = dir.join("traces");
        let benches = vec![by_name("li").unwrap(), by_name("compress").unwrap()];
        let configs = vec![
            column("i2", PortConfig::Ideal { ports: 2 }),
            column("b4", PortConfig::banked(4)),
        ];
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            trace_cache: Some(cache.clone()),
            ..MatrixOpts::default()
        };

        // With the latch set before the run starts and the cache cold,
        // every claimed cell's capture is refused (no traces, no cache
        // files) and no cell replays — yet the journal is flushed and
        // continuable.
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

        // Rerunning with a clear latch captures the traces and completes;
        // the result equals an uninterrupted run.
        let resumed = simulate_matrix_opts(&benches, Scale::Test, &configs, &opts)
            .unwrap()
            .expect_complete();
        let fresh = simulate_matrix(&benches, Scale::Test, &configs).expect_complete();
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
        let configs_a = vec![column("i2", PortConfig::Ideal { ports: 2 })];
        let opts = MatrixOpts {
            journal: Some(journal.clone()),
            ..MatrixOpts::default()
        };
        simulate_matrix_opts(&benches, Scale::Test, &configs_a, &opts)
            .unwrap()
            .expect_complete();

        // Same journal, different port configuration: refused.
        let configs_b = vec![column("i4", PortConfig::Ideal { ports: 4 })];
        let err = simulate_matrix_opts(&benches, Scale::Test, &configs_b, &opts).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");

        // Same name and columns, edited kernel program: refused too, not
        // served the old program's reports.
        fn edited(_: Scale) -> String {
            hbdc_workloads::MicroKernel::SameLineBurst.source(4)
        }
        let benches_edited = vec![Benchmark::custom("li", Suite::Int, edited)];
        let err =
            simulate_matrix_opts(&benches_edited, Scale::Test, &configs_a, &opts).unwrap_err();
        assert!(err.contains("does not match"), "{err}");

        // The same matrix journaled by a binary built from other
        // simulator sources: refused too.
        let stamped = build_matrix_hash(BUILD_ID ^ 1, &benches, Scale::Test, &configs_a);
        let state = supervise::JournalState::fresh(stamped, 1);
        std::fs::write(&journal, supervise::render_journal(&state)).unwrap();
        let err = simulate_matrix_opts(&benches, Scale::Test, &configs_a, &opts).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");

        // Garbage file: refused, with the offending path named.
        std::fs::write(&journal, "not a journal\n").unwrap();
        let err = simulate_matrix_opts(&benches, Scale::Test, &configs_a, &opts).unwrap_err();
        assert!(err.contains("not a matrix journal"), "{err}");
        assert!(err.contains("m.journal"), "{err}");
    }

    #[test]
    fn per_job_timeout_fails_hung_cells_without_retry() {
        let benches = vec![by_name("li").unwrap()];
        let configs = vec![column("i2", PortConfig::Ideal { ports: 2 })];
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
        assert_eq!(f.attempts, 1, "timed-out jobs are not retried: {f}");
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
            column("good", PortConfig::Ideal { ports: 2 }),
            column("bad", PortConfig::banked(3)),
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
        // The default budget of 2 is spent: quarantined, as under --shard.
        assert!(text.contains("\nquar 1 2 "), "{text}");

        // A budget of 3 revives the quarantined cell for one more attempt
        // (it fails again, since the configuration is still degenerate)
        // while the good cell is served from the journal.
        let revived = simulate_matrix_opts(
            &benches,
            Scale::Test,
            &configs,
            &MatrixOpts {
                max_attempts: 3,
                ..opts
            },
        )
        .unwrap();
        assert!(revived.reports[0][0].is_some());
        assert!(revived.reports[0][1].is_none());
        assert_eq!(revived.failures.len(), 1);
        assert_eq!(revived.failures[0].attempts, 3);
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.contains("\nquar 1 3 "), "{text}");
    }
}
