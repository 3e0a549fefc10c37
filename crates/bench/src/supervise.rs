//! The matrix campaign engine: the journal v2 state machine and lease
//! protocol, the one campaign loop every matrix run goes through, its two
//! executors (scoped threads, or re-executed worker subprocesses under
//! `--shard`), and the hidden worker-cell mode those subprocesses run in.
//!
//! # The loop
//!
//! [`drive`] keeps the campaign as a [`JournalState`]: in the journal
//! file under `--journal`, in memory otherwise. It claims cells with
//! [`claim_cell`], runs each on the executor, and records every outcome
//! as it arrives on one channel. Both executors follow one failure model:
//! a failed attempt is retried after an exponential backoff until the
//! `--max-attempts` budget (default 2) is spent, then the cell is
//! quarantined; a timed-out cell is quarantined at once. A journal that
//! already exists for the same matrix is continued.
//!
//! # The protocol
//!
//! N independent processes started with `--journal J --shard` drain one
//! campaign cooperatively. The journal is the only shared state: every
//! mutation is a read-modify-write of the whole file under an exclusive
//! advisory lock on `J.lock` (see [`hbdc_snap::lock::FileLock`]),
//! finished with an atomic rename — so the journal is never torn, and a
//! process killed at any instant loses at most its own uncommitted
//! claim.
//!
//! Per cell, the journal records one of:
//!
//! * `ok <idx> <attempts> <report-record>` — terminal. First writer
//!   wins; a second worker finishing the same cell (possible after a
//!   lease steal from a stalled-but-alive owner) discards its result,
//!   which is bit-identical anyway because simulations are
//!   deterministic.
//! * `lease <idx> <pid> <heartbeat-ms> <attempt>` — the cell is being
//!   run by `pid`'s worker. Supervisors refresh their leases'
//!   heartbeats; a lease whose owner is dead ([`pid_alive`]) or whose
//!   heartbeat is older than the TTL is *stolen* (re-leased, same
//!   attempt number) by any supervisor looking for work.
//! * `fail <idx> <attempts> <not-before-ms> <error>` — a concluded,
//!   failed attempt. Claimable again once the wall clock passes
//!   `not-before` (exponential backoff), until the attempt budget is
//!   exhausted.
//! * `quar <idx> <attempts> <error>` — quarantined: the cell failed
//!   `--max-attempts` times (or timed out, which is never retried — a
//!   hung model hangs again). The campaign completes around it and
//!   reports it; a later run revives it while its attempts are below
//!   that run's `--max-attempts` (see [`JournalState::revive`]).
//!
//! Under `--shard` each claimed cell runs in a **child subprocess**: the
//! supervisor re-executes its own binary with the original arguments plus
//! hidden `--worker-cell`/`--worker-out`/`--worker-matrix` flags, and the
//! worker branch in `simulate_matrix_opts` runs exactly that one cell
//! and writes its outcome to the out file (atomically, so a kill
//! mid-write reads as "no result"). A SIGKILL, abort, or OOM kill in a
//! cell therefore costs one attempt of one cell — never the supervisor.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hbdc_cpu::SimReport;
use hbdc_snap::interrupt;
use hbdc_snap::lock::{pid_alive, send_signal, FileLock, SIGINT};
use hbdc_snap::write_atomic;
use hbdc_workloads::{Benchmark, Scale};

use crate::runner::{
    capture_cap, capture_trace, cell_snap_path, matrix_hash, run_cell, threads_from_args, CellJob,
    Column, JobFailure, JobOutcome, MatrixOpts, MatrixRun, SpeedTally, WorkerSpec, WORKER_PREFIX,
};

/// First line of every matrix run journal.
pub(crate) const JOURNAL_HEADER: &str = "hbdc-journal v2";

/// Default attempt budget before a cell is quarantined: one retry.
pub(crate) const DEFAULT_MAX_ATTEMPTS: u32 = 2;

/// Default lease heartbeat TTL before other supervisors steal the cell.
pub(crate) const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(10);

/// Base retry backoff after a failed attempt (doubles per attempt, capped
/// at 16x). Overridable via `HBDC_RETRY_BACKOFF_MS` so the chaos harness
/// can keep its rounds short.
const DEFAULT_BACKOFF_MS: u64 = 500;

/// How long the campaign loop waits for an outcome before it re-checks
/// the interrupt latch, its lease heartbeats, backoff deadlines and
/// other shard processes' progress.
const TICK: Duration = Duration::from_millis(50);

/// How often a worker subprocess is polled for exit, timeout and
/// interrupt forwarding.
const WORKER_POLL: Duration = Duration::from_millis(10);

/// One cell's standing in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CellState {
    /// Never attempted (or released by an interrupted run).
    Empty,
    /// Being run by process `pid`.
    Lease {
        /// Supervisor process that claimed the cell.
        pid: u32,
        /// Last heartbeat, in milliseconds since the Unix epoch.
        heartbeat_ms: u64,
        /// Which attempt this lease is running (1-based).
        attempt: u32,
    },
    /// Completed; `record` is the [`SimReport::to_record`] line.
    Ok { attempts: u32, record: String },
    /// A concluded failed attempt, claimable again after `not_before_ms`.
    Fail {
        attempts: u32,
        not_before_ms: u64,
        error: String,
    },
    /// Failed out of its attempt budget; terminal for this campaign.
    Quarantined { attempts: u32, error: String },
}

impl CellState {
    fn is_terminal(&self) -> bool {
        matches!(self, CellState::Ok { .. } | CellState::Quarantined { .. })
    }
}

/// The whole journal, decoded: fingerprint plus one [`CellState`] per
/// matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JournalState {
    pub(crate) hash: u64,
    pub(crate) cells: Vec<CellState>,
}

impl JournalState {
    pub(crate) fn fresh(hash: u64, total: usize) -> Self {
        Self {
            hash,
            cells: vec![CellState::Empty; total],
        }
    }

    /// Records a completed cell. First `ok` wins: returns `false` (and
    /// changes nothing) if the cell is already `ok` — the caller's
    /// duplicate result is discarded.
    pub(crate) fn set_ok(&mut self, idx: usize, attempts: u32, record: String) -> bool {
        if matches!(self.cells[idx], CellState::Ok { .. }) {
            return false;
        }
        self.cells[idx] = CellState::Ok { attempts, record };
        true
    }

    /// Records a concluded failed attempt; quarantines the cell instead
    /// when the attempt budget is spent. Returns `true` if this
    /// transition quarantined the cell. A cell already `ok` (another
    /// supervisor finished it first) is left alone.
    pub(crate) fn set_fail(
        &mut self,
        idx: usize,
        attempts: u32,
        not_before_ms: u64,
        error: String,
        max_attempts: u32,
    ) -> bool {
        if matches!(self.cells[idx], CellState::Ok { .. }) {
            return false;
        }
        if attempts >= max_attempts {
            self.cells[idx] = CellState::Quarantined { attempts, error };
            true
        } else {
            self.cells[idx] = CellState::Fail {
                attempts,
                not_before_ms,
                error,
            };
            false
        }
    }

    /// Quarantines a cell outright (timeouts: never retried).
    pub(crate) fn set_quarantined(&mut self, idx: usize, attempts: u32, error: String) {
        if matches!(self.cells[idx], CellState::Ok { .. }) {
            return;
        }
        self.cells[idx] = CellState::Quarantined { attempts, error };
    }

    /// Releases a lease this process holds (interrupt wind-down), so
    /// another shard process — or a rerun — can claim the cell at once
    /// instead of waiting out the TTL.
    pub(crate) fn release_lease(&mut self, idx: usize, pid: u32) {
        if matches!(self.cells[idx], CellState::Lease { pid: p, .. } if p == pid) {
            self.cells[idx] = CellState::Empty;
        }
    }

    /// Refreshes the heartbeat on every lease `pid` holds over `running`.
    pub(crate) fn heartbeat(&mut self, pid: u32, now_ms: u64, running: &[usize]) {
        for &idx in running {
            if let CellState::Lease {
                pid: p,
                heartbeat_ms,
                ..
            } = &mut self.cells[idx]
            {
                if *p == pid {
                    *heartbeat_ms = now_ms;
                }
            }
        }
    }

    /// Gives every quarantined cell that has attempts left under
    /// `max_attempts` those attempts: it becomes a failed cell claimable
    /// at once. A run applies its budget to the journal it starts from,
    /// so a cell quarantined during the run (a timeout) stays quarantined
    /// until a rerun.
    pub(crate) fn revive(&mut self, max_attempts: u32) {
        for cell in &mut self.cells {
            if let CellState::Quarantined { attempts, error } = cell {
                if *attempts < max_attempts {
                    *cell = CellState::Fail {
                        attempts: *attempts,
                        not_before_ms: 0,
                        error: std::mem::take(error),
                    };
                }
            }
        }
    }

    /// Whether every cell has reached a terminal state (`ok` or
    /// quarantined) — the campaign-complete condition.
    pub(crate) fn all_terminal(&self) -> bool {
        self.cells.iter().all(CellState::is_terminal)
    }
}

/// Everything [`claim_cell`] needs to judge eligibility, with liveness
/// injected so tests can run the state machine deterministically.
pub(crate) struct ClaimCtx<'a> {
    pub(crate) now_ms: u64,
    pub(crate) pid: u32,
    pub(crate) lease_ttl_ms: u64,
    pub(crate) max_attempts: u32,
    /// Cells this process is running or has queued to run (their leases
    /// are ours and live; never reclaim them).
    pub(crate) running: &'a [usize],
    pub(crate) is_alive: &'a dyn Fn(u32) -> bool,
}

/// Claims the lowest-indexed eligible cell: writes a lease for it into
/// `state` and returns `(cell index, attempt number)`. Eligible are
/// never-attempted cells, failed cells past their backoff deadline with
/// attempts to spare, and leases whose owner is dead or heartbeat-expired
/// (stolen at the same attempt number — the attempt never concluded).
/// Quarantined cells are claimable only once [`JournalState::revive`]
/// has turned them back into failed ones.
pub(crate) fn claim_cell(state: &mut JournalState, ctx: &ClaimCtx<'_>) -> Option<(usize, u32)> {
    for idx in 0..state.cells.len() {
        let attempt = match &state.cells[idx] {
            CellState::Empty => 1,
            CellState::Fail {
                attempts,
                not_before_ms,
                ..
            } if *attempts < ctx.max_attempts && ctx.now_ms >= *not_before_ms => attempts + 1,
            CellState::Lease { pid, attempt, .. }
                if *pid == ctx.pid && !ctx.running.contains(&idx) =>
            {
                // Our own pid but not our own child: a stale lease from a
                // previous incarnation of this pid. Reclaim it.
                *attempt
            }
            CellState::Lease {
                pid,
                heartbeat_ms,
                attempt,
            } if *pid != ctx.pid
                && (!(ctx.is_alive)(*pid)
                    || ctx.now_ms >= heartbeat_ms.saturating_add(ctx.lease_ttl_ms)) =>
            {
                // Steal: the owner died, or is wedged/stopped and let its
                // heartbeat lapse. The attempt never reported an outcome,
                // so it keeps its number.
                *attempt
            }
            _ => continue,
        };
        state.cells[idx] = CellState::Lease {
            pid: ctx.pid,
            heartbeat_ms: ctx.now_ms,
            attempt,
        };
        return Some((idx, attempt));
    }
    None
}

/// Folds a failure message onto one journal line (`\` / newline / tab
/// escaped); [`unescape_error`] inverts it.
pub(crate) fn escape_error(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

/// Inverse of [`escape_error`]. Lenient on unknown escapes (kept
/// verbatim) so a hand-edited journal still loads.
pub(crate) fn unescape_error(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Renders the journal file image: header, fingerprint, cell count, one
/// line per non-empty cell.
pub(crate) fn render_journal(state: &JournalState) -> String {
    let mut out = format!(
        "{JOURNAL_HEADER}\nmatrix {:016x}\ncells {}\n",
        state.hash,
        state.cells.len()
    );
    for (idx, cell) in state.cells.iter().enumerate() {
        match cell {
            CellState::Empty => {}
            CellState::Lease {
                pid,
                heartbeat_ms,
                attempt,
            } => out.push_str(&format!("lease {idx} {pid} {heartbeat_ms} {attempt}\n")),
            CellState::Ok { attempts, record } => {
                out.push_str(&format!("ok {idx} {attempts} {record}\n"));
            }
            CellState::Fail {
                attempts,
                not_before_ms,
                error,
            } => out.push_str(&format!(
                "fail {idx} {attempts} {not_before_ms} {}\n",
                escape_error(error)
            )),
            CellState::Quarantined { attempts, error } => {
                out.push_str(&format!("quar {idx} {attempts} {}\n", escape_error(error)));
            }
        }
    }
    out
}

/// Parses and validates a journal image against this run's matrix: the
/// header, fingerprint, and cell count must all match. Corruption is
/// handled asymmetrically: a malformed **final** line is dropped with a
/// warning (the cell re-runs — a half-written tail must not brick the
/// campaign), while a malformed line anywhere else is an error, because
/// silently skipping interior records could resurrect completed work.
/// A duplicate record for a cell keeps the first and warns.
pub(crate) fn parse_journal(
    text: &str,
    path: &Path,
    hash: u64,
    total: usize,
) -> Result<JournalState, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(JOURNAL_HEADER) => {}
        Some(other) => {
            return Err(format!(
                "{}: not a matrix journal (first line `{other}`, expected `{JOURNAL_HEADER}`)",
                path.display()
            ))
        }
        None => return Err(format!("{}: journal is empty", path.display())),
    }
    let found_hash = lines
        .next()
        .and_then(|l| l.strip_prefix("matrix "))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("{}: malformed `matrix` header line", path.display()))?;
    if found_hash != hash {
        return Err(format!(
            "{}: journal fingerprint {found_hash:016x} does not match this run's {hash:016x} \
             (different simulator build, benchmarks or kernel programs, scale, port configs, or machine config); refusing to resume",
            path.display()
        ));
    }
    let cells = lines
        .next()
        .and_then(|l| l.strip_prefix("cells "))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| format!("{}: malformed `cells` header line", path.display()))?;
    if cells != total {
        return Err(format!(
            "{}: journal covers {cells} cells, this run has {total}",
            path.display()
        ));
    }

    let body: Vec<&str> = lines.collect();
    let last_content = body.iter().rposition(|l| !l.is_empty());
    let mut state = JournalState::fresh(hash, total);
    for (lineno, line) in body.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_record_line(line, total) {
            Ok((idx, cell)) => {
                if state.cells[idx] != CellState::Empty {
                    eprintln!(
                        "warning: {}:{}: duplicate record for cell {idx}; keeping the first",
                        path.display(),
                        lineno + 4
                    );
                    continue;
                }
                state.cells[idx] = cell;
            }
            Err(what) => {
                let msg = format!("{}:{}: {what}: `{line}`", path.display(), lineno + 4);
                if Some(lineno) == last_content {
                    eprintln!("warning: {msg} (torn final line dropped; the cell will re-run)");
                    continue;
                }
                return Err(msg);
            }
        }
    }
    Ok(state)
}

/// Parses one journal body line into `(cell index, state)`. Errors are
/// short descriptions; the caller adds file/line context.
fn parse_record_line(line: &str, total: usize) -> Result<(usize, CellState), String> {
    let mut parts = line.splitn(2, ' ');
    let tag = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("");
    let mut fields = rest.splitn(
        match tag {
            "ok" | "quar" => 3,
            "fail" | "lease" => 4,
            _ => 2,
        },
        ' ',
    );
    let mut num = |what: &'static str| -> Result<u64, String> {
        fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| what.to_string())
    };
    let idx = num("malformed cell index")? as usize;
    if idx >= total {
        return Err("cell index out of range".to_string());
    }
    let cell = match tag {
        "ok" => {
            let attempts = num("malformed attempt count")? as u32;
            let record = fields.next().unwrap_or("").to_string();
            // Validate eagerly so a bit-flipped record is caught at load,
            // where the torn-final-line policy can deal with it, rather
            // than when the table is rendered.
            SimReport::from_record(&record)?;
            CellState::Ok { attempts, record }
        }
        "fail" => {
            let attempts = num("malformed attempt count")? as u32;
            let not_before_ms = num("malformed fail deadline")?;
            let error = unescape_error(fields.next().unwrap_or(""));
            CellState::Fail {
                attempts,
                not_before_ms,
                error,
            }
        }
        "quar" => {
            let attempts = num("malformed attempt count")? as u32;
            let error = unescape_error(fields.next().unwrap_or(""));
            CellState::Quarantined { attempts, error }
        }
        "lease" => {
            let pid = num("malformed lease pid")? as u32;
            let heartbeat_ms = num("malformed lease heartbeat")?;
            let attempt = num("malformed attempt count")? as u32;
            CellState::Lease {
                pid,
                heartbeat_ms,
                attempt,
            }
        }
        _ => return Err("unknown record tag".to_string()),
    };
    Ok((idx, cell))
}

/// The lock-file sibling guarding a journal's read-modify-write cycle.
pub(crate) fn lock_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(".lock");
    PathBuf::from(name)
}

/// Milliseconds since the Unix epoch (the lease clock).
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One read-modify-write cycle on the journal under the advisory lock:
/// load (or initialize) the on-disk state, apply `f`, write the result
/// back atomically. This is the only way a journaled campaign touches the
/// journal, so every mutation observes every other process's latest
/// records.
pub(crate) fn locked_update<T>(
    path: &Path,
    hash: u64,
    total: usize,
    f: impl FnOnce(&mut JournalState) -> T,
) -> Result<T, String> {
    let _lock = FileLock::exclusive(&lock_path(path))
        .map_err(|e| format!("journal lock {}: {e}", lock_path(path).display()))?;
    let mut state = match std::fs::read_to_string(path) {
        Ok(text) => parse_journal(&text, path, hash, total)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => JournalState::fresh(hash, total),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    let out = f(&mut state);
    write_atomic(path, render_journal(&state).as_bytes())
        .map_err(|e| format!("journal {}: {e}", path.display()))?;
    Ok(out)
}

/// Retry backoff before attempt `attempts + 1`: doubles per concluded
/// attempt, capped at 16x the base.
fn backoff_ms(attempts: u32) -> u64 {
    let base = std::env::var("HBDC_RETRY_BACKOFF_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_BACKOFF_MS);
    base.saturating_mul(1u64 << (attempts.saturating_sub(1)).min(4))
}

/// The test seams the chaos harness uses to manufacture deterministic
/// worker trouble, consulted only in worker mode: whether cell `idx` is
/// in the comma-separated list in env var `var`. With
/// `HBDC_CHAOS_FAIL_CELLS="3,17"` those cells' workers fail every
/// attempt; with `HBDC_CHAOS_GARBLE_CELLS="2,5"` they write a *torn*
/// result file (half an `ok` record) and exit cleanly, exercising the
/// supervisor's [`OutFileError::Garbled`] classification end to end.
fn chaos_listed(var: &str, idx: usize) -> bool {
    std::env::var(var)
        .map(|v| v.split(',').any(|t| t.trim().parse::<usize>() == Ok(idx)))
        .unwrap_or(false)
}

// ---------------------------------------------------------------------
// The campaign loop
// ---------------------------------------------------------------------

/// Where a campaign's [`JournalState`] lives.
enum Store<'a> {
    /// The journal file: every access is one [`locked_update`], so other
    /// shard processes see each claim and result.
    File {
        path: &'a Path,
        hash: u64,
        total: usize,
    },
    /// This process's memory (no `--journal`).
    Memory(JournalState),
}

impl Store<'_> {
    fn update<T>(&mut self, f: impl FnOnce(&mut JournalState) -> T) -> Result<T, String> {
        match self {
            Store::File { path, hash, total } => locked_update(path, *hash, *total, f),
            Store::Memory(state) => Ok(f(state)),
        }
    }
}

/// Runs a matrix campaign (see the module docs): claims cells, runs each
/// through `run` on one of `--threads` scoped cell threads (default:
/// every available core), and records every outcome as it arrives.
/// `prepare`, if given, runs once per benchmark with cells left, each on
/// its own thread from the start (the in-process executor captures that
/// benchmark's trace there). Returns once every cell is terminal
/// campaign-wide, or once an interrupt has wound a journaled run down,
/// with the [`MatrixRun`] of the whole campaign.
pub(crate) fn drive(
    benches: &[Benchmark],
    configs: &[Column],
    hash: u64,
    opts: &MatrixOpts,
    prepare: Option<&(dyn Fn(usize) + Sync)>,
    run: &(dyn Fn(usize) -> JobOutcome + Sync),
) -> Result<MatrixRun, String> {
    use std::io::Write;
    use std::sync::mpsc::{channel, RecvTimeoutError};

    let total = benches.len() * configs.len();
    let pid = std::process::id();
    let threads = threads_from_args().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    let ttl_ms = opts.lease_ttl.as_millis() as u64;
    let hb_interval =
        (opts.lease_ttl / 4).clamp(Duration::from_millis(250), Duration::from_secs(2));
    let journal = opts.journal.as_deref();
    let continued = journal.is_some_and(Path::exists);
    let mut store = match journal {
        Some(path) => {
            if !continued {
                // A new journal starts without checkpoints: any left under
                // its name belong to a deleted campaign.
                for idx in 0..total {
                    let _ = std::fs::remove_file(cell_snap_path(path, idx));
                }
            }
            interrupt::install();
            Store::File { path, hash, total }
        }
        None => Store::Memory(JournalState::fresh(hash, total)),
    };
    // Create (or validate) the journal before any cell runs, so a
    // fingerprint mismatch is a usage error and a kill from here on
    // leaves a journal to continue; a raised budget revives quarantined
    // cells.
    let (served, pending) = store.update(|s| {
        s.revive(opts.max_attempts);
        let row = |b: usize| &s.cells[b * configs.len()..(b + 1) * configs.len()];
        let served = s.cells.iter().filter(|c| matches!(c, CellState::Ok { .. }));
        let pending = (0..benches.len()).filter(|&b| !row(b).iter().all(CellState::is_terminal));
        (served.count(), pending.collect::<Vec<_>>())
    })?;
    if let (true, Some(path)) = (continued, journal) {
        eprintln!(
            "continuing journal {}: {served} of {total} cells served from it",
            path.display()
        );
    }
    // Only a journaled run can checkpoint, so only it honors the latch.
    let stopping = || journal.is_some() && interrupt::requested();
    // A concluded cell's interrupt checkpoint (if any) is stale.
    let settle = |idx: usize| {
        if let Some(j) = journal {
            let _ = std::fs::remove_file(cell_snap_path(j, idx));
        }
    };

    let (tx, rx) = channel::<(usize, u32, JobOutcome)>();
    // Reports this process produced keep their host timing; cells served
    // from the journal parse back from their records.
    let mut live: Vec<Option<SimReport>> = vec![None; total];
    // Cells this process has claimed and not yet recorded.
    let mut claimed: Vec<usize> = Vec::new();
    let mut last_hb = Instant::now();
    // Checked after each wait, so a latch that is already set still lets
    // the first cells start (and checkpoint at once).
    let mut stop = false;
    // `threads` long-lived cell threads take claimed cells from one queue.
    let (jobs, queue) = channel::<(usize, u32)>();
    let queue = std::sync::Mutex::new(queue);
    std::thread::scope(|scope| -> Result<(), String> {
        // Dropping the sender on any way out ends the cell threads.
        let jobs = jobs;
        if let Some(prepare) = prepare {
            for &b in &pending {
                std::thread::Builder::new()
                    .name(format!("{WORKER_PREFIX}-prepare-{b}"))
                    .spawn_scoped(scope, move || prepare(b))
                    .map_err(|e| format!("cannot start a prepare thread: {e}"))?;
            }
        }
        for w in 0..threads {
            let (tx, queue) = (tx.clone(), &queue);
            std::thread::Builder::new()
                .name(format!("{WORKER_PREFIX}-{w}"))
                .spawn_scoped(scope, move || loop {
                    // The queue guard drops at the end of this statement,
                    // before the cell runs.
                    let next = queue.lock().ok().and_then(|q| q.recv().ok());
                    let Some((idx, attempt)) = next else { break };
                    let _ = tx.send((idx, attempt, run(idx)));
                })
                .map_err(|e| format!("cannot start a cell thread: {e}"))?;
        }
        // Each wake-up applies everything due in one journal update: the
        // outcome that woke it, a heartbeat, and claims. One claimed cell
        // waits in the queue beyond the `threads` that run, so a cell
        // thread never waits for this update before starting its next cell.
        let max_claimed = threads + 1;
        let mut arrived: Option<(usize, u32, JobOutcome)> = None;
        loop {
            let beat = !claimed.is_empty() && last_hb.elapsed() >= hb_interval;
            // A full, quiet loop has nothing to write: it just waits.
            if arrived.is_some() || beat || claimed.len() < max_claimed {
                let now = now_ms();
                let finished = store.update(|s| {
                    if let Some((idx, attempt, outcome)) = arrived.take() {
                        let mark = match outcome {
                            JobOutcome::Done(report) => {
                                s.set_ok(idx, attempt, report.to_record());
                                live[idx] = Some(*report);
                                '.'
                            }
                            JobOutcome::Failed(e) => {
                                let deadline = now.saturating_add(backoff_ms(attempt));
                                if s.set_fail(idx, attempt, deadline, e, opts.max_attempts) {
                                    'Q'
                                } else {
                                    'x'
                                }
                            }
                            // A hung model hangs again: no retry.
                            JobOutcome::TimedOut(e) => {
                                s.set_quarantined(idx, attempt, e);
                                'Q'
                            }
                            // The cell checkpointed; hand it back so a rerun
                            // (or a surviving shard) picks it up at once.
                            JobOutcome::Interrupted => {
                                s.release_lease(idx, pid);
                                '!'
                            }
                        };
                        if mark != '!' {
                            settle(idx);
                        }
                        let _ = write!(std::io::stderr(), "{mark}");
                    }
                    if beat {
                        s.heartbeat(pid, now, &claimed);
                    }
                    while !stop && claimed.len() < max_claimed {
                        let ctx = ClaimCtx {
                            now_ms: now,
                            pid,
                            lease_ttl_ms: ttl_ms,
                            max_attempts: opts.max_attempts,
                            running: &claimed,
                            is_alive: &pid_alive,
                        };
                        let Some((idx, attempt)) = claim_cell(s, &ctx) else {
                            break;
                        };
                        claimed.push(idx);
                        let _ = jobs.send((idx, attempt));
                    }
                    s.all_terminal()
                })?;
                if beat {
                    last_hb = Instant::now();
                }
                if claimed.is_empty() && (stop || finished) {
                    return Ok(());
                }
            }
            match rx.recv_timeout(TICK) {
                Ok((idx, attempt, outcome)) => {
                    claimed.retain(|&i| i != idx);
                    arrived = Some((idx, attempt, outcome));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("the loop holds a sender"),
            }
            stop = stopping();
        }
    })?;
    eprintln!();

    let interrupted = stopping();
    if let (true, Some(j)) = (interrupted, journal) {
        eprintln!(
            "interrupted: journal flushed and in-flight cells checkpointed; \
             rerun with --journal {} to continue",
            j.display()
        );
    }
    let state = store.update(|s| s.clone())?;
    let mut reports = Vec::with_capacity(benches.len());
    let mut failures = Vec::new();
    for (b, bench) in benches.iter().enumerate() {
        let mut row = Vec::with_capacity(configs.len());
        for (c, (label, ..)) in configs.iter().enumerate() {
            let idx = b * configs.len() + c;
            row.push(match &state.cells[idx] {
                CellState::Ok { record, .. } => {
                    settle(idx);
                    live[idx]
                        .take()
                        .or_else(|| SimReport::from_record(record).ok())
                }
                CellState::Quarantined { attempts, error } => {
                    failures.push(JobFailure {
                        bench: bench.name().to_string(),
                        config: label.clone(),
                        attempts: *attempts,
                        error: error.clone(),
                    });
                    None
                }
                _ => None,
            });
        }
        reports.push(row);
    }
    let run = MatrixRun {
        reports,
        failures,
        interrupted,
        capture_secs: 0.0,
    };
    let mut tally = SpeedTally::new();
    run.reports
        .iter()
        .flatten()
        .flatten()
        .for_each(|r| tally.add(r));
    tally.print();
    run.print_failure_summary();
    Ok(run)
}

// ---------------------------------------------------------------------
// The subprocess executor and worker-cell mode
// ---------------------------------------------------------------------

/// Why a worker's out file produced no usable result. The two cases are
/// operationally distinct — a [`Missing`](Self::Missing) file means the
/// worker never completed its atomic result write (SIGKILL, OOM, crash),
/// while [`Garbled`](Self::Garbled) means a write landed but its
/// contents do not parse (torn write under a dying filesystem, stray
/// process scribbling on the path) — but both charge exactly one attempt
/// against the cell: it is retried with backoff and quarantined at the
/// attempt budget, never a supervisor crash.
#[derive(Debug, PartialEq, Eq)]
enum OutFileError {
    /// No out file on disk.
    Missing,
    /// An out file exists but is empty, truncated, or corrupt; the
    /// payload explains what failed to parse.
    Garbled(String),
}

/// Parses a worker out file (`ok <record>`, `fail <error>` or `int`),
/// classifying every non-result as a typed [`OutFileError`] so the retry
/// bookkeeping can name what actually happened.
fn parse_worker_out(path: &Path) -> Result<JobOutcome, OutFileError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(OutFileError::Missing),
        Err(e) => return Err(OutFileError::Garbled(format!("unreadable: {e}"))),
    };
    let Some(line) = text.lines().next().filter(|l| !l.is_empty()) else {
        return Err(OutFileError::Garbled("empty result file".into()));
    };
    if let Some(record) = line.strip_prefix("ok ") {
        // Validate before the record enters the journal: a truncated
        // record must cost this attempt, not poison the campaign.
        return SimReport::from_record(record)
            .map(|r| JobOutcome::Done(Box::new(r)))
            .map_err(|e| OutFileError::Garbled(format!("bad ok record: {e}")));
    }
    if let Some(err) = line.strip_prefix("fail ") {
        return Ok(JobOutcome::Failed(unescape_error(err)));
    }
    if line == "int" {
        return Ok(JobOutcome::Interrupted);
    }
    let head: String = line.chars().take(40).collect();
    Err(OutFileError::Garbled(format!(
        "unrecognized result line starting `{head}`"
    )))
}

/// The subprocess executor: runs matrix cell `cell` in a re-executed
/// worker subprocess and reports its outcome. The wall-clock budget is
/// enforced from here with a kill (a wedged worker cannot police itself),
/// and a pending interrupt is forwarded to the worker as SIGINT so it
/// checkpoints.
pub(crate) fn run_in_worker(
    cell: usize,
    journal: &Path,
    hash: u64,
    timeout: Option<Duration>,
) -> JobOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);

    // A worker started under a pending interrupt could die of the
    // forwarded SIGINT before it installs its latch, costing an attempt.
    if interrupt::requested() {
        return JobOutcome::Interrupted;
    }
    let mut out = journal.as_os_str().to_owned();
    out.push(format!(
        ".w{cell}.{}.{}.out",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let out = PathBuf::from(out);
    let _ = std::fs::remove_file(&out);
    let mut child = match worker_command(cell, &out, hash)
        .and_then(|mut c| c.spawn().map_err(|e| format!("spawn worker: {e}")))
    {
        Ok(child) => child,
        Err(e) => return JobOutcome::Failed(e),
    };
    let started = Instant::now();
    let mut signalled = false;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return JobOutcome::Failed(format!("waiting for worker: {e}"));
            }
        }
        if let Some(budget) = timeout.filter(|&t| started.elapsed() >= t) {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&out);
            return JobOutcome::TimedOut(format!(
                "timeout: exceeded the {:.3}s wall-clock budget",
                budget.as_secs_f64()
            ));
        }
        if !signalled && interrupt::requested() {
            send_signal(child.id(), SIGINT);
            signalled = true;
        }
        std::thread::sleep(WORKER_POLL);
    };
    let outcome = parse_worker_out(&out);
    let _ = std::fs::remove_file(&out);
    outcome.unwrap_or_else(|kind| {
        JobOutcome::Failed(match kind {
            OutFileError::Missing => {
                format!("worker for cell {cell} died without a result ({status})")
            }
            OutFileError::Garbled(why) => {
                format!("worker for cell {cell} left a garbled result file: {why} ({status})")
            }
        })
    })
}

/// Runs exactly one matrix cell in-process and reports through the out
/// file — the body of the hidden `--worker-cell` mode every experiment
/// binary (and `hbdc-sim campaign`) reaches through
/// `simulate_matrix_opts`. Never returns: the process exits with 0
/// (done), 1 (failed), or 130 (checkpointed on SIGINT).
pub(crate) fn run_worker(
    benches: &[Benchmark],
    scale: Scale,
    configs: &[Column],
    opts: &MatrixOpts,
    spec: &WorkerSpec,
) -> ! {
    let finish = |line: String, code: i32| -> ! {
        if let Err(e) = write_atomic(&spec.out, line.as_bytes()) {
            eprintln!("worker: cannot write result {}: {e}", spec.out.display());
        }
        std::process::exit(code);
    };
    let fail = |msg: &str| -> ! { finish(format!("fail {}", escape_error(msg)), 1) };

    let hash = matrix_hash(benches, scale, configs);
    if hash != spec.matrix {
        fail(&format!(
            "worker matrix fingerprint {hash:016x} does not match the supervisor's {:016x} \
             (binary rebuilt mid-campaign?)",
            spec.matrix
        ));
    }
    let total = benches.len() * configs.len();
    if spec.cell >= total {
        fail(&format!(
            "worker cell {} out of range ({total} cells)",
            spec.cell
        ));
    }
    if chaos_listed("HBDC_CHAOS_FAIL_CELLS", spec.cell) {
        fail("chaos: injected worker failure (HBDC_CHAOS_FAIL_CELLS)");
    }
    if chaos_listed("HBDC_CHAOS_GARBLE_CELLS", spec.cell) {
        // A torn write with a clean exit status: the supervisor must not
        // trust the exit code, classify the file as garbled, and charge
        // the attempt.
        finish("ok 12\t34".to_string(), 0);
    }
    interrupt::install();

    // Workers self-serve traces from the shared on-disk corpus (capturing
    // — and healing corrupt entries — on demand).
    let (_, cpu_cfg, port) = &configs[spec.cell % configs.len()];
    let bench = &benches[spec.cell / configs.len()];
    let warmup = cpu_cfg.warmup_insts;
    let trace = capture_trace(bench, scale, warmup, capture_cap(configs, warmup), opts);
    let ckpt = opts
        .journal
        .as_deref()
        .map(|j| cell_snap_path(j, spec.cell));
    let outcome = run_cell(CellJob {
        trace: &trace,
        port: *port,
        cpu_cfg: *cpu_cfg,
        // The supervisor enforces the wall-clock budget from outside;
        // the worker only needs to poll the SIGINT latch.
        timeout: None,
        checkpoint: ckpt.as_deref(),
    });
    match outcome {
        JobOutcome::Done(r) => finish(format!("ok {}", r.to_record()), 0),
        JobOutcome::Failed(e) | JobOutcome::TimedOut(e) => fail(&e),
        JobOutcome::Interrupted => finish("int".to_string(), 130),
    }
}

/// The argv for a cell worker: this binary, the original arguments
/// (minus any stale worker flags), plus the hidden worker triple. Reusing
/// the caller's own argv is what lets the worker rebuild the identical
/// matrix — benchmarks, scale, configs, machine config — without a
/// separate job-description format.
fn worker_command(cell: usize, out: &Path, hash: u64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate our own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if matches!(
            a.as_str(),
            "--worker-cell" | "--worker-out" | "--worker-matrix"
        ) {
            let _ = args.next();
            continue;
        }
        cmd.arg(a);
    }
    cmd.arg("--worker-cell").arg(cell.to_string());
    cmd.arg("--worker-out").arg(out);
    cmd.arg("--worker-matrix").arg(format!("{hash:016x}"));
    // The worker branch exits before any table is printed, but a clean
    // null stdout keeps the contract obvious; stderr (capture warnings,
    // eviction notices) flows through to the supervisor's.
    cmd.stdout(Stdio::null());
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> String {
        "1000\t250\t200\t100\t20\t300\t30\t5\t30\t3\t400\t380\t240\t10\t4\t0\t0\t0\t0\t0\t0,100,140\tIdeal-4"
            .to_string()
    }

    fn path() -> PathBuf {
        PathBuf::from("test.journal")
    }

    #[test]
    fn worker_out_files_classify_missing_vs_garbled() {
        let dir = std::env::temp_dir().join(format!("hbdc-workerout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("cell.out");

        // Missing file: the worker never finished its atomic write.
        let _ = std::fs::remove_file(&p);
        assert_eq!(parse_worker_out(&p).unwrap_err(), OutFileError::Missing);

        // Empty, torn, scribbled, and non-UTF-8 files are all Garbled —
        // typed, with a reason, never a panic or a silent Ok.
        std::fs::write(&p, "").unwrap();
        assert!(matches!(
            parse_worker_out(&p),
            Err(OutFileError::Garbled(w)) if w.contains("empty")
        ));
        std::fs::write(&p, "ok 12\t34").unwrap();
        assert!(matches!(
            parse_worker_out(&p),
            Err(OutFileError::Garbled(w)) if w.contains("bad ok record")
        ));
        std::fs::write(&p, "lease 3 999").unwrap();
        assert!(matches!(
            parse_worker_out(&p),
            Err(OutFileError::Garbled(w)) if w.contains("unrecognized")
        ));
        std::fs::write(&p, [0xffu8, 0xfe, 0x00]).unwrap();
        assert!(matches!(
            parse_worker_out(&p),
            Err(OutFileError::Garbled(w)) if w.contains("unreadable")
        ));

        // The three legitimate shapes still parse.
        std::fs::write(&p, format!("ok {}\n", sample_record())).unwrap();
        assert!(matches!(parse_worker_out(&p), Ok(JobOutcome::Done(_))));
        std::fs::write(&p, "fail boom\n").unwrap();
        assert!(matches!(
            parse_worker_out(&p),
            Ok(JobOutcome::Failed(e)) if e == "boom"
        ));
        std::fs::write(&p, "int\n").unwrap();
        assert!(matches!(parse_worker_out(&p), Ok(JobOutcome::Interrupted)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_out_files_charge_one_attempt_toward_quarantine() {
        // The journal-side consequence of a Garbled classification: each
        // bad result costs exactly one attempt, and the cell quarantines
        // once the budget is spent — identical bookkeeping to a worker
        // that reported `fail`.
        let mut s = JournalState::fresh(0x99, 1);
        let msg = "worker for cell 0 left a garbled result file: bad ok record".to_string();
        assert!(
            !s.set_fail(0, 1, 0, msg.clone(), 2),
            "first attempt retries"
        );
        assert!(matches!(&s.cells[0], CellState::Fail { attempts: 1, .. }));
        assert!(s.set_fail(0, 2, 0, msg, 2), "budget spent: quarantined");
        assert!(matches!(&s.cells[0], CellState::Quarantined { .. }));
    }

    #[test]
    fn render_parse_roundtrip_all_states() {
        let mut s = JournalState::fresh(0xabcd, 5);
        assert!(s.set_ok(0, 2, sample_record()));
        assert!(!s.set_fail(1, 1, 123, "bank conflict\tweird\nerror \\ stuff".into(), 3));
        s.set_quarantined(2, 3, "gave up".into());
        s.cells[3] = CellState::Lease {
            pid: 4242,
            heartbeat_ms: 99999,
            attempt: 2,
        };
        let text = render_journal(&s);
        let back = parse_journal(&text, &path(), 0xabcd, 5).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn first_ok_wins_and_duplicates_are_ignored() {
        let mut s = JournalState::fresh(1, 2);
        assert!(s.set_ok(0, 1, sample_record()));
        assert!(!s.set_ok(0, 9, "stomped".into()), "second ok is discarded");
        assert!(matches!(&s.cells[0], CellState::Ok { attempts: 1, .. }));
        // A failure racing a completed cell is also discarded.
        assert!(!s.set_fail(0, 2, 0, "late failure".into(), 2));
        assert!(matches!(&s.cells[0], CellState::Ok { .. }));

        // Duplicate *lines* in the file: first wins.
        let text = format!(
            "{JOURNAL_HEADER}\nmatrix {:016x}\ncells 2\nok 0 1 {}\nok 0 7 {}\n",
            1u64,
            sample_record(),
            sample_record()
        );
        let back = parse_journal(&text, &path(), 1, 2).unwrap();
        assert!(matches!(&back.cells[0], CellState::Ok { attempts: 1, .. }));
    }

    #[test]
    fn torn_final_line_is_dropped_but_interior_corruption_is_fatal() {
        let mut s = JournalState::fresh(7, 3);
        s.set_ok(0, 1, sample_record());
        let mut text = render_journal(&s);
        // Simulate a torn tail: a half-written ok line.
        text.push_str("ok 1 1 12\t34");
        let back = parse_journal(&text, &path(), 7, 3).unwrap();
        assert!(matches!(&back.cells[0], CellState::Ok { .. }));
        assert_eq!(back.cells[1], CellState::Empty, "torn cell re-runs");

        // The same garbage in the middle is an error, not a silent skip.
        let text = format!(
            "{JOURNAL_HEADER}\nmatrix {:016x}\ncells 3\nok 1 1 12\t34\nok 0 1 {}\n",
            7u64,
            sample_record()
        );
        let err = parse_journal(&text, &path(), 7, 3).unwrap_err();
        assert!(err.contains("report record has"), "{err}");
    }

    #[test]
    fn pinned_rejection_messages() {
        let p = path();
        assert!(parse_journal("", &p, 1, 1)
            .unwrap_err()
            .contains("journal is empty"));
        let err = parse_journal("not a journal\n", &p, 1, 1).unwrap_err();
        assert!(err.contains("not a matrix journal"), "{err}");
        let err = parse_journal(&format!("{JOURNAL_HEADER}\nmatrix zz\n"), &p, 1, 1).unwrap_err();
        assert!(err.contains("malformed `matrix` header line"), "{err}");
        let err = parse_journal(
            &format!("{JOURNAL_HEADER}\nmatrix 0000000000000002\ncells 1\n"),
            &p,
            1,
            1,
        )
        .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");
        let err = parse_journal(
            &format!("{JOURNAL_HEADER}\nmatrix 0000000000000001\ncells 9\n"),
            &p,
            1,
            1,
        )
        .unwrap_err();
        assert!(
            err.contains("journal covers 9 cells, this run has 1"),
            "{err}"
        );
        // Interior bad tag / index / attempts keep their pinned wording.
        let base = format!("{JOURNAL_HEADER}\nmatrix 0000000000000001\ncells 2\n");
        for (line, what) in [
            ("zap 0 1 x", "unknown record tag"),
            ("ok nine 1 x", "malformed cell index"),
            ("ok 7 1 x", "cell index out of range"),
            ("ok 0 none x", "malformed attempt count"),
            ("lease 0 12 now 1", "malformed lease heartbeat"),
        ] {
            let text = format!("{base}{line}\nok 1 1 {}\n", sample_record());
            let err = parse_journal(&text, &p, 1, 2).unwrap_err();
            assert!(err.contains(what), "`{line}` -> {err}");
        }
    }

    #[test]
    fn escape_unescape_roundtrip() {
        for s in [
            "",
            "plain",
            "tabs\tand\nnewlines",
            "back\\slash\\n",
            "\\",
            "trail\\",
        ] {
            assert_eq!(unescape_error(&escape_error(s)), s, "{s:?}");
        }
    }

    fn ctx<'a>(
        now_ms: u64,
        running: &'a [usize],
        is_alive: &'a dyn Fn(u32) -> bool,
    ) -> ClaimCtx<'a> {
        ClaimCtx {
            now_ms,
            pid: 100,
            lease_ttl_ms: 1000,
            max_attempts: 3,
            running,
            is_alive,
        }
    }

    #[test]
    fn claim_prefers_lowest_eligible_and_respects_backoff() {
        let alive = |_: u32| true;
        let mut s = JournalState::fresh(1, 4);
        s.set_ok(0, 1, sample_record());
        s.set_fail(1, 1, 5000, "flaky".into(), 3); // backing off until t=5000
                                                   // t=100: cell 1 is backing off, cell 2 is the first claimable.
        let got = claim_cell(&mut s, &ctx(100, &[], &alive));
        assert_eq!(got, Some((2, 1)));
        // t=6000: cell 1's backoff has passed; it is claimed as attempt 2.
        let got = claim_cell(&mut s, &ctx(6000, &[2], &alive));
        assert_eq!(got, Some((1, 2)));
        // Everything else is ok, leased-by-us-and-running, or empty.
        let got = claim_cell(&mut s, &ctx(6000, &[1, 2], &alive));
        assert_eq!(got, Some((3, 1)));
        assert_eq!(claim_cell(&mut s, &ctx(6000, &[1, 2, 3], &alive)), None);
    }

    #[test]
    fn claim_steals_dead_and_expired_leases_but_not_live_ones() {
        let mut s = JournalState::fresh(1, 3);
        for (i, (pid, hb)) in [(200u32, 10_000u64), (300, 10_000), (400, 100)]
            .into_iter()
            .enumerate()
        {
            s.cells[i] = CellState::Lease {
                pid,
                heartbeat_ms: hb,
                attempt: 2,
            };
        }
        let alive = |p: u32| p != 300; // 300 is dead
                                       // t=10500 (< hb+ttl for cells 0/1): only the dead owner's lease
                                       // and the heartbeat-expired lease (cell 2) are stealable.
        let got = claim_cell(&mut s, &ctx(10_500, &[], &alive));
        assert_eq!(
            got,
            Some((1, 2)),
            "dead owner's lease stolen at same attempt"
        );
        let got = claim_cell(&mut s, &ctx(10_500, &[1], &alive));
        assert_eq!(got, Some((2, 2)), "expired heartbeat stolen");
        assert_eq!(
            claim_cell(&mut s, &ctx(10_500, &[1, 2], &alive)),
            None,
            "live fresh lease is not stealable"
        );
    }

    #[test]
    fn quarantine_after_attempt_budget_and_revival_with_a_bigger_budget() {
        let mut s = JournalState::fresh(1, 1);
        assert!(!s.set_fail(0, 1, 0, "boom".into(), 3));
        assert!(!s.set_fail(0, 2, 0, "boom".into(), 3));
        assert!(
            s.set_fail(0, 3, 0, "boom".into(), 3),
            "third failure quarantines"
        );
        assert!(matches!(
            &s.cells[0],
            CellState::Quarantined { attempts: 3, .. }
        ));
        assert!(s.all_terminal());
        // Same budget: nothing to revive, not claimable.
        s.revive(3);
        let alive = |_: u32| true;
        assert_eq!(claim_cell(&mut s, &ctx(0, &[], &alive)), None);
        // A raised budget alone does not claim a quarantined cell (a
        // cell quarantined mid-run stays so) ...
        let mut big = ctx(0, &[], &alive);
        big.max_attempts = 5;
        assert_eq!(claim_cell(&mut s, &big), None);
        // ... until the rerun revives it: it gets its extra attempts.
        s.revive(5);
        assert_eq!(claim_cell(&mut s, &big), Some((0, 4)));
    }

    #[test]
    fn locked_update_persists_across_calls() {
        let dir = std::env::temp_dir().join(format!("hbdc-supervise-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = dir.join("u.journal");
        let _ = std::fs::remove_file(&j);
        locked_update(&j, 42, 2, |s| {
            s.set_ok(1, 1, sample_record());
        })
        .unwrap();
        let state = locked_update(&j, 42, 2, |s| s.clone()).unwrap();
        assert!(matches!(&state.cells[1], CellState::Ok { .. }));
        assert_eq!(state.cells[0], CellState::Empty);
        // Wrong fingerprint is refused before the closure runs.
        let err = locked_update(&j, 43, 2, |_| ()).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_error() -> impl Strategy<Value = String> {
            // Error text with the characters the escaper must handle.
            proptest::prop::collection::vec(
                prop_oneof![
                    Just('\\'),
                    Just('\n'),
                    Just('\t'),
                    Just(' '),
                    (b'a'..=b'z').prop_map(|b| b as char),
                ],
                0..40,
            )
            .prop_map(|v| v.into_iter().collect())
        }

        fn arb_cell() -> impl Strategy<Value = CellState> {
            prop_oneof![
                Just(CellState::Empty),
                (any::<u32>(), any::<u64>(), 1u32..50).prop_map(|(pid, heartbeat_ms, attempt)| {
                    CellState::Lease {
                        pid,
                        heartbeat_ms,
                        attempt,
                    }
                }),
                (1u32..50).prop_map(|attempts| CellState::Ok {
                    attempts,
                    record: super::sample_record(),
                }),
                (1u32..50, any::<u64>(), arb_error()).prop_map(
                    |(attempts, not_before_ms, error)| CellState::Fail {
                        attempts,
                        not_before_ms,
                        error,
                    }
                ),
                (1u32..50, arb_error())
                    .prop_map(|(attempts, error)| { CellState::Quarantined { attempts, error } }),
            ]
        }

        proptest! {
            /// Journal round-trip: any mix of lease/ok/fail/quar records
            /// renders to text and parses back to the identical state —
            /// escaping included.
            #[test]
            fn journal_roundtrip(cells in proptest::prop::collection::vec(arb_cell(), 1..24)) {
                let state = JournalState { hash: 0x1234_5678_9abc_def0, cells };
                let text = render_journal(&state);
                let back = parse_journal(
                    &text,
                    Path::new("prop.journal"),
                    state.hash,
                    state.cells.len(),
                )
                .unwrap();
                prop_assert_eq!(back, state);
            }

            /// Escape/unescape is lossless for arbitrary error strings.
            #[test]
            fn error_escape_roundtrip(s in arb_error()) {
                prop_assert_eq!(unescape_error(&escape_error(&s)), s);
            }
        }
    }
}
