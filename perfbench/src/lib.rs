//! Performance benchmark of the hbdc simulator.
//!
//! One run sets up a workload's programs, then replays its cells — one
//! (program, port model) simulation each — in interleaved rounds on one
//! thread, one cell at a time. Every timed quantity is thread CPU time,
//! and each cell (and each program's set-up) is charged the best of its
//! rounds. Every cell's simulated statistics are checked; a `SimError` or
//! a mismatch counts the cell as failed. See `README.md` for the metrics,
//! the workloads and the timing method.
//!
//! The benchmark drives the simulator only through its stable public API:
//! workload builders, the fuzz program generator, trace capture and
//! decode, `Simulator` construction, `run`/`run_for`/`report`, snapshot
//! save and resume, and `Hierarchy::access`.

pub mod expect;
pub mod host;
pub mod spans;

use std::fmt::Write as _;
use std::time::Instant;

use hbdc_core::PortConfig;
use hbdc_cpu::{CommittedTrace, CpuConfig, SimReport, SimSnapshot, Simulator};
use hbdc_fuzz::gen::{generate, GenConfig};
use hbdc_isa::Program;
use hbdc_mem::{Hierarchy, HierarchyConfig};
use hbdc_workloads::Scale;

use expect::Stats;
use spans::Tracer;

/// End-to-end metrics (name, unit), printed by an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_minst_per_s", "Minst/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), printed by a traced run.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.assemble_ms", "ms"),
    ("trace.capture_ms", "ms"),
    ("trace.capture_minst_per_s", "Minst/s"),
    ("trace.bytes_per_record", "B/record"),
    ("trace.decode_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.cells", "count"),
    ("sim.cell_ns_per_inst_p50", "ns/inst"),
    ("sim.cell_ns_per_inst_max", "ns/inst"),
    ("sim.ipc", "inst/cycle"),
    ("sim.skip_share", "ratio"),
    ("arb.rounds", "count"),
    ("arb.offered_per_round", "refs/round"),
    ("arb.grant_ratio", "ratio"),
    ("arb.bank_conflicts", "count"),
    ("arb.combined", "count"),
    ("arb.store_serializations", "count"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l2_accesses", "count"),
    ("mem.ns_per_access", "ns"),
    ("snap.save_ms", "ms"),
    ("snap.resume_ms", "ms"),
    ("snap.bytes", "B"),
    ("snap.count", "count"),
    ("tracing.overhead_pct", "%"),
    ("host.probe_ms", "ms"),
    ("host.loadavg", "load"),
    ("host.steal_ticks", "ticks"),
    ("host.rounds", "count"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FP stencil analogs under banked and LBIC ports: deep LSQ backlogs.
    StencilBacklog,
    /// Integer analogs under a few 4-wide ports: shallow backlogs.
    IntShallow,
    /// Generated programs run in slices joined by snapshot round trips.
    CheckpointResume,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::StencilBacklog,
        Workload::IntShallow,
        Workload::CheckpointResume,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilBacklog => "stencil-backlog",
            Workload::IntShallow => "int-shallow",
            Workload::CheckpointResume => "checkpoint-resume",
        }
    }

    /// The workload with command-line name `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec_programs(self) -> &'static [&'static str] {
        match self {
            Workload::StencilBacklog => &["hydro2d", "mgrid", "su2cor", "swim"],
            Workload::IntShallow => &["compress", "gcc", "li", "perl"],
            Workload::CheckpointResume => &[],
        }
    }

    fn columns(self) -> Vec<(String, PortConfig)> {
        let lbic = |m: u32, n: usize| (format!("LBIC-{m}x{n}"), PortConfig::lbic(m, n));
        match self {
            Workload::StencilBacklog => vec![
                ("Bank-4".into(), PortConfig::banked(4)),
                ("Bank-8".into(), PortConfig::banked(8)),
                lbic(4, 2),
                lbic(8, 2),
            ],
            Workload::IntShallow => vec![
                ("True-4".into(), PortConfig::Ideal { ports: 4 }),
                ("Repl-4".into(), PortConfig::Replicated { ports: 4 }),
                ("Bank-4".into(), PortConfig::banked(4)),
                lbic(4, 2),
            ],
            Workload::CheckpointResume => vec![
                ("Bank-4".into(), PortConfig::banked(4)),
                lbic(4, 2),
                ("Repl-4".into(), PortConfig::Replicated { ports: 4 }),
            ],
        }
    }
}

/// Input size: `Bench` is the benchmark, `Tiny` exercises the same code
/// paths in a fraction of a second for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `Scale::Small` analogs and the full generated-program envelope.
    Bench,
    /// `Scale::Test` analogs and two short generated programs.
    Tiny,
}

impl Size {
    fn scale(self) -> Scale {
        match self {
            Size::Bench => Scale::Small,
            Size::Tiny => Scale::Test,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Size::Bench => "small",
            Size::Tiny => "test",
        }
    }
}

/// A deliberate fault, to show the correctness check catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt the first cell's expected statistics.
    Expectation,
    /// Resume the first cell from another port model's snapshot, taken
    /// at the same cycle: it decodes and resumes cleanly, so only the
    /// comparison with the straight run can catch it.
    Snapshot,
}

/// Number of generated programs in `checkpoint-resume` at bench size.
pub const CHECKPOINT_PROGRAMS: usize = 24;
/// Slices each `checkpoint-resume` cell is cut into; a snapshot round
/// trip joins consecutive slices. Three slices put about 40% of the
/// host time into the snapshot codec and the rebuild on resume.
pub const CHECKPOINT_SLICES: u64 = 3;

/// The generator envelope of `checkpoint-resume`. Its data region is
/// larger than the 32 KB L1. Long loop bodies with few trips draw many
/// blocks per program, so the block mix — and with it the simulated IPC
/// that converts instructions to cycles — varies little from seed to
/// seed; a few long programs of 10 blocks each varied it by ±17%.
pub fn checkpoint_envelope(size: Size) -> GenConfig {
    match size {
        Size::Bench => GenConfig {
            blocks: 150..=170,
            iters: 40..=50,
            data_bytes: 64 * 1024,
        },
        Size::Tiny => GenConfig {
            blocks: 3..=5,
            iters: 20..=40,
            data_bytes: 64 * 1024,
        },
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the inputs: program choice for generated workloads, cell
    /// order for all.
    pub seed: u64,
    /// Seconds of measuring; rounds repeat until they are spent.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Fault to inject, if any.
    pub inject: Option<Inject>,
}

impl Options {
    /// Traced runs alternate traced and untraced rounds, so they need
    /// at least two of each to compare.
    fn min_rounds(&self) -> usize {
        match (self.trace, self.size) {
            (true, _) => 4,
            (false, Size::Bench) => 3,
            (false, Size::Tiny) => 1,
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every cell passed its check.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// One line per failed cell.
    pub failures: Vec<String>,
    /// Spans of the traced rounds as JSON lines (empty when untraced).
    pub spans_jsonl: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// SplitMix64: seeds the cell order and the generated programs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Where a program comes from.
#[derive(Debug, Clone)]
enum Source {
    Spec(&'static str, Scale),
    Generated(u64, GenConfig),
}

impl Source {
    fn name(&self) -> String {
        match self {
            Source::Spec(name, _) => (*name).to_string(),
            Source::Generated(seed, _) => format!("gen-{seed:016x}"),
        }
    }

    fn build(&self) -> Result<Program, String> {
        match self {
            Source::Spec(name, scale) => hbdc_workloads::by_name(name)
                .map(|b| b.build(*scale))
                .ok_or_else(|| format!("unknown benchmark {name}")),
            Source::Generated(seed, cfg) => Ok(generate(*seed, cfg)),
        }
    }
}

fn sources(opts: &Options) -> Vec<Source> {
    match opts.workload {
        Workload::CheckpointResume => {
            let count = match opts.size {
                Size::Bench => CHECKPOINT_PROGRAMS,
                Size::Tiny => 2,
            };
            let mut rng = Rng(opts.seed ^ 0xC4EC_5EED);
            (0..count)
                .map(|_| Source::Generated(rng.next(), checkpoint_envelope(opts.size)))
                .collect()
        }
        w => w
            .spec_programs()
            .iter()
            .map(|name| Source::Spec(name, opts.size.scale()))
            .collect(),
    }
}

fn build_sim(trace: &CommittedTrace, port: PortConfig) -> Result<Simulator, String> {
    Simulator::try_from_trace(
        trace,
        CpuConfig::default(),
        HierarchyConfig::default(),
        port,
    )
    .map_err(|e| format!("building the simulator: {e}"))
}

/// Builds or generates the program, captures its trace and constructs
/// the first simulator over it, which pays the lazy predecode.
fn set_up(src: &Source, port: PortConfig, t: &mut Tracer) -> Result<CommittedTrace, String> {
    t.span("setup", |t| {
        let program = t.span("workloads.assemble", |_| src.build())?;
        let trace = t
            .span("trace.capture", |_| {
                CommittedTrace::capture(&program, 0, None)
            })
            .map_err(|e| format!("capturing the trace: {e}"))?;
        t.span("sim.build", |_| build_sim(&trace, port))?;
        Ok(trace)
    })
}

/// What a cell's result must equal.
#[derive(Debug, Clone)]
enum Reference {
    /// Statistics recorded in `expected.txt`.
    Recorded(Stats),
    /// A straight run's report, compared on every non-timing field.
    Straight(SimReport),
}

impl Reference {
    fn check(&self, got: &SimReport) -> Result<(), String> {
        match self {
            Reference::Recorded(want) => match want.mismatch(&Stats::of(got)) {
                None => Ok(()),
                Some(diff) => Err(format!("statistics differ from expected.txt: {diff}")),
            },
            Reference::Straight(want) if want == got => Ok(()),
            Reference::Straight(want) => Err(format!(
                "resumed report differs from the straight run: {got:?} vs {want:?}"
            )),
        }
    }

    fn cycles(&self) -> u64 {
        match self {
            Reference::Recorded(s) => s.0[1],
            Reference::Straight(r) => r.cycles,
        }
    }

    fn corrupt(&mut self) {
        match self {
            Reference::Recorded(s) => s.0[0] += 1,
            Reference::Straight(r) => r.committed += 1,
        }
    }
}

/// A finished cell: its report and the snapshots it took.
#[derive(Debug, Clone)]
struct CellRun {
    report: SimReport,
    snap_bytes: u64,
    snaps: u64,
}

/// Runs one cell. With `slice`, the run is cut every `slice` cycles and
/// continued from a snapshot that went through bytes; `foreign` replaces
/// the first snapshot with that port model's snapshot at the same cycle.
fn run_cell(
    trace: &CommittedTrace,
    port: PortConfig,
    slice: Option<u64>,
    mut foreign: Option<PortConfig>,
    t: &mut Tracer,
) -> Result<CellRun, String> {
    let mut sim = t.span("sim.construct", |_| build_sim(trace, port))?;
    let (mut snap_bytes, mut snaps) = (0u64, 0u64);
    let Some(slice) = slice else {
        let report = t
            .span("sim.run", |_| sim.run())
            .map_err(|e| e.to_string())?;
        return Ok(CellRun {
            report,
            snap_bytes,
            snaps,
        });
    };
    while !t
        .span("sim.run", |_| sim.run_for(slice))
        .map_err(|e| e.to_string())?
    {
        let mut bytes = t.span("snap.save", |_| sim.save_snapshot().as_bytes().to_vec());
        snap_bytes += bytes.len() as u64;
        snaps += 1;
        if let Some(other) = foreign.take() {
            let mut alien = build_sim(trace, other)?;
            alien.run_for(slice).map_err(|e| e.to_string())?;
            bytes = alien.save_snapshot().as_bytes().to_vec();
        }
        sim = t.span("snap.resume", |_| {
            let snap = SimSnapshot::from_bytes(bytes).map_err(|e| format!("snapshot: {e}"))?;
            Simulator::resume(&snap).map_err(|e| format!("resume: {e}"))
        })?;
    }
    Ok(CellRun {
        report: sim.report(),
        snap_bytes,
        snaps,
    })
}

struct Cell {
    program: usize,
    label: String,
    port: PortConfig,
    reference: Result<Reference, String>,
    slice: Option<u64>,
}

/// Runs the benchmark.
///
/// # Errors
///
/// Only when the host cannot be measured (no thread CPU clock); failed
/// cells are reported in the [`Outcome`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    host::check_clock()?;
    let steal_start = host::steal_ticks();
    let probe_ms = host::probe_ms();
    let mut tracer = Tracer::new(opts.trace);
    let columns = opts.workload.columns();
    let sources = sources(opts);

    // Set-up, first round: the traces every cell replays. Later set-up
    // rounds run interleaved with the cell rounds, so the best-of-rounds
    // set-up time samples the whole run, and must capture identical traces.
    let mut traces: Vec<Result<CommittedTrace, String>> = Vec::new();
    let mut setup_ns = vec![u64::MAX; sources.len()];
    let mut set_up_round = |round: usize, traces: &mut Vec<_>, tracer: &mut Tracer| {
        tracer.round = round;
        for (p, src) in sources.iter().enumerate() {
            tracer.key = p;
            let start = host::thread_cpu_ns();
            let trace = set_up(src, columns[0].1, tracer);
            setup_ns[p] = setup_ns[p].min(host::thread_cpu_ns() - start);
            match (traces.get(p), trace) {
                (None, trace) => traces.push(trace),
                (Some(Ok(first)), Ok(again)) if first.as_bytes() == again.as_bytes() => {}
                (Some(Err(_)), _) => {}
                (Some(Ok(_)), again) => {
                    traces[p] = Err(match again {
                        Ok(_) => "set-up captured a different trace".into(),
                        Err(e) => e,
                    });
                }
            }
        }
    };
    set_up_round(0, &mut traces, &mut tracer);

    // Cells and what each must produce.
    let recorded = match opts.workload {
        Workload::CheckpointResume => None,
        _ => Some(expect::parse(expect::RECORDED)?),
    };
    let mut cells = Vec::new();
    for (p, src) in sources.iter().enumerate() {
        for (label, port) in &columns {
            let reference = match (&traces[p], &recorded) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), Some(table)) => table
                    .get(&(opts.size.label().into(), src.name(), label.clone()))
                    .map(|s| Reference::Recorded(*s))
                    .ok_or_else(|| format!("no statistics recorded for {}", src.name())),
                (Ok(trace), None) => run_cell(trace, *port, None, None, &mut Tracer::new(false))
                    .map(|c| Reference::Straight(c.report)),
            };
            cells.push(Cell {
                program: p,
                label: label.clone(),
                port: *port,
                reference,
                slice: None,
            });
        }
    }
    if opts.workload == Workload::CheckpointResume {
        for cell in &mut cells {
            if let Ok(r) = &cell.reference {
                cell.slice = Some(r.cycles().div_ceil(CHECKPOINT_SLICES).max(1));
            }
        }
    }
    if opts.inject == Some(Inject::Expectation) {
        if let Ok(r) = &mut cells[0].reference {
            r.corrupt();
        }
    }

    // Timed rounds: every cell once per round, in a seeded order.
    let n = cells.len();
    let mut failures: Vec<Option<String>> = cells
        .iter()
        .map(|c| c.reference.as_ref().err().cloned())
        .collect();
    let mut runs: Vec<Option<CellRun>> = vec![None; n];
    let mut best_plain = vec![u64::MAX; n];
    let mut best_traced = vec![u64::MAX; n];
    let mut rng = Rng(opts.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let traced = opts.trace && rounds % 2 == 0;
        tracer.set_enabled(traced);
        set_up_round(rounds + 1, &mut traces, &mut tracer);
        tracer.round = rounds;
        rng.shuffle(&mut order);
        let round_start = host::thread_cpu_ns();
        for &c in &order {
            let cell = &cells[c];
            let trace = match &traces[cell.program] {
                Ok(trace) if failures[c].is_none() => trace,
                Ok(_) => continue,
                Err(e) => {
                    failures[c] = Some(e.clone());
                    continue;
                }
            };
            let foreign = (c == 0 && opts.inject == Some(Inject::Snapshot)).then(|| columns[1].1);
            tracer.key = c;
            let t0 = host::thread_cpu_ns();
            let result = tracer.span("cell", |t| {
                run_cell(trace, cell.port, cell.slice, foreign, t)
            });
            let ns = host::thread_cpu_ns() - t0;
            let checked = result.and_then(|run| {
                cell.reference
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|r| r.check(&run.report))
                    .map(|()| run)
            });
            match checked {
                Ok(run) => {
                    let best = if traced {
                        &mut best_traced
                    } else {
                        &mut best_plain
                    };
                    best[c] = best[c].min(ns);
                    runs[c] = Some(run);
                }
                Err(e) => failures[c] = Some(e),
            }
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        eprintln!(
            "round {rounds}{}: {:.3} s CPU, {elapsed:.3} s wall",
            if traced { " (traced)" } else { "" },
            (host::thread_cpu_ns() - round_start) as f64 / 1e9
        );
        if (rounds >= opts.min_rounds() && elapsed >= opts.seconds) || elapsed > 120.0 {
            break;
        }
    }

    let probes = if opts.trace {
        layer_probes(opts, &traces, &cells, &mut failures, &mut tracer)
    } else {
        Probes::default()
    };

    let ok: Vec<usize> = (0..n).filter(|&c| failures[c].is_none()).collect();
    let ok_runs: Vec<&CellRun> = ok.iter().filter_map(|&c| runs[c].as_ref()).collect();
    let sum = |f: fn(&SimReport) -> u64| ok_runs.iter().map(|r| f(&r.report)).sum::<u64>() as f64;
    let committed = sum(|r| r.committed);
    let cycles = sum(|r| r.cycles);
    let best_secs = |best: &[u64]| ok.iter().map(|&c| best[c] as f64).sum::<f64>() / 1e9;

    let values: Vec<f64> = if opts.trace {
        let span_ms = |name| tracer.best_secs(name, 0..usize::MAX) * 1e3;
        let live = traces.iter().flatten();
        let records: f64 = live.clone().map(|t| t.records() as f64).sum();
        let trace_bytes: f64 = live.map(|t| t.as_bytes().len() as f64).sum();
        let mut per_inst: Vec<f64> = ok
            .iter()
            .filter_map(|&c| {
                Some(best_traced[c] as f64 / runs[c].as_ref()?.report.committed as f64)
            })
            .collect();
        per_inst.sort_by(f64::total_cmp);
        let snaps = probes.snaps + ok_runs.iter().map(|r| r.snaps as f64).sum::<f64>();
        let snap_bytes =
            probes.snap_bytes + ok_runs.iter().map(|r| r.snap_bytes as f64).sum::<f64>();
        let arb_rounds = sum(|r| r.arb_rounds);
        let offered = sum(|r| r.arb_offered);
        vec![
            span_ms("workloads.assemble"),
            span_ms("trace.capture"),
            records / span_ms("trace.capture") / 1e3,
            trace_bytes / records,
            span_ms("trace.decode"),
            span_ms("sim.build"),
            tracer.best_secs("sim.run", 0..n),
            ok.len() as f64,
            per_inst
                .get(per_inst.len().saturating_sub(1) / 2)
                .copied()
                .unwrap_or(0.0),
            per_inst.last().copied().unwrap_or(0.0),
            committed / cycles,
            sum(|r| r.skipped_cycles) / cycles,
            arb_rounds,
            offered / arb_rounds,
            sum(|r| r.arb_granted) / offered,
            sum(|r| r.bank_conflicts),
            sum(|r| r.combined),
            sum(|r| r.store_serializations),
            sum(|r| r.l1_misses) / sum(|r| r.l1_accesses),
            sum(|r| r.l2_accesses),
            span_ms("mem.replay") * 1e6 / probes.mem_accesses,
            span_ms("snap.save"),
            span_ms("snap.resume"),
            snap_bytes / snaps,
            snaps,
            (best_secs(&best_traced) / best_secs(&best_plain) - 1.0) * 100.0,
            probe_ms,
            host::loadavg(),
            (host::steal_ticks() - steal_start) as f64,
            rounds as f64,
        ]
    } else {
        let secs = best_secs(&best_plain);
        let setup_s = (0..sources.len())
            .filter(|&p| traces[p].is_ok())
            .map(|p| setup_ns[p] as f64)
            .sum::<f64>()
            / 1e9;
        vec![
            committed / secs / 1e6,
            cycles / secs / 1e6,
            setup_s,
            host::peak_rss_mb(),
        ]
    };
    let names: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    eprintln!(
        "host: probe_ms={probe_ms:.3} loadavg={:.2} steal_ticks={} rounds={rounds}",
        host::loadavg(),
        host::steal_ticks() - steal_start
    );

    let failures: Vec<String> = failures
        .iter()
        .zip(&cells)
        .filter_map(|(f, cell)| {
            let e = f.as_ref()?;
            Some(format!(
                "{} {}: {e}",
                sources[cell.program].name(),
                cell.label
            ))
        })
        .collect();
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: n as u64,
        failed: failures.len() as u64,
        metrics,
        failures,
        spans_jsonl: tracer.to_jsonl(),
    })
}

/// What the traced run's extra measurements counted.
#[derive(Debug, Default)]
struct Probes {
    mem_accesses: f64,
    snap_bytes: f64,
    snaps: f64,
}

/// The traced run's measurements outside the cells: trace decode, the
/// address stream through the memory hierarchy and, where the cells take
/// no snapshots, one snapshot round trip per program. A probe whose
/// result differs from its cell's reference fails that cell.
fn layer_probes(
    opts: &Options,
    traces: &[Result<CommittedTrace, String>],
    cells: &[Cell],
    failures: &mut [Option<String>],
    t: &mut Tracer,
) -> Probes {
    t.set_enabled(true);
    let mut probes = Probes::default();
    for (p, trace) in traces.iter().enumerate() {
        let Ok(trace) = trace else { continue };
        let Some(first) = cells.iter().position(|c| c.program == p) else {
            continue;
        };
        t.key = p;
        let stream: Vec<(u64, bool)> = {
            let mut player = trace.player();
            std::iter::from_fn(|| player.step())
                .filter_map(|d| Some((d.addr?, d.inst.is_store())))
                .collect()
        };
        probes.mem_accesses += stream.len() as f64;
        for round in 0..3 {
            t.round = round;
            let bytes = trace.as_bytes().to_vec();
            if let Err(e) = t.span("trace.decode", |_| CommittedTrace::from_bytes(bytes)) {
                failures[first] = Some(format!("trace decode: {e}"));
            }
            let mut hier = Hierarchy::new(HierarchyConfig::default());
            t.span("mem.replay", |_| {
                for (now, &(addr, is_store)) in stream.iter().enumerate() {
                    std::hint::black_box(hier.access(addr, is_store, now as u64));
                }
            });
        }
        // One snapshot round trip per program, on its first cell, where
        // the cells themselves take none.
        let Ok(reference) = &cells[first].reference else {
            continue;
        };
        if opts.workload == Workload::CheckpointResume {
            continue;
        }
        t.key = cells.len() + p;
        t.round = 0;
        let slice = (reference.cycles() / 2).max(1);
        match run_cell(trace, cells[first].port, Some(slice), None, t)
            .and_then(|run| reference.check(&run.report).map(|()| run))
        {
            Ok(run) => {
                probes.snap_bytes += run.snap_bytes as f64;
                probes.snaps += run.snaps as f64;
            }
            Err(e) => failures[first] = Some(format!("snapshot probe: {e}")),
        }
    }
    probes
}

/// Runs every SPEC-analog cell of every workload once, at both sizes, and
/// renders the statistics in the `expected.txt` format.
///
/// # Errors
///
/// The first cell that fails to simulate.
pub fn record_expectations() -> Result<String, String> {
    let mut table = expect::Table::new();
    for size in [Size::Bench, Size::Tiny] {
        for w in Workload::ALL {
            for name in w.spec_programs() {
                let src = Source::Spec(name, size.scale());
                let program = src.build()?;
                let trace = CommittedTrace::capture(&program, 0, None)
                    .map_err(|e| format!("capturing {name}: {e}"))?;
                for (label, port) in w.columns() {
                    let run = run_cell(&trace, port, None, None, &mut Tracer::new(false))
                        .map_err(|e| format!("{name} {label}: {e}"))?;
                    let key = (size.label().to_string(), name.to_string(), label);
                    table.insert(key, Stats::of(&run.report));
                }
            }
        }
    }
    Ok(expect::render(&table))
}
