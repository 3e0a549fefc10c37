//! Measures simulator throughput (simulated cycles per second of
//! simulator CPU time) over the Table 3 matrix and emits
//! `BENCH_throughput.json`, so the perf trajectory is tracked across PRs.
//!
//! The JSON carries the aggregate rate (what `scripts/perf_guard.sh`
//! gates on) plus a per-benchmark breakdown — each benchmark's rate and
//! its arbitration-round profile (`arb_rounds` /
//! `arb_offered_per_round`) — so a regression or a change in
//! arbitration work is attributable to a workload, not just visible in
//! the total.
//!
//! Usage: `throughput [--scale test|small|full] [--bench <name>] [--threads N]
//! [--runs N] [--journal PATH | --resume PATH]`
//! (default scale: `small`, the standing cross-PR measurement point).
//! Any other argument is a usage error (exit 2). Every cell replays its
//! benchmark's captured trace.
//!
//! `--runs N` repeats the whole matrix N times and reports the
//! **median** rate — independently per benchmark, and for the
//! aggregate — so one noisy repetition cannot skew a tracked number.
//! Cycle counts are deterministic across repetitions (the simulations
//! are identical; only timings vary), so each median entry is the full
//! profile of the repetition with the median rate. With N > 1 a journal
//! is refused (exit 2): later repetitions would be served from it,
//! untimed. Rates count only the cells this run timed, and a run that
//! timed none leaves `BENCH_throughput.json` and the history untouched.
//!
//! Besides the working-copy `BENCH_throughput.json`, each run appends an
//! immutable copy under `results/bench_history/` (sequence-numbered,
//! stamped with the git commit when available) so the perf trajectory
//! across PRs stays plottable; prior entries are never overwritten.

use std::path::Path;
use std::time::Instant;

use hbdc_bench::runner::{
    benches_from_args, reject_unknown_flags, runs_from_args, scale_from_args_or, scale_label,
    sim_speed, simulate_matrix, table3_columns, MATRIX_FLAGS,
};
use hbdc_cpu::SimReport;
use hbdc_workloads::Scale;

/// Throughput summary over the reports this process timed. Reports served
/// from a journal are parsed back from a record, which keeps no host
/// timing (`cpu_secs` is 0), so they are left out rather than counted as
/// free cycles.
struct Speed {
    sims: usize,
    cycles: u64,
    sim_secs: f64,
    rate: f64,
    arb_rounds: u64,
    arb_offered_per_round: f64,
}

fn speed_over<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> Speed {
    let timed: Vec<&SimReport> = reports.into_iter().filter(|r| r.cpu_secs > 0.0).collect();
    let sims = timed.len();
    let (cycles, sim_secs, rate) = sim_speed(timed.iter().copied());
    let arb_rounds: u64 = timed.iter().map(|r| r.arb_rounds).sum();
    let arb_offered: u64 = timed.iter().map(|r| r.arb_offered).sum();
    // Mean offered references per non-empty arbitration round — the
    // backlog each arbitration round sees per invocation.
    let arb_offered_per_round = if arb_rounds > 0 {
        arb_offered as f64 / arb_rounds as f64
    } else {
        0.0
    };
    Speed {
        sims,
        cycles,
        sim_secs,
        rate,
        arb_rounds,
        arb_offered_per_round,
    }
}

/// Appends one immutable history snapshot under `results/bench_history/`.
/// The filename carries a monotonically increasing sequence number (and
/// the current git commit when one is resolvable), and an existing file
/// is never overwritten — a collision just advances the sequence.
fn append_history(json: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results/bench_history");
    std::fs::create_dir_all(dir)?;
    let next_seq = std::fs::read_dir(dir)?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let stem = name.to_str()?.strip_suffix(".json")?;
            stem.split('-').next()?.parse::<u64>().ok()
        })
        .max()
        .map_or(1, |n| n + 1);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "nogit".to_string(), |s| s.trim().to_string());
    for seq in next_seq.. {
        let path = dir.join(format!("{seq:04}-{commit}.json"));
        if !path.exists() {
            std::fs::write(&path, json)?;
            return Ok(path);
        }
    }
    unreachable!("u64 sequence space exhausted")
}

/// Index of the median-rate entry among `rates` — the lower middle for
/// an even count, so the reported profile is always one real repetition
/// rather than an average of two.
fn median_idx(rates: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
    order[(rates.len() - 1) / 2]
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(&args, &[&MATRIX_FLAGS[..], &["--runs"]].concat(), &[]);
    let scale = scale_from_args_or(Scale::Small);
    let benches = benches_from_args();
    let columns = table3_columns();
    let runs = runs_from_args();

    let start = Instant::now();
    let mut passes = Vec::with_capacity(runs);
    for _ in 0..runs {
        passes.push(simulate_matrix(&benches, scale, &columns));
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Failed cells contribute no cycles; `sims` counts finished runs so
    // the throughput quotient stays honest on a partial matrix. With
    // `--runs N` the aggregate is the median-rate repetition's profile.
    let totals: Vec<Speed> = passes
        .iter()
        .map(|run| speed_over(run.reports.iter().flatten().flatten()))
        .collect();
    let total_rates: Vec<f64> = totals.iter().map(|s| s.rate).collect();
    let median_pass = median_idx(&total_rates);
    let run = &passes[median_pass];
    let total = &totals[median_pass];

    // Hand-rolled JSON: the workspace deliberately carries no serializer
    // dependency, and this schema is flat. The aggregate
    // `"cycles_per_sec"` key stays at top-level two-space indent —
    // `scripts/perf_guard.sh` anchors on that to ignore the per-benchmark
    // entries below it.
    // `sim_cpu_secs` covers only the timing loops of the cells this run
    // timed. `capture_secs` sums the trace captures' wall-clock time,
    // which overlaps the replay of other cells, so it is not a share of
    // `harness_wall_secs`.
    let mut json = format!(
        "{{\n  \"name\": \"simulator-throughput\",\n  \"scale\": \"{}\",\n  \"runs\": {runs},\n  \"sims\": {},\n  \"simulated_cycles\": {},\n  \"sim_cpu_secs\": {:.3},\n  \"capture_secs\": {:.3},\n  \"cycles_per_sec\": {:.0},\n  \"arb_rounds\": {},\n  \"arb_offered_per_round\": {:.2},\n  \"harness_wall_secs\": {:.3},\n  \"benchmarks\": [",
        scale_label(scale),
        total.sims,
        total.cycles,
        total.sim_secs,
        run.capture_secs,
        total.rate,
        total.arb_rounds,
        total.arb_offered_per_round,
        elapsed,
    );
    // Per-cell drill-down for regression hunts: one stderr line per
    // (benchmark, port-model column) with that cell's own timing-loop
    // seconds and arbitration-round profile. Stderr only — the JSON
    // schema `scripts/perf_guard.sh` parses is unaffected.
    if std::env::var_os("HBDC_COLUMN_PROFILE").is_some() {
        for (bench, row) in benches.iter().zip(&run.reports) {
            for (col, report) in columns.iter().zip(row) {
                let s = speed_over(report.iter());
                eprintln!(
                    "column-profile {} {} sim_cpu_secs={:.3} cycles_per_sec={:.0} \
                     offered_per_round={:.1}",
                    bench.name(),
                    col.0,
                    s.sim_secs,
                    s.rate,
                    s.arb_offered_per_round,
                );
            }
        }
    }
    for (bi, bench) in benches.iter().enumerate() {
        // Per-benchmark median: each benchmark independently picks its
        // median-rate repetition, so one bench's noisy pass does not
        // decide which pass every other bench reports.
        let speeds: Vec<Speed> = passes
            .iter()
            .map(|p| speed_over(p.reports[bi].iter().flatten()))
            .collect();
        let rates: Vec<f64> = speeds.iter().map(|s| s.rate).collect();
        let s = &speeds[median_idx(&rates)];
        json.push_str(&format!(
            "\n    {{ \"bench\": \"{}\", \"sims\": {}, \"simulated_cycles\": {}, \"sim_cpu_secs\": {:.3}, \"cycles_per_sec\": {:.0}, \"arb_rounds\": {}, \"arb_offered_per_round\": {:.2} }},",
            bench.name(),
            s.sims,
            s.cycles,
            s.sim_secs,
            s.rate,
            s.arb_rounds,
            s.arb_offered_per_round,
        ));
    }
    if json.ends_with(',') {
        json.pop();
    }
    json.push_str("\n  ]\n}\n");
    // A run that timed no cell (every cell served from the journal, or
    // failed) measured nothing: a rate of 0 must
    // not replace the tracked number or enter the history.
    if total.sims == 0 {
        eprintln!(
            "throughput: no cell was timed by this run; BENCH_throughput.json and the \
             history are left as they are"
        );
    } else {
        std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
        match append_history(&json) {
            Ok(path) => eprintln!("history snapshot: {}", path.display()),
            Err(e) => eprintln!("warning: could not append bench history: {e}"),
        }
    }
    print!("{json}");
    // No-op unless HBDC_STAGE_PROF is set: per-stage wall totals.
    hbdc_cpu::stageprof::dump();
    // Any repetition's failed cells make the exit code, not just the
    // median pass's.
    passes
        .iter()
        .find(|p| !p.is_complete())
        .unwrap_or(run)
        .exit_code()
}
