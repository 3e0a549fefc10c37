//! Every paper artifact as cells of one matrix plus a renderer.
//!
//! An [`Artifact`] names the matrix columns it reads — each a
//! `(label, CpuConfig, PortConfig)` run over every benchmark — and renders
//! its text from those cells' reports. [`run`] takes the union of the
//! requested artifacts' columns, runs each distinct cell once through the
//! campaign engine (so the journal, `--threads` and the
//! capture-once-per-benchmark trace fan-out come with it), and returns the
//! [`Results`] every artifact renders from. Table 2, Figure 3 and
//! ablation A's collision decomposition are trace-level analyses: their
//! renderers make one functional pass per benchmark.

use std::fmt::Write;

use hbdc_core::{cost, CombinePolicy, PortConfig};
use hbdc_cpu::{CpuConfig, Emulator, FrontEnd, PredictorKind, SimReport};
use hbdc_mem::{BankMapper, BankSelect};
use hbdc_stats::summary::arithmetic_mean;
use hbdc_stats::{ipc, Histogram, Table};
use hbdc_trace::{ConflictAnalysis, ConsecutiveMapping, MemRef, TraceCacheSim};
use hbdc_workloads::{Benchmark, Scale, Suite};

use crate::runner::{
    column, simulate_matrix, table3_columns, table4_columns, Column, MatrixRun, SuiteAverages,
};

/// One paper artifact: the matrix columns it reads and how it renders
/// them.
pub struct Artifact {
    /// Name on the command line and of its output file (`<name>.txt`).
    pub name: &'static str,
    /// The columns whose cells the artifact reads; empty for the purely
    /// trace-level artifacts.
    pub columns: fn() -> Vec<Column>,
    render: fn(&Results) -> String,
}

impl Artifact {
    const fn new(
        name: &'static str,
        columns: fn() -> Vec<Column>,
        render: fn(&Results) -> String,
    ) -> Self {
        Self {
            name,
            columns,
            render,
        }
    }
}

/// Every artifact, in the order `campaign all` prints them.
pub const ARTIFACTS: [Artifact; 11] = [
    Artifact::new("table2", Vec::new, table2),
    Artifact::new("figure3", Vec::new, figure3),
    Artifact::new("table3", table3_columns, table3),
    Artifact::new("table4", table4_columns, table4),
    Artifact::new("ablation_bankmap", bankmap_columns, ablation_bankmap),
    Artifact::new("ablation_policy", policy_columns, ablation_policy),
    Artifact::new("ablation_depth", depth_columns, ablation_depth),
    Artifact::new(
        "ablation_interleave",
        interleave_columns,
        ablation_interleave,
    ),
    Artifact::new("cost_effectiveness", cost_columns, cost_effectiveness),
    Artifact::new(
        "frontend_sensitivity",
        frontend_columns,
        frontend_sensitivity,
    ),
    Artifact::new("lbic_anatomy", anatomy_columns, lbic_anatomy),
];

/// The artifact called `name`, if there is one.
pub fn by_name(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// Two columns name the same cell when they simulate the same machine
/// and port model; labels are per-artifact presentation.
fn same_cell(a: &Column, b: &Column) -> bool {
    a.1 == b.1 && a.2 == b.2
}

/// The distinct cells of `artifacts`, in first-seen order (a cell keeps
/// the label of the first artifact that asks for it).
pub fn union_columns(artifacts: &[&Artifact]) -> Vec<Column> {
    let mut union: Vec<Column> = Vec::new();
    for col in artifacts.iter().flat_map(|a| (a.columns)()) {
        if !union.iter().any(|c| same_cell(c, &col)) {
            union.push(col);
        }
    }
    union
}

/// A finished campaign: every distinct cell's report, ready to render
/// any of the artifacts it was run for.
pub struct Results {
    benches: Vec<Benchmark>,
    scale: Scale,
    columns: Vec<Column>,
    /// The matrix run over `benches` x `columns`.
    pub run: MatrixRun,
}

/// Runs each distinct cell of `artifacts` once over `benches`, through
/// [`simulate_matrix`] (campaign options come from `argv`). Artifacts
/// without cells skip the matrix.
pub fn run(artifacts: &[&Artifact], benches: Vec<Benchmark>, scale: Scale) -> Results {
    let columns = union_columns(artifacts);
    let run = if columns.is_empty() {
        MatrixRun {
            reports: vec![Vec::new(); benches.len()],
            ..MatrixRun::default()
        }
    } else {
        simulate_matrix(&benches, scale, &columns)
    };
    Results {
        benches,
        scale,
        columns,
        run,
    }
}

impl Results {
    /// Renders `artifact`: exactly what its `results/<name>.txt` holds.
    pub fn render(&self, artifact: &Artifact) -> String {
        (artifact.render)(self)
    }

    /// Number of distinct cells the campaign ran.
    pub fn cells(&self) -> usize {
        self.benches.len() * self.columns.len()
    }

    /// Benchmark `b`'s reports under `cols`, in order; `None` marks a
    /// failed (or never-run) cell.
    fn row(&self, b: usize, cols: &[Column]) -> Vec<Option<&SimReport>> {
        cols.iter()
            .map(|col| {
                let c = self.columns.iter().position(|k| same_cell(k, col))?;
                self.run.reports[b][c].as_ref()
            })
            .collect()
    }
}

/// An IPC table cell, `--` for a missing report.
fn ipc_cell(r: Option<&SimReport>) -> String {
    r.map_or_else(|| "--".to_string(), |r| ipc(r.ipc()))
}

/// A table with `headers`, numeric columns right-aligned.
fn numeric_table<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
    let mut table = Table::new(headers.into_iter().map(Into::into).collect());
    table.numeric();
    table
}

/// A table row: `first`, then `rest`.
fn row(first: &str, rest: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(rest).collect()
}

/// One row per benchmark: its name, the IPC under each of `cols`, then
/// the cells `extra` derives from the benchmark index and those reports.
/// The headers are "Program", the column labels, then `extra_headers`.
fn ipc_table(
    res: &Results,
    cols: &[Column],
    extra_headers: &[&str],
    mut extra: impl FnMut(usize, &[Option<&SimReport>]) -> Vec<String>,
) -> Table {
    let labels = cols.iter().map(|c| c.0.as_str());
    let mut table = numeric_table(
        ["Program"]
            .into_iter()
            .chain(labels)
            .chain(extra_headers.iter().copied()),
    );
    for (b, bench) in res.benches.iter().enumerate() {
        let reports = res.row(b, cols);
        let mut cells = row(bench.name(), reports.iter().map(|r| ipc_cell(*r)));
        cells.extend(extra(b, &reports));
        table.row(cells);
    }
    table
}

/// Runs `bench`'s program through the functional emulator, handing every
/// memory reference to `f`; returns the dynamic instruction count.
fn for_each_ref(bench: &Benchmark, scale: Scale, mut f: impl FnMut(MemRef)) -> u64 {
    let mut emu = Emulator::new(&bench.build(scale));
    let mut total = 0;
    while let Some(di) = emu.step() {
        total += 1;
        if di.inst.is_mem() {
            f(if di.inst.is_store() {
                MemRef::store(di.mem_addr())
            } else {
                MemRef::load(di.mem_addr())
            });
        }
    }
    total
}

// ---------------------------------------------------------------------
// Trace-level artifacts
// ---------------------------------------------------------------------

/// **Table 2**: per-benchmark memory characteristics — dynamic
/// instruction count, memory-instruction percentage, store-to-load
/// ratio, and 32KB direct-mapped L1 miss rate — with the paper's values
/// alongside.
fn table2(res: &Results) -> String {
    let mut table = numeric_table([
        "Program",
        "Instr Count",
        "Mem %",
        "(paper)",
        "S/L Ratio",
        "(paper)",
        "L1 Miss",
        "(paper)",
    ]);
    for bench in &res.benches {
        let mut dl1 = TraceCacheSim::paper_l1();
        let (mut loads, mut stores) = (0u64, 0u64);
        let total = for_each_ref(bench, res.scale, |r| {
            if r.is_store {
                stores += 1;
            } else {
                loads += 1;
            }
            dl1.access(r);
        });
        let paper = bench.paper();
        table.row(vec![
            bench.name().to_string(),
            total.to_string(),
            format!("{:.1}", (loads + stores) as f64 / total as f64 * 100.0),
            format!("{:.1}", paper.mem_pct),
            format!("{:.2}", stores as f64 / loads as f64),
            format!("{:.2}", paper.store_to_load),
            format!("{:.4}", dl1.stats().miss_rate()),
            format!("{:.4}", paper.miss_rate),
        ]);
    }
    format!("\nTable 2: benchmark memory characteristics (measured vs paper)\n\n{table}\n")
}

/// **Figure 3**: consecutive memory-reference mapping for an infinite
/// 4-bank line-interleaved cache — B-same-line, B-diff-line and
/// (B+1)..(B+3) mod 4 as percentages of all consecutive pairs, plus
/// suite averages.
fn figure3(res: &Results) -> String {
    let mut table = numeric_table([
        "Program",
        "B-same line",
        "B-diff line",
        "(B+1)%4",
        "(B+2)%4",
        "(B+3)%4",
    ]);
    let mut suites = SuiteAverages::new();
    let mut printed_fp_rule = false;
    for bench in &res.benches {
        if bench.suite() == Suite::Fp && !printed_fp_rule {
            table.rule();
            printed_fp_rule = true;
        }
        let mut f3 = ConsecutiveMapping::new(4, 32);
        for_each_ref(bench, res.scale, |r| f3.record(r));
        let segs = f3.segments();
        let mut cells = vec![bench.name().to_string()];
        cells.extend(segs.iter().map(|s| format!("{:.1}%", s * 100.0)));
        table.row(cells);
        suites.push(bench.suite(), segs);
    }
    table.rule();
    push_averages(&mut table, &suites, |m| format!("{:.1}%", m * 100.0));
    format!(
        "\nFigure 3: consecutive reference mapping, infinite 4-bank cache\n\n{table}\n\
         Paper reference points: SPECint same-bank ~49% (same-line 35.4%), \
         SPECfp same-bank ~44% (same-line 21.8%); swim B-diff 33.8%, wave5 B-diff 24.7%.\n"
    )
}

/// Appends the "SPECint Ave." and "SPECfp Ave." rows (a suite with no
/// complete row is left out).
fn push_averages(table: &mut Table, suites: &SuiteAverages, fmt: impl Fn(f64) -> String) {
    for (label, means) in [
        ("SPECint Ave.", suites.int_means()),
        ("SPECfp Ave.", suites.fp_means()),
    ] {
        if !means.is_empty() {
            table.row(row(label, means.into_iter().map(&fmt)));
        }
    }
}

// ---------------------------------------------------------------------
// Tables 3 and 4
// ---------------------------------------------------------------------

/// The IPC matrix of `cols` with an FP rule, suite averages over the
/// complete rows, and the suite means for the derived claims.
fn ipc_matrix(res: &Results, cols: &[Column]) -> (Table, SuiteAverages) {
    let labels = cols.iter().map(|c| c.0.as_str());
    let mut table = numeric_table(["Program"].into_iter().chain(labels));
    let mut averages = SuiteAverages::new();
    let mut printed_fp_rule = false;
    for (b, bench) in res.benches.iter().enumerate() {
        if bench.suite() == Suite::Fp && !printed_fp_rule {
            table.rule();
            printed_fp_rule = true;
        }
        let reports = res.row(b, cols);
        let cells = row(bench.name(), reports.iter().map(|r| ipc_cell(*r)));
        // Only complete rows enter the suite averages; a failed cell
        // leaves a visible "--" in the table instead of skewing means.
        if let Some(row) = reports
            .iter()
            .map(|r| r.map(SimReport::ipc))
            .collect::<Option<Vec<f64>>>()
        {
            averages.push(bench.suite(), row);
        }
        table.row(cells);
    }
    if res.benches.len() > 1 {
        table.rule();
        push_averages(&mut table, &averages, ipc);
    }
    (table, averages)
}

/// **Table 3**: IPC for ideal multi-porting (True), replication (Repl)
/// and multi-banking (Bank) as ports grow 1 → 16, plus the paper's §3.1
/// derived claims.
fn table3(res: &Results) -> String {
    let (table, averages) = ipc_matrix(res, &table3_columns());
    let mut out = format!("\nTable 3: IPC for True / Repl / Bank port models\n\n{table}\n");
    let (int, fp) = (averages.int_means(), averages.fp_means());
    if !int.is_empty() && !fp.is_empty() {
        let gain = |m: &[f64], to: usize, from: usize| (m[to] / m[from] - 1.0) * 100.0;
        out.push_str("Derived (paper §3.1):\n");
        let _ = writeln!(
            out,
            "  True 1→2 ports: SPECint +{:.0}% (paper +89%), SPECfp +{:.0}% (paper +92%)",
            gain(&int, 1, 0),
            gain(&fp, 1, 0),
        );
        let _ = writeln!(
            out,
            "  True 2→4 ports: SPECint +{:.0}% (paper +41%), SPECfp +{:.0}% (paper +50%)",
            gain(&int, 4, 1),
            gain(&fp, 4, 1),
        );
        let _ = writeln!(
            out,
            "  True 8→16 ports: SPECint +{:.2}% (paper +0.12%), SPECfp +{:.1}% (paper ~4%)",
            gain(&int, 10, 7),
            gain(&fp, 10, 7),
        );
    }
    out
}

/// **Table 4**: IPC for the six MxN LBIC configurations plus the paper's
/// §6 scaling claims: SPECfp gains more from N (combining) than from M
/// (banks), SPECint more from M.
fn table4(res: &Results) -> String {
    let (table, averages) = ipc_matrix(res, &table4_columns());
    let mut out = format!("\nTable 4: IPC for six MxN LBIC configurations\n\n{table}\n");
    let (fp, int) = (averages.fp_means(), averages.int_means());
    if fp.len() == 6 && int.len() == 6 {
        // Columns: 2x2, 2x4, 4x2, 4x4, 8x2, 8x4.
        let n_gain = |m: &[f64]| {
            ((m[1] / m[0] - 1.0) + (m[3] / m[2] - 1.0) + (m[5] / m[4] - 1.0)) / 3.0 * 100.0
        };
        let m_gain = |m: &[f64]| {
            ((m[2] / m[0] - 1.0) + (m[4] / m[2] - 1.0) + (m[3] / m[1] - 1.0) + (m[5] / m[3] - 1.0))
                / 4.0
                * 100.0
        };
        out.push_str("Derived (paper §6):\n");
        let _ = writeln!(
            out,
            "  SPECfp: doubling N (combining) +{:.1}% (paper +10.3%), doubling M +{:.1}% (paper +6.5..8.5%)",
            n_gain(&fp),
            m_gain(&fp),
        );
        let _ = writeln!(
            out,
            "  SPECint: doubling N +{:.1}%, doubling M +{:.1}% (paper: int gains more from M than N)",
            n_gain(&int),
            m_gain(&int),
        );
    }
    out
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

const SELECTS: [(&str, BankSelect); 3] = [
    ("bit", BankSelect::BitSelect),
    ("xor", BankSelect::XorFold),
    ("rand", BankSelect::PseudoRandom),
];

fn bankmap_columns() -> Vec<Column> {
    let banked = |select| PortConfig::Banked { banks: 8, select };
    SELECTS
        .iter()
        .map(|&(name, select)| column(format!("IPC {name}"), banked(select)))
        .collect()
}

/// **Ablation A — bank-selection functions** (paper §3.2). The paper
/// argues fancier selection functions matter less than thought, since
/// most same-bank collisions map to the same line. Tested two ways: IPC
/// of an 8-bank cache under bit-select / XOR-fold / pseudo-random
/// selection, and the trace-level same-bank collision decomposition
/// (window of 8 simultaneous references) under each mapper.
fn ablation_bankmap(res: &Results) -> String {
    let extra = ["conf bit", "conf xor", "conf rand", "same-line bit"];
    let table = ipc_table(res, &bankmap_columns(), &extra, |b, _| {
        let mut analyses: Vec<ConflictAnalysis> = SELECTS
            .iter()
            .map(|&(_, s)| ConflictAnalysis::new(BankMapper::with_select(s, 8, 32), 8))
            .collect();
        for_each_ref(&res.benches[b], res.scale, |r| {
            for a in &mut analyses {
                a.record(r);
            }
        });
        for a in &mut analyses {
            a.finish();
        }
        let mut cells: Vec<String> = analyses
            .iter()
            .map(|a| format!("{:.1}%", a.conflict_rate() * 100.0))
            .collect();
        cells.push(format!("{:.1}%", analyses[0].same_line_rate() * 100.0));
        cells
    });
    format!(
        "\nAblation A: bank-selection function, 8-bank cache\n\n{table}\n\
         The paper's claim holds if IPC is broadly insensitive to the mapper while\n\
         same-line collisions (recoverable only by combining) remain substantial.\n"
    )
}

fn policy_columns() -> Vec<Column> {
    [
        ("4x2 lead", 2, CombinePolicy::LeadingRequest),
        ("4x2 large", 2, CombinePolicy::LargestGroup),
        ("4x4 lead", 4, CombinePolicy::LeadingRequest),
        ("4x4 large", 4, CombinePolicy::LargestGroup),
    ]
    .into_iter()
    .map(|(label, line_ports, policy)| {
        let port = PortConfig::Lbic {
            banks: 4,
            line_ports,
            store_queue: 8,
            policy,
        };
        column(label, port)
    })
    .collect()
}

/// **Ablation B — LBIC combining policy** (paper §5.2): the paper's
/// leading-request combining against its proposed "largest group of
/// combinable ready accesses" enhancement, on 4x2 and 4x4 LBICs.
fn ablation_policy(res: &Results) -> String {
    let table = ipc_table(res, &policy_columns(), &["4x4 gain"], |_, r| {
        vec![match (r[2], r[3]) {
            (Some(lead), Some(large)) => {
                format!("{:+.1}%", (large.ipc() / lead.ipc() - 1.0) * 100.0)
            }
            _ => "--".to_string(),
        }]
    });
    format!("\nAblation B: LBIC combining policy (leading-request vs largest-group)\n\n{table}\n")
}

fn depth_columns() -> Vec<Column> {
    let lsq = [16, 64, 128, 512].map(|lsq_size| {
        let cpu = CpuConfig {
            lsq_size,
            ..CpuConfig::default()
        };
        (format!("LSQ {lsq_size}"), cpu, PortConfig::lbic(4, 4))
    });
    let sq = [1, 2, 8, 32].map(|store_queue| {
        let port = PortConfig::Lbic {
            banks: 4,
            line_ports: 4,
            store_queue,
            policy: CombinePolicy::LeadingRequest,
        };
        column(format!("SQ {store_queue}"), port)
    });
    lsq.into_iter().chain(sq).collect()
}

/// **Ablation C — LSQ and store-queue depth** (paper §5.2): "performance
/// of the scheme depends on the depth of the LSQ". Sweeps the LSQ depth
/// of a 4x4 LBIC, and separately its per-bank store-queue depth.
fn ablation_depth(res: &Results) -> String {
    let table = ipc_table(res, &depth_columns(), &[], |_, _| Vec::new());
    format!(
        "\nAblation C: 4x4 LBIC sensitivity to LSQ depth and per-bank store-queue depth\n\n\
         {table}\n"
    )
}

fn interleave_columns() -> Vec<Column> {
    // Banks selected on 8-byte words, so a 32-byte line spreads across
    // all four banks: each bank needs its own tag copy.
    let word = PortConfig::Banked {
        banks: 4,
        select: BankSelect::Word,
    };
    vec![
        column("Bank-4 line", PortConfig::banked(4)),
        column("Bank-4 word", word),
        column("LBIC-4x2", PortConfig::lbic(4, 2)),
        column("LBIC-4x4", PortConfig::lbic(4, 4)),
    ]
}

/// **Ablation D — line vs word interleaving** (paper §3 footnote a,
/// §4): what word interleaving would buy a plain banked cache, against
/// the LBIC recovering most of that gain with one tag per line.
fn ablation_interleave(res: &Results) -> String {
    let table = ipc_table(res, &interleave_columns(), &[], |_, _| Vec::new());
    format!(
        "\nAblation D: line- vs word-interleaved banking vs LBIC (4 banks)\n\n{table}\n\
         Word interleaving needs 4 tag copies per line here; the LBIC keeps a\n\
         single tag per line and recovers same-line bandwidth by combining.\n"
    )
}

// ---------------------------------------------------------------------
// Extensions
// ---------------------------------------------------------------------

fn cost_columns() -> Vec<Column> {
    [
        PortConfig::Ideal { ports: 2 },
        PortConfig::Ideal { ports: 4 },
        PortConfig::Replicated { ports: 2 },
        PortConfig::Replicated { ports: 4 },
        PortConfig::banked(4),
        PortConfig::banked(8),
        PortConfig::lbic(2, 2),
        PortConfig::lbic(4, 2),
        PortConfig::lbic(4, 4),
        PortConfig::lbic(8, 4),
    ]
    .into_iter()
    .map(|port| column(port.label(), port))
    .collect()
}

/// **Extension — cost-effectiveness** (paper §1, §6, §8): the measured
/// mean IPC over every benchmark combined with the first-order area
/// model (`hbdc_core::cost`) into IPC per area — the figure of merit
/// behind the paper's claim that the LBIC scales toward ideal
/// multiporting at close to multi-banking's cost.
fn cost_effectiveness(res: &Results) -> String {
    let mut table = numeric_table(
        [
            "Config", "Area", "Peak B/W", "Mean IPC", "IPC/Area", "B/W/Area",
        ]
        .map(String::from)
        .to_vec(),
    );
    for col in cost_columns() {
        let ipcs: Option<Vec<f64>> = (0..res.benches.len())
            .map(|b| res.row(b, std::slice::from_ref(&col))[0].map(SimReport::ipc))
            .collect();
        let (label, _, port) = col;
        let area = cost::area(port);
        let peak = port.peak();
        let (mean, per_area) = match ipcs {
            Some(ipcs) => {
                let mean = arithmetic_mean(&ipcs);
                (format!("{mean:.3}"), format!("{:.3}", mean / area))
            }
            None => ("--".to_string(), "--".to_string()),
        };
        table.row(vec![
            label,
            format!("{area:.2}"),
            peak.to_string(),
            mean,
            per_area,
            format!("{:.2}", peak as f64 / area),
        ]);
    }
    format!(
        "\nCost-effectiveness: mean IPC and peak bandwidth per unit die area\n\n{table}\n\
         Calibration quote (paper §6): Repl-2 area / LBIC-2x2 area = {:.2} (paper: ~2).\n",
        cost::area(PortConfig::Replicated { ports: 2 }) / cost::area(PortConfig::lbic(2, 2))
    )
}

fn frontend_columns() -> Vec<Column> {
    let front_ends = [
        ("perfect", FrontEnd::Perfect),
        (
            "gshare",
            FrontEnd::Predicted {
                kind: PredictorKind::Gshare {
                    entries: 4096,
                    history_bits: 12,
                },
                redirect_penalty: 3,
            },
        ),
        (
            "bimodal",
            FrontEnd::Predicted {
                kind: PredictorKind::Bimodal { entries: 2048 },
                redirect_penalty: 3,
            },
        ),
    ];
    let ports = [
        ("True-4", PortConfig::Ideal { ports: 4 }),
        ("Bank-4", PortConfig::banked(4)),
        ("LBIC-4x4", PortConfig::lbic(4, 4)),
    ];
    let mut cols = Vec::new();
    for (fe, front_end) in front_ends {
        for (p, port) in ports {
            let cpu = CpuConfig {
                front_end,
                ..CpuConfig::default()
            };
            cols.push((format!("{p}/{fe}"), cpu, port));
        }
    }
    cols
}

/// **Extension — front-end sensitivity** (paper §2.1–§2.2): the headline
/// comparison (True-4 vs Bank-4 vs LBIC-4x4) re-run under real branch
/// predictors, to check that the paper's conclusions survive relaxing
/// its perfect front end.
fn frontend_sensitivity(res: &Results) -> String {
    let cols = frontend_columns();
    let headers = ["gshare mispredict %", "bimodal mispredict %"];
    let table = ipc_table(res, &cols, &headers, |_, reports| {
        // Each predictor's rate comes from the last of its columns that
        // counted branches.
        ["/gshare", "/bimodal"]
            .into_iter()
            .map(|suffix| {
                let rate = cols
                    .iter()
                    .zip(reports)
                    .rev()
                    .filter(|(col, _)| col.0.ends_with(suffix))
                    .find_map(|(_, r)| r.filter(|r| r.branches > 0))
                    .map_or(0.0, |r| r.mispredicts as f64 / r.branches as f64);
                format!("{:.1}", rate * 100.0)
            })
            .collect()
    });
    format!(
        "\nFront-end sensitivity: port-model comparison under real predictors\n\n{table}\n\
         The LBIC's advantage over plain banking should persist under every\n\
         front end; an imperfect front end compresses all IPCs toward the\n\
         fetch bottleneck, exactly why the paper idealized it (§2.1).\n"
    )
}

fn anatomy_columns() -> Vec<Column> {
    vec![column("LBIC-4x4", PortConfig::lbic(4, 4))]
}

/// **LBIC anatomy**: where a 4x4 LBIC's bandwidth comes from, per
/// benchmark (paper §6) — the share of grants that were combined riders
/// on a leading request, the residual bank conflicts, store-queue
/// behaviour, and the distribution of grants per busy arbitration round.
fn lbic_anatomy(res: &Results) -> String {
    let cols = anatomy_columns();
    let mut table = numeric_table([
        "Program",
        "IPC",
        "grants/round",
        "p90",
        "combined %",
        "conflicts %",
        "sq drains",
        "sq stalls",
    ]);
    for (b, bench) in res.benches.iter().enumerate() {
        let Some(r) = res.row(b, &cols)[0] else {
            let mut cells = vec![bench.name().to_string()];
            cells.resize(8, "--".to_string());
            table.row(cells);
            continue;
        };
        // One bin per busy arbitration round, not per cycle.
        let grants = Histogram::from_counts("grants/round", r.grants_per_round.clone());
        table.row(vec![
            bench.name().to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.2}", grants.mean()),
            grants.quantile(0.9).map_or("-".into(), |q| q.to_string()),
            format!(
                "{:.1}",
                r.combined as f64 / r.arb_granted.max(1) as f64 * 100.0
            ),
            format!(
                "{:.1}",
                r.bank_conflicts as f64 / r.arb_offered.max(1) as f64 * 100.0
            ),
            r.sq_drains.to_string(),
            r.sq_full_stalls.to_string(),
        ]);
    }
    format!("\nLBIC-4x4 anatomy: combining share, residual conflicts, store queues\n\n{table}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_resolves_by_name() {
        for a in &ARTIFACTS {
            assert_eq!(by_name(a.name).map(|b| b.name), Some(a.name));
        }
        assert!(by_name("table5").is_none());
    }

    #[test]
    fn the_paper_matrix_has_36_distinct_columns() {
        // Table 3 (13) + Table 4 (6) + bank mappers (2) + LSQ and SQ
        // depths (6) + word interleaving (1) + largest-group (2) +
        // predicted front ends (6); every other cell is one of these.
        let all: Vec<&Artifact> = ARTIFACTS.iter().collect();
        assert_eq!(union_columns(&all).len(), 36);
        let cells: usize = ARTIFACTS.iter().map(|a| (a.columns)().len()).sum();
        assert_eq!(cells, 58, "columns the artifacts list in total");
    }
}
