//! Regenerates the paper's **Table 3**: IPC for ideal multi-porting
//! (True), multi-porting by replication (Repl), and multi-banking (Bank)
//! as ports grow 1 → 16, for all ten benchmarks plus suite averages.
//!
//! Usage: `table3 [--scale test|small|full] [--bench <name>] [--threads N]
//! [--csv] [--journal PATH | --resume PATH] [--timeout-secs N]
//! [--max-attempts N] [--trace-cache DIR] [--shard [--lease-ttl-secs N]]`
//!
//! A cell that fails `--max-attempts` times (default 2) or times out is
//! quarantined — exit 3. With `--journal`, every finished cell is logged
//! crash-safely and Ctrl-C checkpoints in-flight cells; rerunning on the
//! same journal (`--resume PATH` insists that it exists) continues the
//! campaign from its records and cell checkpoints. With `--shard`, N such
//! processes started on the same journal drain one campaign
//! cooperatively (leased cells, isolated worker subprocesses).

use hbdc_bench::runner::{
    benches_from_args, csv_from_args, scale_from_args, simulate_matrix, table3_columns,
    SuiteAverages,
};
use hbdc_cpu::SimReport;
use hbdc_stats::{ipc, Table};
use hbdc_workloads::Suite;

fn main() -> std::process::ExitCode {
    let scale = scale_from_args();
    let columns = table3_columns();
    let benches = benches_from_args();

    let mut headers = vec!["Program".to_string()];
    headers.extend(columns.iter().map(|(name, _)| name.clone()));
    let mut table = Table::new(headers);
    table.numeric();

    let run = simulate_matrix(&benches, scale, &columns);
    let mut averages = SuiteAverages::new();
    let mut printed_fp_rule = false;
    for (bench, reports) in benches.iter().zip(&run.reports) {
        if bench.suite() == Suite::Fp && !printed_fp_rule {
            table.rule();
            printed_fp_rule = true;
        }
        let mut cells = vec![bench.name().to_string()];
        cells.extend(reports.iter().map(|r| {
            r.as_ref()
                .map_or_else(|| "--".to_string(), |r| ipc(r.ipc()))
        }));
        // Only complete rows enter the suite averages; a failed cell
        // leaves a visible "--" in the table instead of skewing means.
        if let Some(row) = reports
            .iter()
            .map(|r| r.as_ref().map(SimReport::ipc))
            .collect::<Option<Vec<f64>>>()
        {
            averages.push(bench.suite(), row);
        }
        table.row(cells);
    }

    if benches.len() > 1 {
        table.rule();
        for (label, means) in [
            ("SPECint Ave.", averages.int_means()),
            ("SPECfp Ave.", averages.fp_means()),
        ] {
            if means.is_empty() {
                continue;
            }
            let mut cells = vec![label.to_string()];
            cells.extend(means.iter().map(|&v| ipc(v)));
            table.row(cells);
        }
    }

    println!("\nTable 3: IPC for True / Repl / Bank port models\n");
    println!("{table}");
    if csv_from_args() {
        println!("CSV:\n{}", table.to_csv());
    }

    // The paper's §3.1 derived claims.
    let int = averages.int_means();
    let fp = averages.fp_means();
    if !int.is_empty() && !fp.is_empty() {
        println!("Derived (paper §3.1):");
        println!(
            "  True 1→2 ports: SPECint +{:.0}% (paper +89%), SPECfp +{:.0}% (paper +92%)",
            (int[1] / int[0] - 1.0) * 100.0,
            (fp[1] / fp[0] - 1.0) * 100.0,
        );
        println!(
            "  True 2→4 ports: SPECint +{:.0}% (paper +41%), SPECfp +{:.0}% (paper +50%)",
            (int[4] / int[1] - 1.0) * 100.0,
            (fp[4] / fp[1] - 1.0) * 100.0,
        );
        println!(
            "  True 8→16 ports: SPECint +{:.2}% (paper +0.12%), SPECfp +{:.1}% (paper ~4%)",
            (int[10] / int[7] - 1.0) * 100.0,
            (fp[10] / fp[7] - 1.0) * 100.0,
        );
    }

    run.exit_code()
}
