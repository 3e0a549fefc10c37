//! Regenerates the paper's **Table 4**: IPC for the six MxN LBIC
//! configurations (2x2, 2x4, 4x2, 4x4, 8x2, 8x4) plus suite averages and
//! the paper's §6 derived scaling claims.
//!
//! Usage: `table4 [--scale test|small|full] [--bench <name>] [--threads N]
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
    benches_from_args, csv_from_args, scale_from_args, simulate_matrix, table4_columns,
    SuiteAverages,
};
use hbdc_cpu::SimReport;
use hbdc_stats::{ipc, Table};
use hbdc_workloads::Suite;

fn main() -> std::process::ExitCode {
    let scale = scale_from_args();
    let columns = table4_columns();
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

    println!("\nTable 4: IPC for six MxN LBIC configurations\n");
    println!("{table}");
    if csv_from_args() {
        println!("CSV:\n{}", table.to_csv());
    }

    // Paper §6: SPECfp gains more from N (combining) than M (banks);
    // SPECint gains more from M. Columns: 2x2, 2x4, 4x2, 4x4, 8x2, 8x4.
    let fp = averages.fp_means();
    let int = averages.int_means();
    if fp.len() == 6 && int.len() == 6 {
        let n_gain_fp =
            ((fp[1] / fp[0] - 1.0) + (fp[3] / fp[2] - 1.0) + (fp[5] / fp[4] - 1.0)) / 3.0 * 100.0;
        let m_gain_fp = ((fp[2] / fp[0] - 1.0)
            + (fp[4] / fp[2] - 1.0)
            + (fp[3] / fp[1] - 1.0)
            + (fp[5] / fp[3] - 1.0))
            / 4.0
            * 100.0;
        let n_gain_int =
            ((int[1] / int[0] - 1.0) + (int[3] / int[2] - 1.0) + (int[5] / int[4] - 1.0)) / 3.0
                * 100.0;
        let m_gain_int = ((int[2] / int[0] - 1.0)
            + (int[4] / int[2] - 1.0)
            + (int[3] / int[1] - 1.0)
            + (int[5] / int[3] - 1.0))
            / 4.0
            * 100.0;
        println!("Derived (paper §6):");
        println!(
            "  SPECfp: doubling N (combining) +{n_gain_fp:.1}% (paper +10.3%), doubling M +{m_gain_fp:.1}% (paper +6.5..8.5%)"
        );
        println!(
            "  SPECint: doubling N +{n_gain_int:.1}%, doubling M +{m_gain_int:.1}% (paper: int gains more from M than N)"
        );
    }

    run.exit_code()
}
