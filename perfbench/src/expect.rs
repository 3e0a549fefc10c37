//! Recorded simulated statistics for the SPEC-analog cells.
//!
//! The simulator is deterministic, so a cell's statistics are a function
//! of (program, scale, port model) alone. `expected.txt` records them as
//! the simulator produced them when the benchmark was defined; a cell that
//! produces anything else counts as failed. The check is for identity
//! with that recording, not for agreement with real hardware.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hbdc_cpu::SimReport;

/// The statistics recorded when the benchmark was defined.
pub const RECORDED: &str = include_str!("../expected.txt");

/// Names of the checked statistics, in file column order.
pub const FIELDS: [&str; 11] = [
    "committed",
    "cycles",
    "loads",
    "stores",
    "l1_misses",
    "arb_offered",
    "arb_granted",
    "arb_rounds",
    "bank_conflicts",
    "combined",
    "store_serializations",
];

/// A cell's checked statistics, in [`FIELDS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats(pub [u64; FIELDS.len()]);

impl Stats {
    /// The checked statistics of a report.
    pub fn of(r: &SimReport) -> Self {
        Self([
            r.committed,
            r.cycles,
            r.loads,
            r.stores,
            r.l1_misses,
            r.arb_offered,
            r.arb_granted,
            r.arb_rounds,
            r.bank_conflicts,
            r.combined,
            r.store_serializations,
        ])
    }

    /// Describes how `got` differs from `self`, or `None` if it does not.
    pub fn mismatch(&self, got: &Stats) -> Option<String> {
        let diffs: Vec<String> = FIELDS
            .iter()
            .zip(self.0.iter().zip(got.0.iter()))
            .filter(|(_, (want, have))| want != have)
            .map(|(name, (want, have))| format!("{name} {have} (expected {want})"))
            .collect();
        (!diffs.is_empty()).then(|| diffs.join(", "))
    }
}

/// Recorded statistics keyed by (scale, program, port label).
pub type Table = BTreeMap<(String, String, String), Stats>;

/// Parses the `expected.txt` format: `#` comments, then one
/// whitespace-separated line per cell: scale, program, port label and the
/// [`FIELDS`] values.
///
/// # Errors
///
/// The first malformed line.
pub fn parse(text: &str) -> Result<Table, String> {
    let mut table = Table::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 3 + FIELDS.len() {
            return Err(format!("expected.txt line {}: wrong column count", n + 1));
        }
        let mut stats = [0u64; FIELDS.len()];
        for (slot, col) in stats.iter_mut().zip(&cols[3..]) {
            *slot = col
                .parse()
                .map_err(|_| format!("expected.txt line {}: bad number {col}", n + 1))?;
        }
        let key = (
            cols[0].to_string(),
            cols[1].to_string(),
            cols[2].to_string(),
        );
        table.insert(key, Stats(stats));
    }
    Ok(table)
}

/// Renders a table in the format [`parse`] reads.
pub fn render(table: &Table) -> String {
    let mut out = String::from(
        "# Simulated statistics of every SPEC-analog cell, recorded from the simulator\n\
         # when the benchmark was defined. Columns: scale program port",
    );
    for f in FIELDS {
        out.push(' ');
        out.push_str(f);
    }
    out.push('\n');
    for ((scale, program, port), stats) in table {
        let _ = write!(out, "{scale} {program} {port}");
        for v in stats.0 {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    out
}
