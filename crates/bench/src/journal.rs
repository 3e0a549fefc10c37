//! The matrix campaign journal: the file in which one campaign process
//! records the cells it has finished, so that a rerun after Ctrl-C or a
//! kill continues the campaign instead of starting over.
//!
//! The image is a header line, the matrix fingerprint, the cell count,
//! then one `ok <idx> <report-record>` line per finished cell. The
//! campaign rewrites it whole with [`write_atomic`] after every finished
//! cell, so a process killed at any instant leaves the last complete
//! image. A failed cell is not recorded: a continued campaign runs it
//! again, and, a cell being a deterministic replay, it fails the same way.

use std::path::Path;

use hbdc_cpu::SimReport;
use hbdc_snap::write_atomic;

/// First line of every matrix run journal.
pub(crate) const JOURNAL_HEADER: &str = "hbdc-journal v3";

/// Renders the journal image of a campaign whose cell `idx` finished with
/// the [`SimReport::to_record`] line `records[idx]` (`None`: not yet).
pub(crate) fn render(hash: u64, records: &[Option<String>]) -> String {
    let mut out = format!(
        "{JOURNAL_HEADER}\nmatrix {hash:016x}\ncells {}\n",
        records.len()
    );
    for (idx, record) in records.iter().enumerate() {
        if let Some(record) = record {
            out.push_str(&format!("ok {idx} {record}\n"));
        }
    }
    out
}

/// Writes the journal image (see [`render`]) to `path` atomically.
pub(crate) fn write(path: &Path, hash: u64, records: &[Option<String>]) -> Result<(), String> {
    write_atomic(path, render(hash, records).as_bytes())
        .map_err(|e| format!("journal {}: {e}", path.display()))
}

/// Parses and validates a journal image against this run's matrix: the
/// header, fingerprint, and cell count must all match. Returns each
/// cell's record. Corruption is handled asymmetrically: a malformed
/// **final** line is dropped with a warning (the cell re-runs — a
/// half-written tail must not brick the campaign), while a malformed line
/// anywhere else is an error, because silently skipping interior records
/// could resurrect completed work.
pub(crate) fn parse(
    text: &str,
    path: &Path,
    hash: u64,
    total: usize,
) -> Result<Vec<Option<String>>, String> {
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
    let mut records = vec![None; total];
    for (lineno, line) in body.iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_record_line(line, total) {
            Ok((idx, record)) => records[idx] = Some(record),
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
    Ok(records)
}

/// Parses one `ok <idx> <record>` line into `(cell index, record)`.
/// Errors are short descriptions; the caller adds file/line context.
fn parse_record_line(line: &str, total: usize) -> Result<(usize, String), String> {
    let mut fields = line.splitn(3, ' ');
    if fields.next() != Some("ok") {
        return Err("unknown record tag".to_string());
    }
    let idx = fields
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or("malformed cell index")?;
    if idx >= total {
        return Err("cell index out of range".to_string());
    }
    let record = fields.next().unwrap_or("");
    // Validate eagerly so a bit-flipped record is caught at load, where
    // the torn-final-line policy can deal with it, rather than when the
    // table is rendered.
    SimReport::from_record(record)?;
    Ok((idx, record.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> String {
        "1000\t250\t200\t100\t20\t300\t30\t5\t30\t3\t400\t380\t240\t10\t4\t0\t0\t0\t0\t0\t0,100,140\tIdeal-4"
            .to_string()
    }

    fn path() -> &'static Path {
        Path::new("test.journal")
    }

    #[test]
    fn render_parse_roundtrip() {
        let records = vec![Some(sample_record()), None, None, Some(sample_record())];
        let text = render(0xabcd, &records);
        assert_eq!(parse(&text, path(), 0xabcd, 4).unwrap(), records);
    }

    #[test]
    fn torn_final_line_is_dropped_but_interior_corruption_is_fatal() {
        let mut text = render(7, &[Some(sample_record()), None, None]);
        // Simulate a torn tail: a half-written ok line.
        text.push_str("ok 1 12\t34");
        let back = parse(&text, path(), 7, 3).unwrap();
        assert!(back[0].is_some());
        assert_eq!(back[1], None, "torn cell re-runs");

        // The same garbage in the middle is an error, not a silent skip.
        let text = format!(
            "{JOURNAL_HEADER}\nmatrix {:016x}\ncells 3\nok 1 12\t34\nok 0 {}\n",
            7u64,
            sample_record()
        );
        let err = parse(&text, path(), 7, 3).unwrap_err();
        assert!(err.contains("report record has"), "{err}");
    }

    #[test]
    fn pinned_rejection_messages() {
        let p = path();
        assert!(parse("", p, 1, 1).unwrap_err().contains("journal is empty"));
        let err = parse("hbdc-journal v2\n", p, 1, 1).unwrap_err();
        assert!(err.contains("not a matrix journal"), "{err}");
        let err = parse(&format!("{JOURNAL_HEADER}\nmatrix zz\n"), p, 1, 1).unwrap_err();
        assert!(err.contains("malformed `matrix` header line"), "{err}");
        let err = parse(
            &format!("{JOURNAL_HEADER}\nmatrix 0000000000000002\ncells 1\n"),
            p,
            1,
            1,
        )
        .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        assert!(err.contains("refusing to resume"), "{err}");
        let err = parse(
            &format!("{JOURNAL_HEADER}\nmatrix 0000000000000001\ncells 9\n"),
            p,
            1,
            1,
        )
        .unwrap_err();
        assert!(
            err.contains("journal covers 9 cells, this run has 1"),
            "{err}"
        );
        // Interior bad tag / index keep their pinned wording.
        let base = format!("{JOURNAL_HEADER}\nmatrix 0000000000000001\ncells 2\n");
        for (line, what) in [
            ("quar 0 2 boom", "unknown record tag"),
            ("ok nine x", "malformed cell index"),
            ("ok 7 x", "cell index out of range"),
        ] {
            let text = format!("{base}{line}\nok 1 {}\n", sample_record());
            let err = parse(&text, p, 1, 2).unwrap_err();
            assert!(err.contains(what), "`{line}` -> {err}");
        }
    }
}
