//! Plain-text table rendering for experiment reports.

use std::fmt;

/// Column alignment within a rendered [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Align {
    /// Left-align cell contents (default; used for program names).
    #[default]
    Left,
    /// Right-align cell contents (used for numeric columns).
    Right,
}

/// A simple monospace table renderer.
///
/// The experiment binaries print the paper's tables through this type so
/// every report in `EXPERIMENTS.md` has a uniform, diff-friendly format.
///
/// # Examples
///
/// ```
/// use hbdc_stats::Table;
///
/// let mut t = Table::new(vec!["program".into(), "ipc".into()]);
/// t.numeric();
/// t.row(vec!["compress".into(), "2.66".into()]);
/// t.row(vec!["gcc".into(), "2.65".into()]);
/// let s = t.render();
/// assert!(s.contains("compress"));
/// assert!(s.lines().count() >= 4); // header, rule, two rows
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Right-aligns every column except the first. The common layout for
    /// the paper's tables: a program-name column followed by numbers.
    pub fn numeric(&mut self) -> &mut Self {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Appends a horizontal separator row (rendered as a rule).
    pub fn rule(&mut self) -> &mut Self {
        self.rows.push(Vec::new());
        self
    }

    /// Number of data rows (separators excluded).
    pub fn len(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the table to a `String`.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }

        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = widths[i].saturating_sub(cell.chars().count());
                match aligns[i] {
                    Align::Left => {
                        line.push_str(cell);
                        line.push_str(&" ".repeat(pad));
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad));
                        line.push_str(cell);
                    }
                }
            }
            line.trim_end().to_string()
        };

        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&render_row(&self.headers, &widths, &self.aligns));
        out.push('\n');
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            if row.is_empty() {
                out.push_str(&"-".repeat(total));
            } else {
                out.push_str(&render_row(row, &widths, &self.aligns));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name".into(), "v".into()]);
        t.numeric();
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["longer".into(), "22.5".into()]);
        t
    }

    #[test]
    fn render_pads_columns() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        // Header and both rows end aligned at the same column for the
        // right-aligned numeric field.
        let col_end = |l: &str| l.len();
        assert_eq!(col_end(lines[2]), col_end(lines[3]));
    }

    #[test]
    fn numeric_right_aligns_all_but_first() {
        let s = sample().render();
        // "1.0" should be right-aligned under "22.5".
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].ends_with("22.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn rule_renders_dashes() {
        let mut t = sample();
        t.rule();
        t.row(vec!["avg".into(), "11.75".into()]);
        let s = t.render();
        let dash_lines = s.lines().filter(|l| l.chars().all(|c| c == '-')).count();
        assert_eq!(dash_lines, 2); // header rule + explicit rule
    }

    #[test]
    fn len_ignores_rules() {
        let mut t = sample();
        t.rule();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn display_matches_render() {
        let t = sample();
        assert_eq!(t.to_string(), t.render());
    }
}
