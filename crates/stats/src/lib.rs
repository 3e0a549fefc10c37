//! Statistics and reporting utilities for the `hbdc` simulator family.
//!
//! Every experiment harness in this workspace reports through the small set
//! of primitives defined here:
//!
//! * [`Counter`] — a named monotonic event counter.
//! * [`Histogram`] — a bounded integer histogram with overflow bucket.
//! * [`summary`] — the arithmetic mean behind the paper's average rows.
//! * [`Table`] — a plain-text table renderer used to print the paper's
//!   tables (Table 2, Table 3, Table 4) and figure data series.
//!
//! # Examples
//!
//! ```
//! use hbdc_stats::{Counter, Table};
//!
//! let mut hits = Counter::new("dl1.hits");
//! hits.incr();
//! assert_eq!(hits.value(), 1);
//!
//! let mut t = Table::new(vec!["program".into(), "ipc".into()]);
//! t.row(vec!["swim".into(), "6.36".into()]);
//! assert!(t.render().contains("swim"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
pub mod summary;
mod table;

pub use counter::Counter;
pub use histogram::Histogram;
pub use table::Table;

/// Formats a float with three decimals, the precision the paper uses for IPC.
///
/// # Examples
///
/// ```
/// assert_eq!(hbdc_stats::ipc(6.2019), "6.202");
/// ```
pub fn ipc(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_formats_three_decimals() {
        assert_eq!(ipc(0.0), "0.000");
        assert_eq!(ipc(18.6), "18.600");
    }
}
