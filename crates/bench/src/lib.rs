//! `hbdc-bench`: the experiment harness for the paper's evaluation.
//!
//! Each table and figure of the paper has a binary that regenerates it
//! (`table2`, `table3`, `figure3`, `table4`) plus ablation binaries
//! (`ablation_bankmap`, `ablation_policy`, `ablation_depth`). The shared
//! machinery — building a benchmark, running it through the timing
//! simulator under a port model, and rendering rows — lives here so the
//! binaries and the Criterion benches stay thin. The campaign engine every
//! matrix binary runs through (journal state, leases, retries and
//! quarantine, the thread and `--shard` subprocess executors) lives in
//! the private `supervise` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod runner;
pub(crate) mod supervise;
