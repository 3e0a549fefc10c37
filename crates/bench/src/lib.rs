//! `hbdc-bench`: the experiment harness for the paper's evaluation.
//!
//! Every table, figure and ablation of the paper is an
//! [`artifacts::Artifact`]: a list of matrix columns plus a renderer.
//! `hbdc-sim campaign all|<artifact>...` runs the union of the named
//! artifacts' cells once and renders each; the `throughput` binary times
//! the Table 3 matrix. Both run through the one campaign engine in
//! [`runner`]; its journal format lives in the private `journal` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod artifacts;
mod journal;
pub mod runner;
