//! `hbdc-bench`: the experiment harness for the paper's evaluation.
//!
//! Every table, figure and ablation of the paper is an
//! [`artifacts::Artifact`]: a list of matrix columns plus a renderer.
//! `hbdc-sim campaign all|<artifact>...` runs the union of the named
//! artifacts' cells once, through the one campaign engine in [`runner`],
//! and renders each; the journal format lives in the private `journal`
//! module. Every campaign prints its `sim-speed` line; the `work_profile`
//! artifact pins the Table 3 cells' simulated work that the rate is
//! measured over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod artifacts;
mod journal;
pub mod runner;
