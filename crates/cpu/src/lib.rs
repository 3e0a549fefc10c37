//! `hbdc-cpu`: a dynamic superscalar out-of-order timing simulator.
//!
//! This crate rebuilds the paper's evaluation vehicle — "an extended
//! version of the SimpleScalar `sim-outorder` simulator" — from scratch:
//!
//! * [`Emulator`] — a functional-first emulator for the
//!   [`hbdc-isa`](hbdc_isa) micro-ISA that produces the committed dynamic
//!   instruction stream (the paper's machine has a perfect front end and
//!   never mis-speculates, so the committed stream *is* the fetched
//!   stream).
//! * [`Window`] — the register update unit (RUU): a 1024-entry unified
//!   instruction window with dataflow wakeup.
//! * [`Lsq`] — the 512-entry load/store queue: loads execute when all
//!   prior store addresses are known, same-address loads forward from
//!   earlier stores with zero latency, stores access the cache at commit.
//! * [`FuPools`] — the functional-unit pools with Table 1 latencies.
//! * [`Simulator`] — the cycle-by-cycle pipeline binding all of the above
//!   to a [`PortModel`](hbdc_core::PortModel) and a
//!   [`Hierarchy`](hbdc_mem::Hierarchy), reporting IPC.
//!
//! Simulation failures — pipeline deadlock (caught by a forward-progress
//! watchdog), cycle-budget exhaustion, invariant violations found by the
//! per-cycle auditor ([`CpuConfig::audit`]), malformed instructions —
//! surface as typed [`SimError`]s with cycle/PC/unit context rather than
//! panics.
//!
//! # Examples
//!
//! ```
//! use hbdc_cpu::{CpuConfig, Simulator};
//! use hbdc_core::PortConfig;
//! use hbdc_isa::asm::assemble;
//! use hbdc_mem::HierarchyConfig;
//!
//! let program = assemble(
//!     ".data\nv: .space 256\n.text\nmain:\n  la r8, v\n  li r9, 32\n\
//!      loop:\n  lw r10, 0(r8)\n  addi r8, r8, 8\n  addi r9, r9, -1\n\
//!      bnez r9, loop\n  halt\n",
//! )?;
//! let mut sim = Simulator::new(
//!     &program,
//!     CpuConfig::default(),
//!     HierarchyConfig::default(),
//!     PortConfig::lbic(4, 2),
//! );
//! let report = sim.run()?;
//! assert!(report.committed > 0);
//! assert!(report.ipc() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod config;
mod dynamic;
mod error;
mod fu;
mod functional;
mod lsq;
mod report;
mod sim;
mod snapshot;
mod trace;
mod window;

pub use bpred::{AlwaysTaken, Bimodal, BranchPredictor, FrontEnd, Gshare, PredictorKind};
pub use config::CpuConfig;
pub use dynamic::DynInst;
pub use error::SimError;
pub use fu::FuPools;
pub use functional::Emulator;
pub use lsq::{Lsq, LsqStalls};
pub use report::SimReport;
pub use sim::{stageprof, PipeStats, Simulator};
pub use snapshot::{SimSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use trace::{CacheLookup, CommittedTrace, TracePlayer, TRACE_MAGIC, TRACE_VERSION};
pub use window::{InstMeta, Retired, Window};
