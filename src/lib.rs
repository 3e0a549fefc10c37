//! # hbdc — High-Bandwidth Data Cache design for multi-issue processors
//!
//! A from-scratch reproduction of *Rivers, Tyson, Davidson, Austin — "On
//! High-Bandwidth Data Cache Design for Multi-Issue Processors"*,
//! MICRO-30, 1997: the **Locality-Based Interleaved Cache (LBIC)** and
//! everything needed to evaluate it — a MIPS-like micro-ISA with an
//! assembler, a dynamic superscalar out-of-order timing simulator
//! (RUU + LSQ), a two-level non-blocking memory hierarchy, four cache
//! port-arbitration models (ideal, replicated, banked, LBIC), reference
//! stream analysis, and ten SPEC95 workload analogs.
//!
//! This crate is the facade: it re-exports each subsystem under a short
//! module name and offers a [`prelude`] for experiment scripts.
//!
//! ## Quickstart
//!
//! ```
//! use hbdc::prelude::*;
//!
//! // Assemble a kernel, then measure IPC under a 4x2 LBIC.
//! let program = assemble(
//!     ".data\nv: .space 4096\n.text\nmain:\n  la r8, v\n  li r9, 256\n\
//!      loop:\n  lw r1, 0(r8)\n  lw r2, 8(r8)\n  addi r8, r8, 16\n\
//!      addi r9, r9, -1\n  bnez r9, loop\n  halt\n",
//! )?;
//! let report = Simulator::new(
//!     &program,
//!     CpuConfig::default(),
//!     HierarchyConfig::default(),
//!     PortConfig::lbic(4, 2),
//! )
//! .run()?;
//! assert!(report.ipc() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `hbdc-isa` | micro-ISA, assembler, disassembler |
//! | [`mem`] | `hbdc-mem` | flat memory, tag arrays, MSHRs, hierarchy, bank mapping |
//! | [`core`] | `hbdc-core` | port models: ideal / replicated / banked / **LBIC** |
//! | [`cpu`] | `hbdc-cpu` | out-of-order timing simulator (RUU + LSQ) |
//! | [`trace`] | `hbdc-trace` | Figure-3 analysis, conflict stats, trace cache simulation |
//! | [`workloads`] | `hbdc-workloads` | the ten SPEC95 benchmark analogs |
//! | [`stats`] | `hbdc-stats` | counters, histograms, tables |
//! | [`snap`] | `hbdc-snap` | checkpoint codec, sealed containers, atomic writes, thread CPU clock |
//! | [`fuzz`] | `hbdc-fuzz` | differential fuzzing: generator, metamorphic oracle, shrinker |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hbdc_core as core;
pub use hbdc_cpu as cpu;
pub use hbdc_fuzz as fuzz;
pub use hbdc_isa as isa;
pub use hbdc_mem as mem;
pub use hbdc_snap as snap;
pub use hbdc_stats as stats;
pub use hbdc_trace as trace;
pub use hbdc_workloads as workloads;

/// The types most experiment scripts need, in one import.
///
/// # Examples
///
/// ```
/// use hbdc::prelude::*;
///
/// let bench = by_name("mgrid").expect("registered benchmark");
/// let program = bench.build(Scale::Test);
/// assert!(!program.text().is_empty());
/// ```
pub mod prelude {
    pub use hbdc_core::{
        CombinePolicy, FaultClass, FaultInjector, MemRequest, PortConfig, PortModel, Violation,
    };
    pub use hbdc_cpu::{CpuConfig, Emulator, SimError, SimReport, SimSnapshot, Simulator};
    pub use hbdc_isa::asm::assemble;
    pub use hbdc_isa::Program;
    pub use hbdc_mem::{BankMapper, BankSelect, CacheGeometry, Hierarchy, HierarchyConfig};
    pub use hbdc_trace::{ConsecutiveMapping, MemRef, TraceCacheSim};
    pub use hbdc_workloads::{all, by_name, Benchmark, Scale, Suite};
}
