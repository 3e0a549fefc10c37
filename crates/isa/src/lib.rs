//! `hbdc-isa`: a MIPS-like micro-ISA for the `hbdc` cache-bandwidth study.
//!
//! The paper simulates "a derivative of the MIPS instruction set
//! architecture" via SimpleScalar. This crate provides the equivalent
//! substrate built from scratch:
//!
//! * [`Reg`] / [`FReg`] — 32 integer and 32 floating-point registers
//!   (`r0` is hardwired to zero, as in MIPS).
//! * [`Inst`] — the structured instruction set: integer ALU, FP arithmetic,
//!   loads/stores of four widths, branches, and jumps.
//! * [`asm::assemble`] — a two-pass textual assembler with labels,
//!   `.text`/`.data` sections, data directives, and the usual pseudo
//!   instructions (`li`, `la`, `mov`, `b`).
//! * [`Program`] — an assembled unit: instruction text, initialized data
//!   image, and entry point.
//! * [`disasm`] — a disassembler producing assembler-compatible text.
//! * [`object`] — a compact binary object format for assembled programs.
//!
//! # Examples
//!
//! ```
//! use hbdc_isa::asm::assemble;
//!
//! let program = assemble(
//!     r#"
//!     .text
//!     main:
//!         li   r8, 5
//!         li   r9, 0
//!     loop:
//!         add  r9, r9, r8
//!         addi r8, r8, -1
//!         bne  r8, r0, loop
//!         halt
//!     "#,
//! )?;
//! assert_eq!(program.text().len(), 6);
//! # Ok::<(), hbdc_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
mod error;
mod inst;
mod layout;
pub mod object;
mod program;
mod reg;

pub use error::AsmError;
pub use inst::{AluOp, ArchReg, BranchCond, FpuOp, FuClass, Inst, Width};
pub use layout::{DATA_BASE, HEAP_BASE, STACK_TOP};
pub use program::Program;
pub use reg::{FReg, Reg};
