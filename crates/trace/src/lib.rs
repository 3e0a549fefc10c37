//! `hbdc-trace`: memory-reference-stream capture and analysis.
//!
//! The paper's Section 4 characterizes the memory reference stream to
//! explain why multi-bank caches trail ideal multi-porting: consecutive
//! references cluster in the *same bank*, and mostly in the *same line* of
//! that bank. This crate rebuilds that analysis pipeline:
//!
//! * [`MemRef`] — one reference of a stream (address + load/store).
//! * [`ConsecutiveMapping`] — the Figure 3 analyzer: for an infinite
//!   `M`-bank line-interleaved cache, classifies each consecutive
//!   reference pair as *same bank, same line*, *same bank, different
//!   line*, or `(B + i) mod M` for the other banks.
//! * [`ConflictAnalysis`] — finite-window bank-pressure statistics under
//!   any [`BankMapper`](hbdc_mem::BankMapper), used by the bank-selection
//!   ablation.
//! * [`TraceCacheSim`] — a trace-driven cache simulator producing the
//!   miss rates of the paper's Table 2.
//!
//! # Examples
//!
//! ```
//! use hbdc_trace::{ConsecutiveMapping, MemRef};
//!
//! let refs = [
//!     MemRef::load(0x000), // line 0, bank 0
//!     MemRef::load(0x008), // same line        → B-same-line
//!     MemRef::load(0x020), // next line, bank 1 → (B+1) mod 4
//! ];
//! let mut f3 = ConsecutiveMapping::new(4, 32);
//! f3.extend(refs.iter().copied());
//! assert_eq!(f3.pairs(), 2);
//! assert_eq!(f3.same_line_fraction(), 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cachesim;
mod conflict;
mod figure3;
mod stream;

pub use cachesim::TraceCacheSim;
pub use conflict::ConflictAnalysis;
pub use figure3::ConsecutiveMapping;
pub use stream::MemRef;
