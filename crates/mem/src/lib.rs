//! `hbdc-mem`: the memory substrate for the cache-bandwidth study.
//!
//! This crate provides everything below the port-arbitration layer:
//!
//! * [`Memory`] — a sparse, paged, byte-addressable flat memory used by the
//!   functional emulator for program data.
//! * [`CacheGeometry`] — size/line/associativity arithmetic (index, tag,
//!   line address, offset extraction).
//! * [`TagArray`] — a tag store with true-LRU replacement and dirty bits;
//!   the building block for both cache levels.
//! * [`BankMapper`] — bank-selection functions for interleaved caches
//!   ([`BankSelect`]): the paper's bit selection (Figure 2c), plus
//!   XOR-fold, pseudo-random and word interleaving as ablations (paper
//!   §3.2 discusses the tradeoff).
//! * [`MshrFile`] — miss status holding registers for the non-blocking L1.
//! * [`FibHashMap`] — a `u64`-keyed map with multiplicative hashing, for
//!   the per-reference maps of this crate and the LSQ.
//! * [`Hierarchy`] — the L1 → L2 → DRAM timing model of the paper's
//!   Table 1 (32KB direct-mapped write-back L1, 512KB 4-way L2 at 4
//!   cycles, 10-cycle main memory).
//!
//! # Examples
//!
//! ```
//! use hbdc_mem::{CacheGeometry, Hierarchy, HierarchyConfig};
//!
//! let geom = CacheGeometry::new(32 * 1024, 32, 1); // the paper's L1
//! assert_eq!(geom.num_sets(), 1024);
//!
//! let mut hier = Hierarchy::new(HierarchyConfig::default());
//! let miss = hier.access(0x1000_0000, false, 0); // cold miss
//! assert!(!miss.l1_hit);
//! let hit = hier.access(0x1000_0004, false, 1); // same line: hit
//! assert!(hit.l1_hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bankmap;
mod fibhash;
mod geometry;
mod hierarchy;
mod memory;
mod mshr;
mod stats;
mod tagarray;

pub use bankmap::{BankMapper, BankSelect};
pub use fibhash::{FibHashMap, FibHasher};
pub use geometry::CacheGeometry;
pub use hierarchy::{AccessOutcome, Hierarchy, HierarchyConfig};
pub use memory::Memory;
pub use mshr::{MshrFile, MshrOutcome};
pub use stats::CacheStats;
pub use tagarray::{LookupResult, TagArray};
