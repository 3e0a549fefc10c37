//! `hbdc-core`: high-bandwidth data-cache port models.
//!
//! This crate implements the paper's contribution: the four ways of
//! supplying multiple data-cache accesses per cycle to a wide superscalar
//! processor, expressed as *port-arbitration models*. Each cycle, the
//! load/store queue presents its ready memory references in age order; the
//! port model decides which of them the cache structure can service this
//! cycle:
//!
//! * [`IdealPorts`] — true multi-porting: any `p` references per cycle
//!   (paper §3.1, the performance upper bound).
//! * [`ReplicatedPorts`] — `p` identical cache copies: loads use any port,
//!   but a store must broadcast to all copies and therefore proceeds alone
//!   (paper §3.1, the Alpha 21164 scheme).
//! * [`BankedPorts`] — `M` line-interleaved single-ported banks: at most
//!   one reference per bank per cycle (paper §3.2, the R10000 scheme).
//! * [`Lbic`] — the **Locality-Based Interleaved Cache** (paper §5): `M`
//!   banks, each with an `N`-ported single-line buffer and a store queue.
//!   Up to `N` references to the *same line* of a bank combine into one
//!   bank access, so an `MxN` LBIC peaks at `M*N` references per cycle.
//!
//! All models implement the [`PortModel`] trait and are built from a
//! serializable [`PortConfig`], which also names the model and gives its
//! peak grant rate. A model only decides grants: its driver owns the
//! [`ArbStats`] the model adds its denial causes to. The [`cost`] module provides the
//! first-order die-area model behind the paper's cost-effectiveness
//! argument. The [`audit`] module re-checks each arbitration round
//! against the models' structural legality rules, and [`FaultInjector`]
//! deliberately corrupts grants to prove those checks fire.
//!
//! # Examples
//!
//! ```
//! use hbdc_core::{ArbStats, MemRequest, PortConfig, PortModel};
//!
//! let cfg = PortConfig::Lbic {
//!     banks: 2,
//!     line_ports: 2,
//!     store_queue: 8,
//!     policy: hbdc_core::CombinePolicy::LeadingRequest,
//! };
//! let (mut lbic, mut stats) = (cfg.build(32), ArbStats::new(cfg.peak()));
//!
//! // Four references: two to line 0 of bank 0, two to line 0 of bank 1.
//! let ready = vec![
//!     MemRequest::load(0, 0x00),
//!     MemRequest::load(1, 0x08),
//!     MemRequest::load(2, 0x20),
//!     MemRequest::load(3, 0x28),
//! ];
//! let granted = lbic.arbitrate(&ready, &mut stats);
//! assert_eq!(granted, vec![0, 1, 2, 3]); // all four in one cycle
//! assert_eq!(stats.combined, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod banked;
pub mod cost;
mod ideal;
mod inject;
mod lbic;
mod model;
pub mod relations;
mod replicated;
mod request;
mod stats;

pub use audit::Violation;
pub use banked::BankedPorts;
pub use ideal::IdealPorts;
pub use inject::{FaultClass, FaultInjector};
pub use lbic::{CombinePolicy, Lbic};
pub use model::{PortConfig, PortModel};
pub use replicated::ReplicatedPorts;
pub use request::MemRequest;
pub use stats::ArbStats;
