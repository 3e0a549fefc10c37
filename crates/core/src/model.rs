//! The `PortModel` trait and its configuration type.

use hbdc_mem::{BankMapper, BankSelect};
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::{self, Violation};
use crate::banked::BankedPorts;
use crate::ideal::IdealPorts;
use crate::lbic::{CombinePolicy, Lbic};
use crate::replicated::ReplicatedPorts;
use crate::request::MemRequest;
use crate::stats::ArbStats;

/// A data-cache port-arbitration model.
///
/// The simulator calls [`arbitrate_into`](Self::arbitrate_into) once per
/// cycle with the ready memory references *in age order* (oldest first)
/// and receives the indices of the references the cache structure
/// services this cycle, written into a caller-owned buffer so the
/// per-cycle arbitration allocates nothing. Age is position in the list;
/// models never read [`MemRequest::id`]. [`tick`](Self::tick) is called
/// once at the end of every cycle so models with internal state (the
/// LBIC's per-bank store queues) can advance.
///
/// Implementations guarantee:
/// * returned indices are strictly increasing and within range;
/// * the number of grants never exceeds [`peak_per_cycle`](Self::peak_per_cycle);
/// * arbitration is work-conserving under each model's structural rules
///   (no request is refused unless a rule forbids granting it).
pub trait PortModel {
    /// Selects which of the age-ordered `ready` references are serviced
    /// this cycle, writing their indices in increasing order into
    /// `granted` (cleared first).
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>);

    /// Allocating convenience wrapper around
    /// [`arbitrate_into`](Self::arbitrate_into) for tests and one-shot
    /// callers.
    fn arbitrate(&mut self, ready: &[MemRequest]) -> Vec<usize> {
        let mut granted = Vec::new();
        self.arbitrate_into(ready, &mut granted);
        granted
    }

    /// Advances internal state by one cycle. Only a model with state that
    /// drains over time (the LBIC's store queues) overrides the empty
    /// default.
    fn tick(&mut self) {}

    /// The maximum number of references this model can ever grant in one
    /// cycle (e.g. `p` for ideal, `M*N` for an `MxN` LBIC).
    fn peak_per_cycle(&self) -> usize;

    /// A short human-readable label, e.g. `"True-4"` or `"LBIC-4x2"`.
    fn label(&self) -> String;

    /// Accumulated arbitration statistics.
    fn stats(&self) -> &ArbStats;

    /// Re-checks one arbitration round against this model's structural
    /// legality rules, appending any [`Violation`]s to `out`.
    ///
    /// `ready` and `granted` are the exact arguments/results of the
    /// matching [`arbitrate_into`](Self::arbitrate_into) call. The check
    /// is a pure observer — it recomputes legality from `ready` alone and
    /// never perturbs model state — so an audited simulation is
    /// bit-identical to an unaudited one. The default implementation
    /// applies only the generic invariants (indices strictly increasing,
    /// in range, at most [`peak_per_cycle`](Self::peak_per_cycle)
    /// grants); models override it to add their own rules.
    fn audit_round(&self, ready: &[MemRequest], granted: &[usize], out: &mut Vec<Violation>) {
        audit::check_generic(self.peak_per_cycle(), ready, granted, out);
    }

    /// One-line snapshot of model-internal state (store-queue occupancy
    /// and the like) for watchdog diagnostic dumps. Empty by default.
    fn debug_state(&self) -> String {
        String::new()
    }

    /// Serializes every piece of state that affects future arbitration
    /// decisions or reported statistics (store queues, accumulated
    /// counters, injection RNG streams). The default writes nothing —
    /// correct for any stateless model.
    ///
    /// Together with [`load_state`](Self::load_state) this must satisfy:
    /// a model built from the same configuration that loads a saved state
    /// continues *bit-identically* to the model that saved it.
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// model built from the same configuration. The default reads nothing.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the serialized state cannot belong to
    /// this model's configuration, or any decode error.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Ok(())
    }
}

/// Stable wire tags for [`BankSelect`], used by the [`PortConfig`] codec.
fn bank_select_tag(select: BankSelect) -> u8 {
    match select {
        BankSelect::BitSelect => 0,
        BankSelect::XorFold => 1,
        BankSelect::PseudoRandom => 2,
        BankSelect::Word => 3,
    }
}

fn bank_select_from_tag(tag: u8) -> Result<BankSelect, SnapError> {
    match tag {
        0 => Ok(BankSelect::BitSelect),
        1 => Ok(BankSelect::XorFold),
        2 => Ok(BankSelect::PseudoRandom),
        3 => Ok(BankSelect::Word),
        other => Err(SnapError::Corrupt(format!(
            "unknown bank-select tag {other}"
        ))),
    }
}

/// Serializable description of a port model, the unit of configuration for
/// every experiment harness in this workspace.
///
/// # Examples
///
/// ```
/// use hbdc_core::PortConfig;
///
/// let m = PortConfig::banked(8).build(32);
/// assert_eq!(m.peak_per_cycle(), 8);
/// assert_eq!(m.label(), "Bank-8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortConfig {
    /// True (ideal) multi-porting with `ports` ports.
    Ideal {
        /// Number of ports.
        ports: usize,
    },
    /// Multi-porting by replication with `ports` cache copies.
    Replicated {
        /// Number of replicated single-ported copies.
        ports: usize,
    },
    /// Traditional multi-banking with single-ported banks.
    Banked {
        /// Number of line-interleaved banks (power of two).
        banks: u32,
        /// Bank-selection function (the paper uses bit selection).
        select: BankSelect,
    },
    /// The Locality-Based Interleaved Cache, `banks x line_ports`.
    Lbic {
        /// Number of line-interleaved banks (power of two), `M`.
        banks: u32,
        /// Ports on each bank's single-line buffer, `N`.
        line_ports: usize,
        /// Per-bank store-queue capacity (entries).
        store_queue: usize,
        /// How combinable groups are chosen in the LSQ.
        policy: CombinePolicy,
    },
}

impl PortConfig {
    /// Checks the configuration for degenerate values (zero ports/banks,
    /// bank counts that are not powers of two, zero-entry line buffers or
    /// store queues).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            PortConfig::Ideal { ports } | PortConfig::Replicated { ports } => {
                if ports == 0 {
                    return Err(format!("{self:?}: port count must be at least 1"));
                }
            }
            PortConfig::Banked { banks, .. } => {
                if banks == 0 || !banks.is_power_of_two() {
                    return Err(format!("{self:?}: banks must be a power of two >= 1"));
                }
            }
            PortConfig::Lbic {
                banks,
                line_ports,
                store_queue,
                ..
            } => {
                if banks == 0 || !banks.is_power_of_two() {
                    return Err(format!("{self:?}: banks must be a power of two >= 1"));
                }
                if line_ports == 0 {
                    return Err(format!("{self:?}: line buffer needs at least one port"));
                }
                if store_queue == 0 {
                    return Err(format!("{self:?}: store queue needs at least one entry"));
                }
            }
        }
        Ok(())
    }

    /// Builds the model after [`validate`](Self::validate)-ing, so a bad
    /// configuration surfaces as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns the validation failure for degenerate configurations.
    pub fn try_build(&self, line_size: u64) -> Result<Box<dyn PortModel>, String> {
        self.validate()?;
        Ok(self.build(line_size))
    }

    /// Builds the model for a cache with the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero ports/banks, bank counts
    /// that are not powers of two, zero-entry line buffers). Use
    /// [`try_build`](Self::try_build) to get an error instead.
    pub fn build(&self, line_size: u64) -> Box<dyn PortModel> {
        match *self {
            PortConfig::Ideal { ports } => Box::new(IdealPorts::new(ports)),
            PortConfig::Replicated { ports } => Box::new(ReplicatedPorts::new(ports)),
            PortConfig::Banked { banks, select } => Box::new(BankedPorts::with_mapper(
                BankMapper::with_select(select, banks, line_size),
            )),
            PortConfig::Lbic {
                banks,
                line_ports,
                store_queue,
                policy,
            } => Box::new(Lbic::new(banks, line_ports, store_queue, line_size, policy)),
        }
    }

    /// A traditional multi-bank configuration with the paper's bit
    /// selection.
    pub fn banked(banks: u32) -> Self {
        PortConfig::Banked {
            banks,
            select: BankSelect::BitSelect,
        }
    }

    /// A standard LBIC configuration with the defaults used throughout the
    /// paper's evaluation: an 8-entry per-bank store queue and the
    /// leading-request combining policy (§5.2).
    pub fn lbic(banks: u32, line_ports: usize) -> Self {
        PortConfig::Lbic {
            banks,
            line_ports,
            store_queue: 8,
            policy: CombinePolicy::LeadingRequest,
        }
    }

    /// Serializes the configuration with stable wire tags, so snapshots
    /// written by one build decode in another.
    pub fn save_state(&self, w: &mut StateWriter) {
        match *self {
            PortConfig::Ideal { ports } => {
                w.put_u8(0);
                w.put_usize(ports);
            }
            PortConfig::Replicated { ports } => {
                w.put_u8(1);
                w.put_usize(ports);
            }
            PortConfig::Banked { banks, select } => {
                w.put_u8(2);
                w.put_u32(banks);
                w.put_u8(bank_select_tag(select));
            }
            PortConfig::Lbic {
                banks,
                line_ports,
                store_queue,
                policy,
            } => {
                w.put_u8(3);
                w.put_u32(banks);
                w.put_usize(line_ports);
                w.put_usize(store_queue);
                w.put_u8(match policy {
                    CombinePolicy::LeadingRequest => 0,
                    CombinePolicy::LargestGroup => 1,
                });
            }
        }
    }

    /// Decodes a configuration written by
    /// [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on an unknown variant or policy tag, or any
    /// decode error.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(PortConfig::Ideal {
                ports: r.get_usize()?,
            }),
            1 => Ok(PortConfig::Replicated {
                ports: r.get_usize()?,
            }),
            2 => Ok(PortConfig::Banked {
                banks: r.get_u32()?,
                select: bank_select_from_tag(r.get_u8()?)?,
            }),
            3 => Ok(PortConfig::Lbic {
                banks: r.get_u32()?,
                line_ports: r.get_usize()?,
                store_queue: r.get_usize()?,
                policy: match r.get_u8()? {
                    0 => CombinePolicy::LeadingRequest,
                    1 => CombinePolicy::LargestGroup,
                    other => {
                        return Err(SnapError::Corrupt(format!(
                            "unknown combine-policy tag {other}"
                        )))
                    }
                },
            }),
            other => Err(SnapError::Corrupt(format!(
                "unknown port-config tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_expected_labels_and_peaks() {
        let cases: Vec<(PortConfig, &str, usize)> = vec![
            (PortConfig::Ideal { ports: 4 }, "True-4", 4),
            (PortConfig::Replicated { ports: 2 }, "Repl-2", 2),
            (PortConfig::banked(16), "Bank-16", 16),
            (PortConfig::lbic(4, 2), "LBIC-4x2", 8),
        ];
        for (cfg, label, peak) in cases {
            let m = cfg.build(32);
            assert_eq!(m.label(), label);
            assert_eq!(m.peak_per_cycle(), peak);
        }
    }

    #[test]
    fn config_codec_roundtrips_every_variant() {
        let cases = [
            PortConfig::Ideal { ports: 4 },
            PortConfig::Replicated { ports: 2 },
            PortConfig::Banked {
                banks: 8,
                select: BankSelect::XorFold,
            },
            PortConfig::Banked {
                banks: 4,
                select: BankSelect::Word,
            },
            PortConfig::Lbic {
                banks: 4,
                line_ports: 2,
                store_queue: 8,
                policy: CombinePolicy::LargestGroup,
            },
        ];
        for cfg in cases {
            let mut w = StateWriter::new();
            cfg.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = StateReader::new(&bytes);
            assert_eq!(PortConfig::load_state(&mut r).unwrap(), cfg);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn config_codec_rejects_unknown_tag() {
        let mut w = StateWriter::new();
        w.put_u8(99);
        let bytes = w.into_bytes();
        assert!(matches!(
            PortConfig::load_state(&mut StateReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn lbic_helper_uses_defaults() {
        match PortConfig::lbic(2, 4) {
            PortConfig::Lbic {
                banks,
                line_ports,
                store_queue,
                policy,
            } => {
                assert_eq!(banks, 2);
                assert_eq!(line_ports, 4);
                assert_eq!(store_queue, 8);
                assert_eq!(policy, CombinePolicy::LeadingRequest);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
