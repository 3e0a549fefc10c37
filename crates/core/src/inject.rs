//! Seeded fault injection: deliberately corrupt grant decisions to prove
//! the invariant auditor fires.
//!
//! [`FaultInjector`] wraps any [`PortModel`] and, on seeded-pseudo-random
//! eligible cycles, corrupts the grant set the inner model produced in a
//! way that violates one specific legality rule (its [`FaultClass`]) —
//! granting a bank-conflicted reference, combining across lines, breaking
//! a broadcast store's exclusivity, and so on. The corruption models the
//! silent arbitration bugs the auditor exists to catch: a flipped ready
//! bit, a miswired bank decoder, an off-by-one port counter.
//!
//! Because [`audit_round`](PortModel::audit_round) is delegated to the
//! *inner* model, the corrupted grants are always checked against the
//! true rules; a fired injection must therefore be reported within the
//! same cycle, which is exactly what the property tests assert.

use hbdc_mem::BankMapper;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::Violation;
use crate::model::{PortConfig, PortModel};
use crate::request::MemRequest;
use crate::stats::ArbStats;

/// The violation class a [`FaultInjector`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Grant a second reference to an already-granted bank (banked model;
    /// models a miswired bank-conflict detector).
    BankDoubleGrant,
    /// Grant a reference to a granted bank whose line differs from the
    /// leader's locked line (LBIC; models a corrupt bank/line mapping).
    CrossLineGrant,
    /// Grant an (N+1)-th same-line reference to a bank whose line buffer
    /// has only N ports (LBIC; models a stuck ready bit in the combining
    /// logic).
    CombiningOverflow,
    /// Grant another reference in the same cycle as a broadcast store
    /// (replicated model; models a port-reservation bug).
    StoreBroadcastOverlap,
    /// Grant the same reference twice in one cycle (any model).
    DuplicateGrant,
    /// Grant more references than the model's peak per cycle (any model).
    PeakOverflow,
}

/// A [`PortModel`] wrapper that corrupts its inner model's grants.
///
/// # Examples
///
/// ```
/// use hbdc_core::{FaultClass, FaultInjector, MemRequest, PortConfig, PortModel};
///
/// let mut m = FaultInjector::new(
///     PortConfig::banked(2),
///     32,
///     FaultClass::BankDoubleGrant,
///     42,
/// )
/// .unwrap();
/// // Two same-bank references: the clean model grants one; once the
/// // injector fires it grants both, and the audit reports the fault.
/// let ready = vec![MemRequest::load(0, 0x00), MemRequest::load(1, 0x40)];
/// let mut caught = false;
/// for _ in 0..64 {
///     let granted = m.arbitrate(&ready);
///     let mut out = Vec::new();
///     m.audit_round(&ready, &granted, &mut out);
///     assert_eq!(m.fired_last_round(), !out.is_empty());
///     caught |= !out.is_empty();
///     m.tick();
/// }
/// assert!(caught, "injector never fired in 64 cycles");
/// ```
pub struct FaultInjector {
    inner: Box<dyn PortModel>,
    class: FaultClass,
    mapper: Option<BankMapper>,
    line_shift: u32,
    line_ports: usize,
    rng: u64,
    injected: u64,
    fired_last: bool,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.label())
            .field("class", &self.class)
            .field("injected", &self.injected)
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Wraps a freshly built model for `cfg`, corrupting per `class` with
    /// a deterministic stream seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` is degenerate or `class` cannot apply to
    /// this model kind (e.g. [`FaultClass::CrossLineGrant`] on an ideal
    /// cache).
    pub fn new(
        cfg: PortConfig,
        line_size: u64,
        class: FaultClass,
        seed: u64,
    ) -> Result<Self, String> {
        let inner = cfg.try_build(line_size)?;
        let (mapper, line_ports) = match cfg {
            PortConfig::Banked { banks, select } => {
                (Some(BankMapper::with_select(select, banks, line_size)), 0)
            }
            PortConfig::Lbic {
                banks, line_ports, ..
            } => (Some(BankMapper::bit_select(banks, line_size)), line_ports),
            _ => (None, 0),
        };
        let applicable = match class {
            FaultClass::BankDoubleGrant => matches!(cfg, PortConfig::Banked { .. }),
            FaultClass::CrossLineGrant | FaultClass::CombiningOverflow => {
                matches!(cfg, PortConfig::Lbic { .. })
            }
            FaultClass::StoreBroadcastOverlap => matches!(cfg, PortConfig::Replicated { .. }),
            FaultClass::DuplicateGrant | FaultClass::PeakOverflow => true,
        };
        if !applicable {
            return Err(format!("fault class {class:?} does not apply to {cfg:?}"));
        }
        Ok(Self {
            inner,
            class,
            mapper,
            line_shift: line_size.trailing_zeros(),
            line_ports,
            rng: seed | 1, // xorshift must not start at zero
            injected: 0,
            fired_last: false,
        })
    }

    /// Wraps `cfg` with the fault class most characteristic of its model
    /// kind: bank double-grants for banked, cross-line grants for the
    /// LBIC, store-broadcast overlap for replication, peak overflow for
    /// ideal ports.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` is degenerate.
    pub fn auto(cfg: PortConfig, line_size: u64, seed: u64) -> Result<Self, String> {
        let class = match cfg {
            PortConfig::Banked { .. } => FaultClass::BankDoubleGrant,
            PortConfig::Lbic { .. } => FaultClass::CrossLineGrant,
            PortConfig::Replicated { .. } => FaultClass::StoreBroadcastOverlap,
            PortConfig::Ideal { .. } => FaultClass::PeakOverflow,
        };
        Self::new(cfg, line_size, class, seed)
    }

    /// Total corrupted arbitration rounds so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Whether the most recent arbitration round was corrupted.
    pub fn fired_last_round(&self) -> bool {
        self.fired_last
    }

    /// The class of fault this injector produces.
    pub fn class(&self) -> FaultClass {
        self.class
    }

    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn bank_of(&self, addr: u64) -> usize {
        match &self.mapper {
            Some(m) => m.bank_of(addr) as usize,
            None => 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Inserts `g` into the sorted grant list. For duplicates, inserts a
    /// second copy (that *is* the fault).
    fn push_grant(granted: &mut Vec<usize>, g: usize) {
        let pos = match granted.binary_search(&g) {
            Ok(pos) | Err(pos) => pos,
        };
        granted.insert(pos, g);
    }

    /// Attempts to corrupt `granted`; returns whether a fault was placed.
    fn try_inject(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) -> bool {
        let denied =
            |granted: &Vec<usize>| (0..ready.len()).find(|i| granted.binary_search(i).is_err());
        match self.class {
            FaultClass::BankDoubleGrant => {
                // A reference denied by a bank conflict: its bank already
                // granted someone. Granting it anyway double-books the bank.
                let victim = (0..ready.len()).find(|&i| {
                    granted.binary_search(&i).is_err()
                        && granted
                            .iter()
                            .any(|&g| self.bank_of(ready[g].addr) == self.bank_of(ready[i].addr))
                });
                victim.map(|v| Self::push_grant(granted, v)).is_some()
            }
            FaultClass::CrossLineGrant => {
                // A denied reference whose bank granted a *different* line.
                let victim = (0..ready.len()).find(|&i| {
                    granted.binary_search(&i).is_err()
                        && granted.iter().any(|&g| {
                            self.bank_of(ready[g].addr) == self.bank_of(ready[i].addr)
                                && self.line_of(ready[g].addr) != self.line_of(ready[i].addr)
                        })
                });
                victim.map(|v| Self::push_grant(granted, v)).is_some()
            }
            FaultClass::CombiningOverflow => {
                // A denied same-line reference to a bank whose line buffer
                // is already fully subscribed this cycle.
                let victim = (0..ready.len()).find(|&i| {
                    if granted.binary_search(&i).is_ok() {
                        return false;
                    }
                    let (bank, line) = (self.bank_of(ready[i].addr), self.line_of(ready[i].addr));
                    let same_line = granted
                        .iter()
                        .filter(|&&g| {
                            self.bank_of(ready[g].addr) == bank
                                && self.line_of(ready[g].addr) == line
                        })
                        .count();
                    same_line >= self.line_ports
                });
                victim.map(|v| Self::push_grant(granted, v)).is_some()
            }
            FaultClass::StoreBroadcastOverlap => {
                let has_store = granted
                    .iter()
                    .any(|&g| ready.get(g).is_some_and(|r| r.is_store));
                if has_store {
                    // Grant anything else beside the broadcast store.
                    denied(granted)
                        .map(|d| Self::push_grant(granted, d))
                        .is_some()
                } else {
                    // Or slip a denied store in beside granted loads.
                    let store = (0..ready.len())
                        .find(|&i| ready[i].is_store && granted.binary_search(&i).is_err());
                    match (store, granted.is_empty()) {
                        (Some(s), false) => {
                            Self::push_grant(granted, s);
                            true
                        }
                        _ => false,
                    }
                }
            }
            FaultClass::DuplicateGrant => match granted.first().copied() {
                Some(g) => {
                    Self::push_grant(granted, g);
                    true
                }
                None => false,
            },
            FaultClass::PeakOverflow => {
                if granted.len() >= self.inner.peak_per_cycle() {
                    denied(granted)
                        .map(|d| Self::push_grant(granted, d))
                        .is_some()
                } else {
                    false
                }
            }
        }
    }
}

impl PortModel for FaultInjector {
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        self.inner.arbitrate_into(ready, granted);
        // Fire on roughly half of the eligible cycles, seed-deterministic.
        self.fired_last = self.next_rng() & 1 == 0 && self.try_inject(ready, granted);
        if self.fired_last {
            self.injected += 1;
        }
    }

    // The wrapped model keeps its own offered-set index (if any), so the
    // driver's offer deltas go straight through to it.
    fn mirrors_offers(&self) -> bool {
        self.inner.mirrors_offers()
    }

    fn offer_insert(&mut self, req: MemRequest) {
        self.inner.offer_insert(req);
    }

    fn offer_remove(&mut self, req: MemRequest) {
        self.inner.offer_remove(req);
    }

    fn offer_reset(&mut self, offered: &[MemRequest]) {
        self.inner.offer_reset(offered);
    }

    fn tick(&mut self) {
        self.inner.tick();
    }

    // Deliberately inherits the conservative `next_event` default
    // (`Some(now)`): the injection RNG advances on *every* arbitration
    // round, including empty ones, so skipping any cycle would desync
    // the seed-deterministic fault stream.

    fn peak_per_cycle(&self) -> usize {
        self.inner.peak_per_cycle()
    }

    fn label(&self) -> String {
        format!("{}+fault", self.inner.label())
    }

    fn stats(&self) -> &ArbStats {
        self.inner.stats()
    }

    /// Audits against the *inner* model's true rules, so injected
    /// corruption is judged by the invariants it breaks.
    fn audit_round(&self, ready: &[MemRequest], granted: &[usize], out: &mut Vec<Violation>) {
        self.inner.audit_round(ready, granted, out);
    }

    fn debug_state(&self) -> String {
        let inner = self.inner.debug_state();
        format!(
            "fault injector ({:?}, {} fired); {inner}",
            self.class, self.injected
        )
    }

    // The xorshift stream position must survive a snapshot so a resumed
    // injected run corrupts exactly the cycles the straight-through run
    // would have.
    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
        w.put_u64(self.rng);
        w.put_u64(self.injected);
        w.put_bool(self.fired_last);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)?;
        self.rng = r.get_u64()?;
        self.injected = r.get_u64()?;
        self.fired_last = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `inj` over `ready` until it fires, returning that round's
    /// grants (panics after 256 clean rounds).
    fn fire(inj: &mut FaultInjector, ready: &[MemRequest]) -> Vec<usize> {
        for _ in 0..256 {
            let granted = inj.arbitrate(ready);
            inj.tick();
            if inj.fired_last_round() {
                return granted;
            }
        }
        panic!("injector never fired");
    }

    #[test]
    fn class_must_match_model_kind() {
        assert!(FaultInjector::new(
            PortConfig::Ideal { ports: 2 },
            32,
            FaultClass::CrossLineGrant,
            1
        )
        .is_err());
        assert!(
            FaultInjector::new(PortConfig::banked(4), 32, FaultClass::BankDoubleGrant, 1).is_ok()
        );
    }

    #[test]
    fn bank_double_grant_is_detected() {
        let cfg = PortConfig::banked(2);
        let mut inj = FaultInjector::new(cfg, 32, FaultClass::BankDoubleGrant, 7).unwrap();
        // Both to bank 0, different lines.
        let ready = vec![MemRequest::load(0, 0x00), MemRequest::load(1, 0x40)];
        let granted = fire(&mut inj, &ready);
        let mut out = Vec::new();
        inj.audit_round(&ready, &granted, &mut out);
        assert!(
            out.iter().any(|v| v.rule == "banked-double-grant"),
            "{out:?}"
        );
    }

    #[test]
    fn store_broadcast_overlap_is_detected() {
        let cfg = PortConfig::Replicated { ports: 4 };
        let mut inj = FaultInjector::new(cfg, 32, FaultClass::StoreBroadcastOverlap, 9).unwrap();
        let ready = vec![MemRequest::store(0, 0x00), MemRequest::load(1, 0x40)];
        let granted = fire(&mut inj, &ready);
        let mut out = Vec::new();
        inj.audit_round(&ready, &granted, &mut out);
        assert!(
            out.iter().any(|v| v.rule == "repl-store-overlap"),
            "{out:?}"
        );
    }

    #[test]
    fn state_roundtrip_resumes_the_injection_stream() {
        let ready = vec![MemRequest::load(0, 0x00), MemRequest::load(1, 0x40)];
        let mut inj =
            FaultInjector::new(PortConfig::banked(2), 32, FaultClass::BankDoubleGrant, 77).unwrap();
        for _ in 0..16 {
            inj.arbitrate(&ready);
            inj.tick();
        }
        let mut w = StateWriter::new();
        inj.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored =
            FaultInjector::new(PortConfig::banked(2), 32, FaultClass::BankDoubleGrant, 77).unwrap();
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored.injected(), inj.injected());
        for _ in 0..32 {
            assert_eq!(restored.arbitrate(&ready), inj.arbitrate(&ready));
            assert_eq!(restored.fired_last_round(), inj.fired_last_round());
            restored.tick();
            inj.tick();
        }
    }

    #[test]
    fn injection_is_seed_deterministic() {
        let ready = vec![MemRequest::load(0, 0x00), MemRequest::load(1, 0x40)];
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let mut inj = FaultInjector::new(
                    PortConfig::banked(2),
                    32,
                    FaultClass::BankDoubleGrant,
                    1234,
                )
                .unwrap();
                (0..32)
                    .map(|_| {
                        inj.arbitrate(&ready);
                        inj.tick();
                        inj.fired_last_round()
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].iter().any(|&f| f));
    }
}
