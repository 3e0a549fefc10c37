//! Arbitration statistics: one set per simulation, owned by its driver.

use hbdc_snap::{SnapError, StateReader, StateWriter};
use hbdc_stats::Histogram;

/// Accounting of a run's arbitration rounds.
///
/// The driver of a [`PortModel`](crate::PortModel) (the simulator, or the
/// [`arbitrate`](crate::PortModel::arbitrate) wrapper) owns one of these:
/// it records each round's offered and granted counts, and passes it to
/// the model, which adds the cause-specific counters its rules produce.
///
/// # Examples
///
/// ```
/// use hbdc_core::{ArbStats, MemRequest, PortConfig, PortModel};
///
/// let cfg = PortConfig::Ideal { ports: 2 };
/// let (mut m, mut s) = (cfg.build(32), ArbStats::new(cfg.peak()));
/// m.arbitrate(&[MemRequest::load(0, 0), MemRequest::load(1, 8), MemRequest::load(2, 64)], &mut s);
/// assert_eq!(s.offered(), 3);
/// assert_eq!(s.granted(), 2);
/// assert_eq!(s.rounds(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ArbStats {
    offered: u64,
    granted: u64,
    grants_per_round: Histogram,
    /// References denied because an older reference held their bank (or,
    /// under the LBIC's largest-group policy, any denied reference).
    pub bank_conflicts: u64,
    /// LBIC references granted by joining another's line-buffer access.
    pub combined: u64,
    /// Replicated-cache rounds a broadcast store took alone.
    pub store_serializations: u64,
    /// LBIC same-line references denied because the line buffer's ports
    /// were all taken.
    pub port_exhaustion: u64,
    /// LBIC stores denied because their bank's store queue was full.
    pub sq_full_stalls: u64,
    /// LBIC queued stores retired by store-queue drains.
    pub sq_drains: u64,
}

impl ArbStats {
    /// Creates zeroed stats for a model whose peak grant rate is `peak`
    /// ([`PortConfig::peak`](crate::PortConfig::peak); it sizes the
    /// grants-per-round histogram).
    pub fn new(peak: usize) -> Self {
        Self {
            offered: 0,
            granted: 0,
            grants_per_round: Histogram::new("grants/round", peak),
            bank_conflicts: 0,
            combined: 0,
            store_serializations: 0,
            port_exhaustion: 0,
            sq_full_stalls: 0,
            sq_drains: 0,
        }
    }

    /// Records one arbitration round.
    pub fn record_round(&mut self, offered: usize, granted: usize) {
        self.offered += offered as u64;
        self.granted += granted as u64;
        if offered > 0 {
            self.grants_per_round.record(granted);
        }
    }

    /// Total requests offered across all rounds.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Total requests granted.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Arbitration rounds with at least one offered reference — the
    /// rounds where the port model actually had work (empty rounds are
    /// presented too, so store queues drain, but are not counted here).
    pub fn rounds(&self) -> u64 {
        self.grants_per_round.total()
    }

    /// Histogram of grants per non-empty arbitration round.
    pub fn grants_per_round(&self) -> &Histogram {
        &self.grants_per_round
    }

    fn counters_mut(&mut self) -> [&mut u64; 6] {
        [
            &mut self.bank_conflicts,
            &mut self.combined,
            &mut self.store_serializations,
            &mut self.port_exhaustion,
            &mut self.sq_full_stalls,
            &mut self.sq_drains,
        ]
    }

    /// Serializes the round totals, the grants-per-round histogram and
    /// the six cause counters, in field order.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.offered);
        w.put_u64(self.granted);
        self.grants_per_round.save_state(w);
        for v in [
            self.bank_conflicts,
            self.combined,
            self.store_serializations,
            self.port_exhaustion,
            self.sq_full_stalls,
            self.sq_drains,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores stats written by [`save_state`](Self::save_state) into
    /// stats sized for the same peak grant rate.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a histogram range mismatch, or any
    /// decode error.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.offered = r.get_u64()?;
        self.granted = r.get_u64()?;
        self.grants_per_round.load_state(r)?;
        for v in self.counters_mut() {
            *v = r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_accumulate() {
        let mut s = ArbStats::new(4);
        s.record_round(3, 2);
        s.record_round(1, 1);
        s.record_round(0, 0); // empty rounds don't pollute the histogram
        assert_eq!(s.offered(), 4);
        assert_eq!(s.granted(), 3);
        assert_eq!(s.grants_per_round().total(), 2);
    }

    #[test]
    fn state_roundtrips_every_counter() {
        let mut s = ArbStats::new(4);
        s.record_round(3, 2);
        for (v, k) in s.counters_mut().into_iter().zip(1..) {
            *v = k;
        }
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = ArbStats::new(4);
        let mut r = StateReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!((restored.offered(), restored.granted()), (3, 2));
        assert_eq!(restored.grants_per_round().total(), 1);
        let counters: Vec<u64> = restored.counters_mut().map(|v| *v).to_vec();
        assert_eq!(counters, [1, 2, 3, 4, 5, 6]);
    }
}
