//! Arbitration statistics shared by all port models.

use hbdc_snap::{SnapError, StateReader, StateWriter};
use hbdc_stats::Histogram;

/// Every model-specific counter name any bundled [`PortModel`] can bump.
/// Serialized counters are interned against this table on load so the
/// restored `extra` list holds the same `&'static str`s a live run does.
const EXTRA_NAMES: [&str; 6] = [
    "bank_conflicts",
    "combined",
    "store_serializations",
    "port_exhaustion",
    "sq_full_stalls",
    "sq_drains",
];

/// Accounting collected by every [`PortModel`](crate::PortModel).
///
/// # Examples
///
/// ```
/// use hbdc_core::{MemRequest, PortConfig, PortModel};
///
/// let mut m = PortConfig::Ideal { ports: 2 }.build(32);
/// m.arbitrate(&[MemRequest::load(0, 0), MemRequest::load(1, 8), MemRequest::load(2, 64)]);
/// let s = m.stats();
/// assert_eq!(s.offered(), 3);
/// assert_eq!(s.granted(), 2);
/// assert_eq!(s.rounds(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ArbStats {
    offered: u64,
    granted: u64,
    grants_per_round: Histogram,
    extra: Vec<(&'static str, u64)>,
}

impl ArbStats {
    /// Creates zeroed stats for a model whose peak grant rate is
    /// `peak_per_cycle` (sizes the grants-per-round histogram).
    pub fn new(peak_per_cycle: usize) -> Self {
        Self {
            offered: 0,
            granted: 0,
            grants_per_round: Histogram::new("grants/round", peak_per_cycle),
            extra: Vec::new(),
        }
    }

    /// Records one arbitration round.
    pub(crate) fn record_round(&mut self, offered: usize, granted: usize) {
        self.offered += offered as u64;
        self.granted += granted as u64;
        if offered > 0 {
            self.grants_per_round.record(granted);
        }
    }

    /// Bumps a model-specific named counter.
    pub(crate) fn bump(&mut self, name: &'static str, by: u64) {
        match self.extra.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += by,
            None => self.extra.push((name, by)),
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

    /// Model-specific counters, e.g. `("combined", n)` for the LBIC or
    /// `("store_serializations", n)` for the replicated cache.
    pub fn extra(&self) -> &[(&'static str, u64)] {
        &self.extra
    }

    /// Looks up a model-specific counter by name (0 if absent).
    pub fn extra_counter(&self, name: &str) -> u64 {
        self.extra
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Serializes all counters and the grants-per-round histogram. Extra
    /// counter names go in by value and are interned on load.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.offered);
        w.put_u64(self.granted);
        self.grants_per_round.save_state(w);
        w.put_usize(self.extra.len());
        for (name, v) in &self.extra {
            w.put_str(name);
            w.put_u64(*v);
        }
    }

    /// Restores stats written by [`save_state`](Self::save_state) into
    /// stats sized for the same peak grant rate.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on an extra-counter name no bundled model
    /// emits or a histogram range mismatch, or any decode error.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.offered = r.get_u64()?;
        self.granted = r.get_u64()?;
        self.grants_per_round.load_state(r)?;
        let n = r.get_usize()?;
        self.extra.clear();
        for _ in 0..n {
            let name = r.get_str()?;
            let value = r.get_u64()?;
            let interned = EXTRA_NAMES
                .iter()
                .copied()
                .find(|known| *known == name)
                .ok_or_else(|| {
                    SnapError::Corrupt(format!("unknown arbitration counter `{name}`"))
                })?;
            self.extra.push((interned, value));
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
    fn extra_counters() {
        let mut s = ArbStats::new(2);
        s.bump("combined", 3);
        s.bump("combined", 2);
        s.bump("sq_full", 1);
        assert_eq!(s.extra_counter("combined"), 5);
        assert_eq!(s.extra_counter("sq_full"), 1);
        assert_eq!(s.extra_counter("missing"), 0);
        assert_eq!(s.extra().len(), 2);
    }

    #[test]
    fn state_roundtrip_interns_extra_names() {
        let mut s = ArbStats::new(4);
        s.record_round(3, 2);
        s.bump("bank_conflicts", 5);
        s.bump("combined", 2);
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = ArbStats::new(4);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored.offered(), 3);
        assert_eq!(restored.granted(), 2);
        assert_eq!(restored.extra_counter("bank_conflicts"), 5);
        assert_eq!(restored.extra_counter("combined"), 2);
        assert_eq!(restored.grants_per_round().total(), 1);
    }

    #[test]
    fn load_rejects_unknown_extra_counter() {
        let mut w = StateWriter::new();
        w.put_u64(0); // offered
        w.put_u64(0); // granted
        Histogram::new("grants/round", 2).save_state(&mut w);
        w.put_usize(1);
        w.put_str("made_up_counter");
        w.put_u64(9);
        let bytes = w.into_bytes();
        let mut s = ArbStats::new(2);
        assert!(matches!(
            s.load_state(&mut StateReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }
}
