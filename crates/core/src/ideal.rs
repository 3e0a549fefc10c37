//! True (ideal) multi-porting.

use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::model::PortModel;
use crate::request::MemRequest;
use crate::stats::ArbStats;

/// Ideal multi-ported cache: every port has its own path to every entry,
/// so any `p` references — to any addresses, loads or stores — proceed in
/// parallel each cycle (paper §3.1, Figure 2a).
///
/// This is the performance upper bound the paper measures the practical
/// designs against; it is "generally considered too costly and impractical
/// for commercial implementation for anything larger than a register
/// file."
///
/// # Examples
///
/// ```
/// use hbdc_core::{IdealPorts, MemRequest, PortModel};
///
/// let mut m = IdealPorts::new(2);
/// let ready = vec![
///     MemRequest::store(0, 0x00),
///     MemRequest::store(1, 0x00), // same address: still fine
///     MemRequest::load(2, 0x40),
/// ];
/// assert_eq!(m.arbitrate(&ready), vec![0, 1]); // oldest two
/// ```
#[derive(Debug)]
pub struct IdealPorts {
    ports: usize,
    stats: ArbStats,
}

impl IdealPorts {
    /// Creates an ideal `ports`-ported model.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "port count must be at least 1");
        Self {
            ports,
            stats: ArbStats::new(ports),
        }
    }
}

impl PortModel for IdealPorts {
    // The grant set is a pure prefix of the age-ordered ready list, so the
    // round is O(ports) however long the offered backlog grows.
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        granted.clear();
        let n = ready.len().min(self.ports);
        self.stats.record_round(ready.len(), n);
        granted.extend(0..n);
    }

    fn peak_per_cycle(&self) -> usize {
        self.ports
    }

    fn label(&self) -> String {
        format!("True-{}", self.ports)
    }

    fn stats(&self) -> &ArbStats {
        &self.stats
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.stats.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(n: usize) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest::load(i as u64, i as u64 * 4))
            .collect()
    }

    #[test]
    fn grants_oldest_up_to_port_count() {
        let mut m = IdealPorts::new(3);
        assert_eq!(m.arbitrate(&reqs(5)), vec![0, 1, 2]);
        assert_eq!(m.arbitrate(&reqs(2)), vec![0, 1]);
        assert_eq!(m.arbitrate(&[]), Vec::<usize>::new());
    }

    #[test]
    fn stores_do_not_serialize() {
        let mut m = IdealPorts::new(4);
        let ready: Vec<MemRequest> = (0..4).map(|i| MemRequest::store(i, 0)).collect();
        assert_eq!(m.arbitrate(&ready).len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ports_panics() {
        IdealPorts::new(0);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = IdealPorts::new(2);
        m.arbitrate(&reqs(3));
        assert_eq!(m.stats().offered(), 3);
        assert_eq!(m.stats().granted(), 2);
        assert_eq!(m.stats().rounds(), 1);
    }

    #[test]
    fn label_and_peak() {
        let m = IdealPorts::new(16);
        assert_eq!(m.label(), "True-16");
        assert_eq!(m.peak_per_cycle(), 16);
    }
}
