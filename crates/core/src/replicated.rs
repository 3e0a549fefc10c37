//! Multi-porting by replication.

use crate::audit::Violation;
use crate::model::PortModel;
use crate::request::MemRequest;
use crate::stats::ArbStats;

/// Multi-ported cache built from `p` identical single-ported copies
/// (paper §3.1; the DEC Alpha 21164 scheme).
///
/// Loads may use any copy, so up to `p` loads proceed per cycle. A store,
/// however, "must be sent to all the caches simultaneously" to keep the
/// copies coherent — it occupies every port and therefore "cannot be sent
/// to the cache in parallel with any other access."
///
/// Arbitration walks the ready list oldest-first: if the oldest ready
/// reference is a store, it gets the whole cycle; otherwise loads are
/// granted in age order, stopping at the first store (which will become
/// grantable once it is oldest — stores commit in order anyway).
///
/// # Examples
///
/// ```
/// use hbdc_core::{ArbStats, MemRequest, PortModel, ReplicatedPorts};
///
/// let (mut m, mut s) = (ReplicatedPorts::new(2), ArbStats::new(2));
/// // Oldest is a store: it goes alone.
/// let g = m.arbitrate(&[MemRequest::store(0, 0), MemRequest::load(1, 64)], &mut s);
/// assert_eq!(g, vec![0]);
/// assert_eq!(s.store_serializations, 1);
/// ```
#[derive(Debug)]
pub struct ReplicatedPorts {
    ports: usize,
}

impl ReplicatedPorts {
    /// Creates a replicated model with `ports` cache copies.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "port count must be at least 1");
        Self { ports }
    }
}

impl PortModel for ReplicatedPorts {
    // Grants are a prefix of the age-ordered loads up to the first store
    // (or the lone leading store), so the round inspects at most
    // `ports + 1` entries however long the offered backlog grows.
    fn arbitrate_into(
        &mut self,
        ready: &[MemRequest],
        granted: &mut Vec<usize>,
        stats: &mut ArbStats,
    ) {
        granted.clear();
        if ready.is_empty() {
            // nothing to grant
        } else if ready[0].is_store {
            // Broadcast store: exclusive use of all copies this cycle.
            stats.store_serializations += 1;
            granted.push(0);
        } else {
            for (i, r) in ready.iter().enumerate() {
                if r.is_store {
                    // A younger store blocks nothing ahead of it but
                    // cannot itself launch beside the loads.
                    break;
                }
                granted.push(i);
                if granted.len() == self.ports {
                    break;
                }
            }
        }
    }

    /// Replication legality: a store broadcasts to every cache copy, so a
    /// granted store must be the *only* grant of its cycle.
    fn audit_round(&self, ready: &[MemRequest], granted: &[usize], out: &mut Vec<Violation>) {
        if granted.len() > 1 {
            for &g in granted {
                if ready.get(g).is_some_and(|r| r.is_store) {
                    out.push(Violation::new(
                        "repl-store-overlap",
                        format!(
                            "store at index {g} granted alongside {} other grants \
                             (broadcast stores are exclusive)",
                            granted.len() - 1
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round on a fresh `ports`-port model: its grants and stats.
    fn round(ports: usize, ready: &[MemRequest]) -> (Vec<usize>, ArbStats) {
        let mut s = ArbStats::new(ports);
        (ReplicatedPorts::new(ports).arbitrate(ready, &mut s), s)
    }

    #[test]
    fn loads_fill_all_ports() {
        let ready: Vec<MemRequest> = (0..6).map(|i| MemRequest::load(i, i * 8)).collect();
        assert_eq!(round(4, &ready).0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oldest_store_goes_alone() {
        let ready = vec![
            MemRequest::store(0, 0),
            MemRequest::load(1, 8),
            MemRequest::load(2, 16),
        ];
        let (granted, s) = round(4, &ready);
        assert_eq!(granted, vec![0]);
        assert_eq!(s.store_serializations, 1);
    }

    #[test]
    fn younger_store_stops_load_grants() {
        let ready = vec![
            MemRequest::load(0, 0),
            MemRequest::load(1, 8),
            MemRequest::store(2, 16),
            MemRequest::load(3, 24),
        ];
        // The two loads ahead of the store go; the store and everything
        // younger wait (stores may not launch beside any other access).
        assert_eq!(round(4, &ready).0, vec![0, 1]);
    }

    #[test]
    fn single_port_behaves_like_single_cache() {
        let ready = vec![MemRequest::load(0, 0), MemRequest::load(1, 8)];
        assert_eq!(round(1, &ready).0, vec![0]);
    }

    #[test]
    fn empty_ready_list() {
        assert!(round(2, &[]).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ports_panics() {
        ReplicatedPorts::new(0);
    }
}
