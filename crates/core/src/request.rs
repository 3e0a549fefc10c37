//! Memory requests as presented to the port models.

/// One ready memory reference offered to the cache ports in a cycle.
///
/// Requests carry the minimal information the arbitration layer needs: a
/// caller-chosen identifier (typically the LSQ slot), the effective
/// address, and the load/store distinction. Data never flows through the
/// port models — they are pure timing structures.
///
/// # Examples
///
/// ```
/// use hbdc_core::MemRequest;
///
/// let ld = MemRequest::load(7, 0x1000_0020);
/// let st = MemRequest::store(8, 0x1000_0040);
/// assert!(!ld.is_store);
/// assert!(st.is_store);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Caller-chosen identifier (e.g. the LSQ sequence number).
    pub id: u64,
    /// Effective byte address.
    pub addr: u64,
    /// Whether this is a store.
    pub is_store: bool,
}

impl MemRequest {
    /// Creates a load request.
    pub fn load(id: u64, addr: u64) -> Self {
        Self {
            id,
            addr,
            is_store: false,
        }
    }

    /// Creates a store request.
    pub fn store(id: u64, addr: u64) -> Self {
        Self {
            id,
            addr,
            is_store: true,
        }
    }
}

/// A borrowed structure-of-arrays view of the standing offered set, as
/// handed to [`PortModel::arbitrate_offered`](crate::PortModel::arbitrate_offered).
///
/// The three slices are parallel: element `k` of each describes one
/// request, and requests appear in age order with **strictly increasing
/// ids** (the driver uses dispatch sequence numbers as ids, so id order
/// *is* age order). Models that keep incremental per-bank indexes rely on
/// that contract to reproduce the age-priority semantics of the
/// slice-walking [`arbitrate_into`](crate::PortModel::arbitrate_into)
/// path exactly.
///
/// # Examples
///
/// ```
/// use hbdc_core::{MemRequest, Offered};
///
/// let ids = [3, 7];
/// let addrs = [0x100, 0x140];
/// let stores = [false, true];
/// let view = Offered::new(&ids, &addrs, &stores);
/// assert_eq!(view.len(), 2);
/// assert_eq!(view.get(1), MemRequest::store(7, 0x140));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Offered<'a> {
    ids: &'a [u64],
    addrs: &'a [u64],
    stores: &'a [bool],
}

impl<'a> Offered<'a> {
    /// Wraps three parallel slices as an offered-set view.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn new(ids: &'a [u64], addrs: &'a [u64], stores: &'a [bool]) -> Self {
        assert_eq!(ids.len(), addrs.len(), "offered SoA length mismatch");
        assert_eq!(ids.len(), stores.len(), "offered SoA length mismatch");
        Self { ids, addrs, stores }
    }

    /// Number of offered requests.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the offered set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The request ids, oldest first (strictly increasing).
    pub fn ids(&self) -> &'a [u64] {
        self.ids
    }

    /// The effective byte addresses, parallel to [`ids`](Self::ids).
    pub fn addrs(&self) -> &'a [u64] {
        self.addrs
    }

    /// The store flags, parallel to [`ids`](Self::ids).
    pub fn stores(&self) -> &'a [bool] {
        self.stores
    }

    /// Materializes request `k` of the view.
    pub fn get(&self, k: usize) -> MemRequest {
        MemRequest {
            id: self.ids[k],
            addr: self.addrs[k],
            is_store: self.stores[k],
        }
    }

    /// Iterates the view as materialized requests, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = MemRequest> + 'a {
        let (ids, addrs, stores) = (self.ids, self.addrs, self.stores);
        (0..ids.len()).map(move |k| MemRequest {
            id: ids[k],
            addr: addrs[k],
            is_store: stores[k],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(!MemRequest::load(1, 0x10).is_store);
        assert!(MemRequest::store(2, 0x20).is_store);
        assert_eq!(MemRequest::load(1, 0x10).id, 1);
        assert_eq!(MemRequest::store(2, 0x20).addr, 0x20);
    }

    #[test]
    fn offered_view_materializes_requests() {
        let ids = [1u64, 4, 9];
        let addrs = [0x00u64, 0x20, 0x40];
        let stores = [false, true, false];
        let v = Offered::new(&ids, &addrs, &stores);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.get(0), MemRequest::load(1, 0x00));
        assert_eq!(v.get(1), MemRequest::store(4, 0x20));
        let all: Vec<MemRequest> = v.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2], MemRequest::load(9, 0x40));
        assert!(Offered::new(&[], &[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn offered_view_rejects_mismatched_slices() {
        let _ = Offered::new(&[1], &[0x10, 0x20], &[false]);
    }
}
