//! Memory requests as presented to the port models.

/// One ready memory reference offered to the cache ports in a cycle.
///
/// Requests carry the minimal information the arbitration layer needs: an
/// age identifier (typically the LSQ sequence number), the effective
/// address, and the load/store distinction. Data never flows through the
/// port models — they are pure timing structures.
///
/// Ids encode age: within one ready list handed to a
/// [`PortModel`](crate::PortModel), ids must strictly increase from the
/// oldest reference to the youngest. Recycled identifiers such as
/// wrapping LSQ slot numbers do not satisfy this; models that arbitrate
/// from an id-keyed offered-set index (the banked model) panic on a
/// list that breaks the rule.
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
    /// Age identifier (e.g. the LSQ sequence number): unique within a
    /// ready list and strictly increasing from its oldest reference to
    /// its youngest.
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
}
