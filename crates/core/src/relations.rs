//! Per-model relation predicates: the partial order between port
//! configurations that the paper's conclusions rest on.
//!
//! The differential fuzzer (`hbdc-fuzz`) consults these predicates to
//! decide which metamorphic orderings to assert on a generated program:
//! an ideal true-multi-ported cache with enough ports is an *upper bound*
//! for any realistic design it covers (Tables 3/4 of the paper), and
//! every configuration whose peak grant width is one is cycle-equivalent
//! to every other such configuration. Keeping the predicates here — next
//! to the models — means a new [`PortConfig`] variant extends the oracle
//! by extending these functions, with the unit tests below pinning the
//! existing order.

use crate::model::PortConfig;

/// Whether configuration `a` must perform at least as well as `b` —
/// cycles(a) ≤ cycles(b) + [`anomaly_allowance`] on every program: true
/// only for the orderings the paper's model semantics guarantee, i.e. an
/// ideal cache whose port count covers `b`'s [`peak`](PortConfig::peak)
/// bandwidth. An ideal cache has no placement, banking, or combining
/// constraints, so any grant schedule `b` can produce is available to
/// `a`.
///
/// The claim is bounded, not cycle-exact, because the LSQ arbitrates in
/// *age order*, and greedy age-ordered scheduling is subject to Graham's
/// timing anomaly: a wider cache can spend all its ports on older
/// references while a narrower, bank-constrained one is forced to issue
/// a younger reference that happens to sit on the critical path. Nine
/// instructions suffice to exhibit this (four same-bank loads ahead of an
/// other-bank `fld` feeding the final `fmul`: banked issues the `fld` in
/// cycle 3 because its bank is free; ideal age-orders it behind the
/// loads and finishes one cycle later). See DESIGN.md §13.
pub fn must_dominate(a: &PortConfig, b: &PortConfig) -> bool {
    match *a {
        PortConfig::Ideal { ports } => ports >= b.peak(),
        // Realistic designs constrain each other in incomparable ways
        // (bank placement vs. broadcast serialization vs. combining), so
        // no per-program guarantee is claimed between them.
        _ => false,
    }
}

/// Slack the ordering relations grant a dominating configuration over a
/// `base`-cycle run. Scheduling anomalies compound: a loop whose body
/// contains one anomaly pattern slips ~1 cycle *per iteration*, so the
/// noise is proportional to the run (differential fuzzing measured up to
/// ~9% across thousands of generated programs). Genuine bandwidth-model
/// bugs — a port model granting less (or more) than its structure allows
/// — shift conflict-heavy runs by integer factors, so a 25% + constant
/// band separates the two with a wide margin. Bit-level sensitivity is
/// the job of the *exact* relations (single-port equivalence, replicated
/// load-only identity, and the mode-pair bit identities), not of the
/// orderings.
pub fn anomaly_allowance(base_cycles: u64) -> u64 {
    16 + base_cycles / 4
}

/// Whether the configuration degenerates to a single-ported cache that
/// grants exactly the oldest ready reference each cycle. All such
/// configurations are cycle-equivalent — the fuzzer checks them for
/// *exact* cycle equality, not just ordering.
///
/// An LBIC with one bank and one line port is **not** in this class: its
/// per-bank store queue decouples stores from the arbitration round, so
/// its schedule legitimately differs from a plain single port.
pub fn single_port_equivalent(cfg: &PortConfig) -> bool {
    matches!(
        *cfg,
        PortConfig::Ideal { ports: 1 }
            | PortConfig::Replicated { ports: 1 }
            | PortConfig::Banked { banks: 1, .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PortConfig;

    #[test]
    fn ideal_dominates_everything_it_covers() {
        let i4 = PortConfig::Ideal { ports: 4 };
        assert!(must_dominate(&i4, &PortConfig::Replicated { ports: 4 }));
        assert!(must_dominate(&i4, &PortConfig::banked(4)));
        assert!(must_dominate(&i4, &PortConfig::lbic(4, 1)));
        assert!(must_dominate(&i4, &PortConfig::Ideal { ports: 2 }));
        // Not enough ports to cover the peak: no guarantee.
        assert!(!must_dominate(&i4, &PortConfig::banked(8)));
        assert!(!must_dominate(&i4, &PortConfig::lbic(4, 2)));
    }

    #[test]
    fn realistic_models_are_incomparable() {
        let b4 = PortConfig::banked(4);
        let r4 = PortConfig::Replicated { ports: 4 };
        assert!(!must_dominate(&b4, &r4));
        assert!(!must_dominate(&r4, &b4));
        assert!(!must_dominate(&b4, &PortConfig::Ideal { ports: 1 }));
    }

    #[test]
    fn allowance_is_proportional_with_a_floor() {
        assert_eq!(anomaly_allowance(0), 16);
        assert_eq!(anomaly_allowance(200), 66);
        assert_eq!(anomaly_allowance(100_000), 25_016);
    }

    #[test]
    fn single_port_class_is_exact() {
        assert!(single_port_equivalent(&PortConfig::Ideal { ports: 1 }));
        assert!(single_port_equivalent(&PortConfig::Replicated { ports: 1 }));
        assert!(single_port_equivalent(&PortConfig::banked(1)));
        assert!(!single_port_equivalent(&PortConfig::Ideal { ports: 2 }));
        assert!(!single_port_equivalent(&PortConfig::lbic(1, 1)));
    }
}
