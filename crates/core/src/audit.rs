//! Per-cycle invariant auditing for port-arbitration models.
//!
//! Each [`PortModel`] publishes its structural legality rules through
//! [`PortModel::audit_round`]:
//! given one cycle's age-ordered ready list and the grant set the model
//! produced, the audit recomputes — independently of the arbitration code
//! path — whether that grant set is legal. The checks are pure observers:
//! they never mutate model state and never change what is granted, so an
//! audited run is bit-identical to an unaudited one.
//!
//! The generic checks here apply to every model; model-specific rules
//! (one grant per bank, same-line combining bounds, store-broadcast
//! exclusivity) live with the models themselves. [`check_round`] runs
//! both.

use crate::model::{PortConfig, PortModel};
use crate::request::MemRequest;

/// One invariant violation observed during a single arbitration round.
///
/// # Examples
///
/// ```
/// use hbdc_core::audit::Violation;
///
/// let v = Violation::new("banked-double-grant", "bank 3 granted twice");
/// assert_eq!(v.rule, "banked-double-grant");
/// assert!(v.to_string().contains("bank 3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable rule identifier, e.g. `"lbic-cross-line"`.
    pub rule: &'static str,
    /// Human-readable description of the specific violation.
    pub detail: String,
}

impl Violation {
    /// Creates a violation record.
    pub fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        Self {
            rule,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Checks the invariants common to every port model: grant indices are
/// strictly increasing, within the ready list, and no more numerous than
/// `peak` (the model's peak references per cycle). Violations are appended
/// to `out`.
pub fn check_generic(
    peak: usize,
    ready: &[MemRequest],
    granted: &[usize],
    out: &mut Vec<Violation>,
) {
    if granted.len() > peak {
        out.push(Violation::new(
            "grant-peak-exceeded",
            format!("{} grants exceed the model peak of {peak}", granted.len()),
        ));
    }
    for (k, &g) in granted.iter().enumerate() {
        if g >= ready.len() {
            out.push(Violation::new(
                "grant-out-of-range",
                format!("granted index {g} but only {} ready", ready.len()),
            ));
            continue;
        }
        if k > 0 && granted[k - 1] >= g {
            out.push(Violation::new(
                "grant-order",
                format!(
                    "grant indices not strictly increasing: {} then {g}",
                    granted[k - 1]
                ),
            ));
        }
    }
}

/// Audits one arbitration round of `model`, built from `cfg`: the
/// generic invariants against [`PortConfig::peak`], then the model's own
/// [`audit_round`](PortModel::audit_round) rules.
pub fn check_round(
    cfg: &PortConfig,
    model: &dyn PortModel,
    ready: &[MemRequest],
    granted: &[usize],
    out: &mut Vec<Violation>,
) {
    check_generic(cfg.peak(), ready, granted, out);
    model.audit_round(ready, granted, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(n: usize) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest::load(i as u64, i as u64 * 8))
            .collect()
    }

    #[test]
    fn clean_round_has_no_findings() {
        let mut out = Vec::new();
        check_generic(4, &loads(3), &[0, 1, 2], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn peak_overflow_detected() {
        let mut out = Vec::new();
        check_generic(2, &loads(3), &[0, 1, 2], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "grant-peak-exceeded");
    }

    #[test]
    fn out_of_range_detected() {
        let mut out = Vec::new();
        check_generic(4, &loads(2), &[0, 5], &mut out);
        assert!(out.iter().any(|v| v.rule == "grant-out-of-range"));
    }

    #[test]
    fn duplicate_and_misordered_grants_detected() {
        let mut out = Vec::new();
        check_generic(4, &loads(3), &[1, 1], &mut out);
        assert!(out.iter().any(|v| v.rule == "grant-order"));
        out.clear();
        check_generic(4, &loads(3), &[2, 0], &mut out);
        assert!(out.iter().any(|v| v.rule == "grant-order"));
    }
}
