//! Typed simulation failures.
//!
//! Everything that can go wrong on the simulate path — pipeline
//! deadlock, cycle-budget exhaustion, invariant violations, degenerate
//! configurations, unreadable snapshots or traces — surfaces as a
//! [`SimError`] carrying the cycle, program counter, and unit context
//! needed to diagnose it, instead of a panic that takes down a whole
//! experiment matrix.

use hbdc_core::Violation;

/// A simulation failure, with enough context to pinpoint the cycle and
/// unit at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The forward-progress watchdog fired: no instruction committed for
    /// the configured number of consecutive cycles. Always a model bug,
    /// never a property of the workload.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Instructions committed before the pipeline wedged.
        committed: u64,
        /// Cycles since the last commit when the watchdog fired.
        stalled_for: u64,
        /// Diagnostic dump: window census, LSQ state, arbitration counters.
        dump: String,
    },
    /// The run exceeded the configured hard cap on simulated cycles
    /// without finishing.
    CycleLimit {
        /// The configured cap that was hit.
        max_cycles: u64,
        /// Instructions committed within the budget.
        committed: u64,
        /// Diagnostic dump: cycle/PC progress, window census, LSQ state,
        /// arbitration counters.
        dump: String,
    },
    /// The per-cycle invariant auditor found the arbitration or LSQ state
    /// structurally illegal.
    Invariant {
        /// Cycle whose arbitration round was illegal.
        cycle: u64,
        /// Every rule violated this cycle.
        violations: Vec<Violation>,
    },
    /// The simulator was constructed from a degenerate configuration.
    Config {
        /// What was wrong with the configuration.
        detail: String,
    },
    /// A checkpoint could not be written, read, or restored (I/O failure,
    /// checksum mismatch, version skew, or internally inconsistent state).
    Snapshot {
        /// What was wrong with the snapshot.
        detail: String,
    },
    /// A committed-stream trace could not be read, or does not fit the
    /// requested replay (corrupt file, warmup mismatch, incomplete
    /// capture).
    Trace {
        /// What was wrong with the trace.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                committed,
                stalled_for,
                dump,
            } => write!(
                f,
                "pipeline deadlock at cycle {cycle}: no commit for {stalled_for} cycles \
                 ({committed} committed)\n{dump}"
            ),
            SimError::CycleLimit {
                max_cycles,
                committed,
                dump,
            } => write!(
                f,
                "cycle limit exceeded: {max_cycles} cycles simulated without finishing \
                 ({committed} committed)\n{dump}"
            ),
            SimError::Invariant { cycle, violations } => {
                write!(f, "invariant violation at cycle {cycle}:")?;
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
            SimError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            SimError::Snapshot { detail } => write!(f, "snapshot failure: {detail}"),
            SimError::Trace { detail } => write!(f, "trace failure: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<hbdc_snap::SnapError> for SimError {
    fn from(e: hbdc_snap::SnapError) -> Self {
        SimError::Snapshot {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SimError::Invariant {
            cycle: 12,
            violations: vec![Violation::new("banked-double-grant", "bank 0 twice")],
        };
        let s = e.to_string();
        assert!(
            s.contains("cycle 12") && s.contains("banked-double-grant"),
            "{s}"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<SimError>();
    }
}
