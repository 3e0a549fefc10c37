//! End-of-run simulation report.

/// The measurements produced by one [`Simulator`](crate::Simulator) run —
/// a passive record of everything the paper's tables report.
///
/// # Examples
///
/// ```
/// let r = hbdc_cpu::SimReport {
///     committed: 300,
///     cycles: 100,
///     loads: 80,
///     stores: 20,
///     forwards: 5,
///     l1_accesses: 95,
///     l1_misses: 3,
///     l1_writebacks: 1,
///     l2_accesses: 4,
///     l2_misses: 4,
///     arb_offered: 120,
///     arb_granted: 95,
///     arb_rounds: 90,
///     bank_conflicts: 10,
///     combined: 15,
///     store_serializations: 0,
///     branches: 0,
///     mispredicts: 0,
///     sq_drains: 0,
///     sq_full_stalls: 0,
///     grants_per_round: vec![10, 20, 60],
///     port_label: "LBIC-4x2".into(),
///     skipped_cycles: 0,
///     cpu_secs: 0.0,
///     cycles_per_sec: 0.0,
/// };
/// assert_eq!(r.ipc(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Loads serviced by store-to-load forwarding (never reached the cache).
    pub forwards: u64,
    /// L1 data-cache accesses.
    pub l1_accesses: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L1 dirty-victim writebacks.
    pub l1_writebacks: u64,
    /// L2 accesses (L1 miss traffic).
    pub l2_accesses: u64,
    /// L2 misses (DRAM traffic).
    pub l2_misses: u64,
    /// References offered to the port model across all cycles.
    pub arb_offered: u64,
    /// References granted by the port model.
    pub arb_granted: u64,
    /// Arbitration rounds in which at least one reference was offered
    /// (empty rounds keep store queues draining but are not counted).
    /// With `arb_offered` this gives the mean offered backlog per busy
    /// round — the backlog depth that decides which arbitration round
    /// shape pays (DESIGN.md §14).
    pub arb_rounds: u64,
    /// Bank conflicts (banked and LBIC models; 0 otherwise).
    pub bank_conflicts: u64,
    /// Same-line combined accesses (LBIC only; 0 otherwise).
    pub combined: u64,
    /// Cycles monopolized by a broadcast store (replicated model only).
    pub store_serializations: u64,
    /// Conditional branches committed (counted by a predicted front
    /// end; 0 under the paper's perfect one).
    pub branches: u64,
    /// Of those, branches the predictor got wrong.
    pub mispredicts: u64,
    /// Store-queue entries drained into the cache (LBIC only; 0
    /// otherwise).
    pub sq_drains: u64,
    /// Stores held back because their bank's store queue was full (LBIC
    /// only; 0 otherwise).
    pub sq_full_stalls: u64,
    /// Grants-per-round distribution of the busy arbitration rounds:
    /// entry `k` counts the rounds that granted exactly `k` references,
    /// for `k` in `0..=peak` (a model never grants above its peak). The
    /// entries sum to `arb_rounds`.
    pub grants_per_round: Vec<u64>,
    /// Label of the port model under test, e.g. `"Bank-8"`.
    pub port_label: String,
    /// Always 0: the run loop steps every cycle. Kept only because the
    /// repository benchmark (`perfbench`) still reads it for its
    /// `sim.skip_share` metric; the next change to that benchmark
    /// removes both.
    pub skipped_cycles: u64,
    /// Thread CPU seconds spent inside [`run`](crate::Simulator::run)
    /// and [`run_for`](crate::Simulator::run_for) — a measurement of the
    /// *simulator*, not the simulated machine. 0 where the thread CPU
    /// clock cannot be read (see [`hbdc_snap::clock`]).
    pub cpu_secs: f64,
    /// Simulated cycles per CPU second (simulator throughput).
    pub cycles_per_sec: f64,
}

/// Equality covers only the simulated-machine measurements:
/// `cpu_secs` and `cycles_per_sec` describe how the host ran the
/// simulation, and `skipped_cycles` is a constant 0, so all three are
/// excluded and bit-identical simulations compare equal regardless of
/// host timing.
impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        let SimReport {
            committed,
            cycles,
            loads,
            stores,
            forwards,
            l1_accesses,
            l1_misses,
            l1_writebacks,
            l2_accesses,
            l2_misses,
            arb_offered,
            arb_granted,
            arb_rounds,
            bank_conflicts,
            combined,
            store_serializations,
            branches,
            mispredicts,
            sq_drains,
            sq_full_stalls,
            grants_per_round,
            port_label,
            skipped_cycles: _,
            cpu_secs: _,
            cycles_per_sec: _,
        } = self;
        *committed == other.committed
            && *cycles == other.cycles
            && *loads == other.loads
            && *stores == other.stores
            && *forwards == other.forwards
            && *l1_accesses == other.l1_accesses
            && *l1_misses == other.l1_misses
            && *l1_writebacks == other.l1_writebacks
            && *l2_accesses == other.l2_accesses
            && *l2_misses == other.l2_misses
            && *arb_offered == other.arb_offered
            && *arb_granted == other.arb_granted
            && *arb_rounds == other.arb_rounds
            && *bank_conflicts == other.bank_conflicts
            && *combined == other.combined
            && *store_serializations == other.store_serializations
            && *branches == other.branches
            && *mispredicts == other.mispredicts
            && *sq_drains == other.sq_drains
            && *sq_full_stalls == other.sq_full_stalls
            && *grants_per_round == other.grants_per_round
            && *port_label == other.port_label
    }
}

impl SimReport {
    /// Instructions per cycle — the paper's headline metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// L1 miss rate over actual cache accesses (paper Table 2, "L1 Miss
    /// Rate").
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// Number of tab-separated fields in a [`to_record`](Self::to_record)
    /// line: the twenty simulated counters, the grants-per-round bins,
    /// and the port label.
    const RECORD_FIELDS: usize = 22;

    /// Renders the simulated-machine measurements as one tab-separated
    /// record line (no trailing newline) for the matrix run journal. The
    /// grants-per-round bins share one comma-separated field, and the
    /// port label comes last.
    ///
    /// The host-run fields (`cpu_secs`, `cycles_per_sec`) describe a
    /// run that already happened and, like the constant
    /// `skipped_cycles`, are deliberately not persisted; they parse back
    /// as zero, which [`PartialEq`] already ignores.
    pub fn to_record(&self) -> String {
        let bins: Vec<String> = self.grants_per_round.iter().map(u64::to_string).collect();
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.committed,
            self.cycles,
            self.loads,
            self.stores,
            self.forwards,
            self.l1_accesses,
            self.l1_misses,
            self.l1_writebacks,
            self.l2_accesses,
            self.l2_misses,
            self.arb_offered,
            self.arb_granted,
            self.arb_rounds,
            self.bank_conflicts,
            self.combined,
            self.store_serializations,
            self.branches,
            self.mispredicts,
            self.sq_drains,
            self.sq_full_stalls,
            bins.join(","),
            self.port_label,
        )
    }

    /// Parses a record line written by [`to_record`](Self::to_record).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed or missing field.
    pub fn from_record(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.splitn(Self::RECORD_FIELDS, '\t').collect();
        if fields.len() != Self::RECORD_FIELDS {
            return Err(format!(
                "report record has {} fields, expected {}",
                fields.len(),
                Self::RECORD_FIELDS
            ));
        }
        let count = |name: &str, raw: &str| -> Result<u64, String> {
            raw.parse::<u64>()
                .map_err(|e| format!("field {name} is not a count (`{raw}`): {e}"))
        };
        let mut it = fields.iter();
        let mut num = |name: &str| count(name, it.next().expect("field count checked above"));
        let mut r = SimReport {
            committed: num("committed")?,
            cycles: num("cycles")?,
            loads: num("loads")?,
            stores: num("stores")?,
            forwards: num("forwards")?,
            l1_accesses: num("l1_accesses")?,
            l1_misses: num("l1_misses")?,
            l1_writebacks: num("l1_writebacks")?,
            l2_accesses: num("l2_accesses")?,
            l2_misses: num("l2_misses")?,
            arb_offered: num("arb_offered")?,
            arb_granted: num("arb_granted")?,
            arb_rounds: num("arb_rounds")?,
            bank_conflicts: num("bank_conflicts")?,
            combined: num("combined")?,
            store_serializations: num("store_serializations")?,
            branches: num("branches")?,
            mispredicts: num("mispredicts")?,
            sq_drains: num("sq_drains")?,
            sq_full_stalls: num("sq_full_stalls")?,
            grants_per_round: Vec::new(),
            port_label: fields[Self::RECORD_FIELDS - 1].to_string(),
            skipped_cycles: 0,
            cpu_secs: 0.0,
            cycles_per_sec: 0.0,
        };
        let bins = fields[Self::RECORD_FIELDS - 2];
        if !bins.is_empty() {
            r.grants_per_round = bins
                .split(',')
                .map(|b| count("grants_per_round", b))
                .collect::<Result<_, _>>()?;
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        SimReport {
            committed: 1000,
            cycles: 250,
            loads: 200,
            stores: 100,
            forwards: 20,
            l1_accesses: 280,
            l1_misses: 14,
            l1_writebacks: 3,
            l2_accesses: 14,
            l2_misses: 7,
            arb_offered: 400,
            arb_granted: 280,
            arb_rounds: 240,
            bank_conflicts: 50,
            combined: 30,
            store_serializations: 0,
            branches: 90,
            mispredicts: 7,
            sq_drains: 0,
            sq_full_stalls: 0,
            grants_per_round: vec![0, 60, 80, 60, 40],
            port_label: "Bank-4".into(),
            skipped_cycles: 0,
            cpu_secs: 0.0,
            cycles_per_sec: 0.0,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert_eq!(r.ipc(), 4.0);
        assert!((r.l1_miss_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_zero() {
        let r = SimReport {
            committed: 0,
            cycles: 0,
            loads: 0,
            stores: 0,
            forwards: 0,
            l1_accesses: 0,
            l1_misses: 0,
            l1_writebacks: 0,
            l2_accesses: 0,
            l2_misses: 0,
            arb_offered: 0,
            arb_granted: 0,
            arb_rounds: 0,
            bank_conflicts: 0,
            combined: 0,
            store_serializations: 0,
            branches: 0,
            mispredicts: 0,
            sq_drains: 0,
            sq_full_stalls: 0,
            grants_per_round: Vec::new(),
            port_label: String::new(),
            skipped_cycles: 0,
            cpu_secs: 0.0,
            cycles_per_sec: 0.0,
        };
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.l1_miss_rate(), 0.0);
    }

    #[test]
    fn record_roundtrip_preserves_simulated_fields() {
        let r = SimReport {
            cpu_secs: 9.0,
            cycles_per_sec: 1e6,
            ..sample()
        };
        let parsed = SimReport::from_record(&r.to_record()).unwrap();
        assert_eq!(parsed, r, "PartialEq ignores the host-timing fields");
        assert_eq!(parsed.cpu_secs, 0.0, "host timing is not persisted");
        assert_eq!(parsed.port_label, "Bank-4");
        assert_eq!(parsed.grants_per_round, r.grants_per_round);

        // A model that saw no busy round has no bins: an empty field.
        let idle = SimReport {
            grants_per_round: Vec::new(),
            ..sample()
        };
        assert_eq!(SimReport::from_record(&idle.to_record()).unwrap(), idle);
    }

    #[test]
    fn malformed_records_are_rejected_with_context() {
        let err = SimReport::from_record("1\t2\t3").unwrap_err();
        assert!(err.contains("3 fields"), "{err}");
        // Exactly the current layout parses: one field short is refused.
        let rec = sample().to_record();
        let (_, short) = rec.split_once('\t').unwrap();
        let err = SimReport::from_record(short).unwrap_err();
        assert!(err.contains("21 fields, expected 22"), "{err}");
        let bad = rec.replace("0,60,80", "0,6x,80");
        let err = SimReport::from_record(&bad).unwrap_err();
        assert!(err.contains("grants_per_round"), "{err}");
        let mut bad = sample().to_record();
        bad = bad.replacen("250", "x250", 1);
        let err = SimReport::from_record(&bad).unwrap_err();
        assert!(err.contains("cycles") && err.contains("x250"), "{err}");
    }

    #[test]
    fn equality_ignores_host_timing() {
        let a = sample();
        let b = SimReport {
            cpu_secs: 123.0,
            cycles_per_sec: 456.0,
            ..sample()
        };
        assert_eq!(a, b);
        let c = SimReport {
            cycles: a.cycles + 1,
            ..sample()
        };
        assert_ne!(a, c);
    }
}
