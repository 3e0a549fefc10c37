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
///     port_label: "LBIC-4x2".into(),
///     skipped_cycles: 0,
///     cpu_secs: 0.0,
///     cycles_per_sec: 0.0,
///     events_per_sec: 0.0,
/// };
/// assert_eq!(r.ipc(), 3.0);
/// assert!((r.mem_fraction() - 1.0 / 3.0).abs() < 1e-12);
/// assert_eq!(r.store_to_load_ratio(), 0.25);
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
    /// Label of the port model under test, e.g. `"Bank-8"`.
    pub port_label: String,
    /// Cycles the run loop fast-forwarded over instead of executing
    /// (see [`cycle_skip`](crate::CpuConfig::cycle_skip)). A property of
    /// how the simulator ran, not of the simulated machine: a ticked run
    /// reports 0 here and identical everything else.
    pub skipped_cycles: u64,
    /// Thread CPU seconds spent inside [`run`](crate::Simulator::run)
    /// and [`run_for`](crate::Simulator::run_for) — a measurement of the
    /// *simulator*, not the simulated machine. 0 where the thread CPU
    /// clock cannot be read (see [`hbdc_snap::clock`]).
    pub cpu_secs: f64,
    /// Simulated cycles per CPU second (simulator throughput).
    pub cycles_per_sec: f64,
    /// Executed (non-skipped) cycles per CPU second — the rate at
    /// which the simulator retires actual work, independent of how much
    /// idle time the event calendar let it skip.
    pub events_per_sec: f64,
}

/// Equality covers only the simulated-machine measurements:
/// `skipped_cycles`, `cpu_secs`, `cycles_per_sec`, and
/// `events_per_sec` describe how the host ran the simulation and are
/// excluded, so bit-identical simulations compare equal regardless of
/// host timing or whether idle spans were skipped or ticked through.
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
            port_label,
            skipped_cycles: _,
            cpu_secs: _,
            cycles_per_sec: _,
            events_per_sec: _,
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

    /// Fraction of committed instructions that are memory operations
    /// (paper Table 2, "Mem Instr. %").
    pub fn mem_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.committed as f64
        }
    }

    /// Stores per load (paper Table 2, "Store-to-Load Ratio").
    pub fn store_to_load_ratio(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.stores as f64 / self.loads as f64
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
    /// line: the sixteen simulated counters plus the port label.
    const RECORD_FIELDS: usize = 17;

    /// Renders the simulated-machine measurements as one tab-separated
    /// record line (no trailing newline) for the matrix run journal.
    ///
    /// The host-run fields (`skipped_cycles`, `cpu_secs`,
    /// `cycles_per_sec`, `events_per_sec`) describe a run that already
    /// happened and are deliberately not persisted; they parse back as
    /// zero, which [`PartialEq`] already ignores.
    pub fn to_record(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
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
            self.port_label,
        )
    }

    /// Parses a record line written by [`to_record`](Self::to_record).
    ///
    /// Records written before `arb_rounds` existed (16 fields) still
    /// parse — journals are append-only resume state, so an upgraded
    /// binary must keep loading campaigns started by an older one. The
    /// missing counter parses as 0.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed or missing field.
    pub fn from_record(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.splitn(Self::RECORD_FIELDS, '\t').collect();
        let legacy = fields.len() == Self::RECORD_FIELDS - 1;
        if fields.len() != Self::RECORD_FIELDS && !legacy {
            return Err(format!(
                "report record has {} fields, expected {}",
                fields.len(),
                Self::RECORD_FIELDS
            ));
        }
        let mut it = fields.iter();
        let mut num = |name: &str| -> Result<u64, String> {
            let raw = it.next().ok_or_else(|| format!("missing field {name}"))?;
            raw.parse::<u64>()
                .map_err(|e| format!("field {name} is not a count (`{raw}`): {e}"))
        };
        Ok(SimReport {
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
            arb_rounds: if legacy { 0 } else { num("arb_rounds")? },
            bank_conflicts: num("bank_conflicts")?,
            combined: num("combined")?,
            store_serializations: num("store_serializations")?,
            port_label: fields[fields.len() - 1].to_string(),
            skipped_cycles: 0,
            cpu_secs: 0.0,
            cycles_per_sec: 0.0,
            events_per_sec: 0.0,
        })
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
            port_label: "Bank-4".into(),
            skipped_cycles: 0,
            cpu_secs: 0.0,
            cycles_per_sec: 0.0,
            events_per_sec: 0.0,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert_eq!(r.ipc(), 4.0);
        assert!((r.mem_fraction() - 0.3).abs() < 1e-12);
        assert!((r.store_to_load_ratio() - 0.5).abs() < 1e-12);
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
            port_label: String::new(),
            skipped_cycles: 0,
            cpu_secs: 0.0,
            cycles_per_sec: 0.0,
            events_per_sec: 0.0,
        };
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.mem_fraction(), 0.0);
        assert_eq!(r.store_to_load_ratio(), 0.0);
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
    }

    #[test]
    fn legacy_records_without_arb_rounds_still_parse() {
        let r = sample();
        // A record written before `arb_rounds` existed: same layout with
        // that one field dropped.
        let legacy: Vec<String> = r
            .to_record()
            .split('\t')
            .enumerate()
            .filter(|&(i, _)| i != 12)
            .map(|(_, f)| f.to_string())
            .collect();
        let parsed = SimReport::from_record(&legacy.join("\t")).unwrap();
        assert_eq!(parsed.arb_rounds, 0, "missing counter defaults to 0");
        assert_eq!(parsed.port_label, r.port_label);
        assert_eq!(parsed.bank_conflicts, r.bank_conflicts);
        assert_eq!(parsed.store_serializations, r.store_serializations);
    }

    #[test]
    fn malformed_records_are_rejected_with_context() {
        let err = SimReport::from_record("1\t2\t3").unwrap_err();
        assert!(err.contains("3 fields"), "{err}");
        let mut bad = sample().to_record();
        bad = bad.replacen("250", "x250", 1);
        let err = SimReport::from_record(&bad).unwrap_err();
        assert!(err.contains("cycles") && err.contains("x250"), "{err}");
    }

    #[test]
    fn equality_ignores_host_timing() {
        let a = sample();
        let b = SimReport {
            skipped_cycles: 7,
            cpu_secs: 123.0,
            cycles_per_sec: 456.0,
            events_per_sec: 78.0,
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
