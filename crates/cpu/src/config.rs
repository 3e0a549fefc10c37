//! Processor configuration (paper Table 1).

use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::bpred::FrontEnd;

/// Configuration of the dynamic superscalar machine.
///
/// The default matches the paper's Table 1: fetch and out-of-order issue
/// of up to 64 operations per cycle, a 1024-entry register update unit, a
/// 512-entry load/store queue, perfect instruction supply and branch
/// prediction, and 64 functional units of every class.
///
/// # Examples
///
/// ```
/// let cfg = hbdc_cpu::CpuConfig::default();
/// assert_eq!(cfg.fetch_width, 64);
/// assert_eq!(cfg.ruu_size, 1024);
/// assert_eq!(cfg.lsq_size, 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched (in program order) per cycle.
    pub fetch_width: u32,
    /// Operations issued out of order per cycle.
    pub issue_width: u32,
    /// Instructions committed in order per cycle.
    pub commit_width: u32,
    /// Register update unit (instruction window / reorder buffer) entries.
    pub ruu_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Number of integer ALUs.
    pub int_alu_units: u32,
    /// Number of integer multipliers.
    pub int_mult_units: u32,
    /// Number of integer dividers.
    pub int_div_units: u32,
    /// Number of FP adders.
    pub fp_add_units: u32,
    /// Number of FP multipliers.
    pub fp_mult_units: u32,
    /// Number of FP dividers.
    pub fp_div_units: u32,
    /// Number of load/store units — the address-generation throughput cap
    /// per cycle (paper Table 1: "varying # of L/S units"). The *cache*
    /// bandwidth is governed by the port model; this bounds how many
    /// memory instructions can begin address generation per cycle.
    pub ls_units: u32,
    /// Functionally fast-forward this many instructions before timing
    /// begins (skips warm-up phases such as workload data initialization;
    /// the cache starts cold at the measurement point, as in sampled
    /// simulation).
    pub warmup_insts: u64,
    /// Stop after this many committed instructions (`u64::MAX` = run to
    /// `halt`).
    pub max_insts: u64,
    /// Front-end model: perfect branch prediction (the paper's Table 1)
    /// or a real predictor with misprediction stalls.
    pub front_end: FrontEnd,
    /// Forward-progress watchdog: cycles without a commit after which the
    /// run fails with [`SimError::Deadlock`](crate::SimError::Deadlock).
    /// The longest legitimate stall is a full MSHR file of DRAM misses —
    /// thousands of cycles at most — so the default of 100 000 only trips
    /// on model bugs.
    pub watchdog_cycles: u64,
    /// Hard cap on simulated cycles: exceeding it fails the run with
    /// [`SimError::CycleLimit`](crate::SimError::CycleLimit) (`u64::MAX`
    /// = unlimited). Catches livelocks that keep committing — a runaway
    /// trace, a misconfigured `max_insts` — where the watchdog cannot.
    pub max_cycles: u64,
    /// Run the per-cycle invariant auditor (LSQ ordering, port-model
    /// grant legality). A pure observer: audited runs are bit-identical
    /// to unaudited ones, at some simulation-speed cost. Defaults to off,
    /// or on when the crate is built with the `audit` feature (which is
    /// how `cargo test --features audit` sweeps the whole suite under
    /// auditing).
    pub audit: bool,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            fetch_width: 64,
            issue_width: 64,
            commit_width: 64,
            ruu_size: 1024,
            lsq_size: 512,
            int_alu_units: 64,
            int_mult_units: 64,
            int_div_units: 64,
            fp_add_units: 64,
            fp_mult_units: 64,
            fp_div_units: 64,
            ls_units: 64,
            warmup_insts: 0,
            max_insts: u64::MAX,
            front_end: FrontEnd::Perfect,
            watchdog_cycles: 100_000,
            max_cycles: u64::MAX,
            audit: cfg!(feature = "audit"),
        }
    }
}

impl CpuConfig {
    /// Checks the configuration for degenerate values that would wedge or
    /// crash the pipeline (zero widths, empty window or queue, a zero
    /// watchdog budget).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("fetch/issue/commit widths must all be at least 1".into());
        }
        if self.ruu_size == 0 {
            return Err("RUU needs at least one entry".into());
        }
        if self.lsq_size == 0 {
            return Err("LSQ needs at least one entry".into());
        }
        if self.ls_units == 0 {
            return Err("need at least one load/store unit".into());
        }
        if self.watchdog_cycles == 0 {
            return Err("watchdog budget must be at least one cycle".into());
        }
        if self.max_cycles == 0 {
            return Err("cycle cap must be at least one cycle".into());
        }
        Ok(())
    }

    /// Serializes every configuration field (checkpoints embed the full
    /// machine description so a resumed run needs no external config).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u32(self.fetch_width);
        w.put_u32(self.issue_width);
        w.put_u32(self.commit_width);
        w.put_usize(self.ruu_size);
        w.put_usize(self.lsq_size);
        w.put_u32(self.int_alu_units);
        w.put_u32(self.int_mult_units);
        w.put_u32(self.int_div_units);
        w.put_u32(self.fp_add_units);
        w.put_u32(self.fp_mult_units);
        w.put_u32(self.fp_div_units);
        w.put_u32(self.ls_units);
        w.put_u64(self.warmup_insts);
        w.put_u64(self.max_insts);
        self.front_end.save_state(w);
        w.put_u64(self.watchdog_cycles);
        w.put_u64(self.max_cycles);
        w.put_bool(self.audit);
    }

    /// Reads a configuration written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated stream or an unknown
    /// front-end tag.
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            fetch_width: r.get_u32()?,
            issue_width: r.get_u32()?,
            commit_width: r.get_u32()?,
            ruu_size: r.get_usize()?,
            lsq_size: r.get_usize()?,
            int_alu_units: r.get_u32()?,
            int_mult_units: r.get_u32()?,
            int_div_units: r.get_u32()?,
            fp_add_units: r.get_u32()?,
            fp_mult_units: r.get_u32()?,
            fp_div_units: r.get_u32()?,
            ls_units: r.get_u32()?,
            warmup_insts: r.get_u64()?,
            max_insts: r.get_u64()?,
            front_end: FrontEnd::load_state(r)?,
            watchdog_cycles: r.get_u64()?,
            max_cycles: r.get_u64()?,
            audit: r.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CpuConfig::default();
        assert_eq!(c.issue_width, 64);
        assert_eq!(c.commit_width, 64);
        assert_eq!(c.int_alu_units, 64);
        assert_eq!(c.fp_div_units, 64);
        assert_eq!(c.ls_units, 64);
        assert_eq!(c.max_insts, u64::MAX);
        assert_eq!(c.front_end, FrontEnd::Perfect);
    }

    #[test]
    fn default_validates() {
        assert!(CpuConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let bad = [
            CpuConfig {
                issue_width: 0,
                ..CpuConfig::default()
            },
            CpuConfig {
                ruu_size: 0,
                ..CpuConfig::default()
            },
            CpuConfig {
                lsq_size: 0,
                ..CpuConfig::default()
            },
            CpuConfig {
                watchdog_cycles: 0,
                ..CpuConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
    }
}
