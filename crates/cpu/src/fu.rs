//! Functional-unit pools with Table 1 latencies.

use hbdc_isa::FuClass;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::config::CpuConfig;

/// Operation latency of a functional-unit class: `total` cycles until the
/// result is available, `issue` cycles until the unit can accept another
/// operation (paper Table 1, "total/issue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatency {
    /// Result latency in cycles.
    pub total: u64,
    /// Unit occupancy in cycles (1 = fully pipelined).
    pub issue: u64,
}

/// Table 1 latency for a class. Load/store returns the 1/1 address-generation
/// component; the cache access latency is the memory system's business.
pub fn latency_of(class: FuClass) -> FuLatency {
    match class {
        FuClass::IntAlu => FuLatency { total: 1, issue: 1 },
        FuClass::IntMult => FuLatency { total: 3, issue: 1 },
        FuClass::IntDiv => FuLatency {
            total: 12,
            issue: 12,
        },
        FuClass::FpAdd => FuLatency { total: 2, issue: 1 },
        FuClass::FpMult => FuLatency { total: 4, issue: 1 },
        FuClass::FpDiv => FuLatency {
            total: 12,
            issue: 12,
        },
        FuClass::LoadStore => FuLatency { total: 1, issue: 1 },
        FuClass::None => FuLatency { total: 1, issue: 1 },
    }
}

#[derive(Debug, Clone)]
struct Pool {
    busy_until: Vec<u64>,
}

impl Pool {
    fn new(units: u32) -> Self {
        Self {
            busy_until: vec![0; units as usize],
        }
    }

    fn try_issue(&mut self, now: u64, issue_latency: u64) -> bool {
        if let Some(u) = self.busy_until.iter_mut().find(|b| **b <= now) {
            *u = now + issue_latency;
            true
        } else {
            false
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.busy_until.len());
        for &b in &self.busy_until {
            w.put_u64(b);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n != self.busy_until.len() {
            return Err(SnapError::Corrupt(format!(
                "functional-unit pool snapshot has {n} units, expected {}",
                self.busy_until.len()
            )));
        }
        for b in &mut self.busy_until {
            *b = r.get_u64()?;
        }
        Ok(())
    }
}

/// The execution resources of the machine: one pool per functional-unit
/// class (paper Table 1: 64 of each; load/store units are implied by the
/// data-cache port model and never constrained here).
///
/// # Examples
///
/// ```
/// use hbdc_cpu::{CpuConfig, FuPools};
/// use hbdc_isa::FuClass;
///
/// let mut fus = FuPools::new(&CpuConfig::default());
/// let lat = fus.try_issue(FuClass::IntMult, 10).unwrap();
/// assert_eq!(lat.total, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FuPools {
    int_alu: Pool,
    int_mult: Pool,
    int_div: Pool,
    fp_add: Pool,
    fp_mult: Pool,
    fp_div: Pool,
}

impl FuPools {
    /// Creates pools sized per the configuration.
    pub fn new(cfg: &CpuConfig) -> Self {
        Self {
            int_alu: Pool::new(cfg.int_alu_units),
            int_mult: Pool::new(cfg.int_mult_units),
            int_div: Pool::new(cfg.int_div_units),
            fp_add: Pool::new(cfg.fp_add_units),
            fp_mult: Pool::new(cfg.fp_mult_units),
            fp_div: Pool::new(cfg.fp_div_units),
        }
    }

    /// Attempts to claim a unit of `class` at cycle `now`.
    ///
    /// Returns the operation latency if a unit was free, or `None` if all
    /// units of the class are busy (structural hazard). `LoadStore` and
    /// `None` classes always succeed — memory bandwidth is arbitrated by
    /// the port model, not here.
    pub fn try_issue(&mut self, class: FuClass, now: u64) -> Option<FuLatency> {
        let lat = latency_of(class);
        let pool = match class {
            FuClass::IntAlu => &mut self.int_alu,
            FuClass::IntMult => &mut self.int_mult,
            FuClass::IntDiv => &mut self.int_div,
            FuClass::FpAdd => &mut self.fp_add,
            FuClass::FpMult => &mut self.fp_mult,
            FuClass::FpDiv => &mut self.fp_div,
            FuClass::LoadStore | FuClass::None => return Some(lat),
        };
        pool.try_issue(now, lat.issue).then_some(lat)
    }

    /// Serializes every pool's per-unit busy horizon.
    pub fn save_state(&self, w: &mut StateWriter) {
        for pool in [
            &self.int_alu,
            &self.int_mult,
            &self.int_div,
            &self.fp_add,
            &self.fp_mult,
            &self.fp_div,
        ] {
            pool.save_state(w);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into
    /// pools of identical sizes.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Corrupt`] if any pool's unit count differs.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        for pool in [
            &mut self.int_alu,
            &mut self.int_mult,
            &mut self.int_div,
            &mut self.fp_add,
            &mut self.fp_mult,
            &mut self.fp_div,
        ] {
            pool.load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuPools {
        FuPools::new(&CpuConfig {
            int_alu_units: 1,
            int_div_units: 1,
            fp_div_units: 1,
            ..CpuConfig::default()
        })
    }

    #[test]
    fn latencies_match_table1() {
        assert_eq!(
            latency_of(FuClass::IntAlu),
            FuLatency { total: 1, issue: 1 }
        );
        assert_eq!(
            latency_of(FuClass::IntMult),
            FuLatency { total: 3, issue: 1 }
        );
        assert_eq!(
            latency_of(FuClass::IntDiv),
            FuLatency {
                total: 12,
                issue: 12
            }
        );
        assert_eq!(latency_of(FuClass::FpAdd), FuLatency { total: 2, issue: 1 });
        assert_eq!(
            latency_of(FuClass::FpMult),
            FuLatency { total: 4, issue: 1 }
        );
        assert_eq!(
            latency_of(FuClass::FpDiv),
            FuLatency {
                total: 12,
                issue: 12
            }
        );
        assert_eq!(
            latency_of(FuClass::LoadStore),
            FuLatency { total: 1, issue: 1 }
        );
    }

    #[test]
    fn pipelined_unit_accepts_every_cycle() {
        let mut fus = tiny();
        assert!(fus.try_issue(FuClass::IntAlu, 0).is_some());
        assert!(fus.try_issue(FuClass::IntAlu, 0).is_none()); // 1 unit, same cycle
        assert!(fus.try_issue(FuClass::IntAlu, 1).is_some()); // next cycle ok
    }

    #[test]
    fn unpipelined_divider_blocks_for_issue_latency() {
        let mut fus = tiny();
        assert!(fus.try_issue(FuClass::IntDiv, 0).is_some());
        assert!(fus.try_issue(FuClass::IntDiv, 11).is_none());
        assert!(fus.try_issue(FuClass::IntDiv, 12).is_some());
    }

    #[test]
    fn load_store_never_blocks() {
        let mut fus = tiny();
        for _ in 0..100 {
            assert!(fus.try_issue(FuClass::LoadStore, 0).is_some());
        }
    }

    #[test]
    fn classes_are_independent() {
        let mut fus = tiny();
        assert!(fus.try_issue(FuClass::IntDiv, 0).is_some());
        assert!(fus.try_issue(FuClass::FpDiv, 0).is_some()); // separate pool
        assert!(fus.try_issue(FuClass::IntAlu, 0).is_some());
    }
}
