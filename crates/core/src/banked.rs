//! Traditional multi-banking (interleaved cache).

use hbdc_mem::BankMapper;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::{self, Violation};
use crate::model::PortModel;
use crate::request::MemRequest;
use crate::stats::ArbStats;

/// A traditional multi-bank cache: `M` line-interleaved, single-ported
/// banks behind a crossbar (paper §3.2, Figure 2b; the MIPS R10000
/// scheme).
///
/// Each bank services at most one reference per cycle; references are
/// granted oldest-first, and a reference whose bank is already taken this
/// cycle stalls — a *bank conflict*. Bank selection is bit selection on
/// the line address (Figure 2c), the paper's choice; alternative mappers
/// are available through [`BankedPorts::with_mapper`] for the
/// bank-selection ablation.
///
/// # Examples
///
/// ```
/// use hbdc_core::{BankedPorts, MemRequest, PortModel};
///
/// let mut m = BankedPorts::new(2, 32);
/// let ready = vec![
///     MemRequest::load(0, 0x00), // bank 0
///     MemRequest::load(1, 0x20), // bank 1
///     MemRequest::load(2, 0x40), // bank 0 again: conflict
/// ];
/// assert_eq!(m.arbitrate(&ready), vec![0, 1]);
/// ```
#[derive(Debug)]
pub struct BankedPorts {
    mapper: BankMapper,
    // Per-round scratch, one slot per bank: whether the bank already has
    // this cycle's grant. Reset at the start of each round, so the hot
    // path never allocates.
    taken: Vec<bool>,
    stats: ArbStats,
}

impl BankedPorts {
    /// Creates a multi-bank model with bit-selection mapping.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` is a power of two (and at least 1).
    pub fn new(banks: u32, line_size: u64) -> Self {
        Self::with_mapper(BankMapper::bit_select(banks, line_size))
    }

    /// Creates a multi-bank model with an explicit bank-selection function.
    pub fn with_mapper(mapper: BankMapper) -> Self {
        let banks = mapper.banks() as usize;
        Self {
            mapper,
            taken: vec![false; banks],
            stats: ArbStats::new(banks),
        }
    }
}

impl PortModel for BankedPorts {
    // One walk in age order granting the first reference to each bank.
    // Every other offered reference is a bank conflict, so the count is
    // `ready.len() - granted.len()` and the walk stops once every bank
    // has its grant: O(ready) in the worst case, O(banks) when the
    // oldest references already cover every bank.
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        granted.clear();
        self.taken.fill(false);
        let banks = self.taken.len();
        for (i, r) in ready.iter().enumerate() {
            let taken = &mut self.taken[self.mapper.bank_of(r.addr) as usize];
            if !*taken {
                *taken = true;
                granted.push(i);
                if granted.len() == banks {
                    break;
                }
            }
        }
        let conflicts = (ready.len() - granted.len()) as u64;
        if conflicts > 0 {
            self.stats.bump("bank_conflicts", conflicts);
        }
        self.stats.record_round(ready.len(), granted.len());
    }

    fn peak_per_cycle(&self) -> usize {
        self.mapper.banks() as usize
    }

    fn label(&self) -> String {
        format!("Bank-{}", self.mapper.banks())
    }

    fn stats(&self) -> &ArbStats {
        &self.stats
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.stats.load_state(r)
    }

    /// Banked legality: at most one grant per bank per cycle, and the
    /// grant must be the *oldest* ready reference mapping to that bank
    /// (nothing but an earlier same-bank reference can deny a request).
    fn audit_round(&self, ready: &[MemRequest], granted: &[usize], out: &mut Vec<Violation>) {
        audit::check_generic(self.peak_per_cycle(), ready, granted, out);
        let banks = self.mapper.banks() as usize;
        let mut oldest_ready: Vec<Option<usize>> = vec![None; banks];
        for (i, r) in ready.iter().enumerate() {
            let b = self.mapper.bank_of(r.addr) as usize;
            oldest_ready[b].get_or_insert(i);
        }
        let mut granted_in: Vec<Option<usize>> = vec![None; banks];
        for &g in granted {
            let Some(r) = ready.get(g) else { continue };
            let b = self.mapper.bank_of(r.addr) as usize;
            match granted_in[b] {
                Some(prev) => out.push(Violation::new(
                    "banked-double-grant",
                    format!("bank {b} granted twice in one cycle (indices {prev} and {g})"),
                )),
                None => {
                    granted_in[b] = Some(g);
                    if oldest_ready[b] != Some(g) {
                        out.push(Violation::new(
                            "banked-age-priority",
                            format!(
                                "bank {b}: granted index {g} but oldest ready is {:?}",
                                oldest_ready[b]
                            ),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_banks_all_proceed() {
        let mut m = BankedPorts::new(4, 32);
        let ready: Vec<MemRequest> = (0..4).map(|i| MemRequest::load(i, i * 32)).collect();
        assert_eq!(m.arbitrate(&ready), vec![0, 1, 2, 3]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 0);
    }

    #[test]
    fn same_bank_conflicts_serialize() {
        let mut m = BankedPorts::new(4, 32);
        // Same line => same bank; different line but stride 4*32 => same bank.
        let ready = vec![
            MemRequest::load(0, 0x00),
            MemRequest::load(1, 0x08), // same line as #0: still a conflict here!
            MemRequest::load(2, 0x80), // 4 lines later: same bank 0
            MemRequest::load(3, 0x20), // bank 1
        ];
        assert_eq!(m.arbitrate(&ready), vec![0, 3]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 2);
    }

    #[test]
    fn stores_use_banks_like_loads() {
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![MemRequest::store(0, 0x00), MemRequest::store(1, 0x20)];
        assert_eq!(m.arbitrate(&ready), vec![0, 1]);
    }

    #[test]
    fn age_priority_within_bank() {
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![
            MemRequest::load(3, 0x40), // bank 0, oldest
            MemRequest::load(9, 0x00), // bank 0, younger — loses
        ];
        assert_eq!(m.arbitrate(&ready), vec![0]);
    }

    #[test]
    fn age_is_position_not_id() {
        // The walk grants by position: index 0 wins the bank whatever
        // the ids say.
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![
            MemRequest::load(9, 0x40), // bank 0, first in the list
            MemRequest::load(3, 0x00), // bank 0, smaller id
        ];
        assert_eq!(m.arbitrate(&ready), vec![0]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 1);
    }

    #[test]
    fn single_bank_is_single_port() {
        let mut m = BankedPorts::new(1, 32);
        let ready: Vec<MemRequest> = (0..3).map(|i| MemRequest::load(i, i * 64)).collect();
        assert_eq!(m.arbitrate(&ready), vec![0]);
        assert_eq!(m.peak_per_cycle(), 1);
    }

    #[test]
    fn scratch_state_resets_between_cycles() {
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![MemRequest::load(0, 0x00)];
        assert_eq!(m.arbitrate(&ready), vec![0]);
        m.tick();
        // Bank 0 must be free again next cycle.
        assert_eq!(m.arbitrate(&ready), vec![0]);
    }

    #[test]
    fn label() {
        assert_eq!(BankedPorts::new(16, 32).label(), "Bank-16");
    }

    #[test]
    fn saturation_counts_every_loser_as_a_conflict() {
        let ready: Vec<MemRequest> = (0..3).map(|i| MemRequest::load(i, i * 64)).collect();
        let mut m = BankedPorts::new(1, 32);
        assert_eq!(m.arbitrate(&ready), vec![0]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 2);
        assert_eq!(m.stats().offered(), 3);
        assert_eq!(m.stats().granted(), 1);
    }

    #[test]
    fn early_exit_still_counts_the_whole_tail() {
        // Both banks are granted by index 1; the walk stops there, yet
        // every later reference is still a conflict.
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![
            MemRequest::load(0, 0x00), // bank 0
            MemRequest::load(1, 0x20), // bank 1
            MemRequest::load(2, 0x40), // bank 0
            MemRequest::load(3, 0x60), // bank 1
            MemRequest::load(4, 0x80), // bank 0
        ];
        assert_eq!(m.arbitrate(&ready), vec![0, 1]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 3);
        assert_eq!(m.stats().offered(), 5);
        assert_eq!(m.stats().granted(), 2);
    }
}
