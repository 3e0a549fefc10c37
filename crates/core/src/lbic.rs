//! The Locality-Based Interleaved Cache (LBIC), paper §5.

use std::collections::VecDeque;

use hbdc_mem::BankMapper;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::Violation;
use crate::model::PortModel;
use crate::request::MemRequest;
use crate::stats::ArbStats;

/// How the LSQ combining logic picks the group of accesses for each bank
/// (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CombinePolicy {
    /// Combine with the *leading request* — the oldest grantable ready
    /// reference to each bank locks that bank's line buffer, and younger
    /// same-line references ride along. The paper's choice: "we settled on
    /// the leading request because we believe it is fair and simple."
    #[default]
    LeadingRequest,
    /// Find the *largest group* of combinable ready accesses per bank and
    /// grant that group instead. The paper's proposed enhancement, whose
    /// "sorting logic … may be costly"; implemented here as ablation B.
    LargestGroup,
}

#[derive(Debug)]
struct Bank {
    store_queue: VecDeque<u64>, // addresses of stores awaiting drain
    granted_this_cycle: bool,
}

/// The Locality-Based Interleaved Cache: a traditional `M`-bank cache with
/// an `N`-ported single-line buffer and a store queue on each bank.
///
/// Per cycle and per bank, the leading (oldest grantable) reference locks
/// the bank's line buffer to its cache line; up to `N-1` further ready
/// references *to the same line* combine with it. Granted stores deposit
/// into the bank's store queue, which drains one entry per idle bank cycle
/// (the HP PA8000 discipline the paper cites); a full store queue makes
/// further stores to that bank ungrantable until it drains. Loads never
/// block on the store queue — their data is served from the line buffer.
///
/// An `MxN` LBIC therefore peaks at `M*N` references per cycle while its
/// cache arrays remain plain single-ported banks.
///
/// # Examples
///
/// ```
/// use hbdc_core::{ArbStats, CombinePolicy, Lbic, MemRequest, PortModel};
///
/// let mut m = Lbic::new(2, 2, 8, 32, CombinePolicy::LeadingRequest);
/// let mut s = ArbStats::new(4);
/// // The paper's Figure 4c pattern: st/ld/ld/st over two banks, one line
/// // per bank. With 32-byte lines and 2 banks, line 12 (addresses
/// // 0x180..0x19f) maps to bank 0 and line 11 (0x160..0x17f) to bank 1.
/// let ready = vec![
///     MemRequest::store(0, 0x180), // bank 0, line 12, offset 0
///     MemRequest::load(1, 0x164),  // bank 1, line 11, offset 4
///     MemRequest::load(2, 0x168),  // bank 1, line 11, offset 8
///     MemRequest::store(3, 0x18c), // bank 0, line 12, offset 12
/// ];
/// assert_eq!(m.arbitrate(&ready, &mut s).len(), 4); // all four in one cycle
/// assert_eq!(s.combined, 2);
/// ```
#[derive(Debug)]
pub struct Lbic {
    mapper: BankMapper,
    line_ports: usize,
    sq_capacity: usize,
    policy: CombinePolicy,
    line_shift: u32,
    banks: Vec<Bank>,
    // Per-cycle scratch (one slot per bank unless noted), reset at the
    // start of each arbitration round so the hot path never allocates.
    scratch_locked: Vec<Option<u64>>,
    scratch_counts: Vec<usize>,
    scratch_sq_free: Vec<usize>,
    scratch_by_bank: Vec<Vec<usize>>,
    scratch_lines: Vec<(u64, usize)>, // per-line counts within one bank
}

impl Lbic {
    /// Creates an `banks x line_ports` LBIC for a cache with the given
    /// line size, using bit-selection bank mapping.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two, `line_ports` is zero, or
    /// `store_queue` is zero.
    pub fn new(
        banks: u32,
        line_ports: usize,
        store_queue: usize,
        line_size: u64,
        policy: CombinePolicy,
    ) -> Self {
        assert!(line_ports > 0, "line buffer needs at least one port");
        assert!(store_queue > 0, "store queue needs at least one entry");
        let mapper = BankMapper::bit_select(banks, line_size);
        let n_banks = mapper.banks() as usize;
        Self {
            mapper,
            line_ports,
            sq_capacity: store_queue,
            policy,
            line_shift: line_size.trailing_zeros(),
            banks: (0..n_banks)
                .map(|_| Bank {
                    store_queue: VecDeque::new(),
                    granted_this_cycle: false,
                })
                .collect(),
            scratch_locked: vec![None; n_banks],
            scratch_counts: vec![0; n_banks],
            scratch_sq_free: vec![0; n_banks],
            scratch_by_bank: vec![Vec::new(); n_banks],
            scratch_lines: Vec::new(),
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Leading-request selection: one ordered walk, first grantable
    /// reference per bank locks the line.
    fn arbitrate_leading(
        &mut self,
        ready: &[MemRequest],
        granted: &mut Vec<usize>,
        stats: &mut ArbStats,
    ) {
        // Per-bank cycle state: the locked line and grants so far.
        for slot in self.scratch_locked.iter_mut() {
            *slot = None;
        }
        for count in self.scratch_counts.iter_mut() {
            *count = 0;
        }
        for (k, b) in self.banks.iter().enumerate() {
            self.scratch_sq_free[k] = self.sq_capacity - b.store_queue.len().min(self.sq_capacity);
        }
        for (i, r) in ready.iter().enumerate() {
            let bank = self.mapper.bank_of(r.addr) as usize;
            let line = self.line_of(r.addr);
            match self.scratch_locked[bank] {
                None => {
                    if r.is_store && self.scratch_sq_free[bank] == 0 {
                        stats.sq_full_stalls += 1;
                        continue;
                    }
                    self.scratch_locked[bank] = Some(line);
                    self.scratch_counts[bank] = 1;
                    if r.is_store {
                        self.scratch_sq_free[bank] -= 1;
                        self.banks[bank].store_queue.push_back(r.addr);
                    }
                    granted.push(i);
                }
                Some(l) if l == line => {
                    if self.scratch_counts[bank] >= self.line_ports {
                        stats.port_exhaustion += 1;
                        continue;
                    }
                    if r.is_store && self.scratch_sq_free[bank] == 0 {
                        stats.sq_full_stalls += 1;
                        continue;
                    }
                    self.scratch_counts[bank] += 1;
                    stats.combined += 1;
                    if r.is_store {
                        self.scratch_sq_free[bank] -= 1;
                        self.banks[bank].store_queue.push_back(r.addr);
                    }
                    granted.push(i);
                }
                Some(_) => stats.bank_conflicts += 1,
            }
        }

        for (bank, &c) in self.scratch_counts.iter().enumerate() {
            if c > 0 {
                self.banks[bank].granted_this_cycle = true;
            }
        }
    }

    /// Largest-group selection: per bank, the line with the most ready
    /// references wins (ties broken toward the oldest leading reference).
    fn arbitrate_largest(
        &mut self,
        ready: &[MemRequest],
        granted: &mut Vec<usize>,
        stats: &mut ArbStats,
    ) {
        // Bucket request indices by bank.
        for idxs in self.scratch_by_bank.iter_mut() {
            idxs.clear();
        }
        for (i, r) in ready.iter().enumerate() {
            self.scratch_by_bank[self.mapper.bank_of(r.addr) as usize].push(i);
        }

        for bank in 0..self.banks.len() {
            if self.scratch_by_bank[bank].is_empty() {
                continue;
            }
            // Count references per line, preserving first-seen order so
            // ties favour the line of the oldest reference.
            self.scratch_lines.clear();
            for k in 0..self.scratch_by_bank[bank].len() {
                let i = self.scratch_by_bank[bank][k];
                let line = self.line_of(ready[i].addr);
                match self.scratch_lines.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, c)) => *c += 1,
                    None => self.scratch_lines.push((line, 1)),
                }
            }
            // First-seen order breaks ties toward the oldest reference;
            // keep the first strictly-greatest count.
            let mut best_line = self.scratch_lines[0].0;
            let mut best_count = self.scratch_lines[0].1;
            for &(l, c) in &self.scratch_lines[1..] {
                if c > best_count {
                    best_line = l;
                    best_count = c;
                }
            }

            let mut count = 0usize;
            let mut sq_free =
                self.sq_capacity - self.banks[bank].store_queue.len().min(self.sq_capacity);
            for k in 0..self.scratch_by_bank[bank].len() {
                let i = self.scratch_by_bank[bank][k];
                if self.line_of(ready[i].addr) != best_line {
                    continue;
                }
                if count >= self.line_ports {
                    stats.port_exhaustion += 1;
                    continue;
                }
                if ready[i].is_store {
                    if sq_free == 0 {
                        stats.sq_full_stalls += 1;
                        continue;
                    }
                    sq_free -= 1;
                    self.banks[bank].store_queue.push_back(ready[i].addr);
                }
                if count > 0 {
                    stats.combined += 1;
                }
                count += 1;
                granted.push(i);
            }
            if count > 0 {
                self.banks[bank].granted_this_cycle = true;
            }
            // `count` is exactly the number of this bank's references
            // granted above, so the rest of the bank lost.
            stats.bank_conflicts += (self.scratch_by_bank[bank].len() - count) as u64;
        }
        granted.sort_unstable();
    }
}

impl PortModel for Lbic {
    fn arbitrate_into(
        &mut self,
        ready: &[MemRequest],
        granted: &mut Vec<usize>,
        stats: &mut ArbStats,
    ) {
        granted.clear();
        match self.policy {
            CombinePolicy::LeadingRequest => self.arbitrate_leading(ready, granted, stats),
            CombinePolicy::LargestGroup => self.arbitrate_largest(ready, granted, stats),
        }
    }

    fn tick(&mut self, stats: &mut ArbStats) {
        // Store queues drain on idle bank cycles (paper §5.2: "the store
        // queue uses idle cycles … to perform stores"). One drain writes
        // one cache line through the bank's single port, so every queued
        // store to that line retires together — the store queue coalesces
        // same-line stores into a single array write.
        let line_shift = self.line_shift;
        for bank in &mut self.banks {
            if !bank.granted_this_cycle {
                if let Some(head) = bank.store_queue.pop_front() {
                    let line = head >> line_shift;
                    let before = bank.store_queue.len();
                    bank.store_queue.retain(|a| a >> line_shift != line);
                    stats.sq_drains += 1 + (before - bank.store_queue.len()) as u64;
                }
            }
            bank.granted_this_cycle = false;
        }
    }

    /// LBIC legality (paper §5): within one cycle, every grant in a bank
    /// must hit the line locked by that bank's leading grant, at most
    /// `N = line_ports` grants may share a bank's line buffer, and no
    /// per-bank store queue may exceed its capacity.
    fn audit_round(&self, ready: &[MemRequest], granted: &[usize], out: &mut Vec<Violation>) {
        let n_banks = self.banks.len();
        let mut leader_line: Vec<Option<u64>> = vec![None; n_banks];
        let mut count: Vec<usize> = vec![0; n_banks];
        for &g in granted {
            let Some(r) = ready.get(g) else { continue };
            let b = self.mapper.bank_of(r.addr) as usize;
            let line = self.line_of(r.addr);
            match leader_line[b] {
                None => {
                    leader_line[b] = Some(line);
                    count[b] = 1;
                }
                Some(l) if l == line => {
                    count[b] += 1;
                    if count[b] > self.line_ports {
                        out.push(Violation::new(
                            "lbic-combining-overflow",
                            format!(
                                "bank {b}: {} grants to line {line:#x} exceed the \
                                 {}-ported line buffer",
                                count[b], self.line_ports
                            ),
                        ));
                    }
                }
                Some(l) => out.push(Violation::new(
                    "lbic-cross-line",
                    format!(
                        "bank {b}: grant index {g} hits line {line:#x} but the \
                         leader locked line {l:#x}"
                    ),
                )),
            }
        }
        for (b, bank) in self.banks.iter().enumerate() {
            if bank.store_queue.len() > self.sq_capacity {
                out.push(Violation::new(
                    "lbic-store-queue-overflow",
                    format!(
                        "bank {b}: store queue holds {} entries, capacity {}",
                        bank.store_queue.len(),
                        self.sq_capacity
                    ),
                ));
            }
        }
    }

    // The per-cycle scratch vectors are rebuilt at the top of every
    // arbitration round, so only the per-bank store queues and the
    // granted-this-cycle flags persist.
    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            w.put_usize(bank.store_queue.len());
            for &addr in &bank.store_queue {
                w.put_u64(addr);
            }
            w.put_bool(bank.granted_this_cycle);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n != self.banks.len() {
            return Err(SnapError::Corrupt(format!(
                "LBIC has {} banks, snapshot carries {n}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            let q = r.get_usize()?;
            if q > self.sq_capacity {
                return Err(SnapError::Corrupt(format!(
                    "{q} queued stores exceed the store-queue capacity {}",
                    self.sq_capacity
                )));
            }
            bank.store_queue.clear();
            for _ in 0..q {
                bank.store_queue.push_back(r.get_u64()?);
            }
            bank.granted_this_cycle = r.get_bool()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an address for (bank, line-within-bank, offset) under
    /// 2-bank bit selection with 32-byte lines.
    fn addr2(bank: u64, line_sel: u64, offset: u64) -> u64 {
        (line_sel << 6) | (bank << 5) | offset
    }

    fn lbic(m: u32, n: usize) -> Lbic {
        Lbic::new(m, n, 8, 32, CombinePolicy::LeadingRequest)
    }

    #[test]
    fn figure_4c_single_cycle() {
        // The paper's Figure 4c: st(B0,L12,o0), ld(B1,L10,o4),
        // ld(B1,L10,o8), st(B0,L12,o12) — a 2x2 LBIC handles all four in
        // one cycle.
        let mut m = lbic(2, 2);
        let s = &mut ArbStats::new(16);
        let ready = vec![
            MemRequest::store(0, addr2(0, 12, 0)),
            MemRequest::load(1, addr2(1, 10, 4)),
            MemRequest::load(2, addr2(1, 10, 8)),
            MemRequest::store(3, addr2(0, 12, 12)),
        ];
        assert_eq!(m.arbitrate(&ready, s), vec![0, 1, 2, 3]);
        assert_eq!(s.combined, 2);
    }

    #[test]
    fn same_bank_different_line_conflicts() {
        let mut m = lbic(2, 2);
        let s = &mut ArbStats::new(16);
        let ready = vec![
            MemRequest::load(0, addr2(0, 1, 0)),
            MemRequest::load(1, addr2(0, 2, 0)), // same bank, different line
        ];
        assert_eq!(m.arbitrate(&ready, s), vec![0]);
        assert_eq!(s.bank_conflicts, 1);
    }

    #[test]
    fn line_port_exhaustion_caps_combining() {
        let mut m = lbic(2, 2);
        let s = &mut ArbStats::new(16);
        let ready: Vec<MemRequest> = (0..4)
            .map(|i| MemRequest::load(i, addr2(0, 5, i * 8)))
            .collect();
        assert_eq!(m.arbitrate(&ready, s), vec![0, 1]); // N = 2
        assert_eq!(s.port_exhaustion, 2);
    }

    #[test]
    fn peak_is_m_times_n() {
        // 4 lines, one per bank, 4 same-line refs each → all 16 grant.
        let mut ready = Vec::new();
        for bank in 0..4u64 {
            for k in 0..4u64 {
                ready.push(MemRequest::load(
                    bank * 4 + k,
                    (bank << 5) | (k * 8), // 4-bank mapping: bits 5..6
                ));
            }
        }
        let mut model = Lbic::new(4, 4, 16, 32, CombinePolicy::LeadingRequest);
        let s = &mut ArbStats::new(16);
        assert_eq!(model.arbitrate(&ready, s).len(), 16);
    }

    #[test]
    fn full_store_queue_blocks_stores_not_loads() {
        let mut m = Lbic::new(2, 2, 1, 32, CombinePolicy::LeadingRequest);
        let s = &mut ArbStats::new(16);
        // Fill the single-entry store queue of bank 0.
        let g = m.arbitrate(&[MemRequest::store(0, addr2(0, 1, 0))], s);
        assert_eq!(g, vec![0]);
        assert_eq!(m.banks[0].store_queue.len(), 1);
        // Bank 0 was busy this cycle, so no drain happens at tick.
        m.tick(s);
        assert_eq!(m.banks[0].store_queue.len(), 1);
        // Next cycle: another store to bank 0 is blocked; a load to the
        // same line proceeds and becomes the leading request.
        let ready = vec![
            MemRequest::store(1, addr2(0, 1, 8)),
            MemRequest::load(2, addr2(0, 1, 16)),
        ];
        assert_eq!(m.arbitrate(&ready, s), vec![1]);
        assert_eq!(s.sq_full_stalls, 1);
    }

    #[test]
    fn store_queue_drains_on_idle_cycles() {
        let mut m = Lbic::new(2, 2, 4, 32, CombinePolicy::LeadingRequest);
        let s = &mut ArbStats::new(16);
        m.arbitrate(
            &[
                MemRequest::store(0, addr2(0, 1, 0)),
                MemRequest::store(1, addr2(0, 1, 8)),
            ],
            s,
        );
        assert_eq!(m.banks[0].store_queue.len(), 2);
        m.tick(s); // bank was busy: no drain
        assert_eq!(m.banks[0].store_queue.len(), 2);
        m.arbitrate(&[], s); // idle cycle: both stores share a line, so one
        m.tick(s); // array write retires them together
        assert_eq!(m.banks[0].store_queue.len(), 0);
        assert_eq!(s.sq_drains, 2);
    }

    #[test]
    fn store_queue_drain_coalesces_only_same_line() {
        let mut m = Lbic::new(2, 2, 8, 32, CombinePolicy::LeadingRequest);
        let s = &mut ArbStats::new(16);
        m.arbitrate(
            &[
                MemRequest::store(0, addr2(0, 1, 0)),
                MemRequest::store(1, addr2(0, 1, 8)),
            ],
            s,
        );
        m.tick(s); // busy, no drain
        m.arbitrate(&[MemRequest::store(2, addr2(0, 2, 0))], s);
        m.tick(s); // busy again
        assert_eq!(m.banks[0].store_queue.len(), 3);
        m.arbitrate(&[], s);
        m.tick(s); // drains the two line-1 stores together
        assert_eq!(m.banks[0].store_queue.len(), 1);
        m.arbitrate(&[], s);
        m.tick(s); // drains the line-2 store
        assert_eq!(m.banks[0].store_queue.len(), 0);
    }

    #[test]
    fn mx1_behaves_like_banked_for_loads() {
        use crate::banked::BankedPorts;
        let mut lb = Lbic::new(4, 1, 64, 32, CombinePolicy::LeadingRequest);
        let mut bk = BankedPorts::new(4, 32);
        let ready: Vec<MemRequest> = (0..8)
            .map(|i| MemRequest::load(i, (i * 13 % 32) * 32))
            .collect();
        let s = &mut ArbStats::new(4);
        assert_eq!(lb.arbitrate(&ready, s), bk.arbitrate(&ready, s));
    }

    #[test]
    fn largest_group_beats_leading_on_skewed_pattern() {
        // Oldest request is a singleton line; three younger requests share
        // another line. Leading grants 1; largest-group grants 3.
        let ready = vec![
            MemRequest::load(0, addr2(0, 1, 0)),
            MemRequest::load(1, addr2(0, 2, 0)),
            MemRequest::load(2, addr2(0, 2, 8)),
            MemRequest::load(3, addr2(0, 2, 16)),
        ];
        let mut lead = Lbic::new(2, 4, 8, 32, CombinePolicy::LeadingRequest);
        let mut large = Lbic::new(2, 4, 8, 32, CombinePolicy::LargestGroup);
        let s = &mut ArbStats::new(8);
        assert_eq!(lead.arbitrate(&ready, s), vec![0]);
        assert_eq!(large.arbitrate(&ready, s), vec![1, 2, 3]);
    }

    #[test]
    fn largest_group_tie_prefers_oldest() {
        let ready = vec![
            MemRequest::load(0, addr2(0, 1, 0)),
            MemRequest::load(1, addr2(0, 2, 0)),
            MemRequest::load(2, addr2(0, 1, 8)),
            MemRequest::load(3, addr2(0, 2, 8)),
        ];
        let mut m = Lbic::new(2, 4, 8, 32, CombinePolicy::LargestGroup);
        let s = &mut ArbStats::new(16);
        // Tie between lines 1 and 2 (2 refs each) — line 1 contains the
        // oldest reference and wins.
        assert_eq!(m.arbitrate(&ready, s), vec![0, 2]);
    }

    /// One largest-group round on a 2-bank LBIC: grants, the
    /// (bank conflict, port exhaustion, combined) counters, and bank 0's
    /// store queue.
    fn assert_largest_round(
        (line_ports, sq): (usize, usize),
        ready: &[MemRequest],
        grants: &[usize],
        counters: (u64, u64, u64),
        sq0: usize,
    ) {
        let mut m = Lbic::new(2, line_ports, sq, 32, CombinePolicy::LargestGroup);
        let s = &mut ArbStats::new(16);
        assert_eq!(m.arbitrate(ready, s), grants);
        assert_eq!((s.bank_conflicts, s.port_exhaustion, s.combined), counters);
        assert_eq!(s.offered(), ready.len() as u64);
        assert_eq!(s.granted(), grants.len() as u64);
        assert_eq!(
            (m.banks[0].store_queue.len(), m.banks[1].store_queue.len()),
            (sq0, 0)
        );
    }

    /// Largest-group goldens on skewed, tied and store/exhaustion-heavy
    /// banks. Exhausted and store-queue-blocked members of the winning
    /// line count as bank conflicts, like the losing lines.
    #[test]
    fn largest_group_walk_goldens() {
        let load = |id, line, off| MemRequest::load(id, addr2(0, line, off));
        let store = |id, line, off| MemRequest::store(id, addr2(0, line, off));
        let skew = [load(0, 1, 0), load(1, 2, 0), load(2, 2, 8), load(3, 2, 16)];
        assert_largest_round((4, 8), &skew, &[1, 2, 3], (1, 0, 2), 0);
        let tie = [load(0, 1, 0), load(1, 2, 0), load(2, 1, 8), load(3, 2, 8)];
        assert_largest_round((4, 8), &tie, &[0, 2], (2, 0, 1), 0);
        // Line 3 exhausts its two ports after a store and a load; line 6
        // loses the bank.
        let exhaustion = [
            store(0, 3, 0),
            load(1, 3, 8),
            store(2, 3, 16),
            load(3, 3, 24),
            load(4, 6, 0),
        ];
        assert_largest_round((2, 1), &exhaustion, &[0, 1], (3, 2, 1), 1);
    }

    #[test]
    fn load_after_store_same_location_same_cycle() {
        // Paper §5.2: "a load followed by a store to the same memory
        // location [can] be accepted in the same cycle."
        let mut m = lbic(2, 2);
        let s = &mut ArbStats::new(16);
        let a = addr2(0, 3, 8);
        let ready = vec![MemRequest::load(0, a), MemRequest::store(1, a)];
        assert_eq!(m.arbitrate(&ready, s), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_line_ports_panics() {
        Lbic::new(2, 0, 8, 32, CombinePolicy::LeadingRequest);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_store_queue_panics() {
        Lbic::new(2, 2, 0, 32, CombinePolicy::LeadingRequest);
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        // Leave bank 0's store queue non-empty mid-drain, snapshot, and
        // check a restored model drains and arbitrates identically.
        let mut m = lbic(2, 2);
        let s = &mut ArbStats::new(4);
        m.arbitrate(
            &[
                MemRequest::store(0, addr2(0, 1, 0)),
                MemRequest::store(1, addr2(0, 2, 0)),
            ],
            s,
        );
        m.tick(s);
        let mut w = StateWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = lbic(2, 2);
        let rs = &mut s.clone();
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(
            restored.banks[0].store_queue.len(),
            m.banks[0].store_queue.len()
        );
        let ready = vec![
            MemRequest::store(2, addr2(0, 3, 0)),
            MemRequest::load(3, addr2(1, 4, 8)),
        ];
        for _ in 0..4 {
            assert_eq!(restored.arbitrate(&ready, rs), m.arbitrate(&ready, s));
            restored.tick(rs);
            m.tick(s);
            assert_eq!(
                restored.banks[0].store_queue.len(),
                m.banks[0].store_queue.len()
            );
        }
        assert_eq!(rs.sq_drains, s.sq_drains);
    }

    #[test]
    fn load_rejects_wrong_bank_count() {
        let mut w = StateWriter::new();
        lbic(4, 2).save_state(&mut w);
        let bytes = w.into_bytes();
        let mut two_banks = lbic(2, 2);
        assert!(matches!(
            two_banks.load_state(&mut StateReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }
}
