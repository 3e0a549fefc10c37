//! Traditional multi-banking (interleaved cache).

use std::collections::VecDeque;

use hbdc_mem::BankMapper;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::{self, Violation};
use crate::model::PortModel;
use crate::request::{MemRequest, Offered};
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
    taken: Vec<bool>, // scratch, one per bank
    // Incremental per-bank index over the standing offered set (the
    // batched-round path): each bucket holds that bank's offered requests
    // sorted by id (= age), maintained by offer_insert/offer_remove, so a
    // round is "front of every non-empty bucket" instead of a walk over
    // the whole age-ordered backlog. Deques, because the maintenance
    // traffic is end-biased — arrivals carry the largest id yet (back)
    // and grants take the oldest per bank (front) — so the common case
    // is O(1) instead of a memmove over the bucket. Derived state: never
    // serialized, rebuilt by offer_reset after a snapshot restore.
    buckets: Vec<VecDeque<MemRequest>>,
    offered_len: usize,
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
            buckets: vec![VecDeque::new(); banks],
            offered_len: 0,
            stats: ArbStats::new(banks),
        }
    }

    /// The bank-selection function in use.
    pub fn mapper(&self) -> &BankMapper {
        &self.mapper
    }
}

impl PortModel for BankedPorts {
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        granted.clear();
        self.taken.iter_mut().for_each(|t| *t = false);
        let banks = self.taken.len();
        let mut conflicts = 0u64;
        for (i, r) in ready.iter().enumerate() {
            // Once every bank is claimed no later request can win, so the
            // rest of the (age-ordered) ready list is all conflicts —
            // counting it wholesale keeps the round O(banks) even when
            // ports saturate and the ready list grows long.
            if granted.len() == banks {
                conflicts += (ready.len() - i) as u64;
                break;
            }
            let bank = self.mapper.bank_of(r.addr) as usize;
            if self.taken[bank] {
                conflicts += 1;
            } else {
                self.taken[bank] = true;
                granted.push(i);
            }
        }
        if conflicts > 0 {
            self.stats.bump("bank_conflicts", conflicts);
        }
        self.stats.record_round(ready.len(), granted.len());
    }

    fn mirrors_offers(&self) -> bool {
        true
    }

    fn offer_insert(&mut self, req: MemRequest) {
        let bank = self.mapper.bank_of(req.addr) as usize;
        let bucket = &mut self.buckets[bank];
        // Newly-ready requests almost always carry the largest id in
        // their bank (ids are dispatch order), so the common case is an
        // O(1) push onto the back; out-of-order wakeups fall back to a
        // binary search plus a shift of the shorter side.
        if bucket.back().is_none_or(|r| r.id < req.id) {
            bucket.push_back(req);
        } else {
            let pos = bucket.partition_point(|r| r.id < req.id);
            debug_assert!(
                bucket.get(pos).is_none_or(|r| r.id != req.id),
                "duplicate offered id {}",
                req.id
            );
            bucket.insert(pos, req);
        }
        self.offered_len += 1;
    }

    fn offer_remove(&mut self, req: MemRequest) {
        let bank = self.mapper.bank_of(req.addr) as usize;
        let bucket = &mut self.buckets[bank];
        // Grants take the oldest reference per bank — the bucket front —
        // so the common case is an O(1) pop; mid-bucket removals
        // (squashes, MSHR-rejected retries) shift the shorter side.
        if bucket.front().is_some_and(|r| r.id == req.id) {
            bucket.pop_front();
        } else {
            let pos = bucket.partition_point(|r| r.id < req.id);
            debug_assert!(
                bucket.get(pos).is_some_and(|r| r.id == req.id),
                "removing id {} not in offered set",
                req.id
            );
            bucket.remove(pos);
        }
        self.offered_len -= 1;
    }

    fn offer_reset(&mut self, offered: Offered<'_>) {
        self.buckets.iter_mut().for_each(VecDeque::clear);
        self.offered_len = offered.len();
        // The view is id-sorted (age order), so appending keeps every
        // bucket sorted without a per-element search.
        for r in offered.iter() {
            self.buckets[self.mapper.bank_of(r.addr) as usize].push_back(r);
        }
    }

    // Batched round over the incrementally-maintained buckets: the winner
    // of each bank is the front of its bucket (oldest same-bank request),
    // and every other offered request is a bank conflict — exactly the
    // slice-walk semantics of `arbitrate_into` (including the saturation
    // shortcut, whose grant set is also "oldest per bank"), at
    // O(banks + grants) per round instead of O(offered).
    fn arbitrate_offered(&mut self, offered: Offered<'_>, granted: &mut Vec<MemRequest>) {
        debug_assert_eq!(
            self.offered_len,
            offered.len(),
            "offered mirror out of sync"
        );
        granted.clear();
        for bucket in &self.buckets {
            if let Some(&r) = bucket.front() {
                granted.push(r);
            }
        }
        // Grants must come back in age (id) order, matching the
        // slice-walk's grant order.
        granted.sort_unstable_by_key(|r| r.id);
        let conflicts = (self.offered_len - granted.len()) as u64;
        if conflicts > 0 {
            self.stats.bump("bank_conflicts", conflicts);
        }
        self.stats.record_round(self.offered_len, granted.len());
    }

    fn tick(&mut self) {
        self.stats.record_tick();
    }

    // `taken` is per-round scratch, so an idle cycle only advances the
    // cycle counter and skipped spans can be accounted in bulk.
    fn next_event(&self, _now: u64) -> Option<u64> {
        None
    }

    fn skip_idle(&mut self, k: u64) {
        self.stats.record_ticks(k);
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

    // `taken` is per-round scratch (cleared at the top of every
    // arbitration), so the statistics are the only persistent state.
    fn save_state(&self, w: &mut StateWriter) {
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.taken.iter_mut().for_each(|t| *t = false);
        // The offered mirror is derived state: the driver re-seeds it via
        // `offer_reset` once the load/store queue has been restored.
        self.buckets.iter_mut().for_each(VecDeque::clear);
        self.offered_len = 0;
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
            MemRequest::load(9, 0x40), // bank 0, oldest
            MemRequest::load(3, 0x00), // bank 0, younger — loses
        ];
        assert_eq!(m.arbitrate(&ready), vec![0]);
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

    fn offer_all(m: &mut BankedPorts, reqs: &[MemRequest]) {
        for &r in reqs {
            m.offer_insert(r);
        }
    }

    fn round(m: &mut BankedPorts, reqs: &[MemRequest]) -> Vec<u64> {
        let (ids, (addrs, stores)): (Vec<u64>, (Vec<u64>, Vec<bool>)) =
            reqs.iter().map(|r| (r.id, (r.addr, r.is_store))).unzip();
        let mut granted = Vec::new();
        m.arbitrate_offered(Offered::new(&ids, &addrs, &stores), &mut granted);
        granted.iter().map(|r| r.id).collect()
    }

    #[test]
    fn batched_matches_naive_grants_and_stats() {
        let ready = vec![
            MemRequest::load(0, 0x00),
            MemRequest::load(1, 0x08), // same line as #0: conflict
            MemRequest::load(2, 0x80), // same bank 0
            MemRequest::load(3, 0x20), // bank 1
        ];
        let mut naive = BankedPorts::new(4, 32);
        let want = naive.arbitrate(&ready);

        let mut m = BankedPorts::new(4, 32);
        offer_all(&mut m, &ready);
        let got = round(&mut m, &ready);
        assert_eq!(got, want.iter().map(|&i| ready[i].id).collect::<Vec<_>>());
        assert_eq!(
            m.stats().extra_counter("bank_conflicts"),
            naive.stats().extra_counter("bank_conflicts")
        );
        assert_eq!(m.stats().offered(), naive.stats().offered());
        assert_eq!(m.stats().granted(), naive.stats().granted());
    }

    #[test]
    fn batched_saturation_counts_tail_conflicts() {
        // 1 bank, 3 requests: naive grants the oldest and counts 2
        // wholesale once the bank saturates.
        let ready: Vec<MemRequest> = (0..3).map(|i| MemRequest::load(i, i * 64)).collect();
        let mut m = BankedPorts::new(1, 32);
        offer_all(&mut m, &ready);
        assert_eq!(round(&mut m, &ready), vec![0]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 2);
    }

    #[test]
    fn batched_remove_promotes_next_oldest() {
        let ready = vec![
            MemRequest::load(0, 0x00), // bank 0
            MemRequest::load(1, 0x80), // bank 0, younger
        ];
        let mut m = BankedPorts::new(4, 32);
        offer_all(&mut m, &ready);
        assert_eq!(round(&mut m, &ready), vec![0]);
        m.offer_remove(ready[0]);
        assert_eq!(round(&mut m, &ready[1..]), vec![1]);
    }

    #[test]
    fn batched_reset_rebuilds_mirror() {
        let ready = vec![
            MemRequest::load(4, 0x00),
            MemRequest::load(7, 0x20),
            MemRequest::load(9, 0x40),
        ];
        let mut m = BankedPorts::new(2, 32);
        // Stale mirror from an earlier epoch; reset must replace it.
        m.offer_insert(MemRequest::load(1, 0x60));
        let (ids, (addrs, stores)): (Vec<u64>, (Vec<u64>, Vec<bool>)) =
            ready.iter().map(|r| (r.id, (r.addr, r.is_store))).unzip();
        m.offer_reset(Offered::new(&ids, &addrs, &stores));
        assert_eq!(round(&mut m, &ready), vec![4, 7]);
    }
}
