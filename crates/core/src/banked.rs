//! Traditional multi-banking (interleaved cache).

use std::collections::VecDeque;

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
    // Per-bank index over the standing offered set: each bucket holds
    // that bank's offered requests sorted by id (= age), maintained by
    // offer_insert/offer_remove, so a round is "front of every non-empty
    // bucket" instead of a walk over the whole age-ordered backlog.
    // Deques, because the maintenance traffic is end-biased — arrivals
    // carry the largest id yet (back) and grants take the oldest per bank
    // (front) — so the common case is O(1). Derived state: never
    // serialized, rebuilt by offer_reset after a snapshot restore.
    buckets: Vec<VecDeque<MemRequest>>,
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
            buckets: vec![VecDeque::new(); banks],
            stats: ArbStats::new(banks),
        }
    }

    /// The bank-selection function in use.
    pub fn mapper(&self) -> &BankMapper {
        &self.mapper
    }
}

impl PortModel for BankedPorts {
    // The winner of each bank is the front of its bucket (the oldest
    // same-bank request) and every other offered request is a bank
    // conflict, so a round is O(banks) bucket reads plus one binary
    // search per grant to turn its id back into an index of `ready`
    // (valid because ids strictly increase along `ready`). The mirror
    // checks are hard asserts: they cost O(banks) per round, and a
    // violated ordering contract or a desynchronized mirror would
    // otherwise yield silently wrong grants.
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        assert_eq!(
            self.buckets.iter().map(VecDeque::len).sum::<usize>(),
            ready.len(),
            "offered mirror out of sync with the ready list"
        );
        granted.clear();
        for bucket in &self.buckets {
            if let Some(front) = bucket.front() {
                let i = ready.partition_point(|r| r.id < front.id);
                assert!(
                    ready.get(i).is_some_and(|r| r.id == front.id),
                    "mirror front id {} not in the ready list (ids must strictly increase)",
                    front.id
                );
                granted.push(i);
            }
        }
        granted.sort_unstable();
        let conflicts = (ready.len() - granted.len()) as u64;
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
            assert!(
                bucket.get(pos).is_none_or(|r| r.id != req.id),
                "duplicate offered id {}",
                req.id
            );
            bucket.insert(pos, req);
        }
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
            assert!(
                bucket.get(pos).is_some_and(|r| r.id == req.id),
                "removing id {} not in offered set",
                req.id
            );
            bucket.remove(pos);
        }
    }

    fn offer_reset(&mut self, offered: &[MemRequest]) {
        assert!(
            offered.windows(2).all(|w| w[0].id < w[1].id),
            "offered ids must strictly increase along the ready list"
        );
        self.buckets.iter_mut().for_each(VecDeque::clear);
        // The set is id-sorted (age order), so appending keeps every
        // bucket sorted without a per-element search.
        for &r in offered {
            self.buckets[self.mapper.bank_of(r.addr) as usize].push_back(r);
        }
    }

    fn tick(&mut self) {
        self.stats.record_tick();
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

    // The buckets are derived from the driver's offered set, so the
    // statistics are the only persistent state.
    fn save_state(&self, w: &mut StateWriter) {
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        // The offered mirror is derived state: the driver re-seeds it via
        // `offer_reset` once the load/store queue has been restored.
        self.buckets.iter_mut().for_each(VecDeque::clear);
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
    #[should_panic(expected = "ids must strictly increase")]
    fn ready_ids_out_of_age_order_are_rejected() {
        // Position says 9 is older, ids say 3 is: the bucket round keys
        // age on ids, so a list whose ids disagree with its order is
        // refused instead of being arbitrated by the wrong age.
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![
            MemRequest::load(9, 0x40), // bank 0, first in the list
            MemRequest::load(3, 0x00), // bank 0, smaller id
        ];
        m.arbitrate(&ready);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn round_over_a_list_the_mirror_was_not_fed_is_rejected() {
        let mut m = BankedPorts::new(2, 32);
        m.offer_insert(MemRequest::load(0, 0x00));
        let mut granted = Vec::new();
        m.arbitrate_into(
            &[MemRequest::load(0, 0x00), MemRequest::load(1, 0x20)],
            &mut granted,
        );
    }

    #[test]
    #[should_panic(expected = "not in the ready list")]
    fn mirror_front_missing_from_the_list_is_rejected() {
        let mut m = BankedPorts::new(2, 32);
        m.offer_insert(MemRequest::load(4, 0x00));
        let mut granted = Vec::new();
        m.arbitrate_into(&[MemRequest::load(5, 0x00)], &mut granted);
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

    /// One round over `ready` through the delta-fed mirror, as the
    /// simulator drives it (no re-seed), returning the granted ids.
    fn round(m: &mut BankedPorts, ready: &[MemRequest]) -> Vec<u64> {
        let mut granted = Vec::new();
        m.arbitrate_into(ready, &mut granted);
        granted.iter().map(|&i| ready[i].id).collect()
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
    fn remove_promotes_next_oldest() {
        let ready = vec![
            MemRequest::load(0, 0x00), // bank 0
            MemRequest::load(1, 0x80), // bank 0, younger
        ];
        let mut m = BankedPorts::new(4, 32);
        for &r in &ready {
            m.offer_insert(r);
        }
        assert_eq!(round(&mut m, &ready), vec![0]);
        m.offer_remove(ready[0]);
        assert_eq!(round(&mut m, &ready[1..]), vec![1]);
    }

    #[test]
    fn out_of_order_insert_keeps_buckets_age_sorted() {
        // A late wakeup of an older reference lands ahead of a younger
        // same-bank one and wins the bank.
        let old = MemRequest::load(2, 0x00);
        let young = MemRequest::load(5, 0x80);
        let mut m = BankedPorts::new(4, 32);
        m.offer_insert(young);
        m.offer_insert(old);
        assert_eq!(round(&mut m, &[old, young]), vec![2]);
        m.offer_remove(young); // mid-bucket removal (e.g. a squash)
        assert_eq!(round(&mut m, &[old]), vec![2]);
    }

    #[test]
    fn reset_rebuilds_mirror() {
        let ready = vec![
            MemRequest::load(4, 0x00),
            MemRequest::load(7, 0x20),
            MemRequest::load(9, 0x40),
        ];
        let mut m = BankedPorts::new(2, 32);
        // Stale mirror from an earlier epoch; reset must replace it.
        m.offer_insert(MemRequest::load(1, 0x60));
        m.offer_reset(&ready);
        assert_eq!(round(&mut m, &ready), vec![4, 7]);
    }
}
