//! The load/store queue: memory ordering, forwarding, and the per-cycle
//! ready list.
//!
//! The classification is *event-driven*: instead of rescanning every
//! entry every cycle (O(occupancy) per cycle — the old hot-loop cost),
//! each entry's readiness is updated when one of its gating conditions
//! changes. Every gate is monotone for a given entry — an address, once
//! known, stays known; prior stores resolve and never un-resolve; a
//! blocking store only leaves the queue once — so each entry makes O(1)
//! classification transitions over its lifetime, and the per-cycle cost
//! of a round ([`begin_round`](Lsq::begin_round)) is the transitions that
//! actually happened, and the ready list is borrowed in place
//! ([`ready`](Lsq::ready)). Simulation time scales with work, not with
//! queue occupancy.

use std::collections::VecDeque;

use hbdc_core::MemRequest;
use hbdc_mem::FibHashMap;
use hbdc_snap::{SnapError, StateReader, StateWriter};

/// Why loads failed to join a cycle's ready list (diagnostic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStalls {
    /// Load's own address not yet computed.
    pub addr_unknown: u64,
    /// Some older store's address is still unknown.
    pub prior_store_addr: u64,
    /// Older store overlaps (partially, or data pending): must wait.
    pub store_overlap: u64,
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    seq: u64,
    addr: u64,
    width: u64,
    is_store: bool,
    addr_known: bool,
    /// Stores: the value to be written is available (loads: always true).
    data_known: bool,
    issued: bool,
    /// Loads: sequence number of the youngest older store whose bytes
    /// overlap this load (`NOT_MEM` if none). Addresses are oracle values
    /// fixed at dispatch and older stores retire strictly before this
    /// entry, so the decider never changes while it is in the queue.
    dep_store: u64,
    /// Loads: whether `dep_store` covers this load exactly (same address,
    /// width fits), i.e. forwarding applies once the store's data is
    /// available; otherwise the overlap is partial and the load waits for
    /// the store to leave the queue.
    exact_fit: bool,
}

/// Sentinel in `Lsq::pos_map` for sequence numbers that never entered the
/// queue (non-memory instructions).
const NOT_MEM: u64 = u64::MAX;

/// Granularity of the store-overlap index: live stores are bucketed by
/// the 8-byte blocks they touch, so a dispatching load finds its youngest
/// overlapping store with one or two bucket probes instead of a backward
/// scan over the whole queue. Accesses are at most 8 bytes wide, so a
/// reference touches at most two blocks.
const BLOCK_SHIFT: u32 = 3;

/// Stale-prefix length at which the ready list reclaims front-popped
/// slots. Large enough that the (live-region) shift amortizes to well
/// under one element copy per removal, small enough that the dead
/// prefix never dominates the list's footprint.
const READY_COMPACT: usize = 512;

/// The (first, optional second) index blocks a byte range touches.
fn blocks_of(addr: u64, width: u64) -> (u64, Option<u64>) {
    let a = addr >> BLOCK_SHIFT;
    let b = (addr + width.max(1) - 1) >> BLOCK_SHIFT;
    (a, (b != a).then_some(b))
}

/// The load/store queue (paper Table 1: 512 entries): an address reorder
/// buffer holding all in-flight memory instructions in program order.
///
/// Ordering rules implemented (paper §2.1):
/// * a load may execute only when **all prior store addresses are known**;
/// * a load whose address exactly matches an earlier store (and fits
///   within its width) **forwards** and never accesses the cache;
/// * a load that *partially* overlaps an earlier store waits until that
///   store leaves the queue (conservative, as in SimpleScalar);
/// * a load that exactly matches a store whose *data* is not yet
///   produced waits for that data;
/// * stores access the cache **at commit** — here, once every older
///   instruction has completed (`oldest_not_done` gate).
///
/// # Examples
///
/// ```
/// use hbdc_cpu::Lsq;
///
/// let mut lsq = Lsq::new(4);
/// lsq.dispatch(0, 0x100, 4, true);  // store
/// lsq.dispatch(1, 0x100, 4, false); // load, same address
/// lsq.mark_addr_known(0);
/// lsq.mark_data_known(0);
/// lsq.mark_addr_known(1);
/// lsq.begin_round(0); // nothing older is complete yet
/// let mut forwards = Vec::new();
/// lsq.take_forwards(&mut forwards);
/// assert_eq!(forwards, vec![1]);  // the load forwards
/// assert!(lsq.ready().is_empty()); // the store waits for commit
/// ```
#[derive(Debug, Clone)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    forwards: u64,
    stalls: LsqStalls,
    // O(1) seq → index: `pos_map[(seq - pos_base)]` holds the dispatch
    // ordinal of that sequence number (NOT_MEM for gaps); the entry's
    // current index in `entries` is `ordinal - retired`. Replaces a
    // per-call binary search on the hot mark_* paths.
    pos_base: u64,
    pos_map: VecDeque<u64>,
    dispatched: u64,
    retired: u64,

    // ----- Derived classification state (event-maintained; never
    // serialized — rebuilt from the entries on snapshot load). -----
    //
    // The persistent ready list, in age order (ids are sequence numbers,
    // so strictly increasing): exactly what `ready()` lends the
    // arbitration round, kept current by the mark_*/retire event
    // handlers.
    ready: Vec<MemRequest>,
    // First live index of `ready`: arbitration grants remove the oldest
    // references, so the common removal is a front pop — an O(1) head
    // bump instead of a memmove. The stale prefix `[0, ready_head)` is
    // reclaimed once it exceeds `READY_COMPACT`.
    ready_head: usize,
    // Loads that became forwardable since the last round; drained once
    // (the simulator services a reported forward in the same cycle).
    pending_forwards: Vec<u64>,
    // Stores whose address is still unknown, in age order (dispatch
    // appends, so the deque stays sorted). The front is the boundary:
    // loads younger than it are blocked on a prior store address.
    unknown_stores: VecDeque<u64>,
    // Stores with address and data known, awaiting the completion
    // frontier; age-sorted. `begin_round` drains the prefix that
    // the (monotone) frontier has passed into `ready`.
    eligible_stores: Vec<u64>,
    // Loads with known addresses blocked behind `unknown_stores.front()`,
    // age-sorted; a boundary advance drains the newly unblocked prefix.
    blocked_prior: Vec<u64>,
    // Loads blocked on their decider store, as (store seq, load seq)
    // pairs sorted by store: the store's data arrival forwards the
    // exact-fit waiters, its retirement releases the rest.
    dep_waiters: Vec<(u64, u64)>,
    // Current census of blocked (non-issued) loads by category — the
    // per-cycle stall increments, added in O(1) per collect.
    n_addr_unknown: u64,
    n_prior_store: u64,
    n_overlap: u64,
    // Live stores bucketed by touched 8-byte block, each bucket in age
    // order; buckets recycle through `block_pool` so the steady state
    // allocates nothing.
    block_stores: FibHashMap<Vec<u64>>,
    block_pool: Vec<Vec<u64>>,
    // Reusable scratch for event handlers that drain-and-reclassify.
    scratch: Vec<u64>,
}

impl Lsq {
    /// Creates an empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ needs at least one entry");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            forwards: 0,
            stalls: LsqStalls::default(),
            pos_base: 0,
            pos_map: VecDeque::new(),
            dispatched: 0,
            retired: 0,
            ready: Vec::new(),
            ready_head: 0,
            pending_forwards: Vec::new(),
            unknown_stores: VecDeque::new(),
            eligible_stores: Vec::new(),
            blocked_prior: Vec::new(),
            dep_waiters: Vec::new(),
            n_addr_unknown: 0,
            n_prior_store: 0,
            n_overlap: 0,
            block_stores: FibHashMap::default(),
            block_pool: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Whether another memory instruction can be dispatched.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total store-to-load forwards so far.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Cumulative per-cycle load-stall diagnostics.
    pub fn stalls(&self) -> LsqStalls {
        self.stalls
    }

    fn find(&self, seq: u64) -> usize {
        let ordinal = self
            .pos_map
            .get(seq.wrapping_sub(self.pos_base) as usize)
            .copied()
            .filter(|&o| o != NOT_MEM)
            .expect("seq not in LSQ");
        (ordinal - self.retired) as usize
    }

    fn block_index_add(&mut self, block: u64, seq: u64) {
        use std::collections::hash_map::Entry;
        match self.block_stores.entry(block) {
            Entry::Occupied(mut o) => o.get_mut().push(seq),
            Entry::Vacant(v) => {
                let mut bucket = self.block_pool.pop().unwrap_or_default();
                bucket.push(seq);
                v.insert(bucket);
            }
        }
    }

    fn block_index_remove(&mut self, block: u64, seq: u64) {
        use std::collections::hash_map::Entry;
        let Entry::Occupied(mut o) = self.block_stores.entry(block) else {
            debug_assert!(false, "store {seq} missing from block index");
            return;
        };
        let bucket = o.get_mut();
        match bucket.iter().position(|&s| s == seq) {
            // Stores retire oldest-first, so the hit is normally index 0.
            Some(p) => {
                bucket.remove(p);
            }
            None => debug_assert!(false, "store {seq} missing from bucket"),
        }
        if bucket.is_empty() {
            self.block_pool.push(o.remove());
        }
    }

    /// The youngest live store in `block`'s bucket whose bytes overlap
    /// `[addr, addr + width)`, or `NOT_MEM`.
    fn youngest_overlap(&self, block: u64, addr: u64, width: u64) -> u64 {
        let Some(bucket) = self.block_stores.get(&block) else {
            return NOT_MEM;
        };
        for &s_seq in bucket.iter().rev() {
            let s = &self.entries[self.find(s_seq)];
            if addr < s.addr + s.width && s.addr < addr + width {
                return s_seq;
            }
        }
        NOT_MEM
    }

    fn ready_insert(&mut self, c: MemRequest) {
        let h = self.ready_head;
        let k = self.ready[h..].partition_point(|r| r.id < c.id);
        debug_assert!(self.ready[h..].get(k).is_none_or(|r| r.id != c.id));
        if k == 0 && h > 0 {
            // Older than every live entry and a stale front slot is free:
            // reuse it instead of shifting the whole live region.
            self.ready_head = h - 1;
            self.ready[h - 1] = c;
        } else {
            self.ready.insert(h + k, c);
        }
    }

    fn ready_remove(&mut self, seq: u64) -> bool {
        let h = self.ready_head;
        let k = self.ready[h..].partition_point(|r| r.id < seq);
        if self.ready[h..].get(k).is_none_or(|r| r.id != seq) {
            return false;
        }
        if k == 0 {
            // Front pop: leave the slot stale and bump the head; the
            // prefix is reclaimed in bulk once it grows past
            // `READY_COMPACT`, keeping removal amortized O(1).
            self.ready_head = h + 1;
            if self.ready_head >= READY_COMPACT {
                self.ready.drain(..self.ready_head);
                self.ready_head = 0;
            }
        } else {
            self.ready.remove(h + k);
        }
        true
    }

    fn eligible_insert(&mut self, seq: u64) {
        let k = self.eligible_stores.partition_point(|&s| s < seq);
        self.eligible_stores.insert(k, seq);
    }

    /// Classifies a load whose address is known and whose prior store
    /// addresses are all resolved: forward, wait on the decider store, or
    /// join the ready list.
    fn dep_check(&mut self, load: u64) {
        let i = self.find(load);
        let (dep, exact, addr) = {
            let e = &self.entries[i];
            debug_assert!(!e.is_store && e.addr_known && !e.issued);
            (e.dep_store, e.exact_fit, e.addr)
        };
        if dep != NOT_MEM && dep >= self.pos_base {
            let s = &self.entries[self.find(dep)];
            if exact && s.data_known {
                self.pending_forwards.push(load);
            } else {
                let k = self.dep_waiters.partition_point(|&p| p < (dep, load));
                self.dep_waiters.insert(k, (dep, load));
                self.n_overlap += 1;
            }
        } else {
            self.ready_insert(MemRequest::load(load, addr));
        }
    }

    /// Appends a memory instruction in program order. The effective
    /// address is known functionally up front (oracle), but is not
    /// *architecturally* known until [`mark_addr_known`](Self::mark_addr_known).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not increasing.
    pub fn dispatch(&mut self, seq: u64, addr: u64, width: u64, is_store: bool) {
        assert!(self.has_space(), "dispatch into full LSQ");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "LSQ dispatch out of order");
        }
        if self.entries.is_empty() {
            self.pos_map.clear();
            self.pos_base = seq;
        }
        while self.pos_map.len() < (seq - self.pos_base) as usize {
            self.pos_map.push_back(NOT_MEM);
        }
        self.pos_map.push_back(self.dispatched);
        self.dispatched += 1;
        let mut dep_store = NOT_MEM;
        let mut exact_fit = false;
        let (a, b) = blocks_of(addr, width);
        if is_store {
            // Dispatch is in age order, so appends keep these sorted.
            self.unknown_stores.push_back(seq);
            self.block_index_add(a, seq);
            if let Some(b) = b {
                self.block_index_add(b, seq);
            }
        } else {
            // Youngest overlapping older store, via the block index; with
            // two touched blocks the younger of the two hits decides.
            dep_store = self.youngest_overlap(a, addr, width);
            if let Some(b) = b {
                let d2 = self.youngest_overlap(b, addr, width);
                if d2 != NOT_MEM && (dep_store == NOT_MEM || d2 > dep_store) {
                    dep_store = d2;
                }
            }
            if dep_store != NOT_MEM {
                let s = &self.entries[self.find(dep_store)];
                exact_fit = s.addr == addr && width <= s.width;
            }
            self.n_addr_unknown += 1; // loads dispatch with address unknown
        }
        self.entries.push_back(LsqEntry {
            seq,
            addr,
            width,
            is_store,
            addr_known: false,
            data_known: !is_store,
            issued: false,
            dep_store,
            exact_fit,
        });
    }

    /// Records that `seq`'s effective address has been computed.
    pub fn mark_addr_known(&mut self, seq: u64) {
        let i = self.find(seq);
        if self.entries[i].addr_known {
            return;
        }
        self.entries[i].addr_known = true;
        if self.entries[i].is_store {
            let eligible = self.entries[i].data_known && !self.entries[i].issued;
            let was_front = self.unknown_stores.front() == Some(&seq);
            if was_front {
                self.unknown_stores.pop_front();
            } else {
                let k = self.unknown_stores.partition_point(|&s| s < seq);
                debug_assert_eq!(self.unknown_stores.get(k), Some(&seq));
                self.unknown_stores.remove(k);
            }
            if eligible {
                self.eligible_insert(seq);
            }
            if was_front {
                // The prior-store boundary advanced: loads older than the
                // new boundary are no longer blocked on store addresses.
                let boundary = self.unknown_stores.front().copied().unwrap_or(u64::MAX);
                let k = self.blocked_prior.partition_point(|&l| l < boundary);
                if k > 0 {
                    self.n_prior_store -= k as u64;
                    let mut tmp = std::mem::take(&mut self.scratch);
                    tmp.extend(self.blocked_prior.drain(..k));
                    for &load in &tmp {
                        self.dep_check(load);
                    }
                    tmp.clear();
                    self.scratch = tmp;
                }
            }
        } else {
            self.n_addr_unknown -= 1;
            let boundary = self.unknown_stores.front().copied().unwrap_or(u64::MAX);
            if boundary < seq {
                let k = self.blocked_prior.partition_point(|&l| l < seq);
                self.blocked_prior.insert(k, seq);
                self.n_prior_store += 1;
            } else {
                self.dep_check(seq);
            }
        }
    }

    /// Records that a store's data operand has been produced.
    pub fn mark_data_known(&mut self, seq: u64) {
        let i = self.find(seq);
        debug_assert!(self.entries[i].is_store);
        if self.entries[i].data_known {
            return;
        }
        self.entries[i].data_known = true;
        if self.entries[i].addr_known && !self.entries[i].issued {
            self.eligible_insert(seq);
        }
        // Exact-fit waiters on this store can forward now; partial
        // overlaps keep waiting for it to leave the queue.
        let lo = self.dep_waiters.partition_point(|&(s, _)| s < seq);
        let mut hi = self.dep_waiters.partition_point(|&(s, _)| s <= seq);
        let mut k = lo;
        while k < hi {
            let (_, load) = self.dep_waiters[k];
            if self.entries[self.find(load)].exact_fit {
                self.dep_waiters.remove(k);
                hi -= 1;
                self.n_overlap -= 1;
                self.pending_forwards.push(load);
            } else {
                k += 1;
            }
        }
    }

    /// Records that `seq` has been granted its cache access.
    pub fn mark_issued(&mut self, seq: u64) {
        let i = self.find(seq);
        if self.entries[i].issued {
            return;
        }
        self.entries[i].issued = true;
        let removed = self.ready_remove(seq);
        debug_assert!(removed, "issued entry {seq} was not ready");
    }

    /// Records that a load was serviced by forwarding (also counts it).
    pub fn mark_forwarded(&mut self, seq: u64) {
        let i = self.find(seq);
        debug_assert!(!self.entries[i].is_store);
        self.entries[i].issued = true;
        self.forwards += 1;
        // Normally a no-op: a forwarded load was never cache-ready. Kept
        // for callers that force a forward on a ready load.
        self.ready_remove(seq);
    }

    /// Removes the front entry, which must be `seq` (called at commit).
    ///
    /// # Panics
    ///
    /// Panics if the front entry is not `seq`.
    pub fn retire(&mut self, seq: u64) {
        let front = self.entries.pop_front().expect("retire from empty LSQ");
        assert_eq!(front.seq, seq, "LSQ retire out of order");
        let covered = (seq - self.pos_base + 1) as usize;
        self.pos_map.drain(..covered);
        self.pos_base = seq + 1;
        self.retired += 1;
        if front.is_store {
            let (a, b) = blocks_of(front.addr, front.width);
            self.block_index_remove(a, seq);
            if let Some(b) = b {
                self.block_index_remove(b, seq);
            }
            if front.addr_known {
                // An unissued store may still sit in the eligibility or
                // ready queues (only possible when a caller retires it
                // without issuing — never on the committed path).
                if !front.issued && front.data_known {
                    let k = self.eligible_stores.partition_point(|&s| s < seq);
                    if self.eligible_stores.get(k) == Some(&seq) {
                        self.eligible_stores.remove(k);
                    } else {
                        self.ready_remove(seq);
                    }
                }
            } else {
                // The oldest store: if its address never resolved it is
                // the unknown-address front, and its departure advances
                // the prior-store boundary.
                debug_assert_eq!(self.unknown_stores.front(), Some(&seq));
                self.unknown_stores.pop_front();
                let boundary = self.unknown_stores.front().copied().unwrap_or(u64::MAX);
                let k = self.blocked_prior.partition_point(|&l| l < boundary);
                if k > 0 {
                    self.n_prior_store -= k as u64;
                    let mut tmp = std::mem::take(&mut self.scratch);
                    tmp.extend(self.blocked_prior.drain(..k));
                    for &load in &tmp {
                        self.dep_check(load);
                    }
                    tmp.clear();
                    self.scratch = tmp;
                }
            }
            // Loads that waited for this store to leave the queue are
            // clear: their address is known, the boundary is past them,
            // and their decider is gone — straight to the ready list.
            let lo = self.dep_waiters.partition_point(|&(s, _)| s < seq);
            let hi = self.dep_waiters.partition_point(|&(s, _)| s <= seq);
            if lo < hi {
                self.n_overlap -= (hi - lo) as u64;
                let mut tmp = std::mem::take(&mut self.scratch);
                tmp.extend(self.dep_waiters.drain(lo..hi).map(|(_, l)| l));
                for &load in &tmp {
                    let addr = self.entries[self.find(load)].addr;
                    self.ready_insert(MemRequest::load(load, addr));
                }
                tmp.clear();
                self.scratch = tmp;
            }
        } else if !front.issued {
            // An unserviced load leaves whichever category held it (only
            // possible when a caller retires it without issuing).
            if !front.addr_known {
                self.n_addr_unknown -= 1;
            } else {
                let k = self.blocked_prior.partition_point(|&l| l < seq);
                if self.blocked_prior.get(k) == Some(&seq) {
                    self.blocked_prior.remove(k);
                    self.n_prior_store -= 1;
                } else if let Some(p) = self
                    .dep_waiters
                    .iter()
                    .position(|&w| w == (front.dep_store, seq))
                {
                    self.dep_waiters.remove(p);
                    self.n_overlap -= 1;
                } else if let Some(p) = self.pending_forwards.iter().position(|&l| l == seq) {
                    self.pending_forwards.remove(p);
                } else {
                    self.ready_remove(seq);
                }
            }
        }
    }

    /// Opens this cycle's round: promotes stores the completion frontier
    /// has newly passed into the ready list and accrues this cycle's
    /// stall counters from the maintained blocked-load census. O(newly
    /// eligible stores), not O(occupancy). The round's sets are then
    /// [`ready`](Self::ready) and [`take_forwards`](Self::take_forwards).
    ///
    /// `oldest_not_done` is the RUU's completion frontier: stores older
    /// than it (i.e. with every older instruction complete) may perform
    /// their commit-time cache access. The frontier must be monotone
    /// across calls (it is: the RUU's Done prefix only grows).
    pub fn begin_round(&mut self, oldest_not_done: u64) {
        let k = self
            .eligible_stores
            .partition_point(|&s| s < oldest_not_done);
        if k > 0 {
            let mut tmp = std::mem::take(&mut self.scratch);
            tmp.extend(self.eligible_stores.drain(..k));
            for &s in &tmp {
                let addr = self.entries[self.find(s)].addr;
                self.ready_insert(MemRequest::store(s, addr));
            }
            tmp.clear();
            self.scratch = tmp;
        }
        self.stalls.addr_unknown += self.n_addr_unknown;
        self.stalls.prior_store_addr += self.n_prior_store;
        self.stalls.store_overlap += self.n_overlap;
    }

    /// This round's cache-ready references, borrowed in place, oldest
    /// first — the whole of what the port model's round reads. Ids are
    /// LSQ sequence numbers, the keys the `mark_*` calls take. Valid
    /// until the next `mark_*` or [`retire`](Self::retire) call mutates
    /// the ready list. Call after [`begin_round`](Self::begin_round).
    pub fn ready(&self) -> &[MemRequest] {
        &self.ready[self.ready_head..]
    }

    /// Moves this round's newly-forwardable loads into `out` (cleared
    /// first, age-sorted), emptying the pending set. Call after
    /// [`begin_round`](Self::begin_round).
    pub fn take_forwards(&mut self, out: &mut Vec<u64>) {
        self.pending_forwards.sort_unstable();
        out.clear();
        std::mem::swap(&mut self.pending_forwards, out);
    }

    /// Re-checks one ready-list round against the queue's ordering and
    /// forwarding rules, appending any violations to `out`.
    ///
    /// `ready` and `forwards` are the round's sets as handed to the
    /// simulator ([`ready`](Self::ready) and
    /// [`take_forwards`](Self::take_forwards) after
    /// [`begin_round`](Self::begin_round) with the same `oldest_not_done`
    /// frontier). A pure observer: it recomputes legality independently
    /// of the classification events. Checks:
    ///
    /// * queue entries are in strict age order (`lsq-age-order`);
    /// * the cache-ready list is in strict age order (`lsq-ready-order`);
    /// * every ready store has all operands, was not already issued, and
    ///   sits behind the completion frontier (`lsq-store-early`);
    /// * every forward names a load whose decider store is present with
    ///   its data produced and an exact address fit (`lsq-forward-illegal`).
    pub fn audit_round(
        &self,
        oldest_not_done: u64,
        ready: &[MemRequest],
        forwards: &[u64],
        out: &mut Vec<hbdc_core::Violation>,
    ) {
        use hbdc_core::Violation;
        for w in self
            .entries
            .iter()
            .zip(self.entries.iter().skip(1))
            .filter(|(a, b)| a.seq >= b.seq)
        {
            out.push(Violation::new(
                "lsq-age-order",
                format!(
                    "queue entries out of age order: {} then {}",
                    w.0.seq, w.1.seq
                ),
            ));
        }
        for w in ready.windows(2).filter(|w| w[0].id >= w[1].id) {
            out.push(Violation::new(
                "lsq-ready-order",
                format!("ready list out of age order: {} then {}", w[0].id, w[1].id),
            ));
        }
        for c in ready.iter().filter(|c| c.is_store) {
            let legal = c.id < oldest_not_done
                && self
                    .entry(c.id)
                    .is_some_and(|e| e.addr_known && e.data_known && !e.issued);
            if !legal {
                out.push(Violation::new(
                    "lsq-store-early",
                    format!(
                        "store {} offered to the cache before commit eligibility \
                         (frontier {oldest_not_done})",
                        c.id
                    ),
                ));
            }
        }
        for &seq in forwards {
            let legal = self.entry(seq).is_some_and(|load| {
                !load.is_store
                    && load.exact_fit
                    && self
                        .entry(load.dep_store)
                        .is_some_and(|s| s.is_store && s.seq < seq && s.data_known)
            });
            if !legal {
                out.push(Violation::new(
                    "lsq-forward-illegal",
                    format!("load {seq} forwarded without a covering older store"),
                ));
            }
        }
    }

    /// Looks up `seq` without panicking (diagnostics and auditing).
    fn entry(&self, seq: u64) -> Option<&LsqEntry> {
        let ordinal = self
            .pos_map
            .get(seq.wrapping_sub(self.pos_base) as usize)
            .copied()
            .filter(|&o| o != NOT_MEM)?;
        self.entries.get((ordinal - self.retired) as usize)
    }

    /// Serializes the queue: every entry with its full ordering state,
    /// the forward/stall counters, and the seq→index position map. The
    /// event-maintained classification structures are derived state and
    /// are rebuilt on load, so the byte format is unchanged from the
    /// scan-based implementation.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_u64(e.seq);
            w.put_u64(e.addr);
            w.put_u64(e.width);
            w.put_bool(e.is_store);
            w.put_bool(e.addr_known);
            w.put_bool(e.data_known);
            w.put_bool(e.issued);
            w.put_u64(e.dep_store);
            w.put_bool(e.exact_fit);
        }
        w.put_u64(self.forwards);
        w.put_u64(self.stalls.addr_unknown);
        w.put_u64(self.stalls.prior_store_addr);
        w.put_u64(self.stalls.store_overlap);
        w.put_u64(self.pos_base);
        w.put_usize(self.pos_map.len());
        for &o in &self.pos_map {
            w.put_u64(o);
        }
        w.put_u64(self.dispatched);
        w.put_u64(self.retired);
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// queue of the same capacity, rebuilding the derived classification
    /// structures from the restored entries.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Corrupt`] if the stream holds more entries
    /// than this queue's capacity.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "LSQ snapshot holds {n} entries but capacity is {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            self.entries.push_back(LsqEntry {
                seq: r.get_u64()?,
                addr: r.get_u64()?,
                width: r.get_u64()?,
                is_store: r.get_bool()?,
                addr_known: r.get_bool()?,
                data_known: r.get_bool()?,
                issued: r.get_bool()?,
                dep_store: r.get_u64()?,
                exact_fit: r.get_bool()?,
            });
        }
        self.forwards = r.get_u64()?;
        self.stalls.addr_unknown = r.get_u64()?;
        self.stalls.prior_store_addr = r.get_u64()?;
        self.stalls.store_overlap = r.get_u64()?;
        self.pos_base = r.get_u64()?;
        let map_len = r.get_usize()?;
        self.pos_map.clear();
        for _ in 0..map_len {
            self.pos_map.push_back(r.get_u64()?);
        }
        self.dispatched = r.get_u64()?;
        self.retired = r.get_u64()?;
        self.rebuild_derived();
        Ok(())
    }

    /// Recomputes every derived classification structure from the entry
    /// list — one pass of exactly the old per-cycle scan's logic, run
    /// once per snapshot load instead of once per cycle.
    fn rebuild_derived(&mut self) {
        self.ready.clear();
        self.ready_head = 0;
        self.pending_forwards.clear();
        self.unknown_stores.clear();
        self.eligible_stores.clear();
        self.blocked_prior.clear();
        self.dep_waiters.clear();
        self.n_addr_unknown = 0;
        self.n_prior_store = 0;
        self.n_overlap = 0;
        for (_, mut bucket) in self.block_stores.drain() {
            bucket.clear();
            self.block_pool.push(bucket);
        }
        let mut prior_known = true;
        for idx in 0..self.entries.len() {
            let e = self.entries[idx];
            if e.is_store {
                let (a, b) = blocks_of(e.addr, e.width);
                self.block_index_add(a, e.seq);
                if let Some(b) = b {
                    self.block_index_add(b, e.seq);
                }
                if !e.addr_known {
                    self.unknown_stores.push_back(e.seq);
                }
                if e.addr_known && e.data_known && !e.issued {
                    self.eligible_stores.push(e.seq);
                }
                prior_known &= e.addr_known;
                continue;
            }
            if e.issued {
                continue;
            }
            if !e.addr_known {
                self.n_addr_unknown += 1;
            } else if !prior_known {
                self.blocked_prior.push(e.seq);
                self.n_prior_store += 1;
            } else if e.dep_store != NOT_MEM && e.dep_store >= self.pos_base {
                let s = self.entries[self.find(e.dep_store)];
                if e.exact_fit && s.data_known {
                    // Cannot persist at a cycle boundary in a live run
                    // (the same cycle's collect would have drained it),
                    // but reproduce the scan's classification regardless.
                    self.pending_forwards.push(e.seq);
                } else {
                    self.dep_waiters.push((e.dep_store, e.seq));
                    self.n_overlap += 1;
                }
            } else {
                // Entry order is age order, so direct pushes keep the
                // ready list sorted.
                self.ready.push(MemRequest::load(e.seq, e.addr));
            }
        }
        // Entry order gave load-sorted pairs; waiter events need
        // store-sorted.
        self.dep_waiters.sort_unstable();
    }

    /// One-line occupancy snapshot for watchdog diagnostic dumps.
    pub fn dump(&self) -> String {
        let (mut addr_pending, mut data_pending, mut issued) = (0usize, 0usize, 0usize);
        for e in &self.entries {
            addr_pending += usize::from(!e.addr_known);
            data_pending += usize::from(!e.data_known);
            issued += usize::from(e.issued);
        }
        format!(
            "LSQ {}/{} (head seq {:?}, tail seq {:?}; {} awaiting address, \
             {} awaiting data, {} issued)",
            self.entries.len(),
            self.capacity,
            self.entries.front().map(|e| e.seq),
            self.entries.back().map(|e| e.seq),
            addr_pending,
            data_pending,
            issued,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round's ready sets, copied out of the queue.
    struct ReadyRefs {
        cache: Vec<MemRequest>,
        forwards: Vec<u64>,
    }

    impl Lsq {
        /// Opens a round and copies its ready sets.
        fn collect_ready(&mut self, oldest_not_done: u64) -> ReadyRefs {
            self.begin_round(oldest_not_done);
            let mut forwards = Vec::new();
            self.take_forwards(&mut forwards);
            ReadyRefs {
                cache: self.ready().to_vec(),
                forwards,
            }
        }
    }

    #[test]
    fn load_waits_for_prior_store_address() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x200, 4, false);
        lsq.mark_addr_known(1); // load address known, store's is not
        let r = lsq.collect_ready(u64::MAX);
        assert!(r.cache.iter().all(|c| c.id != 1));
        lsq.mark_addr_known(0);
        let r = lsq.collect_ready(u64::MAX);
        assert!(r.cache.iter().any(|c| c.id == 1 && !c.is_store));
    }

    #[test]
    fn exact_match_forwards() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 8, true);
        lsq.dispatch(1, 0x100, 4, false); // narrower load within store
        lsq.mark_addr_known(0);
        lsq.mark_data_known(0);
        lsq.mark_addr_known(1);
        let r = lsq.collect_ready(0);
        assert_eq!(r.forwards, vec![1]);
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x102, 4, false); // straddles the store's end
        lsq.mark_addr_known(0);
        lsq.mark_addr_known(1);
        let r = lsq.collect_ready(0);
        assert!(r.forwards.is_empty());
        assert!(r.cache.iter().all(|c| c.id != 1));
    }

    #[test]
    fn youngest_overlapping_store_wins() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true); // older store, exact match
        lsq.dispatch(1, 0x102, 4, true); // younger store, partial overlap
        lsq.dispatch(2, 0x100, 4, false);
        for s in 0..3 {
            lsq.mark_addr_known(s);
        }
        // The *younger* store partially overlaps → the load is blocked
        // even though an older store matches exactly.
        let r = lsq.collect_ready(0);
        assert!(r.forwards.is_empty());
        assert!(r.cache.iter().all(|c| c.id != 2));
    }

    #[test]
    fn non_overlapping_store_does_not_interfere() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x180, 4, false);
        lsq.mark_addr_known(0);
        lsq.mark_addr_known(1);
        let r = lsq.collect_ready(0);
        assert!(r.cache.iter().any(|c| c.id == 1));
    }

    #[test]
    fn store_gated_by_completion_frontier() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(5, 0x100, 4, true);
        lsq.mark_addr_known(5);
        lsq.mark_data_known(5);
        assert!(lsq.collect_ready(3).cache.is_empty()); // older work pending
        assert!(lsq.collect_ready(5).cache.is_empty()); // the store itself is the frontier
        let r = lsq.collect_ready(6);
        assert_eq!(r.cache, vec![MemRequest::store(5, 0x100)]);
    }

    #[test]
    fn issued_entries_drop_out() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, false);
        lsq.mark_addr_known(0);
        lsq.mark_issued(0);
        assert!(lsq.collect_ready(u64::MAX).cache.is_empty());
    }

    #[test]
    fn forward_counter_increments() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, false);
        lsq.mark_addr_known(0);
        lsq.mark_forwarded(0);
        assert_eq!(lsq.forwards(), 1);
        // A forced forward on a cache-ready load also leaves the ready list.
        assert!(lsq.collect_ready(0).cache.is_empty());
    }

    #[test]
    fn retire_pops_in_order() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, false);
        lsq.dispatch(3, 0x200, 4, true);
        lsq.retire(0);
        assert_eq!(lsq.len(), 1);
        lsq.retire(3);
        assert!(lsq.is_empty());
    }

    #[test]
    #[should_panic(expected = "retire out of order")]
    fn out_of_order_retire_panics() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, false);
        lsq.dispatch(1, 0x200, 4, false);
        lsq.retire(1);
    }

    #[test]
    #[should_panic(expected = "full LSQ")]
    fn overflow_panics() {
        let mut lsq = Lsq::new(1);
        lsq.dispatch(0, 0, 4, false);
        lsq.dispatch(1, 8, 4, false);
    }

    #[test]
    fn forward_waits_for_store_data() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x100, 4, false);
        lsq.mark_addr_known(0); // address known, data still pending
        lsq.mark_addr_known(1);
        let r = lsq.collect_ready(0);
        assert!(r.forwards.is_empty());
        assert!(r.cache.iter().all(|c| c.id != 1));
        lsq.mark_data_known(0);
        assert_eq!(lsq.collect_ready(0).forwards, vec![1]);
    }

    #[test]
    fn younger_load_passes_store_with_known_address() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x200, 4, false); // disjoint younger load
        lsq.mark_addr_known(0); // store data NOT yet known
        lsq.mark_addr_known(1);
        // The load may proceed: prior store *addresses* are known.
        let r = lsq.collect_ready(0);
        assert!(r.cache.iter().any(|c| c.id == 1));
    }

    #[test]
    fn ready_list_is_age_ordered() {
        let mut lsq = Lsq::new(8);
        for s in 0..4u64 {
            lsq.dispatch(s, 0x1000 + s * 64, 4, false);
            lsq.mark_addr_known(s);
        }
        let r = lsq.collect_ready(u64::MAX);
        let seqs: Vec<u64> = r.cache.iter().map(|c| c.id).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn boundary_advance_reclassifies_blocked_loads() {
        // Three loads blocked behind two unknown-address stores; resolving
        // the stores out of order releases exactly the right loads: one
        // forwards, one waits on the second store, one goes straight to
        // the cache list.
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true); // store A
        lsq.dispatch(1, 0x200, 4, true); // store B
        lsq.dispatch(2, 0x100, 4, false); // exact match on A → forwards
        lsq.dispatch(3, 0x202, 4, false); // partial overlap on B → waits
        lsq.dispatch(4, 0x300, 4, false); // disjoint → cache
        for s in 2..5 {
            lsq.mark_addr_known(s);
        }
        // All three loads are blocked on prior store addresses.
        let r = lsq.collect_ready(0);
        assert!(r.cache.is_empty() && r.forwards.is_empty());
        // Resolving the *younger* store first moves nothing (the boundary
        // is still the older store).
        lsq.mark_addr_known(1);
        let r = lsq.collect_ready(0);
        assert!(r.cache.is_empty() && r.forwards.is_empty());
        // Resolving the older store (with data) releases all three.
        lsq.mark_addr_known(0);
        lsq.mark_data_known(0);
        let r = lsq.collect_ready(0);
        assert_eq!(r.forwards, vec![2]);
        let seqs: Vec<u64> = r.cache.iter().map(|c| c.id).collect();
        assert_eq!(seqs, vec![4], "partial overlap still waits");
        // The partial-overlap load clears when its decider store retires.
        lsq.mark_forwarded(2);
        lsq.mark_data_known(1);
        lsq.mark_issued(4);
        lsq.retire(0);
        lsq.retire(1);
        let r = lsq.collect_ready(0);
        let seqs: Vec<u64> = r.cache.iter().map(|c| c.id).collect();
        assert_eq!(seqs, vec![3]);
    }

    #[test]
    fn stall_counters_accrue_per_collect() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true); // unknown-address store
        lsq.dispatch(1, 0x200, 4, false); // load, address unknown
        lsq.dispatch(2, 0x300, 4, false); // load, address known, blocked on store
        lsq.mark_addr_known(2);
        lsq.collect_ready(0);
        lsq.collect_ready(0);
        let s = lsq.stalls();
        assert_eq!(s.addr_unknown, 2, "load 1 counted each cycle");
        assert_eq!(s.prior_store_addr, 2, "load 2 counted each cycle");
        assert_eq!(s.store_overlap, 0);
    }

    #[test]
    fn audit_passes_clean_rounds() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x100, 4, false); // forwards from 0
        lsq.dispatch(2, 0x200, 4, false);
        for s in 0..3 {
            lsq.mark_addr_known(s);
        }
        lsq.mark_data_known(0);
        let r = lsq.collect_ready(5);
        let mut out = Vec::new();
        lsq.audit_round(5, &r.cache, &r.forwards, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn audit_flags_corrupted_ready_lists() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(1, 0x200, 4, false);
        lsq.mark_addr_known(0);
        lsq.mark_addr_known(1);
        // Fabricate an illegal round: the store offered ahead of the
        // frontier, the disjoint load reported as a forward, out of order.
        let cache = [MemRequest::load(1, 0x200), MemRequest::store(0, 0x100)];
        let mut out = Vec::new();
        lsq.audit_round(0, &cache, &[1], &mut out);
        let rules: Vec<&str> = out.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"lsq-ready-order"), "{rules:?}");
        assert!(rules.contains(&"lsq-store-early"), "{rules:?}");
        assert!(rules.contains(&"lsq-forward-illegal"), "{rules:?}");
    }

    #[test]
    fn state_roundtrip_rebuilds_classification() {
        // Build a queue with every category populated, snapshot it, and
        // check the restored queue classifies identically.
        let mut lsq = Lsq::new(16);
        lsq.dispatch(0, 0x100, 4, true); // eligible store (addr+data known)
        lsq.dispatch(1, 0x200, 4, true); // unknown-address store
        lsq.dispatch(2, 0x300, 4, false); // ready load... blocked by store 1
        lsq.dispatch(3, 0x400, 4, false); // address-unknown load
        lsq.mark_addr_known(0);
        lsq.mark_data_known(0);
        lsq.mark_addr_known(2);
        let mut w = StateWriter::new();
        lsq.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Lsq::new(16);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        let a = lsq.collect_ready(6);
        let b = restored.collect_ready(6);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.forwards, b.forwards);
        assert_eq!(lsq.stalls(), restored.stalls());
        // Events after the restore behave identically too.
        lsq.mark_addr_known(1);
        restored.mark_addr_known(1);
        let a = lsq.collect_ready(6);
        let b = restored.collect_ready(6);
        assert_eq!(a.cache, b.cache);
        assert_eq!(lsq.stalls(), restored.stalls());
    }

    /// Seeded random schedule of dispatches, out-of-order address
    /// resolutions, frontier advances, issues (mostly oldest-first, some
    /// mid-list) and in-order retirements, checking `ready()` against a
    /// `BTreeMap` reference after every round. Loads and stores use
    /// disjoint regions and stores resolve at dispatch, so a load is ready
    /// exactly from its address resolution to its issue and a store from
    /// the frontier passing it to its issue. The schedule is long enough
    /// to cross both ready-list fast paths: the stale-prefix compaction
    /// at `READY_COMPACT` front pops, and an insert older than every live
    /// entry reusing a stale front slot.
    #[test]
    fn ready_list_matches_reference_under_random_schedule() {
        use std::collections::BTreeMap;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut lsq = Lsq::new(256);
        let mut want: BTreeMap<u64, MemRequest> = BTreeMap::new();
        let mut in_queue: VecDeque<(u64, bool)> = VecDeque::new(); // (seq, issued)
        let mut unknown_loads: Vec<u64> = Vec::new();
        let mut waiting_stores: VecDeque<u64> = VecDeque::new();
        let (mut seq, mut frontier) = (0u64, 0u64);
        let (mut compactions, mut slot_reuses) = (0u32, 0u32);
        for _ in 0..6000 {
            for _ in 0..next(4) {
                if !lsq.has_space() {
                    break;
                }
                if next(5) == 0 {
                    lsq.dispatch(seq, 0x10_0000 + seq * 8, 8, true);
                    lsq.mark_addr_known(seq);
                    lsq.mark_data_known(seq);
                    waiting_stores.push_back(seq);
                } else {
                    lsq.dispatch(seq, seq * 8, 8, false);
                    unknown_loads.push(seq);
                }
                in_queue.push_back((seq, false));
                seq += 1;
            }
            for _ in 0..next(4) {
                if unknown_loads.is_empty() {
                    break;
                }
                // Half the time the oldest unresolved load, otherwise any.
                let pick = if next(2) == 0 {
                    0
                } else {
                    next(unknown_loads.len() as u64) as usize
                };
                let load = unknown_loads.remove(pick);
                let head = lsq.ready_head;
                lsq.mark_addr_known(load);
                slot_reuses += u32::from(head > 0 && lsq.ready_head == head - 1);
                want.insert(load, MemRequest::load(load, load * 8));
            }
            frontier = frontier.max(seq.saturating_sub(next(8)));
            while waiting_stores.front().is_some_and(|&s| s < frontier) {
                let s = waiting_stores.pop_front().unwrap();
                want.insert(s, MemRequest::store(s, 0x10_0000 + s * 8));
            }
            lsq.begin_round(frontier);
            let got = lsq.ready();
            assert!(
                got.windows(2).all(|w| w[0].id < w[1].id),
                "ids not increasing"
            );
            assert!(got.iter().eq(want.values()), "ready list diverged");
            for _ in 0..next(4) {
                let live = lsq.ready();
                if live.is_empty() {
                    break;
                }
                let k = if next(4) == 0 {
                    next(live.len() as u64) as usize
                } else {
                    0
                };
                let id = live[k].id;
                let head = lsq.ready_head;
                lsq.mark_issued(id);
                compactions += u32::from(head + 1 == READY_COMPACT && lsq.ready_head == 0);
                want.remove(&id);
                let pos = in_queue.partition_point(|&(s, _)| s < id);
                in_queue[pos].1 = true;
            }
            while let Some(&(s, true)) = in_queue.front() {
                lsq.retire(s);
                in_queue.pop_front();
            }
            assert!(lsq.ready().iter().eq(want.values()), "ready list diverged");
        }
        assert!(compactions > 0, "schedule never compacted the ready list");
        assert!(slot_reuses > 0, "schedule never reused a stale front slot");
    }

    #[test]
    fn dump_reports_occupancy() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(3, 0x100, 4, true);
        lsq.dispatch(4, 0x200, 4, false);
        lsq.mark_addr_known(4);
        let d = lsq.dump();
        assert!(d.contains("2/8"), "{d}");
        assert!(d.contains("1 awaiting address"), "{d}");
    }
}
