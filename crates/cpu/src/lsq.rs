//! The load/store queue: memory ordering, forwarding, and the per-cycle
//! ready list.
//!
//! The classification is *event-driven*, and every event costs O(1)
//! amortized. Each gate is monotone for a given entry — an address, once
//! known, stays known; prior stores resolve and never un-resolve; a
//! blocking store only leaves the queue once — so an entry makes O(1)
//! classification transitions over its lifetime, and each transition
//! touches O(1) state:
//!
//! * **Entries** live in a power-of-two ring indexed by `seq & mask`
//!   (sequence numbers count every instruction, so non-memory ones leave
//!   gap slots). A lookup is one mask; the ring doubles only when a
//!   dispatch would outrun it.
//! * **Classification sets** — stores with unknown addresses, loads
//!   blocked behind one, stores awaiting the completion frontier — are
//!   bitmaps over the ring, drained by cursors: the unknown-store
//!   boundary only moves forward, and [`begin_round`](Lsq::begin_round)
//!   scans eligible stores from a cursor that is lowered when a store
//!   becomes eligible behind it.
//! * **Waiting loads** hang off an intrusive list per decider store,
//!   walked once when its data arrives and once when it retires.
//! * **The store-overlap index** is a direct-mapped table of the
//!   youngest store per hashed 8-byte block, chained through per-store
//!   back links; a chain walk stops at the oldest live sequence number,
//!   so retirement unlinks nothing.
//! * **The ready list** is one age-sorted `Vec` lent to the port model
//!   in place ([`ready`](Lsq::ready)); an insert or removal shifts
//!   whichever side of it is shorter, the front side into a stale
//!   prefix, and a round's grants leave in one pass
//!   ([`issue_granted`](Lsq::issue_granted)).

use hbdc_core::MemRequest;
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
    // ----- Derived links (never serialized). -----
    /// The intrusive waiter list: a store's first waiting load, or a
    /// waiting load's next fellow waiter on the same store (`NOT_MEM`
    /// ends the list).
    waiters: u64,
    /// Stores: the next older store in the overlap-index chain of the
    /// first and of the second touched block's bucket.
    older: [u64; 2],
}

/// A ring slot no live entry occupies.
const VACANT: LsqEntry = LsqEntry {
    seq: NOT_MEM,
    addr: 0,
    width: 0,
    is_store: false,
    addr_known: false,
    data_known: false,
    issued: false,
    dep_store: NOT_MEM,
    exact_fit: false,
    waiters: NOT_MEM,
    older: [NOT_MEM; 2],
};

/// "No sequence number": position-map gaps (non-memory instructions),
/// empty decider, list and chain links, and no unknown-address store.
const NOT_MEM: u64 = u64::MAX;

/// Granularity of the store-overlap index: stores are chained by the
/// 8-byte blocks they touch, so a dispatching load finds its youngest
/// overlapping store by walking one or two chains instead of the whole
/// queue. Accesses are at most 8 bytes wide, so a reference touches at
/// most two blocks.
const BLOCK_SHIFT: u32 = 3;

/// Least stale-prefix length at which the ready list reclaims
/// front-shifted slots. Large enough that the reclaim amortizes to well
/// under one element copy per removal, small enough that the dead prefix
/// never dominates the list's footprint.
const READY_COMPACT: usize = 512;

/// The (first, optional second) index blocks a byte range touches.
fn blocks_of(addr: u64, width: u64) -> (u64, Option<u64>) {
    let a = addr >> BLOCK_SHIFT;
    let b = (addr + width.max(1) - 1) >> BLOCK_SHIFT;
    (a, (b != a).then_some(b))
}

/// One bit per ring slot.
#[derive(Debug, Clone)]
struct SlotBits(Vec<u64>);

impl SlotBits {
    fn new(slots: usize) -> Self {
        Self(vec![0; slots / 64])
    }

    fn get(&self, slot: usize) -> bool {
        self.0[slot >> 6] >> (slot & 63) & 1 != 0
    }

    fn set(&mut self, slot: usize) {
        self.0[slot >> 6] |= 1 << (slot & 63);
    }

    fn clear(&mut self, slot: usize) {
        self.0[slot >> 6] &= !(1 << (slot & 63));
    }

    /// The first sequence number in `from..to` whose slot bit is set, a
    /// word (64 slots) per step. `to - from` must not exceed the ring.
    fn next(&self, mask: u64, from: u64, to: u64) -> Option<u64> {
        let mut s = from;
        while s < to {
            let slot = s & mask;
            let word = self.0[(slot >> 6) as usize] >> (slot & 63);
            if word != 0 {
                let hit = s + u64::from(word.trailing_zeros());
                return (hit < to).then_some(hit);
            }
            s += 64 - (slot & 63);
        }
        None
    }
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
    // The entries, at `seq & mask`; `ring.len()` is a power of two
    // larger than the live sequence span `next_seq - base`.
    ring: Vec<LsqEntry>,
    mask: u64,
    capacity: usize,
    len: usize,
    forwards: u64,
    stalls: LsqStalls,
    // No live sequence number lies below `base` (the serialized
    // position map's base: the sequence number after the last retired
    // entry, or the first dispatched into an empty queue).
    base: u64,
    // One past the youngest dispatched sequence number.
    next_seq: u64,
    dispatched: u64,
    retired: u64,

    // ----- Derived classification state (event-maintained; never
    // serialized — rebuilt from the entries on snapshot load). -----
    //
    // Slots holding a live entry.
    live: SlotBits,
    // Stores whose address is still unknown. `boundary` is the oldest
    // (`NOT_MEM` if none): loads younger than it are blocked on a prior
    // store address. It only moves forward.
    unknown_stores: SlotBits,
    boundary: u64,
    // Loads with known addresses blocked behind `boundary`; a boundary
    // advance drains the newly passed range.
    blocked_loads: SlotBits,
    // Stores with address and data known, awaiting the completion
    // frontier. None lies below `eligible_from`; `begin_round` drains
    // the frontier's side of the cursor into `ready`.
    eligible_stores: SlotBits,
    eligible_from: u64,
    // The persistent ready list, in age order (ids are sequence numbers,
    // so strictly increasing): exactly what `ready()` lends the
    // arbitration round. `[0, ready_head)` is a stale prefix that
    // front-side shifts move into and out of.
    ready: Vec<MemRequest>,
    ready_head: usize,
    // Loads that became forwardable since the last round; drained once
    // (the simulator services a reported forward in the same cycle).
    pending_forwards: Vec<u64>,
    // Current census of blocked (non-issued) loads by category — the
    // per-cycle stall increments, added in O(1) per round.
    n_addr_unknown: u64,
    n_prior_store: u64,
    n_overlap: u64,
    // The store-overlap index: the youngest store per bucket of hashed
    // 8-byte blocks (`NOT_MEM` or a retired store if none is live).
    store_index: Vec<u64>,
    index_shift: u32,
}

impl Lsq {
    /// Creates an empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ needs at least one entry");
        let buckets = (2 * capacity).next_power_of_two().max(64);
        let mut lsq = Self {
            ring: Vec::new(),
            mask: 0,
            capacity,
            len: 0,
            forwards: 0,
            stalls: LsqStalls::default(),
            base: 0,
            next_seq: 0,
            dispatched: 0,
            retired: 0,
            live: SlotBits::new(0),
            unknown_stores: SlotBits::new(0),
            boundary: NOT_MEM,
            blocked_loads: SlotBits::new(0),
            eligible_stores: SlotBits::new(0),
            eligible_from: 0,
            ready: Vec::new(),
            ready_head: 0,
            pending_forwards: Vec::new(),
            n_addr_unknown: 0,
            n_prior_store: 0,
            n_overlap: 0,
            store_index: vec![NOT_MEM; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
        };
        lsq.reset_ring(capacity);
        lsq
    }

    /// Replaces the ring and its bitmaps with empty ones covering at
    /// least `span` sequence numbers.
    fn reset_ring(&mut self, span: usize) {
        let slots = span.next_power_of_two().max(64);
        self.ring.clear();
        self.ring.resize(slots, VACANT);
        self.mask = slots as u64 - 1;
        self.live = SlotBits::new(slots);
        self.unknown_stores = SlotBits::new(slots);
        self.blocked_loads = SlotBits::new(slots);
        self.eligible_stores = SlotBits::new(slots);
    }

    /// Whether another memory instruction can be dispatched.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total store-to-load forwards so far.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Cumulative per-cycle load-stall diagnostics.
    pub fn stalls(&self) -> LsqStalls {
        self.stalls
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The ring slot of live entry `seq`.
    fn find(&self, seq: u64) -> usize {
        let i = self.slot(seq);
        assert!(
            seq >= self.base && self.ring[i].seq == seq,
            "seq not in LSQ"
        );
        i
    }

    /// Looks up `seq` without panicking (diagnostics and auditing).
    fn entry(&self, seq: u64) -> Option<&LsqEntry> {
        let e = &self.ring[self.slot(seq)];
        (seq >= self.base && seq < self.next_seq && e.seq == seq).then_some(e)
    }

    /// The live sequence numbers, oldest first.
    fn live_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        let first = self.live.next(self.mask, self.base, self.next_seq);
        std::iter::successors(first, |&s| self.live.next(self.mask, s + 1, self.next_seq))
    }

    /// Regrows the ring to the power of two covering `span` sequence
    /// numbers, moving every live entry and its classification bits.
    fn grow(&mut self, span: u64) {
        let old = self.clone();
        self.reset_ring(span as usize);
        for s in old.live_seqs() {
            let (from, to) = (old.slot(s), self.slot(s));
            self.ring[to] = old.ring[from];
            for (src, dst) in [
                (&old.live, &mut self.live),
                (&old.unknown_stores, &mut self.unknown_stores),
                (&old.blocked_loads, &mut self.blocked_loads),
                (&old.eligible_stores, &mut self.eligible_stores),
            ] {
                if src.get(from) {
                    dst.set(to);
                }
            }
        }
    }

    fn bucket(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The youngest live store chained in `block`'s bucket whose bytes
    /// overlap `[addr, addr + width)`, or `NOT_MEM`. Chains run from
    /// young to old, so the walk ends at the first retired store.
    fn youngest_overlap(&self, block: u64, addr: u64, width: u64) -> u64 {
        let bucket = self.bucket(block);
        let mut s_seq = self.store_index[bucket];
        while s_seq != NOT_MEM && s_seq >= self.base {
            let s = &self.ring[self.slot(s_seq)];
            if addr < s.addr + s.width && s.addr < addr + width {
                return s_seq;
            }
            let first = self.bucket(s.addr >> BLOCK_SHIFT) == bucket;
            s_seq = s.older[usize::from(!first)];
        }
        NOT_MEM
    }

    /// Inserts `c` in age order, shifting the shorter side: the entries
    /// in front of it one slot into the stale prefix, or those behind it
    /// one slot back.
    fn ready_insert(&mut self, c: MemRequest) {
        let h = self.ready_head;
        let live = self.ready.len() - h;
        let k = self.ready[h..].partition_point(|r| r.id < c.id);
        debug_assert!(self.ready[h..].get(k).is_none_or(|r| r.id != c.id));
        if 2 * k < live {
            if h == 0 {
                // No stale slot left: open a gap as long as the list, so
                // the copy amortizes over that many front-side inserts.
                let gap = live.max(16);
                self.ready.resize(live + gap, c);
                self.ready.copy_within(0..live, gap);
                self.ready_head = gap;
            }
            let h = self.ready_head;
            self.ready.copy_within(h..h + k, h - 1);
            self.ready[h - 1 + k] = c;
            self.ready_head = h - 1;
        } else {
            self.ready.insert(h + k, c);
        }
    }

    /// Removes `seq` from the ready list, shifting the shorter side;
    /// whether it was there.
    fn ready_remove(&mut self, seq: u64) -> bool {
        let h = self.ready_head;
        let live = self.ready.len() - h;
        let k = self.ready[h..].partition_point(|r| r.id < seq);
        if self.ready[h..].get(k).is_none_or(|r| r.id != seq) {
            return false;
        }
        if 2 * k < live {
            self.ready.copy_within(h..h + k, h + 1);
            self.ready_head = h + 1;
            self.reclaim_stale_prefix();
        } else {
            self.ready.remove(h + k);
        }
        true
    }

    /// Drops the stale prefix once it outgrows both `READY_COMPACT` and
    /// twice the live list, so neither this copy nor the gap a front-side
    /// insert opens can recur before the other side has paid for it.
    fn reclaim_stale_prefix(&mut self) {
        let live = self.ready.len() - self.ready_head;
        if self.ready_head >= READY_COMPACT.max(2 * live) {
            self.ready.drain(..self.ready_head);
            self.ready_head = 0;
        }
    }

    fn make_eligible(&mut self, seq: u64) {
        self.eligible_stores.set(self.slot(seq));
        self.eligible_from = self.eligible_from.min(seq);
    }

    /// Classifies a load whose address is known and whose prior store
    /// addresses are all resolved: forward, wait on the decider store, or
    /// join the ready list.
    fn dep_check(&mut self, load: u64) {
        let i = self.slot(load);
        let (dep, exact, addr) = {
            let e = &self.ring[i];
            debug_assert!(!e.is_store && e.addr_known && !e.issued);
            (e.dep_store, e.exact_fit, e.addr)
        };
        if dep != NOT_MEM && dep >= self.base {
            let si = self.slot(dep);
            if exact && self.ring[si].data_known {
                self.pending_forwards.push(load);
            } else {
                self.ring[i].waiters = self.ring[si].waiters;
                self.ring[si].waiters = load;
                self.n_overlap += 1;
            }
        } else {
            self.ready_insert(MemRequest::load(load, addr));
        }
    }

    /// Moves the prior-store boundary past `old` (whose address just
    /// became known, or which retired) to the next unknown-address
    /// store, and reclassifies the blocked loads it passed.
    fn advance_boundary(&mut self, old: u64) {
        let end = self.next_seq;
        let next = self.unknown_stores.next(self.mask, old + 1, end);
        self.boundary = next.unwrap_or(NOT_MEM);
        let stop = next.unwrap_or(end);
        let mut from = old + 1;
        while let Some(load) = self.blocked_loads.next(self.mask, from, stop) {
            self.blocked_loads.clear(self.slot(load));
            self.n_prior_store -= 1;
            self.dep_check(load);
            from = load + 1;
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
        if self.len == 0 {
            if seq < self.next_seq {
                // Numbering restarted below retired entries, which the
                // ring and the index could mistake for live ones.
                self.ring.fill(VACANT);
                self.store_index.fill(NOT_MEM);
            }
            self.base = seq;
        } else {
            assert!(self.next_seq <= seq, "LSQ dispatch out of order");
        }
        if seq - self.base >= self.ring.len() as u64 {
            self.grow(seq - self.base + 1);
        }
        self.next_seq = seq + 1;
        self.len += 1;
        self.dispatched += 1;
        let mut e = LsqEntry {
            seq,
            addr,
            width,
            is_store,
            addr_known: false,
            data_known: !is_store,
            issued: false,
            ..VACANT
        };
        let (a, b) = blocks_of(addr, width);
        if is_store {
            self.unknown_stores.set(self.slot(seq));
            if self.boundary == NOT_MEM {
                self.boundary = seq;
            }
            let ba = self.bucket(a);
            e.older[0] = std::mem::replace(&mut self.store_index[ba], seq);
            if let Some(bb) = b.map(|b| self.bucket(b)).filter(|&bb| bb != ba) {
                e.older[1] = std::mem::replace(&mut self.store_index[bb], seq);
            }
        } else {
            // Youngest overlapping older store, via the index; with two
            // touched blocks the younger of the two hits decides.
            let mut dep = self.youngest_overlap(a, addr, width);
            if let Some(b) = b {
                let d2 = self.youngest_overlap(b, addr, width);
                if d2 != NOT_MEM && (dep == NOT_MEM || d2 > dep) {
                    dep = d2;
                }
            }
            if dep != NOT_MEM {
                let s = &self.ring[self.slot(dep)];
                e.exact_fit = s.addr == addr && width <= s.width;
            }
            e.dep_store = dep;
            self.n_addr_unknown += 1; // loads dispatch with address unknown
        }
        let i = self.slot(seq);
        self.ring[i] = e;
        self.live.set(i);
    }

    /// Records that `seq`'s effective address has been computed.
    pub fn mark_addr_known(&mut self, seq: u64) {
        let i = self.find(seq);
        if self.ring[i].addr_known {
            return;
        }
        self.ring[i].addr_known = true;
        if self.ring[i].is_store {
            self.unknown_stores.clear(i);
            if self.ring[i].data_known && !self.ring[i].issued {
                self.make_eligible(seq);
            }
            if self.boundary == seq {
                self.advance_boundary(seq);
            }
        } else {
            self.n_addr_unknown -= 1;
            if self.boundary < seq {
                self.blocked_loads.set(i);
                self.n_prior_store += 1;
            } else {
                self.dep_check(seq);
            }
        }
    }

    /// Records that a store's data operand has been produced.
    pub fn mark_data_known(&mut self, seq: u64) {
        let i = self.find(seq);
        debug_assert!(self.ring[i].is_store);
        if self.ring[i].data_known {
            return;
        }
        self.ring[i].data_known = true;
        if self.ring[i].addr_known && !self.ring[i].issued {
            self.make_eligible(seq);
        }
        // Exact-fit waiters on this store can forward now; partial
        // overlaps keep waiting for it to leave the queue.
        let mut load = std::mem::replace(&mut self.ring[i].waiters, NOT_MEM);
        let mut kept = NOT_MEM;
        while load != NOT_MEM {
            let li = self.slot(load);
            let next = self.ring[li].waiters;
            if self.ring[li].exact_fit {
                self.ring[li].waiters = NOT_MEM;
                self.n_overlap -= 1;
                self.pending_forwards.push(load);
            } else {
                self.ring[li].waiters = kept;
                kept = load;
            }
            load = next;
        }
        self.ring[i].waiters = kept;
    }

    /// Records that `seq` has been granted its cache access.
    pub fn mark_issued(&mut self, seq: u64) {
        let i = self.find(seq);
        if self.ring[i].issued {
            return;
        }
        self.ring[i].issued = true;
        let removed = self.ready_remove(seq);
        debug_assert!(removed, "issued entry {seq} was not ready");
    }

    /// Records that the references at `picks` — indices into this
    /// round's [`ready`](Self::ready) slice, in any order, a repeated
    /// index counted once — have been granted their cache accesses: the
    /// round's serviced grants, removed in one pass over the shorter
    /// side of the list. Equivalent to [`mark_issued`](Self::mark_issued)
    /// on each picked id. Sorts and dedups `picks`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of the ready slice's bounds.
    pub fn issue_granted(&mut self, picks: &mut Vec<usize>) {
        picks.sort_unstable();
        picks.dedup();
        let (Some(&first), Some(&last)) = (picks.first(), picks.last()) else {
            return;
        };
        let h = self.ready_head;
        let live = self.ready.len() - h;
        assert!(
            last < live,
            "grant index {last} outside a ready list of {live}"
        );
        for &p in picks.iter() {
            let i = self.slot(self.ready[h + p].id);
            self.ring[i].issued = true;
        }
        let m = picks.len();
        if last + 1 - m <= live - first - m {
            // Front side: the survivors before `last` move back into the
            // stale prefix, younger ones first.
            let mut next = picks.iter().rev().peekable();
            let mut dst = h + last + 1;
            for k in (0..=last).rev() {
                if next.next_if_eq(&&k).is_none() {
                    dst -= 1;
                    self.ready[dst] = self.ready[h + k];
                }
            }
            self.ready_head = h + m;
            self.reclaim_stale_prefix();
        } else {
            // Back side: the survivors after `first` move forward.
            let mut next = picks.iter().peekable();
            let mut dst = h + first;
            for k in first..live {
                if next.next_if_eq(&&k).is_none() {
                    self.ready[dst] = self.ready[h + k];
                    dst += 1;
                }
            }
            self.ready.truncate(dst);
        }
    }

    /// Records that a load was serviced by forwarding (also counts it).
    pub fn mark_forwarded(&mut self, seq: u64) {
        let i = self.find(seq);
        debug_assert!(!self.ring[i].is_store);
        self.ring[i].issued = true;
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
        let front = self.live.next(self.mask, self.base, self.next_seq);
        assert_eq!(
            front.expect("retire from empty LSQ"),
            seq,
            "LSQ retire out of order"
        );
        let i = self.slot(seq);
        let e = self.ring[i];
        self.live.clear(i);
        self.len -= 1;
        self.base = seq + 1;
        self.retired += 1;
        if e.is_store {
            if e.addr_known {
                // An unissued store may still sit in the eligibility set
                // or the ready list (only possible when a caller retires
                // it without issuing — never on the committed path).
                if !e.issued && e.data_known {
                    if self.eligible_stores.get(i) {
                        self.eligible_stores.clear(i);
                    } else {
                        self.ready_remove(seq);
                    }
                }
            } else {
                // The oldest store: if its address never resolved it is
                // the boundary, and its departure advances it.
                debug_assert_eq!(self.boundary, seq);
                self.unknown_stores.clear(i);
                self.advance_boundary(seq);
            }
            // Loads that waited for this store to leave the queue are
            // clear: their address is known, the boundary is past them,
            // and their decider is gone — straight to the ready list.
            let mut load = e.waiters;
            while load != NOT_MEM {
                let li = self.slot(load);
                let next = std::mem::replace(&mut self.ring[li].waiters, NOT_MEM);
                self.n_overlap -= 1;
                self.ready_insert(MemRequest::load(load, self.ring[li].addr));
                load = next;
            }
        } else if !e.issued {
            // An unserviced load leaves whichever category held it (only
            // possible when a caller retires it without issuing). It
            // cannot be waiting: its decider store would be older.
            if !e.addr_known {
                self.n_addr_unknown -= 1;
            } else if self.blocked_loads.get(i) {
                self.blocked_loads.clear(i);
                self.n_prior_store -= 1;
            } else if let Some(p) = self.pending_forwards.iter().position(|&l| l == seq) {
                self.pending_forwards.remove(p);
            } else {
                let removed = self.ready_remove(seq);
                debug_assert!(removed, "retired load {seq} was in no category");
            }
        }
    }

    /// Opens this cycle's round: promotes stores the completion frontier
    /// has newly passed into the ready list and accrues this cycle's
    /// stall counters from the maintained blocked-load census. The
    /// eligible-store scan runs from its cursor to the frontier, so its
    /// cost is the frontier's advance, not the occupancy. The round's
    /// sets are then [`ready`](Self::ready) and
    /// [`take_forwards`](Self::take_forwards).
    ///
    /// `oldest_not_done` is the RUU's completion frontier: stores older
    /// than it (i.e. with every older instruction complete) may perform
    /// their commit-time cache access.
    pub fn begin_round(&mut self, oldest_not_done: u64) {
        let end = oldest_not_done.min(self.next_seq);
        let mut from = self.eligible_from.max(self.base);
        while let Some(s) = self.eligible_stores.next(self.mask, from, end) {
            let i = self.slot(s);
            self.eligible_stores.clear(i);
            self.ready_insert(MemRequest::store(s, self.ring[i].addr));
            from = s + 1;
        }
        self.eligible_from = self.eligible_from.max(end);
        self.stalls.addr_unknown += self.n_addr_unknown;
        self.stalls.prior_store_addr += self.n_prior_store;
        self.stalls.store_overlap += self.n_overlap;
    }

    /// This round's cache-ready references, borrowed in place, oldest
    /// first — the whole of what the port model's round reads. Ids are
    /// LSQ sequence numbers, the keys the `mark_*` calls take. Valid
    /// until the next `mark_*`, [`issue_granted`](Self::issue_granted)
    /// or [`retire`](Self::retire) call mutates the ready list. Call
    /// after [`begin_round`](Self::begin_round).
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

    /// Serializes the queue: every entry with its full ordering state,
    /// the forward/stall counters, and the seq→dispatch-ordinal position
    /// map of the queue's earlier layout, regenerated from the ring. The
    /// event-maintained classification structures are derived state and
    /// are rebuilt on load, so the byte format is unchanged from the
    /// scan-based implementation.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.len);
        for s in self.live_seqs() {
            let e = &self.ring[self.slot(s)];
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
        // The map covers `base` through the youngest entry; each live
        // sequence number holds its dispatch ordinal, every gap NOT_MEM.
        w.put_u64(self.base);
        let span = if self.len == 0 {
            0
        } else {
            self.next_seq - self.base
        };
        w.put_u64(span);
        let mut ordinal = self.retired;
        for s in self.base..self.base + span {
            if self.entry(s).is_some() {
                w.put_u64(ordinal);
                ordinal += 1;
            } else {
                w.put_u64(NOT_MEM);
            }
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
    /// than this queue's capacity, entries out of age order, a position
    /// map or dispatch count that disagrees with the entries, or a load
    /// whose live decider is not an older store in the queue.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("LSQ snapshot {what}")));
        let n = r.get_usize()?;
        if n > self.capacity {
            return corrupt(format!(
                "holds {n} entries but capacity is {}",
                self.capacity
            ));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(LsqEntry {
                seq: r.get_u64()?,
                addr: r.get_u64()?,
                width: r.get_u64()?,
                is_store: r.get_bool()?,
                addr_known: r.get_bool()?,
                data_known: r.get_bool()?,
                issued: r.get_bool()?,
                dep_store: r.get_u64()?,
                exact_fit: r.get_bool()?,
                ..VACANT
            });
        }
        let forwards = r.get_u64()?;
        let stalls = LsqStalls {
            addr_unknown: r.get_u64()?,
            prior_store_addr: r.get_u64()?,
            store_overlap: r.get_u64()?,
        };
        let base = r.get_u64()?;
        let map_len = r.get_u64()?;
        if entries.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return corrupt("holds entries out of age order".to_string());
        }
        let span = match (entries.first(), entries.last()) {
            (Some(f), _) if f.seq < base => {
                return corrupt(format!("entry {} precedes its map base {base}", f.seq))
            }
            (_, Some(l)) => match (l.seq - base).checked_add(1) {
                Some(span) => span,
                None => return corrupt("spans every sequence number".to_string()),
            },
            _ => 0,
        };
        if map_len != span {
            return corrupt(format!(
                "position map covers {map_len} sequence numbers, the entries {span}"
            ));
        }
        let mut map = Vec::new();
        for _ in 0..map_len {
            map.push(r.get_u64()?);
        }
        let dispatched = r.get_u64()?;
        let retired = r.get_u64()?;
        if retired.checked_add(n as u64) != Some(dispatched) {
            return corrupt(format!(
                "counts {dispatched} dispatched and {retired} retired for {n} entries"
            ));
        }
        let mut k = 0;
        for (s, &ordinal) in (base..).zip(&map) {
            let want = match entries.get(k) {
                Some(e) if e.seq == s => {
                    k += 1;
                    retired + k as u64 - 1
                }
                _ => NOT_MEM,
            };
            if ordinal != want {
                return corrupt(format!(
                    "position map gives sequence number {s} ordinal {ordinal}, not {want}"
                ));
            }
        }
        for e in entries.iter().filter(|e| !e.is_store) {
            let dep = e.dep_store;
            let decider_ok = dep == NOT_MEM
                || dep < base
                || entries
                    .binary_search_by_key(&dep, |s| s.seq)
                    .is_ok_and(|j| entries[j].is_store && dep < e.seq);
            if !decider_ok {
                return corrupt(format!("load {} names {dep} as its decider store", e.seq));
            }
        }

        self.forwards = forwards;
        self.stalls = stalls;
        self.base = base;
        self.next_seq = entries.last().map_or(base, |e| e.seq + 1);
        self.len = n;
        self.dispatched = dispatched;
        self.retired = retired;
        self.rebuild_derived(&entries, span as usize);
        Ok(())
    }

    /// Places `entries` (age-ordered, spanning `span` sequence numbers)
    /// in a fresh ring and recomputes every derived classification
    /// structure from them — one pass of the §2.1 rules, run once per
    /// snapshot load.
    fn rebuild_derived(&mut self, entries: &[LsqEntry], span: usize) {
        self.reset_ring(span.max(self.capacity));
        self.store_index.fill(NOT_MEM);
        self.boundary = NOT_MEM;
        self.eligible_from = self.base;
        self.ready.clear();
        self.ready_head = 0;
        self.pending_forwards.clear();
        self.n_addr_unknown = 0;
        self.n_prior_store = 0;
        self.n_overlap = 0;
        for e in entries {
            let i = self.slot(e.seq);
            self.ring[i] = *e;
            self.live.set(i);
            if e.is_store {
                let (a, b) = blocks_of(e.addr, e.width);
                let ba = self.bucket(a);
                self.ring[i].older[0] = std::mem::replace(&mut self.store_index[ba], e.seq);
                if let Some(bb) = b.map(|b| self.bucket(b)).filter(|&bb| bb != ba) {
                    self.ring[i].older[1] = std::mem::replace(&mut self.store_index[bb], e.seq);
                }
                if !e.addr_known {
                    self.unknown_stores.set(i);
                    if self.boundary == NOT_MEM {
                        self.boundary = e.seq;
                    }
                } else if e.data_known && !e.issued {
                    self.eligible_stores.set(i);
                }
            } else if e.issued {
                continue;
            } else if !e.addr_known {
                self.n_addr_unknown += 1;
            } else if self.boundary < e.seq {
                self.blocked_loads.set(i);
                self.n_prior_store += 1;
            } else if e.dep_store != NOT_MEM && e.dep_store >= self.base {
                let si = self.slot(e.dep_store);
                if e.exact_fit && self.ring[si].data_known {
                    // Cannot persist at a cycle boundary in a live run
                    // (the same cycle's round would have drained it),
                    // but reproduce the classification regardless.
                    self.pending_forwards.push(e.seq);
                } else {
                    self.ring[i].waiters = self.ring[si].waiters;
                    self.ring[si].waiters = e.seq;
                    self.n_overlap += 1;
                }
            } else {
                // Entry order is age order, so direct pushes keep the
                // ready list sorted.
                self.ready.push(MemRequest::load(e.seq, e.addr));
            }
        }
    }

    /// One-line occupancy snapshot for watchdog diagnostic dumps.
    pub fn dump(&self) -> String {
        let (mut addr_pending, mut data_pending, mut issued) = (0usize, 0usize, 0usize);
        for s in self.live_seqs() {
            let e = &self.ring[self.slot(s)];
            addr_pending += usize::from(!e.addr_known);
            data_pending += usize::from(!e.data_known);
            issued += usize::from(e.issued);
        }
        format!(
            "LSQ {}/{} (head seq {:?}, tail seq {:?}; {} awaiting address, \
             {} awaiting data, {} issued)",
            self.len,
            self.capacity,
            self.live_seqs().next(),
            (self.len > 0).then(|| self.next_seq - 1),
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

    #[test]
    fn load_state_rejects_a_map_that_disagrees_with_the_entries() {
        let mut lsq = Lsq::new(8);
        lsq.dispatch(0, 0x100, 4, true);
        lsq.dispatch(3, 0x100, 4, false); // decides on store 0
        let mut w = StateWriter::new();
        lsq.save_state(&mut w);
        let bytes = w.into_bytes();
        assert!(Lsq::new(8)
            .load_state(&mut StateReader::new(&bytes))
            .is_ok());
        // Two 37-byte entries, the counters and the map base and length
        // precede the map; then one u64 per sequence number 0..=3, and the
        // dispatch and retire counts.
        let map = 8 + 2 * 37 + 4 * 8 + 8 + 8;
        let bad = |at: usize, v: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            Lsq::new(8).load_state(&mut StateReader::new(&b))
        };
        assert!(
            matches!(bad(map + 8, 1), Err(SnapError::Corrupt(_))),
            "gap given an ordinal"
        );
        assert!(
            matches!(bad(map + 24, 0), Err(SnapError::Corrupt(_))),
            "ordinal repeated"
        );
        assert!(
            matches!(bad(map + 32, 3), Err(SnapError::Corrupt(_))),
            "dispatch count"
        );
        assert!(
            matches!(bad(map - 8, 3), Err(SnapError::Corrupt(_))),
            "map length"
        );
        // A load whose decider is a live load, not a store.
        let dep = 8 + 37 + 3 * 8 + 4;
        assert!(matches!(bad(dep, 3), Err(SnapError::Corrupt(_))), "decider");
    }

    /// Seeded random schedule of dispatches, out-of-order address
    /// resolutions, frontier advances, issues (mostly oldest-first, some
    /// mid-list) and in-order retirements, checking `ready()` against a
    /// `BTreeMap` reference after every round. Loads and stores use
    /// disjoint regions and stores resolve at dispatch, so a load is ready
    /// exactly from its address resolution to its issue and a store from
    /// the frontier passing it to its issue. The schedule is long enough
    /// to cross both ready-list shift directions: the stale-prefix
    /// reclaim at `READY_COMPACT` front-side removals, and front-side
    /// inserts into the stale prefix.
    #[test]
    fn ready_list_matches_reference_under_random_schedule() {
        use std::collections::{BTreeMap, VecDeque};
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
        let (mut compactions, mut front_inserts) = (0u32, 0u32);
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
                front_inserts += u32::from(lsq.ready_head != head);
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
                compactions += u32::from(head + 1 >= READY_COMPACT && lsq.ready_head == 0);
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
        assert!(front_inserts > 0, "schedule never shifted the front side");
    }

    /// `issue_granted` leaves the queue exactly as per-id `mark_issued`
    /// calls do, for picks in any order, repeated (a duplicated grant)
    /// or beyond a model's peak, on either side of the list.
    #[test]
    fn issue_granted_matches_per_id_mark_issued() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut lsq = Lsq::new(64);
        let mut seq = 0;
        for _ in 0..400 {
            while lsq.has_space() && next(3) > 0 {
                lsq.dispatch(seq, 0x1000 + 8 * seq, 8, false);
                lsq.mark_addr_known(seq);
                seq += 1 + next(3);
            }
            lsq.begin_round(0);
            let live = lsq.ready().len() as u64;
            if live == 0 {
                continue;
            }
            let mut picks: Vec<usize> = (0..1 + next(6)).map(|_| next(live) as usize).collect();
            if next(2) == 0 {
                picks.push(picks[0]); // the duplicated grant
            }
            let ids: Vec<u64> = picks.iter().map(|&p| lsq.ready()[p].id).collect();
            let mut by_id = lsq.clone();
            for id in ids {
                by_id.mark_issued(id);
            }
            lsq.issue_granted(&mut picks);
            assert_eq!(lsq.ready(), by_id.ready());
            let (mut a, mut b) = (StateWriter::new(), StateWriter::new());
            lsq.save_state(&mut a);
            by_id.save_state(&mut b);
            assert_eq!(a.into_bytes(), b.into_bytes());
            while let Some(s) = (0..seq).find(|&s| lsq.entry(s).is_some()) {
                if !lsq.entry(s).unwrap().issued {
                    break;
                }
                lsq.retire(s);
            }
        }
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
