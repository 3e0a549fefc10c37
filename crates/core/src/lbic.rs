//! The Locality-Based Interleaved Cache (LBIC), paper §5.

use std::collections::VecDeque;

use hbdc_mem::BankMapper;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::{self, Violation};
use crate::model::PortModel;
use crate::request::{MemRequest, Offered};
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

/// One cache line's offered references within a bank, members id-sorted
/// (ids are LSQ sequence numbers, so id order is age order). A deque:
/// arrivals are the youngest member (push back) and grants take the
/// oldest members first (pop front), so maintenance is O(1) in the
/// common case.
#[derive(Debug)]
struct LineGroup {
    line: u64,
    members: VecDeque<MemRequest>,
}

/// Minimal open-addressing map from line address to a slot in the
/// mirror's dense group slab. Purpose-built for the mirror's churn:
/// FP-stencil backlogs create and destroy a (usually one-member) line
/// group on nearly every arrival and grant, so group lookup/insert/
/// remove must be O(1) with no memmove — a sorted array churns the
/// whole group list per event and a std `HashMap` pays SipHash plus
/// per-entry indirection on the hottest loop in the simulator.
///
/// Linear probing over a power-of-two table, Fibonacci-hashed keys,
/// tombstone deletion; rebuilt at 7/8 occupancy (live + tombstones).
/// Line addresses are `addr >> line_shift`, so the top two key values
/// can never occur and serve as the empty/tombstone sentinels.
#[derive(Debug)]
struct LineIndex {
    slots: Vec<(u64, u32)>, // (line key or sentinel, group slot)
    live: usize,
    tombs: usize,
}

const LINE_EMPTY: u64 = u64::MAX;
const LINE_TOMB: u64 = u64::MAX - 1;

impl Default for LineIndex {
    fn default() -> Self {
        Self {
            slots: vec![(LINE_EMPTY, 0); 16],
            live: 0,
            tombs: 0,
        }
    }
}

impl LineIndex {
    #[inline]
    fn hash(line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    fn get(&self, line: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(line) & mask;
        loop {
            let (key, slot) = self.slots[i];
            if key == line {
                return Some(slot);
            }
            if key == LINE_EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a line that is not present (the caller just missed `get`).
    fn insert(&mut self, line: u64, slot: u32) {
        if (self.live + self.tombs + 1) * 8 > self.slots.len() * 7 {
            self.rebuild();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(line) & mask;
        while self.slots[i].0 < LINE_TOMB {
            debug_assert_ne!(self.slots[i].0, line, "line {line} already indexed");
            i = (i + 1) & mask;
        }
        if self.slots[i].0 == LINE_TOMB {
            self.tombs -= 1;
        }
        self.slots[i] = (line, slot);
        self.live += 1;
    }

    /// Re-points an existing line at a new slab slot.
    fn set(&mut self, line: u64, slot: u32) {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(line) & mask;
        while self.slots[i].0 != line {
            debug_assert_ne!(self.slots[i].0, LINE_EMPTY, "line {line} not indexed");
            i = (i + 1) & mask;
        }
        self.slots[i].1 = slot;
    }

    fn remove(&mut self, line: u64) {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(line) & mask;
        while self.slots[i].0 != line {
            debug_assert_ne!(self.slots[i].0, LINE_EMPTY, "line {line} not indexed");
            i = (i + 1) & mask;
        }
        self.slots[i] = (LINE_TOMB, 0);
        self.live -= 1;
        self.tombs += 1;
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = (LINE_EMPTY, 0));
        self.live = 0;
        self.tombs = 0;
    }

    /// Doubles when the table is genuinely full of live entries,
    /// otherwise rehashes in place at the same capacity to shed
    /// tombstones.
    fn rebuild(&mut self) {
        let cap = if (self.live + 1) * 4 > self.slots.len() * 3 {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        let old = std::mem::replace(&mut self.slots, vec![(LINE_EMPTY, 0); cap]);
        self.tombs = 0;
        let mask = cap - 1;
        for (key, slot) in old {
            if key < LINE_TOMB {
                let mut i = Self::hash(key) & mask;
                while self.slots[i].0 != LINE_EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (key, slot);
            }
        }
    }
}

/// Incremental per-bank index over the standing offered set: the bank's
/// references in age order plus the same references bucketed per cache
/// line. Maintained by `offer_insert`/`offer_remove`, so a batched round
/// touches only leaders and winning groups instead of walking the whole
/// age-ordered backlog. `refs` is a deque because the maintenance
/// traffic is end-biased — arrivals carry the largest id yet (back) and
/// grants take the oldest first (front). `groups` is a dense unordered
/// slab (removal is `swap_remove`) reached through the [`LineIndex`]
/// hash, so group create/lookup/destroy are all O(1); the largest-group
/// policy's winner scan is order-independent because its tie-break
/// (count, then oldest leading id) is a total order. Derived state:
/// never serialized, rebuilt through `offer_reset` after a snapshot
/// restore.
#[derive(Debug, Default)]
struct BankMirror {
    refs: VecDeque<MemRequest>,
    groups: Vec<LineGroup>,
    index: LineIndex,
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
/// use hbdc_core::{CombinePolicy, Lbic, MemRequest, PortModel};
///
/// let mut m = Lbic::new(2, 2, 8, 32, CombinePolicy::LeadingRequest);
/// // The paper's Figure 4c pattern: st/ld/ld/st over two banks, one line
/// // per bank. With 32-byte lines and 2 banks, line 12 (addresses
/// // 0x180..0x19f) maps to bank 0 and line 11 (0x160..0x17f) to bank 1.
/// let ready = vec![
///     MemRequest::store(0, 0x180), // bank 0, line 12, offset 0
///     MemRequest::load(1, 0x164),  // bank 1, line 11, offset 4
///     MemRequest::load(2, 0x168),  // bank 1, line 11, offset 8
///     MemRequest::store(3, 0x18c), // bank 0, line 12, offset 12
/// ];
/// assert_eq!(m.arbitrate(&ready).len(), 4); // all four in one cycle
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
    mirrors: Vec<BankMirror>,
    group_pool: Vec<VecDeque<MemRequest>>, // recycled member deques
    offered_len: usize,
    stats: ArbStats,
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
        Self::with_mapper(
            BankMapper::bit_select(banks, line_size),
            line_ports,
            store_queue,
            line_size,
            policy,
        )
    }

    /// Creates an LBIC with an explicit bank-selection function.
    pub fn with_mapper(
        mapper: BankMapper,
        line_ports: usize,
        store_queue: usize,
        line_size: u64,
        policy: CombinePolicy,
    ) -> Self {
        assert!(line_ports > 0, "line buffer needs at least one port");
        assert!(store_queue > 0, "store queue needs at least one entry");
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
            mirrors: (0..n_banks).map(|_| BankMirror::default()).collect(),
            group_pool: Vec::new(),
            offered_len: 0,
            stats: ArbStats::new(n_banks * line_ports),
        }
    }

    /// The bank-selection function in use.
    pub fn mapper(&self) -> &BankMapper {
        &self.mapper
    }

    /// The combining policy in use.
    pub fn policy(&self) -> CombinePolicy {
        self.policy
    }

    /// Current store-queue occupancy of `bank` (for tests and reports).
    pub fn store_queue_len(&self, bank: u32) -> usize {
        self.banks[bank as usize].store_queue.len()
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Leading-request selection: one ordered walk, first grantable
    /// reference per bank locks the line.
    fn arbitrate_leading(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
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
        let mut conflicts = 0u64;
        let mut exhausted = 0u64;
        let mut sq_full = 0u64;
        let mut combined = 0u64;

        for (i, r) in ready.iter().enumerate() {
            let bank = self.mapper.bank_of(r.addr) as usize;
            let line = self.line_of(r.addr);
            match self.scratch_locked[bank] {
                None => {
                    if r.is_store && self.scratch_sq_free[bank] == 0 {
                        sq_full += 1;
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
                        exhausted += 1;
                        continue;
                    }
                    if r.is_store && self.scratch_sq_free[bank] == 0 {
                        sq_full += 1;
                        continue;
                    }
                    self.scratch_counts[bank] += 1;
                    combined += 1;
                    if r.is_store {
                        self.scratch_sq_free[bank] -= 1;
                        self.banks[bank].store_queue.push_back(r.addr);
                    }
                    granted.push(i);
                }
                Some(_) => {
                    conflicts += 1;
                }
            }
        }

        for (bank, &c) in self.scratch_counts.iter().enumerate() {
            if c > 0 {
                self.banks[bank].granted_this_cycle = true;
            }
        }
        if conflicts > 0 {
            self.stats.bump("bank_conflicts", conflicts);
        }
        if exhausted > 0 {
            self.stats.bump("port_exhaustion", exhausted);
        }
        if sq_full > 0 {
            self.stats.bump("sq_full_stalls", sq_full);
        }
        if combined > 0 {
            self.stats.bump("combined", combined);
        }
    }

    /// Largest-group selection: per bank, the line with the most ready
    /// references wins (ties broken toward the oldest leading reference).
    fn arbitrate_largest(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        // Bucket request indices by bank.
        for idxs in self.scratch_by_bank.iter_mut() {
            idxs.clear();
        }
        for (i, r) in ready.iter().enumerate() {
            self.scratch_by_bank[self.mapper.bank_of(r.addr) as usize].push(i);
        }

        let mut combined = 0u64;
        let mut sq_full = 0u64;

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
                    self.stats.bump("port_exhaustion", 1);
                    continue;
                }
                if ready[i].is_store {
                    if sq_free == 0 {
                        sq_full += 1;
                        continue;
                    }
                    sq_free -= 1;
                    self.banks[bank].store_queue.push_back(ready[i].addr);
                }
                if count > 0 {
                    combined += 1;
                }
                count += 1;
                granted.push(i);
            }
            if count > 0 {
                self.banks[bank].granted_this_cycle = true;
            }
            let losers = self.scratch_by_bank[bank].len()
                - granted
                    .iter()
                    .filter(|&&g| self.scratch_by_bank[bank].contains(&g))
                    .count();
            if losers > 0 {
                self.stats.bump("bank_conflicts", losers as u64);
            }
        }

        if combined > 0 {
            self.stats.bump("combined", combined);
        }
        if sq_full > 0 {
            self.stats.bump("sq_full_stalls", sq_full);
        }
        granted.sort_unstable();
    }

    fn mirror_clear(&mut self) {
        for mirror in &mut self.mirrors {
            mirror.refs.clear();
            mirror.index.clear();
            for mut g in mirror.groups.drain(..) {
                g.members.clear();
                self.group_pool.push(g.members);
            }
        }
        self.offered_len = 0;
    }

    /// Batched leading-request round over the mirrors. Per bank: the
    /// leading grantable reference is found by scanning past sq-blocked
    /// stores (each an `sq_full_stalls` event, exactly the slice-walk's
    /// unlocked-bank arm), then only the leader's own line group is walked
    /// for combining — every other reference in the bank is a bank
    /// conflict by arithmetic, never visited.
    fn arbitrate_leading_offered(&mut self, granted: &mut Vec<MemRequest>) {
        let line_shift = self.line_shift;
        let line_ports = self.line_ports;
        let sq_capacity = self.sq_capacity;
        let mut conflicts = 0u64;
        let mut exhausted = 0u64;
        let mut sq_full = 0u64;
        let mut combined = 0u64;

        for (bank, mirror) in self.mirrors.iter().enumerate() {
            if mirror.refs.is_empty() {
                continue;
            }
            let m = mirror.refs.len();
            let mut sq_free = sq_capacity - self.banks[bank].store_queue.len().min(sq_capacity);
            // Phase 1: the leader is the oldest reference that is not a
            // store blocked by a full store queue.
            let mut skipped = 0usize;
            let mut leader = None;
            for &r in &mirror.refs {
                if r.is_store && sq_free == 0 {
                    skipped += 1;
                    continue;
                }
                leader = Some(r);
                break;
            }
            sq_full += skipped as u64;
            let Some(leader) = leader else {
                // Every reference here is a blocked store: the bank stays
                // unlocked this cycle.
                continue;
            };
            let line = leader.addr >> line_shift;
            let slot = mirror
                .index
                .get(line)
                .expect("leader's line has a mirror group");
            let group = &mirror.groups[slot as usize];
            // Members strictly younger than the leader are the combining
            // candidates; everything else offered to this bank (minus the
            // leader and the skipped stores) conflicts on a different line.
            let gpos = group.members.partition_point(|x| x.id <= leader.id);
            let tail = group.members.len() - gpos;
            conflicts += ((m - skipped - 1) - tail) as u64;

            let mut count = 1usize;
            if leader.is_store {
                sq_free -= 1;
                self.banks[bank].store_queue.push_back(leader.addr);
            }
            granted.push(leader);
            for (j, &r) in group.members.range(gpos..).enumerate() {
                if count >= line_ports {
                    // Count never decreases within a round, so the rest of
                    // the group is exhausted wholesale.
                    exhausted += (tail - j) as u64;
                    break;
                }
                if r.is_store && sq_free == 0 {
                    sq_full += 1;
                    continue;
                }
                count += 1;
                combined += 1;
                if r.is_store {
                    sq_free -= 1;
                    self.banks[bank].store_queue.push_back(r.addr);
                }
                granted.push(r);
            }
            self.banks[bank].granted_this_cycle = true;
        }

        if conflicts > 0 {
            self.stats.bump("bank_conflicts", conflicts);
        }
        if exhausted > 0 {
            self.stats.bump("port_exhaustion", exhausted);
        }
        if sq_full > 0 {
            self.stats.bump("sq_full_stalls", sq_full);
        }
        if combined > 0 {
            self.stats.bump("combined", combined);
        }
        // Per-bank processing, then one sort back into global age order —
        // the slice walk grants in age order across banks.
        granted.sort_unstable_by_key(|r| r.id);
    }

    /// Batched largest-group round over the mirrors: the line groups are
    /// maintained incrementally, so picking the winner is a scan over the
    /// bank's *groups* (count, tie toward the oldest leading member) and
    /// only the winning group's members are walked.
    fn arbitrate_largest_offered(&mut self, granted: &mut Vec<MemRequest>) {
        let line_ports = self.line_ports;
        let sq_capacity = self.sq_capacity;
        let mut combined = 0u64;
        let mut sq_full = 0u64;

        for (bank, mirror) in self.mirrors.iter().enumerate() {
            if mirror.refs.is_empty() {
                continue;
            }
            // First-seen order in the slice walk is the order of each
            // line's oldest reference, and the first strictly-greatest
            // count wins — equivalently: largest count, tie broken toward
            // the smallest leading id.
            let mut best = &mirror.groups[0];
            for g in &mirror.groups[1..] {
                if g.members.len() > best.members.len()
                    || (g.members.len() == best.members.len()
                        && g.members[0].id < best.members[0].id)
                {
                    best = g;
                }
            }

            let mut count = 0usize;
            let mut sq_free = sq_capacity - self.banks[bank].store_queue.len().min(sq_capacity);
            for &r in &best.members {
                if count >= line_ports {
                    self.stats.bump("port_exhaustion", 1);
                    continue;
                }
                if r.is_store {
                    if sq_free == 0 {
                        sq_full += 1;
                        continue;
                    }
                    sq_free -= 1;
                    self.banks[bank].store_queue.push_back(r.addr);
                }
                if count > 0 {
                    combined += 1;
                }
                count += 1;
                granted.push(r);
            }
            if count > 0 {
                self.banks[bank].granted_this_cycle = true;
            }
            let losers = mirror.refs.len() - count;
            if losers > 0 {
                self.stats.bump("bank_conflicts", losers as u64);
            }
        }

        if combined > 0 {
            self.stats.bump("combined", combined);
        }
        if sq_full > 0 {
            self.stats.bump("sq_full_stalls", sq_full);
        }
        granted.sort_unstable_by_key(|r| r.id);
    }
}

impl PortModel for Lbic {
    fn arbitrate_into(&mut self, ready: &[MemRequest], granted: &mut Vec<usize>) {
        granted.clear();
        match self.policy {
            CombinePolicy::LeadingRequest => self.arbitrate_leading(ready, granted),
            CombinePolicy::LargestGroup => self.arbitrate_largest(ready, granted),
        }
        self.stats.record_round(ready.len(), granted.len());
    }

    fn mirrors_offers(&self) -> bool {
        true
    }

    fn offer_insert(&mut self, req: MemRequest) {
        let bank = self.mapper.bank_of(req.addr) as usize;
        let line = self.line_of(req.addr);
        let mirror = &mut self.mirrors[bank];
        // Newly-ready references almost always carry the bank's largest
        // id (ids are dispatch order): O(1) pushes onto the back of the
        // refs deque and the line group, with a binary-search fallback
        // for out-of-order wakeups.
        if mirror.refs.back().is_none_or(|r| r.id < req.id) {
            mirror.refs.push_back(req);
        } else {
            let pos = mirror.refs.partition_point(|r| r.id < req.id);
            debug_assert!(
                mirror.refs.get(pos).is_none_or(|r| r.id != req.id),
                "duplicate offered id {}",
                req.id
            );
            mirror.refs.insert(pos, req);
        }
        match mirror.index.get(line) {
            Some(slot) => {
                let g = &mut mirror.groups[slot as usize];
                if g.members.back().is_none_or(|r| r.id < req.id) {
                    g.members.push_back(req);
                } else {
                    let gpos = g.members.partition_point(|r| r.id < req.id);
                    g.members.insert(gpos, req);
                }
            }
            None => {
                let mut members = self.group_pool.pop().unwrap_or_default();
                members.push_back(req);
                mirror.index.insert(line, mirror.groups.len() as u32);
                mirror.groups.push(LineGroup { line, members });
            }
        }
        self.offered_len += 1;
    }

    fn offer_remove(&mut self, req: MemRequest) {
        let bank = self.mapper.bank_of(req.addr) as usize;
        let line = self.line_of(req.addr);
        let mirror = &mut self.mirrors[bank];
        // Grants take the oldest references first, so the front pop is
        // the common case for both the refs deque and the line group.
        if mirror.refs.front().is_some_and(|r| r.id == req.id) {
            mirror.refs.pop_front();
        } else {
            let pos = mirror.refs.partition_point(|r| r.id < req.id);
            debug_assert!(
                mirror.refs.get(pos).is_some_and(|r| r.id == req.id),
                "removing id {} not in offered set",
                req.id
            );
            mirror.refs.remove(pos);
        }
        let slot = mirror
            .index
            .get(line)
            .expect("offered reference has a mirror group") as usize;
        let g = &mut mirror.groups[slot];
        if g.members.front().is_some_and(|r| r.id == req.id) {
            g.members.pop_front();
        } else {
            let gpos = g.members.partition_point(|r| r.id < req.id);
            g.members.remove(gpos);
        }
        if g.members.is_empty() {
            mirror.index.remove(line);
            let empty = mirror.groups.swap_remove(slot).members;
            self.group_pool.push(empty);
            // The former tail group moved into `slot`; re-point its line.
            if let Some(moved) = mirror.groups.get(slot) {
                mirror.index.set(moved.line, slot as u32);
            }
        }
        self.offered_len -= 1;
    }

    fn offer_reset(&mut self, offered: Offered<'_>) {
        self.mirror_clear();
        self.offered_len = offered.len();
        // The view is id-sorted, so appending keeps refs and members
        // sorted; groups are reached (or created) through the line index.
        for r in offered.iter() {
            let bank = self.mapper.bank_of(r.addr) as usize;
            let line = self.line_of(r.addr);
            let mirror = &mut self.mirrors[bank];
            mirror.refs.push_back(r);
            match mirror.index.get(line) {
                Some(slot) => mirror.groups[slot as usize].members.push_back(r),
                None => {
                    let mut members = self.group_pool.pop().unwrap_or_default();
                    members.push_back(r);
                    mirror.index.insert(line, mirror.groups.len() as u32);
                    mirror.groups.push(LineGroup { line, members });
                }
            }
        }
    }

    fn arbitrate_offered(&mut self, offered: Offered<'_>, granted: &mut Vec<MemRequest>) {
        debug_assert_eq!(
            self.offered_len,
            offered.len(),
            "offered mirror out of sync"
        );
        granted.clear();
        match self.policy {
            CombinePolicy::LeadingRequest => self.arbitrate_leading_offered(granted),
            CombinePolicy::LargestGroup => self.arbitrate_largest_offered(granted),
        }
        self.stats.record_round(self.offered_len, granted.len());
    }

    fn tick(&mut self) {
        // Store queues drain on idle bank cycles (paper §5.2: "the store
        // queue uses idle cycles … to perform stores"). One drain writes
        // one cache line through the bank's single port, so every queued
        // store to that line retires together — the store queue coalesces
        // same-line stores into a single array write.
        let mut drains = 0u64;
        let line_shift = self.line_shift;
        for bank in &mut self.banks {
            if !bank.granted_this_cycle {
                if let Some(head) = bank.store_queue.pop_front() {
                    let line = head >> line_shift;
                    let before = bank.store_queue.len();
                    bank.store_queue.retain(|a| a >> line_shift != line);
                    drains += 1 + (before - bank.store_queue.len()) as u64;
                }
            }
            bank.granted_this_cycle = false;
        }
        if drains > 0 {
            self.stats.bump("sq_drains", drains);
        }
        self.stats.record_tick();
    }

    // Store queues drain one line per idle bank cycle, so idle cycles do
    // real work while any queue is non-empty: report an event "this
    // cycle" to keep the simulator ticking until every queue is dry.
    // (`granted_this_cycle` is always false here — `tick` just reset it.)
    fn next_event(&self, now: u64) -> Option<u64> {
        if self.banks.iter().any(|b| !b.store_queue.is_empty()) {
            Some(now)
        } else {
            None
        }
    }

    fn skip_idle(&mut self, k: u64) {
        debug_assert!(
            self.banks
                .iter()
                .all(|b| b.store_queue.is_empty() && !b.granted_this_cycle),
            "idle span skipped with LBIC drain work pending"
        );
        self.stats.record_ticks(k);
    }

    fn peak_per_cycle(&self) -> usize {
        self.banks.len() * self.line_ports
    }

    fn label(&self) -> String {
        format!("LBIC-{}x{}", self.banks.len(), self.line_ports)
    }

    fn stats(&self) -> &ArbStats {
        &self.stats
    }

    /// LBIC legality (paper §5): within one cycle, every grant in a bank
    /// must hit the line locked by that bank's leading grant, at most
    /// `N = line_ports` grants may share a bank's line buffer, and no
    /// per-bank store queue may exceed its capacity.
    fn audit_round(&self, ready: &[MemRequest], granted: &[usize], out: &mut Vec<Violation>) {
        audit::check_generic(self.peak_per_cycle(), ready, granted, out);
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

    fn debug_state(&self) -> String {
        let occ: Vec<usize> = self.banks.iter().map(|b| b.store_queue.len()).collect();
        format!(
            "store-queue occupancy per bank: {occ:?} (capacity {})",
            self.sq_capacity
        )
    }

    // The per-cycle scratch vectors are rebuilt at the top of every
    // arbitration round, so only the per-bank store queues, the
    // granted-this-cycle flags, and the statistics persist.
    fn save_state(&self, w: &mut StateWriter) {
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            w.put_usize(bank.store_queue.len());
            for &addr in &bank.store_queue {
                w.put_u64(addr);
            }
            w.put_bool(bank.granted_this_cycle);
        }
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        // The offered mirror is derived state: the driver re-seeds it via
        // `offer_reset` once the load/store queue has been restored.
        self.mirror_clear();
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
        self.stats.load_state(r)
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
        let ready = vec![
            MemRequest::store(0, addr2(0, 12, 0)),
            MemRequest::load(1, addr2(1, 10, 4)),
            MemRequest::load(2, addr2(1, 10, 8)),
            MemRequest::store(3, addr2(0, 12, 12)),
        ];
        assert_eq!(m.arbitrate(&ready), vec![0, 1, 2, 3]);
        assert_eq!(m.stats().extra_counter("combined"), 2);
    }

    #[test]
    fn same_bank_different_line_conflicts() {
        let mut m = lbic(2, 2);
        let ready = vec![
            MemRequest::load(0, addr2(0, 1, 0)),
            MemRequest::load(1, addr2(0, 2, 0)), // same bank, different line
        ];
        assert_eq!(m.arbitrate(&ready), vec![0]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 1);
    }

    #[test]
    fn line_port_exhaustion_caps_combining() {
        let mut m = lbic(2, 2);
        let ready: Vec<MemRequest> = (0..4)
            .map(|i| MemRequest::load(i, addr2(0, 5, i * 8)))
            .collect();
        assert_eq!(m.arbitrate(&ready), vec![0, 1]); // N = 2
        assert_eq!(m.stats().extra_counter("port_exhaustion"), 2);
    }

    #[test]
    fn peak_is_m_times_n() {
        assert_eq!(lbic(4, 4).peak_per_cycle(), 16);
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
        assert_eq!(model.arbitrate(&ready).len(), 16);
    }

    #[test]
    fn full_store_queue_blocks_stores_not_loads() {
        let mut m = Lbic::new(2, 2, 1, 32, CombinePolicy::LeadingRequest);
        // Fill the single-entry store queue of bank 0.
        let g = m.arbitrate(&[MemRequest::store(0, addr2(0, 1, 0))]);
        assert_eq!(g, vec![0]);
        assert_eq!(m.store_queue_len(0), 1);
        // Bank 0 was busy this cycle, so no drain happens at tick.
        m.tick();
        assert_eq!(m.store_queue_len(0), 1);
        // Next cycle: another store to bank 0 is blocked; a load to the
        // same line proceeds and becomes the leading request.
        let ready = vec![
            MemRequest::store(1, addr2(0, 1, 8)),
            MemRequest::load(2, addr2(0, 1, 16)),
        ];
        assert_eq!(m.arbitrate(&ready), vec![1]);
        assert_eq!(m.stats().extra_counter("sq_full_stalls"), 1);
    }

    #[test]
    fn store_queue_drains_on_idle_cycles() {
        let mut m = Lbic::new(2, 2, 4, 32, CombinePolicy::LeadingRequest);
        m.arbitrate(&[
            MemRequest::store(0, addr2(0, 1, 0)),
            MemRequest::store(1, addr2(0, 1, 8)),
        ]);
        assert_eq!(m.store_queue_len(0), 2);
        m.tick(); // bank was busy: no drain
        assert_eq!(m.store_queue_len(0), 2);
        m.arbitrate(&[]); // idle cycle: both stores share a line, so one
        m.tick(); // array write retires them together
        assert_eq!(m.store_queue_len(0), 0);
        assert_eq!(m.stats().extra_counter("sq_drains"), 2);
    }

    #[test]
    fn store_queue_drain_coalesces_only_same_line() {
        let mut m = Lbic::new(2, 2, 8, 32, CombinePolicy::LeadingRequest);
        m.arbitrate(&[
            MemRequest::store(0, addr2(0, 1, 0)),
            MemRequest::store(1, addr2(0, 1, 8)),
        ]);
        m.tick(); // busy, no drain
        m.arbitrate(&[MemRequest::store(2, addr2(0, 2, 0))]);
        m.tick(); // busy again
        assert_eq!(m.store_queue_len(0), 3);
        m.arbitrate(&[]);
        m.tick(); // drains the two line-1 stores together
        assert_eq!(m.store_queue_len(0), 1);
        m.arbitrate(&[]);
        m.tick(); // drains the line-2 store
        assert_eq!(m.store_queue_len(0), 0);
    }

    #[test]
    fn mx1_behaves_like_banked_for_loads() {
        use crate::banked::BankedPorts;
        let mut lb = Lbic::new(4, 1, 64, 32, CombinePolicy::LeadingRequest);
        let mut bk = BankedPorts::new(4, 32);
        let ready: Vec<MemRequest> = (0..8)
            .map(|i| MemRequest::load(i, (i * 13 % 32) * 32))
            .collect();
        assert_eq!(lb.arbitrate(&ready), bk.arbitrate(&ready));
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
        assert_eq!(lead.arbitrate(&ready), vec![0]);
        assert_eq!(large.arbitrate(&ready), vec![1, 2, 3]);
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
        // Tie between lines 1 and 2 (2 refs each) — line 1 contains the
        // oldest reference and wins.
        assert_eq!(m.arbitrate(&ready), vec![0, 2]);
    }

    #[test]
    fn load_after_store_same_location_same_cycle() {
        // Paper §5.2: "a load followed by a store to the same memory
        // location [can] be accepted in the same cycle."
        let mut m = lbic(2, 2);
        let a = addr2(0, 3, 8);
        let ready = vec![MemRequest::load(0, a), MemRequest::store(1, a)];
        assert_eq!(m.arbitrate(&ready), vec![0, 1]);
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
    fn label_is_mxn() {
        assert_eq!(lbic(8, 4).label(), "LBIC-8x4");
    }

    #[test]
    fn state_roundtrip_continues_bit_identically() {
        // Leave bank 0's store queue non-empty mid-drain, snapshot, and
        // check a restored model drains and arbitrates identically.
        let mut m = lbic(2, 2);
        m.arbitrate(&[
            MemRequest::store(0, addr2(0, 1, 0)),
            MemRequest::store(1, addr2(0, 2, 0)),
        ]);
        m.tick();
        let mut w = StateWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = lbic(2, 2);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored.store_queue_len(0), m.store_queue_len(0));
        let ready = vec![
            MemRequest::store(2, addr2(0, 3, 0)),
            MemRequest::load(3, addr2(1, 4, 8)),
        ];
        for _ in 0..4 {
            assert_eq!(restored.arbitrate(&ready), m.arbitrate(&ready));
            restored.tick();
            m.tick();
            assert_eq!(restored.store_queue_len(0), m.store_queue_len(0));
        }
        assert_eq!(
            restored.stats().extra_counter("sq_drains"),
            m.stats().extra_counter("sq_drains")
        );
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

    /// Drives one batched round through the offer-delta interface and
    /// returns the granted ids.
    fn batched_round(m: &mut Lbic, reqs: &[MemRequest]) -> Vec<u64> {
        let (ids, (addrs, stores)): (Vec<u64>, (Vec<u64>, Vec<bool>)) =
            reqs.iter().map(|r| (r.id, (r.addr, r.is_store))).unzip();
        let mut granted = Vec::new();
        m.arbitrate_offered(Offered::new(&ids, &addrs, &stores), &mut granted);
        granted.iter().map(|r| r.id).collect()
    }

    /// Batched and naive models must agree on grants and on every
    /// statistic for the same ready list (ids already age-sorted).
    fn assert_batched_matches_naive(mut naive: Lbic, mut batched: Lbic, ready: &[MemRequest]) {
        let want: Vec<u64> = naive
            .arbitrate(ready)
            .iter()
            .map(|&i| ready[i].id)
            .collect();
        for &r in ready {
            batched.offer_insert(r);
        }
        let got = batched_round(&mut batched, ready);
        assert_eq!(got, want, "grant sets diverge");
        for name in [
            "bank_conflicts",
            "combined",
            "port_exhaustion",
            "sq_full_stalls",
        ] {
            assert_eq!(
                batched.stats().extra_counter(name),
                naive.stats().extra_counter(name),
                "{name} diverges"
            );
        }
        assert_eq!(batched.stats().offered(), naive.stats().offered());
        assert_eq!(batched.stats().granted(), naive.stats().granted());
        for b in 0..batched.mapper().banks() {
            assert_eq!(
                batched.store_queue_len(b),
                naive.store_queue_len(b),
                "bank {b} store queue diverges"
            );
        }
    }

    #[test]
    fn batched_leading_matches_naive_on_figure_4c() {
        let ready = vec![
            MemRequest::store(0, addr2(0, 12, 0)),
            MemRequest::load(1, addr2(1, 10, 4)),
            MemRequest::load(2, addr2(1, 10, 8)),
            MemRequest::store(3, addr2(0, 12, 12)),
        ];
        assert_batched_matches_naive(lbic(2, 2), lbic(2, 2), &ready);
    }

    #[test]
    fn batched_leading_matches_naive_on_mixed_conflicts() {
        // Conflicts, exhaustion, and combining interleaved in one bank:
        // leader line 5 with three followers (one exhausted at N = 2),
        // plus two different-line conflicts.
        let ready = vec![
            MemRequest::load(0, addr2(0, 5, 0)),
            MemRequest::load(1, addr2(0, 7, 0)),  // conflict
            MemRequest::load(2, addr2(0, 5, 8)),  // combines
            MemRequest::load(3, addr2(0, 5, 16)), // exhausted
            MemRequest::load(4, addr2(0, 9, 0)),  // conflict
        ];
        assert_batched_matches_naive(lbic(2, 2), lbic(2, 2), &ready);
    }

    #[test]
    fn batched_leading_blocked_store_prefix_matches_naive() {
        // Bank 0's single-entry store queue is pre-filled, so the oldest
        // two stores are sq-blocked and a younger load leads the bank.
        let prefill = [MemRequest::store(0, addr2(0, 1, 0))];
        let mut naive = Lbic::new(2, 2, 1, 32, CombinePolicy::LeadingRequest);
        naive.arbitrate(&prefill);
        naive.tick();
        let mut batched = Lbic::new(2, 2, 1, 32, CombinePolicy::LeadingRequest);
        batched.offer_insert(prefill[0]);
        batched_round(&mut batched, &prefill);
        batched.offer_remove(prefill[0]);
        batched.tick();

        let ready = vec![
            MemRequest::store(1, addr2(0, 2, 0)),
            MemRequest::store(2, addr2(0, 2, 8)),
            MemRequest::load(3, addr2(0, 2, 16)),
            MemRequest::load(4, addr2(0, 2, 24)),
        ];
        assert_batched_matches_naive(naive, batched, &ready);
    }

    #[test]
    fn batched_largest_matches_naive_on_skew_and_tie() {
        let skew = vec![
            MemRequest::load(0, addr2(0, 1, 0)),
            MemRequest::load(1, addr2(0, 2, 0)),
            MemRequest::load(2, addr2(0, 2, 8)),
            MemRequest::load(3, addr2(0, 2, 16)),
        ];
        assert_batched_matches_naive(
            Lbic::new(2, 4, 8, 32, CombinePolicy::LargestGroup),
            Lbic::new(2, 4, 8, 32, CombinePolicy::LargestGroup),
            &skew,
        );
        let tie = vec![
            MemRequest::load(0, addr2(0, 1, 0)),
            MemRequest::load(1, addr2(0, 2, 0)),
            MemRequest::load(2, addr2(0, 1, 8)),
            MemRequest::load(3, addr2(0, 2, 8)),
        ];
        assert_batched_matches_naive(
            Lbic::new(2, 4, 8, 32, CombinePolicy::LargestGroup),
            Lbic::new(2, 4, 8, 32, CombinePolicy::LargestGroup),
            &tie,
        );
    }

    #[test]
    fn batched_largest_exhaustion_and_stores_match_naive() {
        let ready = vec![
            MemRequest::store(0, addr2(0, 3, 0)),
            MemRequest::load(1, addr2(0, 3, 8)),
            MemRequest::store(2, addr2(0, 3, 16)),
            MemRequest::load(3, addr2(0, 3, 24)),
            MemRequest::load(4, addr2(0, 6, 0)), // loser line
        ];
        assert_batched_matches_naive(
            Lbic::new(2, 2, 1, 32, CombinePolicy::LargestGroup),
            Lbic::new(2, 2, 1, 32, CombinePolicy::LargestGroup),
            &ready,
        );
    }

    #[test]
    fn batched_mirror_survives_insert_remove_churn() {
        // Grant, retire via offer_remove, re-offer younger references:
        // the mirror must promote the next-oldest leader and keep the
        // line groups coherent.
        let mut m = lbic(2, 2);
        let a = MemRequest::load(0, addr2(0, 1, 0));
        let b = MemRequest::load(1, addr2(0, 1, 8));
        let c = MemRequest::load(2, addr2(0, 2, 0));
        for r in [a, b, c] {
            m.offer_insert(r);
        }
        assert_eq!(batched_round(&mut m, &[a, b, c]), vec![0, 1]);
        m.offer_remove(a);
        m.offer_remove(b);
        m.tick();
        // Line-1 group is gone; c now leads its bank.
        assert_eq!(batched_round(&mut m, &[c]), vec![2]);
        m.offer_remove(c);
        m.tick();
        assert_eq!(batched_round(&mut m, &[]), Vec::<u64>::new());
    }

    #[test]
    fn batched_reset_rebuilds_mirror_after_state_load() {
        // Snapshot a model mid-drain, restore into a fresh one whose
        // mirror is stale, offer_reset with the live ready view, and the
        // next round must match the original.
        let mut m = lbic(2, 2);
        let stale = MemRequest::load(7, addr2(1, 9, 0));
        m.offer_insert(stale);
        m.arbitrate(&[
            MemRequest::store(0, addr2(0, 1, 0)),
            MemRequest::store(1, addr2(0, 2, 0)),
        ]);
        m.tick();
        let mut w = StateWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = lbic(2, 2);
        restored.offer_insert(MemRequest::load(3, addr2(0, 4, 0))); // stale mirror
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        let ready = vec![
            MemRequest::store(8, addr2(0, 3, 0)),
            MemRequest::load(9, addr2(1, 4, 8)),
        ];
        let (ids, (addrs, stores)): (Vec<u64>, (Vec<u64>, Vec<bool>)) =
            ready.iter().map(|r| (r.id, (r.addr, r.is_store))).unzip();
        restored.offer_reset(Offered::new(&ids, &addrs, &stores));
        let want: Vec<u64> = {
            let mut naive = lbic(2, 2);
            naive.load_state(&mut StateReader::new(&bytes)).unwrap();
            naive
                .arbitrate(&ready)
                .iter()
                .map(|&i| ready[i].id)
                .collect()
        };
        assert_eq!(batched_round(&mut restored, &ready), want);
    }
}
