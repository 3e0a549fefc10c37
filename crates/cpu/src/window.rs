//! The register update unit (RUU): a unified instruction window with
//! dataflow wakeup.
//!
//! Dispatch reads no instruction: fetch hands it a [`Decoded`] entry of
//! the simulator's per-pc decode table and the run-time scalars (seq, pc,
//! address, direction). Each entry keeps a 24-byte hot slot and a 16-byte
//! cold record of the scalars for snapshots and diagnostics.

use std::cell::Cell;

use hbdc_isa::{ArchReg, Inst};
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::dynamic::DynInst;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for source operands.
    Waiting,
    /// All operands available; eligible for issue.
    Ready,
    /// Issued; result pending at `complete_at` (or an unknown future cycle
    /// for loads awaiting a cache grant).
    Issued,
    /// Result produced; dependents woken.
    Done,
}

impl State {
    fn tag(self) -> u8 {
        match self {
            State::Waiting => 0,
            State::Ready => 1,
            State::Issued => 2,
            State::Done => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapError> {
        match tag {
            0 => Ok(State::Waiting),
            1 => Ok(State::Ready),
            2 => Ok(State::Issued),
            3 => Ok(State::Done),
            other => Err(SnapError::Corrupt(format!(
                "unknown window entry state tag {other}"
            ))),
        }
    }
}

/// Sentinel for "no edge" in the edge arena's links.
const NO_EDGE: u32 = u32::MAX;

/// One dependence edge: the consumer it wakes, whether it gates the
/// consumer's *address* (store base register) rather than only its
/// execution, and the next edge of the same producer (or [`NO_EDGE`]).
#[derive(Debug, Clone, Copy)]
struct Edge {
    seq: u64,
    next: u32,
    addr: bool,
}

/// The per-entry state the issue, wakeup and commit loops touch every
/// cycle, packed into 24 bytes. The entry's run-time facts live in a
/// separate cold array read only by snapshots and diagnostics.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: State,
    /// Stores: cache access performed (commit gate).
    access_done: bool,
    /// Issue/commit-relevant instruction facts, decoded once at
    /// dispatch so the per-cycle loops read a few cached bytes instead
    /// of re-matching the full record.
    meta: InstMeta,
    remaining_deps: u32,
    /// Outstanding producers of the store's base register; when this
    /// reaches zero the store's effective address is architecturally
    /// known, which unblocks younger loads in the LSQ.
    addr_deps: u32,
    /// First and last of this producer's outgoing edges in the arena, in
    /// dispatch order ([`NO_EDGE`] when it has none).
    head: u32,
    tail: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 24);

/// Pre-decoded instruction facts the issue and commit stages consult
/// every cycle. Derived (not stored) state: snapshots persist only the
/// entry's pc and rebuild this from the decode table on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstMeta {
    /// Load or store.
    pub mem: bool,
    /// Store (implies `mem`).
    pub store: bool,
    /// The `halt` instruction (ends the run at commit).
    pub halt: bool,
    /// Functional-unit class for non-memory issue.
    pub class: hbdc_isa::FuClass,
}

/// Register slot of "no operand" in a [`Decoded`] entry.
const NO_REG: u8 = u8::MAX;

/// One static instruction decoded for dispatch: everything fetch and
/// [`Window::dispatch`] read of it. The simulator builds one per pc of
/// the program text, so no dynamic instruction re-matches its opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The facts issue and commit read.
    pub meta: InstMeta,
    /// Register slots read, in [`Inst::for_each_use`] order with repeats
    /// kept, padded with [`NO_REG`].
    uses: [u8; 2],
    /// Bit `k` set: `uses[k]` is a store's base register, so its producer
    /// gates the store's address.
    addr_uses: u8,
    /// Register slot written, or [`NO_REG`].
    def: u8,
    /// Access width in bytes; 0 unless `meta.mem`.
    pub width: u8,
}

impl Decoded {
    /// Decodes `inst`. Memory-ness and width come from one match, so a
    /// memory instruction without a width cannot be represented.
    pub fn of(inst: &Inst) -> Self {
        let (mem, width) = inst
            .mem_width()
            .map_or((false, 0), |w| (true, w.bytes() as u8));
        let store = inst.is_store();
        let base = inst.mem_base().map(ArchReg::Int);
        let (mut uses, mut addr_uses, mut k) = ([NO_REG; 2], 0u8, 0);
        inst.for_each_use(|u| {
            uses[k] = reg_slot(u) as u8;
            if store && Some(u) == base {
                addr_uses |= 1 << k;
            }
            k += 1;
        });
        Self {
            meta: InstMeta {
                mem,
                store,
                halt: matches!(inst, Inst::Halt),
                class: inst.fu_class(),
            },
            uses,
            addr_uses,
            def: inst.def().map_or(NO_REG, |d| reg_slot(d) as u8),
            width,
        }
    }
}

/// A live entry's run-time facts in 16 bytes: `addr` is meaningful only
/// for memory instructions, `taken` only for conditional branches.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    addr: u64,
    pc: u32,
    taken: Option<bool>,
}

const _: () = assert!(std::mem::size_of::<Run>() == 16);

/// A retired entry as yielded by
/// [`commit_compact_into`](Window::commit_compact_into): the sequence
/// number plus the cached instruction facts commit bookkeeping needs,
/// in place of a copy of the full instruction record.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Program-order sequence number.
    pub seq: u64,
    /// Pre-decoded instruction facts.
    pub meta: InstMeta,
}

fn reg_slot(r: ArchReg) -> usize {
    match r {
        ArchReg::Int(r) => r.index(),
        ArchReg::Fp(f) => 32 + f.index(),
    }
}

/// The register update unit (Sohi \[21], as used by SimpleScalar): a
/// program-ordered instruction window that tracks register dependences,
/// wakes consumers as producers complete, and retires from the front in
/// order.
///
/// The window is purely a *timing* structure — values live in the
/// functional emulator. Dependences are derived from each instruction's
/// architectural defs/uses at dispatch (equivalent to renaming, since the
/// latest producer of each register is tracked).
///
/// # Examples
///
/// ```
/// use hbdc_cpu::{Decoded, Window};
/// use hbdc_isa::{AluOp, Inst, Reg};
///
/// let mut w = Window::new(8);
/// let producer = Inst::AluImm { op: AluOp::Or, rd: Reg::new(1), rs: Reg::ZERO, imm: 5 };
/// let consumer = Inst::Alu { op: AluOp::Add, rd: Reg::new(2), rs: Reg::new(1), rt: Reg::new(1) };
/// // seq, decoded instruction, pc, address (loads and stores), branch direction
/// w.dispatch(0, &Decoded::of(&producer), 0, 0, None);
/// w.dispatch(1, &Decoded::of(&consumer), 1, 0, None);
/// let mut ready = Vec::new();
/// w.fill_ready(8, &mut ready);
/// assert_eq!(ready, [0]); // consumer waits on r1
/// w.mark_issued(0, Some(1));
/// w.advance_completions(1);
/// w.fill_ready(8, &mut ready);
/// assert_eq!(ready, [1]); // woken
/// ```
#[derive(Debug)]
pub struct Window {
    // A power-of-two ring of slots indexed by `seq & mask`: live sequence
    // numbers span at most `capacity <= mask + 1`, so slots are unique and
    // `[base_seq, tail_seq)` is the live window in program order.
    slots: Vec<Slot>,
    // Each slot's run-time facts (cold: snapshots and diagnostics only).
    runs: Vec<Run>,
    mask: u64,
    base_seq: u64,
    tail_seq: u64,
    capacity: usize,
    producer: [Option<u64>; 64],
    // Dependence edges of every live producer, each producer's chained
    // from its slot's `head` in dispatch order. Edges freed when their
    // producer completes (or commits) are recycled through `free_edge`,
    // so the steady-state hot loop performs no edge allocation.
    edges: Vec<Edge>,
    free_edge: u32,
    // Ready set as a bitmap over the same ring slots. Scanning in ring
    // order from `base_seq` recovers oldest-first iteration without the
    // per-cycle allocation (or node churn) of an ordered set. Packed 64
    // slots to a word so the scan skips empty regions via
    // `trailing_zeros` instead of testing every slot.
    ready: Vec<u64>,
    ready_count: usize,
    completions: CompletionWheel,
    // Stores whose address became known since the last drain.
    addr_ready: Vec<u64>,
    // Monotone cache for `oldest_not_done` — the Done prefix only grows.
    frontier_hint: Cell<u64>,
}

impl Window {
    /// Creates an empty window with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window needs at least one entry");
        let ring = capacity.next_power_of_two();
        // Placeholders: a slot is written at dispatch before it is read.
        let empty = Slot {
            state: State::Done,
            access_done: false,
            meta: Decoded::of(&Inst::Nop).meta,
            remaining_deps: 0,
            addr_deps: 0,
            head: NO_EDGE,
            tail: NO_EDGE,
        };
        Self {
            slots: vec![empty; ring],
            runs: vec![Run::default(); ring],
            mask: ring as u64 - 1,
            base_seq: 0,
            tail_seq: 0,
            capacity,
            producer: [None; 64],
            edges: Vec::new(),
            free_edge: NO_EDGE,
            ready: vec![0; ring.div_ceil(64)],
            ready_count: 0,
            completions: CompletionWheel::new(),
            addr_ready: Vec::new(),
            frontier_hint: Cell::new(0),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        (self.tail_seq - self.base_seq) as usize
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.tail_seq == self.base_seq
    }

    /// Whether the window has room for another instruction.
    pub fn has_space(&self) -> bool {
        self.len() < self.capacity
    }

    #[inline]
    fn slot_index(&self, seq: u64) -> usize {
        debug_assert!(
            seq >= self.base_seq && seq < self.tail_seq,
            "seq {seq} not live in [{}, {})",
            self.base_seq,
            self.tail_seq
        );
        (seq & self.mask) as usize
    }

    #[inline]
    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[self.slot_index(seq)]
    }

    #[inline]
    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        let i = self.slot_index(seq);
        &mut self.slots[i]
    }

    fn set_ready(&mut self, seq: u64) {
        let s = (seq & self.mask) as usize;
        debug_assert_eq!(
            self.ready[s >> 6] >> (s & 63) & 1,
            0,
            "ready slot already set"
        );
        self.ready[s >> 6] |= 1 << (s & 63);
        self.ready_count += 1;
    }

    /// Appends an edge waking `seq` to the end of `prod_seq`'s list.
    fn push_edge(&mut self, prod_seq: u64, seq: u64, addr: bool) {
        let edge = Edge {
            seq,
            next: NO_EDGE,
            addr,
        };
        let e = if self.free_edge == NO_EDGE {
            let e = u32::try_from(self.edges.len())
                .ok()
                .filter(|&e| e != NO_EDGE)
                .expect("edge arena outgrew u32 indices");
            self.edges.push(edge);
            e
        } else {
            let e = self.free_edge;
            self.free_edge = self.edges[e as usize].next;
            self.edges[e as usize] = edge;
            e
        };
        let prod = self.slot_mut(prod_seq);
        let tail = std::mem::replace(&mut prod.tail, e);
        if tail == NO_EDGE {
            prod.head = e;
        } else {
            self.edges[tail as usize].next = e;
        }
    }

    /// Returns the chain `head ..= tail` to the free list in O(1).
    fn free_edges(&mut self, head: u32, tail: u32) {
        if head != NO_EDGE {
            self.edges[tail as usize].next = self.free_edge;
            self.free_edge = head;
        }
    }

    /// Dispatches the next instruction in program order: sequence
    /// number `seq`, decoded as `op`, at `pc`, with effective address
    /// `addr` (kept for memory instructions only) and, for a conditional
    /// branch, direction `taken`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full or `seq` is out of order.
    pub fn dispatch(&mut self, seq: u64, op: &Decoded, pc: u32, addr: u64, taken: Option<bool>) {
        assert!(self.has_space(), "dispatch into full window");
        assert_eq!(seq, self.tail_seq, "dispatch out of program order");
        self.tail_seq += 1;

        let mut remaining = 0u32;
        let mut addr_deps = 0u32;
        for (k, &u) in op.uses.iter().enumerate() {
            if u == NO_REG {
                break;
            }
            if let Some(prod_seq) = self.producer[usize::from(u)] {
                if prod_seq >= self.base_seq && self.slot(prod_seq).state != State::Done {
                    let is_addr = op.addr_uses >> k & 1 != 0;
                    self.push_edge(prod_seq, seq, is_addr);
                    remaining += 1;
                    addr_deps += u32::from(is_addr);
                }
            }
        }
        if op.def != NO_REG {
            self.producer[usize::from(op.def)] = Some(seq);
        }
        if op.meta.store && addr_deps == 0 {
            // Base register already available: address known at dispatch.
            self.addr_ready.push(seq);
        }
        let state = if remaining == 0 {
            self.set_ready(seq);
            State::Ready
        } else {
            State::Waiting
        };
        let i = self.slot_index(seq);
        self.slots[i] = Slot {
            state,
            access_done: false,
            meta: op.meta,
            remaining_deps: remaining,
            addr_deps,
            head: NO_EDGE,
            tail: NO_EDGE,
        };
        self.runs[i] = Run { addr, pc, taken };
    }

    /// Drains the stores whose effective address has become
    /// architecturally known since the last call (so the LSQ can unblock
    /// younger loads). The backing buffer's capacity is retained.
    pub fn drain_addr_ready(&mut self) -> std::vec::Drain<'_, u64> {
        self.addr_ready.drain(..)
    }

    /// Scans bitmap slots `[a, a + len)`, appending the sequence number
    /// `seq0 + (slot - a)` for each set bit in slot order. Returns `false`
    /// once `max` entries are collected (the caller's signal to stop).
    fn scan_ready_span(
        &self,
        a: usize,
        len: usize,
        seq0: u64,
        max: usize,
        out: &mut Vec<u64>,
    ) -> bool {
        let b = a + len;
        let mut w = a >> 6;
        while (w << 6) < b {
            let mut bits = self.ready[w];
            if (w << 6) < a {
                bits &= !0 << (a & 63);
            }
            if (w << 6) + 64 > b {
                bits &= !0 >> (64 - (b - (w << 6)));
            }
            while bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                out.push(seq0 + (slot - a) as u64);
                if out.len() == max {
                    return false;
                }
                bits &= bits - 1;
            }
            w += 1;
        }
        true
    }

    /// Fills `out` with up to `max` ready-to-issue sequence numbers,
    /// oldest first. Clears `out` first; never allocates once `out` has
    /// warmed up.
    pub fn fill_ready(&self, max: usize, out: &mut Vec<u64>) {
        out.clear();
        if self.ready_count == 0 || max == 0 {
            return;
        }
        let max = max.min(self.ready_count);
        // The live window occupies `len()` ring slots starting at the
        // base sequence's slot; a wrap splits it into two linear spans.
        let start = (self.base_seq & self.mask) as usize;
        let span1 = (self.slots.len() - start).min(self.len());
        let span2 = self.len() - span1;
        if self.scan_ready_span(start, span1, self.base_seq, max, out) && span2 > 0 {
            self.scan_ready_span(0, span2, self.base_seq + span1 as u64, max, out);
        }
    }

    /// The cached instruction facts for `seq` — what the issue stage
    /// reads each cycle instead of copying the record out and
    /// re-matching the opcode.
    pub fn meta(&self, seq: u64) -> InstMeta {
        self.slot(seq).meta
    }

    /// Marks `seq` issued. `complete_at` is the cycle its result appears,
    /// or `None` for loads whose completion awaits a cache grant (set
    /// later with [`set_complete_at`](Self::set_complete_at)).
    ///
    /// # Panics
    ///
    /// Panics if the entry is not ready.
    pub fn mark_issued(&mut self, seq: u64, complete_at: Option<u64>) {
        let s = self.slot_index(seq);
        assert!(
            self.ready[s >> 6] >> (s & 63) & 1 == 1,
            "issue of non-ready entry"
        );
        self.ready[s >> 6] &= !(1 << (s & 63));
        self.ready_count -= 1;
        self.slots[s].state = State::Issued;
        if let Some(at) = complete_at {
            self.completions.push(at, seq);
        }
    }

    /// Schedules the completion of an already-issued entry (loads, once
    /// the cache grants their access and the fill latency is known).
    pub fn set_complete_at(&mut self, seq: u64, at: u64) {
        debug_assert_eq!(self.slot(seq).state, State::Issued);
        self.completions.push(at, seq);
    }

    /// Marks Done every issued entry whose completion time has arrived,
    /// waking its dependents.
    pub fn advance_completions(&mut self, now: u64) {
        self.completions.drain_due(now);
        for i in 0..self.completions.due_buf.len() {
            let seq = self.completions.due_buf[i];
            if seq < self.base_seq {
                continue; // already committed (defensive)
            }
            let (head, tail) = {
                let s = self.slot_mut(seq);
                debug_assert_eq!(s.state, State::Issued);
                s.state = State::Done;
                let chain = (s.head, s.tail);
                s.head = NO_EDGE;
                s.tail = NO_EDGE;
                chain
            };
            let mut e = head;
            while e != NO_EDGE {
                let dep = self.edges[e as usize];
                e = dep.next;
                if dep.seq < self.base_seq {
                    continue;
                }
                let s = self.slot_mut(dep.seq);
                s.remaining_deps -= 1;
                let addr_now_known = if dep.addr {
                    s.addr_deps -= 1;
                    s.addr_deps == 0
                } else {
                    false
                };
                let woken = s.remaining_deps == 0 && s.state == State::Waiting;
                if woken {
                    s.state = State::Ready;
                }
                if addr_now_known {
                    self.addr_ready.push(dep.seq);
                }
                if woken {
                    self.set_ready(dep.seq);
                }
            }
            self.free_edges(head, tail);
        }
    }

    /// Whether `seq` has produced its result.
    pub fn is_done(&self, seq: u64) -> bool {
        self.slot(seq).state == State::Done
    }

    /// Whether `seq` has produced its result *or already committed* —
    /// safe to call for sequence numbers that may have left the window.
    pub fn resolved(&self, seq: u64) -> bool {
        seq < self.base_seq || self.is_done(seq)
    }

    /// Records that a store's commit-time cache access has been performed.
    pub fn mark_access_done(&mut self, seq: u64) {
        self.slot_mut(seq).access_done = true;
    }

    /// Whether a store's cache access has been performed.
    pub fn access_done(&self, seq: u64) -> bool {
        self.slot(seq).access_done
    }

    /// Sequence number of the oldest entry that is not yet Done; all
    /// entries older than this are complete. Returns one past the youngest
    /// entry when everything is Done (or the window is empty).
    pub fn oldest_not_done(&self) -> u64 {
        let mut seq = self.frontier_hint.get().max(self.base_seq);
        while seq < self.tail_seq && self.slot(seq).state == State::Done {
            seq += 1;
        }
        self.frontier_hint.set(seq);
        seq
    }

    /// Counts entries by state: (waiting, ready, issued, done).
    #[doc(hidden)]
    pub fn state_census(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for seq in self.base_seq..self.tail_seq {
            match self.slot(seq).state {
                State::Waiting => c.0 += 1,
                State::Ready => c.1 += 1,
                State::Issued => c.2 += 1,
                State::Done => c.3 += 1,
            }
        }
        c
    }

    /// Retires up to `max` instructions from the front, in order, into
    /// `out` (cleared first), as each one's sequence number and cached
    /// instruction facts. An entry retires if it is Done and, for
    /// stores, its cache access has been performed.
    pub fn commit_compact_into(&mut self, max: u32, out: &mut Vec<Retired>) {
        out.clear();
        while out.len() < max as usize && !self.is_empty() {
            let seq = self.base_seq;
            let s = *self.slot(seq);
            if s.state != State::Done || (s.meta.store && !s.access_done) {
                break;
            }
            out.push(Retired { seq, meta: s.meta });
            self.free_edges(s.head, s.tail);
            self.base_seq += 1;
        }
    }

    /// The pc of `seq`, or `None` if it is not live in the window
    /// (diagnostics).
    pub fn pc_at(&self, seq: u64) -> Option<u32> {
        (self.base_seq..self.tail_seq)
            .contains(&seq)
            .then(|| self.runs[(seq & self.mask) as usize].pc)
    }

    /// Serializes the window's architectural timing state: every live
    /// entry (as a slim dynamic record plus its dependence bookkeeping,
    /// edges in dispatch order), the per-register producer map, the
    /// pending completion events, and the address-ready event queue. The
    /// ready bitmap is derivable from entry states and is rebuilt on
    /// load; scratch (the edge free list, the frontier hint) is not
    /// persisted.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.base_seq);
        w.put_usize(self.len());
        for seq in self.base_seq..self.tail_seq {
            let (s, run) = (self.slot(seq), self.runs[self.slot_index(seq)]);
            // The slim record layout of `DynInst::save_slim`.
            w.put_u64(seq);
            w.put_u32(run.pc);
            w.put_opt_u64(s.meta.mem.then_some(run.addr));
            w.put_opt_bool(run.taken);
            w.put_u8(s.state.tag());
            w.put_u32(s.remaining_deps);
            w.put_u32(s.addr_deps);
            let mut n = 0usize;
            let mut e = s.head;
            while e != NO_EDGE {
                n += 1;
                e = self.edges[e as usize].next;
            }
            w.put_usize(n);
            let mut e = s.head;
            while e != NO_EDGE {
                let d = self.edges[e as usize];
                w.put_u64(d.seq);
                w.put_bool(d.addr);
                e = d.next;
            }
            w.put_bool(s.access_done);
        }
        for p in &self.producer {
            w.put_opt_u64(*p);
        }
        // Heap layout order is unspecified: emit completion events sorted
        // so identical states always produce identical bytes.
        let completions = self.completions.sorted_events();
        w.put_usize(completions.len());
        for (at, seq) in completions {
            w.put_u64(at);
            w.put_u64(seq);
        }
        w.put_usize(self.addr_ready.len());
        for &seq in &self.addr_ready {
            w.put_u64(seq);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// window of the same capacity, re-deriving each entry's instruction
    /// facts from `text` and rebuilding the ready bitmap.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Corrupt`] if the stream holds more entries
    /// than this window's capacity, names a PC outside `text`, carries
    /// an unknown state tag, or has an entry wake one that is not younger
    /// and live.
    pub fn load_state(&mut self, r: &mut StateReader<'_>, text: &[Inst]) -> Result<(), SnapError> {
        let base_seq = r.get_u64()?;
        let n = r.get_usize()?;
        if n > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "window snapshot holds {n} entries but capacity is {}",
                self.capacity
            )));
        }
        self.base_seq = base_seq;
        self.tail_seq = base_seq;
        self.edges.clear();
        self.free_edge = NO_EDGE;
        self.ready.iter_mut().for_each(|word| *word = 0);
        self.ready_count = 0;
        for _ in 0..n {
            let di = DynInst::load_slim(r, text)?;
            let state = State::from_tag(r.get_u8()?)?;
            let remaining_deps = r.get_u32()?;
            let addr_deps = r.get_u32()?;
            let seq = self.tail_seq;
            self.tail_seq += 1;
            let i = self.slot_index(seq);
            self.slots[i] = Slot {
                state,
                access_done: false,
                meta: Decoded::of(&di.inst).meta,
                remaining_deps,
                addr_deps,
                head: NO_EDGE,
                tail: NO_EDGE,
            };
            self.runs[i] = Run {
                addr: di.addr.unwrap_or(0),
                pc: di.pc,
                taken: di.taken,
            };
            for _ in 0..r.get_usize()? {
                let dep = r.get_u64()?;
                let addr = r.get_bool()?;
                if dep <= seq || dep - base_seq >= n as u64 {
                    return Err(SnapError::Corrupt(format!(
                        "window entry {seq} wakes {dep}, which is not a younger live entry"
                    )));
                }
                self.push_edge(seq, dep, addr);
            }
            self.slots[i].access_done = r.get_bool()?;
            if state == State::Ready {
                self.set_ready(seq);
            }
        }
        for p in &mut self.producer {
            *p = r.get_opt_u64()?;
        }
        self.completions.clear();
        let completions = r.get_usize()?;
        for _ in 0..completions {
            let at = r.get_u64()?;
            let seq = r.get_u64()?;
            self.completions.push(at, seq);
        }
        self.addr_ready.clear();
        let addr_ready = r.get_usize()?;
        for _ in 0..addr_ready {
            self.addr_ready.push(r.get_u64()?);
        }
        self.frontier_hint.set(self.base_seq);
        Ok(())
    }
}

/// Calendar-wheel slot count; power of two so the slot of cycle `t` is
/// `t & (WHEEL - 1)`. Sized past every bounded completion latency (FU
/// pipelines and cache hits are single digits, memory-hierarchy misses a
/// few hundred cycles), so in steady state every event takes the O(1)
/// bucket path and the far heap stays empty.
const WHEEL: usize = 1024;

/// Pending completion events as a calendar wheel plus far-event heap.
///
/// The hot structure of the completion stage: every issued instruction
/// pushes exactly one `(complete_at, seq)` event and pops it when due,
/// so a comparison-based priority queue pays two O(log n) sifts per
/// instruction against hundreds of in-flight events. Completion delays
/// are almost always small and bounded, which is the textbook calendar
/// case: `buckets[t & (WHEEL-1)]` holds the sequence numbers completing
/// at cycle `t` for `t` within the next `WHEEL` cycles (O(1) push), and
/// the per-cycle drain empties exactly one bucket (O(1) plus one sort of
/// the handful of same-cycle events). The rare event beyond the horizon
/// — and every event restored from a snapshot — parks in the
/// [`CompletionHeap`] and is merged when its cycle comes up.
///
/// Drain order is the lexicographic `(at, seq)` minimum, identical to
/// the plain min-heap this replaces: cycles drain in order, and the
/// same-cycle batch (bucket contents plus far-heap arrivals) is sorted
/// by sequence number before processing.
#[derive(Debug)]
struct CompletionWheel {
    buckets: Vec<Vec<u64>>,
    far: CompletionHeap,
    /// Every event at a cycle `< cursor` has been drained; bucket
    /// residents lie in `[cursor, cursor + WHEEL)`.
    cursor: u64,
    /// Sound lower bound on the earliest pending event cycle
    /// (`u64::MAX` when a drain just emptied the structure); keeps the
    /// per-cycle drain O(1) when nothing is due without scanning slots.
    next_lb: u64,
    len: usize,
    /// Scratch the drain writes due sequence numbers into, in exact
    /// `(at, seq)` order; the caller iterates it by index so the borrow
    /// on `self` is released between entries.
    due_buf: Vec<u64>,
}

impl CompletionWheel {
    fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); WHEEL],
            far: CompletionHeap::default(),
            cursor: 0,
            next_lb: u64::MAX,
            len: 0,
            due_buf: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.far.clear();
        self.cursor = 0;
        self.next_lb = u64::MAX;
        self.len = 0;
        self.due_buf.clear();
    }

    fn push(&mut self, at: u64, seq: u64) {
        debug_assert!(at >= self.cursor, "completion scheduled in the past");
        if at < self.cursor + WHEEL as u64 {
            self.buckets[at as usize & (WHEEL - 1)].push(seq);
        } else {
            self.far.push(at, seq);
        }
        self.next_lb = self.next_lb.min(at);
        self.len += 1;
    }

    /// Moves every event due at or before `now` into `due_buf`, cycles
    /// in order and same-cycle batches sorted by sequence number, and
    /// advances the wheel cursor past `now`.
    fn drain_due(&mut self, now: u64) {
        self.due_buf.clear();
        if self.next_lb > now {
            // Nothing due. The cursor may still advance to `now + 1`:
            // every pending event is at `>= next_lb > now`, so no bucket
            // slot in the skipped span is occupied.
            self.cursor = self.cursor.max(now + 1);
            return;
        }
        let mut t = self.next_lb.max(self.cursor);
        while t <= now {
            let mark = self.due_buf.len();
            while let Some((at, _)) = self.far.peek() {
                debug_assert!(at >= t, "far event slipped past the drain");
                if at > t {
                    break;
                }
                let (_, seq) = self.far.pop().expect("peeked event exists");
                self.due_buf.push(seq);
            }
            let bucket = &mut self.buckets[t as usize & (WHEEL - 1)];
            self.due_buf.append(bucket);
            self.due_buf[mark..].sort_unstable();
            t += 1;
        }
        self.len -= self.due_buf.len();
        self.cursor = now + 1;
        self.next_lb = if self.len == 0 { u64::MAX } else { self.cursor };
    }

    /// Every pending event sorted by `(at, seq)` — the canonical order
    /// snapshots serialize (wheel and heap layout order is not
    /// deterministic). Bucket residents recover their absolute cycle
    /// from the slot index: the unique `t` in `[cursor, cursor + WHEEL)`
    /// congruent to the slot.
    fn sorted_events(&self) -> Vec<(u64, u64)> {
        let mut events: Vec<(u64, u64)> = self
            .far
            .ats
            .iter()
            .copied()
            .zip(self.far.seqs.iter().copied())
            .collect();
        for (slot, bucket) in self.buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut t = (self.cursor & !(WHEEL as u64 - 1)) + slot as u64;
            if t < self.cursor {
                t += WHEEL as u64;
            }
            events.extend(bucket.iter().map(|&seq| (t, seq)));
        }
        events.sort_unstable();
        events
    }
}

/// Overflow store of the [`CompletionWheel`]: far-future events as a
/// structure-of-arrays binary min-heap keyed on `(complete_at, seq)` —
/// two parallel `u64` vectors instead of a vector of tuples, so the sift
/// paths (which compare `at` almost always and touch `seq` only on ties)
/// stream through dense, separately prefetchable arrays. Pop order is
/// the lexicographic `(at, seq)` minimum.
#[derive(Debug, Default)]
struct CompletionHeap {
    ats: Vec<u64>,
    seqs: Vec<u64>,
}

impl CompletionHeap {
    fn clear(&mut self) {
        self.ats.clear();
        self.seqs.clear();
    }

    #[inline]
    fn key(&self, i: usize) -> (u64, u64) {
        (self.ats[i], self.seqs[i])
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.ats.swap(a, b);
        self.seqs.swap(a, b);
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.ats.first().map(|&at| (at, self.seqs[0]))
    }

    fn push(&mut self, at: u64, seq: u64) {
        self.ats.push(at);
        self.seqs.push(seq);
        let mut i = self.ats.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(parent) <= self.key(i) {
                break;
            }
            self.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let n = self.ats.len();
        if n == 0 {
            return None;
        }
        self.swap(0, n - 1);
        let out = match (self.ats.pop(), self.seqs.pop()) {
            (Some(at), Some(seq)) => (at, seq),
            _ => return None,
        };
        let n = n - 1;
        let mut i = 0usize;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let smallest = if r < n && self.key(r) < self.key(l) {
                r
            } else {
                l
            };
            if self.key(i) <= self.key(smallest) {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::{AluOp, Inst, Reg, Width};

    /// Dispatches a hand-built record the way fetch does.
    fn put(w: &mut Window, di: DynInst) {
        w.dispatch(
            di.seq,
            &Decoded::of(&di.inst),
            di.pc,
            di.addr.unwrap_or(0),
            di.taken,
        );
    }

    fn alu(seq: u64, rd: u8, rs: u8, rt: u8) -> DynInst {
        DynInst {
            seq,
            pc: seq as u32,
            addr: None,
            taken: None,
            inst: Inst::Alu {
                op: AluOp::Add,
                rd: Reg::new(rd),
                rs: Reg::new(rs),
                rt: Reg::new(rt),
            },
        }
    }

    fn store(seq: u64, addr: u64) -> DynInst {
        DynInst {
            seq,
            pc: seq as u32,
            addr: Some(addr),
            taken: None,
            inst: Inst::Store {
                width: Width::Word,
                rs: Reg::new(1),
                base: Reg::new(2),
                offset: 0,
            },
        }
    }

    /// Checks `Decoded::of(inst)` against the `Inst` accessors it
    /// replaces on the dispatch path.
    fn agrees_with_accessors(inst: &Inst) -> Decoded {
        let d = Decoded::of(inst);
        let meta = InstMeta {
            mem: inst.is_mem(),
            store: inst.is_store(),
            halt: matches!(inst, Inst::Halt),
            class: inst.fu_class(),
        };
        assert_eq!(d.meta, meta, "{inst:?}");
        let mut uses = Vec::new();
        inst.for_each_use(|u| uses.push(u));
        let slot = |r: ArchReg| reg_slot(r) as u8;
        let decoded_uses: Vec<u8> = d.uses.into_iter().filter(|&u| u != NO_REG).collect();
        assert_eq!(
            decoded_uses,
            uses.iter().map(|&u| slot(u)).collect::<Vec<_>>()
        );
        assert!(
            d.uses[uses.len()..].iter().all(|&u| u == NO_REG),
            "{inst:?}"
        );
        let base = inst.mem_base().map(ArchReg::Int);
        let addr_uses = uses.iter().enumerate().fold(0u8, |m, (k, &u)| {
            m | u8::from(inst.is_store() && Some(u) == base) << k
        });
        assert_eq!(d.addr_uses, addr_uses, "{inst:?}");
        assert_eq!(d.def, inst.def().map_or(NO_REG, slot), "{inst:?}");
        let width = inst.mem_width().map_or(0, |w| w.bytes());
        assert_eq!(u64::from(d.width), width, "{inst:?}");
        d
    }

    #[test]
    fn decode_table_agrees_with_the_inst_accessors_on_every_analog() {
        for bench in hbdc_workloads::all() {
            let program = bench.build(hbdc_workloads::Scale::Test);
            for inst in program.text() {
                agrees_with_accessors(inst);
            }
        }
    }

    #[test]
    fn decode_table_edge_cases() {
        let p = hbdc_isa::asm::assemble(
            "main: add r0, r1, r0\n sw r1, 0(r1)\n add r1, r2, r2\n fld f3, 8(r2)\n\
             fsd f1, 0(r1)\n jal main\n halt\n",
        )
        .unwrap();
        let d: Vec<Decoded> = p.text().iter().map(agrees_with_accessors).collect();
        // A write of r0 defines nothing; a read of r0 is no operand.
        assert_eq!((d[0].uses, d[0].def), ([1, NO_REG], NO_REG));
        // The value register is also the base: both sources are address edges.
        assert_eq!((d[1].uses, d[1].addr_uses, d[1].width), ([1, 1], 0b11, 4));
        // A repeated source makes two edges.
        assert_eq!((d[2].uses, d[2].def), ([2, 2], 1));
        // FP load: an integer base, an FP def; FP store: only the base gates the address.
        assert_eq!((d[3].uses, d[3].def, d[3].width), ([2, NO_REG], 32 + 3, 8));
        assert_eq!((d[4].uses, d[4].addr_uses), ([32 + 1, 1], 0b10));
        // `jal` reads nothing and links into `ra` (r31).
        assert_eq!(
            (d[5].uses, d[5].def, d[5].meta.mem),
            ([NO_REG; 2], 31, false)
        );
        assert!(d[6].meta.halt);
    }

    #[test]
    fn independent_instructions_all_ready() {
        let mut w = Window::new(4);
        put(&mut w, alu(0, 1, 0, 0));
        put(&mut w, alu(1, 2, 0, 0));
        let mut ready = Vec::new();
        w.fill_ready(4, &mut ready);
        assert_eq!(ready, [0, 1]);
    }

    #[test]
    fn dependent_wakes_after_producer_completes() {
        let mut w = Window::new(4);
        put(&mut w, alu(0, 1, 0, 0)); // r1 = ...
        put(&mut w, alu(1, 2, 1, 0)); // r2 = r1 + ...
        let mut ready = Vec::new();
        w.fill_ready(4, &mut ready);
        assert_eq!(ready, [0]);
        w.mark_issued(0, Some(3));
        w.advance_completions(2);
        w.fill_ready(4, &mut ready);
        assert!(ready.is_empty());
        w.advance_completions(3);
        w.fill_ready(4, &mut ready);
        assert_eq!(ready, [1]);
    }

    #[test]
    fn chain_of_three() {
        let mut w = Window::new(8);
        put(&mut w, alu(0, 1, 0, 0));
        put(&mut w, alu(1, 2, 1, 0));
        put(&mut w, alu(2, 3, 2, 1)); // depends on both r2 and r1
        w.mark_issued(0, Some(1));
        w.advance_completions(1);
        let mut ready = Vec::new();
        w.fill_ready(8, &mut ready);
        assert_eq!(ready, [1]);
        w.mark_issued(1, Some(2));
        w.advance_completions(2);
        w.fill_ready(8, &mut ready);
        assert_eq!(ready, [2]);
    }

    #[test]
    fn anti_dependence_does_not_block() {
        // Write-after-read: consumer of old r1 dispatched after a new
        // producer of r1 must depend on the *latest prior* producer only.
        let mut w = Window::new(8);
        put(&mut w, alu(0, 1, 0, 0)); // r1 = v0
        put(&mut w, alu(1, 1, 0, 0)); // r1 = v1 (overwrites)
        put(&mut w, alu(2, 3, 1, 0)); // reads r1 → depends on seq 1 only
        w.mark_issued(1, Some(1));
        w.mark_issued(0, Some(99)); // old producer finishes late
        w.advance_completions(1);
        let mut ready = Vec::new();
        w.fill_ready(8, &mut ready);
        assert_eq!(ready, [2]);
    }

    #[test]
    fn commit_is_in_order_and_gated() {
        let mut w = Window::new(8);
        put(&mut w, alu(0, 1, 0, 0));
        put(&mut w, alu(1, 2, 0, 0));
        w.mark_issued(1, Some(1));
        w.advance_completions(1);
        // Younger is done, older is not: nothing commits.
        let mut retired = Vec::new();
        w.commit_compact_into(4, &mut retired);
        assert!(retired.is_empty());
        w.mark_issued(0, Some(2));
        w.advance_completions(2);
        w.commit_compact_into(4, &mut retired);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].seq, 0);
        assert_eq!(retired[1].seq, 1);
        assert!(w.is_empty());
    }

    #[test]
    fn store_commit_requires_access_done() {
        let mut w = Window::new(8);
        put(&mut w, store(0, 0x100));
        w.mark_issued(0, Some(1));
        w.advance_completions(1);
        let mut retired = Vec::new();
        w.commit_compact_into(1, &mut retired);
        assert!(retired.is_empty()); // access not yet performed
        w.mark_access_done(0);
        w.commit_compact_into(1, &mut retired);
        assert_eq!(retired.len(), 1);
        assert!(retired[0].meta.store);
    }

    #[test]
    fn oldest_not_done_tracks_frontier() {
        let mut w = Window::new(8);
        put(&mut w, alu(0, 1, 0, 0));
        put(&mut w, alu(1, 2, 0, 0));
        assert_eq!(w.oldest_not_done(), 0);
        w.mark_issued(0, Some(1));
        w.advance_completions(1);
        assert_eq!(w.oldest_not_done(), 1);
        w.mark_issued(1, Some(2));
        w.advance_completions(2);
        assert_eq!(w.oldest_not_done(), 2);
    }

    #[test]
    fn commit_width_respected() {
        let mut w = Window::new(8);
        for s in 0..4 {
            put(&mut w, alu(s, 1 + (s as u8 % 3), 0, 0));
        }
        for s in 0..4 {
            w.mark_issued(s, Some(1));
        }
        w.advance_completions(1);
        let mut retired = Vec::new();
        for _ in 0..2 {
            w.commit_compact_into(2, &mut retired);
            assert_eq!(retired.len(), 2);
        }
    }

    #[test]
    fn load_pending_completion_via_set_complete_at() {
        let mut w = Window::new(8);
        let ld = DynInst {
            seq: 0,
            pc: 0,
            addr: Some(0x40),
            taken: None,
            inst: Inst::Load {
                width: Width::Word,
                rd: Reg::new(1),
                base: Reg::new(2),
                offset: 0,
            },
        };
        put(&mut w, ld);
        put(&mut w, alu(1, 2, 1, 0)); // uses the loaded r1
        w.mark_issued(0, None); // completion unknown until grant
        w.advance_completions(100);
        assert!(!w.is_done(0));
        w.set_complete_at(0, 101);
        w.advance_completions(101);
        assert!(w.is_done(0));
        let mut ready = Vec::new();
        w.fill_ready(8, &mut ready);
        assert_eq!(ready, [1]);
    }

    #[test]
    #[should_panic(expected = "full window")]
    fn overfull_dispatch_panics() {
        let mut w = Window::new(1);
        put(&mut w, alu(0, 1, 0, 0));
        put(&mut w, alu(1, 2, 0, 0));
    }

    #[test]
    #[should_panic(expected = "out of program order")]
    fn out_of_order_dispatch_panics() {
        let mut w = Window::new(4);
        put(&mut w, alu(1, 1, 0, 0));
    }

    #[test]
    fn ring_wraps_at_a_non_power_of_two_capacity() {
        // Capacity 5 rides an 8-slot ring: the live span wraps the ring
        // (and the ready bitmap) every few commits.
        let mut w = Window::new(5);
        let mut next = 0u64;
        let (mut ready, mut retired) = (Vec::new(), Vec::new());
        for cycle in 1..=40u64 {
            while w.has_space() {
                // Each instruction reads the previous one's result.
                put(
                    &mut w,
                    alu(next, 1 + (next % 2) as u8, 2 - (next % 2) as u8, 0),
                );
                next += 1;
            }
            assert_eq!(w.len(), 5);
            w.fill_ready(5, &mut ready);
            assert_eq!(ready, [w.oldest_not_done()], "cycle {cycle}");
            w.mark_issued(ready[0], Some(cycle));
            w.advance_completions(cycle);
            w.commit_compact_into(1, &mut retired);
            assert_eq!(retired.len(), 1);
            assert_eq!(retired[0].seq, cycle - 1);
        }
    }

    #[test]
    fn save_load_round_trips_edges_in_dispatch_order() {
        let insts = [
            alu(0, 1, 0, 0), // r1
            alu(1, 2, 0, 0), // r2
            alu(2, 3, 1, 2), // edges 0→2, 1→2
            store(3, 0x80),  // data r1: edge 0→3; base r2: address edge 1→3
            alu(4, 4, 1, 1), // two edges 0→4
        ];
        let mut w = Window::new(6);
        for di in insts {
            put(&mut w, di);
        }
        let mut a = StateWriter::new();
        w.save_state(&mut a);
        let bytes = a.into_bytes();

        let mut restored = Window::new(6);
        let text = insts.map(|di| di.inst);
        restored
            .load_state(&mut StateReader::new(&bytes), &text)
            .unwrap();
        let mut b = StateWriter::new();
        restored.save_state(&mut b);
        assert_eq!(b.into_bytes(), bytes);

        let mut ready = Vec::new();
        for win in [&mut w, &mut restored] {
            win.mark_issued(1, Some(1));
            win.advance_completions(1);
            assert_eq!(win.drain_addr_ready().collect::<Vec<_>>(), vec![3]);
            win.fill_ready(6, &mut ready);
            assert_eq!(ready, [0]);
            win.mark_issued(0, Some(2));
            win.advance_completions(2);
            win.fill_ready(6, &mut ready);
            assert_eq!(ready, [2, 3, 4]);
        }
    }

    #[test]
    fn load_rejects_an_edge_to_a_non_live_consumer() {
        let mut w = StateWriter::new();
        w.put_u64(0); // base seq
        w.put_usize(1); // one entry...
        alu(0, 1, 0, 0).save_slim(&mut w);
        w.put_u8(State::Issued.tag());
        w.put_u32(0);
        w.put_u32(0);
        w.put_usize(1); // ...waking seq 5, which is not in the window
        w.put_u64(5);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let text = [alu(0, 1, 0, 0).inst];
        assert!(matches!(
            Window::new(4).load_state(&mut StateReader::new(&bytes), &text),
            Err(SnapError::Corrupt(_))
        ));
    }
}
