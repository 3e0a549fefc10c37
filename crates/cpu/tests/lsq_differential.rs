//! Differential test of the event-driven LSQ against a from-scratch model.
//!
//! A seeded schedule drives `Lsq` through its public API: dispatches with
//! sequence-number gaps (non-memory instructions), store bursts older
//! than the loads behind them, exact and partial overlaps (some spanning
//! two 8-byte blocks), addresses and store data resolved out of order, a
//! completion frontier that mostly advances but sometimes steps back,
//! grants taken from anywhere in the ready list (with repeated indices),
//! forced forwards, in-order retirement, and a `save_state`/`load_state`
//! round trip at random rounds. After every round the queue's `ready()`,
//! `take_forwards`, `stalls()` and `forwards()` must equal what
//! [`Model`] computes by reclassifying every entry with the §2.1 rules.

use hbdc_core::MemRequest;
use hbdc_cpu::{Lsq, LsqStalls};
use hbdc_snap::{StateReader, StateWriter};

/// xorshift64: a tiny seeded generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    addr: u64,
    width: u64,
    is_store: bool,
    addr_known: bool,
    data_known: bool,
    issued: bool,
    /// Stores: a frontier has passed it while it was eligible, so it
    /// joined the ready list (and stays there until issued).
    promoted: bool,
}

impl Entry {
    fn overlaps(&self, other: &Entry) -> bool {
        self.addr < other.addr + other.width && other.addr < self.addr + self.width
    }
}

/// One round as the §2.1 rules define it.
#[derive(Debug, Default)]
struct Round {
    ready: Vec<MemRequest>,
    forwards: Vec<u64>,
    stalls: LsqStalls,
}

/// The queue's contents in age order, classified from scratch each round.
#[derive(Default)]
struct Model {
    entries: Vec<Entry>,
    stalls: LsqStalls,
    forwards: u64,
}

impl Model {
    fn get(&mut self, seq: u64) -> &mut Entry {
        let k = self.entries.partition_point(|e| e.seq < seq);
        &mut self.entries[k]
    }

    fn round(&mut self, frontier: u64) -> Round {
        let mut r = Round::default();
        for e in &mut self.entries {
            if e.is_store && e.addr_known && e.data_known && !e.issued && e.seq < frontier {
                e.promoted = true;
            }
        }
        for (k, e) in self.entries.iter().enumerate() {
            if e.issued {
                continue;
            }
            if e.is_store {
                if e.promoted {
                    r.ready.push(MemRequest::store(e.seq, e.addr));
                }
                continue;
            }
            let older = &self.entries[..k];
            if !e.addr_known {
                r.stalls.addr_unknown += 1;
            } else if older.iter().any(|s| s.is_store && !s.addr_known) {
                r.stalls.prior_store_addr += 1;
            } else {
                match older.iter().rev().find(|s| s.is_store && s.overlaps(e)) {
                    None => r.ready.push(MemRequest::load(e.seq, e.addr)),
                    Some(s) if s.addr == e.addr && e.width <= s.width && s.data_known => {
                        r.forwards.push(e.seq);
                    }
                    Some(_) => r.stalls.store_overlap += 1,
                }
            }
        }
        self.stalls.addr_unknown += r.stalls.addr_unknown;
        self.stalls.prior_store_addr += r.stalls.prior_store_addr;
        self.stalls.store_overlap += r.stalls.store_overlap;
        r
    }
}

fn round_trip(lsq: &Lsq, capacity: usize) -> Lsq {
    let mut w = StateWriter::new();
    lsq.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut restored = Lsq::new(capacity);
    let mut r = StateReader::new(&bytes);
    restored.load_state(&mut r).expect("own snapshot loads");
    r.expect_end().expect("snapshot fully consumed");
    let mut again = StateWriter::new();
    restored.save_state(&mut again);
    assert_eq!(
        again.into_bytes(),
        bytes,
        "restored queue saves other bytes"
    );
    restored
}

/// Runs `rounds` rounds of the seeded schedule, checking every round.
fn run_schedule(seed: u64, rounds: usize) {
    const CAPACITY: usize = 48;
    let mut rng = Rng(seed | 1);
    let mut lsq = Lsq::new(CAPACITY);
    let mut model = Model::default();
    let (mut next_seq, mut frontier) = (0u64, 0u64);
    let mut restores = 0;
    for round in 0..rounds {
        // Dispatch: a store burst now and then, otherwise a mixed group,
        // with non-memory instructions between them.
        let burst = rng.chance(12);
        for _ in 0..if burst { 8 } else { rng.below(4) } {
            if !lsq.has_space() {
                break;
            }
            next_seq += 1 + rng.below(5);
            let is_store = burst || rng.chance(3);
            // 16 lines of 8 blocks: exact hits, partial overlaps and
            // block-straddling accesses are all frequent.
            let addr = 0x4000 + 8 * rng.below(16) + [0, 0, 2, 4, 6][rng.below(5) as usize];
            let width = [1, 2, 4, 8][rng.below(4) as usize];
            lsq.dispatch(next_seq, addr, width, is_store);
            model.entries.push(Entry {
                seq: next_seq,
                addr,
                width,
                is_store,
                addr_known: false,
                data_known: !is_store,
                issued: false,
                promoted: false,
            });
        }
        // Addresses and store data resolve out of order.
        for _ in 0..rng.below(5) {
            let pending: Vec<u64> = model
                .entries
                .iter()
                .filter(|e| !e.addr_known)
                .map(|e| e.seq)
                .collect();
            if pending.is_empty() {
                break;
            }
            // Stores lag: loads behind them pile up blocked.
            let seq = pending[rng.below(pending.len() as u64) as usize];
            if model.get(seq).is_store && rng.chance(2) {
                continue;
            }
            lsq.mark_addr_known(seq);
            model.get(seq).addr_known = true;
        }
        for _ in 0..rng.below(3) {
            let pending: Vec<u64> = model
                .entries
                .iter()
                .filter(|e| !e.data_known)
                .map(|e| e.seq)
                .collect();
            if let Some(&seq) = pending.get(rng.below(pending.len().max(1) as u64) as usize) {
                lsq.mark_data_known(seq);
                model.get(seq).data_known = true;
            }
        }
        // The frontier mostly advances, sometimes steps back.
        frontier = if rng.chance(6) {
            frontier.saturating_sub(rng.below(20))
        } else {
            frontier.max(next_seq.saturating_sub(rng.below(16)))
        };

        lsq.begin_round(frontier);
        let want = model.round(frontier);
        let mut forwards = Vec::new();
        lsq.take_forwards(&mut forwards);
        assert_eq!(
            lsq.ready(),
            &want.ready[..],
            "seed {seed} round {round}: ready"
        );
        assert_eq!(
            forwards, want.forwards,
            "seed {seed} round {round}: forwards"
        );
        assert_eq!(
            lsq.stalls(),
            model.stalls,
            "seed {seed} round {round}: stalls"
        );
        for &seq in &forwards {
            lsq.mark_forwarded(seq);
            model.get(seq).issued = true;
            model.forwards += 1;
        }
        assert_eq!(lsq.forwards(), model.forwards, "seed {seed} round {round}");

        // Grants from anywhere in the list, a repeated index now and
        // then, serviced in one call or (sometimes) one id at a time; a
        // forced forward of a ready load now and then.
        let ready = lsq.ready().to_vec();
        if !ready.is_empty() {
            let mut picks: Vec<usize> = (0..rng.below(5))
                .map(|_| {
                    if rng.chance(2) {
                        rng.below(3.min(ready.len() as u64)) as usize
                    } else {
                        rng.below(ready.len() as u64) as usize
                    }
                })
                .collect();
            if rng.chance(8) {
                for &p in &picks {
                    lsq.mark_issued(ready[p].id);
                }
            } else {
                lsq.issue_granted(&mut picks);
            }
            for &p in &picks {
                model.get(ready[p].id).issued = true;
            }
            let still = lsq.ready();
            if let Some(c) = still.get(rng.below(still.len().max(1) as u64) as usize) {
                let c = *c;
                if !c.is_store && rng.chance(10) {
                    lsq.mark_forwarded(c.id);
                    model.get(c.id).issued = true;
                    model.forwards += 1;
                }
            }
        }
        // In-order retirement of serviced entries.
        while let Some(e) = model.entries.first().filter(|e| e.issued) {
            lsq.retire(e.seq);
            model.entries.remove(0);
            if rng.chance(3) {
                break;
            }
        }
        if rng.chance(40) {
            lsq = round_trip(&lsq, CAPACITY);
            restores += 1;
            // Promotion is derived state: a restored queue holds every
            // eligible store back until a frontier passes it again (the
            // simulator's next round does: its frontier is monotone).
            for e in &mut model.entries {
                e.promoted = false;
            }
        }
        assert_eq!(lsq.len(), model.entries.len());
    }
    assert!(
        restores > 0,
        "seed {seed}: schedule never restored a snapshot"
    );
}

#[test]
fn lsq_matches_from_scratch_model() {
    for seed in [1, 0x9E37_79B9, 0xDEAD_BEEF, 42] {
        run_schedule(seed, 6_000);
    }
}
