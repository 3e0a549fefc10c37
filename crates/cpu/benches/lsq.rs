//! LSQ classification microbenchmark: a seeded standing-backlog schedule
//! driven through the public `Lsq` API, reported as nanoseconds per event.
//!
//! Each simulated cycle dispatches a group of memory instructions (a
//! third stores, with store bursts now and then), resolves addresses and
//! store data after seeded delays, opens the round at the completion
//! frontier, services the forwards, grants the first reference per bank
//! of four (as a four-bank cache would) and retires the serviced prefix.
//! Loads stream over three arrays; a quarter re-read a recent store's
//! bytes, exactly or partially, so alias chains and forwarding are
//! frequent. Dispatch outruns the grants, so the queue stays full and
//! about 100 ready references stand in the list — the regime of the FP
//! stencils.
//!
//! An *event* is one call into the queue: dispatch, `mark_addr_known`,
//! `mark_data_known`, `begin_round`, `mark_forwarded`, one serviced
//! grant, or `retire`.
//!
//! Run via `scripts/microbench.sh` or `cargo bench -p hbdc-cpu --bench lsq`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hbdc_cpu::Lsq;
use hbdc_snap::clock::thread_cpu_time;

const CAPACITY: usize = 512;
/// Delay-wheel length; every delay is shorter.
const WHEEL: usize = 64;
/// Pipeline-side slots per sequence number: more than the in-flight span
/// (512 entries, at most 3 sequence numbers apart).
const SLOTS: usize = 4096;
const BANKS: u64 = 4;

/// xorshift64: a tiny seeded generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One in-flight memory instruction.
#[derive(Clone, Copy, Default)]
struct Inflight {
    /// Stores: operands (address, data) still unresolved. Loads: 1 until
    /// serviced. Zero means executed, which the frontier waits for.
    pending: u8,
    serviced: bool,
}

/// The closed loop: the queue plus the pipeline around it.
struct Pipeline {
    lsq: Lsq,
    rng: Rng,
    cycle: usize,
    next_seq: u64,
    /// In-flight memory instructions' sequence numbers, oldest first,
    /// their state at `seq % SLOTS`, and how many at the front have
    /// executed (the frontier's scan resumes there: `pending` only falls).
    inflight: VecDeque<u64>,
    state: Vec<Inflight>,
    executed: usize,
    /// Store address (`seq << 1`) and data (`seq << 1 | 1`) resolutions
    /// due per cycle.
    store_wheel: Vec<Vec<u64>>,
    /// Load address resolutions due per cycle.
    load_wheel: Vec<Vec<u64>>,
    recent_stores: [u64; 8],
    events: u64,
    ready_sum: u64,
    forwards: Vec<u64>,
    picks: Vec<usize>,
    granted: Vec<u64>,
    due: Vec<u64>,
}

impl Pipeline {
    fn new(seed: u64) -> Self {
        Self {
            lsq: Lsq::new(CAPACITY),
            rng: Rng(seed | 1),
            cycle: 0,
            next_seq: 0,
            inflight: VecDeque::new(),
            state: vec![Inflight::default(); SLOTS],
            executed: 0,
            store_wheel: vec![Vec::new(); WHEEL],
            load_wheel: vec![Vec::new(); WHEEL],
            recent_stores: [0x1_0000; 8],
            events: 0,
            ready_sum: 0,
            forwards: Vec::new(),
            picks: Vec::new(),
            granted: Vec::new(),
            due: Vec::new(),
        }
    }

    fn later(&mut self, max: u64) -> usize {
        (self.cycle + 1 + self.rng.below(max) as usize) % WHEEL
    }

    fn get(&mut self, seq: u64) -> &mut Inflight {
        &mut self.state[seq as usize % SLOTS]
    }

    fn dispatch(&mut self) {
        let burst = self.rng.below(16) == 0;
        for _ in 0..if burst { 8 } else { 6 } {
            if !self.lsq.has_space() {
                return;
            }
            self.next_seq += 1 + self.rng.below(3);
            let seq = self.next_seq;
            let is_store = burst || self.rng.below(3) == 0;
            let addr = if is_store {
                let a = 0x1_0000 + 8 * self.rng.below(4096);
                self.recent_stores[(seq % 8) as usize] = a;
                a
            } else if self.rng.below(4) == 0 {
                // Re-read a recent store: exactly, or straddling it.
                self.recent_stores[self.rng.below(8) as usize] + 4 * self.rng.below(2)
            } else {
                // Three streams, one 8-byte element per instruction.
                0x10_0000 * (1 + self.rng.below(3)) + 8 * (seq % 8192)
            };
            self.lsq.dispatch(seq, addr, 8, is_store);
            self.inflight.push_back(seq);
            *self.get(seq) = Inflight {
                pending: 1 + u8::from(is_store),
                serviced: false,
            };
            self.events += 1;
            if is_store {
                // Address and data resolve separately, in either order.
                let at = self.later(6);
                self.store_wheel[at].push(seq << 1);
                let at = self.later(12);
                self.store_wheel[at].push(seq << 1 | 1);
            } else {
                let at = self.later(24);
                self.load_wheel[at].push(seq);
            }
        }
    }

    fn service(&mut self, seq: u64) {
        let f = self.get(seq);
        f.serviced = true;
        f.pending = 0;
    }

    /// One cycle, counting its events.
    fn step(&mut self) {
        let slot = self.cycle % WHEEL;
        std::mem::swap(&mut self.due, &mut self.store_wheel[slot]);
        for k in 0..self.due.len() {
            let (seq, data) = (self.due[k] >> 1, self.due[k] & 1 == 1);
            if data {
                self.lsq.mark_data_known(seq);
            } else {
                self.lsq.mark_addr_known(seq);
            }
            self.get(seq).pending -= 1;
        }
        self.events += self.due.len() as u64;
        self.due.clear();
        std::mem::swap(&mut self.due, &mut self.load_wheel[slot]);
        for k in 0..self.due.len() {
            self.lsq.mark_addr_known(self.due[k]);
        }
        self.events += self.due.len() as u64;
        self.due.clear();

        // Stores may access the cache once everything older executed.
        while let Some(&seq) = self.inflight.get(self.executed) {
            if self.get(seq).pending > 0 {
                break;
            }
            self.executed += 1;
        }
        let frontier = self
            .inflight
            .get(self.executed)
            .map_or(self.next_seq + 1, |&seq| seq);
        self.lsq.begin_round(frontier);
        let mut forwards = std::mem::take(&mut self.forwards);
        self.lsq.take_forwards(&mut forwards);
        for &seq in &forwards {
            self.lsq.mark_forwarded(seq);
            self.service(seq);
        }
        self.events += 1 + forwards.len() as u64;
        self.forwards = forwards;

        // The first reference per bank.
        let ready = self.lsq.ready();
        self.ready_sum += ready.len() as u64;
        self.picks.clear();
        let mut taken = 0u8;
        for (k, r) in ready.iter().enumerate() {
            let bank = 1u8 << ((r.addr >> 5) % BANKS);
            if taken & bank == 0 {
                taken |= bank;
                self.picks.push(k);
                if self.picks.len() == BANKS as usize {
                    break;
                }
            }
        }
        self.granted.clear();
        self.granted.extend(self.picks.iter().map(|&k| ready[k].id));
        self.lsq.issue_granted(&mut self.picks);
        for k in 0..self.granted.len() {
            self.service(self.granted[k]);
        }
        self.events += self.picks.len() as u64;

        // Commit: retire the serviced prefix, eight per cycle.
        for _ in 0..8 {
            match self.inflight.front() {
                Some(&seq) if self.state[seq as usize % SLOTS].serviced => {
                    self.lsq.retire(seq);
                    self.inflight.pop_front();
                    self.executed = self.executed.saturating_sub(1);
                    self.events += 1;
                }
                _ => break,
            }
        }
        self.dispatch();
        self.cycle += 1;
    }
}

fn main() {
    let mut d = Pipeline::new(0x5EED);
    // Fill the queue and settle the backlog before timing.
    for _ in 0..20_000 {
        d.step();
    }
    let mut samples = Vec::new();
    let (mut cycles, mut events, mut ready) = (0u64, 0u64, 0u64);
    // Thread CPU time where it can be read, so a timeshared host does
    // not inflate the samples; wall time otherwise.
    let wall = Instant::now();
    let now = || thread_cpu_time().unwrap_or_else(|| wall.elapsed());
    for _ in 0..11 {
        let (e0, r0) = (d.events, d.ready_sum);
        let t: Duration = now();
        for _ in 0..50_000 {
            d.step();
        }
        let ns = (now() - t).as_nanos() as f64;
        samples.push(ns / (d.events - e0) as f64);
        cycles += 50_000;
        events += d.events - e0;
        ready += d.ready_sum - r0;
    }
    black_box(d.lsq.len());
    samples.sort_by(f64::total_cmp);
    println!("bench: lsq/standing-backlog");
    println!(
        "    {:.1} ns/event median, {:.1} min, of {} samples \
         ({:.1} events/cycle, {:.0} ready refs/cycle)",
        samples[samples.len() / 2],
        samples[0],
        samples.len(),
        events as f64 / cycles as f64,
        ready as f64 / cycles as f64,
    );
}
