//! Dispatch microbenchmark: the committed streams of the gcc and swim
//! analogs (`Scale::Test`) replayed through the window and LSQ dispatch
//! path, reported as thread-CPU nanoseconds per dispatched instruction.
//!
//! Each cycle dispatches up to eight instructions the way the simulator's
//! fetch does: one lookup in a per-pc decode table, `Window::dispatch`,
//! and `Lsq::dispatch` for a load or store. The machine then retires in
//! steady state: every ready entry issues and completes the next cycle (a
//! store's cache access with it), and up to eight entries commit from the
//! front, each load or store leaving the LSQ. The stream restarts when it
//! runs out, with sequence numbers still rising. The retiring half is the
//! same code on either side of a dispatch change, so the figure is an
//! upper bound on dispatch's own cost that moves only with dispatch.
//!
//! Run via `scripts/microbench.sh` or
//! `cargo bench -p hbdc-cpu --bench dispatch`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hbdc_cpu::{CommittedTrace, Decoded, Lsq, Retired, Window};
use hbdc_snap::clock::thread_cpu_time;
use hbdc_workloads::Scale;

const WIDTH: usize = 8;

/// One replayed record: what fetch hands dispatch.
struct Rec {
    pc: u32,
    addr: u64,
    taken: Option<bool>,
}

/// The replay loop: a window, an LSQ and the stream feeding them.
struct Machine {
    decoded: Vec<Decoded>,
    stream: Vec<Rec>,
    next: usize,
    seq: u64,
    now: u64,
    window: Window,
    lsq: Lsq,
    ready: Vec<u64>,
    retired: Vec<Retired>,
}

impl Machine {
    fn new(bench: &str) -> Self {
        let program = hbdc_workloads::by_name(bench)
            .expect("a bundled analog")
            .build(Scale::Test);
        let trace = CommittedTrace::capture(&program, 0, None).expect("capture");
        let mut player = trace.player();
        let stream = std::iter::from_fn(|| player.step())
            .map(|di| Rec {
                pc: di.pc,
                addr: di.addr.unwrap_or(0),
                taken: di.taken,
            })
            .collect();
        Self {
            decoded: program.text().iter().map(Decoded::of).collect(),
            stream,
            next: 0,
            seq: 0,
            now: 0,
            window: Window::new(1024),
            lsq: Lsq::new(512),
            ready: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// One cycle; returns the instructions it dispatched.
    fn step(&mut self) -> u64 {
        let w = &mut self.window;
        w.advance_completions(self.now);
        drop(w.drain_addr_ready());
        w.fill_ready(64, &mut self.ready);
        for &seq in &self.ready {
            w.mark_issued(seq, Some(self.now + 1));
            w.mark_access_done(seq);
        }
        let mut dispatched = 0;
        while dispatched < WIDTH && w.has_space() {
            let r = &self.stream[self.next];
            let op = &self.decoded[r.pc as usize];
            if op.meta.mem && !self.lsq.has_space() {
                break;
            }
            w.dispatch(self.seq, op, r.pc, r.addr, r.taken);
            if op.meta.mem {
                self.lsq
                    .dispatch(self.seq, r.addr, op.width.into(), op.meta.store);
            }
            self.seq += 1;
            self.next = (self.next + 1) % self.stream.len();
            dispatched += 1;
        }
        w.commit_compact_into(WIDTH as u32, &mut self.retired);
        for ret in &self.retired {
            if ret.meta.mem {
                self.lsq.retire(ret.seq);
            }
        }
        self.now += 1;
        dispatched as u64
    }
}

fn main() {
    // Thread CPU time where it can be read, so a timeshared host does
    // not inflate the samples; wall time otherwise.
    let wall = Instant::now();
    let now = || thread_cpu_time().unwrap_or_else(|| wall.elapsed());
    for bench in ["gcc", "swim"] {
        let mut m = Machine::new(bench);
        for _ in 0..20_000 {
            m.step();
        }
        let mut samples = Vec::new();
        let (mut cycles, mut insts) = (0u64, 0u64);
        for _ in 0..11 {
            let mut n = 0;
            let t: Duration = now();
            for _ in 0..50_000 {
                n += m.step();
            }
            let ns = (now() - t).as_nanos() as f64;
            samples.push(ns / n as f64);
            cycles += 50_000;
            insts += n;
        }
        black_box(m.window.len());
        samples.sort_by(f64::total_cmp);
        println!("bench: dispatch/{bench}");
        println!(
            "    {:.1} ns/inst median, {:.1} min, of {} samples ({:.2} inst/cycle)",
            samples[samples.len() / 2],
            samples[0],
            samples.len(),
            insts as f64 / cycles as f64,
        );
    }
}
