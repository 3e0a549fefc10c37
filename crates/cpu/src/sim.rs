//! The cycle-by-cycle pipeline simulator.

use hbdc_core::audit::check_round;
use hbdc_core::{ArbStats, PortConfig, PortModel, Violation};
use hbdc_isa::Program;
use hbdc_mem::{Hierarchy, HierarchyConfig};
use hbdc_snap::clock::thread_cpu_time;

use crate::bpred::{BranchPredictor, FrontEnd};
use crate::config::CpuConfig;
use crate::dynamic::DynInst;
use crate::error::SimError;
use crate::fu::FuPools;
use crate::lsq::Lsq;
use crate::report::SimReport;
use crate::trace::{CommittedTrace, TracePlayer};
use crate::window::{Decoded, Window};

/// The dynamic superscalar timing simulator (paper Figure 1): a perfect
/// front end feeding an RUU + LSQ execution core whose data supply is
/// arbitrated by a pluggable [`PortModel`] over a two-level
/// [`Hierarchy`].
///
/// Every IPC number in the paper's Tables 3 and 4 is regenerated by
/// constructing one of these per (benchmark, port-model) pair and calling
/// [`run`](Self::run).
///
/// # Examples
///
/// ```
/// use hbdc_cpu::{CpuConfig, Simulator};
/// use hbdc_core::PortConfig;
/// use hbdc_isa::asm::assemble;
/// use hbdc_mem::HierarchyConfig;
///
/// let p = assemble("main: li r1, 1\n li r2, 2\n add r3, r1, r2\n halt\n")?;
/// let report = Simulator::new(
///     &p,
///     CpuConfig::default(),
///     HierarchyConfig::default(),
///     PortConfig::Ideal { ports: 2 },
/// )
/// .run()?;
/// assert_eq!(report.committed, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    // Fields are crate-visible so the checkpoint module (`snapshot.rs`)
    // can serialize and restore them without a forest of accessors.
    // The instruction source: the captured committed stream (kept whole
    // so checkpoints are self-contained; it embeds the program) and the
    // replay cursor fetch reads it through.
    pub(crate) trace: CommittedTrace,
    pub(crate) player: TracePlayer,
    // The trace program's text decoded once, indexed by pc: fetch and
    // dispatch read an entry instead of matching on the instruction.
    pub(crate) decoded: Vec<Decoded>,
    pub(crate) window: Window,
    pub(crate) lsq: Lsq,
    pub(crate) fus: FuPools,
    pub(crate) port: Box<dyn PortModel>,
    // The port configuration `port` was built from, or (with
    // `with_port_model`) stands in for: it labels the report, sizes the
    // statistics and bounds the generic audit.
    pub(crate) port_cfg: PortConfig,
    // Whether `port` is `port_cfg`'s own model, so a checkpoint can
    // embed the configuration and `resume` rebuild the same model.
    pub(crate) resumable: bool,
    // The run's arbitration statistics: each round's offered and granted
    // counts are recorded here, and the model adds its denial causes.
    pub(crate) arb: ArbStats,
    pub(crate) hier: Hierarchy,
    pub(crate) cfg: CpuConfig,
    pub(crate) now: u64,
    pub(crate) committed: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) pending_fetch: Option<DynInst>,
    pub(crate) fetch_done: bool,
    pub(crate) halted: bool,
    pub(crate) last_commit_cycle: u64,
    // Per-cycle scratch buffers, allocated once and reused so the hot
    // loop performs no heap allocation in steady state.
    issue_buf: Vec<u64>,
    forwards_buf: Vec<u64>,
    granted_buf: Vec<usize>,
    serviced_buf: Vec<usize>,
    // Bit `g` is set once this round's ready reference `g` has been
    // serviced, so a repeated grant schedules no second completion. One
    // bit per LSQ entry (the ready list never outgrows the LSQ); clear
    // between rounds.
    serviced_bits: Vec<u64>,
    commit_buf: Vec<crate::window::Retired>,
    // Auditor scratch: stays empty (and allocation-free) on clean cycles.
    audit_buf: Vec<Violation>,
    // Thread CPU time accumulated inside `run` (simulator throughput).
    cpu: std::time::Duration,
    pub(crate) predictor: Option<Box<dyn BranchPredictor>>,
    redirect_penalty: u32,
    // Misprediction recovery: fetch stalls until `stall_on` resolves,
    // then resumes at `fetch_resume_at`.
    pub(crate) stall_on: Option<u64>,
    pub(crate) fetch_resume_at: u64,
    pub(crate) branches: u64,
    pub(crate) mispredicts: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("port", &self.port_cfg.label())
            .field("cycle", &self.now)
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

impl CpuConfig {
    /// The record count [`Simulator::new`] captures for this
    /// configuration: one record more than fetch can consume before the
    /// run must end, or `None` (run to the program's halt) when neither
    /// cap is set. A trace whose capture stopped at or past this many
    /// records replays exactly like a complete one.
    ///
    /// Fetch steps a record only into a free window slot or the one
    /// `pending_fetch` slot, which it fills only while the window has room,
    /// so stepped records never exceed `committed + ruu_size`. It fetches
    /// only in a cycle that starts with `committed < max_insts` (commit sets
    /// `halted` at the cap, before the next cycle). So a run consumes at
    /// most `max_insts - 1 + ruu_size < max_insts + ruu_size + 1` records.
    /// The run loop starts no cycle at `now >= max_cycles`, and one cycle
    /// steps at most `fetch_width` records, so a run consumes at most
    /// `max_cycles × fetch_width`. The final extra record keeps fetch off
    /// the end of a capped trace, and lets the cycle-limit dump's
    /// [`peek_pc`](TracePlayer::peek_pc) read a real pc. Saturating
    /// arithmetic makes an unset cap (`u64::MAX`) unbounded.
    pub fn capture_bound(&self) -> Option<u64> {
        if self.max_insts == u64::MAX && self.max_cycles == u64::MAX {
            return None;
        }
        let by_insts = self
            .max_insts
            .saturating_add(self.ruu_size as u64)
            .saturating_add(1);
        let by_cycles = self.max_cycles.saturating_mul(u64::from(self.fetch_width));
        Some(by_insts.min(by_cycles).saturating_add(1))
    }
}

impl Simulator {
    /// Builds a simulator for `program` with the given machine, memory,
    /// and port-model configurations: the program's committed stream is
    /// captured once (past `cfg.warmup_insts`, bounded by `cfg`'s caps)
    /// and the timing model replays it.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate port configuration; use
    /// [`try_new`](Self::try_new) to get a typed error instead.
    pub fn new(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
    ) -> Self {
        let trace = CommittedTrace::capture(program, cfg.warmup_insts, cfg.capture_bound())
            .expect("capturing the committed stream");
        let port = port_cfg.build(hier_cfg.l1_line);
        Self::build(trace, cfg, hier_cfg, port_cfg, port)
    }

    /// Builds a simulator after validating both the machine and the port
    /// configuration, so degenerate inputs surface as
    /// [`SimError::Config`] instead of a panic.
    ///
    /// # Errors
    ///
    /// * [`SimError::Config`] describing the first problem found.
    /// * [`SimError::Trace`] if capturing the committed stream fails.
    pub fn try_new(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()
            .map_err(|detail| SimError::Config { detail })?;
        let port = port_cfg
            .try_build(hier_cfg.l1_line)
            .map_err(|detail| SimError::Config { detail })?;
        let trace = CommittedTrace::capture(program, cfg.warmup_insts, cfg.capture_bound())
            .map_err(|e| SimError::Trace {
                detail: format!("capturing the committed stream: {e}"),
            })?;
        Ok(Self::build(trace, cfg, hier_cfg, port_cfg, port))
    }

    /// Builds a simulator around an explicit port model instance that
    /// stands in for `port_cfg` — the escape hatch for models
    /// [`PortConfig`] cannot express (e.g. a `FaultInjector` wrapping
    /// `port_cfg`'s model). `port_cfg` labels the report, sizes the
    /// statistics and bounds the audit. Its snapshots cannot be resumed:
    /// they carry no port configuration to rebuild the model from.
    ///
    /// # Panics
    ///
    /// Panics if capturing the committed stream fails; use
    /// [`try_new`](Self::try_new) to get a typed error instead.
    pub fn with_port_model(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
        port: Box<dyn PortModel>,
    ) -> Self {
        let trace = CommittedTrace::capture(program, cfg.warmup_insts, cfg.capture_bound())
            .expect("capturing the committed stream");
        let mut sim = Self::build(trace, cfg, hier_cfg, port_cfg, port);
        sim.resumable = false;
        sim
    }

    /// Builds a simulator that replays a trace captured elsewhere (e.g.
    /// read from an HBTR file, or shared across a matrix row). For a
    /// trace captured from the same program with the same
    /// `warmup_insts`, the report equals [`new`](Self::new)'s.
    ///
    /// # Errors
    ///
    /// * [`SimError::Config`] — degenerate machine or port configuration
    ///   (same checks as [`try_new`](Self::try_new)).
    /// * [`SimError::Trace`] — the trace's warmup disagrees with
    ///   `cfg.warmup_insts` (the stream would start at a different
    ///   measurement point), or the capture was truncated by a cap
    ///   below [`CpuConfig::capture_bound`] (the stream could starve
    ///   fetch before the run ends). An incomplete trace of at least
    ///   that many records is accepted, as [`new`](Self::new) accepts
    ///   its own bounded capture.
    pub fn try_from_trace(
        trace: &CommittedTrace,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()
            .map_err(|detail| SimError::Config { detail })?;
        let port = port_cfg
            .try_build(hier_cfg.l1_line)
            .map_err(|detail| SimError::Config { detail })?;
        if trace.warmup_insts() != cfg.warmup_insts {
            return Err(SimError::Trace {
                detail: format!(
                    "trace was captured with warmup {} but the configuration asks for {}; \
                     recapture with the matching warmup",
                    trace.warmup_insts(),
                    cfg.warmup_insts
                ),
            });
        }
        let covered = cfg.capture_bound().is_some_and(|b| trace.records() >= b);
        if !trace.is_complete() && !covered {
            return Err(SimError::Trace {
                detail: format!(
                    "trace is incomplete ({} records, capture cap hit before halt); \
                     replaying it could starve fetch before the run ends",
                    trace.records()
                ),
            });
        }
        Ok(Self::build(trace.clone(), cfg, hier_cfg, port_cfg, port))
    }

    /// Assembles the simulator around `trace` with its player at record
    /// 0 and `port`, the model `port_cfg` builds. The trace may be
    /// incomplete only if its cap covers everything fetch can consume
    /// under `cfg` (see [`CpuConfig::capture_bound`]); fetch reaching its
    /// end fails the run instead of ending it early.
    pub(crate) fn build(
        trace: CommittedTrace,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
        port: Box<dyn PortModel>,
    ) -> Self {
        let hier = Hierarchy::new(hier_cfg);
        Self {
            player: trace.player(),
            decoded: trace.program().text().iter().map(Decoded::of).collect(),
            trace,
            window: Window::new(cfg.ruu_size),
            lsq: Lsq::new(cfg.lsq_size),
            fus: FuPools::new(&cfg),
            port,
            port_cfg,
            resumable: true,
            arb: ArbStats::new(port_cfg.peak()),
            hier,
            cfg,
            now: 0,
            committed: 0,
            loads: 0,
            stores: 0,
            pending_fetch: None,
            fetch_done: false,
            halted: false,
            last_commit_cycle: 0,
            issue_buf: Vec::new(),
            forwards_buf: Vec::new(),
            serviced_buf: Vec::new(),
            serviced_bits: vec![0; cfg.lsq_size.div_ceil(64)],
            granted_buf: Vec::new(),
            commit_buf: Vec::new(),
            audit_buf: Vec::new(),
            cpu: std::time::Duration::ZERO,
            predictor: match cfg.front_end {
                FrontEnd::Perfect => None,
                FrontEnd::Predicted { kind, .. } => Some(kind.build()),
            },
            redirect_penalty: match cfg.front_end {
                FrontEnd::Perfect => 0,
                FrontEnd::Predicted {
                    redirect_penalty, ..
                } => redirect_penalty,
            },
            stall_on: None,
            fetch_resume_at: 0,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// The error for fetch reaching the end of a capped capture: the
    /// bound should have made this impossible, so it fails the run
    /// rather than ending it with a shorter report.
    #[cold]
    fn exhausted_capture(&self) -> SimError {
        SimError::Trace {
            detail: format!(
                "fetch reached the end of an incomplete trace ({} records) at cycle {}; \
                 the capture bound is too small for this configuration",
                self.trace.records(),
                self.now
            ),
        }
    }

    /// Cumulative LSQ load-stall diagnostics (per ready-list scan).
    pub fn lsq_stalls(&self) -> crate::lsq::LsqStalls {
        self.lsq.stalls()
    }

    fn issue(&mut self) {
        self.window
            .fill_ready(self.cfg.issue_width as usize, &mut self.issue_buf);
        let mut mem_issued = 0u32;
        for i in 0..self.issue_buf.len() {
            let seq = self.issue_buf[i];
            let meta = self.window.meta(seq);
            if meta.mem {
                if mem_issued >= self.cfg.ls_units {
                    continue; // all AGUs busy this cycle — retry next
                }
                mem_issued += 1;
                // The cache access is arbitrated separately. Loads'
                // addresses become known here; stores' addresses were
                // published when their base register became available
                // (the addr-ready event stream), so issue only marks
                // their data available.
                if meta.store {
                    self.lsq.mark_data_known(seq);
                    self.window.mark_issued(seq, Some(self.now + 1));
                } else {
                    self.lsq.mark_addr_known(seq);
                    self.window.mark_issued(seq, None);
                }
            } else {
                // A structural hazard leaves it ready to retry next cycle.
                if let Some(lat) = self.fus.try_issue(meta.class, self.now) {
                    self.window.mark_issued(seq, Some(self.now + lat.total));
                }
            }
        }
    }

    /// The memory stage's one arbitration round: classify the LSQ,
    /// service forwards, arbitrate the borrowed ready list, and service
    /// the grants. With [`audit`](CpuConfig::audit) on, the grants are
    /// checked before they are serviced, so an illegal round is reported
    /// instead of corrupting window/LSQ/hierarchy state.
    fn arbitrate_memory(&mut self) -> Result<(), SimError> {
        let frontier = self.window.oldest_not_done();
        self.lsq.begin_round(frontier);

        self.lsq.take_forwards(&mut self.forwards_buf);
        for k in 0..self.forwards_buf.len() {
            let seq = self.forwards_buf[k];
            self.lsq.mark_forwarded(seq);
            self.window.set_complete_at(seq, self.now + 1);
        }

        // An empty round is still presented so store queues can drain.
        let ready = self.lsq.ready();
        self.port
            .arbitrate_into(ready, &mut self.granted_buf, &mut self.arb);
        self.arb.record_round(ready.len(), self.granted_buf.len());
        if self.cfg.audit {
            self.audit_buf.clear();
            check_round(
                &self.port_cfg,
                &*self.port,
                ready,
                &self.granted_buf,
                &mut self.audit_buf,
            );
            self.lsq
                .audit_round(frontier, ready, &self.forwards_buf, &mut self.audit_buf);
            if !self.audit_buf.is_empty() {
                return Err(SimError::Invariant {
                    cycle: self.now,
                    violations: std::mem::take(&mut self.audit_buf),
                });
            }
        }
        // Every grant reaches the hierarchy (a duplicated one twice), but a
        // load's completion is scheduled by its first serviced grant only;
        // the serviced ones leave the ready list together afterwards.
        self.serviced_buf.clear();
        for &g in &self.granted_buf {
            let c = ready[g];
            let outcome = self.hier.access(c.addr, c.is_store, self.now);
            if outcome.rejected {
                continue; // MSHRs full: retry next cycle
            }
            self.serviced_buf.push(g);
            let (word, bit) = (&mut self.serviced_bits[g / 64], 1u64 << (g % 64));
            let first = *word & bit == 0;
            *word |= bit;
            if c.is_store {
                self.window.mark_access_done(c.id);
            } else if first {
                self.window.set_complete_at(c.id, outcome.ready_at);
            }
        }
        for &g in &self.serviced_buf {
            self.serviced_bits[g / 64] = 0;
        }
        self.lsq.issue_granted(&mut self.serviced_buf);
        Ok(())
    }

    fn fetch(&mut self) -> Result<(), SimError> {
        // Misprediction recovery: wait for the branch to resolve, then
        // for the redirect penalty to elapse.
        if let Some(seq) = self.stall_on {
            if self.window.resolved(seq) {
                self.stall_on = None;
                self.fetch_resume_at = self.now + 1 + self.redirect_penalty as u64;
            }
            return Ok(());
        }
        if self.now < self.fetch_resume_at {
            return Ok(());
        }
        for _ in 0..self.cfg.fetch_width {
            if !self.window.has_space() {
                break;
            }
            let (seq, pc, addr, taken) = match self.pending_fetch.take() {
                Some(di) => (di.seq, di.pc, di.addr.unwrap_or(0), di.taken),
                None => match self.player.next_record() {
                    Some(p) => (self.player.delivered() - 1, p.pc, p.addr, p.taken()),
                    None if self.trace.is_complete() => {
                        self.fetch_done = true;
                        break;
                    }
                    None => return Err(self.exhausted_capture()),
                },
            };
            let op = &self.decoded[pc as usize];
            if op.meta.mem && !self.lsq.has_space() {
                // Parked until the LSQ frees an entry: the one place fetch
                // builds a full record.
                self.pending_fetch = Some(DynInst {
                    seq,
                    pc,
                    inst: self.trace.program().text()[pc as usize],
                    addr: Some(addr),
                    taken,
                });
                break;
            }
            self.window.dispatch(seq, op, pc, addr, taken);
            if op.meta.mem {
                self.lsq.dispatch(seq, addr, op.width.into(), op.meta.store);
            }
            if let (Some(pred), Some(actual)) = (self.predictor.as_mut(), taken) {
                self.branches += 1;
                let guess = pred.predict(pc);
                pred.train(pc, actual);
                if guess != actual {
                    // Fetch runs down the wrong path until this branch
                    // resolves; with a functional-first oracle stream we
                    // model that as fetch starvation.
                    self.mispredicts += 1;
                    self.stall_on = Some(seq);
                    break;
                }
            }
        }
        Ok(())
    }

    fn commit(&mut self) {
        let remaining = self.cfg.max_insts.saturating_sub(self.committed);
        let width = (self.cfg.commit_width as u64).min(remaining) as u32;
        self.window.commit_compact_into(width, &mut self.commit_buf);
        if !self.commit_buf.is_empty() {
            self.last_commit_cycle = self.now;
        }
        for k in 0..self.commit_buf.len() {
            let ret = self.commit_buf[k];
            if ret.meta.mem {
                self.lsq.retire(ret.seq);
                if ret.meta.store {
                    self.stores += 1;
                } else {
                    self.loads += 1;
                }
            }
            self.committed += 1;
            if ret.meta.halt || self.committed >= self.cfg.max_insts {
                self.halted = true;
            }
        }
    }

    fn done(&self) -> bool {
        self.halted || (self.fetch_done && self.window.is_empty() && self.pending_fetch.is_none())
    }

    /// Executes one machine cycle.
    fn cycle(&mut self) -> Result<(), SimError> {
        self.window.advance_completions(self.now);
        for seq in self.window.drain_addr_ready() {
            self.lsq.mark_addr_known(seq);
        }
        self.issue();
        self.arbitrate_memory()?;
        self.fetch()?;
        self.commit();
        self.port.tick(&mut self.arb);
        self.now += 1;
        Ok(())
    }

    /// Window state census: (waiting, ready, issued, done).
    #[doc(hidden)]
    pub fn census(&self) -> (usize, usize, usize, usize) {
        self.window.state_census()
    }

    /// Runs to completion and returns the report.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — the forward-progress watchdog fired: no
    ///   instruction committed for
    ///   [`watchdog_cycles`](CpuConfig::watchdog_cycles) consecutive
    ///   cycles. The error carries a diagnostic dump of the window
    ///   census, LSQ occupancy, and arbitration counters. Always a model bug,
    ///   never a property of the workload.
    /// * [`SimError::CycleLimit`] — the run exceeded
    ///   [`max_cycles`](CpuConfig::max_cycles) without finishing.
    /// * [`SimError::Invariant`] — with [`audit`](CpuConfig::audit) on,
    ///   an arbitration round broke a structural legality rule.
    /// * [`SimError::Trace`] — fetch reached the end of an incomplete
    ///   trace (a capture bound too small for the configuration).
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.run_for(u64::MAX).map(|_| self.report())
    }

    /// Runs for at most `budget` further cycles.
    ///
    /// Returns `Ok(true)` when the workload finished within the budget and
    /// `Ok(false)` when the budget was exhausted first — the simulator is
    /// then paused at a cycle boundary, safe to checkpoint with
    /// [`save_snapshot`](Self::save_snapshot) or to continue with another
    /// `run_for` call. The watchdog and cycle-limit checks apply across
    /// calls exactly as they do within a single [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// The same failures as [`run`](Self::run).
    pub fn run_for(&mut self, budget: u64) -> Result<bool, SimError> {
        let start = thread_cpu_time();
        let result = self.run_for_inner(budget);
        if let (Some(start), Some(end)) = (start, thread_cpu_time()) {
            self.cpu += end.saturating_sub(start);
        }
        result
    }

    fn run_for_inner(&mut self, budget: u64) -> Result<bool, SimError> {
        let mut steps = 0u64;
        while !self.done() {
            if steps >= budget {
                return Ok(false);
            }
            if self.now >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    max_cycles: self.cfg.max_cycles,
                    committed: self.committed,
                    dump: self.progress_dump(),
                });
            }
            self.cycle()?;
            steps += 1;
            let stalled_for = self.now.saturating_sub(self.last_commit_cycle);
            if stalled_for >= self.cfg.watchdog_cycles {
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    committed: self.committed,
                    stalled_for,
                    dump: self.progress_dump(),
                });
            }
        }
        Ok(true)
    }

    /// The current simulated cycle.
    pub fn current_cycle(&self) -> u64 {
        self.now
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The diagnostic dump attached to watchdog and cycle-limit failures:
    /// cycle/PC progress, window census, LSQ occupancy, and the port's
    /// label and arbitration counters.
    fn progress_dump(&self) -> String {
        let (waiting, ready, issued, done) = self.window.state_census();
        let frontier = self.window.oldest_not_done();
        // The PC the machine is wedged on: the oldest incomplete
        // instruction, or (with an empty window) wherever fetch stands.
        let pc = self
            .window
            .pc_at(frontier)
            .unwrap_or_else(|| self.player.peek_pc());
        let a = &self.arb;
        format!(
            "  cycle {}, committed {}, pc {pc}\n  window: {}/{} (waiting {waiting}, \
             ready {ready}, issued {issued}, done {done}); completion frontier seq \
             {frontier}\n  {}\n  port: {}, offered {}, granted {}, rounds {}, \
             bank conflicts {}, combined {}, store serializations {}, port exhaustion {}, \
             store-queue full {}, store-queue drains {}",
            self.now,
            self.committed,
            self.window.len(),
            self.cfg.ruu_size,
            self.lsq.dump(),
            self.port_cfg.label(),
            a.offered(),
            a.granted(),
            a.rounds(),
            a.bank_conflicts,
            a.combined,
            a.store_serializations,
            a.port_exhaustion,
            a.sq_full_stalls,
            a.sq_drains,
        )
    }

    /// The report for the cycles simulated so far.
    pub fn report(&self) -> SimReport {
        let arb = &self.arb;
        let cpu_secs = self.cpu.as_secs_f64();
        SimReport {
            committed: self.committed,
            cycles: self.now,
            loads: self.loads,
            stores: self.stores,
            forwards: self.lsq.forwards(),
            l1_accesses: self.hier.l1_stats().accesses(),
            l1_misses: self.hier.l1_stats().misses(),
            l1_writebacks: self.hier.l1_stats().writebacks(),
            l2_accesses: self.hier.l2_stats().accesses(),
            l2_misses: self.hier.l2_stats().misses(),
            arb_offered: arb.offered(),
            arb_granted: arb.granted(),
            arb_rounds: arb.rounds(),
            bank_conflicts: arb.bank_conflicts,
            combined: arb.combined,
            store_serializations: arb.store_serializations,
            branches: self.branches,
            mispredicts: self.mispredicts,
            sq_drains: arb.sq_drains,
            sq_full_stalls: arb.sq_full_stalls,
            grants_per_round: arb.grants_per_round().iter().map(|(_, n)| n).collect(),
            port_label: self.port_cfg.label(),
            skipped_cycles: 0,
            cpu_secs,
            cycles_per_sec: if cpu_secs > 0.0 {
                self.now as f64 / cpu_secs
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    fn sim(src: &str, port: PortConfig) -> SimReport {
        let p = assemble(src).unwrap();
        Simulator::new(&p, CpuConfig::default(), HierarchyConfig::default(), port)
            .run()
            .unwrap()
    }

    const INDEPENDENT_ALU: &str = "main:
        li r1, 1
        li r2, 2
        li r3, 3
        li r4, 4
        li r5, 5
        li r6, 6
        li r7, 7
        li r8, 8
        halt
    ";

    #[test]
    fn independent_alu_ops_commit_fast() {
        let r = sim(INDEPENDENT_ALU, PortConfig::Ideal { ports: 1 });
        assert_eq!(r.committed, 9);
        // 64-wide machine: all independent, a handful of cycles at most.
        assert!(r.cycles < 10, "took {} cycles", r.cycles);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let src = "main:
            li r1, 0
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            halt
        ";
        let r = sim(src, PortConfig::Ideal { ports: 1 });
        assert_eq!(r.committed, 7);
        // Five dependent adds at 1 cycle each bound the runtime below.
        assert!(r.cycles >= 5, "only {} cycles", r.cycles);
    }

    #[test]
    fn loads_and_stores_reach_the_cache() {
        let src = ".data
            v: .space 64
            .text
            main:
            la r8, v
            lw r1, 0(r8)
            sw r1, 32(r8)
            lw r2, 32(r8)
            halt
        ";
        let r = sim(src, PortConfig::Ideal { ports: 2 });
        assert_eq!(r.loads, 2);
        assert_eq!(r.stores, 1);
        // The load of 32(r8) matches the store exactly: must forward.
        assert_eq!(r.forwards, 1);
        assert_eq!(r.l1_accesses, 2); // one load + one store; forward skipped
    }

    #[test]
    fn more_ports_never_hurt() {
        let src = ".data
            a: .space 4096
            .text
            main:
            la r8, a
            li r9, 64
            loop:
            lw r1, 0(r8)
            lw r2, 32(r8)
            lw r3, 64(r8)
            lw r4, 96(r8)
            addi r8, r8, 4
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let one = sim(src, PortConfig::Ideal { ports: 1 });
        let four = sim(src, PortConfig::Ideal { ports: 4 });
        assert_eq!(one.committed, four.committed);
        assert!(four.cycles <= one.cycles);
        assert!(four.ipc() > one.ipc());
    }

    #[test]
    fn halt_alone_works() {
        let r = sim("main: halt\n", PortConfig::Ideal { ports: 1 });
        assert_eq!(r.committed, 1);
    }

    #[test]
    fn max_insts_caps_run() {
        let p = assemble("main: j main\n").unwrap(); // infinite loop
        let r = Simulator::new(
            &p,
            CpuConfig {
                max_insts: 500,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .run()
        .unwrap();
        assert_eq!(r.committed, 500);
    }

    #[test]
    fn report_is_stable_after_run() {
        let p = assemble("main: li r1, 1\n halt\n").unwrap();
        let mut s = Simulator::new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        );
        let a = s.run().unwrap();
        let b = s.report();
        assert_eq!(a, b);
    }

    #[test]
    fn determinism_across_runs() {
        let src = ".data
            v: .space 512
            .text
            main:
            la r8, v
            li r9, 32
            loop:
            lw r1, 0(r8)
            addi r1, r1, 1
            sw r1, 0(r8)
            addi r8, r8, 8
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let a = sim(src, PortConfig::lbic(4, 2));
        let b = sim(src, PortConfig::lbic(4, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn store_heavy_replicated_slower_than_banked() {
        // A store-dominated kernel: replication serializes every store,
        // banking does not (matches the paper's compress/gcc observation).
        let src = ".data
            v: .space 8192
            .text
            main:
            la r8, v
            li r9, 200
            loop:
            sw r0, 0(r8)
            sw r0, 32(r8)
            sw r0, 64(r8)
            sw r0, 96(r8)
            addi r8, r8, 4
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let repl = sim(src, PortConfig::Replicated { ports: 4 });
        let bank = sim(src, PortConfig::banked(4));
        assert!(
            bank.ipc() > repl.ipc(),
            "bank {} vs repl {}",
            bank.ipc(),
            repl.ipc()
        );
        assert!(repl.store_serializations > 0);
    }

    /// A two-entry LSQ fills whenever a third load or store reaches
    /// fetch, which then parks it in `pending_fetch`. Every split of the
    /// run, parked or not, must resume to the straight run, with the
    /// parked instruction carried through the snapshot.
    #[test]
    fn split_points_with_a_parked_fetch_resume_bit_identically() {
        let p = assemble(
            ".data\nv: .space 512\n.text\nmain:\n la r8, v\n li r9, 10\n\
             loop:\n lw r1, 0(r8)\n lw r2, 128(r8)\n add r1, r1, r2\n sw r1, 256(r8)\n\
             fld f1, 384(r8)\n addi r8, r8, 8\n addi r9, r9, -1\n bnez r9, loop\n halt\n",
        )
        .unwrap();
        let cfg = CpuConfig {
            lsq_size: 2,
            ..CpuConfig::default()
        };
        for port in [PortConfig::banked(4), PortConfig::lbic(4, 2)] {
            let fresh = || Simulator::new(&p, cfg, HierarchyConfig::default(), port);
            let straight = fresh().run().unwrap();
            let (mut splits, mut parked) = (0u64, 0u64);
            for k in 1u64.. {
                let mut sim = fresh();
                if sim.run_for(k).unwrap() {
                    assert_eq!(sim.report(), straight, "{port:?}: full-budget run");
                    break;
                }
                parked += u64::from(sim.pending_fetch.is_some());
                let bytes = sim.save_snapshot().as_bytes().to_vec();
                let snap = crate::SimSnapshot::from_bytes(bytes).unwrap();
                let mut resumed = Simulator::resume(&snap).unwrap();
                assert_eq!(
                    resumed.pending_fetch, sim.pending_fetch,
                    "{port:?}: split {k}"
                );
                let report = resumed.run().unwrap();
                assert_eq!(report, straight, "{port:?}: split at step {k} diverged");
                splits += 1;
            }
            assert!(
                parked > 0 && parked < splits,
                "{port:?}: {parked} of {splits} splits had a parked fetch"
            );
        }
    }
}

#[cfg(test)]
mod ls_unit_tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    #[test]
    fn fewer_ls_units_slow_memory_codes() {
        let src = ".data\nv: .space 4096\n.text\nmain:\n la r8, v\n li r15, 200\nloop:\n \
                   lw r1, 0(r8)\n lw r2, 32(r8)\n lw r3, 64(r8)\n lw r4, 96(r8)\n \
                   addi r8, r8, 8\n andi r8, r8, 2047\n la r9, v\n add r8, r9, r8\n sub r8, r8, r9\n \
                   addi r15, r15, -1\n bnez r15, loop\n halt\n";
        let p = assemble(src).unwrap();
        let run = |ls_units: u32| {
            Simulator::new(
                &p,
                CpuConfig {
                    ls_units,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::Ideal { ports: 16 },
            )
            .run()
            .unwrap()
        };
        let narrow = run(1);
        let wide = run(16);
        assert_eq!(narrow.committed, wide.committed);
        assert!(
            narrow.cycles > wide.cycles,
            "1 L/S unit ({}) must be slower than 16 ({})",
            narrow.cycles,
            wide.cycles
        );
    }
}

#[cfg(test)]
mod front_end_tests {
    use super::*;
    use crate::bpred::PredictorKind;
    use hbdc_isa::asm::assemble;

    const LOOPY: &str = "main:
        li r9, 3000
    loop:
        addi r8, r8, 3
        andi r10, r9, 1
        bnez r10, skip
        addi r8, r8, 5
    skip:
        addi r9, r9, -1
        bnez r9, loop
        halt
    ";

    fn run(front_end: FrontEnd) -> (SimReport, u64, u64) {
        let p = assemble(LOOPY).unwrap();
        let mut sim = Simulator::new(
            &p,
            CpuConfig {
                front_end,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 2 },
        );
        let r = sim.run().unwrap();
        let (b, m) = (r.branches, r.mispredicts);
        (r, b, m)
    }

    #[test]
    fn perfect_front_end_counts_nothing() {
        let (_, branches, mispredicts) = run(FrontEnd::Perfect);
        assert_eq!(branches, 0);
        assert_eq!(mispredicts, 0);
    }

    #[test]
    fn predictors_slow_the_machine_but_commit_identically() {
        let (perfect, ..) = run(FrontEnd::Perfect);
        let (predicted, branches, mispredicts) = run(FrontEnd::Predicted {
            kind: PredictorKind::Bimodal { entries: 1024 },
            redirect_penalty: 2,
        });
        assert_eq!(perfect.committed, predicted.committed);
        assert!(branches > 0);
        assert!(
            mispredicts > 0,
            "the alternating branch must mispredict sometimes"
        );
        assert!(
            predicted.cycles > perfect.cycles,
            "mispredictions must cost cycles ({} vs {})",
            predicted.cycles,
            perfect.cycles
        );
    }

    #[test]
    fn gshare_beats_bimodal_on_patterned_branches() {
        let (_, b_bi, m_bi) = run(FrontEnd::Predicted {
            kind: PredictorKind::Bimodal { entries: 1024 },
            redirect_penalty: 2,
        });
        let (_, b_gs, m_gs) = run(FrontEnd::Predicted {
            kind: PredictorKind::Gshare {
                entries: 1024,
                history_bits: 8,
            },
            redirect_penalty: 2,
        });
        assert_eq!(b_bi, b_gs);
        // The alternating pattern is periodic: history-based prediction must
        // learn it, bimodal cannot.
        assert!(
            m_gs * 2 < m_bi,
            "gshare {m_gs} should mispredict far less than bimodal {m_bi}"
        );
    }

    #[test]
    fn redirect_penalty_monotone() {
        let run_with = |penalty| {
            run(FrontEnd::Predicted {
                kind: PredictorKind::AlwaysTaken,
                redirect_penalty: penalty,
            })
            .0
            .cycles
        };
        let fast = run_with(0);
        let slow = run_with(10);
        assert!(slow > fast, "penalty 10 ({slow}) vs 0 ({fast})");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use hbdc_core::{FaultClass, FaultInjector, MemRequest};
    use hbdc_isa::asm::assemble;

    /// A port model that never grants anything: memory instructions wedge
    /// forever, which is exactly what the watchdog must catch.
    struct NoGrant;

    impl PortModel for NoGrant {
        fn arbitrate_into(&mut self, _: &[MemRequest], granted: &mut Vec<usize>, _: &mut ArbStats) {
            granted.clear();
        }
    }

    /// A simulator whose single-ported cache refuses every request.
    fn wedged(program: &Program, watchdog_cycles: u64) -> Simulator {
        let cfg = CpuConfig {
            watchdog_cycles,
            ..CpuConfig::default()
        };
        let port = PortConfig::Ideal { ports: 1 };
        Simulator::with_port_model(
            program,
            cfg,
            HierarchyConfig::default(),
            port,
            Box::new(NoGrant),
        )
    }

    const ONE_LOAD: &str = ".data\nv: .space 8\n.text\nmain:\n la r8, v\n lw r1, 0(r8)\n halt\n";

    #[test]
    fn watchdog_catches_deadlock_with_diagnostic_dump() {
        let p = assemble(ONE_LOAD).unwrap();
        let err = wedged(&p, 500).run().unwrap_err();
        match err {
            SimError::Deadlock {
                stalled_for, dump, ..
            } => {
                assert!(stalled_for >= 500);
                assert!(dump.contains("window:"), "{dump}");
                assert!(dump.contains("LSQ"), "{dump}");
                // The stand-in is labelled by its configuration, and its
                // counters show the one load offered every round.
                assert!(dump.contains("port: True-1, offered "), "{dump}");
                assert!(dump.contains(", granted 0, "), "{dump}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_cap_catches_livelock() {
        // `j main` commits forever, so the watchdog never fires — only the
        // hard cycle cap can bound this run.
        let p = assemble("main: j main\n").unwrap();
        let err = Simulator::new(
            &p,
            CpuConfig {
                max_cycles: 1_000,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .run()
        .unwrap_err();
        match err {
            SimError::CycleLimit {
                max_cycles,
                committed,
                dump,
            } => {
                assert_eq!(max_cycles, 1_000);
                assert!(committed > 0, "the loop commits while it spins");
                assert!(dump.contains("cycle 1000"), "{dump}");
                assert!(dump.contains("pc "), "{dump}");
                assert!(dump.contains("window:"), "{dump}");
                assert!(dump.contains("LSQ"), "{dump}");
            }
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    }

    #[test]
    fn fetch_past_a_capped_capture_fails_the_run() {
        // `max_insts` 500 lets fetch consume up to 500 + ruu_size records;
        // a 100-record capture runs out first, which must fail the run
        // rather than end it with a shorter report.
        let p = assemble("main: j main\n").unwrap();
        let trace = CommittedTrace::capture(&p, 0, Some(100)).unwrap();
        assert!(!trace.is_complete());
        let port_cfg = PortConfig::Ideal { ports: 1 };
        let err = Simulator::build(
            trace,
            CpuConfig {
                max_insts: 500,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            port_cfg,
            port_cfg.build(HierarchyConfig::default().l1_line),
        )
        .run()
        .unwrap_err();
        match err {
            SimError::Trace { detail } => assert!(detail.contains("incomplete"), "{detail}"),
            other => panic!("expected Trace, got {other:?}"),
        }
    }

    #[test]
    fn diagnostic_dump_format_is_pinned() {
        // The dump is diagnostic UI that operators grep and scripts parse;
        // pin its structure — section order, prefixes, populated numeric
        // fields — so it cannot silently rot.
        let p = assemble(ONE_LOAD).unwrap();
        let err = wedged(&p, 300).run().unwrap_err();
        let SimError::Deadlock { dump, .. } = &err else {
            panic!("expected Deadlock, got {err:?}");
        };
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines.len() >= 4, "dump has header/window/LSQ/port: {dump}");

        // Line 1: "cycle N, committed M, pc P" with every field populated.
        let head = lines[0].trim_start();
        assert!(head.starts_with("cycle "), "{dump}");
        assert!(head.contains(", committed "), "{dump}");
        let pc = head.rsplit("pc ").next().unwrap_or("");
        pc.trim().parse::<u64>().expect("pc field is a number");
        let cycle = &head["cycle ".len()..head.find(',').unwrap()];
        assert!(cycle.trim().parse::<u64>().unwrap() > 0, "{dump}");

        // Line 2: window census with all four states and the frontier.
        let window = lines[1].trim_start();
        assert!(window.starts_with("window: "), "{dump}");
        for field in [
            "waiting ",
            "ready ",
            "issued ",
            "done ",
            "; completion frontier seq ",
        ] {
            assert!(window.contains(field), "missing `{field}` in: {dump}");
        }

        // Line 3: LSQ occupancy and head/tail sequence state.
        let lsq = lines[2].trim_start();
        assert!(lsq.starts_with("LSQ "), "{dump}");
        assert!(lsq.contains('/') && lsq.contains("head seq"), "{dump}");

        // Line 4: the port's label and arbitration counters.
        let port = lines[3].trim_start();
        assert!(port.starts_with("port: True-1, offered "), "{dump}");
        assert!(port.ends_with(", store-queue drains 0"), "{dump}");

        // The rendered error carries the headline and the full dump.
        let shown = err.to_string();
        assert!(shown.starts_with("pipeline deadlock at cycle "), "{shown}");
        assert!(
            shown.contains("window:") && shown.contains("LSQ "),
            "{shown}"
        );
    }

    const STRIDED_LOADS: &str = ".data\nv: .space 4096\n.text\nmain:\n la r8, v\n li r9, 64\n\
        loop:\n lw r1, 0(r8)\n lw r2, 64(r8)\n lw r3, 128(r8)\n sw r1, 192(r8)\n\
        addi r8, r8, 8\n addi r9, r9, -1\n bnez r9, loop\n halt\n";

    fn run_audited(audit: bool, port: PortConfig) -> SimReport {
        let p = assemble(STRIDED_LOADS).unwrap();
        Simulator::new(
            &p,
            CpuConfig {
                audit,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            port,
        )
        .run()
        .unwrap()
    }

    #[test]
    fn audited_runs_are_bit_identical_and_clean() {
        for port in [
            PortConfig::Ideal { ports: 4 },
            PortConfig::Replicated { ports: 4 },
            PortConfig::banked(4),
            PortConfig::lbic(4, 2),
        ] {
            let plain = run_audited(false, port);
            let audited = run_audited(true, port);
            assert_eq!(plain, audited, "{port:?}: auditing must not perturb");
        }
    }

    #[test]
    fn injected_faults_fail_audited_runs() {
        let p = assemble(STRIDED_LOADS).unwrap();
        let port = PortConfig::banked(2);
        let inj = FaultInjector::new(port, 32, FaultClass::BankDoubleGrant, 99).unwrap();
        let err = Simulator::with_port_model(
            &p,
            CpuConfig {
                audit: true,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            port,
            Box::new(inj),
        )
        .run()
        .unwrap_err();
        match err {
            SimError::Invariant { violations, .. } => {
                assert!(
                    violations.iter().any(|v| v.rule == "banked-double-grant"),
                    "{violations:?}"
                );
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_pass_unnoticed_without_audit() {
        // The same corrupted model runs to completion with auditing off —
        // demonstrating exactly the silent-corruption mode the auditor
        // exists to catch.
        let p = assemble(STRIDED_LOADS).unwrap();
        let port = PortConfig::banked(2);
        let inj = FaultInjector::new(port, 32, FaultClass::BankDoubleGrant, 99).unwrap();
        let r = Simulator::with_port_model(
            &p,
            CpuConfig {
                audit: false,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            port,
            Box::new(inj),
        )
        .run()
        .unwrap();
        assert!(r.committed > 0);
    }

    /// Counts every grant a wrapped model hands out, repeats included.
    struct CountGrants {
        inner: FaultInjector,
        grants: std::rc::Rc<std::cell::Cell<(u64, u64)>>, // (grants, fired rounds)
    }

    impl PortModel for CountGrants {
        fn arbitrate_into(
            &mut self,
            ready: &[MemRequest],
            granted: &mut Vec<usize>,
            stats: &mut ArbStats,
        ) {
            self.inner.arbitrate_into(ready, granted, stats);
            let (n, fired) = self.grants.get();
            let fired_now = u64::from(self.inner.fired_last_round());
            self.grants
                .set((n + granted.len() as u64, fired + fired_now));
        }
        fn tick(&mut self, stats: &mut ArbStats) {
            self.inner.tick(stats);
        }
    }

    /// Only stores touch memory, so every grant is a store's.
    const STRIDED_STORES: &str = ".data\nv: .space 4096\n.text\nmain:\n la r8, v\n li r9, 64\n\
        loop:\n sw r9, 0(r8)\n sw r9, 64(r8)\n sw r9, 128(r8)\n\
        addi r8, r8, 8\n addi r9, r9, -1\n bnez r9, loop\n halt\n";

    #[test]
    fn injected_repeat_and_overflow_grants_are_serviced_unaudited() {
        // A repeated grant index reaches the hierarchy twice but leaves
        // the ready list once; an extra grant past the peak is serviced
        // like any other. Either way the run completes with every grant
        // counted as an L1 access (MSHRs are plentiful, so none is
        // rejected) and every instruction committed. A repeated load
        // grant schedules the load's completion once.
        let hier = HierarchyConfig {
            mshr_entries: 1024,
            ..HierarchyConfig::default()
        };
        for (src, port, class) in [
            (
                STRIDED_STORES,
                PortConfig::banked(2),
                FaultClass::DuplicateGrant,
            ),
            (
                STRIDED_LOADS,
                PortConfig::Ideal { ports: 2 },
                FaultClass::DuplicateGrant,
            ),
            (
                STRIDED_LOADS,
                PortConfig::Ideal { ports: 2 },
                FaultClass::PeakOverflow,
            ),
        ] {
            let p = assemble(src).unwrap();
            let clean = Simulator::new(&p, CpuConfig::default(), hier, port)
                .run()
                .unwrap();
            let grants = std::rc::Rc::new(std::cell::Cell::new((0, 0)));
            let model = CountGrants {
                inner: FaultInjector::new(port, 32, class, 7).unwrap(),
                grants: grants.clone(),
            };
            let cpu = CpuConfig {
                audit: false,
                ..CpuConfig::default()
            };
            let r = Simulator::with_port_model(&p, cpu, hier, port, Box::new(model))
                .run()
                .unwrap();
            let (n, fired) = grants.get();
            assert!(fired > 0, "{class:?} never fired");
            assert_eq!(r.l1_accesses, n, "{class:?}: every grant is an access");
            assert_eq!(r.committed, clean.committed, "{class:?}");
            assert_eq!(r.loads + r.stores, clean.loads + clean.stores, "{class:?}");
        }
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let p = assemble("main: halt\n").unwrap();
        let err = Simulator::try_new(
            &p,
            CpuConfig {
                issue_width: 0,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::Config { .. }), "{err:?}");

        let err = Simulator::try_new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 0 },
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::Config { .. }), "{err:?}");
    }
}

#[cfg(test)]
mod warmup_tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    #[test]
    fn warmup_skips_initialization_from_timing() {
        // 1000 serial init instructions, then a short parallel body.
        let src = "main:
            li r9, 500
        init:
            addi r8, r8, 1
            addi r9, r9, -1
            bnez r9, init
            li r1, 1
            li r2, 2
            li r3, 3
            li r4, 4
            halt
        ";
        let p = assemble(src).unwrap();
        let run = |warmup| {
            Simulator::new(
                &p,
                CpuConfig {
                    warmup_insts: warmup,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::Ideal { ports: 4 },
            )
            .run()
            .unwrap()
        };
        let cold = run(0);
        let warmed = run(1501); // skip the whole init loop
        assert_eq!(warmed.committed, cold.committed - 1501);
        assert!(
            warmed.cycles < cold.cycles / 10,
            "warmup must remove the serial init ({} vs {})",
            warmed.cycles,
            cold.cycles
        );
    }

    #[test]
    fn warmup_past_the_end_yields_empty_run() {
        let p = assemble("main: nop\n halt\n").unwrap();
        let r = Simulator::new(
            &p,
            CpuConfig {
                warmup_insts: 100,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .run()
        .unwrap();
        assert_eq!(r.committed, 0);
    }
}
