//! Deterministic checkpoint/resume: versioned, checksummed snapshots of
//! the complete simulator state.
//!
//! A [`SimSnapshot`] captures everything a [`Simulator`] needs to
//! continue **bit-identically**: the committed-stream trace it replays
//! (which embeds the program) and the replay cursor, both
//! configurations, the window and LSQ with their full dependence
//! bookkeeping, pending completion events, functional-unit busy
//! horizons, cache hierarchy contents (tags, LRU, MSHRs, statistics),
//! branch-predictor tables, and the port model's internal state (bank
//! store queues, arbitration counters, fault-injector RNG). Resuming
//! from a snapshot taken at cycle *K* and running to completion produces
//! exactly the same [`SimReport`](crate::SimReport) as an uninterrupted
//! run.
//!
//! The byte format is sealed by [`hbdc_snap::seal`]: a magic/version
//! header plus an XXH64 ([`hbdc_snap::hash64`]) checksum over the
//! payload, so truncated or corrupted checkpoint files are rejected on
//! open rather than restored into silently wrong state. Snapshots persist atomically
//! (write-to-temp + rename), so a crash mid-write never clobbers the
//! previous good checkpoint.

use std::path::Path;

use hbdc_core::PortConfig;
use hbdc_snap::{open, write_atomic, SnapError, StateReader, StateWriter};

use crate::dynamic::DynInst;
use crate::error::SimError;
use crate::sim::Simulator;
use crate::{CommittedTrace, CpuConfig};
use hbdc_mem::HierarchyConfig;

/// Magic bytes identifying a simulator snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HBSN";

/// Snapshot format version; bump on any payload layout change.
/// Version history: 1 — initial format; 2 — added `cycle_skip` to the
/// embedded [`CpuConfig`] and the cumulative skipped-cycle count;
/// 3 — tagged instruction source (execute-mode architectural state, or
/// an embedded committed-stream trace plus replay cursor); 4 — dropped
/// `cycle_skip` and the skipped-cycle count with the idle-span skipper
/// (every cycle is stepped); 5 — one instruction source: the sealed trace
/// takes the program image's place at the front (it embeds the program),
/// and the source tag and the later trace field are gone; 6 — the
/// container checksum (and the embedded HBTR v2 trace's checksum and
/// program fingerprint) are [`hbdc_snap::hash64`] (XXH64) instead of
/// FNV-1a, with the payload layout unchanged; 7 — dropped the five
/// per-cycle pipeline histograms, the port model's ticked-cycle count
/// and the hierarchy's memory-writeback count, which no report read.
pub const SNAPSHOT_VERSION: u32 = 7;

/// A sealed, self-contained simulator checkpoint.
///
/// The snapshot embeds the program and both configurations, so
/// [`Simulator::resume`] needs nothing but the snapshot itself.
///
/// # Examples
///
/// ```
/// use hbdc_cpu::{CpuConfig, SimSnapshot, Simulator};
/// use hbdc_core::PortConfig;
/// use hbdc_isa::asm::assemble;
/// use hbdc_mem::HierarchyConfig;
///
/// let p = assemble("main: li r1, 1\n li r2, 2\n add r3, r1, r2\n halt\n")?;
/// let mut sim = Simulator::new(
///     &p,
///     CpuConfig::default(),
///     HierarchyConfig::default(),
///     PortConfig::Ideal { ports: 2 },
/// );
/// sim.run_for(1)?; // simulate one cycle, pause at the boundary
/// let snap = sim.save_snapshot();
/// let mut resumed = Simulator::resume(&snap)?;
/// assert_eq!(resumed.run()?.committed, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    bytes: Vec<u8>,
}

impl SimSnapshot {
    /// The sealed snapshot bytes (header, payload, checksum).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw bytes read from disk or the wire, verifying the magic,
    /// version, and payload checksum.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the bytes are not a valid snapshot of
    /// this version.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        open(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        Ok(Self { bytes })
    }

    /// Writes the snapshot to `path` atomically (temp file + rename), so
    /// an interrupted write leaves any previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Io`] on filesystem failure.
    pub fn write_to_path(&self, path: &Path) -> Result<(), SnapError> {
        write_atomic(path, &self.bytes)
    }

    /// Reads and verifies a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on I/O failure or an invalid/corrupt file.
    pub fn read_from_path(path: &Path) -> Result<Self, SnapError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapError::Io(format!("reading snapshot {}: {e}", path.display())))?;
        Self::from_bytes(bytes)
    }
}

fn save_slim_opt(di: &Option<DynInst>, w: &mut StateWriter) {
    match di {
        Some(di) => {
            w.put_bool(true);
            di.save_slim(w);
        }
        None => w.put_bool(false),
    }
}

impl Simulator {
    /// Captures the complete simulator state as a sealed snapshot.
    ///
    /// Call only at a cycle boundary (after construction or between
    /// [`run_for`](Self::run_for) slices); the per-cycle scratch buffers
    /// are then empty and excluded by construction.
    pub fn save_snapshot(&self) -> SimSnapshot {
        let mut w = StateWriter::sealed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        // Identity: the sealed trace (which embeds the program) and the
        // configurations, so the snapshot is self-contained.
        w.put_bytes(self.trace.as_bytes());
        match self.port_cfg {
            Some(cfg) => {
                w.put_bool(true);
                cfg.save_state(&mut w);
            }
            None => w.put_bool(false),
        }
        self.cfg.save_state(&mut w);
        self.hier.config().save_state(&mut w);
        // Run-progress scalars.
        w.put_u64(self.now);
        w.put_u64(self.committed);
        w.put_u64(self.loads);
        w.put_u64(self.stores);
        w.put_bool(self.fetch_done);
        w.put_bool(self.halted);
        w.put_u64(self.last_commit_cycle);
        w.put_u64(self.branches);
        w.put_u64(self.mispredicts);
        w.put_opt_u64(self.stall_on);
        w.put_u64(self.fetch_resume_at);
        save_slim_opt(&self.pending_fetch, &mut w);
        self.player.save_cursor(&mut w);
        // Unit state.
        self.window.save_state(&mut w);
        self.lsq.save_state(&mut w);
        self.fus.save_state(&mut w);
        self.hier.save_state(&mut w);
        match &self.predictor {
            Some(p) => {
                w.put_bool(true);
                p.save_state(&mut w);
            }
            None => w.put_bool(false),
        }
        self.port.save_state(&mut w);
        SimSnapshot {
            bytes: w.into_sealed(),
        }
    }

    /// Rebuilds a simulator from a snapshot, continuing bit-identically
    /// from the checkpointed cycle. The port model is rebuilt from the
    /// [`PortConfig`] embedded in the snapshot.
    ///
    /// # Errors
    ///
    /// * [`SimError::Snapshot`] — corrupt or version-skewed bytes, or the
    ///   snapshot was taken from a simulator constructed with
    ///   [`with_port_model`](Self::with_port_model), which has no
    ///   declarative port configuration to rebuild the model from.
    /// * [`SimError::Config`] — the embedded configuration no longer
    ///   builds (should not happen for snapshots this library wrote).
    pub fn resume(snapshot: &SimSnapshot) -> Result<Self, SimError> {
        let payload = open(&snapshot.bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let mut r = StateReader::new(payload);
        let trace = CommittedTrace::from_bytes(r.get_bytes()?)?;
        let port_cfg = if r.get_bool()? {
            Some(PortConfig::load_state(&mut r)?)
        } else {
            None
        };
        let cfg = CpuConfig::load_state(&mut r)?;
        let hier_cfg = HierarchyConfig::load_state(&mut r)?;
        let port = port_cfg
            .ok_or_else(|| SimError::Snapshot {
                detail: "snapshot carries no port configuration (the simulator was \
                         built with an explicit port model), so it cannot be resumed"
                    .into(),
            })?
            .try_build(hier_cfg.l1_line)
            .map_err(|detail| SimError::Config { detail })?;
        let mut sim = Self::build(trace, cfg, hier_cfg, port);
        sim.port_cfg = port_cfg;
        sim.now = r.get_u64()?;
        sim.committed = r.get_u64()?;
        sim.loads = r.get_u64()?;
        sim.stores = r.get_u64()?;
        sim.fetch_done = r.get_bool()?;
        sim.halted = r.get_bool()?;
        sim.last_commit_cycle = r.get_u64()?;
        sim.branches = r.get_u64()?;
        sim.mispredicts = r.get_u64()?;
        sim.stall_on = r.get_opt_u64()?;
        sim.fetch_resume_at = r.get_u64()?;
        sim.pending_fetch = if r.get_bool()? {
            Some(DynInst::load_slim(&mut r, sim.trace.program().text())?)
        } else {
            None
        };
        sim.player.load_cursor(&mut r)?;
        sim.window.load_state(&mut r, sim.trace.program().text())?;
        sim.lsq.load_state(&mut r)?;
        sim.fus.load_state(&mut r)?;
        sim.hier.load_state(&mut r)?;
        let has_predictor = r.get_bool()?;
        match (&mut sim.predictor, has_predictor) {
            (Some(p), true) => p.load_state(&mut r)?,
            (None, false) => {}
            (have, want) => {
                return Err(SimError::Snapshot {
                    detail: format!(
                        "predictor presence mismatch: snapshot has one: {want}, \
                         configuration builds one: {}",
                        have.is_some()
                    ),
                })
            }
        }
        sim.port.load_state(&mut r)?;
        r.expect_end()?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuConfig, FrontEnd, PredictorKind, SimReport};
    use hbdc_isa::asm::assemble;
    use hbdc_isa::Program;
    use hbdc_mem::HierarchyConfig;

    /// A mixed workload: strided loads, dependent stores, a data-dependent
    /// branch — enough to populate the LSQ, bank queues, MSHRs, and the
    /// misprediction path for a few thousand cycles.
    const WORKLOAD: &str = ".data\nv: .space 8192\n.text\nmain:\n la r8, v\n li r9, 150\n\
        loop:\n lw r1, 0(r8)\n lw r2, 64(r8)\n lw r3, 128(r8)\n addi r1, r1, 3\n\
        sw r1, 192(r8)\n sw r2, 256(r8)\n andi r10, r9, 1\n bnez r10, odd\n\
        addi r8, r8, 8\n odd:\n addi r8, r8, 8\n addi r9, r9, -1\n bnez r9, loop\n halt\n";

    fn program() -> Program {
        assemble(WORKLOAD).unwrap()
    }

    fn every_port() -> [PortConfig; 4] {
        [
            PortConfig::Ideal { ports: 4 },
            PortConfig::Replicated { ports: 4 },
            PortConfig::banked(4),
            PortConfig::lbic(4, 2),
        ]
    }

    fn straight_through(p: &Program, cfg: CpuConfig, port: PortConfig) -> SimReport {
        Simulator::new(p, cfg, HierarchyConfig::default(), port)
            .run()
            .unwrap()
    }

    /// Serially dependent cold-missing loads: each iteration's address
    /// needs the previous load's data, so for most of each DRAM fill the
    /// machine holds one load in flight and nothing ready to issue.
    const DEPENDENT_MISSES: &str = ".data\nv: .space 8192\n.text\nmain:\n la r8, v\n li r9, 40\n\
        loop:\n lw r1, 0(r8)\n add r8, r8, r1\n addi r8, r8, 64\n\
        addi r9, r9, -1\n bnez r9, loop\n halt\n";

    /// Snapshot at cycle `k`, resume (via a full byte round trip), run to
    /// completion, and return the paused window census with the resumed
    /// report.
    fn resumed_at(
        p: &Program,
        cfg: CpuConfig,
        port: PortConfig,
        k: u64,
    ) -> ((usize, usize, usize, usize), SimReport) {
        let mut sim = Simulator::new(p, cfg, HierarchyConfig::default(), port);
        sim.run_for(k).unwrap();
        assert_eq!(sim.current_cycle(), k.min(sim.current_cycle()));
        let snap = sim.save_snapshot();
        let snap = SimSnapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        let mut resumed = Simulator::resume(&snap).unwrap();
        (sim.census(), resumed.run().unwrap())
    }

    fn golden_sweep(audit: bool) {
        let cfg = CpuConfig {
            audit,
            ..CpuConfig::default()
        };
        for src in [WORKLOAD, DEPENDENT_MISSES] {
            let p = assemble(src).unwrap();
            for port in every_port() {
                let baseline = straight_through(&p, cfg, port);
                assert!(baseline.cycles > 10, "workload too short to checkpoint");
                for k in [0, baseline.cycles / 2, baseline.cycles - 1] {
                    let ((_, ready, issued, _), resumed) = resumed_at(&p, cfg, port, k);
                    assert_eq!(
                        baseline, resumed,
                        "{port:?} resumed at cycle {k} diverged (audit={audit})"
                    );
                    if src == DEPENDENT_MISSES && k == baseline.cycles / 2 {
                        assert!(
                            ready == 0 && issued > 0,
                            "{port:?}: cycle {k} is not inside a fill \
                             (ready {ready}, issued {issued})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resume_is_bit_identical_for_every_port_model() {
        golden_sweep(false);
    }

    #[test]
    fn resume_is_bit_identical_under_audit() {
        golden_sweep(true);
    }

    #[test]
    fn resume_preserves_predictor_and_warmup_state() {
        let p = program();
        let cfg = CpuConfig {
            warmup_insts: 200,
            front_end: FrontEnd::Predicted {
                kind: PredictorKind::Gshare {
                    entries: 1024,
                    history_bits: 8,
                },
                redirect_penalty: 2,
            },
            ..CpuConfig::default()
        };
        let port = PortConfig::lbic(4, 2);
        let mut base = Simulator::new(&p, cfg, HierarchyConfig::default(), port);
        let baseline = base.run().unwrap();
        let k = baseline.cycles / 3;

        let mut sim = Simulator::new(&p, cfg, HierarchyConfig::default(), port);
        sim.run_for(k).unwrap();
        let mut resumed = Simulator::resume(&sim.save_snapshot()).unwrap();
        let report = resumed.run().unwrap();
        assert_eq!(baseline, report);
        assert_eq!(
            (baseline.branches, baseline.mispredicts),
            (report.branches, report.mispredicts)
        );
        assert_eq!(base.lsq_stalls(), resumed.lsq_stalls());
    }

    #[test]
    fn snapshot_roundtrips_through_a_file() {
        let p = program();
        let mut sim = Simulator::new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::banked(4),
        );
        sim.run_for(50).unwrap();
        let snap = sim.save_snapshot();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hbdc-snap-test-{}.snap", std::process::id()));
        snap.write_to_path(&path).unwrap();
        let read = SimSnapshot::read_from_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(snap, read);
        let a = sim.run().unwrap();
        let b = Simulator::resume(&read).unwrap().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_and_truncated_snapshots_are_rejected() {
        let p = program();
        let mut sim = Simulator::new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 2 },
        );
        sim.run_for(20).unwrap();
        let good = sim.save_snapshot().as_bytes().to_vec();

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(SimSnapshot::from_bytes(flipped).is_err());

        let truncated = good[..good.len() - 7].to_vec();
        assert!(SimSnapshot::from_bytes(truncated).is_err());

        let mut wrong_magic = good;
        wrong_magic[0] ^= 0xff;
        assert!(SimSnapshot::from_bytes(wrong_magic).is_err());
    }

    #[test]
    fn explicit_port_models_cannot_be_resumed() {
        use hbdc_core::IdealPorts;
        let p = program();
        let mut sim = Simulator::with_port_model(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            Box::new(IdealPorts::new(2)),
        );
        sim.run_for(30).unwrap();
        let snap = sim.save_snapshot();
        // No declarative port configuration to rebuild the model from.
        match Simulator::resume(&snap) {
            Err(SimError::Snapshot { detail }) => {
                assert!(detail.contains("no port configuration"), "{detail}");
                assert!(detail.contains("cannot be resumed"), "{detail}");
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn run_for_pauses_at_cycle_boundaries() {
        let p = program();
        let mut sliced = Simulator::new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::banked(4),
        );
        // Drive the whole run in 64-cycle slices; the result must match a
        // single uninterrupted run (modulo wall-clock fields).
        while !sliced.run_for(64).unwrap() {}
        let baseline = straight_through(&p, CpuConfig::default(), PortConfig::banked(4));
        assert_eq!(baseline, sliced.report());
    }
}
