//! HBTR v1: the committed-stream trace format behind execute-once /
//! replay-many campaigns.
//!
//! The paper's methodology (and both trace-driven reference simulators in
//! the related work) evaluates every port configuration against the *same*
//! dynamic reference stream. This module makes that stream a first-class
//! artifact: [`CommittedTrace::capture`] runs the functional model once
//! and records the committed [`DynInst`] stream; [`TracePlayer`] streams
//! it back into the timing simulator with no register-file emulation, no
//! data memory, and no branch re-resolution on the hot path.
//!
//! # Container layout
//!
//! An HBTR file is an [`hbdc_snap::seal`]ed container (magic `HBTR`,
//! version 1, FNV-1a checksum) whose payload is, in order:
//!
//! | field           | encoding                                  |
//! |-----------------|-------------------------------------------|
//! | `program_fp`    | `u64` — FNV-1a of the program object image |
//! | `warmup_insts`  | `u64` — functionally skipped before rec 0  |
//! | `records`       | `u64` — committed records that follow      |
//! | `loads`/`stores`| `u64` each — memory-op census              |
//! | `complete`      | `bool` — stream reached the program's halt |
//! | program image   | length-prefixed object bytes               |
//! | records section | length-prefixed delta-encoded records      |
//!
//! The records section is one contiguous byte range, so replay streams it
//! through a cursor without materializing decoded instructions.
//!
//! # Record encoding
//!
//! One tag byte, then zero, one, or two zigzag varints:
//!
//! ```text
//! tag 0x01  instruction carries an effective address (loads/stores)
//! tag 0x02  instruction is a conditional branch (direction recorded)
//! tag 0x04  the branch was taken (only with 0x02)
//! tag 0x08  sequential control flow: pc == previous pc + 1 (no pc varint)
//! ```
//!
//! Without `0x08` the tag is followed by `zigzag(pc - (prev_pc + 1))`;
//! with `0x01` it is followed by `zigzag(addr - prev_addr)` (wrapping,
//! against the previous *memory* record's address). Sequence numbers are
//! implicit — records are the committed stream in order, numbered from 0
//! at the measurement point — and the static instruction is re-derived
//! from the embedded program text by `pc`, exactly like slim snapshot
//! records. A straight-line ALU instruction therefore costs one byte.

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use hbdc_isa::Program;
use hbdc_snap::{
    fnv1a64, open, seal, write_atomic, SnapError, StateReader, StateWriter, SEAL_HEADER_LEN,
};

use crate::dynamic::DynInst;
use crate::functional::Emulator;

/// Magic bytes identifying an HBTR trace container.
pub const TRACE_MAGIC: [u8; 4] = *b"HBTR";

/// Current HBTR format version.
///
/// Version history:
/// * 1 — initial layout (header, embedded program image, delta-encoded
///   committed records).
pub const TRACE_VERSION: u32 = 1;

const TAG_ADDR: u8 = 0x01;
const TAG_BRANCH: u8 = 0x02;
const TAG_TAKEN: u8 = 0x04;
const TAG_PC_SEQ: u8 = 0x08;
const TAG_KNOWN: u8 = TAG_ADDR | TAG_BRANCH | TAG_TAKEN | TAG_PC_SEQ;

/// Outcome of [`CommittedTrace::read_cached`]: the three-way answer a
/// self-healing trace cache needs (use it, capture fresh, or evict the
/// file *then* capture fresh).
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid trace matching the requested program and warmup.
    Hit(Box<CommittedTrace>),
    /// No usable entry: the file is absent, or intact but for a
    /// different program, warmup, or an incomplete capture.
    Miss,
    /// The file exists but is corrupt or truncated; the caller should
    /// evict it (e.g. via `hbdc_snap::lock::evict_corrupt`) so the next
    /// run sees a clean miss.
    Corrupt(SnapError),
}

/// A captured committed-instruction stream: the program it came from plus
/// the delta-encoded dynamic records, validated and ready to replay.
///
/// The sealed image lives behind an [`Arc`], so cloning a trace (to fan
/// one capture out across the 13 port configurations of a matrix row)
/// shares the encoded stream instead of duplicating it. Players read the
/// records section in place, as a byte range of that image.
///
/// # Examples
///
/// ```
/// use hbdc_cpu::CommittedTrace;
/// use hbdc_isa::asm::assemble;
///
/// let p = assemble("main: li r1, 1\n li r2, 2\n add r3, r1, r2\n halt\n")?;
/// let trace = CommittedTrace::capture(&p, 0, None)?;
/// assert_eq!(trace.records(), 4);
/// assert!(trace.is_complete());
/// let replayed: Vec<_> = std::iter::from_fn({
///     let mut player = trace.player();
///     move || player.step()
/// })
/// .collect();
/// assert_eq!(replayed.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CommittedTrace {
    sealed: Arc<Vec<u8>>,
    program: Arc<Program>,
    /// The records section's byte range within `sealed`.
    rec: Range<usize>,
    // Lazily predecoded record stream (see [`Predecoded`]), shared by every
    // player of this trace and by every clone made after the first
    // player was built.
    decoded: OnceLock<Option<Arc<Vec<Predecoded>>>>,
    program_fp: u64,
    warmup_insts: u64,
    records: u64,
    loads: u64,
    stores: u64,
    complete: bool,
}

/// Streams at most this many records are predecoded into memory; longer
/// ones stay on the streaming varint path. At 16 bytes per predecoded
/// record this bounds the per-trace side table to 32 MB — paid once per
/// benchmark, not once per matrix cell.
const PREDECODE_MAX_RECORDS: u64 = 2_000_000;

/// One record with its varints resolved: 16 bytes. A trace small enough
/// ([`PREDECODE_MAX_RECORDS`]) is expanded once into an array of these,
/// shared by every player, so replay's hot path reads one array element
/// and the text entry per step instead of running the varint decoder in
/// every one of the 13 matrix cells that share the capture. The static
/// instruction is not stored: the player re-derives it from the program
/// text by `pc`, as the streaming path does.
#[derive(Debug, Clone, Copy)]
struct Predecoded {
    /// The stream's running memory address after this record: its
    /// effective address if it is a load or store, else the previous
    /// memory record's. Parse-time validation guarantees the address
    /// flag matches `inst.is_mem()`, so the text decides which it is.
    addr: u64,
    /// `pc << 2 | PC_BRANCH | PC_TAKEN`.
    pc_bits: u32,
    /// Byte offset just past the record in the encoded section, so the
    /// fast path keeps the streaming cursor fields — and therefore the
    /// snapshot byte format — exactly in sync with the streaming path.
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Predecoded>() == 16);

/// Low bits of [`Predecoded::pc_bits`]: the record is a conditional
/// branch, and (only then) whether it was taken — the tag's
/// `TAG_BRANCH`/`TAG_TAKEN` bits shifted down by one.
const PC_BRANCH: u32 = 0b01;
const PC_TAKEN: u32 = 0b10;

/// One decoded record: its pc, the running memory address after it (see
/// [`Predecoded::addr`]), its tag, and the offset just past it.
struct RawRecord {
    pc: u32,
    addr: u64,
    tag: u8,
    end: usize,
}

/// Decodes the record at byte `pos` of the records section `rec`, given
/// the previous record's pc and the running memory address. `None` on
/// bytes that fail to decode (unreachable after parse-time validation).
fn decode_record(rec: &[u8], pos: usize, prev_pc: i64, prev_addr: u64) -> Option<RawRecord> {
    let mut r = StateReader::new(rec.get(pos..)?);
    let tag = r.get_u8().ok()?;
    let pc = if tag & TAG_PC_SEQ != 0 {
        prev_pc + 1
    } else {
        prev_pc + 1 + r.get_varint_i64().ok()?
    };
    let addr = if tag & TAG_ADDR != 0 {
        prev_addr.wrapping_add(r.get_varint_i64().ok()? as u64)
    } else {
        prev_addr
    };
    Some(RawRecord {
        pc: u32::try_from(pc).ok()?,
        addr,
        tag,
        end: rec.len() - r.remaining(),
    })
}

impl CommittedTrace {
    /// Runs `program` functionally once and captures its committed stream.
    ///
    /// The first `warmup_insts` instructions are executed but not
    /// recorded, and sequence numbering restarts at the measurement point
    /// — mirroring the timing simulator's own functional fast-forward, so
    /// a replay under the same `warmup_insts` setting is bit-identical to
    /// execute mode.
    ///
    /// `cap`, when given, bounds the recorded stream (a runaway-program
    /// guard for diagnostics); a capture that hits the cap is marked
    /// incomplete and refused by the replay constructor, because a
    /// truncated stream would starve fetch earlier than execute mode.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the assembled program image fails to
    /// round-trip (never for programs built by this workspace's
    /// assembler).
    pub fn capture(
        program: &Program,
        warmup_insts: u64,
        cap: Option<u64>,
    ) -> Result<Self, SnapError> {
        let mut emu = Emulator::new(program);
        for _ in 0..warmup_insts {
            if emu.step().is_none() {
                break;
            }
        }
        emu.rebase_seq();

        let mut rec = StateWriter::new();
        let mut records = 0u64;
        let (mut loads, mut stores) = (0u64, 0u64);
        let mut prev_pc = -1i64;
        let mut prev_addr = 0u64;
        let mut complete = true;
        while let Some(di) = emu.step() {
            let mut tag = 0u8;
            if di.addr.is_some() {
                tag |= TAG_ADDR;
                if di.inst.is_store() {
                    stores += 1;
                } else {
                    loads += 1;
                }
            }
            if let Some(t) = di.taken {
                tag |= TAG_BRANCH;
                if t {
                    tag |= TAG_TAKEN;
                }
            }
            let pc_delta = i64::from(di.pc) - (prev_pc + 1);
            if pc_delta == 0 {
                tag |= TAG_PC_SEQ;
            }
            rec.put_u8(tag);
            if pc_delta != 0 {
                rec.put_varint_i64(pc_delta);
            }
            if let Some(a) = di.addr {
                rec.put_varint_i64(a.wrapping_sub(prev_addr) as i64);
                prev_addr = a;
            }
            prev_pc = i64::from(di.pc);
            records += 1;
            if Some(records) == cap && !emu.halted() {
                complete = false;
                break;
            }
        }

        let image = hbdc_isa::object::to_bytes(program);
        let program_fp = fnv1a64(&image);
        let mut w = StateWriter::new();
        w.put_u64(program_fp);
        w.put_u64(warmup_insts);
        w.put_u64(records);
        w.put_u64(loads);
        w.put_u64(stores);
        w.put_bool(complete);
        w.put_bytes(&image);
        let rec_len = rec.len();
        w.put_bytes(&rec.into_bytes());
        // The records section is the payload's last field.
        let sealed = seal(TRACE_MAGIC, TRACE_VERSION, &w.into_bytes());
        Ok(Self {
            rec: sealed.len() - rec_len..sealed.len(),
            sealed: Arc::new(sealed),
            program: Arc::new(program.clone()),
            decoded: OnceLock::new(),
            program_fp,
            warmup_insts,
            records,
            loads,
            stores,
            complete,
        })
    }

    /// Parses and validates a sealed HBTR container.
    ///
    /// Beyond the container checksum, this walks the entire records
    /// section once, checking that every record decodes, lands on a PC
    /// inside the embedded text section, and is self-consistent (memory
    /// instructions carry addresses, branch directions sit on conditional
    /// branches, nothing else does). After this pass the replay cursor
    /// never needs to re-validate on the hot path.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`]: bad magic/version/checksum from the container
    /// envelope, [`SnapError::Truncated`] or [`SnapError::Corrupt`] for a
    /// records section that does not decode to exactly the advertised
    /// stream.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        let payload = open(&bytes, TRACE_MAGIC, TRACE_VERSION)?;
        let mut r = StateReader::new(payload);
        let program_fp = r.get_u64()?;
        let warmup_insts = r.get_u64()?;
        let records = r.get_u64()?;
        let loads = r.get_u64()?;
        let stores = r.get_u64()?;
        let complete = r.get_bool()?;
        let image = r.get_bytes()?;
        let rec_len = r.get_byte_slice()?.len();
        r.expect_end()?;
        // The records section is the payload's last field, and the
        // payload starts right after the container header.
        let rec_end = SEAL_HEADER_LEN + payload.len();
        let computed_fp = fnv1a64(&image);
        if computed_fp != program_fp {
            return Err(SnapError::Corrupt(format!(
                "program fingerprint mismatch: header says {program_fp:#018x}, \
                 image hashes to {computed_fp:#018x}"
            )));
        }
        let program = hbdc_isa::object::from_bytes(&image)
            .map_err(|e| SnapError::Corrupt(format!("embedded program image: {e}")))?;

        let trace = Self {
            sealed: Arc::new(bytes),
            program: Arc::new(program),
            rec: rec_end - rec_len..rec_end,
            decoded: OnceLock::new(),
            program_fp,
            warmup_insts,
            records,
            loads,
            stores,
            complete,
        };
        trace.validate_records()?;
        Ok(trace)
    }

    /// One full decode pass over the records section (see
    /// [`from_bytes`](Self::from_bytes)).
    fn validate_records(&self) -> Result<(), SnapError> {
        let text = self.program.text();
        let mut r = StateReader::new(&self.sealed[self.rec.clone()]);
        let mut prev_pc = -1i64;
        let (mut loads, mut stores) = (0u64, 0u64);
        for n in 0..self.records {
            let tag = r.get_u8()?;
            if tag & !TAG_KNOWN != 0 {
                return Err(SnapError::Corrupt(format!(
                    "record {n}: unknown tag bits {tag:#04x}"
                )));
            }
            let pc = if tag & TAG_PC_SEQ != 0 {
                prev_pc + 1
            } else {
                let delta = r.get_varint_i64()?;
                if delta == 0 {
                    return Err(SnapError::Corrupt(format!(
                        "record {n}: explicit zero pc delta (must use the sequential tag)"
                    )));
                }
                prev_pc + 1 + delta
            };
            let inst = u32::try_from(pc)
                .ok()
                .and_then(|pc| text.get(pc as usize))
                .ok_or_else(|| {
                    SnapError::Corrupt(format!(
                        "record {n}: pc {pc} out of range for a {}-instruction text section",
                        text.len()
                    ))
                })?;
            if tag & TAG_ADDR != 0 {
                r.get_varint_i64()?;
                if inst.is_store() {
                    stores += 1;
                } else {
                    loads += 1;
                }
            }
            if (tag & TAG_ADDR != 0) != inst.is_mem() {
                return Err(SnapError::Corrupt(format!(
                    "record {n}: address flag disagrees with instruction {inst:?} at pc {pc}"
                )));
            }
            if tag & TAG_BRANCH == 0 && tag & TAG_TAKEN != 0 {
                return Err(SnapError::Corrupt(format!(
                    "record {n}: taken flag without a branch flag"
                )));
            }
            if (tag & TAG_BRANCH != 0) != matches!(inst, hbdc_isa::Inst::Branch { .. }) {
                return Err(SnapError::Corrupt(format!(
                    "record {n}: branch flag disagrees with instruction {inst:?} at pc {pc}"
                )));
            }
            prev_pc = pc;
        }
        r.expect_end()?;
        if loads != self.loads || stores != self.stores {
            return Err(SnapError::Corrupt(format!(
                "memory census mismatch: header says {}/{} loads/stores, records hold {loads}/{stores}",
                self.loads, self.stores
            )));
        }
        Ok(())
    }

    /// Reads and validates a trace file.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] on read failure, otherwise the same validation
    /// failures as [`from_bytes`](Self::from_bytes).
    pub fn read_from_path(path: &Path) -> Result<Self, SnapError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapError::Io(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(bytes)
    }

    /// Looks a trace up in an on-disk cache, classifying the outcome so
    /// callers can self-heal: a [`Miss`](CacheLookup::Miss) (no file, or
    /// a valid trace that does not match this program/warmup — a stale
    /// but intact entry) means "capture fresh", while
    /// [`Corrupt`](CacheLookup::Corrupt) (the file exists but fails the
    /// seal, checksum, or record validation) means "evict this file,
    /// then capture fresh" — re-parsing the same bad bytes on every run
    /// would otherwise re-pay the capture forever without saying why.
    pub fn read_cached(path: &Path, program_fp: u64, warmup: u64) -> CacheLookup {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => {
                return CacheLookup::Corrupt(SnapError::Io(format!("read {}: {e}", path.display())))
            }
        };
        match Self::from_bytes(bytes) {
            // The fingerprint is normally in the file name, but a renamed
            // or hand-edited file must still never drive a replay.
            Ok(t)
                if t.program_fingerprint() == program_fp
                    && t.warmup_insts() == warmup
                    && t.is_complete() =>
            {
                CacheLookup::Hit(Box::new(t))
            }
            Ok(_) => CacheLookup::Miss,
            Err(e) => CacheLookup::Corrupt(e),
        }
    }

    /// Writes the sealed container crash-safely (temp-then-rename).
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] on write failure.
    pub fn write_to_path(&self, path: &Path) -> Result<(), SnapError> {
        write_atomic(path, &self.sealed)
    }

    /// The sealed container image (what [`write_to_path`](Self::write_to_path)
    /// writes; snapshots of replaying simulators embed exactly these bytes).
    pub fn as_bytes(&self) -> &[u8] {
        &self.sealed
    }

    /// The program the stream was captured from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// FNV-1a fingerprint of the program object image (the cache key).
    pub fn program_fingerprint(&self) -> u64 {
        self.program_fp
    }

    /// Instructions functionally skipped before record 0.
    pub fn warmup_insts(&self) -> u64 {
        self.warmup_insts
    }

    /// Committed records in the stream.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Loads recorded in the stream.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Stores recorded in the stream.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Whether the capture ran to the program's own halt (as opposed to
    /// hitting a capture cap).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// A fresh replay cursor positioned at record 0. Small streams
    /// (≤ [`PREDECODE_MAX_RECORDS`]) are predecoded — once, shared by
    /// every player — so stepping is an array read; larger ones decode
    /// incrementally from the encoded bytes. Both paths yield identical
    /// records and identical cursor state.
    pub fn player(&self) -> TracePlayer {
        let mut p = self.streaming_player();
        p.decoded = self.decoded().cloned();
        p
    }

    /// A cursor pinned to the incremental-decode path (the predecode
    /// fast path must be observationally indistinguishable from this).
    fn streaming_player(&self) -> TracePlayer {
        TracePlayer {
            sealed: Arc::clone(&self.sealed),
            rec: self.rec.clone(),
            program: Arc::clone(&self.program),
            decoded: None,
            pos: 0,
            next_seq: 0,
            prev_pc: -1,
            prev_addr: 0,
            total: self.records,
        }
    }

    /// The shared predecoded stream, built on first use; `None` when the
    /// stream exceeds the predecode threshold.
    fn decoded(&self) -> Option<&Arc<Vec<Predecoded>>> {
        self.decoded
            .get_or_init(|| {
                if self.records > PREDECODE_MAX_RECORDS
                    || self.rec.len() > u32::MAX as usize
                    || self.program.text().len() > (u32::MAX >> 2) as usize
                {
                    return None;
                }
                let rec = &self.sealed[self.rec.clone()];
                let mut table = Vec::with_capacity(self.records as usize);
                let (mut pos, mut pc, mut addr) = (0, -1i64, 0u64);
                for _ in 0..self.records {
                    let raw = decode_record(rec, pos, pc, addr)?;
                    table.push(Predecoded {
                        addr: raw.addr,
                        pc_bits: (raw.pc << 2) | (u32::from(raw.tag >> 1) & (PC_BRANCH | PC_TAKEN)),
                        end: raw.end as u32,
                    });
                    (pos, pc, addr) = (raw.end, i64::from(raw.pc), raw.addr);
                }
                Some(Arc::new(table))
            })
            .as_ref()
    }
}

/// A streaming replay cursor over a [`CommittedTrace`]'s records section.
///
/// Decodes one record per [`step`](Self::step) in O(1) memory, sharing
/// the encoded bytes with the trace (and with every other player of the
/// same trace). The records were fully validated when the trace was
/// parsed, so stepping is infallible: the cursor yields `None` exactly
/// once the recorded stream ends, just like [`Emulator::step`] at halt.
#[derive(Debug, Clone)]
pub struct TracePlayer {
    sealed: Arc<Vec<u8>>,
    /// The records section's byte range within `sealed`; `pos` is an
    /// offset into it.
    rec: Range<usize>,
    program: Arc<Program>,
    // Fast path: the trace's shared predecoded stream, indexed by
    // `next_seq`. The streaming cursor fields below stay maintained
    // either way, so snapshots are byte-identical across paths.
    decoded: Option<Arc<Vec<Predecoded>>>,
    pos: usize,
    next_seq: u64,
    prev_pc: i64,
    prev_addr: u64,
    total: u64,
}

impl TracePlayer {
    fn rec(&self) -> &[u8] {
        &self.sealed[self.rec.clone()]
    }

    /// Rebuilds predecoded record `i`, or `None` past the end.
    fn predecoded(&self, table: &[Predecoded], i: u64) -> Option<(DynInst, usize)> {
        let p = *table.get(usize::try_from(i).ok()?)?;
        let pc = p.pc_bits >> 2;
        let inst = *self.program.text().get(pc as usize)?;
        let di = DynInst {
            seq: i,
            pc,
            inst,
            addr: inst.is_mem().then_some(p.addr),
            taken: (p.pc_bits & PC_BRANCH != 0).then_some(p.pc_bits & PC_TAKEN != 0),
        };
        Some((di, p.end as usize))
    }

    /// Decodes the record at `pos` without committing the cursor.
    /// Returns `None` at end of stream (or, defensively, on bytes that
    /// fail to decode — unreachable after parse-time validation).
    fn decode_at(&self) -> Option<(DynInst, usize)> {
        if self.next_seq >= self.total {
            return None;
        }
        let raw = decode_record(self.rec(), self.pos, self.prev_pc, self.prev_addr)?;
        let di = DynInst {
            seq: self.next_seq,
            pc: raw.pc,
            inst: *self.program.text().get(raw.pc as usize)?,
            addr: (raw.tag & TAG_ADDR != 0).then_some(raw.addr),
            taken: (raw.tag & TAG_BRANCH != 0).then_some(raw.tag & TAG_TAKEN != 0),
        };
        Some((di, raw.end))
    }

    /// Yields the next committed instruction, or `None` at end of stream.
    pub fn step(&mut self) -> Option<DynInst> {
        let (di, next_pos) = match &self.decoded {
            Some(d) => self.predecoded(d, self.next_seq)?,
            None => self.decode_at()?,
        };
        self.pos = next_pos;
        self.next_seq += 1;
        self.prev_pc = i64::from(di.pc);
        if let Some(a) = di.addr {
            self.prev_addr = a;
        }
        Some(di)
    }

    /// The PC of the next undelivered record (diagnostics; mirrors
    /// [`Emulator::pc`] pointing at the next instruction). Falls back to
    /// one past the last delivered PC at end of stream.
    pub fn peek_pc(&self) -> u32 {
        let next = match &self.decoded {
            Some(table) => usize::try_from(self.next_seq)
                .ok()
                .and_then(|i| table.get(i))
                .map(|p| p.pc_bits >> 2),
            None => self.decode_at().map(|(di, _)| di.pc),
        };
        next.unwrap_or_else(|| u32::try_from(self.prev_pc + 1).unwrap_or(u32::MAX))
    }

    /// Records delivered so far (the next record's sequence number).
    pub fn delivered(&self) -> u64 {
        self.next_seq
    }

    /// Whether every record has been delivered.
    pub fn exhausted(&self) -> bool {
        self.next_seq >= self.total
    }

    /// Serializes the cursor (not the trace bytes — the snapshot layer
    /// embeds those separately, once).
    pub(crate) fn save_cursor(&self, w: &mut StateWriter) {
        w.put_usize(self.pos);
        w.put_u64(self.next_seq);
        w.put_i64(self.prev_pc);
        w.put_u64(self.prev_addr);
    }

    /// Restores a cursor written by [`save_cursor`](Self::save_cursor).
    pub(crate) fn load_cursor(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let pos = r.get_usize()?;
        let next_seq = r.get_u64()?;
        let prev_pc = r.get_i64()?;
        let prev_addr = r.get_u64()?;
        if pos > self.rec.len() {
            return Err(SnapError::Corrupt(format!(
                "trace cursor offset {pos} beyond a {}-byte records section",
                self.rec.len()
            )));
        }
        if next_seq > self.total {
            return Err(SnapError::Corrupt(format!(
                "trace cursor seq {next_seq} beyond a {}-record stream",
                self.total
            )));
        }
        self.pos = pos;
        self.next_seq = next_seq;
        self.prev_pc = prev_pc;
        self.prev_addr = prev_addr;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    fn program(src: &str) -> Program {
        assemble(src).expect("test program assembles")
    }

    const KERNEL: &str = ".data
v: .word 3, 5, 7, 9
.text
main:
    la r8, v
    li r9, 4
    li r10, 0
loop:
    lw r11, 0(r8)
    add r10, r10, r11
    sw r10, 0(r8)
    addi r8, r8, 4
    addi r9, r9, -1
    bnez r9, loop
    halt
";

    fn emulated(p: &Program, warmup: u64) -> Vec<DynInst> {
        let mut emu = Emulator::new(p);
        for _ in 0..warmup {
            if emu.step().is_none() {
                break;
            }
        }
        emu.rebase_seq();
        std::iter::from_fn(move || emu.step()).collect()
    }

    #[test]
    fn replay_matches_emulation_record_for_record() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let mut player = trace.player();
        let replayed: Vec<DynInst> = std::iter::from_fn(|| player.step()).collect();
        assert_eq!(replayed, emulated(&p, 0));
        assert!(player.exhausted());
        assert!(player.step().is_none());
    }

    #[test]
    fn warmup_offsets_the_measurement_point() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 5, None).unwrap();
        assert_eq!(trace.warmup_insts(), 5);
        let mut player = trace.player();
        let replayed: Vec<DynInst> = std::iter::from_fn(|| player.step()).collect();
        assert_eq!(replayed, emulated(&p, 5));
    }

    #[test]
    fn file_roundtrip_preserves_everything() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 2, None).unwrap();
        let reparsed = CommittedTrace::from_bytes(trace.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.records(), trace.records());
        assert_eq!(reparsed.warmup_insts(), 2);
        assert_eq!(reparsed.loads(), trace.loads());
        assert_eq!(reparsed.stores(), trace.stores());
        assert_eq!(reparsed.program_fingerprint(), trace.program_fingerprint());
        assert!(reparsed.is_complete());
        let mut a = trace.player();
        let mut b = reparsed.player();
        loop {
            match (a.step(), b.step()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn census_counts_loads_and_stores() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        assert_eq!(trace.loads(), 4);
        assert_eq!(trace.stores(), 4);
    }

    #[test]
    fn encoding_is_compact_for_straightline_code() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        // Sequential non-mem records are 1 byte, memory and
        // branch records a handful. Far below the 48-byte in-memory record.
        let rec_len = {
            // records section length = sealed - header - fixed fields - image.
            trace.as_bytes().len()
        };
        assert!(
            rec_len < trace.records() as usize * 8 + 512,
            "trace unexpectedly large: {rec_len} bytes for {} records",
            trace.records()
        );
    }

    #[test]
    fn capture_cap_marks_incomplete() {
        let p = program(KERNEL);
        let capped = CommittedTrace::capture(&p, 0, Some(5)).unwrap();
        assert_eq!(capped.records(), 5);
        assert!(!capped.is_complete());
        // A cap past the natural end changes nothing.
        let roomy = CommittedTrace::capture(&p, 0, Some(1_000_000)).unwrap();
        assert!(roomy.is_complete());
        assert_eq!(
            roomy.records(),
            CommittedTrace::capture(&p, 0, None).unwrap().records()
        );
    }

    #[test]
    fn corrupted_bytes_are_typed_errors_not_panics() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let sealed = trace.as_bytes().to_vec();

        // Flipping a payload bit fails the container checksum.
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            CommittedTrace::from_bytes(flipped),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Truncation fails before any record decodes.
        assert!(CommittedTrace::from_bytes(sealed[..sealed.len() / 2].to_vec()).is_err());

        // Wrong magic is rejected as not-a-trace.
        let mut wrong = sealed.clone();
        wrong[..4].copy_from_slice(b"HBSN");
        assert!(matches!(
            CommittedTrace::from_bytes(wrong),
            Err(SnapError::BadMagic { .. })
        ));

        // A record stream that decodes but contradicts the embedded text
        // (here: one record too few) is Corrupt, caught by validation.
        let payload = open(&sealed, TRACE_MAGIC, TRACE_VERSION).unwrap();
        let mut r = StateReader::new(payload);
        let fp = r.get_u64().unwrap();
        let warm = r.get_u64().unwrap();
        let n = r.get_u64().unwrap();
        let loads = r.get_u64().unwrap();
        let stores = r.get_u64().unwrap();
        let complete = r.get_bool().unwrap();
        let image = r.get_bytes().unwrap();
        let rec = r.get_bytes().unwrap();
        let mut w = StateWriter::new();
        w.put_u64(fp);
        w.put_u64(warm);
        w.put_u64(n + 1); // advertise one more record than exists
        w.put_u64(loads);
        w.put_u64(stores);
        w.put_bool(complete);
        w.put_bytes(&image);
        w.put_bytes(&rec);
        let forged = seal(TRACE_MAGIC, TRACE_VERSION, &w.into_bytes());
        assert!(CommittedTrace::from_bytes(forged).is_err());
    }

    #[test]
    fn cursor_roundtrips_mid_stream() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let mut player = trace.player();
        for _ in 0..10 {
            player.step();
        }
        let mut w = StateWriter::new();
        player.save_cursor(&mut w);
        let bytes = w.into_bytes();

        let mut restored = trace.player();
        let mut r = StateReader::new(&bytes);
        restored.load_cursor(&mut r).unwrap();
        assert_eq!(restored.delivered(), 10);
        loop {
            match (player.step(), restored.step()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn bogus_cursor_is_rejected() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let mut w = StateWriter::new();
        w.put_usize(usize::MAX); // offset far beyond the records section
        w.put_u64(0);
        w.put_i64(-1);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(
            trace.player().load_cursor(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// Kernels for the predecode ≡ streaming table: one per feature the
    /// 16-byte predecoded record folds away or re-derives.
    const PLAYER_KERNELS: [(&str, &str); 4] = [
        ("strided loop", KERNEL),
        // A data-dependent branch that alternates taken / not taken.
        (
            "taken and not-taken branches",
            "main:\n li r9, 9\nloop:\n andi r10, r9, 1\n beqz r10, even\n \
             addi r11, r11, 1\neven:\n addi r9, r9, -1\n bnez r9, loop\n halt\n",
        ),
        // Unconditional jumps and calls: the pc is not sequential, both
        // forwards and backwards, and no record carries a direction.
        (
            "jumps",
            "main:\n li r9, 3\nloop:\n jal sub\n j skip\n addi r1, r1, 1\n\
             skip:\n addi r9, r9, -1\n bnez r9, loop\n halt\n\
             sub:\n addi r2, r2, 1\n jr r31\n",
        ),
        // Walks a buffer downwards: loads and stores with negative address
        // deltas, interleaved with straight-line ALU records.
        (
            "negative address deltas",
            ".data\nv: .space 256\n.text\nmain:\n la r8, v\n addi r8, r8, 248\n \
             li r9, 8\nloop:\n lw r1, 0(r8)\n sw r1, -4(r8)\n lw r2, -64(r8)\n \
             addi r8, r8, -24\n addi r9, r9, -1\n bnez r9, loop\n halt\n",
        ),
    ];

    /// The predecoded fast path must be observationally identical to the
    /// streaming decoder: same records, same peeked PCs, and the same
    /// serialized cursor bytes after every step and at stream end
    /// (snapshots must not depend on which path a player used).
    #[test]
    fn predecoded_and_streaming_players_are_indistinguishable() {
        for (name, src) in PLAYER_KERNELS {
            let p = program(src);
            let trace = CommittedTrace::capture(&p, 0, None).unwrap();
            let mut fast = trace.player();
            assert!(
                fast.decoded.is_some(),
                "{name}: small stream should predecode"
            );
            let mut slow = trace.streaming_player();
            let mut records = Vec::new();
            loop {
                assert_eq!(fast.peek_pc(), slow.peek_pc(), "{name}: peeked pc");
                let (a, b) = (fast.step(), slow.step());
                assert_eq!(a, b, "{name}: record {}", records.len());
                let (mut wa, mut wb) = (StateWriter::new(), StateWriter::new());
                fast.save_cursor(&mut wa);
                slow.save_cursor(&mut wb);
                assert_eq!(wa.into_bytes(), wb.into_bytes(), "{name}: cursor bytes");
                match a {
                    Some(di) => records.push(di),
                    None => break,
                }
            }
            assert_eq!(fast.peek_pc(), slow.peek_pc(), "{name}: peeked pc at end");
            assert_eq!(records, emulated(&p, 0), "{name}: replay ≠ emulation");
            // The table must exercise what its rows are named after.
            let jumps = records
                .windows(2)
                .filter(|w| w[1].pc != w[0].pc + 1)
                .count();
            let taken = records.iter().filter(|d| d.taken == Some(true)).count();
            let not_taken = records.iter().filter(|d| d.taken == Some(false)).count();
            let mut prev = None;
            let mut down = 0;
            for a in records.iter().filter_map(|d| d.addr) {
                down += usize::from(prev.is_some_and(|p| a < p));
                prev = Some(a);
            }
            match name {
                "taken and not-taken branches" => assert!(taken > 0 && not_taken > 0),
                "jumps" => assert!(jumps > taken, "{name}: {jumps} jumps"),
                "negative address deltas" => assert!(down > 0, "{name}: no negative delta"),
                _ => {}
            }
        }
    }

    #[test]
    fn peek_pc_tracks_the_next_record() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let mut player = trace.player();
        let mut emu = Emulator::new(&p);
        loop {
            assert_eq!(player.peek_pc(), emu.pc());
            let (a, b) = (player.step(), emu.step());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
