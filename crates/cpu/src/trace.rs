//! HBTR v2: the committed-stream trace format behind execute-once /
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
//! version 2, [`hbdc_snap::hash64`] checksum) whose payload is, in order:
//!
//! | field           | encoding                                  |
//! |-----------------|-------------------------------------------|
//! | `program_fp`    | `u64` — `hash64` of the program object image |
//! | `warmup_insts`  | `u64` — functionally skipped before rec 0  |
//! | `records`       | `u64` — committed records that follow      |
//! | `loads`/`stores`| `u64` each — memory-op census              |
//! | `complete`      | `bool` — stream reached the program's halt |
//! | program image   | length-prefixed object bytes               |
//! | records section | length-prefixed delta-encoded records      |
//!
//! The records section is one contiguous byte range. Each [`TracePlayer`]
//! decodes it `BLOCK` 16-byte records (pc, running address, tag) at a
//! time into one reusable buffer, so replay memory is O(`BLOCK`) per
//! player whatever the stream's length, and no trace holds a decoded
//! copy. Fetch reads those records as they stand and looks each pc up in
//! the simulator's decode table: replay re-derives no instruction.
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
//! at the measurement point — and the static instruction is not stored:
//! `pc` indexes the embedded program text, exactly like slim snapshot
//! records. A straight-line ALU instruction therefore costs one byte.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use hbdc_isa::Program;
use hbdc_snap::{hash64, open, write_atomic, SnapError, StateReader, StateWriter, SEAL_HEADER_LEN};

use crate::dynamic::DynInst;
use crate::functional::Emulator;

/// Magic bytes identifying an HBTR trace container.
pub const TRACE_MAGIC: [u8; 4] = *b"HBTR";

/// Current HBTR format version.
///
/// Version history:
/// * 1 — initial layout (header, embedded program image, delta-encoded
///   committed records).
/// * 2 — the container checksum and `program_fp` are
///   [`hbdc_snap::hash64`] (XXH64) instead of FNV-1a; the layout is
///   unchanged.
pub const TRACE_VERSION: u32 = 2;

const TAG_ADDR: u8 = 0x01;
const TAG_BRANCH: u8 = 0x02;
const TAG_TAKEN: u8 = 0x04;
const TAG_PC_SEQ: u8 = 0x08;
const TAG_KNOWN: u8 = TAG_ADDR | TAG_BRANCH | TAG_TAKEN | TAG_PC_SEQ;

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
    program_fp: u64,
    warmup_insts: u64,
    records: u64,
    loads: u64,
    stores: u64,
    complete: bool,
}

/// Records a player decodes per refill of its buffer: 16 KiB of
/// [`Predecoded`] entries, reused for the player's whole life. Blocks of
/// 256, 1024 and 4096 records replayed within noise of one another in an
/// isolated player loop, as did 1024 and 4096 in whole simulations; 1024
/// is the middle of that range.
const BLOCK: usize = 1024;

/// One record with its varints resolved: 16 bytes. A player decodes
/// [`BLOCK`] of these at a time, and fetch reads each one straight from
/// the buffer ([`TracePlayer::next_record`]): the static instruction is
/// not stored, and fetch looks its decoded form up by `pc`.
///
/// Every field holds its value whole: `pc` is the text index itself
/// (parse-time validation bounds it by the text length), and `len` is
/// the record's encoded size, at most a tag byte plus two 10-byte
/// varints. So no trace size or text size can overflow a record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Predecoded {
    /// The stream's running memory address after this record: its
    /// effective address if it is a load or store, else the previous
    /// memory record's.
    pub(crate) addr: u64,
    pub(crate) pc: u32,
    /// The record's tag byte (`TAG_*`).
    tag: u8,
    /// Encoded bytes of the record, so the cursor's `pos` advances past it.
    len: u8,
}

const _: () = assert!(std::mem::size_of::<Predecoded>() == 16);

impl Predecoded {
    /// The direction of a conditional branch; `None` for anything else.
    pub(crate) fn taken(&self) -> Option<bool> {
        (self.tag & TAG_BRANCH != 0).then_some(self.tag & TAG_TAKEN != 0)
    }
}

/// Decodes the record at byte `pos` of the records section `rec`, given
/// the previous record's pc and the running memory address. `None` on
/// bytes that fail to decode: parse-time validation runs every record
/// through here once, so replay never meets such bytes.
fn decode_record(rec: &[u8], pos: usize, prev_pc: i64, prev_addr: u64) -> Option<Predecoded> {
    let mut r = StateReader::new(rec.get(pos..)?);
    let tag = r.get_u8().ok()?;
    let pc = if tag & TAG_PC_SEQ != 0 {
        prev_pc + 1
    } else {
        // Wrapping: a forged delta yields a pc outside the text, which
        // validation rejects. (`checked_add` here cost a third of the
        // decode time.)
        (prev_pc + 1).wrapping_add(r.get_varint_i64().ok()?)
    };
    let addr = if tag & TAG_ADDR != 0 {
        prev_addr.wrapping_add(r.get_varint_i64().ok()? as u64)
    } else {
        prev_addr
    };
    Some(Predecoded {
        addr,
        pc: u32::try_from(pc).ok()?,
        tag,
        len: u8::try_from(rec.len() - pos - r.remaining()).ok()?,
    })
}

impl CommittedTrace {
    /// Runs `program` functionally once and captures its committed stream.
    ///
    /// The first `warmup_insts` instructions are executed but not
    /// recorded, and sequence numbering restarts at the measurement point,
    /// so the timing model sees a contiguous stream from record 0.
    ///
    /// `cap`, when given, bounds the recorded stream; a capture that hits
    /// the cap before the program halts is marked incomplete.
    /// [`Simulator::new`](crate::Simulator::new) caps its own capture at
    /// one record past what fetch can consume under the configuration's
    /// instruction and cycle limits
    /// ([`CpuConfig::capture_bound`](crate::CpuConfig::capture_bound));
    /// the public replay constructors refuse an incomplete trace shorter
    /// than that bound, because it could starve fetch before the run ends.
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
        // The container is built in one buffer: the header, the image,
        // then the records streamed in as the emulator commits them. The
        // census and the records' length are patched in at the end.
        let image = hbdc_isa::object::to_bytes(program);
        let program_fp = hash64(&image);
        let mut w = StateWriter::sealed(TRACE_MAGIC, TRACE_VERSION);
        w.put_u64(program_fp);
        w.put_u64(warmup_insts);
        let census_at = w.len();
        w.put_u64(0); // records
        w.put_u64(0); // loads
        w.put_u64(0); // stores
        w.put_bool(true); // complete
        w.put_bytes(&image);
        drop(image);
        let rec_len_at = w.len();
        w.put_u64(0);
        let rec_start = w.len();

        let mut emu = Emulator::new(program);
        for _ in 0..warmup_insts {
            if emu.step().is_none() {
                break;
            }
        }
        emu.rebase_seq();
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
            w.put_u8(tag);
            if pc_delta != 0 {
                w.put_varint_i64(pc_delta);
            }
            if let Some(a) = di.addr {
                w.put_varint_i64(a.wrapping_sub(prev_addr) as i64);
                prev_addr = a;
            }
            prev_pc = i64::from(di.pc);
            records += 1;
            if Some(records) == cap && !emu.halted() {
                complete = false;
                break;
            }
        }
        drop(emu);
        let rec_len = w.len() - rec_start;
        w.patch_u64(census_at, records);
        w.patch_u64(census_at + 8, loads);
        w.patch_u64(census_at + 16, stores);
        w.patch_bool(census_at + 24, complete);
        w.patch_u64(rec_len_at, rec_len as u64);
        // The records section is the payload's last field.
        let sealed = w.into_sealed();
        Ok(Self {
            rec: sealed.len() - rec_len..sealed.len(),
            sealed: Arc::new(sealed),
            program: Arc::new(program.clone()),
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
    /// envelope, [`SnapError::Corrupt`] for a records section that does
    /// not decode to exactly the advertised stream.
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
        let computed_fp = hash64(&image);
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

    /// One full pass over the records section with the replay decoder
    /// (see [`from_bytes`](Self::from_bytes)), so every record a player
    /// will decode has been decoded and checked once here.
    fn validate_records(&self) -> Result<(), SnapError> {
        let text = self.program.text();
        let rec = &self.sealed[self.rec.clone()];
        let (mut pos, mut prev_pc, mut prev_addr) = (0, -1i64, 0u64);
        let (mut loads, mut stores) = (0u64, 0u64);
        for n in 0..self.records {
            let corrupt = |what: String| SnapError::Corrupt(format!("record {n}: {what}"));
            let p = decode_record(rec, pos, prev_pc, prev_addr)
                .ok_or_else(|| corrupt(format!("byte {pos} does not decode to a pc")))?;
            let (tag, pc) = (p.tag, p.pc);
            if tag & !TAG_KNOWN != 0 {
                return Err(corrupt(format!("unknown tag bits {tag:#04x}")));
            }
            if tag & TAG_PC_SEQ == 0 && i64::from(pc) == prev_pc + 1 {
                return Err(corrupt(
                    "explicit zero pc delta (must use the sequential tag)".into(),
                ));
            }
            let inst = text.get(pc as usize).ok_or_else(|| {
                corrupt(format!(
                    "pc {pc} out of range for a {}-instruction text section",
                    text.len()
                ))
            })?;
            if (tag & TAG_ADDR != 0) != inst.is_mem() {
                return Err(corrupt(format!(
                    "address flag disagrees with instruction {inst:?} at pc {pc}"
                )));
            }
            if tag & TAG_BRANCH == 0 && tag & TAG_TAKEN != 0 {
                return Err(corrupt("taken flag without a branch flag".into()));
            }
            if (tag & TAG_BRANCH != 0) != matches!(inst, hbdc_isa::Inst::Branch { .. }) {
                return Err(corrupt(format!(
                    "branch flag disagrees with instruction {inst:?} at pc {pc}"
                )));
            }
            if inst.is_store() {
                stores += 1;
            } else if inst.is_mem() {
                loads += 1;
            }
            (pos, prev_pc, prev_addr) = (pos + usize::from(p.len), i64::from(pc), p.addr);
        }
        if pos != rec.len() {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after the last record",
                rec.len() - pos
            )));
        }
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

    /// [`hash64`] fingerprint of the program object image.
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

    /// A fresh replay cursor positioned at record 0. It shares the
    /// encoded bytes with this trace and owns only its one block buffer.
    pub fn player(&self) -> TracePlayer {
        TracePlayer {
            sealed: Arc::clone(&self.sealed),
            rec: self.rec.clone(),
            program: Arc::clone(&self.program),
            block: Vec::new(),
            next_in_block: 0,
            pos: 0,
            next_seq: 0,
            prev_pc: -1,
            prev_addr: 0,
            total: self.records,
        }
    }
}

/// A replay cursor over a [`CommittedTrace`]'s records section.
///
/// Decodes `BLOCK` records at a time into one reusable buffer and
/// serves [`step`](Self::step)s from it, sharing the encoded bytes with
/// the trace (and with every other player of the same trace). The
/// records were fully validated when the trace was parsed, so stepping
/// is infallible: the cursor yields `None` exactly once the recorded
/// stream ends, just like [`Emulator::step`] at halt.
#[derive(Debug, Clone)]
pub struct TracePlayer {
    sealed: Arc<Vec<u8>>,
    /// The records section's byte range within `sealed`; `pos` is an
    /// offset into it.
    rec: Range<usize>,
    program: Arc<Program>,
    /// The records from `next_seq - next_in_block` on, decoded from the
    /// cursor below when the previous block ran out.
    block: Vec<Predecoded>,
    next_in_block: usize,
    // The cursor just past the last delivered record: what snapshots
    // save, and where the next refill starts decoding.
    pos: usize,
    next_seq: u64,
    prev_pc: i64,
    prev_addr: u64,
    total: u64,
}

impl TracePlayer {
    /// Decodes the next block from the cursor; `false` at end of stream.
    #[cold]
    fn refill(&mut self) -> bool {
        let n = (self.total - self.next_seq).min(BLOCK as u64) as usize;
        let rec = &self.sealed[self.rec.clone()];
        let (mut pos, mut pc, mut addr) = (self.pos, self.prev_pc, self.prev_addr);
        self.block.clear();
        self.block.reserve_exact(n);
        self.next_in_block = 0;
        for _ in 0..n {
            let Some(p) = decode_record(rec, pos, pc, addr) else {
                break;
            };
            (pos, pc, addr) = (pos + usize::from(p.len), i64::from(p.pc), p.addr);
            self.block.push(p);
        }
        !self.block.is_empty()
    }

    /// Delivers the next record as the block buffer holds it, or `None`
    /// at end of stream. Its sequence number is one less than
    /// [`delivered`](Self::delivered) after the call.
    #[inline]
    pub(crate) fn next_record(&mut self) -> Option<Predecoded> {
        if self.next_in_block == self.block.len() && !self.refill() {
            return None;
        }
        let p = self.block[self.next_in_block];
        self.next_in_block += 1;
        self.pos += usize::from(p.len);
        self.next_seq += 1;
        self.prev_pc = i64::from(p.pc);
        self.prev_addr = p.addr;
        Some(p)
    }

    /// Yields the next committed instruction, or `None` at end of stream.
    pub fn step(&mut self) -> Option<DynInst> {
        let seq = self.next_seq;
        let p = self.next_record()?;
        Some(DynInst {
            seq,
            pc: p.pc,
            inst: *self.program.text().get(p.pc as usize)?,
            addr: (p.tag & TAG_ADDR != 0).then_some(p.addr),
            taken: p.taken(),
        })
    }

    /// The PC of the next undelivered record (diagnostics; the
    /// emulator's program counter at that point of the stream). Falls
    /// back to one past the last delivered PC at end of stream.
    pub fn peek_pc(&self) -> u32 {
        let rec = &self.sealed[self.rec.clone()];
        (self.next_seq < self.total)
            .then(|| decode_record(rec, self.pos, self.prev_pc, self.prev_addr))
            .flatten()
            .map_or_else(
                || u32::try_from(self.prev_pc + 1).unwrap_or(u32::MAX),
                |p| p.pc,
            )
    }

    /// Records delivered so far (the next record's sequence number).
    pub fn delivered(&self) -> u64 {
        self.next_seq
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
    ///
    /// Replay decodes from `pos`, `prev_pc` and `prev_addr` alone, so they
    /// must be exactly where record `next_seq` starts. This rewinds the
    /// player, steps it to `next_seq` and rejects a cursor that disagrees
    /// with where it lands. The player is then in the very state of one
    /// that was never interrupted, block buffer included.
    pub(crate) fn load_cursor(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let saved = (r.get_usize()?, r.get_u64()?, r.get_i64()?, r.get_u64()?);
        let next_seq = saved.1;
        if next_seq > self.total {
            return Err(SnapError::Corrupt(format!(
                "trace cursor seq {next_seq} beyond a {}-record stream",
                self.total
            )));
        }
        (self.pos, self.next_seq, self.prev_pc, self.prev_addr) = (0, 0, -1, 0);
        self.block.clear();
        self.next_in_block = 0;
        while self.next_seq < next_seq && self.next_record().is_some() {}
        let derived = (self.pos, self.next_seq, self.prev_pc, self.prev_addr);
        if derived != saved {
            return Err(SnapError::Corrupt(format!(
                "trace cursor (offset, seq, pc, addr) {saved:?} is not where record \
                 {next_seq} starts: {derived:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::asm::assemble;
    use hbdc_snap::seal;

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
        let rec_len = trace.as_bytes().len();
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
    fn bogus_cursor_is_rejected() {
        let p = program(KERNEL);
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let mut player = trace.player();
        for _ in 0..10 {
            player.step();
        }
        let (seq, pc, addr) = (player.next_seq, player.prev_pc, player.prev_addr);
        let forged = [
            // Offset far beyond the records section.
            (usize::MAX, 0, -1, 0),
            // Seq in range, but the offset is one byte off record 10's start.
            (player.pos + 1, seq, pc, addr),
            (player.pos - 1, seq, pc, addr),
            // Right offset, wrong running pc or address.
            (player.pos, seq, pc + 1, addr),
            (player.pos, seq, pc, addr ^ 4),
            // Past the end of the stream.
            (player.pos, trace.records() + 1, pc, addr),
        ];
        for (pos, seq, pc, addr) in forged {
            let mut w = StateWriter::new();
            w.put_usize(pos);
            w.put_u64(seq);
            w.put_i64(pc);
            w.put_u64(addr);
            let bytes = w.into_bytes();
            let mut r = StateReader::new(&bytes);
            assert!(
                matches!(
                    trace.player().load_cursor(&mut r),
                    Err(SnapError::Corrupt(_))
                ),
                "accepted cursor ({pos}, {seq}, {pc}, {addr:#x})"
            );
        }
    }

    /// Kernels for the replay ≡ emulation table: one per feature the
    /// 16-byte predecoded record folds away or re-derives.
    const PLAYER_KERNELS: [(&str, &str); 5] = [
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
        // A double-word load at u64::MAX - 3 wraps to address 0 (this
        // once overflowed the address arithmetic in debug builds).
        (
            "access wrapping past the top",
            "main: ld r1, -4(r0)\n halt\n",
        ),
    ];

    /// Every kernel replays record for record as the emulator executes
    /// it, and `peek_pc` names the next record before every step (and
    /// one past the last pc at the end, as the halted emulator does).
    #[test]
    fn player_kernels_replay_as_emulated() {
        for (name, src) in PLAYER_KERNELS {
            let p = program(src);
            let trace = CommittedTrace::capture(&p, 0, None).unwrap();
            let expected = emulated(&p, 0);
            let mut player = trace.player();
            let mut records = Vec::new();
            for want in &expected {
                assert_eq!(player.peek_pc(), want.pc, "{name}: peeked pc");
                records.push(player.step().expect("stream ended early"));
            }
            assert!(player.step().is_none(), "{name}: stream ran long");
            let last = expected.last().unwrap().pc;
            assert_eq!(player.peek_pc(), last + 1, "{name}: peeked pc at end");
            assert_eq!(records, expected, "{name}: replay ≠ emulation");
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

    fn cursor_bytes(player: &TracePlayer) -> Vec<u8> {
        let mut w = StateWriter::new();
        player.save_cursor(&mut w);
        w.into_bytes()
    }

    /// A cursor saved on either side of a block boundary continues
    /// exactly like the player it was saved from, loaded into a fresh
    /// player or into one that is mid-block elsewhere in the stream:
    /// same records and the same cursor bytes after every step.
    #[test]
    fn cursor_resumes_across_block_boundaries() {
        // Six records per trip, 2000 trips: a dozen blocks.
        let p = program(
            &KERNEL
                .replace("li r9, 4", "li r9, 2000")
                .replace(".word 3, 5, 7, 9", ".space 8000"),
        );
        let trace = CommittedTrace::capture(&p, 0, None).unwrap();
        let n = trace.records();
        let block = BLOCK as u64;
        assert!(n > 2 * block + 2, "{n} records");
        for at in [0, block - 1, block, block + 1, 2 * block, n] {
            let mut reused = trace.player();
            for _ in 0..block + 3 {
                reused.step().unwrap();
            }
            for (kind, mut resumed) in [("fresh", trace.player()), ("reused", reused)] {
                let mut original = trace.player();
                for _ in 0..at {
                    original.step().unwrap();
                }
                let saved = cursor_bytes(&original);
                resumed.load_cursor(&mut StateReader::new(&saved)).unwrap();
                assert_eq!(resumed.delivered(), at);
                loop {
                    assert_eq!(resumed.peek_pc(), original.peek_pc(), "{kind} from {at}");
                    let (a, b) = (original.step(), resumed.step());
                    assert_eq!(a, b, "{kind} from {at}");
                    assert_eq!(
                        cursor_bytes(&original),
                        cursor_bytes(&resumed),
                        "{kind} from {at}"
                    );
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
