//! `hbdc-snap`: the crash-safety substrate for the simulator family.
//!
//! Every other crate in this workspace hand-rolls exactly one durable
//! artifact kind — simulator snapshots ([`hbdc-cpu`]'s `SimSnapshot`) and
//! matrix run journals (`hbdc-bench`'s `RunJournal`) — and both are built
//! on the primitives here:
//!
//! * [`StateWriter`] / [`StateReader`] — a tiny little-endian binary codec
//!   with length-prefixed byte strings. The workspace deliberately carries
//!   no serializer dependency, so this *is* the serialization layer.
//! * [`seal`] / [`open`] — a versioned, checksummed container envelope
//!   (magic, format version, payload length, [`hash64`] checksum) so stale or
//!   truncated state files fail loudly instead of resuming garbage.
//! * [`write_atomic`] — write-to-temp-then-rename, the crash-safe file
//!   update discipline both snapshot and journal writers use.
//! * [`interrupt`] — a process-wide SIGINT latch so long campaigns can
//!   shut down gracefully at a cycle boundary instead of dying mid-write.
//! * [`clock`] — the calling thread's CPU clock, which the simulator's
//!   host-time report fields are measured with.
//! * [`lock`] — advisory file locking, pid liveness probes, and
//!   corrupt-artifact eviction for multi-process campaign supervision.
//!
//! # Examples
//!
//! ```
//! use hbdc_snap::{open, seal, StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.put_u64(42);
//! w.put_str("li");
//! let file = seal(*b"DEMO", 1, &w.into_bytes());
//!
//! let payload = open(&file, *b"DEMO", 1)?;
//! let mut r = StateReader::new(payload);
//! assert_eq!(r.get_u64()?, 42);
//! assert_eq!(r.get_str()?, "li");
//! r.expect_end()?;
//! # Ok::<(), hbdc_snap::SnapError>(())
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod interrupt;
pub mod lock;

use std::fmt;
use std::path::Path;

/// Errors from decoding or verifying serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        want: usize,
    },
    /// The container's magic bytes do not match the expected kind.
    BadMagic {
        /// Magic found in the file.
        found: [u8; 4],
        /// Magic the reader expected.
        want: [u8; 4],
    },
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version the reader understands.
        want: u32,
    },
    /// The payload checksum does not match the stored checksum: the file
    /// was truncated, bit-rotted, or hand-edited.
    ChecksumMismatch {
        /// Checksum stored in the container header.
        stored: u64,
        /// Checksum computed over the payload as read.
        computed: u64,
    },
    /// The bytes decoded but describe an impossible state (bad enum tag,
    /// mismatched collection length, dangling reference).
    Corrupt(String),
    /// An I/O failure while reading or writing a state file.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { at, want } => {
                write!(f, "state truncated: needed {want} bytes at offset {at}")
            }
            SnapError::BadMagic { found, want } => write!(
                f,
                "not a {} file (magic {:?})",
                String::from_utf8_lossy(want),
                found
            ),
            SnapError::BadVersion { found, want } => {
                write!(f, "unsupported format version {found} (expected {want})")
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            SnapError::Corrupt(detail) => write!(f, "corrupt state: {detail}"),
            SnapError::Io(detail) => write!(f, "state file I/O: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// XXH64 with seed 0 over `bytes` — the workspace's one content hash:
/// seal checksums, trace program fingerprints, matrix and build
/// fingerprints. It folds 32-byte stripes into four independent
/// multiply-rotate lanes, so it streams at memory speed where a
/// byte-serial hash is bound by one dependent multiply per byte. This
/// is an integrity check, not a security boundary.
///
/// The algorithm is the published XXH64 (Yann Collet); the tests pin
/// its reference answers.
pub fn hash64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    const P5: u64 = 0x27d4_eb2f_1656_67c5;
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
    fn round(acc: u64, input: u64) -> u64 {
        acc.wrapping_add(input.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    }

    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in stripes {
            v[0] = round(v[0], word(&s[0..]));
            v[1] = round(v[1], word(&s[8..]));
            v[2] = round(v[2], word(&s[16..]));
            v[3] = round(v[3], word(&s[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Append-only binary encoder; the writing half of the codec.
///
/// All integers are little-endian; byte strings are `u64`-length-prefixed.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `Option<u64>`: presence byte, then the value if any.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends an `Option<bool>`: presence byte, then the value if any.
    pub fn put_opt_bool(&mut self, v: Option<bool>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_bool(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a `u64` as an LEB128 varint (1–10 bytes, short for small
    /// values) — the workhorse of the trace record encoding, where most
    /// deltas fit in one or two bytes.
    pub fn put_varint_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends an `i64` as a zigzag-mapped varint, so small deltas of
    /// either sign encode in one byte.
    pub fn put_varint_i64(&mut self, v: i64) {
        self.put_varint_u64(zigzag_encode(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential binary decoder; the reading half of the codec.
///
/// Every accessor advances the cursor and fails with
/// [`SnapError::Truncated`] instead of panicking on short input.
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapError::Truncated {
                at: self.pos,
                want: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `Option<u64>` written by [`StateWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Reads an `Option<bool>` written by [`StateWriter::put_opt_bool`].
    pub fn get_opt_bool(&mut self) -> Result<Option<bool>, SnapError> {
        Ok(if self.get_bool()? {
            Some(self.get_bool()?)
        } else {
            None
        })
    }

    /// Reads an LEB128 varint `u64` written by
    /// [`StateWriter::put_varint_u64`].
    pub fn get_varint_u64(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(SnapError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    /// Reads a zigzag varint `i64` written by
    /// [`StateWriter::put_varint_i64`].
    pub fn get_varint_i64(&mut self) -> Result<i64, SnapError> {
        Ok(zigzag_decode(self.get_varint_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        self.get_byte_slice().map(<[u8]>::to_vec)
    }

    /// Reads a length-prefixed byte string as a view of the input,
    /// without copying it.
    pub fn get_byte_slice(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|e| SnapError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — catches writer/reader skew.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }
}

/// Maps an `i64` onto a `u64` with small magnitudes of either sign near
/// zero (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so varint encoding stays
/// short for signed deltas.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Container header size: magic (4) + version (4) + length (8) + checksum
/// (8). The payload [`open`] returns starts at this offset of the sealed
/// bytes.
pub const SEAL_HEADER_LEN: usize = 24;

/// Wraps `payload` in a checksummed container: 4-byte `magic`, `u32`
/// format `version`, `u64` payload length, `u64` [`hash64`] payload checksum,
/// then the payload itself.
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEAL_HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&hash64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies a [`seal`]ed container and returns a view of its payload.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::BadVersion`],
/// [`SnapError::Truncated`], or [`SnapError::ChecksumMismatch`] depending
/// on which integrity layer failed first.
pub fn open(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8], SnapError> {
    if bytes.len() < SEAL_HEADER_LEN {
        return Err(SnapError::Truncated {
            at: bytes.len(),
            want: SEAL_HEADER_LEN,
        });
    }
    let found_magic: [u8; 4] = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if found_magic != magic {
        return Err(SnapError::BadMagic {
            found: found_magic,
            want: magic,
        });
    }
    let found_version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if found_version != version {
        return Err(SnapError::BadVersion {
            found: found_version,
            want: version,
        });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let stored = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    // A forged length must not overflow the end offset.
    let end = usize::try_from(len)
        .ok()
        .and_then(|n| n.checked_add(SEAL_HEADER_LEN))
        .unwrap_or(usize::MAX);
    let payload = bytes
        .get(SEAL_HEADER_LEN..end)
        .ok_or(SnapError::Truncated {
            at: bytes.len(),
            want: end,
        })?;
    let computed = hash64(payload);
    if computed != stored {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Writes `bytes` to `path` crash-safely: the content lands in a
/// uniquely named `.tmp.<pid>.<seq>` sibling first and is renamed into
/// place, so readers only ever see the old file or the complete new one
/// — never a torn write.
///
/// The temp name carries the writer's pid and a per-process sequence
/// number because campaign shards race: two processes capturing the same
/// benchmark may persist the same trace-cache entry at the same instant,
/// and with a shared temp name one writer's `O_TRUNC` would interleave
/// with the other's bytes before the rename — a sealed-looking torn
/// file. With unique temps each rename installs one writer's complete
/// image (the contents are identical anyway: captures are
/// deterministic).
///
/// # Errors
///
/// [`SnapError::Io`] describing the failing operation.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)
        .map_err(|e| SnapError::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        // Best-effort cleanup: a failed rename must not strand the temp.
        let _ = std::fs::remove_file(&tmp);
        SnapError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-1234.5678);
        w.put_usize(99);
        w.put_opt_u64(Some(5));
        w.put_opt_u64(None);
        w.put_opt_bool(Some(false));
        w.put_opt_bool(None);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("hello");
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert_eq!(r.get_usize().unwrap(), 99);
        assert_eq!(r.get_opt_u64().unwrap(), Some(5));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_bool().unwrap(), Some(false));
        assert_eq!(r.get_opt_bool().unwrap(), None);
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_roundtrip_across_magnitudes() {
        let mut w = StateWriter::new();
        let us = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let is = [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        for &v in &us {
            w.put_varint_u64(v);
        }
        for &v in &is {
            w.put_varint_i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for &v in &us {
            assert_eq!(r.get_varint_u64().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(r.get_varint_i64().unwrap(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = StateWriter::new();
        w.put_varint_u64(5);
        w.put_varint_i64(-3);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: longer than any valid u64 varint.
        let mut r = StateReader::new(&[0x80; 11]);
        assert!(matches!(r.get_varint_u64(), Err(SnapError::Corrupt(_))));
        // 10th byte carrying bits beyond the 64th overflows.
        let mut r = StateReader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f]);
        assert!(matches!(r.get_varint_u64(), Err(SnapError::Corrupt(_))));
        // A dangling continuation bit is truncation, not a panic.
        let mut r = StateReader::new(&[0x80]);
        assert!(matches!(
            r.get_varint_u64(),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn zigzag_is_a_bijection_near_zero() {
        for (i, v) in [0i64, -1, 1, -2, 2, -3].iter().enumerate() {
            assert_eq!(zigzag_encode(*v), i as u64);
            assert_eq!(zigzag_decode(i as u64), *v);
        }
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn short_reads_are_truncation_not_panic() {
        let mut r = StateReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u64(),
            Err(SnapError::Truncated { at: 0, want: 8 })
        ));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = StateReader::new(&[9]);
        assert!(matches!(r.get_bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let r = StateReader::new(&[0]);
        assert!(matches!(r.expect_end(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn hash64_matches_the_xxh64_reference_answers() {
        assert_eq!(hash64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(hash64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(hash64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then the 8-, 4- and 1-byte tails.
        assert_eq!(
            hash64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal(*b"TEST", 3, b"payload");
        assert_eq!(open(&sealed, *b"TEST", 3).unwrap(), b"payload");
    }

    #[test]
    fn open_rejects_wrong_magic_version_and_corruption() {
        let sealed = seal(*b"TEST", 3, b"payload");
        assert!(matches!(
            open(&sealed, *b"XXXX", 3),
            Err(SnapError::BadMagic { .. })
        ));
        assert!(matches!(
            open(&sealed, *b"TEST", 4),
            Err(SnapError::BadVersion { found: 3, want: 4 })
        ));
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            open(&flipped, *b"TEST", 3),
            Err(SnapError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            open(&sealed[..10], *b"TEST", 3),
            Err(SnapError::Truncated { .. })
        ));

        // Empty, byte-tail-only, one short of a stripe, one stripe, one
        // past it, and several stripes plus every tail.
        for len in [0usize, 1, 31, 32, 33, 100] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sealed = seal(*b"TEST", 3, &payload);
            assert_eq!(open(&sealed, *b"TEST", 3).unwrap(), &payload[..]);
            // Every single-bit flip, header included, fails `open`.
            for bit in 0..sealed.len() * 8 {
                let mut bad = sealed.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    open(&bad, *b"TEST", 3).is_err(),
                    "payload length {len}: flipping bit {bit} went unnoticed"
                );
            }
            // Swapped 8-byte words: an order-blind sum would miss these.
            let words = len / 8;
            for (a, b) in [(0, 1), (0, words.saturating_sub(1))] {
                if a == b || b >= words {
                    continue;
                }
                let mut bad = sealed.clone();
                let (x, y) = (SEAL_HEADER_LEN + a * 8, SEAL_HEADER_LEN + b * 8);
                for i in 0..8 {
                    bad.swap(x + i, y + i);
                }
                assert!(
                    matches!(
                        open(&bad, *b"TEST", 3),
                        Err(SnapError::ChecksumMismatch { .. })
                    ),
                    "payload length {len}: swapping words {a} and {b} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn open_survives_a_forged_length() {
        let mut sealed = seal(*b"TEST", 3, b"payload");
        sealed[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            open(&sealed, *b"TEST", 3),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = std::env::temp_dir().join(format!("hbdc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // No temp files linger, whatever suffix scheme they used.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "state.bin")
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_display_and_are_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SnapError::BadVersion { found: 9, want: 1 });
        assert!(e.to_string().contains("version 9"));
    }
}
