//! Binary (de)serialization of workload traces.
//!
//! The paper's toolchain materializes dynamic traces once and replays them
//! across the four architectures; this module gives the same workflow:
//! [`write_workload`] captures an instrumented run into a compact binary
//! file and [`read_workload`] replays it without rebuilding the kernels.
//!
//! Format (`FTRC`, version 2, little-endian): a header, then each phase as
//! `(name, unit, mlp, lease, ops, refs)`, each reference its lanes — the
//! block index as a zigzag varint delta against the phase's previous
//! block, the kind byte and the compute gap — terminated by an FNV-1a
//! checksum of the payload so silent corruption is detected on replay.
//! Block ordinals are not stored: the encoder resolves each reference's
//! ordinal to its block, and reading numbers the blocks at first touch
//! again, as the recorder did.

use std::io::{self, Read, Write};

use fusion_types::error::SimError;
use fusion_types::hash::{fnv1a, Fnv1a};
use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, AxcId, BlockAddr, Pid, CACHE_BLOCK_BYTES};

use crate::trace::{LaneWriter, OpCounts, Phase, Workload};

const MAGIC: &[u8; 4] = b"FTRC";
const VERSION: u16 = 2;

/// Magic plus version: the bytes the payload checksum skips.
const HEADER_BYTES: usize = MAGIC.len() + 2;

/// Minimum encoded size of one phase: name length (2) + unit (2) + mlp
/// (2) + lease (4) + ops (16) + refs count (4). Bounds the `phases`
/// count field against the remaining payload before any allocation.
const MIN_PHASE_BYTES: usize = 2 + 2 + 2 + 4 + 8 + 8 + 4;

/// Minimum encoded size of one reference: varint delta (1) + kind (1) +
/// gap (2). Bounds the per-phase `refs` count field.
const MIN_REF_BYTES: usize = 1 + 1 + 2;

/// Largest block index a trace may name: its base address fits a `u64`.
const MAX_BLOCK_INDEX: u64 = u64::MAX / CACHE_BLOCK_BYTES as u64;

fn malformed(what: impl Into<String>) -> SimError {
    SimError::DecodeError {
        detail: what.into(),
    }
}

/// Little-endian append helpers for the encode path (the subset of
/// `bytes::BufMut` this module needs, so the format has no external
/// dependency).
trait PutLe {
    fn put_slice(&mut self, s: &[u8]);
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl PutLe for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// A [`PutLe`] sink that hashes the payload instead of storing it: into
/// the whole-file state of [`fingerprint`] and into the payload checksum.
struct HashSink {
    file: Fnv1a,
    payload: Fnv1a,
}

impl PutLe for HashSink {
    fn put_slice(&mut self, s: &[u8]) {
        self.file.write(s);
        self.payload.write(s);
    }
}

/// Little-endian cursor helpers for the decode path (the subset of
/// `bytes::Buf` this module needs, implemented on byte slices).
///
/// Callers must check [`GetLe::remaining`] before reading; the getters
/// panic on underflow exactly like their `bytes` namesakes.
trait GetLe {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    fn get_u8(&mut self) -> u8;
    fn get_u16_le(&mut self) -> u16;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
}

impl GetLe for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.advance(1);
        v
    }
    fn get_u16_le(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        #[expect(
            clippy::unwrap_used,
            reason = "split_at(2) guarantees the exact slice length"
        )]
        let v = u16::from_le_bytes(head.try_into().unwrap());
        *self = rest;
        v
    }
    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        #[expect(
            clippy::unwrap_used,
            reason = "split_at(4) guarantees the exact slice length"
        )]
        let v = u32::from_le_bytes(head.try_into().unwrap());
        *self = rest;
        v
    }
    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        #[expect(
            clippy::unwrap_used,
            reason = "split_at(8) guarantees the exact slice length"
        )]
        let v = u64::from_le_bytes(head.try_into().unwrap());
        *self = rest;
        v
    }
}

/// Length/count fields are encoded into fixed-width wire slots. Real
/// workloads sit far below the limits (phases and strings in the tens,
/// refs in the millions); saturating keeps encode infallible while
/// guaranteeing an out-of-range count can never wrap onto a small value
/// that would decode as a plausible — but wrong — trace.
fn wire_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// See [`wire_u32`].
fn wire_u16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Encodes `workload` into its binary trace representation.
pub fn encode_workload(workload: &Workload) -> Vec<u8> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a capacity hint; the lanes already sit in memory, so their length fits usize"
    )]
    let mut buf = Vec::with_capacity(64 + workload.total_refs() as usize * 5);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    put_payload(&mut buf, workload);
    let checksum = fnv1a(&buf[HEADER_BYTES..]);
    buf.put_u64_le(checksum);
    buf
}

/// FNV-1a over the bytes [`encode_workload`] returns, trailing checksum
/// included: the trace's identity in the result journal. The bytes are
/// hashed as they are encoded, never stored.
pub fn fingerprint(workload: &Workload) -> u64 {
    let mut sink = HashSink {
        file: Fnv1a::new(),
        payload: Fnv1a::new(),
    };
    sink.file.write(MAGIC);
    sink.file.write(&VERSION.to_le_bytes());
    put_payload(&mut sink, workload);
    let checksum = sink.payload.finish();
    sink.file.write(&checksum.to_le_bytes());
    sink.file.finish()
}

/// Encodes everything between the header and the checksum: the pid, the
/// name and each phase with its references.
fn put_payload<B: PutLe>(buf: &mut B, workload: &Workload) {
    buf.put_u32_le(workload.pid.value());
    put_str(buf, &workload.name);
    buf.put_u32_le(wire_u32(workload.phases.len()));
    for (idx, p) in workload.phases.iter().enumerate() {
        put_str(buf, &p.name);
        match p.unit {
            ExecUnit::Host => buf.put_u16_le(u16::MAX),
            ExecUnit::Axc(id) => buf.put_u16_le(id.value()),
        }
        buf.put_u16_le(wire_u16(p.mlp));
        buf.put_u32_le(p.lease);
        buf.put_u64_le(p.ops.int_ops);
        buf.put_u64_le(p.ops.fp_ops);
        let dp = workload.phase_refs(idx);
        buf.put_u32_le(wire_u32(dp.len()));
        let mut prev = 0u64;
        for ((b, kind), &gap) in dp.blocks().zip(dp.kinds).zip(dp.gaps) {
            put_varint(buf, zigzag(b.index().wrapping_sub(prev) as i64));
            prev = b.index();
            buf.put_u8(kind.is_write() as u8);
            buf.put_u16_le(gap);
        }
    }
}

/// Decodes a workload from its binary trace representation.
///
/// Hardened against arbitrary input: truncation at any offset, length
/// fields larger than the remaining payload (no attacker-controlled
/// allocation), and trailing garbage after the last phase all return
/// [`SimError::DecodeError`]; no input panics.
///
/// # Errors
///
/// Returns [`SimError::DecodeError`] when the input is truncated, damaged,
/// or a different format version.
pub fn decode_workload(mut data: &[u8]) -> Result<Workload, SimError> {
    if data.remaining() < 6 || &data[..4] != MAGIC {
        return Err(malformed("bad magic"));
    }
    data.advance(4);
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(malformed(format!(
            "unsupported trace version {version} (expected {VERSION})"
        )));
    }
    // Verify the trailing payload checksum before parsing anything.
    if data.remaining() < 8 {
        return Err(malformed("missing checksum"));
    }
    let (payload, mut tail) = data.split_at(data.len() - 8);
    let stored = tail.get_u64_le();
    if fnv1a(payload) != stored {
        return Err(malformed("checksum mismatch"));
    }
    data = payload;
    if data.remaining() < 4 {
        return Err(malformed("truncated header"));
    }
    let pid = Pid::new(data.get_u32_le());
    let name = get_str(&mut data)?;
    if data.remaining() < 4 {
        return Err(malformed("truncated phase count"));
    }
    let phases_len = data.get_u32_le() as usize;
    // A phase encodes to at least MIN_PHASE_BYTES: a count that cannot fit
    // in the remaining payload is corrupt, and rejecting it here keeps the
    // allocation below bounded by the input size.
    if phases_len > data.remaining() / MIN_PHASE_BYTES {
        return Err(malformed("phase count exceeds payload"));
    }
    let mut phases = Vec::with_capacity(phases_len);
    let mut lanes = LaneWriter::new();
    for _ in 0..phases_len {
        let pname = get_str(&mut data)?;
        if data.remaining() < 2 + 2 + 4 + 8 + 8 + 4 {
            return Err(malformed("truncated phase header"));
        }
        let unit_raw = data.get_u16_le();
        let unit = if unit_raw == u16::MAX {
            ExecUnit::Host
        } else {
            ExecUnit::Axc(AxcId::new(unit_raw))
        };
        let mlp = data.get_u16_le() as usize;
        let lease = data.get_u32_le();
        let ops = OpCounts {
            int_ops: data.get_u64_le(),
            fp_ops: data.get_u64_le(),
        };
        let refs_len = data.get_u32_le() as usize;
        // Same bound as the phase count: each reference needs at least
        // MIN_REF_BYTES of payload.
        if refs_len > data.remaining() / MIN_REF_BYTES {
            return Err(malformed("reference count exceeds payload"));
        }
        let mut prev = 0u64;
        for _ in 0..refs_len {
            let block = prev.wrapping_add(unzigzag(get_varint(&mut data)?) as u64);
            if block > MAX_BLOCK_INDEX {
                return Err(malformed("block index out of range"));
            }
            prev = block;
            if data.remaining() < 3 {
                return Err(malformed("truncated reference"));
            }
            let kind = match data.get_u8() {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                k => return Err(malformed(format!("bad kind byte {k}"))),
            };
            lanes.push(BlockAddr::from_index(block), kind, data.get_u16_le());
        }
        lanes.end_phase();
        phases.push(Phase {
            name: pname,
            unit,
            ops,
            mlp: mlp.max(1),
            lease,
        });
    }
    if data.remaining() != 0 {
        return Err(malformed(format!(
            "{} bytes of trailing garbage after the last phase",
            data.remaining()
        )));
    }
    Ok(lanes.finish(name, pid, phases))
}

/// Writes `workload` to `writer` in the binary trace format.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_workload<W: Write>(workload: &Workload, mut writer: W) -> io::Result<()> {
    writer.write_all(&encode_workload(workload))
}

/// Reads a workload previously written with [`write_workload`].
///
/// # Errors
///
/// Returns [`SimError::DecodeError`] on I/O failure or malformed input
/// (read failures surface as decode errors: the trace could not be
/// obtained, so it could not be decoded).
pub fn read_workload<R: Read>(mut reader: R) -> Result<Workload, SimError> {
    let mut data = Vec::new();
    reader
        .read_to_end(&mut data)
        .map_err(|e| malformed(format!("trace read failed: {e}")))?;
    decode_workload(&data)
}

fn put_str<B: PutLe>(buf: &mut B, s: &str) {
    buf.put_u16_le(wire_u16(s.len()));
    buf.put_slice(s.as_bytes());
}

fn get_str(data: &mut &[u8]) -> Result<String, SimError> {
    if data.remaining() < 2 {
        return Err(malformed("truncated string length"));
    }
    let len = data.get_u16_le() as usize;
    if data.remaining() < len {
        return Err(malformed("truncated string"));
    }
    let s = std::str::from_utf8(&data[..len])
        .map_err(|_| malformed("non-utf8 string"))?
        .to_owned();
    data.advance(len);
    Ok(s)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint<B: PutLe>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(data: &mut &[u8]) -> Result<u64, SimError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if data.remaining() < 1 {
            return Err(malformed("truncated varint"));
        }
        let byte = data.get_u8();
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(malformed("varint overflow"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> Workload {
        let rec = Recorder::new();
        rec.int_ops(8); // gap 2
        rec.access(BlockAddr::from_index(0x20), AccessKind::Load);
        rec.access(BlockAddr::from_index(0x1), AccessKind::Store);
        rec.fp_ops(2);
        rec.end_phase("f", ExecUnit::Axc(AxcId::new(1)), 3, 500);
        rec.end_phase("host", ExecUnit::Host, 1, 100);
        rec.finish("T", Pid::new(3))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let wl = sample();
        let bytes = encode_workload(&wl);
        let back = decode_workload(&bytes).unwrap();
        assert_eq!(wl, back);
    }

    #[test]
    fn roundtrip_keeps_ordinals_across_recent_memo_collisions() {
        // Blocks 1024 apart share a slot of the lane writer's recent-block
        // memo: reading must number every block as the recorder did.
        let rec = Recorder::new();
        let b = BlockAddr::from_index;
        for i in [5, 5 + 1024, 5, 5 + 2048] {
            rec.access(b(i), AccessKind::Load);
        }
        rec.end_phase("f", ExecUnit::Axc(AxcId::new(0)), 2, 100);
        for i in [5 + 1024, 7, 5 + 2048, 5] {
            rec.access(b(i), AccessKind::Store);
        }
        rec.end_phase("host", ExecUnit::Host, 1, 100);
        let wl = rec.finish("T", Pid::new(1));
        let back = decode_workload(&encode_workload(&wl)).unwrap();
        assert_eq!(back.ordinal_blocks(), wl.ordinal_blocks());
        assert_eq!(wl.ordinal_blocks(), [b(5), b(5 + 1024), b(5 + 2048), b(7)]);
        for idx in 0..2 {
            assert_eq!(back.phase_refs(idx).ordinals, wl.phase_refs(idx).ordinals);
        }
        assert_eq!(wl.phase_refs(1).ordinals, [1, 3, 2, 0]);
    }

    #[test]
    fn roundtrip_via_reader_writer() {
        let wl = sample();
        let mut file = Vec::new();
        write_workload(&wl, &mut file).unwrap();
        let back = read_workload(file.as_slice()).unwrap();
        assert_eq!(wl, back);
    }

    /// Recomputes and rewrites the trailing checksum so structural
    /// corruption tests reach the parser instead of dying at the
    /// checksum gate.
    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len() - 8;
        let sum = fnv1a(&bytes[HEADER_BYTES..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            decode_workload(b"NOPE\x01\x00"),
            Err(SimError::DecodeError { .. })
        ));
        // Version 1 stored addresses and sizes, not lanes.
        for version in [1u8, 9] {
            let mut bytes = encode_workload(&sample()).to_vec();
            bytes[4] = version;
            match decode_workload(&bytes) {
                Err(SimError::DecodeError { detail }) => {
                    assert!(
                        detail.contains(&format!("version {version} (expected 2)")),
                        "{detail}"
                    )
                }
                other => panic!("expected version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode_workload(&sample());
        for cut in 1..bytes.len() {
            assert!(
                decode_workload(&bytes[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
    }

    #[test]
    fn rejects_length_field_overflow_without_allocating() {
        // Phase count pumped to u32::MAX with a valid checksum: the bound
        // check must reject it before Vec::with_capacity sees the value.
        let mut bytes = encode_workload(&sample());
        let pos = 6 + 4 + 2 + sample().name.len(); // pid + name-len + name
        bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        match decode_workload(&bytes) {
            Err(SimError::DecodeError { detail }) => {
                assert!(detail.contains("phase count"), "{detail}")
            }
            other => panic!("expected phase-count error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_bad_kind_byte() {
        // The first reference's kind byte follows its one-byte delta.
        let mut bytes = encode_workload(&sample());
        let pos = 6 + 4 + 3 + 4 + 3 + 2 + 2 + 4 + 16 + 4 + 1;
        assert_eq!(bytes[pos], 0, "the first reference is a load");
        bytes[pos] = 2;
        reseal(&mut bytes);
        match decode_workload(&bytes) {
            Err(SimError::DecodeError { detail }) => {
                assert!(detail.contains("bad kind byte 2"), "{detail}")
            }
            other => panic!("expected kind error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_ref_count_overflow_without_allocating() {
        // The first phase's refs count sits right before its first ref:
        // header is pid(4) + name(2+1) + phases(4), phase "f" is
        // name(2+1) + unit(2) + mlp(2) + lease(4) + ops(16) + count(4).
        let mut bytes = encode_workload(&sample());
        let pos = 6 + 4 + 3 + 4 + 3 + 2 + 2 + 4 + 16;
        bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        match decode_workload(&bytes) {
            Err(SimError::DecodeError { detail }) => {
                assert!(detail.contains("reference count"), "{detail}")
            }
            other => panic!("expected ref-count error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        // Append payload bytes after the last phase and reseal: the
        // checksum passes but the parser must notice the leftovers.
        let mut bytes = encode_workload(&sample());
        let n = bytes.len() - 8;
        bytes.splice(n..n, [0xAAu8, 0xBB, 0xCC]);
        reseal(&mut bytes);
        match decode_workload(&bytes) {
            Err(SimError::DecodeError { detail }) => {
                assert!(detail.contains("trailing garbage"), "{detail}")
            }
            other => panic!("expected trailing-garbage error, got {other:?}"),
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut data: &[u8] = &buf;
        for &v in &values {
            assert_eq!(get_varint(&mut data).unwrap(), v);
        }
    }

    #[test]
    fn real_workload_roundtrips_compactly() {
        // Delta-encoding keeps sequential traces small (4 bytes/ref).
        use crate::Recorder;
        let rec = Recorder::new();
        let mut b = rec.buffer::<f32>(256);
        for i in 0..256 {
            b.set(i, i as f32);
        }
        rec.end_phase("w", ExecUnit::Axc(AxcId::new(0)), 2, 100);
        let wl = rec.finish("seq", Pid::new(1));
        let bytes = encode_workload(&wl);
        assert!(
            bytes.len() < 256 * 4 + 64,
            "trace too large: {}",
            bytes.len()
        );
        assert_eq!(decode_workload(&bytes).unwrap(), wl);
    }
}
