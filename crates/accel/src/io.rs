//! Binary (de)serialization of workload traces.
//!
//! The paper's toolchain materializes dynamic traces once and replays them
//! across the four architectures; this module gives the same workflow:
//! [`write_workload`] captures an instrumented run into a compact binary
//! file and [`read_workload`] replays it without rebuilding the kernels.
//!
//! Format (`FTRC`, version 1, little-endian): a header, then each phase as
//! `(name, unit, mlp, lease, ops, refs)` with references delta-encoded
//! against the previous address, terminated by an FNV-1a checksum of the
//! payload so silent corruption is detected on replay.

use std::io::{self, Read, Write};

use fusion_types::error::SimError;
use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, AxcId, Pid, VirtAddr};

use crate::trace::{MemRef, OpCounts, Phase, Workload};

const MAGIC: &[u8; 4] = b"FTRC";
const VERSION: u16 = 1;

/// Magic plus version: the bytes the payload checksum skips.
const HEADER_BYTES: usize = MAGIC.len() + 2;

/// Minimum encoded size of one phase: name length (2) + unit (2) + mlp
/// (2) + lease (4) + ops (16) + refs count (4). Bounds the `phases`
/// count field against the remaining payload before any allocation.
const MIN_PHASE_BYTES: usize = 2 + 2 + 2 + 4 + 8 + 8 + 4;

/// Minimum encoded size of one reference: varint delta (1) + size (1) +
/// kind (1) + gap (2). Bounds the per-phase `refs` count field.
const MIN_REF_BYTES: usize = 1 + 1 + 1 + 2;

fn malformed(what: impl Into<String>) -> SimError {
    SimError::DecodeError {
        detail: what.into(),
    }
}

/// Little-endian append helpers for the encode path (the subset of
/// `bytes::BufMut` this module needs, so the format has no external
/// dependency). The encoder writes into a `Vec<u8>` or, to fingerprint a
/// workload without materializing its bytes, into a [`HashSink`].
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

/// Hashes an encoding as the encoder produces it: `whole` is FNV-1a over
/// every byte, `payload` over the bytes after the header (the trace's own
/// checksum).
struct HashSink {
    whole: u64,
    payload: u64,
    len: usize,
}

impl PutLe for HashSink {
    fn put_slice(&mut self, s: &[u8]) {
        self.whole = fnv1a_extend(self.whole, s);
        let skip = HEADER_BYTES.saturating_sub(self.len).min(s.len());
        self.payload = fnv1a_extend(self.payload, &s[skip..]);
        self.len += s.len();
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

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over the payload (everything after magic+version).
fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, data)
}

/// Continues an FNV-1a hash `h` over `data`.
fn fnv1a_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
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
        reason = "a capacity hint; the refs already sit in memory, so their count fits usize"
    )]
    let mut buf = Vec::with_capacity(64 + workload.total_refs() as usize * 6);
    encode_body(workload, &mut buf);
    let checksum = fnv1a(&buf[HEADER_BYTES..]);
    buf.put_u64_le(checksum);
    buf
}

/// FNV-1a over the bytes [`encode_workload`] returns, trailing checksum
/// included, hashed as the encoder produces them: no buffer of the whole
/// trace is built.
pub fn fingerprint(workload: &Workload) -> u64 {
    let mut sink = HashSink {
        whole: FNV_OFFSET,
        payload: FNV_OFFSET,
        len: 0,
    };
    encode_body(workload, &mut sink);
    let checksum = sink.payload;
    sink.put_u64_le(checksum);
    sink.whole
}

/// Writes everything but the trailing checksum: header, then phases.
fn encode_body<B: PutLe>(workload: &Workload, buf: &mut B) {
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(workload.pid.value());
    put_str(buf, &workload.name);
    buf.put_u32_le(wire_u32(workload.phases.len()));
    for p in &workload.phases {
        put_str(buf, &p.name);
        match p.unit {
            ExecUnit::Host => buf.put_u16_le(u16::MAX),
            ExecUnit::Axc(id) => buf.put_u16_le(id.value()),
        }
        buf.put_u16_le(wire_u16(p.mlp));
        buf.put_u32_le(p.lease);
        buf.put_u64_le(p.ops.int_ops);
        buf.put_u64_le(p.ops.fp_ops);
        buf.put_u32_le(wire_u32(p.refs.len()));
        let mut prev = 0u64;
        for r in &p.refs {
            // Delta-encoded address (zigzag), then size/kind/gap packed.
            let delta = r.addr.value() as i64 - prev as i64;
            put_varint(buf, zigzag(delta));
            prev = r.addr.value();
            buf.put_u8(r.size);
            buf.put_u8(r.kind.is_write() as u8);
            buf.put_u16_le(r.gap);
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
        let mut refs = Vec::with_capacity(refs_len);
        let mut prev = 0u64;
        for _ in 0..refs_len {
            let delta = unzigzag(get_varint(&mut data)?);
            let addr = (prev as i64).wrapping_add(delta) as u64;
            prev = addr;
            if data.remaining() < 4 {
                return Err(malformed("truncated reference"));
            }
            let size = data.get_u8();
            if size == 0 || size as usize > fusion_types::CACHE_BLOCK_BYTES {
                return Err(malformed("reference size out of range"));
            }
            let kind = if data.get_u8() != 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let gap = data.get_u16_le();
            refs.push(MemRef {
                addr: VirtAddr::new(addr),
                size,
                kind,
                gap,
            });
        }
        phases.push(Phase {
            name: pname,
            unit,
            refs,
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
    Ok(Workload { name, pid, phases })
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

    fn sample() -> Workload {
        Workload {
            name: "T".into(),
            pid: Pid::new(3),
            phases: vec![
                Phase {
                    name: "f".into(),
                    unit: ExecUnit::Axc(AxcId::new(1)),
                    refs: vec![
                        MemRef {
                            addr: VirtAddr::new(0x1000),
                            size: 4,
                            kind: AccessKind::Load,
                            gap: 2,
                        },
                        MemRef {
                            addr: VirtAddr::new(0x0040),
                            size: 8,
                            kind: AccessKind::Store,
                            gap: 0,
                        },
                    ],
                    ops: OpCounts {
                        int_ops: 7,
                        fp_ops: 2,
                    },
                    mlp: 3,
                    lease: 500,
                },
                Phase {
                    name: "host".into(),
                    unit: ExecUnit::Host,
                    refs: vec![],
                    ops: OpCounts::default(),
                    mlp: 1,
                    lease: 100,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let wl = sample();
        let bytes = encode_workload(&wl);
        let back = decode_workload(&bytes).unwrap();
        assert_eq!(wl, back);
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
        let mut bytes = encode_workload(&sample()).to_vec();
        bytes[4] = 9; // version
        match decode_workload(&bytes) {
            Err(SimError::DecodeError { detail }) => {
                assert!(detail.contains("version 9"), "{detail}")
            }
            other => panic!("expected version error, got {other:?}"),
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
        // Delta-encoding keeps sequential traces small (< 6 bytes/ref).
        use crate::Recorder;
        let rec = Recorder::new();
        let mut b = rec.buffer::<f32>(256);
        for i in 0..256 {
            b.set(i, i as f32);
        }
        let wl = Workload {
            name: "seq".into(),
            pid: Pid::new(1),
            phases: vec![rec.take_phase("w", ExecUnit::Axc(AxcId::new(0)), 2, 100)],
        };
        let bytes = encode_workload(&wl);
        assert!(
            bytes.len() < 256 * 7 + 64,
            "trace too large: {}",
            bytes.len()
        );
        assert_eq!(decode_workload(&bytes).unwrap(), wl);
    }
}
