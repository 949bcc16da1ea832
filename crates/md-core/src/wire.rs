//! Minimal little-endian binary encoding for checkpoint/restart state.
//!
//! Everything that must survive a process restart — atom arrays, RNG
//! streams, thermostat internals, the inputs of the neighbor-list build — is
//! encoded by hand through [`Writer`]/[`Reader`], so the byte layout is this
//! module's and no dependency's. The format is deliberately dumb: fixed-width
//! little-endian scalars, `u64` length prefixes, no alignment, no varints.
//! `f64` round-trips through [`f64::to_bits`], so restored state is bitwise
//! identical to what was saved — the property the resume tests assert.
//!
//! Corruption is reported as [`CoreError::CorruptState`]; a [`crc32`]
//! helper is provided for whole-file checksums (IEEE/zlib polynomial).

use crate::error::{CoreError, Result};
use crate::vec3::Vec3;
use crate::V3;

/// Appends fixed-width little-endian fields to a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
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

    /// Encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes raw bytes with no length prefix (magic strings, payloads whose
    /// length the caller frames).
    pub fn raw(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via its bit pattern (bitwise round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a [`V3`] as three `f64`.
    pub fn v3(&mut self, v: V3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }

    /// Writes a length-prefixed byte blob.
    pub fn blob(&mut self, data: &[u8]) {
        self.usize(data.len());
        self.raw(data);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Grows the buffer by `extra` zeroed bytes and returns the new tail.
    /// The bulk slice writers fill it with `chunks_exact_mut`, which the
    /// optimizer turns into one pass (these paths carry the multi-megabyte
    /// atom arrays, where per-element `extend_from_slice` costs ~10x).
    fn tail(&mut self, extra: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + extra, 0);
        &mut self.buf[start..]
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for (dst, &v) in self.tail(vs.len() * 8).chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for (dst, &v) in self.tail(vs.len() * 8).chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for (dst, &v) in self.tail(vs.len() * 4).chunks_exact_mut(4).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed [`V3`] slice.
    pub fn v3s(&mut self, vs: &[V3]) {
        self.usize(vs.len());
        for (dst, v) in self.tail(vs.len() * 24).chunks_exact_mut(24).zip(vs) {
            dst[0..8].copy_from_slice(&v.x.to_bits().to_le_bytes());
            dst[8..16].copy_from_slice(&v.y.to_bits().to_le_bytes());
            dst[16..24].copy_from_slice(&v.z.to_bits().to_le_bytes());
        }
    }

    /// Writes a length-prefixed slice of `[i32; 3]` (periodic image counters).
    pub fn i32x3s(&mut self, vs: &[[i32; 3]]) {
        self.usize(vs.len());
        for (dst, v) in self.tail(vs.len() * 12).chunks_exact_mut(12).zip(vs) {
            dst[0..4].copy_from_slice(&v[0].to_le_bytes());
            dst[4..8].copy_from_slice(&v[1].to_le_bytes());
            dst[8..12].copy_from_slice(&v[2].to_le_bytes());
        }
    }
}

/// Decodes fields written by [`Writer`], failing with
/// [`CoreError::CorruptState`] on truncation or implausible lengths.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Context label used in error messages.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`; `what` labels decode errors.
    pub fn new(data: &'a [u8], what: &'static str) -> Self {
        Reader { data, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless every byte has been consumed (trailing garbage check).
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes after payload", self.remaining())))
        }
    }

    fn corrupt(&self, detail: String) -> CoreError {
        CoreError::CorruptState {
            what: self.what,
            detail,
        }
    }

    /// Takes `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated at byte {}: wanted {n} more, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.raw(1)?[0])
    }

    /// Reads a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.raw(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.raw(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (stored as `u64`), bounds-checked against the
    /// remaining payload so corrupted lengths fail instead of OOM-ing.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("length {v} exceeds usize")))
    }

    /// Reads a length prefix for elements of at least `elem_bytes` each,
    /// rejecting lengths that cannot fit in the remaining payload.
    fn len_for(&mut self, elem_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(self.corrupt(format!(
                "implausible length {n} (x{elem_bytes} bytes) with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`V3`].
    pub fn v3(&mut self) -> Result<V3> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    /// Reads a length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<&'a [u8]> {
        let n = self.len_for(1)?;
        self.raw(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let b = self.blob()?;
        String::from_utf8(b.to_vec()).map_err(|e| self.corrupt(format!("invalid UTF-8: {e}")))
    }

    fn le_u64(b: &[u8]) -> u64 {
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.len_for(8)?;
        let bytes = self.raw(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(Self::le_u64(b)))
            .collect())
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.len_for(8)?;
        let bytes = self.raw(n * 8)?;
        Ok(bytes.chunks_exact(8).map(Self::le_u64).collect())
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.len_for(4)?;
        let bytes = self.raw(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads a length-prefixed [`V3`] vector.
    pub fn v3s(&mut self) -> Result<Vec<V3>> {
        let n = self.len_for(24)?;
        let bytes = self.raw(n * 24)?;
        Ok(bytes
            .chunks_exact(24)
            .map(|b| {
                Vec3::new(
                    f64::from_bits(Self::le_u64(&b[0..8])),
                    f64::from_bits(Self::le_u64(&b[8..16])),
                    f64::from_bits(Self::le_u64(&b[16..24])),
                )
            })
            .collect())
    }

    /// Reads a length-prefixed `[i32; 3]` vector.
    pub fn i32x3s(&mut self) -> Result<Vec<[i32; 3]>> {
        let n = self.len_for(12)?;
        let bytes = self.raw(n * 12)?;
        Ok(bytes
            .chunks_exact(12)
            .map(|b| {
                [
                    i32::from_le_bytes([b[0], b[1], b[2], b[3]]),
                    i32::from_le_bytes([b[4], b[5], b[6], b[7]]),
                    i32::from_le_bytes([b[8], b[9], b[10], b[11]]),
                ]
            })
            .collect())
    }
}

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected), for checkpoint
/// checksums. Slicing-by-8: eight compile-time tables let the hot loop
/// consume 8 bytes per iteration, which matters because the checksum runs
/// over multi-megabyte checkpoint bodies on every periodic save.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bitwise() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("chute");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "chute");
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn slices_round_trip() {
        let mut w = Writer::new();
        w.v3s(&[Vec3::new(1.0, -2.5, 3e-300), Vec3::zero()]);
        w.i32x3s(&[[1, -2, 3]]);
        w.u32s(&[9, 8, 7]);
        w.f64s(&[0.1, 0.2]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        let vs = r.v3s().unwrap();
        assert_eq!(vs[0], Vec3::new(1.0, -2.5, 3e-300));
        assert_eq!(r.i32x3s().unwrap(), vec![[1, -2, 3]]);
        assert_eq!(r.u32s().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.f64s().unwrap(), vec![0.1, 0.2]);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4], "neighbor list");
        let err = r.u64().unwrap_err();
        assert!(matches!(
            err,
            CoreError::CorruptState {
                what: "neighbor list",
                ..
            }
        ));
    }

    #[test]
    fn implausible_length_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2); // absurd element count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert!(r.v3s().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u32(5);
        w.u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        r.u32().unwrap();
        assert!(r.expect_exhausted().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }
}
