//! Minimal, dependency-free binary codec.
//!
//! Snapshot state (paper §4.4) must cross "node" boundaries and survive the
//! death of the process that wrote it, so processors serialize their state
//! to bytes. The format is little-endian with LEB128 varints for lengths —
//! small, fast, and deterministic.

/// Append-only byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the contents but keep the allocation, so one writer can serve
    /// as a reusable arena.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append whatever `f` writes as one length-prefixed field, byte for byte
    /// what `put_bytes` of the same payload appends (so `get_bytes` reads it
    /// back) without staging the payload in a buffer of its own. A one-byte
    /// varint is written up front and patched afterwards; only a payload of
    /// 128 bytes or more has to be shifted to make room for a longer one.
    pub fn put_framed(&mut self, f: impl FnOnce(&mut ByteWriter)) {
        let at = self.buf.len();
        self.put_varint(0);
        f(self);
        let len = self.buf.len() - at - 1;
        if len < 0x80 {
            self.buf[at] = len as u8;
        } else {
            // [0][payload] -> [0][payload][varint] -> [0][varint][payload]
            let end = self.buf.len();
            self.put_varint(len as u64);
            let prefix = self.buf.len() - end;
            self.buf[at + 1..].rotate_right(prefix);
            self.buf.remove(at);
        }
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// LEB128 unsigned varint.
    #[inline]
    // jet-analyze: allow(alloc) — encode path appends to a caller-owned buffer (snapshot/replication, amortized growth)
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append `v` as is, with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Error returned when decoding runs off the end of the buffer or finds
/// malformed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Cursor-based byte reader, the inverse of [`ByteWriter`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError("unexpected end of buffer"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("invalid bool")),
        }
    }

    pub fn get_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(DecodeError("varint too long"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.get_u64()? as i64)
    }

    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_varint()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| DecodeError("invalid utf8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_varint(0);
        w.put_varint(127);
        w.put_varint(128);
        w.put_varint(u64::MAX);
        w.put_u64(0xDEAD_BEEF_CAFE_BABE);
        w.put_i64(-42);
        w.put_u32(99);
        w.put_f64(3.125);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_varint().unwrap(), 0);
        assert_eq!(r.get_varint().unwrap(), 127);
        assert_eq!(r.get_varint().unwrap(), 128);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
        assert_eq!(r.get_u64().unwrap(), 0xDEAD_BEEF_CAFE_BABE);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_u32().unwrap(), 99);
        assert_eq!(r.get_f64().unwrap(), 3.125);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_buffer_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn invalid_bool_and_utf8_error() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.get_bool().is_err());
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn framed_field_is_byte_identical_to_put_bytes() {
        for len in [0usize, 1, 127, 128, 129, 16_383, 16_384, 70_000] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut expected = ByteWriter::new();
            expected.put_u8(9);
            expected.put_bytes(&payload);
            let mut w = ByteWriter::new();
            w.put_u8(9);
            w.put_framed(|w| payload.iter().for_each(|&b| w.put_u8(b)));
            assert_eq!(w.as_bytes(), expected.as_bytes(), "payload of {len} bytes");
        }
    }

    #[test]
    fn cleared_writer_keeps_its_allocation() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[7; 100]);
        let cap = w.buf.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.buf.capacity(), cap);
    }

    #[test]
    fn varint_length_is_minimal() {
        for (v, len) in [(0u64, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), len, "varint({v})");
        }
    }
}
