//! A compact hand-rolled binary codec for key-value records.
//!
//! The paper stores "serialized data containing object location and
//! metadata" as DHT values. This module provides the serializer: LEB128
//! varints, length-prefixed strings/bytes, IEEE-754 doubles, and a strict
//! reader that rejects truncated or trailing input. No external
//! serialization framework is used, keeping the wire format byte-exact and
//! inspectable.

use std::cell::RefCell;
use std::sync::Arc;

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended inside a value.
    UnexpectedEof,
    /// A varint ran past 10 bytes.
    VarintOverflow,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum tag byte was not recognized.
    UnknownTag(u8),
    /// Bytes remained after the record was fully decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::UnknownTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
        }
    }
}

impl std::error::Error for WireError {}

thread_local! {
    /// The writer every record is encoded into before its one copy into
    /// shared bytes. It keeps the capacity of the largest record so far, so
    /// a steady stream of records grows nothing.
    static SCRATCH: RefCell<WireWriter> = const { RefCell::new(WireWriter::new()) };
}

/// Runs `write` on a cleared, reused writer and returns what it wrote as
/// shared bytes: one allocation of exactly the encoded length, which every
/// later copy of the record (DHT hops, caches, root, replicas) shares by
/// reference count. A fresh writer would grow 8 → 16 → 32 → 64 bytes for a
/// 53-byte record and keep the slack.
pub(crate) fn encode_shared(write: impl FnOnce(&mut WireWriter)) -> Arc<[u8]> {
    SCRATCH.with_borrow_mut(|w| {
        w.buf.clear();
        write(w);
        Arc::from(w.buf.as_slice())
    })
}

/// Append-only writer for the wire format.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub const fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single tag byte.
    pub fn tag(&mut self, tag: u8) -> &mut Self {
        self.buf.push(tag);
        self
    }

    /// Writes an LEB128 varint.
    pub fn u64(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return self;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a u32 as a varint.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.buf.push(u8::from(v));
        self
    }

    /// Writes an IEEE-754 double, little-endian.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Cursor-based reader for the wire format.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the input was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if input remains.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a tag byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of input.
    pub fn tag(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] or [`WireError::VarintOverflow`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        for i in 0..10 {
            let byte = self.take(1)?[0];
            v |= ((byte & 0x7F) as u64) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Reads a u32 varint.
    ///
    /// # Errors
    ///
    /// As [`WireReader::u64`]; oversized values are truncated explicitly.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(self.u64()? as u32)
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of input.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.take(1)?[0] != 0)
    }

    /// Reads an IEEE-754 double.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of input.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let raw = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            raw.try_into().expect("8 bytes"),
        )))
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the declared length runs past
    /// the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidUtf8`] for malformed data.
    pub fn string(&mut self) -> Result<String, WireError> {
        Ok(self.str_ref()?.to_owned())
    }

    /// Reads a length-prefixed UTF-8 string as a borrow of the input
    /// buffer — the allocation-free variant of [`WireReader::string`],
    /// used where the decoded name is interned rather than owned.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidUtf8`] for malformed data.
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.tag(7)
            .u64(300)
            .u32(77)
            .bool(true)
            .f64(1.25)
            .string("hello")
            .bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.tag().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 77);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), 1.25);
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut w = WireWriter::new();
            w.u64(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.u64().unwrap(), v);
        }
    }

    #[test]
    fn small_varints_are_one_byte() {
        let mut w = WireWriter::new();
        w.u64(42);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn eof_is_detected() {
        let mut r = WireReader::new(&[0x80]); // continuation with no next byte
        assert_eq!(r.u64().unwrap_err(), WireError::UnexpectedEof);
        let mut r = WireReader::new(&[]);
        assert_eq!(r.tag().unwrap_err(), WireError::UnexpectedEof);
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.f64().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [0xFFu8; 11];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u64().unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.string().unwrap_err(), WireError::InvalidUtf8);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = WireReader::new(&[1, 2]);
        assert_eq!(r.finish().unwrap_err(), WireError::TrailingBytes(2));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(WireError::UnknownTag(9).to_string().contains('9'));
        assert!(WireError::TrailingBytes(3).to_string().contains('3'));
    }

    proptest! {
        #[test]
        fn u64_roundtrips(v in any::<u64>()) {
            let mut w = WireWriter::new();
            w.u64(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.u64().unwrap(), v);
            r.finish().unwrap();
        }

        #[test]
        fn f64_roundtrips_bit_exact(v in any::<f64>()) {
            let mut w = WireWriter::new();
            w.f64(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }

        #[test]
        fn strings_roundtrip(s in "\\PC{0,64}") {
            let mut w = WireWriter::new();
            w.string(&s);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.string().unwrap(), s);
        }

        #[test]
        fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut r = WireReader::new(&bytes);
            let _ = r.u64();
            let _ = r.string();
            let _ = r.f64();
        }
    }
}
