//! Binary wire primitives for the cloud↔edge codec.
//!
//! Every production transfer path (deployment installs, federated round
//! payloads, telemetry uploads) used to size itself by **JSON text
//! length** — a decimal-printed `f32` costs ~10+ bytes where the value
//! itself is 4 — so every modeled transfer time was inflated by a format
//! no real deployment would ship. This module provides the exact-width
//! little-endian encoding those paths now use (see `docs/WIRE.md` for the
//! full layout contract):
//!
//! * [`WireWriter`] — append-only byte sink with fixed-width integer and
//!   IEEE-754 bit-exact float writes, plus length-prefixed strings;
//! * [`WireReader`] — the matching checked reader; every read is
//!   bounds-checked and returns a typed [`WireError`] instead of
//!   panicking on truncated or corrupt payloads;
//! * [`WirePrecision`] — the precision a payload's tensor sections are
//!   encoded at: bit-exact `f32`, or affine-quantised `u16` / `i8`
//!   ([`crate::quantize::QuantizedMatrix`]).
//!
//! All multi-byte values are little-endian. Floats are encoded as their
//! IEEE-754 bit patterns (`to_bits`), so an `F32`/`F64` round-trip is
//! bitwise lossless — including NaN payloads and signed zeros — and the
//! encoded byte stream for a given payload is identical on every host.

use serde::{Deserialize, Serialize};

/// Errors from decoding a binary wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure did.
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag byte took a value the decoder does not know.
    BadTag {
        /// What was being decoded when the tag appeared.
        context: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// The payload does not start with the expected magic bytes.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 4],
    },
    /// A length or count field exceeds what the payload could possibly
    /// hold — a corrupt or truncated stream, rejected before allocating.
    LengthOverflow {
        /// What was being decoded.
        context: &'static str,
        /// The announced element count.
        announced: u64,
    },
    /// Decoding finished but bytes remain — the payload and the decoder
    /// disagree about the format.
    TrailingBytes {
        /// Bytes left unread.
        remaining: usize,
    },
    /// A string section was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string section.
        offset: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof { offset, needed, remaining } => write!(
                f,
                "wire payload truncated at offset {offset}: needed {needed} bytes, {remaining} remain"
            ),
            WireError::BadTag { context, tag } => {
                write!(f, "unknown wire tag {tag} while decoding {context}")
            }
            WireError::BadMagic { expected } => {
                write!(f, "wire payload does not start with magic {expected:?}")
            }
            WireError::LengthOverflow { context, announced } => write!(
                f,
                "wire payload announces {announced} elements for {context}, more than the stream holds"
            ),
            WireError::TrailingBytes { remaining } => {
                write!(f, "wire payload has {remaining} trailing bytes after decoding")
            }
            WireError::BadUtf8 { offset } => {
                write!(f, "wire string at offset {offset} is not valid UTF-8")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Precision a wire payload's tensor sections are encoded at.
///
/// `F32` ships raw IEEE-754 bit patterns (bitwise lossless); `U16` and
/// `I8` ship per-column affine codes
/// ([`crate::quantize::QuantizedMatrix`]) at 2 and 1 bytes per value
/// respectively, trading reconstruction error for wire bytes. The
/// accuracy-vs-bytes frontier across all three is `repro wire`
/// (`results/BENCH_wire.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WirePrecision {
    /// Bit-exact 4-byte floats.
    F32,
    /// Affine-quantised 2-byte codes (65 536 levels).
    U16,
    /// Affine-quantised 1-byte codes (256 levels).
    I8,
}

impl WirePrecision {
    /// Bytes one tensor value costs on the wire (excluding per-column
    /// codec metadata for the quantised modes).
    pub fn bytes_per_value(self) -> usize {
        match self {
            WirePrecision::F32 => 4,
            WirePrecision::U16 => 2,
            WirePrecision::I8 => 1,
        }
    }

    /// Stable name used in benchmark output and docs.
    pub fn name(self) -> &'static str {
        match self {
            WirePrecision::F32 => "f32",
            WirePrecision::U16 => "u16",
            WirePrecision::I8 => "i8",
        }
    }

    /// Wire tag for this precision.
    pub fn tag(self) -> u8 {
        match self {
            WirePrecision::F32 => 0,
            WirePrecision::U16 => 1,
            WirePrecision::I8 => 2,
        }
    }

    /// Precision for a wire tag.
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(WirePrecision::F32),
            1 => Ok(WirePrecision::U16),
            2 => Ok(WirePrecision::I8),
            tag => Err(WireError::BadTag { context: "WirePrecision", tag }),
        }
    }
}

/// Append-only binary sink. All writes are little-endian; floats are
/// written as IEEE-754 bit patterns.
///
/// A [`WireWriter::counting`] writer keeps no bytes and only adds up how
/// many were written, so running an encoder into it measures the payload
/// that encoder writes, through the same write calls.
#[derive(Debug)]
pub struct WireWriter {
    sink: Sink,
}

/// Where a [`WireWriter`]'s bytes go.
#[derive(Debug)]
enum Sink {
    /// Kept, in order.
    Bytes(Vec<u8>),
    /// Counted and dropped.
    Count(usize),
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter { sink: Sink::Bytes(Vec::new()) }
    }
}

impl WireWriter {
    /// Empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Writer starting with the 4-byte `magic` header.
    pub fn with_magic(magic: [u8; 4]) -> Self {
        let mut w = WireWriter::new();
        w.raw(&magic);
        w
    }

    /// A writer that keeps nothing: [`WireWriter::len`] is the number of
    /// bytes written to it, and [`WireWriter::into_bytes`] is empty.
    pub fn counting() -> Self {
        WireWriter { sink: Sink::Count(0) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Bytes(buf) => buf.len(),
            Sink::Count(n) => *n,
        }
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, returning the payload (empty for a counting
    /// writer).
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Bytes(buf) => buf,
            Sink::Count(_) => Vec::new(),
        }
    }

    /// Writes raw bytes with no length prefix (caller encodes structure).
    pub fn raw(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Bytes(buf) => buf.extend_from_slice(bytes),
            Sink::Count(n) => *n += bytes.len(),
        }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes an `f32` as its IEEE-754 bit pattern (bitwise lossless).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes each of `values` as its IEEE-754 bit pattern, in order: the
    /// bytes of one [`WireWriter::f32`] per value, with the room for them
    /// reserved once (and a counting writer adding their length at once).
    pub fn f32s(&mut self, values: &[f32]) {
        match &mut self.sink {
            Sink::Bytes(buf) => {
                buf.reserve(4 * values.len());
                for &v in values {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Sink::Count(n) => *n += 4 * values.len(),
        }
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bitwise lossless).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.raw(s.as_bytes());
    }
}

/// Checked reader over a wire payload. Every read advances an offset and
/// fails with [`WireError::UnexpectedEof`] rather than panicking when the
/// payload is shorter than its structure claims.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        WireReader { buf: payload, pos: 0 }
    }

    /// Reader that first checks and consumes the 4-byte `magic` header.
    pub fn with_magic(payload: &'a [u8], magic: [u8; 4]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload);
        let got = r.take(4)?;
        if got != magic {
            return Err(WireError::BadMagic { expected: magic });
        }
        Ok(r)
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.len_for("string", 1)?;
        let offset = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { offset })
    }

    /// Reads a `u64` element count and validates that `count ×
    /// min_elem_bytes` still fits in the remaining payload, so corrupt
    /// counts are rejected before any allocation sized by them.
    pub fn len_for(&mut self, context: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let announced = self.u64()?;
        let budget = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if announced > budget {
            return Err(WireError::LengthOverflow { context, announced });
        }
        Ok(announced as usize)
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive_bitwise() {
        let mut w = WireWriter::with_magic(*b"PWT1");
        w.u8(7);
        w.u16(65_535);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f32(f32::NAN);
        w.f64(std::f64::consts::PI);
        w.str("wire ünïcode");
        let bytes = w.into_bytes();

        let mut r = WireReader::with_magic(&bytes, *b"PWT1").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_535);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.f32().unwrap().is_nan());
        assert_eq!(r.f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.str().unwrap(), "wire ünïcode");
        r.finish().unwrap();
    }

    /// `f32s` writes the bytes of one `f32` per value, and a counting
    /// writer counts exactly the bytes a byte writer keeps.
    #[test]
    fn bulk_floats_and_counting_match_the_single_writes() {
        let values = [1.5f32, -0.0, f32::NAN, f32::INFINITY, 3e-41];
        let (mut bulk, mut single, mut counted) =
            (WireWriter::new(), WireWriter::new(), WireWriter::counting());
        for w in [&mut bulk, &mut counted] {
            w.u8(9);
            w.f32s(&values);
            w.str("end");
        }
        single.u8(9);
        for &v in &values {
            single.f32(v);
        }
        single.str("end");
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, single.into_bytes());
        assert_eq!(counted.len(), bytes.len());
        assert!(counted.into_bytes().is_empty());
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..5]);
        assert_eq!(
            r.u64(),
            Err(WireError::UnexpectedEof { offset: 0, needed: 8, remaining: 5 })
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            WireReader::with_magic(b"XXXXrest", *b"PWT1").err(),
            Some(WireError::BadMagic { expected: *b"PWT1" })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn corrupt_length_is_rejected_before_allocation() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX / 2); // announces an absurd element count
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.len_for("corrupt section", 4),
            Err(WireError::LengthOverflow { context: "corrupt section", .. })
        ));
    }

    #[test]
    fn precision_tags_round_trip() {
        for p in [WirePrecision::F32, WirePrecision::U16, WirePrecision::I8] {
            assert_eq!(WirePrecision::from_tag(p.tag()).unwrap(), p);
        }
        assert!(WirePrecision::from_tag(9).is_err());
    }
}
