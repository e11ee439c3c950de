//! Minimal length-prefixed binary wire format.
//!
//! The master block must be serialised to survive on the network, but no
//! serialisation-format crate is in the offline dependency set
//! (ARCHITECTURE.md "Layer map", Shims), so this module provides a
//! small, explicit little-endian codec: fixed-width integers and
//! `u32`-length-prefixed byte strings. Decoding is strict — trailing
//! bytes, truncation and out-of-range lengths are errors, never panics.

use core::fmt;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the announced data.
    UnexpectedEof {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A length prefix exceeds the sanity limit.
    LengthTooLarge {
        /// The announced length.
        length: u64,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// The magic/version header did not match.
    BadHeader,
    /// Input had bytes left over after a complete decode.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed}, had {remaining}"
                )
            }
            WireError::LengthTooLarge { length } => {
                write!(f, "length prefix {length} exceeds sanity limit")
            }
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadHeader => write!(f, "bad magic or unsupported version"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} unconsumed trailing bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Refuse to allocate more than this for a single length-prefixed field
/// (1 GiB) — corrupt length prefixes must not OOM the decoder.
pub const MAX_FIELD_LEN: u64 = 1 << 30;

/// Append-only encoder.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates an empty writer with room for `capacity` bytes, for
    /// callers that know the encoded length up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes with no length prefix (for fixed headers).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32`-length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u32::MAX` (4 GiB) — not a reachable
    /// size for any field we serialise.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("field larger than 4 GiB");
        self.put_u32(len);
        self.put_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Strict decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Returns an error if any input remains.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when the input was not fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] on truncated input (likewise below).
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as u64;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthTooLarge { length: len });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        core::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_bytes(b"hello");
        w.put_str("wörld");
        w.put_raw(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
        assert_eq!(r.get_raw(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(123);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(
            r.get_u64(),
            Err(WireError::UnexpectedEof {
                needed: 8,
                remaining: 5
            })
        );
    }

    #[test]
    fn truncated_byte_string_errors() {
        let mut w = Writer::new();
        w.put_bytes(&[0u8; 100]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..50]);
        assert!(matches!(
            r.get_bytes(),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // claims a ~4 GiB field
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.get_bytes(),
            Err(WireError::LengthTooLarge {
                length: u32::MAX as u64
            })
        );
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        assert!(WireError::BadHeader.to_string().contains("magic"));
    }
}
