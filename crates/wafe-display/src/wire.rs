//! Big-endian wire primitives with a checksum trailer.
//!
//! The display protocol is read by a JavaScript `DataView` whose
//! default is network byte order, so — unlike the snapshot codec, which
//! is little-endian and never leaves the process — everything here is
//! big-endian. Every message ends in an FNV-1a checksum over the
//! preceding bytes: a single flipped bit anywhere must fail loudly
//! rather than decode into a plausible frame.

use std::fmt;

/// Why a message failed to decode. Every failure is loud and terminal:
/// the receiver drops the message and asks for a full-frame resync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The leading magic bytes are not the expected tag.
    BadMagic,
    /// A version this codec does not speak.
    BadVersion(u32),
    /// The checksum trailer does not match the payload.
    BadChecksum,
    /// Structurally valid but bytes remain after the end.
    TrailingBytes,
    /// A field holds a value that cannot be valid (named).
    BadValue(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated message"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
            DecodeError::BadValue(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// 32-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append-only big-endian message writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends raw bytes (magic tags).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian i32.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an unsigned LEB128 varint: seven bits per byte, low
    /// group first, high bit set on every byte but the last. Always
    /// the shortest form, which is the only one [`Reader::varint`]
    /// accepts.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends the FNV-1a checksum of everything written so far and
    /// returns the finished message.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_be_bytes());
        self.buf
    }
}

/// Checked big-endian message reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verifies the checksum trailer and yields a reader over the
    /// payload (trailer excluded). This runs *first*: a corrupt message
    /// must never be partially interpreted.
    pub fn checked(buf: &'a [u8]) -> Result<Reader<'a>, DecodeError> {
        if buf.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        let (payload, trailer) = buf.split_at(buf.len() - 4);
        let want = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if fnv1a(payload) != want {
            return Err(DecodeError::BadChecksum);
        }
        Ok(Reader {
            buf: payload,
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes and checks a magic tag.
    pub fn expect_magic(&mut self, magic: &[u8; 4]) -> Result<(), DecodeError> {
        if self.take(4)? != magic {
            return Err(DecodeError::BadMagic);
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian i32.
    pub fn i32(&mut self) -> Result<i32, DecodeError> {
        let b = self.take(4)?;
        Ok(i32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an unsigned LEB128 varint. Overlong forms (a trailing zero
    /// group) and values past `u64` are rejected, so every value has
    /// exactly one encoding.
    pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            let group = (b & 0x7f) as u64;
            if shift == 63 && group > 1 {
                return Err(DecodeError::BadValue("varint overflow"));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(DecodeError::BadValue("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::BadValue("varint overflow"));
            }
        }
    }

    /// Bytes left before the checksum trailer. Callers cap any
    /// preallocation by this, so a count read from the message can
    /// never reserve more than the message could actually fill.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadValue("utf-8 string"))
    }

    /// Asserts the payload was consumed exactly.
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }
}

/// Lowercase hex encoding — how binary messages ride the `%`-line
/// channel without escaping concerns.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Inverse of [`to_hex`]; rejects odd lengths and non-hex digits.
pub fn from_hex(s: &str) -> Result<Vec<u8>, DecodeError> {
    if !s.len().is_multiple_of(2) {
        return Err(DecodeError::BadValue("hex length"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let b = s.as_bytes();
    for pair in b.chunks(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or(DecodeError::BadValue("hex digit"))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or(DecodeError::BadValue("hex digit"))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.put_bytes(b"TEST");
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_i32(-42);
        w.put_u64(1 << 40);
        w.put_str("héllo");
        let bytes = w.finish();
        let mut r = Reader::checked(&bytes).unwrap();
        r.expect_magic(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.str().unwrap(), "héllo");
        r.done().unwrap();
    }

    #[test]
    fn varints_are_shortest_form_only() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.finish();
            let mut r = Reader::checked(&bytes).unwrap();
            assert_eq!(r.varint().unwrap(), v);
            r.done().unwrap();
        }
        let read = |body: &[u8]| {
            let mut w = Writer::new();
            w.put_bytes(body);
            let bytes = w.finish();
            Reader::checked(&bytes).unwrap().varint()
        };
        assert_eq!(
            read(&[0x80, 0x00]),
            Err(DecodeError::BadValue("overlong varint"))
        );
        assert_eq!(
            read(&[0xff, 0x00]),
            Err(DecodeError::BadValue("overlong varint"))
        );
        let mut too_big = vec![0xff; 9];
        too_big.push(0x02);
        assert_eq!(
            read(&too_big),
            Err(DecodeError::BadValue("varint overflow"))
        );
        let mut too_long = vec![0xff; 10];
        too_long.push(0x01);
        assert_eq!(
            read(&too_long),
            Err(DecodeError::BadValue("varint overflow"))
        );
        assert_eq!(read(&[0x80]), Err(DecodeError::Truncated));
    }

    #[test]
    fn any_flipped_bit_fails_checksum() {
        let mut w = Writer::new();
        w.put_bytes(b"TEST");
        w.put_u32(123);
        let bytes = w.finish();
        for i in 0..(bytes.len() - 4) * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert_eq!(
                Reader::checked(&bad).unwrap_err(),
                DecodeError::BadChecksum,
                "bit {i} flipped silently"
            );
        }
    }

    #[test]
    fn truncation_fails() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.finish();
        for n in 0..bytes.len() {
            assert!(
                Reader::checked(&bytes[..n]).is_err() || {
                    let mut r = Reader::checked(&bytes[..n]).unwrap();
                    r.u32().is_err() || r.done().is_err()
                }
            );
        }
    }

    #[test]
    fn hex_round_trip_and_rejection() {
        let data = vec![0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
    }
}
