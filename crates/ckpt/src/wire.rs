//! Bounds-checked little-endian primitive encoding.
//!
//! [`Writer`] appends fixed-width fields to a growable buffer; [`Reader`]
//! consumes them back, returning [`CkptError::Truncated`] the moment a
//! declared field would run past the end of the buffer. Every length
//! prefix is validated against the bytes actually remaining *before* any
//! allocation, so a corrupted length field cannot trigger an out-of-memory
//! abort or a panic.

use crate::error::CkptError;
use plos_linalg::Vector;

/// Append-only encoder for checkpoint section payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the on-disk format is 64-bit).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as the little-endian bytes of its bit pattern,
    /// preserving signed zeros and NaN payloads exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed vector of coefficients.
    pub fn put_vector(&mut self, v: &Vector) {
        self.put_usize(v.len());
        for &c in v.iter() {
            self.put_f64(c);
        }
    }

    /// Appends a length-prefixed slice of `f64`s.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a length-prefixed slice of `u64`s.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }
}

/// Consuming decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes exactly `n` bytes, or reports truncation.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CkptError> {
        if self.buf.len() < n {
            return Err(CkptError::Truncated { what, needed: n, remaining: self.buf.len() });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, CkptError> {
        let head = self.take(1, what)?;
        head.first().copied().ok_or(CkptError::Truncated { what, needed: 1, remaining: 0 })
    }

    /// Reads a little-endian `u16` (the frame header's version and section
    /// tags).
    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, CkptError> {
        let head = self.take(2, what)?;
        let arr: [u8; 2] =
            head.try_into().map_err(|_| CkptError::Truncated { what, needed: 2, remaining: 0 })?;
        Ok(u16::from_le_bytes(arr))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, CkptError> {
        let head = self.take(4, what)?;
        let arr: [u8; 4] =
            head.try_into().map_err(|_| CkptError::Truncated { what, needed: 4, remaining: 0 })?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, CkptError> {
        let head = self.take(8, what)?;
        let arr: [u8; 8] =
            head.try_into().map_err(|_| CkptError::Truncated { what, needed: 8, remaining: 0 })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit the host (relevant on 32-bit targets).
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, CkptError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| CkptError::Malformed {
            detail: format!("{what} length {v} exceeds host usize"),
        })
    }

    /// Reads an `f64` from its stored bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a bool byte, rejecting anything other than 0 or 1.
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, CkptError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Malformed {
                detail: format!("{what}: bool byte must be 0 or 1, found {other}"),
            }),
        }
    }

    /// Reads a declared element count and checks the remaining buffer can
    /// actually hold that many `elem_size`-byte elements before any
    /// allocation happens.
    pub fn get_len(&mut self, elem_size: usize, what: &'static str) -> Result<usize, CkptError> {
        let len = self.get_usize(what)?;
        let needed = len.checked_mul(elem_size).ok_or_else(|| CkptError::Malformed {
            detail: format!("{what}: element count {len} overflows"),
        })?;
        if needed > self.buf.len() {
            return Err(CkptError::Truncated { what, needed, remaining: self.buf.len() });
        }
        Ok(len)
    }

    /// Reads a length-prefixed vector of coefficients.
    pub fn get_vector(&mut self, what: &'static str) -> Result<Vector, CkptError> {
        let len = self.get_len(8, what)?;
        let mut coeffs = Vec::with_capacity(len);
        for _ in 0..len {
            coeffs.push(self.get_f64(what)?);
        }
        Ok(Vector::from(coeffs))
    }

    /// Reads a length-prefixed slice of `f64`s.
    pub fn get_f64s(&mut self, what: &'static str) -> Result<Vec<f64>, CkptError> {
        let len = self.get_len(8, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64(what)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed slice of `u64`s.
    pub fn get_u64s(&mut self, what: &'static str) -> Result<Vec<u64>, CkptError> {
        let len = self.get_len(8, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64(what)?);
        }
        Ok(out)
    }

    /// Asserts every byte was consumed; anything left over is a framing
    /// error.
    pub fn finish(self, what: &'static str) -> Result<(), CkptError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Malformed {
                detail: format!("{what}: {} trailing bytes", self.buf.len()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    // Unit tests assert by panicking on failure; the workspace-wide
    // panic-free lint set is for library code paths, so tests opt back in.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 7);
        w.put_f64(-0.0);
        w.put_bool(true);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&0x1234u16.to_le_bytes());

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 0xab);
        assert_eq!(r.get_u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 7);
        assert_eq!(r.get_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool("f").unwrap());
        assert_eq!(r.get_u16("b").unwrap(), 0x1234);
        r.finish("tail").unwrap();
    }

    #[test]
    fn vectors_round_trip_bit_exactly() {
        let v = Vector::from(vec![f64::MAX, f64::MIN, -0.0, 1e-308, 3.5]);
        let mut w = Writer::new();
        w.put_vector(&v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = r.get_vector("v").unwrap();
        assert_eq!(back.len(), v.len());
        for (a, b) in back.iter().zip(v.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            match r.get_u64("field") {
                Err(CkptError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims ~2^64 elements follow
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.get_vector("huge").unwrap_err();
        assert!(matches!(err, CkptError::Truncated { .. } | CkptError::Malformed { .. }));
    }

    #[test]
    fn bad_bool_byte_rejected() {
        let mut r = Reader::new(&[7u8]);
        assert!(matches!(r.get_bool("flag"), Err(CkptError::Malformed { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8("x").unwrap();
        assert!(matches!(r.finish("section"), Err(CkptError::Malformed { .. })));
    }
}
