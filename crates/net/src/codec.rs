//! Length-prefixed binary wire format.
//!
//! Hand-rolled on top of the `bytes` crate (the offline crate list has no
//! serde *format* crate). All integers are little-endian; vectors are a
//! `u32` length followed by `f64` components. The format is versioned with a
//! leading magic byte so decoding garbage fails loudly instead of silently.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use plos_linalg::{ExactSum, ExactVecSum, Vector};
use std::fmt;

/// Wire-format version tag; bump on breaking changes.
pub const WIRE_VERSION: u8 = 1;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced payload.
    UnexpectedEof {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Unknown message tag byte.
    UnknownTag(u8),
    /// Wire version mismatch.
    BadVersion(u8),
    /// A declared length was implausibly large.
    LengthOverflow(u64),
    /// A structurally well-formed payload violated a value invariant
    /// (e.g. an exact-sum limb list out of order or out of range).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of buffer: need {needed} bytes, have {remaining}")
            }
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::LengthOverflow(n) => write!(f, "declared length {n} too large"),
            CodecError::Invalid(what) => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum vector length accepted by the decoder (sanity bound).
const MAX_VEC_LEN: u64 = 16 * 1024 * 1024;

/// Appends a vector: `u32` length + little-endian `f64` components.
pub fn put_vector(buf: &mut BytesMut, v: &Vector) {
    // plos-lint: allow(C2): encode-side lengths are model dimensions, far below u32; the decoder enforces MAX_VEC_LEN
    buf.put_u32_le(v.len() as u32);
    for &x in v.iter() {
        buf.put_f64_le(x);
    }
}

/// Reads a vector written by [`put_vector`].
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] on truncation and
/// [`CodecError::LengthOverflow`] on absurd lengths.
pub fn get_vector(buf: &mut Bytes) -> Result<Vector, CodecError> {
    let len = get_u32(buf)? as u64;
    if len > MAX_VEC_LEN {
        return Err(CodecError::LengthOverflow(len));
    }
    let len = len as usize;
    let need = len * 8;
    if buf.remaining() < need {
        return Err(CodecError::UnexpectedEof { needed: need, remaining: buf.remaining() });
    }
    Ok((0..len).map(|_| buf.get_f64_le()).collect())
}

/// Reads a `u8`, checking availability.
pub fn get_u8(buf: &mut Bytes) -> Result<u8, CodecError> {
    ensure(buf, 1)?;
    Ok(buf.get_u8())
}

/// Reads a little-endian `u32`, checking availability.
pub fn get_u32(buf: &mut Bytes) -> Result<u32, CodecError> {
    ensure(buf, 4)?;
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `f64`, checking availability.
pub fn get_f64(buf: &mut Bytes) -> Result<f64, CodecError> {
    ensure(buf, 8)?;
    Ok(buf.get_f64_le())
}

fn ensure(buf: &Bytes, needed: usize) -> Result<(), CodecError> {
    if buf.remaining() < needed {
        Err(CodecError::UnexpectedEof { needed, remaining: buf.remaining() })
    } else {
        Ok(())
    }
}

/// Appends an [`ExactSum`] in its canonical form: flags `u8`, limb count
/// `u8`, then `count` `(index u8, limb i64 LE)` pairs in strictly
/// increasing index order. Canonicalization makes the encoding a pure
/// function of the accumulated *value*, so equal sums encode identically
/// regardless of how carries were distributed when they were built.
pub fn put_exact_sum(buf: &mut BytesMut, s: &ExactSum) {
    let (flags, parts) = s.canonical_parts();
    buf.put_u8(flags);
    // plos-lint: allow(C2): a normalized accumulator has at most 68 nonzero limbs, far below u8::MAX
    buf.put_u8(parts.len() as u8);
    for (idx, limb) in parts {
        buf.put_u8(idx);
        buf.put_u64_le(limb as u64);
    }
}

/// Reads an [`ExactSum`] written by [`put_exact_sum`].
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] on truncation and
/// [`CodecError::Invalid`] when the limb list violates the canonical-form
/// invariants (index out of range, non-increasing order, zero limb).
pub fn get_exact_sum(buf: &mut Bytes) -> Result<ExactSum, CodecError> {
    let flags = get_u8(buf)?;
    let count = get_u8(buf)? as usize;
    let need = count * 9;
    if buf.remaining() < need {
        return Err(CodecError::UnexpectedEof { needed: need, remaining: buf.remaining() });
    }
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        let idx = buf.get_u8();
        let limb = buf.get_u64_le() as i64;
        parts.push((idx, limb));
    }
    ExactSum::from_parts(flags, &parts)
        .map_err(|_| CodecError::Invalid("exact-sum limb list not canonical"))
}

/// Appends an [`ExactVecSum`]: `u32` dimension followed by each
/// component's [`put_exact_sum`] encoding.
pub fn put_exact_vec_sum(buf: &mut BytesMut, v: &ExactVecSum) {
    // plos-lint: allow(C2): encode-side dimensions are model dimensions, far below u32; the decoder enforces MAX_VEC_LEN
    buf.put_u32_le(v.dim() as u32);
    for (flags, parts) in v.canonical_parts() {
        buf.put_u8(flags);
        // plos-lint: allow(C2): a normalized accumulator has at most 68 nonzero limbs, far below u8::MAX
        buf.put_u8(parts.len() as u8);
        for (idx, limb) in parts {
            buf.put_u8(idx);
            buf.put_u64_le(limb as u64);
        }
    }
}

/// Reads an [`ExactVecSum`] written by [`put_exact_vec_sum`].
///
/// # Errors
///
/// Returns [`CodecError::LengthOverflow`] on absurd dimensions,
/// [`CodecError::UnexpectedEof`] on truncation, and
/// [`CodecError::Invalid`] on malformed component limb lists.
pub fn get_exact_vec_sum(buf: &mut Bytes) -> Result<ExactVecSum, CodecError> {
    let dim = get_u32(buf)? as u64;
    if dim > MAX_VEC_LEN {
        return Err(CodecError::LengthOverflow(dim));
    }
    // Every component costs at least its flags and count bytes: check the
    // bytes exist before reserving room for the components.
    ensure(buf, 2 * dim as usize)?;
    let mut parts = Vec::with_capacity(dim as usize);
    for _ in 0..dim {
        let flags = get_u8(buf)?;
        let count = get_u8(buf)? as usize;
        let need = count * 9;
        if buf.remaining() < need {
            return Err(CodecError::UnexpectedEof { needed: need, remaining: buf.remaining() });
        }
        let mut comp = Vec::with_capacity(count);
        for _ in 0..count {
            let idx = buf.get_u8();
            let limb = buf.get_u64_le() as i64;
            comp.push((idx, limb));
        }
        parts.push((flags, comp));
    }
    ExactVecSum::from_parts(&parts)
        .map_err(|_| CodecError::Invalid("exact-vec-sum limb list not canonical"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_round_trip() {
        let v = Vector::from(vec![1.5, -2.25, 0.0, f64::MAX]);
        let mut buf = BytesMut::new();
        put_vector(&mut buf, &v);
        assert_eq!(buf.len(), 4 + 8 * v.len());
        let mut bytes = buf.freeze();
        let back = get_vector(&mut bytes).unwrap();
        assert_eq!(back, v);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn empty_vector_round_trip() {
        let v = Vector::zeros(0);
        let mut buf = BytesMut::new();
        put_vector(&mut buf, &v);
        let back = get_vector(&mut buf.freeze()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_vector_fails_cleanly() {
        let v = Vector::from(vec![1.0, 2.0]);
        let mut buf = BytesMut::new();
        put_vector(&mut buf, &v);
        let mut truncated = buf.freeze().slice(0..10);
        let err = get_vector(&mut truncated).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let err = get_vector(&mut buf.freeze()).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverflow(_)));
    }

    #[test]
    fn scalar_readers_check_bounds() {
        let mut empty = Bytes::new();
        assert!(get_u8(&mut empty).is_err());
        assert!(get_u32(&mut empty).is_err());
        assert!(get_f64(&mut empty).is_err());
    }

    #[test]
    fn special_floats_survive() {
        let v = Vector::from(vec![f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE]);
        let mut buf = BytesMut::new();
        put_vector(&mut buf, &v);
        let back = get_vector(&mut buf.freeze()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn errors_display_nonempty() {
        for e in [
            CodecError::UnexpectedEof { needed: 8, remaining: 2 },
            CodecError::UnknownTag(0xff),
            CodecError::BadVersion(9),
            CodecError::LengthOverflow(1 << 40),
            CodecError::Invalid("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn exact_sum_round_trip() {
        let mut s = ExactSum::new();
        s.add(1e16);
        s.add(1.0);
        s.add(-1e16);
        s.add(f64::MIN_POSITIVE / 4.0); // subnormal limb
        let mut buf = BytesMut::new();
        put_exact_sum(&mut buf, &s);
        assert_eq!(buf.len(), 2 + 9 * s.canonical_parts().1.len());
        let mut bytes = buf.freeze();
        let back = get_exact_sum(&mut bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.value().to_bits(), s.value().to_bits());
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn exact_sum_nonfinite_flags_survive() {
        let mut s = ExactSum::new();
        s.add(f64::NEG_INFINITY);
        s.add(3.0);
        let mut buf = BytesMut::new();
        put_exact_sum(&mut buf, &s);
        let back = get_exact_sum(&mut buf.freeze()).unwrap();
        assert_eq!(back.value(), f64::NEG_INFINITY);
    }

    #[test]
    fn exact_sum_truncation_and_garbage_rejected() {
        let mut s = ExactSum::new();
        s.add(2.5);
        let mut buf = BytesMut::new();
        put_exact_sum(&mut buf, &s);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut sliced = full.slice(0..cut);
            assert!(get_exact_sum(&mut sliced).is_err(), "{cut}-byte prefix should fail");
        }
        // Out-of-range limb index: flags 0, count 1, idx 200, limb 1.
        let mut raw = BytesMut::new();
        raw.put_u8(0);
        raw.put_u8(1);
        raw.put_u8(200);
        raw.put_u64_le(1);
        assert_eq!(
            get_exact_sum(&mut raw.freeze()).unwrap_err(),
            CodecError::Invalid("exact-sum limb list not canonical")
        );
    }

    #[test]
    fn exact_vec_sum_round_trip() {
        let mut v = ExactVecSum::zeros(3);
        v.add(&Vector::from(vec![1.0, -0.0, 1e-310]));
        v.add(&Vector::from(vec![1e100, 2.0, -3.0]));
        let mut buf = BytesMut::new();
        put_exact_vec_sum(&mut buf, &v);
        let limbs: usize = v.canonical_parts().iter().map(|(_, parts)| parts.len()).sum();
        assert_eq!(buf.len(), 4 + 2 * v.dim() + 9 * limbs);
        let mut bytes = buf.freeze();
        let back = get_exact_vec_sum(&mut bytes).unwrap();
        assert_eq!(back, v);
        let (a, b) = (back.value(), v.value());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn exact_vec_sum_dimension_is_checked_against_the_bytes_before_reserving() {
        // A 22-byte `PartialSum` frame that declares the largest legal
        // dimension and carries no component.
        let mut raw = BytesMut::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u8(11);
        raw.put_slice(&[0; 16]);
        raw.put_u32_le(MAX_VEC_LEN as u32);
        assert_eq!(raw.len(), 22);
        let needed = 2 * MAX_VEC_LEN as usize;
        assert_eq!(
            crate::Message::decode(raw.freeze()).unwrap_err(),
            CodecError::UnexpectedEof { needed, remaining: 0 }
        );
    }

    #[test]
    fn exact_vec_sum_absurd_dimension_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            get_exact_vec_sum(&mut buf.freeze()).unwrap_err(),
            CodecError::LengthOverflow(_)
        ));
    }
}
