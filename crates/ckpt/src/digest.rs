//! FNV-1a hashing used for section integrity and model fingerprints.
//!
//! FNV-1a folds one byte at a time through an xor followed by a multiply
//! with an odd prime. Both steps are bijections on `u64`, so two inputs of
//! equal length differing in a single byte always hash differently — which
//! is exactly the property the corruption proptests rely on: any one-bit
//! flip inside a section payload is guaranteed to change its digest.

use plos_linalg::Vector;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher over bytes, with helpers for the fixed-width
/// encodings the checkpoint format uses.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// Starts a fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Folds an `f64` as the little-endian bytes of its IEEE-754 bit
    /// pattern, so `-0.0` vs `0.0` and distinct NaN payloads all count.
    pub fn write_f64(&mut self, value: f64) {
        self.write(&value.to_bits().to_le_bytes());
    }

    /// Folds every coefficient of a vector.
    pub fn write_vector(&mut self, v: &Vector) {
        for &c in v.iter() {
            self.write_f64(c);
        }
    }

    /// Returns the current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Bit-exact digest of a personalized model: the global hyperplane's
/// coefficients followed by every user's personal bias, in user order.
///
/// This is the canonical digest printed by the `trace_parity` gate and
/// pinned by the golden-model fixtures; any change to its fold order is a
/// format break.
#[must_use]
pub fn model_digest(global: &Vector, biases: &[Vector]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_vector(global);
    for bias in biases {
        h.write_vector(bias);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    // Unit tests assert by panicking on failure; the workspace-wide
    // panic-free lint set is for library code paths, so tests opt back in.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn empty_input_hashes_to_offset_basis() {
        assert_eq!(fnv1a(&[]), FNV_OFFSET);
    }

    #[test]
    fn known_vector_matches_reference() {
        // FNV-1a("a") from the published reference vectors.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn single_byte_difference_changes_hash() {
        let base = vec![0u8; 64];
        let h0 = fnv1a(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a(&flipped), h0, "flip at byte {i} collided");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let bytes = b"personalized learning in mobile sensing";
        let mut h = Fnv1a::new();
        for chunk in bytes.chunks(7) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), fnv1a(bytes));
    }

    #[test]
    fn model_digest_distinguishes_sign_of_zero() {
        let a = model_digest(&Vector::from(vec![0.0]), &[]);
        let b = model_digest(&Vector::from(vec![-0.0]), &[]);
        assert_ne!(a, b);
    }

    #[test]
    fn model_digest_covers_biases_in_order() {
        let w0 = Vector::from(vec![1.0, 2.0]);
        let b1 = Vector::from(vec![0.5, -0.5]);
        let b2 = Vector::from(vec![-1.5, 0.25]);
        let fwd = model_digest(&w0, &[b1.clone(), b2.clone()]);
        let rev = model_digest(&w0, &[b2, b1]);
        assert_ne!(fwd, rev);
    }
}
