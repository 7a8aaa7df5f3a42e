//! Versioned container framing: magic, format version, tagged sections,
//! per-section digests, and a whole-file trailer digest.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   "PLOSCKPT"
//! version          u16       format version (negotiated on read)
//! section_count    u32
//! sections         repeated:
//!     tag          u16
//!     len          u64       payload length in bytes
//!     payload      len bytes
//!     digest       u64       FNV-1a over payload
//! trailer          u64       FNV-1a over every preceding byte
//! ```
//!
//! The trailer covers the header and every section (tags, lengths, payloads
//! and their digests), so any single-bit corruption anywhere in the file is
//! detected: FNV-1a's xor/odd-multiply steps are bijective on `u64`, hence
//! equal-length inputs differing in one byte never collide.

use crate::digest::{fnv1a, Fnv1a};
use crate::error::CkptError;
use crate::wire::Reader;

/// File magic identifying a PLOS checkpoint.
pub const MAGIC: [u8; 8] = *b"PLOSCKPT";
/// Format version written by this build. Version 2 replaced the three
/// per-server distributed snapshots with one `ConsensusState`.
pub const FORMAT_VERSION: u16 = 2;
/// Oldest format version this build still reads.
pub const MIN_SUPPORTED_VERSION: u16 = 2;

/// An in-memory checkpoint: an ordered list of tagged byte sections.
///
/// Encoding adds the header, per-section digests, and trailer; decoding
/// verifies all of them and rejects duplicate tags and trailing bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointFile {
    sections: Vec<(u16, Vec<u8>)>,
}

impl CheckpointFile {
    /// Starts an empty checkpoint.
    #[must_use]
    pub fn new() -> Self {
        CheckpointFile { sections: Vec::new() }
    }

    /// Appends a section. Tags must be unique per file; the decoder
    /// enforces this, so writers should too.
    pub fn push_section(&mut self, tag: u16, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Number of sections.
    #[must_use]
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Looks up a section payload by tag.
    pub fn section(&self, tag: u16) -> Result<&[u8], CkptError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| payload.as_slice())
            .ok_or(CkptError::MissingSection { tag })
    }

    /// Serializes the file: header, digested sections, trailer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // plos-lint: allow(C2): a checkpoint holds a handful of fixed section tags; the count cannot approach u32
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        }
        let mut trailer = Fnv1a::new();
        trailer.write(&out);
        out.extend_from_slice(&trailer.finish().to_le_bytes());
        out
    }

    /// Parses and fully verifies a serialized checkpoint.
    ///
    /// Verification order: magic, version range, per-section framing and
    /// digests (with every length bounds-checked before allocation), the
    /// absence of trailing bytes, and finally the whole-file trailer digest.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.get_u16("version")?;
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CkptError::UnsupportedVersion {
                found: version,
                min: MIN_SUPPORTED_VERSION,
                max: FORMAT_VERSION,
            });
        }
        let count = r.get_u32("section_count")?;
        let mut sections: Vec<(u16, Vec<u8>)> = Vec::new();
        for _ in 0..count {
            let tag = r.get_u16("section tag")?;
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(CkptError::Malformed {
                    detail: format!("duplicate section tag {tag}"),
                });
            }
            let len = r.get_usize("section length")?;
            let payload = r.take(len, "section payload")?.to_vec();
            let stored = r.get_u64("section digest")?;
            if stored != fnv1a(&payload) {
                return Err(CkptError::DigestMismatch { what: "section", tag });
            }
            sections.push((tag, payload));
        }
        let body_len = bytes.len().saturating_sub(8);
        let trailer = r.get_u64("trailer digest")?;
        r.finish("file")?;
        let body = bytes.get(..body_len).ok_or(CkptError::Truncated {
            what: "trailer digest",
            needed: 8,
            remaining: bytes.len(),
        })?;
        if trailer != fnv1a(body) {
            return Err(CkptError::DigestMismatch { what: "file", tag: 0 });
        }
        Ok(CheckpointFile { sections })
    }
}

#[cfg(test)]
mod tests {
    // Unit tests assert by panicking on failure; the workspace-wide
    // panic-free lint set is for library code paths, so tests opt back in.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

    use super::*;

    fn sample() -> CheckpointFile {
        let mut f = CheckpointFile::new();
        f.push_section(1, vec![1, 2, 3, 4]);
        f.push_section(2, Vec::new());
        f.push_section(7, vec![0xff; 33]);
        f
    }

    #[test]
    fn encode_decode_round_trips() {
        let f = sample();
        let bytes = f.encode();
        let back = CheckpointFile::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.section(7).unwrap().len(), 33);
        assert_eq!(back.section(9).unwrap_err(), CkptError::MissingSection { tag: 9 });
    }

    #[test]
    fn empty_file_round_trips() {
        let f = CheckpointFile::new();
        let back = CheckpointFile::decode(&f.encode()).unwrap();
        assert_eq!(back.section_count(), 0);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = CheckpointFile::decode(&bytes[..cut]).unwrap_err();
            // A prefix must never decode successfully; the variant depends
            // on where the cut lands but must always be typed.
            assert!(
                matches!(
                    err,
                    CkptError::Truncated { .. }
                        | CkptError::BadMagic
                        | CkptError::DigestMismatch { .. }
                        | CkptError::Malformed { .. }
                ),
                "cut {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    CheckpointFile::decode(&bad).is_err(),
                    "flip byte {i} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(CheckpointFile::decode(&bytes).is_err());
    }

    #[test]
    fn foreign_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(CheckpointFile::decode(&bytes).unwrap_err(), CkptError::BadMagic);
    }

    #[test]
    fn future_version_rejected_with_range() {
        let mut bytes = sample().encode();
        // version lives at offset 8..10
        bytes[8] = 0xff;
        bytes[9] = 0xff;
        match CheckpointFile::decode(&bytes).unwrap_err() {
            CkptError::UnsupportedVersion { found, min, max } => {
                assert_eq!(found, u16::MAX);
                assert_eq!(min, MIN_SUPPORTED_VERSION);
                assert_eq!(max, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_one_files_are_rejected() {
        let mut bytes = sample().encode();
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            CheckpointFile::decode(&bytes).unwrap_err(),
            CkptError::UnsupportedVersion { found: 1, min: 2, max: 2 }
        );
    }

    #[test]
    fn duplicate_tags_rejected() {
        let mut f = CheckpointFile::new();
        f.push_section(3, vec![1]);
        f.push_section(3, vec![2]);
        assert!(matches!(CheckpointFile::decode(&f.encode()), Err(CkptError::Malformed { .. })));
    }
}
