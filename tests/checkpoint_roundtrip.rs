//! Property-based tests of the checkpoint wire format.
//!
//! Two families of properties back the format's headline guarantees:
//!
//! * **Bit-exact round trips** — arbitrary centralized and consensus
//!   states (including zero-user cohorts, empty histories and rosters, and
//!   extreme-but-finite `f64`s like `-0.0`, subnormals, and `f64::MAX`)
//!   survive encode → bytes → decode with byte-identical re-encodings.
//! * **Corruption is always a typed error** — truncating a valid encoding
//!   at any point, or flipping any single bit anywhere in it, makes the
//!   decode chain return a [`CkptError`]; it never panics and never yields
//!   a silently different state.
//!
//! Structures are built from a proptest-drawn seed through a seeded
//! `StdRng` (the same idiom as `solver_properties.rs`), since the vendored
//! proptest subset composes scalar strategies only.

// Tests assert by panicking; the panic-free gate applies to library code
// only (see [workspace.lints] in the root Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

use plos::ckpt::{
    fnv1a, CentralizedPhase, CentralizedState, CheckpointFile, CkptError, ConsensusPhase,
    ConsensusState, FleetSection, TreeSection, FORMAT_VERSION,
};
use plos::linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Finite `f64`s with the representational corner cases over-weighted:
/// signed zeros, subnormals, and the extremes of the exponent range. NaN
/// is excluded by the round-trip contract (solver state is NaN-free; the
/// format stores raw bit patterns either way).
fn finite_f64(rng: &mut StdRng) -> f64 {
    const CORNERS: [f64; 9] = [
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // smallest positive subnormal
        -5e-324,
        1e308,
        -1e308,
    ];
    if rng.gen_bool(0.4) {
        CORNERS[rng.gen_range(0..CORNERS.len())]
    } else {
        rng.gen_range(-1e12..1e12)
    }
}

fn rvec(rng: &mut StdRng, dim: usize) -> Vector {
    (0..dim).map(|_| finite_f64(rng)).collect()
}

fn rvecs(rng: &mut StdRng, count: usize, dim: usize) -> Vec<Vector> {
    (0..count).map(|_| rvec(rng, dim)).collect()
}

/// Cohort shape for a drawn seed: sizes 0 (degenerate) through 3.
fn shape(rng: &mut StdRng) -> (usize, usize) {
    (rng.gen_range(0..4), rng.gen_range(0..4))
}

fn centralized_state(rng: &mut StdRng) -> CentralizedState {
    let (users, dim) = shape(rng);
    CentralizedState {
        fingerprint: rng.gen(),
        phase: if rng.gen_bool(0.5) {
            CentralizedPhase::Cccp
        } else {
            CentralizedPhase::Refine { rounds_done: rng.gen_range(0..8) }
        },
        w0: rvec(rng, dim),
        vectors: rvecs(rng, users, dim),
        history: (0..rng.gen_range(0..4)).map(|_| finite_f64(rng)).collect(),
        cccp_rounds: rng.gen_range(0..16),
        cccp_converged: rng.gen_bool(0.5),
        cutting_rounds: rng.gen(),
        constraints_added: rng.gen(),
    }
}

/// The consensus-driver state, with the fleet and tree extension sections
/// present or absent as asked, and every cohort-sized group kept
/// consistent (the decoder validates that and would reject a mismatch).
fn consensus_state(rng: &mut StdRng, fleet: bool, tree: bool) -> ConsensusState {
    let (t_count, dim) = shape(rng);
    let fleet = fleet.then(|| FleetSection {
        us: rvecs(rng, t_count, dim),
        w_ts: rvecs(rng, t_count, dim),
        v_ts: rvecs(rng, t_count, dim),
        xi_ts: (0..t_count).map(|_| finite_f64(rng)).collect(),
        alive: (0..t_count).map(|_| rng.gen_bool(0.8)).collect(),
        missed: (0..t_count).map(|_| rng.gen_range(0..4)).collect(),
        evicted: (0..rng.gen_range(0..3)).map(|_| rng.gen_range(0..8)).collect(),
        participation: (0..rng.gen_range(0..4))
            .map(|_| (rng.gen_range(0..64), rng.gen_range(0..8), rng.gen_range(0..8), rng.gen()))
            .collect(),
        protocol_errors: rng.gen_range(0..4),
        late_discards: rng.gen_range(0..4),
        stale_discards: rng.gen(),
        reassignments: rng.gen(),
    });
    let tree =
        tree.then(|| TreeSection { shard_fingerprint: rng.gen(), term: rng.gen_range(0..8) });
    ConsensusState {
        fingerprint: rng.gen(),
        phase: if rng.gen_bool(0.5) {
            ConsensusPhase::Boundary
        } else {
            ConsensusPhase::Refine { rounds_done: rng.gen_range(0..4) }
        },
        round: rng.gen_range(0..64),
        admm_iterations: rng.gen_range(0..64),
        cccp_rounds: rng.gen_range(0..8),
        converged: rng.gen_bool(0.5),
        w0: rvec(rng, dim),
        history: (0..rng.gen_range(0..4)).map(|_| finite_f64(rng)).collect(),
        residuals: (0..rng.gen_range(0..4))
            .map(|_| (rng.gen_range(0..64), finite_f64(rng), finite_f64(rng)))
            .collect(),
        fleet,
        tree,
    }
}

/// Every combination of the consensus state's extension sections.
const SECTION_SETS: [(bool, bool); 4] =
    [(false, false), (true, false), (false, true), (true, true)];

/// One encoding of each state kind — the consensus state once per
/// extension-section set — used by the corruption properties so every
/// section layout in the format gets truncated and bit-flipped.
fn sample_encodings(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut encodings = vec![centralized_state(&mut rng).encode().encode()];
    for (fleet, tree) in SECTION_SETS {
        encodings.push(consensus_state(&mut rng, fleet, tree).encode().encode());
    }
    encodings
}

/// Runs the full decode chain — framing plus every typed decoder the
/// context section admits — and reports whether *any* path succeeded.
fn decode_any(bytes: &[u8]) -> Result<(), CkptError> {
    let file = CheckpointFile::decode(bytes)?;
    let mut last = CkptError::Malformed { detail: "no decoder accepted the file".into() };
    for result in
        [CentralizedState::decode(&file).map(drop), ConsensusState::decode(&file).map(drop)]
    {
        match result {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
    Err(last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn centralized_state_roundtrips_bit_exactly(seed in 0u64..1_000_000) {
        let state = centralized_state(&mut StdRng::seed_from_u64(seed));
        let bytes = state.encode().encode();
        let back =
            CentralizedState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
        prop_assert_eq!(&back, &state);
        prop_assert_eq!(back.encode().encode(), bytes);
    }

    #[test]
    fn consensus_state_roundtrips_bit_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (fleet, tree) in SECTION_SETS {
            let state = consensus_state(&mut rng, fleet, tree);
            let bytes = state.encode().encode();
            let back =
                ConsensusState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
            prop_assert_eq!(&back, &state);
            prop_assert_eq!(back.encode().encode(), bytes);
        }
    }

    #[test]
    fn truncation_is_always_a_typed_error(
        seed in 0u64..1000,
        which in 0usize..5,
        cut in 0.0..1.0f64,
    ) {
        let bytes = &sample_encodings(seed)[which];
        // Cut strictly inside the file: every prefix, from the empty file
        // to one byte short of complete, must be rejected.
        let len = ((cut * (bytes.len() as f64)) as usize).min(bytes.len() - 1);
        prop_assert!(decode_any(&bytes[..len]).is_err());
    }

    #[test]
    fn single_bit_flips_are_always_typed_errors(
        seed in 0u64..1000,
        which in 0usize..5,
        pos in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let mut bytes = sample_encodings(seed)[which].clone();
        let index = ((pos * (bytes.len() as f64)) as usize).min(bytes.len() - 1);
        bytes[index] ^= 1 << bit;
        prop_assert!(
            decode_any(&bytes).is_err(),
            "bit {} of byte {} flipped in kind {} yet decoded",
            bit, index, which
        );
    }
}

#[test]
fn every_truncation_point_of_every_kind_is_rejected() {
    // The proptest above samples cut points; this sweep is exhaustive so
    // the guarantee is unconditional for these representative files.
    for bytes in sample_encodings(42) {
        for len in 0..bytes.len() {
            assert!(
                decode_any(&bytes[..len]).is_err(),
                "truncation to {len} of {} bytes decoded successfully",
                bytes.len()
            );
        }
        // And the untouched file decodes, so the sweep tests what it claims.
        assert!(decode_any(&bytes).is_ok());
    }
}

#[test]
fn version_one_files_get_a_typed_rejection() {
    // A well-formed file of a retired version (1, or 2 with its mid-round
    // resume fields) — trailer digest and all — must be refused by version,
    // never half-decoded.
    assert_eq!(FORMAT_VERSION, 3);
    for found in [1u16, 2] {
        for mut bytes in sample_encodings(7) {
            bytes[8..10].copy_from_slice(&found.to_le_bytes());
            let body = bytes.len() - 8;
            let trailer = fnv1a(&bytes[..body]).to_le_bytes();
            bytes[body..].copy_from_slice(&trailer);
            assert_eq!(
                CheckpointFile::decode(&bytes).unwrap_err(),
                CkptError::UnsupportedVersion { found, min: 3, max: 3 }
            );
        }
    }
}
