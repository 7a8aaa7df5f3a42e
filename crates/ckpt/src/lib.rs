//! `plos-ckpt` — zero-dependency versioned binary checkpoints for PLOS
//! training state.
//!
//! Long-running PLOS fits (CCCP outer loops centrally, consensus-ADMM
//! rounds in the distributed deployment) need to survive being killed:
//! this crate serializes the resumable state — the centralized trainer's
//! and the consensus driver's state after a CCCP or refinement round —
//! into a self-describing binary format and stores it atomically on disk.
//!
//! Format guarantees (see `DESIGN.md` §10 for the byte-level layout):
//!
//! - **Length-prefixed framing** with a magic header and a format version
//!   negotiated on read ([`frame::FORMAT_VERSION`] /
//!   [`frame::MIN_SUPPORTED_VERSION`]).
//! - **FNV-1a digests per section** plus a whole-file trailer digest, so
//!   any single-bit corruption anywhere yields a typed [`CkptError`] —
//!   never a panic and never a silently wrong model.
//! - **Bit-exact round trips**: `f64`s are stored as raw IEEE-754 bit
//!   patterns, preserving signed zeros and NaN payloads, which is what
//!   makes bit-parity resume provable by digest comparison.
//! - **Privacy**: the state mirrors hold only server-visible quantities;
//!   device-local training data has no representation in the format.
//!
//! The trainers (`plos-core`) hold their resumable state in the mirrors
//! of [`state`]; this crate never depends on them.

pub mod digest;
pub mod error;
pub mod frame;
pub mod state;
pub mod store;
pub mod wire;

pub use digest::{fnv1a, model_digest, Fnv1a};
pub use error::CkptError;
pub use frame::{CheckpointFile, FORMAT_VERSION, MAGIC, MIN_SUPPORTED_VERSION};
pub use state::{
    CentralizedPhase, CentralizedState, ConsensusPhase, ConsensusState, FleetSection, TreeSection,
    KIND_CENTRALIZED, KIND_CONSENSUS,
};
pub use store::Store;
