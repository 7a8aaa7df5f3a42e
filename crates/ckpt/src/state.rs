//! Checkpointable state mirrors and their section-level codecs.
//!
//! The trainers keep their resumable state in these plain data structs —
//! [`CentralizedState`] for Algorithm 1 and [`ConsensusState`] for every
//! Algorithm 2 topology; this module owns the byte layout. Each state kind
//! encodes into a [`CheckpointFile`] with a fixed set of tagged sections:
//!
//! | tag | section  | contents                                        |
//! |-----|----------|-------------------------------------------------|
//! | 1   | CONTEXT  | kind byte + run fingerprint                     |
//! | 2   | META     | phase, counters, flags, scalars                 |
//! | 3   | MODEL    | w0 and per-user vector blocks                   |
//! | 4   | HISTORY  | objective history (+ residuals, consensus)      |
//! | 5   | FLEET    | per-device slots and roster (optional)          |
//! | 6   | TREE     | shard-map fingerprint and term (optional)       |
//!
//! Privacy note: none of these sections ever carry device-local training
//! data. The consensus state holds only quantities the server already
//! received over the wire (consensus iterates, duals, slacks).

use crate::error::CkptError;
use crate::frame::CheckpointFile;
use crate::wire::{Reader, Writer};
use plos_linalg::Vector;

/// Section tag: kind byte + fingerprint.
pub const SEC_CONTEXT: u16 = 1;
/// Section tag: phase, counters, scalars.
pub const SEC_META: u16 = 2;
/// Section tag: model vectors.
pub const SEC_MODEL: u16 = 3;
/// Section tag: objective history and residuals.
pub const SEC_HISTORY: u16 = 4;
/// Section tag: per-device fleet state (consensus only, optional).
pub const SEC_FLEET: u16 = 5;
/// Section tag: aggregation-tree binding (consensus only, optional).
pub const SEC_TREE: u16 = 6;

/// Kind byte: a [`CentralizedState`].
pub const KIND_CENTRALIZED: u8 = 3;
/// Kind byte: a [`ConsensusState`].
pub const KIND_CONSENSUS: u8 = 4;

fn context_section(kind: u8, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(kind);
    w.put_u64(fingerprint);
    w.into_bytes()
}

fn read_context(file: &CheckpointFile, expected: u8) -> Result<u64, CkptError> {
    let mut r = Reader::new(file.section(SEC_CONTEXT)?);
    let kind = r.get_u8("context kind")?;
    if kind != expected {
        return Err(CkptError::WrongKind { found: kind, expected });
    }
    let fingerprint = r.get_u64("context fingerprint")?;
    r.finish("context section")?;
    Ok(fingerprint)
}

fn put_vectors(w: &mut Writer, vs: &[Vector]) {
    w.put_usize(vs.len());
    for v in vs {
        w.put_vector(v);
    }
}

fn get_vectors(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Vector>, CkptError> {
    // Each vector costs at least its 8-byte length prefix.
    let len = r.get_len(8, what)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.get_vector(what)?);
    }
    Ok(out)
}

fn put_bools(w: &mut Writer, vs: &[bool]) {
    w.put_usize(vs.len());
    for &v in vs {
        w.put_bool(v);
    }
}

fn get_bools(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<bool>, CkptError> {
    let len = r.get_len(1, what)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.get_bool(what)?);
    }
    Ok(out)
}

/// Which outer phase a centralized run was in when checkpointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentralizedPhase {
    /// Inside the CCCP outer loop; `vectors` holds per-user biases `v_t`.
    Cccp,
    /// Inside refinement; `vectors` holds per-user hyperplanes `w_t`, and
    /// the payload counts completed refine rounds.
    Refine {
        /// Refinement rounds already completed.
        rounds_done: u32,
    },
}

/// Mid-run state of the centralized CCCP solver, written after each outer
/// round.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralizedState {
    /// Structural fingerprint of the run (dataset shape + config).
    pub fingerprint: u64,
    /// Outer phase and phase-local progress.
    pub phase: CentralizedPhase,
    /// Current global hyperplane `w0`.
    pub w0: Vector,
    /// Phase-dependent per-user vectors (see [`CentralizedPhase`]).
    pub vectors: Vec<Vector>,
    /// Objective value after every completed outer round.
    pub history: Vec<f64>,
    /// CCCP rounds completed.
    pub cccp_rounds: u32,
    /// Whether the CCCP loop reached its convergence tolerance.
    pub cccp_converged: bool,
    /// Cutting-plane inner rounds completed so far (reporting only).
    pub cutting_rounds: u64,
    /// Constraints added so far (reporting only).
    pub constraints_added: u64,
}

impl CentralizedState {
    /// Serializes into a framed checkpoint.
    #[must_use]
    pub fn encode(&self) -> CheckpointFile {
        let mut file = CheckpointFile::new();
        file.push_section(SEC_CONTEXT, context_section(KIND_CENTRALIZED, self.fingerprint));
        let mut meta = Writer::new();
        match self.phase {
            CentralizedPhase::Cccp => {
                meta.put_u8(0);
                meta.put_u32(0);
            }
            CentralizedPhase::Refine { rounds_done } => {
                meta.put_u8(1);
                meta.put_u32(rounds_done);
            }
        }
        meta.put_u32(self.cccp_rounds);
        meta.put_bool(self.cccp_converged);
        meta.put_u64(self.cutting_rounds);
        meta.put_u64(self.constraints_added);
        file.push_section(SEC_META, meta.into_bytes());
        let mut model = Writer::new();
        model.put_vector(&self.w0);
        put_vectors(&mut model, &self.vectors);
        file.push_section(SEC_MODEL, model.into_bytes());
        let mut hist = Writer::new();
        hist.put_f64s(&self.history);
        file.push_section(SEC_HISTORY, hist.into_bytes());
        file
    }

    /// Reconstructs from a verified checkpoint file.
    pub fn decode(file: &CheckpointFile) -> Result<Self, CkptError> {
        let fingerprint = read_context(file, KIND_CENTRALIZED)?;
        let mut meta = Reader::new(file.section(SEC_META)?);
        let phase_byte = meta.get_u8("phase")?;
        let rounds_done = meta.get_u32("refine rounds done")?;
        let phase = match phase_byte {
            0 => CentralizedPhase::Cccp,
            1 => CentralizedPhase::Refine { rounds_done },
            other => {
                return Err(CkptError::Malformed {
                    detail: format!("unknown centralized phase byte {other}"),
                })
            }
        };
        let cccp_rounds = meta.get_u32("cccp_rounds")?;
        let cccp_converged = meta.get_bool("cccp_converged")?;
        let cutting_rounds = meta.get_u64("cutting_rounds")?;
        let constraints_added = meta.get_u64("constraints_added")?;
        meta.finish("meta section")?;
        let mut model = Reader::new(file.section(SEC_MODEL)?);
        let w0 = model.get_vector("w0")?;
        let vectors = get_vectors(&mut model, "per-user vectors")?;
        model.finish("model section")?;
        let mut hist = Reader::new(file.section(SEC_HISTORY)?);
        let history = hist.get_f64s("objective history")?;
        hist.finish("history section")?;
        Ok(CentralizedState {
            fingerprint,
            phase,
            w0,
            vectors,
            history,
            cccp_rounds,
            cccp_converged,
            cutting_rounds,
            constraints_added,
        })
    }
}

/// Where a consensus run (Algorithm 2) was when its state was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusPhase {
    /// Between CCCP rounds: the next round to enter is `cccp_rounds`.
    Boundary,
    /// Inside post-consensus refinement.
    Refine {
        /// Refinement rounds already completed.
        rounds_done: u32,
    },
}

/// The server's per-device view of a fleet: the flat star's or the
/// bounded-staleness server's consensus slots and roster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSection {
    /// Per-user scaled duals `u_t`.
    pub us: Vec<Vector>,
    /// Last per-user hyperplanes `w_t` accepted.
    pub w_ts: Vec<Vector>,
    /// Last per-user biases `v_t` accepted.
    pub v_ts: Vec<Vector>,
    /// Last per-user slack totals ξ_t accepted.
    pub xi_ts: Vec<f64>,
    /// Device liveness flags.
    pub alive: Vec<bool>,
    /// Consecutive missed-round strikes per device.
    pub missed: Vec<u32>,
    /// Devices evicted so far, in eviction order.
    pub evicted: Vec<u64>,
    /// Per-gather attendance: (round, replied, alive, retries).
    pub participation: Vec<(u32, u64, u64, u64)>,
    /// Malformed-reply count.
    pub protocol_errors: u64,
    /// Late/duplicate replies discarded.
    pub late_discards: u64,
    /// Updates discarded for exceeding the staleness bound.
    pub stale_discards: u64,
    /// Assignments re-issued after their awaited reply went over-stale.
    pub reassignments: u64,
}

/// Binds a tree root's state to the partition and leader term it was
/// produced under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSection {
    /// Fingerprint of the shard map in force (`ShardMap::fingerprint`).
    pub shard_fingerprint: u64,
    /// Election term of the leader that produced the state.
    pub term: u32,
}

/// The consensus-ADMM driver's state, shared by every topology: the flat
/// star and the bounded-staleness server snapshot it to disk (with a
/// [`FleetSection`]), and the sharded tree's root replicates it to its
/// replicas by anti-entropy (with a [`TreeSection`]). Server-side
/// quantities only.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusState {
    /// Structural fingerprint of the run (cohort shape + config).
    pub fingerprint: u64,
    /// Phase and phase-local progress.
    pub phase: ConsensusPhase,
    /// Last communication round number used (0 is the init round).
    pub round: u32,
    /// Total ADMM iterations across all CCCP rounds.
    pub admm_iterations: u64,
    /// CCCP rounds entered.
    pub cccp_rounds: u32,
    /// Whether the CCCP history reached its convergence tolerance.
    pub converged: bool,
    /// Current consensus iterate `w0`.
    pub w0: Vector,
    /// Objective value after every completed CCCP and refinement round.
    pub history: Vec<f64>,
    /// Per-ADMM-iteration residuals: (round, primal, dual).
    pub residuals: Vec<(u32, f64, f64)>,
    /// Per-device state of a fleet server.
    pub fleet: Option<FleetSection>,
    /// Tree binding of a root replica's state.
    pub tree: Option<TreeSection>,
}

impl ConsensusState {
    /// The state before the initialization round: every counter zero and
    /// `w0` the zero vector of dimension `dim`.
    #[must_use]
    pub fn fresh(fingerprint: u64, dim: usize) -> Self {
        ConsensusState {
            fingerprint,
            phase: ConsensusPhase::Boundary,
            round: 0,
            admm_iterations: 0,
            cccp_rounds: 0,
            converged: false,
            w0: Vector::zeros(dim),
            history: Vec::new(),
            residuals: Vec::new(),
            fleet: None,
            tree: None,
        }
    }

    /// Serializes into a framed checkpoint.
    #[must_use]
    pub fn encode(&self) -> CheckpointFile {
        let mut file = CheckpointFile::new();
        file.push_section(SEC_CONTEXT, context_section(KIND_CONSENSUS, self.fingerprint));
        let mut meta = Writer::new();
        let (phase, rounds_done) = match self.phase {
            ConsensusPhase::Refine { rounds_done } => (1, rounds_done),
            ConsensusPhase::Boundary => (2, 0),
        };
        meta.put_u8(phase);
        meta.put_u32(rounds_done);
        meta.put_u32(self.round);
        meta.put_u64(self.admm_iterations);
        meta.put_u32(self.cccp_rounds);
        meta.put_bool(self.converged);
        file.push_section(SEC_META, meta.into_bytes());

        let mut model = Writer::new();
        model.put_vector(&self.w0);
        file.push_section(SEC_MODEL, model.into_bytes());

        let mut hist = Writer::new();
        hist.put_f64s(&self.history);
        hist.put_usize(self.residuals.len());
        for &(round, primal, dual) in &self.residuals {
            hist.put_u32(round);
            hist.put_f64(primal);
            hist.put_f64(dual);
        }
        file.push_section(SEC_HISTORY, hist.into_bytes());

        if let Some(fleet) = &self.fleet {
            file.push_section(SEC_FLEET, fleet.encode());
        }
        if let Some(tree) = &self.tree {
            let mut w = Writer::new();
            w.put_u64(tree.shard_fingerprint);
            w.put_u32(tree.term);
            file.push_section(SEC_TREE, w.into_bytes());
        }
        file
    }

    /// Reconstructs from a verified checkpoint file.
    pub fn decode(file: &CheckpointFile) -> Result<Self, CkptError> {
        let fingerprint = read_context(file, KIND_CONSENSUS)?;
        let mut meta = Reader::new(file.section(SEC_META)?);
        let phase_byte = meta.get_u8("phase")?;
        let rounds_done = meta.get_u32("refine rounds done")?;
        let phase = match phase_byte {
            1 => ConsensusPhase::Refine { rounds_done },
            2 => ConsensusPhase::Boundary,
            other => {
                return Err(CkptError::Malformed {
                    detail: format!("unknown consensus phase byte {other}"),
                })
            }
        };
        let round = meta.get_u32("round")?;
        let admm_iterations = meta.get_u64("admm_iterations")?;
        let cccp_rounds = meta.get_u32("cccp_rounds")?;
        let converged = meta.get_bool("converged")?;
        meta.finish("meta section")?;

        let mut model = Reader::new(file.section(SEC_MODEL)?);
        let w0 = model.get_vector("w0")?;
        model.finish("model section")?;

        let mut hist = Reader::new(file.section(SEC_HISTORY)?);
        let history = hist.get_f64s("objective history")?;
        let res_len = hist.get_len(4 + 8 + 8, "residuals")?;
        let mut residuals = Vec::with_capacity(res_len);
        for _ in 0..res_len {
            let r = hist.get_u32("residual round")?;
            let primal = hist.get_f64("primal residual")?;
            let dual = hist.get_f64("dual residual")?;
            residuals.push((r, primal, dual));
        }
        hist.finish("history section")?;

        // The extension sections are optional: absence is `None`.
        let fleet = file.section(SEC_FLEET).ok().map(FleetSection::decode).transpose()?;
        let tree = match file.section(SEC_TREE).ok() {
            Some(bytes) => {
                let mut r = Reader::new(bytes);
                let shard_fingerprint = r.get_u64("shard fingerprint")?;
                let term = r.get_u32("term")?;
                r.finish("tree section")?;
                Some(TreeSection { shard_fingerprint, term })
            }
            None => None,
        };
        Ok(ConsensusState {
            fingerprint,
            phase,
            round,
            admm_iterations,
            cccp_rounds,
            converged,
            w0,
            history,
            residuals,
            fleet,
            tree,
        })
    }
}

impl FleetSection {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_vectors(&mut w, &self.us);
        put_vectors(&mut w, &self.w_ts);
        put_vectors(&mut w, &self.v_ts);
        w.put_f64s(&self.xi_ts);
        put_bools(&mut w, &self.alive);
        w.put_usize(self.missed.len());
        for &m in &self.missed {
            w.put_u32(m);
        }
        w.put_u64s(&self.evicted);
        w.put_usize(self.participation.len());
        for &(round, replied, alive, retries) in &self.participation {
            w.put_u32(round);
            w.put_u64(replied);
            w.put_u64(alive);
            w.put_u64(retries);
        }
        w.put_u64(self.protocol_errors);
        w.put_u64(self.late_discards);
        w.put_u64(self.stale_discards);
        w.put_u64(self.reassignments);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes);
        let us = get_vectors(&mut r, "duals")?;
        let w_ts = get_vectors(&mut r, "hyperplanes")?;
        let v_ts = get_vectors(&mut r, "biases")?;
        let xi_ts = r.get_f64s("slacks")?;
        let alive = get_bools(&mut r, "alive flags")?;
        let missed_len = r.get_len(4, "missed strikes")?;
        let mut missed = Vec::with_capacity(missed_len);
        for _ in 0..missed_len {
            missed.push(r.get_u32("missed strikes")?);
        }
        let evicted = r.get_u64s("evicted roster")?;
        let part_len = r.get_len(4 + 8 + 8 + 8, "participation")?;
        let mut participation = Vec::with_capacity(part_len);
        for _ in 0..part_len {
            participation.push((
                r.get_u32("participation round")?,
                r.get_u64("participation replied")?,
                r.get_u64("participation alive")?,
                r.get_u64("participation retries")?,
            ));
        }
        let protocol_errors = r.get_u64("protocol_errors")?;
        let late_discards = r.get_u64("late_discards")?;
        let stale_discards = r.get_u64("stale_discards")?;
        let reassignments = r.get_u64("reassignments")?;
        r.finish("fleet section")?;
        let fleet = FleetSection {
            us,
            w_ts,
            v_ts,
            xi_ts,
            alive,
            missed,
            evicted,
            participation,
            protocol_errors,
            late_discards,
            stale_discards,
            reassignments,
        };
        fleet.validate()?;
        Ok(fleet)
    }

    /// Cross-field consistency: every per-device collection must agree on
    /// the cohort size.
    fn validate(&self) -> Result<(), CkptError> {
        let t = self.us.len();
        let lens = [
            ("w_ts", self.w_ts.len()),
            ("v_ts", self.v_ts.len()),
            ("xi_ts", self.xi_ts.len()),
            ("alive", self.alive.len()),
            ("missed", self.missed.len()),
        ];
        for (name, len) in lens {
            if len != t {
                return Err(CkptError::Malformed {
                    detail: format!("cohort size disagreement: us has {t}, {name} has {len}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    // Unit tests assert by panicking on failure; the workspace-wide
    // panic-free lint set is for library code paths, so tests opt back in.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

    use super::*;

    fn vec2(a: f64, b: f64) -> Vector {
        Vector::from(vec![a, b])
    }

    #[test]
    fn centralized_state_round_trips_both_phases() {
        for phase in [CentralizedPhase::Cccp, CentralizedPhase::Refine { rounds_done: 2 }] {
            let state = CentralizedState {
                fingerprint: 99,
                phase,
                w0: vec2(0.1, 0.2),
                vectors: vec![vec2(1.0, -1.0)],
                history: vec![5.0, 4.0, 3.999],
                cccp_rounds: 3,
                cccp_converged: true,
                cutting_rounds: 17,
                constraints_added: 23,
            };
            let bytes = state.encode().encode();
            let back = CentralizedState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
            assert_eq!(back, state);
        }
    }

    fn sample_fleet() -> FleetSection {
        FleetSection {
            us: vec![vec2(0.1, 0.2), vec2(-0.3, 0.0)],
            w_ts: vec![vec2(1.0, 2.0), vec2(3.0, 4.0)],
            v_ts: vec![vec2(0.0, -0.0), vec2(f64::MAX, f64::MIN)],
            xi_ts: vec![0.25, 1e-300],
            alive: vec![true, false],
            missed: vec![0, 3],
            evicted: vec![1],
            participation: vec![(6, 1, 2, 4)],
            protocol_errors: 2,
            late_discards: 1,
            stale_discards: 5,
            reassignments: 3,
        }
    }

    fn sample_consensus() -> ConsensusState {
        ConsensusState {
            round: 7,
            admm_iterations: 9,
            cccp_rounds: 2,
            history: vec![10.0, 7.5],
            residuals: vec![(6, 0.9, 0.8), (7, 0.5, 0.4)],
            fleet: Some(sample_fleet()),
            tree: Some(TreeSection { shard_fingerprint: 0xabcd_ef01_2345_6789, term: 2 }),
            ..ConsensusState::fresh(0x1234_5678_9abc_def0, 2)
        }
    }

    #[test]
    fn consensus_state_round_trips_every_phase_and_section_set() {
        for phase in [ConsensusPhase::Boundary, ConsensusPhase::Refine { rounds_done: 3 }] {
            for (fleet, tree) in [(false, false), (true, false), (false, true), (true, true)] {
                let full = sample_consensus();
                let state = ConsensusState {
                    phase,
                    fleet: full.fleet.filter(|_| fleet),
                    tree: full.tree.filter(|_| tree),
                    ..sample_consensus()
                };
                let file = state.encode();
                assert_eq!(file.section_count(), 4 + usize::from(fleet) + usize::from(tree));
                let bytes = file.encode();
                let back =
                    ConsensusState::decode(&CheckpointFile::decode(&bytes).unwrap()).unwrap();
                assert_eq!(back, state);
            }
        }
    }

    #[test]
    fn cohort_size_disagreement_rejected() {
        let mut bad_slots = sample_consensus();
        bad_slots.fleet.as_mut().unwrap().xi_ts.push(0.0);
        let mut bad_roster = sample_consensus();
        bad_roster.fleet.as_mut().unwrap().missed.pop();
        for state in [bad_slots, bad_roster] {
            let bytes = state.encode().encode();
            assert!(matches!(
                ConsensusState::decode(&CheckpointFile::decode(&bytes).unwrap()),
                Err(CkptError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn wrong_kind_is_typed() {
        let centralized = CentralizedState {
            fingerprint: 1,
            phase: CentralizedPhase::Cccp,
            w0: vec2(1.0, 2.0),
            vectors: vec![vec2(0.0, 0.0)],
            history: Vec::new(),
            cccp_rounds: 0,
            cccp_converged: false,
            cutting_rounds: 0,
            constraints_added: 0,
        };
        assert_eq!(
            ConsensusState::decode(&centralized.encode()).unwrap_err(),
            CkptError::WrongKind { found: KIND_CENTRALIZED, expected: KIND_CONSENSUS }
        );
    }
}
