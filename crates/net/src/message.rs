//! The distributed-PLOS protocol messages.
//!
//! One round of Algorithm 2 exchanges exactly two message kinds between the
//! server and each user: the server *scatters* the global hyperplane and the
//! user's scaled dual (`w0`, `u_t`, Eq. 23), and the user *gathers back* its
//! local solution (`w_t`, `v_t`, `ξ_t`, Eq. 22). The enum deliberately has
//! **no variant that could carry raw samples** — the privacy property the
//! paper claims is enforced by the protocol's type.

use crate::codec::{self, CodecError, WIRE_VERSION};
use bytes::{BufMut, Bytes, BytesMut};
use plos_linalg::{ExactSum, ExactVecSum, Vector};

/// A wire message of the distributed-PLOS protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → user: start ADMM round `round` with the current global
    /// hyperplane and this user's scaled dual.
    Broadcast {
        /// ADMM iteration counter.
        round: u32,
        /// Global hyperplane `w0`.
        w0: Vector,
        /// Scaled dual `u_t` for the receiving user.
        u_t: Vector,
    },
    /// User → server: the local subproblem solution of Eq. (22).
    ClientUpdate {
        /// ADMM iteration this update answers.
        round: u32,
        /// Sender's user index `t`.
        user: u32,
        /// Personalized hyperplane `w_t`.
        w_t: Vector,
        /// Personal bias `v_t = w_t − w0` estimate.
        v_t: Vector,
        /// Slack value `ξ_t` (enters the objective, Eq. 23).
        xi_t: f64,
    },
    /// Server → user: begin a new CCCP round — re-linearize `|w_t·x|` around
    /// the current local hyperplane (Algorithm 2, step 7).
    CccpAdvance {
        /// CCCP outer-iteration counter.
        cccp_round: u32,
    },
    /// Server → user: run one multi-start refinement pass against the final
    /// global hyperplane and report the refined local model.
    Refine {
        /// Refinement round counter.
        round: u32,
        /// Current global hyperplane to anchor the refinement.
        w0: Vector,
    },
    /// Server → user: training finished, terminate.
    Shutdown,
    /// Server → user: the cohort shrank (devices were evicted after
    /// permanent failures); rescale every `T`-dependent quantity — notably
    /// the `Σ_k γ_kt ≤ T/2λ` dual cap via `κ = λ/T` — to the new size.
    RosterUpdate {
        /// Number of devices still participating.
        t_count: u32,
    },
    /// User → server: a *cached* reply from a busy device under the
    /// bounded-staleness server. It answers the assignment of round `epoch`
    /// with the solution the device last computed, against the `(w0, u_t)`
    /// of the earlier round `basis < epoch`. A fresh solution always travels
    /// as a [`Message::ClientUpdate`], whose basis is the round it answers.
    /// The server measures staleness as `current_round - basis`.
    AsyncUpdate {
        /// Round of the assignment this update answers.
        epoch: u32,
        /// Round of the consensus state the payload was computed against.
        basis: u32,
        /// Sender's user index `t`.
        user: u32,
        /// Personalized hyperplane `w_t`.
        w_t: Vector,
        /// Personal bias `v_t = w_t − w0` estimate.
        v_t: Vector,
        /// Slack value `ξ_t` (enters the objective, Eq. 23).
        xi_t: f64,
    },
    /// Server → user: a resumed server re-seeds this device's solver state
    /// from a checkpoint. Carries only the device's own CCCP anchor `w_t`
    /// — a quantity the device itself sent earlier — never another user's
    /// state and never raw samples, preserving the privacy property.
    Restore {
        /// Communication round of the restore handshake.
        round: u32,
        /// Cohort size at the checkpoint.
        t_count: u32,
        /// The device's hyperplane at the start of the interrupted CCCP
        /// round (its sign-linearization anchor).
        w_t: Vector,
    },
    /// Root → regional aggregator: run phase `phase` of round `round` over
    /// your shard against global hyperplane `w0`. The regional fans the
    /// work out to its devices with the ordinary per-device messages.
    ShardBroadcast {
        /// Aggregation round counter (ADMM iteration or refinement round).
        round: u32,
        /// Protocol phase (see `shard::PHASE_*`).
        phase: u8,
        /// Global hyperplane `w0` for this round.
        w0: Vector,
    },
    /// Regional aggregator → root: the shard's exactly-accumulated partial
    /// sums for one round. Partials are [`ExactVecSum`]s rather than
    /// folded `f64` vectors so the root's shard-ordered merge is
    /// bit-identical to the flat single-server fold at any shard count.
    PartialSum {
        /// Shard index of the sender.
        shard: u32,
        /// Aggregation round this partial answers.
        round: u32,
        /// Devices alive in the shard this round.
        n: u32,
        /// Devices that contributed a hyperplane (init round only; `0`
        /// otherwise).
        m: u32,
        /// Σ over the shard of the phase's primary vector summand
        /// (`w_t − v_t + u_t` in ADMM, `w_init` in init, `w_t` in refine).
        sum_w: ExactVecSum,
    },
    /// Root → regional aggregator: the folded global state for `round` is
    /// committed; distribute `w0` to your devices and report residuals.
    ShardCommit {
        /// Aggregation round being committed.
        round: u32,
        /// Protocol phase (see `shard::PHASE_*`).
        phase: u8,
        /// The committed global hyperplane `w0⁺`.
        w0: Vector,
    },
    /// Regional aggregator → root: exactly-accumulated residual/objective
    /// partials for a committed round. The meaning of `a`/`b`/`c` is
    /// phase-dependent (primal²/objective terms in ADMM, distance²/slack
    /// in refinement); all are merged in fixed shard order at the root.
    ShardResidual {
        /// Shard index of the sender.
        shard: u32,
        /// Aggregation round these residuals belong to.
        round: u32,
        /// First scalar partial (e.g. Σ‖w_t − w0⁺ − v_t‖²). Boxed so the
        /// rare, large residual frame does not inflate every [`Message`].
        a: Box<ExactSum>,
        /// Second scalar partial (e.g. Σ‖v_t‖²).
        b: Box<ExactSum>,
        /// Third scalar partial (e.g. Σξ_t).
        c: Box<ExactSum>,
    },
}

const TAG_BROADCAST: u8 = 1;
const TAG_CLIENT_UPDATE: u8 = 2;
const TAG_CCCP_ADVANCE: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
const TAG_REFINE: u8 = 5;
const TAG_ROSTER_UPDATE: u8 = 6;
const TAG_RESTORE: u8 = 7;
// Tag 8 is retired: it decodes as an unknown tag and is never reassigned.
const TAG_ASYNC_UPDATE: u8 = 9;
const TAG_SHARD_BROADCAST: u8 = 10;
const TAG_PARTIAL_SUM: u8 = 11;
const TAG_SHARD_COMMIT: u8 = 12;
const TAG_SHARD_RESIDUAL: u8 = 13;

impl Message {
    /// Encodes the message to its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        match self {
            Message::Broadcast { round, w0, u_t } => {
                buf.put_u8(TAG_BROADCAST);
                buf.put_u32_le(*round);
                codec::put_vector(&mut buf, w0);
                codec::put_vector(&mut buf, u_t);
            }
            Message::ClientUpdate { round, user, w_t, v_t, xi_t } => {
                buf.put_u8(TAG_CLIENT_UPDATE);
                buf.put_u32_le(*round);
                buf.put_u32_le(*user);
                codec::put_vector(&mut buf, w_t);
                codec::put_vector(&mut buf, v_t);
                buf.put_f64_le(*xi_t);
            }
            Message::CccpAdvance { cccp_round } => {
                buf.put_u8(TAG_CCCP_ADVANCE);
                buf.put_u32_le(*cccp_round);
            }
            Message::Refine { round, w0 } => {
                buf.put_u8(TAG_REFINE);
                buf.put_u32_le(*round);
                codec::put_vector(&mut buf, w0);
            }
            Message::Shutdown => {
                buf.put_u8(TAG_SHUTDOWN);
            }
            Message::RosterUpdate { t_count } => {
                buf.put_u8(TAG_ROSTER_UPDATE);
                buf.put_u32_le(*t_count);
            }
            Message::Restore { round, t_count, w_t } => {
                buf.put_u8(TAG_RESTORE);
                buf.put_u32_le(*round);
                buf.put_u32_le(*t_count);
                codec::put_vector(&mut buf, w_t);
            }
            Message::AsyncUpdate { epoch, basis, user, w_t, v_t, xi_t } => {
                buf.put_u8(TAG_ASYNC_UPDATE);
                buf.put_u32_le(*epoch);
                buf.put_u32_le(*basis);
                buf.put_u32_le(*user);
                codec::put_vector(&mut buf, w_t);
                codec::put_vector(&mut buf, v_t);
                buf.put_f64_le(*xi_t);
            }
            Message::ShardBroadcast { round, phase, w0 } => {
                buf.put_u8(TAG_SHARD_BROADCAST);
                buf.put_u32_le(*round);
                buf.put_u8(*phase);
                codec::put_vector(&mut buf, w0);
            }
            Message::PartialSum { shard, round, n, m, sum_w } => {
                buf.put_u8(TAG_PARTIAL_SUM);
                buf.put_u32_le(*shard);
                buf.put_u32_le(*round);
                buf.put_u32_le(*n);
                buf.put_u32_le(*m);
                codec::put_exact_vec_sum(&mut buf, sum_w);
            }
            Message::ShardCommit { round, phase, w0 } => {
                buf.put_u8(TAG_SHARD_COMMIT);
                buf.put_u32_le(*round);
                buf.put_u8(*phase);
                codec::put_vector(&mut buf, w0);
            }
            Message::ShardResidual { shard, round, a, b, c } => {
                buf.put_u8(TAG_SHARD_RESIDUAL);
                buf.put_u32_le(*shard);
                buf.put_u32_le(*round);
                codec::put_exact_sum(&mut buf, a);
                codec::put_exact_sum(&mut buf, b);
                codec::put_exact_sum(&mut buf, c);
            }
        }
        buf.freeze()
    }

    /// Decodes a message from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on version mismatch, unknown tag, truncated
    /// payload, or bytes left over after the message: every message has
    /// exactly one encoding.
    pub fn decode(mut bytes: Bytes) -> Result<Message, CodecError> {
        let version = codec::get_u8(&mut bytes)?;
        if version != WIRE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let tag = codec::get_u8(&mut bytes)?;
        let message = match tag {
            TAG_BROADCAST => Message::Broadcast {
                round: codec::get_u32(&mut bytes)?,
                w0: codec::get_vector(&mut bytes)?,
                u_t: codec::get_vector(&mut bytes)?,
            },
            TAG_CLIENT_UPDATE => Message::ClientUpdate {
                round: codec::get_u32(&mut bytes)?,
                user: codec::get_u32(&mut bytes)?,
                w_t: codec::get_vector(&mut bytes)?,
                v_t: codec::get_vector(&mut bytes)?,
                xi_t: codec::get_f64(&mut bytes)?,
            },
            TAG_CCCP_ADVANCE => Message::CccpAdvance { cccp_round: codec::get_u32(&mut bytes)? },
            TAG_REFINE => Message::Refine {
                round: codec::get_u32(&mut bytes)?,
                w0: codec::get_vector(&mut bytes)?,
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_ROSTER_UPDATE => Message::RosterUpdate { t_count: codec::get_u32(&mut bytes)? },
            TAG_RESTORE => Message::Restore {
                round: codec::get_u32(&mut bytes)?,
                t_count: codec::get_u32(&mut bytes)?,
                w_t: codec::get_vector(&mut bytes)?,
            },
            TAG_ASYNC_UPDATE => Message::AsyncUpdate {
                epoch: codec::get_u32(&mut bytes)?,
                basis: codec::get_u32(&mut bytes)?,
                user: codec::get_u32(&mut bytes)?,
                w_t: codec::get_vector(&mut bytes)?,
                v_t: codec::get_vector(&mut bytes)?,
                xi_t: codec::get_f64(&mut bytes)?,
            },
            TAG_SHARD_BROADCAST => Message::ShardBroadcast {
                round: codec::get_u32(&mut bytes)?,
                phase: codec::get_u8(&mut bytes)?,
                w0: codec::get_vector(&mut bytes)?,
            },
            TAG_PARTIAL_SUM => Message::PartialSum {
                shard: codec::get_u32(&mut bytes)?,
                round: codec::get_u32(&mut bytes)?,
                n: codec::get_u32(&mut bytes)?,
                m: codec::get_u32(&mut bytes)?,
                sum_w: codec::get_exact_vec_sum(&mut bytes)?,
            },
            TAG_SHARD_COMMIT => Message::ShardCommit {
                round: codec::get_u32(&mut bytes)?,
                phase: codec::get_u8(&mut bytes)?,
                w0: codec::get_vector(&mut bytes)?,
            },
            TAG_SHARD_RESIDUAL => Message::ShardResidual {
                shard: codec::get_u32(&mut bytes)?,
                round: codec::get_u32(&mut bytes)?,
                a: Box::new(codec::get_exact_sum(&mut bytes)?),
                b: Box::new(codec::get_exact_sum(&mut bytes)?),
                c: Box::new(codec::get_exact_sum(&mut bytes)?),
            },
            other => return Err(CodecError::UnknownTag(other)),
        };
        if !bytes.is_empty() {
            return Err(CodecError::Invalid("trailing bytes after the message"));
        }
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn broadcast_round_trip() {
        round_trip(Message::Broadcast {
            round: 7,
            w0: Vector::from(vec![1.0, -2.0, 3.5]),
            u_t: Vector::from(vec![0.25, 0.0, -9.0]),
        });
    }

    #[test]
    fn client_update_round_trip() {
        round_trip(Message::ClientUpdate {
            round: 3,
            user: 42,
            w_t: Vector::from(vec![0.1, 0.2]),
            v_t: Vector::from(vec![-0.1, 0.3]),
            xi_t: 1.75,
        });
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip(Message::CccpAdvance { cccp_round: 2 });
        round_trip(Message::Shutdown);
        round_trip(Message::Refine { round: 3, w0: Vector::from(vec![1.0, -0.5]) });
        round_trip(Message::RosterUpdate { t_count: 11 });
    }

    #[test]
    fn restore_round_trip() {
        round_trip(Message::Restore {
            round: 9,
            t_count: 5,
            w_t: Vector::from(vec![0.5, -0.25, 8.0]),
        });
        round_trip(Message::Restore { round: 0, t_count: 1, w_t: Vector::zeros(0) });
    }

    #[test]
    fn restore_truncation_rejected() {
        let m = Message::Restore { round: 2, t_count: 4, w_t: Vector::from(vec![1.0, 2.0]) };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn empty_vectors_round_trip() {
        round_trip(Message::Broadcast { round: 0, w0: Vector::zeros(0), u_t: Vector::zeros(0) });
        round_trip(Message::AsyncUpdate {
            epoch: 0,
            basis: 0,
            user: 0,
            w_t: Vector::zeros(0),
            v_t: Vector::zeros(0),
            xi_t: 0.0,
        });
    }

    #[test]
    fn async_update_round_trip() {
        round_trip(Message::AsyncUpdate {
            epoch: 17,
            basis: 14,
            user: 6,
            w_t: Vector::from(vec![0.1, 0.2]),
            v_t: Vector::from(vec![-0.1, 0.3]),
            xi_t: -1.75,
        });
    }

    #[test]
    fn async_truncation_rejected() {
        let m = Message::AsyncUpdate {
            epoch: 5,
            basis: 4,
            user: 1,
            w_t: Vector::from(vec![1.0, 2.0]),
            v_t: Vector::from(vec![3.0]),
            xi_t: 0.5,
        };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut raw = Message::Shutdown.encode().to_vec();
        raw[0] = 99;
        assert_eq!(Message::decode(Bytes::from(raw)).unwrap_err(), CodecError::BadVersion(99));
    }

    #[test]
    fn unknown_tag_rejected() {
        let raw = vec![WIRE_VERSION, 0xAB];
        assert_eq!(Message::decode(Bytes::from(raw)).unwrap_err(), CodecError::UnknownTag(0xAB));
        // The retired asynchronous assignment frame.
        let raw = vec![WIRE_VERSION, 8];
        assert_eq!(Message::decode(Bytes::from(raw)).unwrap_err(), CodecError::UnknownTag(8));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = Message::RosterUpdate { t_count: 3 }.encode().to_vec();
        raw.push(0);
        assert_eq!(
            Message::decode(Bytes::from(raw)).unwrap_err(),
            CodecError::Invalid("trailing bytes after the message")
        );
    }

    #[test]
    fn truncation_rejected() {
        let m = Message::Broadcast {
            round: 1,
            w0: Vector::from(vec![1.0, 2.0, 3.0]),
            u_t: Vector::zeros(3),
        };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    fn sample_vec_sum(dim: usize) -> ExactVecSum {
        let mut s = ExactVecSum::zeros(dim);
        s.add(&Vector::from((0..dim).map(|i| i as f64 + 0.5).collect::<Vec<_>>()));
        s.add(&Vector::from((0..dim).map(|i| -(i as f64) * 1e15).collect::<Vec<_>>()));
        s
    }

    #[test]
    fn shard_messages_round_trip() {
        round_trip(Message::ShardBroadcast {
            round: 4,
            phase: 1,
            w0: Vector::from(vec![0.5, -1.25]),
        });
        round_trip(Message::ShardCommit {
            round: 4,
            phase: 2,
            w0: Vector::from(vec![0.5, -1.25, 3.0]),
        });
        let mut a = ExactSum::new();
        a.add(1e16);
        a.add(1.0);
        a.add(-1e16);
        let mut b = ExactSum::new();
        b.add(-0.0);
        let c = ExactSum::new();
        round_trip(Message::ShardResidual {
            shard: 3,
            round: 4,
            a: Box::new(a),
            b: Box::new(b),
            c: Box::new(c),
        });
        round_trip(Message::PartialSum {
            shard: 1,
            round: 9,
            n: 12,
            m: 11,
            sum_w: sample_vec_sum(3),
        });
        // An empty shard of a zero-dimension model sends the empty sum.
        round_trip(Message::PartialSum {
            shard: 0,
            round: 0,
            n: 0,
            m: 0,
            sum_w: ExactVecSum::zeros(0),
        });
    }

    #[test]
    fn partial_sum_survives_round_trip_bit_exactly() {
        // The whole point of shipping limbs instead of folded f64s: the
        // decoded accumulator renders the same bits as the original.
        let sum = sample_vec_sum(5);
        let m = Message::PartialSum { shard: 2, round: 1, n: 5, m: 5, sum_w: sum.clone() };
        let decoded = Message::decode(m.encode()).unwrap();
        let Message::PartialSum { sum_w, .. } = decoded else {
            panic!("wrong variant");
        };
        for (x, y) in sum_w.value().iter().zip(sum.value().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn shard_message_truncation_rejected() {
        let m = Message::PartialSum { shard: 1, round: 2, n: 3, m: 3, sum_w: sample_vec_sum(2) };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
        let mut a = ExactSum::new();
        a.add(7.0);
        let m = Message::ShardResidual {
            shard: 0,
            round: 1,
            a: Box::new(a),
            b: Box::new(ExactSum::new()),
            c: Box::new(ExactSum::new()),
        };
        let full = m.encode();
        for cut in 1..full.len() {
            let sliced = full.slice(0..cut);
            assert!(Message::decode(sliced).is_err(), "decoding a {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn overflowing_exact_sum_limbs_rejected() {
        // A residual frame whose first sum is the single top limb i64::MIN:
        // rendering it would negate i64::MIN.
        let mut raw = BytesMut::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u8(TAG_SHARD_RESIDUAL);
        raw.put_u32_le(0);
        raw.put_u32_le(1);
        raw.put_u8(0);
        raw.put_u8(1);
        raw.put_u8(67);
        raw.put_u64_le(i64::MIN as u64);
        raw.put_slice(&[0; 4]);
        assert_eq!(
            Message::decode(raw.freeze()).unwrap_err(),
            CodecError::Invalid("exact-sum limb list not canonical")
        );
        // A flag bit outside NaN/+∞/−∞ would be dropped on re-encoding.
        let mut raw = Message::ShardResidual {
            shard: 0,
            round: 1,
            a: Box::new(ExactSum::new()),
            b: Box::new(ExactSum::new()),
            c: Box::new(ExactSum::new()),
        }
        .encode()
        .to_vec();
        raw[10] = 8;
        assert_eq!(
            Message::decode(Bytes::from(raw)).unwrap_err(),
            CodecError::Invalid("exact-sum limb list not canonical")
        );
    }

    #[test]
    fn message_size_scales_with_dimension_only() {
        // Fig. 13's claim: per-user message size is independent of the
        // number of users — it depends only on the model dimension.
        let size = |d: usize| {
            Message::Broadcast { round: 0, w0: Vector::zeros(d), u_t: Vector::zeros(d) }
                .encode()
                .len()
        };
        assert_eq!(size(10), 2 + 4 + 2 * (4 + 80));
        assert!(size(20) > size(10));
    }
}
