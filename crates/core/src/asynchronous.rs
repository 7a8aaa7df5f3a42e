//! Asynchronous distributed PLOS — an event-driven, bounded-staleness
//! consensus-ADMM server for the paper's Sec. VII future work.
//!
//! "The current distributed algorithm is mainly designed for the
//! synchronous distributed system. For the asynchronous scenario, for
//! instance, some users may delay their responses for arbitrarily long, we
//! will leave it as our future work."
//!
//! Where [`crate::DistributedPlos`] barriers every ADMM round (one
//! straggler stalls the whole fleet), this server folds device updates into
//! the Eq. (23) consensus state *as they arrive*. The protocol (DESIGN.md
//! §13) is Jacobi-style asynchronous ADMM under a **staleness bound** `S`:
//!
//! * every server pass opens a consensus **epoch**; devices with no
//!   assignment in flight receive `AsyncBroadcast { epoch, S, w0, u_t }`;
//! * a device replies `AsyncUpdate { epoch, basis, … }` where `basis` is
//!   the epoch whose `(w0, u_t)` its solution was actually computed
//!   against — busy devices resend their cached solution with its old
//!   basis instead of recomputing;
//! * the server accepts a reply when `epoch − basis ≤ S` and folds it into
//!   the per-device slots; over-stale updates are **discarded and
//!   counted** (`stale_discard` events), and the device is re-assigned
//!   once its outstanding epoch falls more than `S` behind;
//! * a pass closes when every live device is accounted for, or — with
//!   `S > 0` — after a quiescence window with no arrivals, in which case
//!   the Eq. (23) update runs over whatever subset arrived (an empty pass
//!   applies nothing and is not counted as an ADMM iteration).
//!
//! The server is the consensus driver of [`crate::consensus`] — the same
//! schedule, Eq. (23)/(24) arithmetic and stopping tests as
//! [`crate::DistributedPlos`] — over this module's bounded-staleness gather
//! strategy. **S = 0 degenerates to the synchronous path bit-for-bit**: the
//! bound forces every reply fresh (`basis == epoch`) and the pass becomes a
//! barrier — enforced by the `async_parity` ci gate and
//! `tests/fault_tolerance.rs`.
//!
//! Checkpointing snapshots the [`plos_ckpt::ConsensusState`] at CCCP and
//! refinement boundaries; at a boundary the server-held `w_t` slots equal
//! each device's own anchor, so a `Restore` handshake re-seats a resumed
//! fleet and the run continues with bit-parity (fault-free runs).

use crate::checkpoint::{self, CheckpointPolicy};
use crate::config::{FaultTolerance, PlosConfig};
use crate::consensus::{self, providers, DeviceOutcome, Driver, Gather, Partial, Reply, Slots};
use crate::distributed::{Fleet, POLL_SLICE};
use crate::error::CoreError;
use crate::local::{LocalSolver, LocalUpdate};
use crate::model::PersonalizedModel;
use crate::wire_u32;
use plos_ckpt::{ConsensusState, FleetSection, KIND_CONSENSUS};
use plos_linalg::{ExactSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{
    DeviceMachine, DeviceRuntime, DeviceStep, FaultPlan, Message, TrafficStats, TransportError,
};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use std::time::{Duration, Instant};

/// Hard per-pass cap on how long the server waits for the fleet. Generous:
/// hitting it in barrier mode means the transport is actually broken, not
/// merely slow.
const SERVER_WAIT: Duration = Duration::from_secs(60);

/// In barrier collections (init, refinement, `S = 0` passes, restore
/// handshakes) the assignment is re-sent to silent devices at this cadence
/// so a dropped frame cannot stall the barrier. Clients answer re-sent
/// assignments idempotently from their reply cache.
const RESEND_AFTER: Duration = Duration::from_millis(250);

/// Straggler model and staleness policy for the asynchronous runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncSpec {
    /// Probability that a device is free to recompute when an assignment
    /// arrives (`1.0` = every reply fresh).
    pub availability: f64,
    /// Staleness bound `S`: a reply whose basis epoch is more than `S`
    /// epochs behind the current one is discarded, and a device whose
    /// outstanding assignment falls more than `S` epochs behind is
    /// re-assigned. `S = 0` degenerates to the synchronous barrier
    /// protocol bit-for-bit.
    pub staleness_bound: u32,
    /// Quiescence window of an `S > 0` server pass: the pass closes once
    /// no reply has arrived for this long (or the whole live roster is
    /// accounted for, whichever comes first).
    pub poll_window: Duration,
    /// Seed of the per-device straggler processes.
    pub seed: u64,
}

impl Default for AsyncSpec {
    fn default() -> Self {
        AsyncSpec {
            availability: 0.7,
            staleness_bound: 2,
            poll_window: Duration::from_millis(40),
            seed: 0,
        }
    }
}

/// Measurements of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncReport {
    /// Per-user traffic (client side).
    pub per_user_traffic: Vec<TrafficStats>,
    /// Applied ADMM epochs (passes that folded at least one update) across
    /// all CCCP rounds.
    pub admm_iterations: usize,
    /// CCCP rounds performed.
    pub cccp_rounds: usize,
    /// Objective after each CCCP round.
    pub history: History,
    /// Whether the CCCP objective converged before the round cap.
    pub converged: bool,
    /// Stale replies per user (assignment arrived while "busy" and was
    /// answered from the cache).
    pub stale_replies: Vec<usize>,
    /// Fresh local solves per user.
    pub fresh_replies: Vec<usize>,
    /// Server-side discards: matched replies whose basis epoch exceeded
    /// the staleness bound.
    pub stale_discards: u64,
    /// Server-side discards: duplicates and replies to superseded epochs.
    pub late_discards: u64,
    /// Assignments re-issued after their awaited reply went over-stale.
    pub reassignments: u64,
    /// Frames that violated the protocol (misattributed updates,
    /// unexpected message kinds) and were discarded.
    pub protocol_errors: u64,
    /// Devices evicted from the roster (dead links), in eviction order.
    pub evicted: Vec<usize>,
    /// Devices whose client-side handler panicked. Each is contained by the
    /// runtime, counted as a protocol error, and surfaces as a dead link on
    /// the server side (strike-evicted like any other silent device).
    pub panicked: Vec<usize>,
    /// End-to-end wall-clock time of the run.
    pub wall_clock: Duration,
}

impl AsyncReport {
    /// Overall fraction of replies that were stale (client-side view).
    pub fn staleness(&self) -> f64 {
        let stale: usize = self.stale_replies.iter().sum();
        let fresh: usize = self.fresh_replies.iter().sum();
        let total = stale + fresh;
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }
}

/// The asynchronous trainer.
#[derive(Debug, Clone)]
pub struct AsyncDistributedPlos {
    config: PlosConfig,
    spec: AsyncSpec,
    ckpt: Option<CheckpointPolicy>,
    runtime: DeviceRuntime,
}

/// The device side of the bounded-staleness protocol as a resumable state
/// machine: answer epoch-tagged assignments until shutdown. Busy devices
/// (per the stateless straggler hash) resend their cached solution with its
/// original basis epoch; an `S = 0` assignment forces a fresh solve, which
/// is what makes the bound degenerate to the synchronous protocol. Replies
/// are cached per assignment epoch so duplicated or re-sent assignments are
/// answered idempotently. Both runners drive it —
/// [`plos_net::drive_blocking`] on a dedicated thread, or the
/// [`plos_net::MuxNetwork`] sweep with K siblings per worker.
struct AsyncDeviceMachine {
    user: u32,
    t: usize,
    solver: LocalSolver,
    spec: AsyncSpec,
    /// Latest locally computed solution, tagged with the epoch whose
    /// (w0, u_t) it was computed against.
    last: Option<(u32, LocalUpdate)>,
    /// Last reply sent, keyed by assignment epoch.
    sent: Option<(u32, Message)>,
    stale: usize,
    fresh: usize,
    /// Chaos injection: panic on the first assignment at or after this
    /// epoch ([`FaultPlan::panic_round`]), modelling an app crash mid-ADMM.
    panic_at: Option<u32>,
}

impl DeviceMachine for AsyncDeviceMachine {
    type Output = DeviceOutcome;

    // The planned chaos crash must be a genuine panic: the whole point of
    // the regression is that the runtime contains it per-device.
    #[allow(clippy::panic)]
    fn on_message(&mut self, message: Message) -> DeviceStep {
        match message {
            Message::AsyncBroadcast { epoch, staleness_bound, w0, u_t } => {
                if self.panic_at.is_some_and(|at| epoch >= at) {
                    panic!("planned chaos: device {} crashed at epoch {epoch}", self.user);
                }
                if let Some((e, reply)) = &self.sent {
                    if *e == epoch {
                        return DeviceStep::Send(reply.clone());
                    }
                }
                let reply = if epoch == 0 {
                    // Init epoch: contribute a local hyperplane if this
                    // device has labels of both classes.
                    let w_init =
                        self.solver.initial_hyperplane().unwrap_or_else(|| Vector::zeros(w0.len()));
                    Message::AsyncUpdate {
                        epoch,
                        basis: epoch,
                        user: self.user,
                        w_t: w_init,
                        v_t: Vector::zeros(w0.len()),
                        xi_t: 0.0,
                    }
                } else {
                    let busy = staleness_bound > 0
                        && self.last.is_some()
                        && is_busy(self.spec.seed, self.t, epoch, self.spec.availability);
                    match (&self.last, busy) {
                        (Some((basis, update)), true) => {
                            self.stale += 1;
                            Message::AsyncUpdate {
                                epoch,
                                basis: *basis,
                                user: self.user,
                                w_t: update.w_t.clone(),
                                v_t: update.v_t.clone(),
                                xi_t: update.xi_t,
                            }
                        }
                        _ => {
                            self.fresh += 1;
                            // A failed local solve degrades this device to
                            // the consensus update rather than poisoning the
                            // protocol.
                            let update =
                                self.solver.solve(&w0, &u_t).unwrap_or_else(|_| LocalUpdate {
                                    w_t: w0.clone(),
                                    v_t: Vector::zeros(w0.len()),
                                    xi_t: 0.0,
                                });
                            self.last = Some((epoch, update.clone()));
                            Message::AsyncUpdate {
                                epoch,
                                basis: epoch,
                                user: self.user,
                                w_t: update.w_t,
                                v_t: update.v_t,
                                xi_t: update.xi_t,
                            }
                        }
                    }
                };
                self.sent = Some((epoch, reply.clone()));
                DeviceStep::Send(reply)
            }
            Message::CccpAdvance { .. } => {
                self.solver.advance_cccp();
                // The linearization changed; cached solutions and replies
                // are void.
                self.last = None;
                self.sent = None;
                DeviceStep::NeedRecv
            }
            Message::Refine { round, w0 } => {
                if let Some((e, reply)) = &self.sent {
                    if *e == round {
                        return DeviceStep::Send(reply.clone());
                    }
                }
                let seed = self.solver.seed_for_round(round);
                // Refinement is always fresh — it anchors the final model.
                let update = self.solver.refine(&w0, seed).unwrap_or_else(|_| LocalUpdate {
                    w_t: w0.clone(),
                    v_t: Vector::zeros(w0.len()),
                    xi_t: 0.0,
                });
                self.fresh += 1;
                self.last = Some((round, update.clone()));
                let reply = Message::AsyncUpdate {
                    epoch: round,
                    basis: round,
                    user: self.user,
                    w_t: update.w_t,
                    v_t: update.v_t,
                    xi_t: update.xi_t,
                };
                self.sent = Some((round, reply.clone()));
                DeviceStep::Send(reply)
            }
            // The cohort shrank: rescale every T-dependent quantity,
            // notably κ = λ/T in the local objective.
            Message::RosterUpdate { t_count } => {
                self.solver.set_cohort_size(t_count as usize);
                DeviceStep::NeedRecv
            }
            // Checkpoint resume: adopt the server's recorded anchor and
            // cohort size, then ack. The ack carries empty vectors — it is
            // a liveness signal, not an update, and the server's restore
            // collection discards its payload.
            Message::Restore { round, t_count, w_t } => {
                self.solver.restore(w_t, t_count as usize);
                self.last = None;
                let reply = Message::AsyncUpdate {
                    epoch: round,
                    basis: round,
                    user: self.user,
                    w_t: Vector::zeros(0),
                    v_t: Vector::zeros(0),
                    xi_t: 0.0,
                };
                self.sent = Some((round, reply.clone()));
                DeviceStep::Send(reply)
            }
            // Stray frames (sync-protocol broadcasts, peer updates): drop
            // rather than dying on a protocol hiccup.
            Message::Broadcast { .. }
            | Message::ClientUpdate { .. }
            | Message::AsyncUpdate { .. }
            | Message::ShardBroadcast { .. }
            | Message::PartialSum { .. }
            | Message::ShardCommit { .. }
            | Message::ShardResidual { .. } => DeviceStep::NeedRecv,
            Message::Shutdown => DeviceStep::Done,
        }
    }

    fn finish(self, stats: TrafficStats) -> DeviceOutcome {
        DeviceOutcome { stats, stale: self.stale, fresh: self.fresh, ..DeviceOutcome::default() }
    }
}

/// Stateless per-(device, epoch) busy decision — a splitmix64 hash mapped
/// to `[0, 1)`. Deterministic in the spec seed alone, so the straggler
/// process is independent of message timing and arrival order.
fn is_busy(seed: u64, t: usize, epoch: u32, availability: f64) -> bool {
    if availability >= 1.0 {
        return false;
    }
    let mut z = seed
        ^ (t as u64).wrapping_mul(0xd129_0d3a_37cf_1e2b)
        ^ u64::from(epoch).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    unit >= availability
}

/// Mixes the async spec into the structural run fingerprint: resuming with
/// a different straggler process or staleness bound would follow a
/// different trajectory, so such snapshots must be refused like a config
/// mismatch. `poll_window` is excluded — it shapes wall-clock behaviour
/// only, never the fault-free trajectory.
fn async_fingerprint(config: &PlosConfig, spec: &AsyncSpec, t_count: usize, dim: usize) -> u64 {
    let base = checkpoint::run_fingerprint(KIND_CONSENSUS, t_count, dim, config);
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    mix(mix(mix(base, spec.availability.to_bits()), spec.seed), u64::from(spec.staleness_bound))
}

/// One collection sweep over the outstanding assignments.
///
/// Matches arriving `AsyncUpdate`s against `outstanding` by epoch tag,
/// accepts the ones within the staleness bound, and counts the rest
/// (late/stale/protocol discards). In `barrier` mode the sweep
/// blocks until the whole live roster is accounted for (re-sending the
/// assignment to silent devices so dropped frames cannot stall it) and a
/// [`SERVER_WAIT`] expiry is a transport error; otherwise the sweep
/// returns once no reply has arrived for `quiet_window`.
///
/// Returns the accepted updates.
// Allowed: the sweep threads the full pass context (epoch tags, bound,
// windows, resend closure, discard counter); bundling them into a one-shot
// struct would only move the argument list behind a constructor.
#[allow(clippy::too_many_arguments)]
fn collect_replies(
    fleet: &mut Fleet<'_>,
    outstanding: &mut [Option<u32>],
    epoch: u32,
    staleness_bound: u32,
    quiet_window: Duration,
    barrier: bool,
    resend: &dyn Fn(usize) -> Message,
    stale_discards: &mut u64,
) -> Result<Vec<Reply>, CoreError> {
    // D2 audit: these clocks gate only the pass/quiescence windows and the
    // barrier re-send cadence — whether a reply folds is decided purely by
    // its epoch/basis tags, never by the wall-clock instant it arrived at.
    // Asserted clock-independent by tests/clock_independence.rs.
    // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
    let started = Instant::now();
    let hard_deadline = started + SERVER_WAIT;
    let mut quiet_deadline = started + quiet_window;
    let mut resend_at = started + RESEND_AFTER;
    let mut accepted = Vec::new();
    loop {
        if fleet.alive_count() == 0 {
            return Err(CoreError::Transport {
                detail: format!("every device disconnected before epoch {epoch} closed"),
            });
        }
        let waiting: Vec<usize> = (0..outstanding.len())
            .filter(|&t| fleet.is_alive(t) && matches!(outstanding.get(t), Some(Some(_))))
            .collect();
        if waiting.is_empty() {
            break;
        }
        // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
        let now = Instant::now();
        if now >= hard_deadline {
            if barrier {
                return Err(CoreError::Transport {
                    detail: format!(
                        "{} device(s) silent for {SERVER_WAIT:?} in epoch {epoch}",
                        waiting.len()
                    ),
                });
            }
            break;
        }
        if !barrier && now >= quiet_deadline {
            break;
        }
        if barrier && now >= resend_at {
            for &t in &waiting {
                let message = resend(t);
                fleet.send_to(t, &message);
            }
            // plos-lint: allow(D2): barrier re-send cadence only
            resend_at = Instant::now() + RESEND_AFTER;
        }
        for &t in &waiting {
            if !fleet.is_alive(t) {
                continue;
            }
            let Some(link) = fleet.links.get_mut(t) else { continue };
            let received = link.recv_timeout(POLL_SLICE);
            match received {
                Ok(Message::AsyncUpdate { epoch: e, basis, user, w_t, v_t, xi_t }) => {
                    // Any arrival re-arms the quiescence window.
                    // plos-lint: allow(D2): quiescence-window bookkeeping only
                    quiet_deadline = Instant::now() + quiet_window;
                    let matched =
                        matches!(outstanding.get(t), Some(Some(assigned)) if *assigned == e);
                    if user as usize != t {
                        fleet.tally.protocol_errors = fleet.tally.protocol_errors.saturating_add(1);
                    } else if !matched {
                        // A duplicate, or an answer to a superseded
                        // assignment: discard by tag, never merge.
                        fleet.tally.late_discards = fleet.tally.late_discards.saturating_add(1);
                    } else {
                        if let Some(slot) = outstanding.get_mut(t) {
                            *slot = None;
                        }
                        let staleness = epoch.saturating_sub(basis);
                        if staleness <= staleness_bound {
                            accepted.push((t, w_t, v_t, xi_t));
                        } else {
                            *stale_discards = stale_discards.saturating_add(1);
                            if plos_obs::enabled() {
                                plos_obs::emit(
                                    "stale_discard",
                                    &[
                                        ("device", t.into()),
                                        ("epoch", epoch.into()),
                                        ("basis", basis.into()),
                                        ("staleness", staleness.into()),
                                    ],
                                );
                                plos_obs::counter_add("async.stale_discards", 1);
                            }
                        }
                    }
                }
                Ok(_) => {
                    fleet.tally.protocol_errors = fleet.tally.protocol_errors.saturating_add(1)
                }
                // A corrupted frame surfaced as a codec error; barrier mode
                // re-sends, S > 0 mode re-assigns once over-stale.
                Err(TransportError::Timeout | TransportError::Codec(_)) => {}
                Err(TransportError::Disconnected) => fleet.evict(t),
            }
        }
    }
    Ok(accepted)
}

/// The bounded-staleness gather strategy over a [`Fleet`]: an ADMM pass
/// folds whatever arrived within the staleness bound, and the commit
/// updates only the slots that pass refreshed. Initialization and
/// refinement stay barriers.
struct Staleness<'a> {
    fleet: Fleet<'a>,
    slots: Slots,
    dim: usize,
    bound: u32,
    /// Quiescence window of an ADMM pass (`S > 0`).
    poll_window: Duration,
    /// Epoch of each device's assignment in flight.
    outstanding: Vec<Option<u32>>,
    /// Devices whose slot the last ADMM pass refreshed.
    refreshed: Vec<bool>,
    folded: usize,
    stale_discards: u64,
    reassignments: u64,
}

impl<'a> Staleness<'a> {
    fn new(fleet: Fleet<'a>, spec: &AsyncSpec, dim: usize) -> Self {
        let n = fleet.links.len();
        Staleness {
            fleet,
            slots: Slots::new(n, dim),
            dim,
            bound: spec.staleness_bound,
            poll_window: spec.poll_window,
            outstanding: vec![None; n],
            refreshed: vec![false; n],
            folded: 0,
            stale_discards: 0,
            reassignments: 0,
        }
    }
}

impl Gather for Staleness<'_> {
    fn gather(
        &mut self,
        state: &mut ConsensusState,
        phase: u8,
        epoch: u32,
    ) -> Result<Option<Partial>, CoreError> {
        let (dim, bound) = (self.dim, self.bound);
        let (w0, us) = (&state.w0, &self.slots.us);
        // Every u_t is still zero in the initialization epoch.
        let message = |t: usize| match phase {
            PHASE_REFINE => Message::Refine { round: epoch, w0: w0.clone() },
            _ => Message::AsyncBroadcast {
                epoch,
                staleness_bound: bound,
                w0: w0.clone(),
                u_t: us.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
            },
        };
        // S = 0 passes, initialization and refinement (always fresh — it
        // anchors the final model, and keeping it synchronous is what pins
        // the S > 0 accuracy band to the synchronous protocol's) are
        // barriers; an S > 0 pass closes on quiescence.
        let barrier = phase != PHASE_ADMM || bound == 0;
        if phase != PHASE_ADMM {
            self.outstanding.fill(None);
        }
        // Assign: devices with nothing in flight get this epoch's (w0, u_t);
        // devices whose outstanding assignment fell more than S epochs
        // behind are re-assigned.
        for t in 0..self.outstanding.len() {
            let assign = match self.outstanding.get(t) {
                _ if !self.fleet.is_alive(t) => false,
                Some(None) => true,
                Some(Some(assigned)) if epoch.saturating_sub(*assigned) > bound => {
                    self.reassignments = self.reassignments.saturating_add(1);
                    true
                }
                _ => false,
            };
            if assign {
                self.fleet.send_to(t, &message(t));
                if let Some(slot) = self.outstanding.get_mut(t) {
                    *slot = Some(epoch);
                }
            }
        }
        self.fleet.publish_roster();
        let window = if barrier { SERVER_WAIT } else { self.poll_window };
        let replies = collect_replies(
            &mut self.fleet,
            &mut self.outstanding,
            epoch,
            bound,
            window,
            barrier,
            &message,
            &mut self.stale_discards,
        )?;
        self.fleet.publish_roster();
        let n = self.fleet.alive_count();
        let live = &self.fleet.alive;
        Ok(match phase {
            PHASE_INIT => Some(providers(&replies, n, dim)),
            PHASE_ADMM => {
                self.refreshed.fill(false);
                for (t, ..) in &replies {
                    if let Some(flag) = self.refreshed.get_mut(*t) {
                        *flag = true;
                    }
                }
                self.folded = replies.len();
                self.slots.store(replies);
                (self.folded > 0).then(|| Partial { n, m: 0, sum: self.slots.admm_sum(live) })
            }
            _ => {
                self.slots.store(replies);
                Some(Partial { n, m: 0, sum: self.slots.refine_sum(live) })
            }
        })
    }

    fn commit(&mut self, _epoch: u32, w0: &Vector) -> Result<ExactSum, CoreError> {
        // Dual updates and the primal residual range over the devices whose
        // blocks were refreshed *this pass*: a frozen straggler slot must not
        // accumulate dual drift or put a floor under the residual. Under
        // S = 0 the barrier makes the refreshed set exactly the live roster,
        // which is the barrier server's commit verbatim.
        let updated: Vec<bool> =
            self.fleet.alive.iter().zip(&self.refreshed).map(|(a, r)| *a && *r).collect();
        Ok(self.slots.u_update(w0, &updated))
    }

    fn objective(&mut self) -> (usize, ExactSum, ExactSum) {
        let (obj_v, obj_xi) = self.slots.objective_terms(&self.fleet.alive);
        (self.fleet.alive_count(), obj_v, obj_xi)
    }

    fn refine_terms(
        &mut self,
        _epoch: u32,
        w0: &Vector,
    ) -> Result<(ExactSum, ExactSum), CoreError> {
        Ok(self.slots.refine_terms(w0, &self.fleet.alive))
    }

    fn enter_cccp(&mut self, cccp_round: u32, advance: bool) -> Result<(), CoreError> {
        if advance {
            self.fleet.send_alive(&|_t| Message::CccpAdvance { cccp_round });
            self.fleet.publish_roster();
        }
        // The linearization changed: every in-flight assignment is void, and
        // its eventual reply a late discard.
        self.outstanding.fill(None);
        Ok(())
    }

    fn round_event(&self, epoch: u32, primal: f64, dual: f64) {
        if plos_obs::enabled() {
            plos_obs::emit(
                "async_round",
                &[
                    ("epoch", epoch.into()),
                    ("primal_residual", primal.into()),
                    ("dual_residual", dual.into()),
                    ("folded", self.folded.into()),
                    ("alive", self.fleet.alive_count().into()),
                ],
            );
            plos_obs::counter_add("async.admm_rounds", 1);
        }
    }

    /// Snapshots happen at CCCP and refinement boundaries only, where the
    /// server-held `w_t` slots equal each device's own anchor (fault-free),
    /// so the `Restore` handshake alone re-seats the fleet exactly.
    fn export(&self, _boundary: bool) -> Option<FleetSection> {
        Some(FleetSection {
            stale_discards: self.stale_discards,
            reassignments: self.reassignments,
            ..self.fleet.snapshot(&self.slots)
        })
    }

    fn restore(&mut self, epoch: u32, section: &FleetSection) -> Result<(), CoreError> {
        self.fleet.restore(section);
        self.slots = Slots::restored(section, self.dim);
        self.stale_discards = section.stale_discards;
        self.reassignments = section.reassignments;
        let dim = self.dim;
        let t_count = wire_u32(self.fleet.alive_count());
        let restore = |t: usize| Message::Restore {
            round: epoch,
            t_count,
            w_t: section.anchors.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
        };
        self.fleet.send_alive(&restore);
        for (slot, &alive) in self.outstanding.iter_mut().zip(&self.fleet.alive) {
            *slot = alive.then_some(epoch);
        }
        collect_replies(
            &mut self.fleet,
            &mut self.outstanding,
            epoch,
            self.bound,
            SERVER_WAIT,
            true,
            &restore,
            &mut self.stale_discards,
        )?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), CoreError> {
        self.fleet.shutdown();
        Ok(())
    }
}

impl AsyncDistributedPlos {
    /// Creates a trainer, rejecting invalid configurations and specs with a
    /// typed error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the configuration is invalid, when
    /// `availability` is outside `(0, 1]` (devices that never compute can't
    /// train), or when `poll_window` is zero.
    pub fn try_new(config: PlosConfig, spec: AsyncSpec) -> Result<Self, CoreError> {
        config.try_validate()?;
        if !(spec.availability > 0.0 && spec.availability <= 1.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("availability must be in (0,1], got {}", spec.availability),
            });
        }
        if spec.poll_window.is_zero() {
            return Err(CoreError::InvalidConfig {
                detail: "poll_window must be positive".to_string(),
            });
        }
        Ok(AsyncDistributedPlos { config, spec, ckpt: None, runtime: DeviceRuntime::default() })
    }

    /// Enables server-side checkpointing under `policy`: the consensus
    /// state is snapshotted at every CCCP and refinement boundary, and a
    /// later run with the same policy resumes from the snapshot with
    /// bit-parity (fault-free runs). Without an explicit policy the
    /// `PLOS_CKPT_DIR` environment variable is consulted.
    #[must_use]
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Selects the device runtime: one OS thread per device (the default),
    /// or [`DeviceRuntime::Multiplexed`] to drive K virtual devices per
    /// pool worker. Both runtimes produce bit-identical models.
    #[must_use]
    pub fn with_runtime(mut self, runtime: DeviceRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Trains over the simulated network with stragglers, fault-free.
    /// Equivalent to [`AsyncDistributedPlos::fit_with_faults`] with the
    /// zero [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// See [`AsyncDistributedPlos::fit_with_faults`].
    pub fn fit(
        &self,
        dataset: &MultiUserDataset,
    ) -> Result<(PersonalizedModel, AsyncReport), CoreError> {
        self.fit_with_faults(dataset, &FaultPlan::none())
    }

    /// Trains under injected network faults: delayed replies fold in later
    /// epochs (until over-stale), dropped frames are recovered by barrier
    /// re-sends or `S`-bounded re-assignment, and dead links evict the
    /// device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyDataset`] when the dataset has no users,
    /// [`CoreError::Protocol`] for an invalid fault plan, and
    /// [`CoreError::Transport`] when the whole fleet disconnected or a
    /// barrier collection starved. Local solve failures on a device degrade
    /// that device to the consensus update instead of aborting the
    /// protocol.
    pub fn fit_with_faults(
        &self,
        dataset: &MultiUserDataset,
        plan: &FaultPlan,
    ) -> Result<(PersonalizedModel, AsyncReport), CoreError> {
        let _span = plos_obs::Span::enter("async_fit");
        // plos-lint: allow(D2): wall_clock field of the report only
        let started = Instant::now();
        let cohort = consensus::prepare(&self.config, dataset, plan)?;
        let (t_count, dim) = (cohort.t_count, cohort.dim);

        let policy = self.ckpt.clone().or_else(CheckpointPolicy::from_env);
        let fingerprint = async_fingerprint(&self.config, &self.spec, t_count, dim);
        let (session, resume) = consensus::open(policy, "async", fingerprint, t_count, dim)?;

        let spec = self.spec;
        let (server_out, outcomes, panicked) = cohort.run(
            self.runtime,
            |ends| {
                let fleet = Fleet::new(plan.wrap_links(ends), FaultTolerance::default());
                let mut server = Staleness::new(fleet, &spec, dim);
                let driver = Driver::new(&self.config, session, false, fingerprint, dim);
                let consensus = driver.run(&mut server, resume)?;
                let model =
                    consensus.model(&server.slots.w_ts, &server.fleet.alive, self.config.bias);
                let counters = (server.stale_discards, server.reassignments);
                Ok::<_, CoreError>((model, consensus, server.fleet.tally, counters))
            },
            |t, solver| AsyncDeviceMachine {
                user: wire_u32(t),
                t,
                solver,
                spec,
                last: None,
                sent: None,
                stale: 0,
                fresh: 0,
                panic_at: plan.panic_round(t),
            },
        )?;
        let (model, consensus, tally, (stale_discards, reassignments)) = server_out?;
        let report = AsyncReport {
            per_user_traffic: outcomes.iter().map(|o| o.stats).collect(),
            admm_iterations: consensus.admm_iterations,
            cccp_rounds: consensus.cccp_rounds,
            history: consensus.history,
            converged: consensus.converged,
            stale_replies: outcomes.iter().map(|o| o.stale).collect(),
            fresh_replies: outcomes.iter().map(|o| o.fresh).collect(),
            stale_discards,
            late_discards: tally.late_discards,
            reassignments,
            protocol_errors: tally.protocol_errors.saturating_add(panicked.len() as u64),
            evicted: tally.evicted,
            panicked,
            wall_clock: started.elapsed(),
        };
        if plos_obs::enabled() {
            plos_obs::emit(
                "async_summary",
                &[
                    ("admm_rounds", report.admm_iterations.into()),
                    ("cccp_rounds", report.cccp_rounds.into()),
                    ("staleness", report.staleness().into()),
                    ("stale_discards", report.stale_discards.into()),
                    ("late_discards", report.late_discards.into()),
                    ("reassignments", report.reassignments.into()),
                    ("evicted", report.evicted.len().into()),
                ],
            );
        }
        Ok((model, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{plos_predictions, score_predictions};
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn cohort() -> MultiUserDataset {
        let spec = SyntheticSpec {
            num_users: 5,
            points_per_class: 25,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        generate_synthetic(&spec, 13).mask_labels(&LabelMask::providers(3, 0.2), 4)
    }

    fn overall(model: &PersonalizedModel, data: &MultiUserDataset) -> f64 {
        let acc = score_predictions(data, &plos_predictions(model, data));
        acc.overall(data.providers().len(), data.num_users() - data.providers().len())
    }

    fn model_bits(model: &PersonalizedModel) -> Vec<u64> {
        let mut bits: Vec<u64> = model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
        for v in model.personal_biases() {
            bits.extend(v.iter().map(|c| c.to_bits()));
        }
        bits
    }

    #[test]
    fn stragglers_still_learn() {
        let data = cohort();
        let trainer = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.5, seed: 3, ..AsyncSpec::default() },
        )
        .unwrap();
        let (model, report) = trainer.fit(&data).unwrap();
        assert!(overall(&model, &data) > 0.75, "accuracy {}", overall(&model, &data));
        assert!(report.staleness() > 0.2, "staleness {}", report.staleness());
        assert_eq!(report.per_user_traffic.len(), 5);
    }

    #[test]
    fn full_availability_has_no_stale_replies() {
        let data = cohort();
        let trainer = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 1.0, seed: 0, ..AsyncSpec::default() },
        )
        .unwrap();
        let (_, report) = trainer.fit(&data).unwrap();
        assert_eq!(report.staleness(), 0.0);
        assert!(report.stale_replies.iter().all(|&s| s == 0));
        assert_eq!(report.stale_discards, 0);
    }

    #[test]
    fn staleness_tracks_availability() {
        let data = cohort();
        let run = |availability: f64| {
            let trainer = AsyncDistributedPlos::try_new(
                PlosConfig::fast(),
                AsyncSpec { availability, seed: 9, ..AsyncSpec::default() },
            )
            .unwrap();
            trainer.fit(&data).unwrap().1.staleness()
        };
        assert!(run(0.3) > run(0.9), "lower availability must raise staleness");
    }

    #[test]
    fn async_accuracy_close_to_synchronous() {
        let data = cohort();
        let config = PlosConfig::fast();
        let (sync_model, _) =
            crate::DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        let trainer = AsyncDistributedPlos::try_new(
            config,
            AsyncSpec { availability: 0.6, seed: 1, ..AsyncSpec::default() },
        )
        .unwrap();
        let (async_model, _) = trainer.fit(&data).unwrap();
        let gap = (overall(&sync_model, &data) - overall(&async_model, &data)).abs();
        assert!(gap < 0.12, "async parity gap {gap}");
    }

    #[test]
    fn s0_matches_synchronous_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        let (sync_model, sync_report) =
            crate::DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        let trainer = AsyncDistributedPlos::try_new(
            config,
            AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() },
        )
        .unwrap();
        let (async_model, report) = trainer.fit(&data).unwrap();
        assert_eq!(model_bits(&async_model), model_bits(&sync_model));
        assert_eq!(report.history.values(), sync_report.history.values());
        assert_eq!(report.admm_iterations, sync_report.admm_iterations);
        assert_eq!(report.cccp_rounds, sync_report.cccp_rounds);
        assert_eq!(report.converged, sync_report.converged);
        assert_eq!(report.staleness(), 0.0, "S=0 forces every reply fresh");
        assert_eq!(report.stale_discards, 0);
        assert_eq!(report.reassignments, 0);
    }

    #[test]
    fn tight_bound_discards_over_stale_updates() {
        let data = cohort();
        let trainer = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.25, staleness_bound: 1, seed: 7, ..AsyncSpec::default() },
        )
        .unwrap();
        let (model, report) = trainer.fit(&data).unwrap();
        assert!(report.stale_discards > 0, "low availability under S=1 must discard");
        assert!(model.global_hyperplane().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn killed_and_resumed_async_run_matches_uninterrupted_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        // A generous quiescence window so pass membership is decided by
        // the seeded staleness process alone: with the default 40 ms
        // window, a local solve delayed past it by suite-level CPU
        // contention shifts a reply into the next pass and the two runs
        // being compared follow different (individually valid)
        // trajectories.
        let spec = AsyncSpec {
            availability: 0.6,
            seed: 5,
            poll_window: Duration::from_secs(2),
            ..AsyncSpec::default()
        };
        let (reference, ref_report) =
            AsyncDistributedPlos::try_new(config.clone(), spec).unwrap().fit(&data).unwrap();

        let dir = std::env::temp_dir().join(format!("plos-async-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two seams: the first CCCP boundary and the first refinement
        // boundary (one snapshot per boundary).
        for kill_after in [1u32, ref_report.cccp_rounds as u32 + 1] {
            let killed = AsyncDistributedPlos::try_new(config.clone(), spec)
                .unwrap()
                .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(kill_after))
                .fit(&data);
            assert!(
                matches!(killed, Err(CoreError::Interrupted { .. })),
                "kill switch must fire at {kill_after}, got {killed:?}"
            );
            let (resumed, report) = AsyncDistributedPlos::try_new(config.clone(), spec)
                .unwrap()
                .with_checkpointing(CheckpointPolicy::new(&dir))
                .fit(&data)
                .unwrap();
            assert_eq!(
                model_bits(&resumed),
                model_bits(&reference),
                "resume after {kill_after} checkpoint(s) diverged"
            );
            assert_eq!(report.history.values(), ref_report.history.values());
            assert_eq!(report.cccp_rounds, ref_report.cccp_rounds);
            assert_eq!(report.converged, ref_report.converged);
            assert!(!dir.join("async.ckpt").exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_spec_checkpoint_is_rejected() {
        let data = cohort();
        let config = PlosConfig::fast();
        let spec = AsyncSpec { availability: 0.6, seed: 5, ..AsyncSpec::default() };
        let dir = std::env::temp_dir().join(format!("plos-async-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let killed = AsyncDistributedPlos::try_new(config.clone(), spec)
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
            .fit(&data);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })));
        // A different staleness bound changes the trajectory: the stale
        // snapshot must be refused with a typed error, not silently
        // resumed.
        let other = AsyncSpec { staleness_bound: spec.staleness_bound + 1, ..spec };
        let resumed = AsyncDistributedPlos::try_new(config, other)
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir))
            .fit(&data);
        assert!(
            matches!(resumed, Err(CoreError::Ckpt(_))),
            "expected a checkpoint context error, got {resumed:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_never_cross_between_the_flat_and_async_servers() {
        let data = cohort();
        let config = PlosConfig::fast();
        // S = 0 follows the flat server's trajectory bit for bit, yet the two
        // servers' snapshots still must not be interchangeable.
        let spec = AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() };
        let dir = std::env::temp_dir().join(format!("plos-async-cross-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flat = || crate::DistributedPlos::try_new(config.clone()).unwrap();
        let asynchronous = || AsyncDistributedPlos::try_new(config.clone(), spec).unwrap();
        let killed =
            flat().with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1)).fit(&data);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })), "{killed:?}");
        let killed = asynchronous()
            .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
            .fit(&data);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })), "{killed:?}");

        // Offer each server the other's snapshot under its own file name.
        let (flat_path, async_path) = (dir.join("distributed.ckpt"), dir.join("async.ckpt"));
        let flat_bytes = std::fs::read(&flat_path).unwrap();
        let async_bytes = std::fs::read(&async_path).unwrap();
        std::fs::write(&flat_path, &async_bytes).unwrap();
        std::fs::write(&async_path, &flat_bytes).unwrap();
        let resumed = asynchronous().with_checkpointing(CheckpointPolicy::new(&dir)).fit(&data);
        assert!(
            matches!(resumed, Err(CoreError::Ckpt(_))),
            "async took a flat snapshot: {resumed:?}"
        );
        let resumed = flat().with_checkpointing(CheckpointPolicy::new(&dir)).fit(&data);
        assert!(
            matches!(resumed, Err(CoreError::Ckpt(_))),
            "flat took an async snapshot: {resumed:?}"
        );
        // Neither refused snapshot was resumed from, overwritten or cleared.
        assert_eq!(std::fs::read(&async_path).unwrap(), flat_bytes);
        assert_eq!(std::fs::read(&flat_path).unwrap(), async_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_new_rejects_bad_specs_with_typed_errors() {
        let bad_avail = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.0, ..AsyncSpec::default() },
        );
        assert!(
            matches!(&bad_avail, Err(CoreError::InvalidConfig { detail }) if detail.contains("availability must be in")),
            "got {bad_avail:?}"
        );
        let bad_window = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { poll_window: Duration::ZERO, ..AsyncSpec::default() },
        );
        assert!(
            matches!(&bad_window, Err(CoreError::InvalidConfig { detail }) if detail.contains("poll_window")),
            "got {bad_window:?}"
        );
    }

    #[test]
    fn mux_runtime_matches_threaded_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        // Both protocol regimes: the S=0 barrier and a bounded-staleness
        // spec with stragglers in play. The S > 0 case follows the
        // clock_independence.rs recipe — a quiescence window generous
        // enough that every pass closes by full roster accounting, which is
        // what makes the S > 0 trajectory timing-independent and therefore
        // comparable across runners at all.
        for spec in [
            AsyncSpec { staleness_bound: 0, ..AsyncSpec::default() },
            AsyncSpec {
                availability: 0.6,
                seed: 5,
                poll_window: Duration::from_millis(300),
                ..AsyncSpec::default()
            },
        ] {
            let (reference, ref_report) =
                AsyncDistributedPlos::try_new(config.clone(), spec).unwrap().fit(&data).unwrap();
            for k in [2usize, 16] {
                let (model, report) = AsyncDistributedPlos::try_new(config.clone(), spec)
                    .unwrap()
                    .with_runtime(DeviceRuntime::Multiplexed { devices_per_worker: k })
                    .fit(&data)
                    .unwrap();
                assert_eq!(
                    model_bits(&model),
                    model_bits(&reference),
                    "S={} K={k}",
                    spec.staleness_bound
                );
                assert_eq!(report.history.values(), ref_report.history.values());
                assert_eq!(report.stale_replies, ref_report.stale_replies);
                assert_eq!(report.fresh_replies, ref_report.fresh_replies);
            }
        }
    }

    #[test]
    fn panicking_device_is_contained_and_evicted() {
        let data = cohort();
        let plan = FaultPlan::seeded(11).with_device_panic(4, 2);
        for runtime in
            [DeviceRuntime::Threaded, DeviceRuntime::Multiplexed { devices_per_worker: 2 }]
        {
            let trainer = AsyncDistributedPlos::try_new(PlosConfig::fast(), AsyncSpec::default())
                .unwrap()
                .with_runtime(runtime);
            let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
            assert_eq!(report.panicked, vec![4], "{runtime:?}");
            assert!(report.evicted.contains(&4), "{runtime:?}: evicted {:?}", report.evicted);
            assert!(report.protocol_errors >= 1, "{runtime:?}");
            assert!(model.global_hyperplane().iter().all(|c| c.is_finite()));
        }
    }

    #[test]
    fn zero_availability_rejected() {
        let err = AsyncDistributedPlos::try_new(
            PlosConfig::fast(),
            AsyncSpec { availability: 0.0, ..AsyncSpec::default() },
        )
        .unwrap_err();
        match err {
            CoreError::InvalidConfig { detail } => {
                assert!(detail.contains("availability must be in"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
