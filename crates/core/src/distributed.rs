//! Distributed PLOS — Algorithm 2, over the simulated device network.
//!
//! One server thread (the caller) and `T` virtual devices, multiplexed onto
//! the pool's workers, communicate only through [`plos_net`] messages; raw
//! samples never leave the device machines. The server is the crate's one
//! consensus driver over this module's barrier gather strategy; per CCCP
//! round it runs the ADMM loop:
//!
//! * **scatter** `Broadcast { w0, u_t }` to every device,
//! * devices solve the local QP of Eq. (22)
//!   ([`crate::local::LocalSolver`]) and **gather** back
//!   `ClientUpdate { w_t, v_t, ξ_t }`,
//! * the server applies the closed-form updates of Eq. (23) and stops the
//!   loop on the residual criterion of Eq. (24),
//! * when the objective `L` stops improving the server either advances CCCP
//!   (`CccpAdvance`, devices re-linearize around their own `w_t`) or sends
//!   `Shutdown`.
//!
//! # Fault tolerance
//!
//! Real fleets drop, delay, duplicate and corrupt frames, and phones vanish
//! mid-round. The server therefore never blocks on a single device:
//!
//! * every gather runs under a [`RetryPolicy`] — an initial window, bounded
//!   re-broadcasts with exponential backoff, and a hard round deadline;
//! * a round may close early once [`FaultTolerance::quorum_fraction`] of the
//!   live roster replied; stragglers keep their previous `(w_t, v_t, ξ_t)`
//!   (carry-forward) and rejoin next round;
//! * a device that misses [`FaultTolerance::evict_after`] consecutive rounds
//!   (or whose link reports `Disconnected`) is evicted; survivors are told
//!   the new cohort size via `RosterUpdate` so they rescale `κ = λ/T` — and
//!   with it the `Σ_k γ_kt ≤ T/2λ` dual cap — while the server shrinks every
//!   `T`-dependent denominator of Eq. (23)/(24);
//! * training then completes with [`DistributedReport::degraded`] set
//!   instead of hanging or panicking.
//!
//! Faults are injected deterministically through a [`FaultPlan`]
//! ([`DistributedPlos::fit_with_faults`]); the zero plan is a transparent
//! pass-through, so [`DistributedPlos::fit`] is bit-identical to the
//! fault-free synchronous protocol.

use crate::checkpoint::{self, CheckpointPolicy};
use crate::config::{FaultTolerance, PlosConfig};
use crate::consensus::{
    self, providers, Consensus, DeviceOutcome, Driver, Gather, Partial, Reply, Slots,
};
use crate::error::CoreError;
use crate::model::PersonalizedModel;
use crate::sharded::Topology;
use crate::wire_u32;
use plos_ckpt::{ConsensusState, FleetSection, KIND_CONSENSUS};
use plos_linalg::{ExactSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{DeviceRuntime, FaultPlan, FaultyEndpoint, Message, TrafficStats, TransportError};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use std::time::{Duration, Instant};

#[cfg(doc)]
use crate::config::RetryPolicy;

/// How long one poll of an outstanding link blocks during a gather sweep.
/// Small enough that retry/deadline checks stay responsive, large enough
/// that an idle sweep does not spin.
pub(crate) const POLL_SLICE: Duration = Duration::from_millis(2);

/// The distributed trainer.
#[derive(Debug, Clone)]
pub struct DistributedPlos {
    pub(crate) config: PlosConfig,
    pub(crate) fault_tolerance: FaultTolerance,
    pub(crate) ckpt: Option<CheckpointPolicy>,
    pub(crate) runtime: DeviceRuntime,
    pub(crate) topology: Topology,
}

/// One gather round's attendance, as seen by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundParticipation {
    /// Protocol round number (0 is the initialization round).
    pub round: u32,
    /// Devices whose update was accepted this round.
    pub replied: usize,
    /// Devices still on the roster when the round closed.
    pub alive: usize,
    /// Re-broadcasts the retry policy fired this round.
    pub retries: u32,
}

/// One ADMM round's Eq. (24) residual norms, as computed by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmResiduals {
    /// Protocol round number (matches [`RoundParticipation::round`]).
    pub round: u32,
    /// Primal residual norm `√(Σ‖u⁺ − u‖²)` over the live cohort.
    pub primal: f64,
    /// Dual residual norm `ρ·√(2T)·‖w0⁺ − w0‖`.
    pub dual: f64,
}

/// Everything the paper's Sec. VI-E experiments measure about a distributed
/// run.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// Per-user traffic (client-side view): what each phone sent/received.
    pub per_user_traffic: Vec<TrafficStats>,
    /// Total ADMM iterations across all CCCP rounds.
    pub admm_iterations: usize,
    /// CCCP rounds performed.
    pub cccp_rounds: usize,
    /// Objective `L` after each CCCP round (Eq. 23).
    pub history: History,
    /// Whether the CCCP objective converged before the round cap.
    pub converged: bool,
    /// Cumulative local-solve compute time per user, as measured on the
    /// simulation host (rescale with [`plos_net::DeviceProfile`] for
    /// device-equivalent time).
    pub per_user_compute: Vec<Duration>,
    /// Server-side compute time (aggregation only, excluding waiting).
    pub server_compute: Duration,
    /// End-to-end wall-clock time of the run.
    pub wall_clock: Duration,
    /// True when any round closed without the full live roster, or any
    /// device was evicted — i.e. the run needed the fault-tolerance
    /// machinery rather than the pure synchronous protocol.
    pub degraded: bool,
    /// Devices evicted from the roster (missed rounds or dead links),
    /// in eviction order.
    pub evicted: Vec<usize>,
    /// Per-round attendance, one entry per gather round.
    pub participation: Vec<RoundParticipation>,
    /// Frames that violated the protocol (misattributed updates, unexpected
    /// message kinds) and were discarded.
    pub protocol_errors: u64,
    /// Stale frames (late replies to closed rounds, duplicates) that were
    /// discarded by their `round` tag.
    pub late_discards: u64,
    /// Eq. (24) residual norms after every ADMM round, across all CCCP
    /// rounds, in protocol-round order. Mirrors the `admm_round` trace
    /// events exactly.
    pub residuals: Vec<AdmmResiduals>,
    /// Devices whose client-side handler panicked mid-run. Each one also
    /// counts as a protocol error and marks the run degraded; the server
    /// saw its link die and evicted it through the normal strike path.
    pub panicked: Vec<usize>,
}

impl DistributedReport {
    /// The slowest device's cumulative compute time — the quantity that
    /// bounds distributed running time, since devices compute in parallel
    /// (Sec. VI-E, "the total running time is determined by the smartphone
    /// that processes the most amount of data").
    pub fn max_client_compute(&self) -> Duration {
        self.per_user_compute.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Mean per-user traffic in kilobytes (Fig. 13's unit).
    pub fn mean_user_kb(&self) -> f64 {
        if self.per_user_traffic.is_empty() {
            return 0.0;
        }
        self.per_user_traffic.iter().map(TrafficStats::total_kb).sum::<f64>()
            / self.per_user_traffic.len() as f64
    }

    /// Mean fraction of the live roster that replied per round (1.0 for a
    /// fault-free run).
    pub fn participation_rate(&self) -> f64 {
        if self.participation.is_empty() {
            return 1.0;
        }
        self.participation
            .iter()
            .map(|p| if p.alive == 0 { 0.0 } else { p.replied as f64 / p.alive as f64 })
            .sum::<f64>()
            / self.participation.len() as f64
    }
}

/// What a fleet counted over a run: evictions, attendance and discarded
/// frames.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Evicted devices (global ids), in eviction order.
    pub(crate) evicted: Vec<usize>,
    /// Attendance of every recorded gather round.
    pub(crate) participation: Vec<RoundParticipation>,
    pub(crate) protocol_errors: u64,
    pub(crate) late_discards: u64,
    /// Matched replies whose basis exceeded the staleness bound.
    pub(crate) stale_discards: u64,
}

/// Server-side view of the device roster: the fault-wrapped links plus the
/// liveness bookkeeping that drives quorum gathers, retries and eviction.
/// Both fleet strategies run over it and read replies through its one
/// [`Fleet::sweep`]: the barrier gather below, and the bounded-staleness
/// server (`crate::asynchronous`), whose collection loop closes on
/// quiescence instead of quorum.
pub(crate) struct Fleet<'a> {
    pub(crate) links: Vec<FaultyEndpoint<'a>>,
    pub(crate) alive: Vec<bool>,
    /// Consecutive rounds each device has missed.
    missed: Vec<u32>,
    pub(crate) tally: Tally,
    /// Set when an eviction changed the cohort size and the survivors have
    /// not been told yet.
    roster_dirty: bool,
    /// Global device id carried on each link: identity for the flat star,
    /// the shard's global indices for a regional aggregator's sub-fleet
    /// (`crate::sharded`). Replies are attributed by this id, and eviction
    /// events/reports name it, so per-device behaviour is position-independent.
    ids: Vec<usize>,
}

impl<'a> Fleet<'a> {
    pub(crate) fn new(links: Vec<FaultyEndpoint<'a>>) -> Self {
        let ids = (0..links.len()).collect();
        Self::with_ids(links, ids)
    }

    /// A sub-fleet whose link `i` talks to global device `ids[i]` — the
    /// regional aggregator's view of its shard.
    pub(crate) fn with_ids(links: Vec<FaultyEndpoint<'a>>, ids: Vec<usize>) -> Self {
        let n = links.len();
        debug_assert_eq!(ids.len(), n);
        Fleet {
            links,
            alive: vec![true; n],
            missed: vec![0; n],
            tally: Tally::default(),
            roster_dirty: false,
            ids,
        }
    }

    pub(crate) fn is_alive(&self, t: usize) -> bool {
        self.alive.get(t).copied().unwrap_or(false)
    }

    pub(crate) fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Removes a device from the roster permanently.
    pub(crate) fn evict(&mut self, t: usize) {
        let newly_evicted = match self.alive.get_mut(t) {
            Some(alive) if *alive => {
                *alive = false;
                true
            }
            _ => false,
        };
        if newly_evicted {
            let global = self.ids.get(t).copied().unwrap_or(t);
            self.tally.evicted.push(global);
            self.roster_dirty = true;
            plos_obs::emit(
                "eviction",
                &[("device", global.into()), ("alive", self.alive_count().into())],
            );
        }
    }

    /// Sends to one live device; a dead link evicts it on the spot.
    pub(crate) fn send_to(&mut self, t: usize, message: &Message) {
        if !self.is_alive(t) {
            return;
        }
        let failed = match self.links.get_mut(t) {
            Some(link) => link.send(message).is_err(),
            None => false,
        };
        if failed {
            self.evict(t);
        }
    }

    /// Sends one message to each of the devices `to`.
    pub(crate) fn send_each(&mut self, to: &[usize], make: &dyn Fn(usize) -> Message) {
        for &t in to {
            let message = make(t);
            self.send_to(t, &message);
        }
    }

    /// Sends one message per live device.
    pub(crate) fn send_alive(&mut self, make: &dyn Fn(usize) -> Message) {
        let live: Vec<usize> = (0..self.links.len()).filter(|&t| self.is_alive(t)).collect();
        self.send_each(&live, make);
    }

    /// The live devices that still owe a reply: `owed[t]` is the round
    /// device `t` was last assigned, `None` once it answered.
    pub(crate) fn owing(&self, owed: &[Option<u32>]) -> Vec<usize> {
        (0..owed.len())
            .filter(|&t| self.is_alive(t) && owed.get(t).is_some_and(Option::is_some))
            .collect()
    }

    /// One reply sweep, the only place a fleet server reads device replies:
    /// polls each device that still owes a reply ([`Fleet::owing`]) once, for
    /// [`POLL_SLICE`], in index order. A reply that answers the round its
    /// device owes, under the device's id, settles the debt. It is accepted
    /// into `accepted` when its basis — the round a fresh `ClientUpdate`
    /// answers, or the `basis` of a cached `AsyncUpdate` — is at most `bound`
    /// rounds behind `round`, and discarded as stale otherwise. Duplicates
    /// and answers to closed or superseded rounds are late discards;
    /// misattributed replies, replies whose vectors are not `len` long (the
    /// model dimension, or 0 for a `Restore` ack) and other frames are
    /// protocol errors that leave the debt open, as if the device had stayed
    /// silent; a dead link evicts its device. Returns when the sweep's last
    /// reply arrived, if one did.
    pub(crate) fn sweep(
        &mut self,
        owed: &mut [Option<u32>],
        round: u32,
        bound: u32,
        len: usize,
        accepted: &mut Vec<Reply>,
    ) -> Option<Instant> {
        let mut arrived = None;
        for t in self.owing(owed) {
            let Some(link) = self.links.get_mut(t) else { continue };
            let (answers, basis, user, w_t, v_t, xi_t) = match link.recv_timeout(POLL_SLICE) {
                Ok(Message::ClientUpdate { round, user, w_t, v_t, xi_t }) => {
                    (round, round, user, w_t, v_t, xi_t)
                }
                Ok(Message::AsyncUpdate { epoch, basis, user, w_t, v_t, xi_t }) => {
                    (epoch, basis, user, w_t, v_t, xi_t)
                }
                Ok(_) => {
                    self.tally.protocol_errors = self.tally.protocol_errors.saturating_add(1);
                    continue;
                }
                // A corrupted frame surfaced as a codec error; the caller
                // re-sends, and the device answers from its reply cache.
                Err(TransportError::Timeout | TransportError::Codec(_)) => continue,
                Err(TransportError::Disconnected) => {
                    self.evict(t);
                    continue;
                }
            };
            // plos-lint: allow(D2): quiescence-window bookkeeping only
            arrived = Some(Instant::now());
            let tally = &mut self.tally;
            let Some(slot) = owed.get_mut(t).filter(|slot| **slot == Some(answers)) else {
                // A duplicate, or an answer to a closed or superseded round:
                // discard by tag, never merge.
                tally.late_discards = tally.late_discards.saturating_add(1);
                continue;
            };
            let id = self.ids.get(t).copied().unwrap_or(t);
            if user as usize != id || w_t.len() != len || v_t.len() != len {
                // An update attributed to the wrong device, or one the fold
                // cannot add, is a counted, recoverable protocol error.
                tally.protocol_errors = tally.protocol_errors.saturating_add(1);
                continue;
            }
            *slot = None;
            let staleness = round.saturating_sub(basis);
            if staleness <= bound {
                accepted.push((t, w_t, v_t, xi_t));
                continue;
            }
            tally.stale_discards = tally.stale_discards.saturating_add(1);
            if plos_obs::enabled() {
                plos_obs::emit(
                    "stale_discard",
                    &[
                        ("device", id.into()),
                        ("epoch", round.into()),
                        ("basis", basis.into()),
                        ("staleness", staleness.into()),
                    ],
                );
            }
        }
        arrived
    }

    /// If evictions changed the cohort size, tells the survivors the new
    /// `T` so they rescale `κ = λ/T` (and the `Σ_k γ_kt ≤ T/2λ` dual cap).
    pub(crate) fn publish_roster(&mut self) {
        while self.roster_dirty {
            self.roster_dirty = false;
            let t_count = wire_u32(self.alive_count());
            // Publishing can itself reveal dead links, re-dirtying the
            // roster; the loop converges because evictions are monotone.
            self.send_alive(&move |_t| Message::RosterUpdate { t_count });
        }
    }

    /// Best-effort shutdown broadcast; failures are irrelevant because the
    /// endpoints drop right after and disconnect every survivor.
    pub(crate) fn shutdown(&mut self) {
        for (link, &alive) in self.links.iter_mut().zip(&self.alive) {
            if alive {
                let _ = link.send(&Message::Shutdown);
            }
        }
    }

    /// The roster and slots in snapshot form; a strategy adds its own
    /// counters.
    pub(crate) fn snapshot(&self, slots: &Slots) -> FleetSection {
        let tally = &self.tally;
        FleetSection {
            us: slots.us.clone(),
            w_ts: slots.w_ts.clone(),
            v_ts: slots.v_ts.clone(),
            xi_ts: slots.xi_ts.clone(),
            alive: self.alive.clone(),
            missed: self.missed.clone(),
            evicted: tally.evicted.iter().map(|&t| t as u64).collect(),
            participation: tally
                .participation
                .iter()
                .map(|p| (p.round, p.replied as u64, p.alive as u64, u64::from(p.retries)))
                .collect(),
            protocol_errors: tally.protocol_errors,
            late_discards: tally.late_discards,
            stale_discards: tally.stale_discards,
            ..FleetSection::default()
        }
    }

    /// Adopts the roster a boundary snapshot recorded — liveness flags,
    /// strike counts and the tally, so the resumed run's report continues
    /// the interrupted one's — and tells the fresh machines of devices the
    /// interrupted run already evicted to exit, or the join at the end of
    /// the run would hang on them. Then re-seats every survivor with
    /// `Restore { round }`: it adopts its last accepted `w_t` as its CCCP
    /// anchor, which at a boundary is its own, and the snapshot's cohort
    /// size. Returns the message for the re-sends of the ack gather.
    pub(crate) fn restore<'s>(
        &mut self,
        section: &'s FleetSection,
        round: u32,
        dim: usize,
    ) -> impl Fn(usize) -> Message + 's {
        for (flag, &stored) in self.alive.iter_mut().zip(&section.alive) {
            *flag = stored;
        }
        for (strikes, &stored) in self.missed.iter_mut().zip(&section.missed) {
            *strikes = stored;
        }
        self.tally = Tally {
            evicted: section.evicted.iter().map(|&t| t as usize).collect(),
            participation: section
                .participation
                .iter()
                .map(|&(round, replied, alive, retries)| RoundParticipation {
                    round,
                    replied: replied as usize,
                    alive: alive as usize,
                    retries: wire_u32(retries),
                })
                .collect(),
            protocol_errors: section.protocol_errors,
            late_discards: section.late_discards,
            stale_discards: section.stale_discards,
        };
        self.roster_dirty = false;
        for (link, &alive) in self.links.iter_mut().zip(&self.alive) {
            if !alive {
                let _ = link.send(&Message::Shutdown);
            }
        }
        let t_count = wire_u32(self.alive_count());
        let restore = move |t: usize| Message::Restore {
            round,
            t_count,
            w_t: section.w_ts.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
        };
        self.send_alive(&restore);
        restore
    }

    /// One quorum gather: collects the replies to `round` under the retry
    /// policy of `ft` and returns the accepted ones. The round closes when
    /// the whole live roster replied, or the quorum is met after the initial
    /// window, or the round deadline expires. Devices that stay silent
    /// accumulate a strike and are evicted after `evict_after` consecutive
    /// misses.
    ///
    /// `record = false` marks the `Restore` ack gather of a checkpoint
    /// resume: it collects the acks under the same retry machinery but
    /// leaves the participation log and strike counters untouched, because
    /// the uninterrupted run never had that round. Replies must carry
    /// vectors of length `len` ([`Fleet::sweep`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Transport`] when every device disconnected, and
    /// [`CoreError::QuorumLost`] when the round closed with zero usable
    /// replies — with no fresh state at all the ADMM iteration cannot
    /// advance, so retrying at the next round would only loop forever.
    pub(crate) fn gather(
        &mut self,
        ft: &FaultTolerance,
        round: u32,
        record: bool,
        len: usize,
        rebroadcast: &dyn Fn(usize) -> Message,
    ) -> Result<Vec<Reply>, CoreError> {
        let mut owed = vec![Some(round); self.links.len()];
        let mut replies = Vec::new();
        // D2 audit: these clocks gate only the retry/deadline machinery —
        // replies are matched by round tag, late ones discarded, so which
        // wall-clock instant a reply arrived at never reaches model state.
        // Asserted clock-independent by tests/clock_independence.rs.
        // plos-lint: allow(D2): retry-window/deadline timeout plumbing only
        let started = Instant::now();
        let first_window = started + ft.retry.recv_timeout;
        let deadline = started + ft.retry.round_deadline;
        let mut window_ends = first_window;
        let mut backoff = ft.retry.backoff_base;
        let mut retries = 0u32;

        loop {
            let alive = self.alive_count();
            if alive == 0 {
                return Err(CoreError::Transport {
                    detail: format!("every device disconnected before round {round} closed"),
                });
            }
            let required = ft.required_replies(alive);
            let outstanding = self.owing(&owed);
            // plos-lint: allow(D2): retry-window/deadline timeout plumbing only
            let now = Instant::now();
            if outstanding.is_empty()
                || now >= deadline
                || (replies.len() >= required && now >= first_window)
            {
                break;
            }
            if now >= window_ends && retries < ft.retry.max_retries {
                retries += 1;
                self.send_each(&outstanding, rebroadcast);
                // plos-lint: allow(D2): backoff window for re-broadcasts only
                let retry_now = Instant::now();
                window_ends = retry_now + backoff;
                // Geometric growth, clamped to the time left before the round
                // deadline: `Duration::mul_f64` panics on overflow for
                // aggressive factor/retry combinations, and a backoff longer
                // than the remaining deadline is indistinguishable from the
                // deadline itself.
                let remaining = deadline.saturating_duration_since(retry_now);
                backoff =
                    Duration::try_from_secs_f64(backoff.as_secs_f64() * ft.retry.backoff_factor)
                        .map_or(remaining, |grown| grown.min(remaining));
            }
            self.sweep(&mut owed, round, 0, len, &mut replies);
        }

        let alive = self.alive_count();
        if record {
            let replied = replies.len();
            self.tally.participation.push(RoundParticipation { round, replied, alive, retries });
        }
        if replies.is_empty() {
            return Err(CoreError::QuorumLost {
                round,
                alive,
                required: ft.required_replies(alive),
            });
        }
        if !record {
            return Ok(replies);
        }
        // Strike accounting: a reply clears the count, a miss adds one, and
        // `evict_after` consecutive misses remove the device for good.
        let mut to_evict = Vec::new();
        for (t, owes) in owed.iter().enumerate() {
            if !self.is_alive(t) {
                continue;
            }
            let Some(strikes) = self.missed.get_mut(t) else { continue };
            if owes.is_none() {
                *strikes = 0;
            } else {
                *strikes += 1;
                if *strikes >= ft.evict_after {
                    to_evict.push(t);
                }
            }
        }
        for t in to_evict {
            self.evict(t);
        }
        Ok(replies)
    }
}

/// The barrier/quorum gather strategy over a [`Fleet`]: every round
/// scatters to the live roster and closes under the retry policy (whole
/// roster, quorum, or deadline); a straggler's slot keeps its previous
/// `(w_t, v_t, ξ_t)` and the commit updates every live slot. The flat star
/// drives its whole cohort with it, and each regional aggregator of the
/// tree (`crate::sharded`) drives its shard with it.
pub(crate) struct Barrier<'a> {
    pub(crate) fleet: Fleet<'a>,
    pub(crate) slots: Slots,
    /// Retry, quorum and eviction policy of every gather.
    ft: FaultTolerance,
    dim: usize,
    /// The flat star publishes cohort changes itself; a regional forwards
    /// the root's instead.
    owns_roster: bool,
    /// Time spent folding partial sums and applying commits.
    pub(crate) compute: Duration,
}

impl<'a> Barrier<'a> {
    pub(crate) fn new(fleet: Fleet<'a>, ft: FaultTolerance, dim: usize, owns_roster: bool) -> Self {
        let n = fleet.links.len();
        Barrier { fleet, slots: Slots::new(n, dim), ft, dim, owns_roster, compute: Duration::ZERO }
    }

    /// One round of `phase` against `w0`: scatter to the live roster (the
    /// same closure serves the retry re-broadcasts), gather, and sum the
    /// live slots.
    pub(crate) fn collect(
        &mut self,
        phase: u8,
        round: u32,
        w0: &Vector,
    ) -> Result<Partial, CoreError> {
        if ![PHASE_INIT, PHASE_ADMM, PHASE_REFINE].contains(&phase) {
            return Err(CoreError::Protocol {
                detail: format!("unknown shard phase {phase} in round {round}"),
            });
        }
        let dim = self.dim;
        let us = &self.slots.us;
        // Every u_t is still zero in the initialization round.
        let message = |t: usize| match phase {
            PHASE_REFINE => Message::Refine { round, w0: w0.clone() },
            _ => Message::Broadcast {
                round,
                w0: w0.clone(),
                u_t: us.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
            },
        };
        self.fleet.send_alive(&message);
        let replies = self.fleet.gather(&self.ft, round, true, dim, &message)?;
        if self.owns_roster {
            self.fleet.publish_roster();
        }
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        let n = self.fleet.alive_count();
        let partial = match phase {
            PHASE_INIT => providers(&replies, n, dim),
            PHASE_ADMM => {
                self.slots.store(replies);
                Partial { n, m: 0, sum: self.slots.admm_sum(&self.fleet.alive) }
            }
            _ => {
                self.slots.store(replies);
                Partial { n, m: 0, sum: self.slots.refine_sum(&self.fleet.alive) }
            }
        };
        self.compute += t0.elapsed();
        Ok(partial)
    }
}

impl Gather for Barrier<'_> {
    fn gather(
        &mut self,
        state: &mut ConsensusState,
        phase: u8,
        round: u32,
    ) -> Result<Option<Partial>, CoreError> {
        self.collect(phase, round, &state.w0).map(Some)
    }

    fn commit(&mut self, _round: u32, w0: &Vector) -> Result<ExactSum, CoreError> {
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        let primal = self.slots.u_update(w0, &self.fleet.alive);
        self.compute += t0.elapsed();
        Ok(primal)
    }

    fn objective(&mut self) -> (usize, ExactSum, ExactSum) {
        let (obj_v, obj_xi) = self.slots.objective_terms(&self.fleet.alive);
        (self.fleet.alive_count(), obj_v, obj_xi)
    }

    fn refine_terms(
        &mut self,
        _round: u32,
        w0: &Vector,
    ) -> Result<(ExactSum, ExactSum), CoreError> {
        Ok(self.slots.refine_terms(w0, &self.fleet.alive))
    }

    fn enter_cccp(&mut self, cccp_round: u32, advance: bool) -> Result<(), CoreError> {
        if advance {
            self.fleet.send_alive(&|_t| Message::CccpAdvance { cccp_round });
            if self.owns_roster {
                self.fleet.publish_roster();
            }
        }
        Ok(())
    }

    fn round_event(&self, round: u32, primal: f64, dual: f64) {
        if plos_obs::enabled() {
            let part = self.fleet.tally.participation.last().copied();
            plos_obs::emit(
                "admm_round",
                &[
                    ("round", round.into()),
                    ("primal_residual", primal.into()),
                    ("dual_residual", dual.into()),
                    ("replied", part.map_or(0, |p| p.replied).into()),
                    ("alive", part.map_or(0, |p| p.alive).into()),
                    ("retries", part.map_or(0, |p| p.retries).into()),
                ],
            );
        }
    }

    fn export(&self) -> Option<FleetSection> {
        Some(self.fleet.snapshot(&self.slots))
    }

    fn restore(&mut self, round: u32, section: &FleetSection) -> Result<(), CoreError> {
        self.slots = Slots::restored(section, self.dim);
        let restore = self.fleet.restore(section, round, self.dim);
        // The acks carry no vectors; the round goes unrecorded.
        self.fleet.gather(&self.ft, round, false, 0, &restore)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), CoreError> {
        self.fleet.shutdown();
        Ok(())
    }
}

/// The report of a flat or sharded run: the driver's outcome, the merged
/// fleet tally and every device's outcome.
pub(crate) fn report(
    consensus: Consensus,
    tally: Tally,
    server_compute: Duration,
    outcomes: &[DeviceOutcome],
    panicked: Vec<usize>,
    started: Instant,
) -> DistributedReport {
    let degraded = !tally.evicted.is_empty()
        || tally.participation.iter().any(|p| p.replied < p.alive)
        || !panicked.is_empty();
    DistributedReport {
        per_user_traffic: outcomes.iter().map(|o| o.stats).collect(),
        admm_iterations: consensus.admm_iterations,
        cccp_rounds: consensus.cccp_rounds,
        history: consensus.history,
        converged: consensus.converged,
        per_user_compute: outcomes.iter().map(|o| o.compute).collect(),
        server_compute: consensus.compute + server_compute,
        wall_clock: started.elapsed(),
        degraded,
        evicted: tally.evicted,
        participation: tally.participation,
        protocol_errors: tally.protocol_errors.saturating_add(panicked.len() as u64),
        late_discards: tally.late_discards,
        residuals: consensus.residuals,
        panicked,
    }
}

impl DistributedPlos {
    /// Creates a trainer with the default (fully synchronous, quorum `1.0`)
    /// fault tolerance, rejecting invalid configurations with a typed error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the configuration is invalid.
    pub fn try_new(config: PlosConfig) -> Result<Self, CoreError> {
        config.try_validate()?;
        Ok(DistributedPlos {
            config,
            fault_tolerance: FaultTolerance::default(),
            ckpt: None,
            runtime: DeviceRuntime::default(),
            topology: Topology::Flat,
        })
    }

    /// Enables server-side checkpointing under `policy`: the server snapshots
    /// its consensus state after every CCCP round and every refinement round,
    /// and a later run with the same policy resumes from the snapshot with
    /// bit-parity (fault-free runs). Only server-held quantities are written —
    /// device-local training data never reaches the checkpoint.
    ///
    /// Checkpointing is a flat-star feature: combined with
    /// [`Topology::Sharded`] the fit fails with [`CoreError::InvalidConfig`]
    /// (the tree survives root failures through its replicated root
    /// instead). Without an explicit policy the `PLOS_CKPT_DIR` environment
    /// variable is consulted (see [`crate::checkpoint::CKPT_DIR_ENV`]); it
    /// applies to the flat and asynchronous servers only.
    #[must_use]
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Selects how many virtual devices each pool worker multiplexes
    /// ([`DeviceRuntime::Multiplexed`]). The default, K = 1, spreads the
    /// fleet over `min(T, pool)` workers; a larger K packs the fleet onto
    /// fewer workers. Training output is bit-identical at every K and pool
    /// size — the mux-parity gate proves it.
    #[must_use]
    pub fn with_runtime(mut self, runtime: DeviceRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Selects the aggregation topology: the flat star (default), or the
    /// two-level sharded tree with a replicated root
    /// ([`Topology::Sharded`], see [`crate::sharded`]). Fault-free training
    /// output is bit-identical at any shard count — the shard-parity gate
    /// proves it against the flat path.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the fault-tolerance policy (quorum fraction, retry schedule,
    /// eviction threshold), rejecting invalid policies with a typed error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the policy is invalid.
    pub fn try_with_fault_tolerance(
        mut self,
        fault_tolerance: FaultTolerance,
    ) -> Result<Self, CoreError> {
        fault_tolerance.try_validate()?;
        self.fault_tolerance = fault_tolerance;
        Ok(self)
    }

    /// Trains over the simulated device network and returns the model plus
    /// the measurement report. Equivalent to [`DistributedPlos::fit_with_faults`]
    /// with the zero [`FaultPlan`] — the fault layer is a transparent
    /// pass-through, so results are bit-identical to the plain synchronous
    /// protocol.
    ///
    /// # Errors
    ///
    /// See [`DistributedPlos::fit_with_faults`].
    pub fn fit(
        &self,
        dataset: &MultiUserDataset,
    ) -> Result<(PersonalizedModel, DistributedReport), CoreError> {
        self.fit_with_faults(dataset, &FaultPlan::none())
    }

    /// Trains under injected network faults: `plan` seeds per-link drop,
    /// delay, corruption, straggler and permanent-death processes, while the
    /// trainer's [`FaultTolerance`] policy keeps the protocol alive around
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyDataset`] when the dataset has no users,
    /// [`CoreError::Protocol`] for an invalid fault plan,
    /// [`CoreError::Transport`] when the whole fleet disconnected, and
    /// [`CoreError::QuorumLost`] when a gather round ended with zero usable
    /// replies. Local solve failures on a device degrade that device to the
    /// consensus update instead of aborting the protocol.
    pub fn fit_with_faults(
        &self,
        dataset: &MultiUserDataset,
        plan: &FaultPlan,
    ) -> Result<(PersonalizedModel, DistributedReport), CoreError> {
        if let Topology::Sharded(spec) = &self.topology {
            return crate::sharded::fit_sharded(self, dataset, plan, spec);
        }
        let _span = plos_obs::Span::enter("distributed_fit");
        // plos-lint: allow(D2): wall_clock field of the report only
        let started = Instant::now();
        let cohort = consensus::prepare(&self.config, dataset, plan)?;
        let (t_count, dim) = (cohort.t_count, cohort.dim);

        // Checkpointing: explicit policy first, PLOS_CKPT_DIR fallback. The
        // snapshot is server-side state only; a structural fingerprint ties
        // it to this cohort shape and configuration.
        let policy = self.ckpt.clone().or_else(CheckpointPolicy::from_env);
        let fingerprint = checkpoint::run_fingerprint(KIND_CONSENSUS, t_count, dim, &self.config);
        let (session, resume) = consensus::open(policy, "distributed", fingerprint, t_count, dim)?;

        let (server_out, outcomes, panicked) = cohort.run(self.runtime, plan, None, |ends| {
            let fleet = Fleet::new(plan.wrap_links(ends));
            let ft = self.fault_tolerance.clone();
            let mut star = Barrier::new(fleet, ft, dim, true);
            let driver = Driver::new(&self.config, session, fingerprint, dim);
            let consensus = driver.run(&mut star, resume)?;
            let model = consensus.model(&star.slots.w_ts, &star.fleet.alive, self.config.bias);
            Ok::<_, CoreError>((model, consensus, star.fleet.tally, star.compute))
        })?;
        let (model, consensus, tally, compute) = server_out?;
        let report = report(consensus, tally, compute, &outcomes, panicked, started);
        if plos_obs::enabled() {
            // One summary event unifying the client-side traffic counters
            // with the fault-tolerance counters of this run.
            let total = report
                .per_user_traffic
                .iter()
                .fold(TrafficStats::default(), |acc, s| acc.merged(s));
            plos_obs::emit(
                "traffic_summary",
                &[
                    ("bytes_sent", total.bytes_sent.into()),
                    ("bytes_received", total.bytes_received.into()),
                    ("bytes_discarded", total.bytes_discarded.into()),
                    ("messages_sent", total.messages_sent.into()),
                    ("messages_received", total.messages_received.into()),
                    ("decode_failures", total.decode_failures.into()),
                    ("protocol_errors", report.protocol_errors.into()),
                    ("late_discards", report.late_discards.into()),
                    ("evicted", report.evicted.len().into()),
                    ("participation_rate", report.participation_rate().into()),
                ],
            );
        }
        Ok((model, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn dataset(users: usize, providers: usize) -> MultiUserDataset {
        let spec = SyntheticSpec {
            num_users: users,
            points_per_class: 25,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        generate_synthetic(&spec, 13).mask_labels(&LabelMask::providers(providers, 0.2), 4)
    }

    fn accuracy(model: &PersonalizedModel, dataset: &MultiUserDataset) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (t, u) in dataset.users().iter().enumerate() {
            for (x, &y) in u.features.iter().zip(&u.truth) {
                if model.predict(t, x) == y {
                    correct += 1;
                }
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn distributed_training_learns() {
        let data = dataset(4, 2);
        let (model, report) =
            DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        let acc = accuracy(&model, &data);
        assert!(acc > 0.8, "accuracy {acc}");
        assert!(report.admm_iterations > 0);
        assert_eq!(report.per_user_traffic.len(), 4);
        assert_eq!(report.per_user_compute.len(), 4);
    }

    #[test]
    fn fault_free_run_is_not_degraded() {
        let data = dataset(3, 2);
        let (_, report) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert!(!report.degraded);
        assert!(report.evicted.is_empty());
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.late_discards, 0);
        assert!(!report.participation.is_empty());
        assert!(report.participation.iter().all(|p| p.replied == 3 && p.alive == 3));
        assert!(report.participation.iter().all(|p| p.retries == 0));
        assert_eq!(report.participation_rate(), 1.0);
    }

    #[test]
    fn traffic_is_model_parameters_only() {
        let data = dataset(3, 2);
        let (_, report) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        // Upper bound: every client message carries at most 2 vectors + a
        // few scalars per round, so bytes/user stays far below the raw data
        // size (25*2 samples × 2 dims × 8 bytes would already be 800 B per
        // single exchange if data were shipped; instead the total per round
        // pair is ~2×(2×(4+2·8)+...)).
        for stats in &report.per_user_traffic {
            let rounds = report.admm_iterations as u64 + 2; // + init + cccp msgs
            let per_round = stats.total_bytes() / rounds.max(1);
            // One broadcast + one update, each ≈ 2 vectors of dim 3 (+bias).
            assert!(per_round < 300, "per-round bytes {per_round}");
            assert!(stats.messages_sent > 0 && stats.messages_received > 0);
        }
    }

    #[test]
    fn matches_centralized_accuracy_closely() {
        // The paper's Fig. 11: |acc(dist) − acc(cent)| ≈ 0.
        let data = dataset(5, 3);
        let config = PlosConfig::fast();
        let central = crate::CentralizedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        let (dist, _) = DistributedPlos::try_new(config).unwrap().fit(&data).unwrap();
        let gap = (accuracy(&central, &data) - accuracy(&dist, &data)).abs();
        assert!(gap < 0.08, "accuracy gap {gap}");
    }

    #[test]
    fn consensus_is_reached() {
        let data = dataset(4, 2);
        let (model, report) =
            DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert!(report.cccp_rounds >= 1);
        // w_t = w0 + v_t by construction; personalization stays bounded.
        for t in 0..4 {
            assert!(model.personalized_hyperplane(t).is_finite());
        }
    }

    #[test]
    fn works_with_zero_providers() {
        let spec =
            SyntheticSpec { num_users: 3, points_per_class: 20, max_rotation: 0.1, flip_prob: 0.0 };
        let data = generate_synthetic(&spec, 5);
        let (model, _) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        let acc = accuracy(&model, &data);
        // Clustering orientation is arbitrary without labels.
        let acc = acc.max(1.0 - acc);
        assert!(acc > 0.75, "clustering accuracy {acc}");
    }

    #[test]
    fn single_user_works() {
        let data = dataset(1, 1);
        let (model, report) =
            DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert_eq!(model.num_users(), 1);
        assert_eq!(report.per_user_traffic.len(), 1);
        assert!(accuracy(&model, &data) > 0.8);
    }

    #[test]
    fn report_helpers() {
        let data = dataset(3, 2);
        let (_, report) = DistributedPlos::try_new(PlosConfig::fast()).unwrap().fit(&data).unwrap();
        assert!(report.max_client_compute() >= Duration::ZERO);
        assert!(report.mean_user_kb() > 0.0);
        assert!(report.wall_clock > Duration::ZERO);
    }

    #[test]
    fn invalid_fault_plan_is_rejected_gracefully() {
        let data = dataset(2, 1);
        let plan = FaultPlan::none().with_drop(1.5);
        let err = DistributedPlos::try_new(PlosConfig::fast())
            .unwrap()
            .fit_with_faults(&data, &plan)
            .unwrap_err();
        assert!(matches!(err, CoreError::Protocol { .. }), "got {err:?}");
    }

    fn model_bits(model: &PersonalizedModel) -> Vec<u64> {
        let mut bits: Vec<u64> = model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
        for v in model.personal_biases() {
            bits.extend(v.iter().map(|c| c.to_bits()));
        }
        bits
    }

    #[test]
    fn killed_and_resumed_distributed_run_matches_uninterrupted_bit_for_bit() {
        use crate::checkpoint::tests::kill_at_every_seam;
        let data = dataset(3, 2);
        let config = PlosConfig::fast();
        let (reference, ref_report) =
            DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();

        // One snapshot per CCCP round and one per refinement round: a chain
        // killed at every one of them must die exactly that often and still
        // reproduce the reference model and report exactly.
        let ((resumed, report), kills) = kill_at_every_seam("distributed-resume", |policy| {
            DistributedPlos::try_new(config.clone())?.with_checkpointing(policy).fit(&data)
        });
        assert_eq!(kills, ref_report.cccp_rounds + config.refine_rounds);
        assert_eq!(model_bits(&resumed), model_bits(&reference));
        assert_eq!(report.history.values(), ref_report.history.values());
        assert_eq!(report.admm_iterations, ref_report.admm_iterations);
        assert_eq!(report.cccp_rounds, ref_report.cccp_rounds);
        assert_eq!(report.converged, ref_report.converged);
        assert_eq!(report.residuals, ref_report.residuals);
        assert_eq!(report.participation, ref_report.participation);
        assert!(!report.degraded);
    }

    #[test]
    fn mismatched_distributed_checkpoint_is_rejected_not_ignored() {
        use crate::checkpoint::CheckpointPolicy;
        let data = dataset(3, 2);
        let dir =
            std::env::temp_dir().join(format!("plos-distributed-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PlosConfig::fast();
        let killed = DistributedPlos::try_new(config.clone())
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
            .fit(&data);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })));

        // A different rho changes the ADMM trajectory: the stale snapshot
        // must be refused with a typed error, not silently resumed.
        let other = PlosConfig { rho: config.rho * 2.0, ..config };
        let resumed = DistributedPlos::try_new(other)
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
    fn dead_device_degrades_but_completes() {
        let data = dataset(4, 3);
        let plan = FaultPlan::seeded(11).with_dead_link(3, 0);
        let trainer = DistributedPlos::try_new(PlosConfig::fast())
            .unwrap()
            .try_with_fault_tolerance(FaultTolerance::fast().with_quorum(0.7))
            .unwrap();
        let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
        assert!(report.degraded);
        assert_eq!(report.evicted, vec![3]);
        assert_eq!(model.num_users(), 4, "evicted devices still get a model");
        assert!(model.personalized_hyperplane(3).is_finite());
    }

    #[test]
    fn panicking_device_is_evicted_training_completes() {
        // The regression this pins: a client-side panic used to be
        // re-raised on the main thread, aborting the whole run. Now the
        // runtime contains it per-device and the server treats the dead link
        // like any other silent device.
        let data = dataset(4, 3);
        let plan = FaultPlan::seeded(11).with_device_panic(3, 2);
        for runtime in
            [DeviceRuntime::default(), DeviceRuntime::Multiplexed { devices_per_worker: 2 }]
        {
            let trainer = DistributedPlos::try_new(PlosConfig::fast())
                .unwrap()
                .try_with_fault_tolerance(FaultTolerance::fast().with_quorum(0.7))
                .unwrap()
                .with_runtime(runtime);
            let (model, report) = trainer.fit_with_faults(&data, &plan).unwrap();
            assert!(report.degraded, "{runtime:?}: a crashed device must degrade the run");
            assert_eq!(report.panicked, vec![3], "{runtime:?}");
            assert!(report.evicted.contains(&3), "{runtime:?}: evicted {:?}", report.evicted);
            assert!(report.protocol_errors >= 1, "{runtime:?}");
            assert_eq!(model.num_users(), 4, "{runtime:?}: crashed devices still get a model");
            assert!(model.personalized_hyperplane(3).is_finite());
        }
    }

    #[test]
    fn devices_per_worker_sweep_matches_default_bit_for_bit() {
        let data = dataset(4, 2);
        let config = PlosConfig::fast();
        let bits = |model: &PersonalizedModel| -> Vec<u64> {
            let mut bits: Vec<u64> =
                model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
            for v in model.personal_biases() {
                bits.extend(v.iter().map(|c| c.to_bits()));
            }
            bits
        };
        let (reference, ref_report) =
            DistributedPlos::try_new(config.clone()).unwrap().fit(&data).unwrap();
        for k in [2usize, 3, 16] {
            let (model, report) = DistributedPlos::try_new(config.clone())
                .unwrap()
                .with_runtime(DeviceRuntime::Multiplexed { devices_per_worker: k })
                .fit(&data)
                .unwrap();
            assert_eq!(bits(&model), bits(&reference), "K={k} diverged");
            assert_eq!(report.history.values(), ref_report.history.values(), "K={k}");
            assert_eq!(report.admm_iterations, ref_report.admm_iterations, "K={k}");
        }
    }

    /// A reply whose vectors are not `dim` long cannot be folded: it counts
    /// as a protocol error and its device is carried forward as if silent,
    /// instead of reaching `ExactVecSum::add`'s dimension assert.
    #[test]
    fn a_reply_of_the_wrong_length_is_a_protocol_error_not_a_panic() {
        let dim = 3;
        let net = plos_net::try_star(2).unwrap();
        let reply = |user: u32, len: usize| Message::ClientUpdate {
            round: 1,
            user,
            w_t: Vector::from(vec![1.0; len]),
            v_t: Vector::from(vec![0.5; len]),
            xi_t: 0.25,
        };
        net.clients[0].send(&reply(0, dim)).unwrap();
        net.clients[1].send(&reply(1, dim - 1)).unwrap();
        let plan = FaultPlan::none();
        let fleet = Fleet::new(plan.wrap_links(&net.server));
        let mut star = Barrier::new(fleet, FaultTolerance::fast(), dim, true);
        let partial = star.collect(PHASE_ADMM, 1, &Vector::zeros(dim)).unwrap();
        assert_eq!(partial.n, 2);
        assert_eq!(star.fleet.tally.protocol_errors, 1);
        let round = &star.fleet.tally.participation[0];
        assert_eq!((round.replied, round.alive), (1, 2));
        assert_eq!(star.slots.w_ts[0], Vector::from(vec![1.0; dim]));
        assert_eq!(star.slots.w_ts[1], Vector::zeros(dim), "device 1 is carried forward");
    }
}
