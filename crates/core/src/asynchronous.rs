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
//! * every server pass opens a consensus **epoch** (a protocol round);
//!   devices with no assignment in flight receive the flat star's
//!   `Broadcast { round: epoch, w0, u_t }`, and each device knows `S` from
//!   the spec it was built with;
//! * a device that is free solves and replies `ClientUpdate` for the
//!   epoch; a busy one resends its cached solution as
//!   `AsyncUpdate { epoch, basis, … }`, where `basis < epoch` is the epoch
//!   whose `(w0, u_t)` that solution was computed against;
//! * the server accepts a reply when `epoch − basis ≤ S` (a fresh reply's
//!   basis is the epoch it answers) and folds it into the per-device
//!   slots; over-stale updates are **discarded and counted**
//!   (`stale_discard` events), and the device is re-assigned once its
//!   outstanding epoch falls more than `S` behind;
//! * a pass closes when every live device is accounted for, or — with
//!   `S > 0` — after a quiescence window with no arrivals, in which case
//!   the Eq. (23) update runs over whatever subset arrived (an empty pass
//!   applies nothing and is not counted as an ADMM iteration).
//!
//! The server is the crate's one consensus driver — the same schedule,
//! Eq. (23)/(24) arithmetic and stopping tests as
//! [`crate::DistributedPlos`] — over this module's bounded-staleness gather
//! strategy, and its devices are the flat star's device machine.
//! **S = 0 degenerates to the synchronous path bit-for-bit**: no device is
//! ever busy, every reply is a fresh `ClientUpdate`, and the pass becomes a
//! barrier, so the server exchanges exactly the flat star's frames —
//! enforced by `tests/fault_tolerance.rs`.
//!
//! Checkpointing snapshots the [`plos_ckpt::ConsensusState`] at CCCP and
//! refinement boundaries; at a boundary the server-held `w_t` slots equal
//! each device's own anchor, so a `Restore` handshake re-seats a resumed
//! fleet and the run continues with bit-parity (fault-free runs).

use crate::checkpoint::{self, CheckpointPolicy};
use crate::config::PlosConfig;
use crate::consensus::{self, providers, Driver, Gather, Partial, Reply, Slots};
use crate::distributed::Fleet;
use crate::error::CoreError;
use crate::model::PersonalizedModel;
use plos_ckpt::{ConsensusState, FleetSection, KIND_CONSENSUS};
use plos_linalg::{ExactSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{DeviceRuntime, FaultPlan, Message, TrafficStats};
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

impl AsyncSpec {
    /// Whether device `t` is busy when the assignment of `epoch` arrives, so
    /// that it answers from its cache: never at `S = 0`, otherwise a
    /// stateless splitmix64 hash of (seed, device, epoch) mapped to `[0, 1)`
    /// and compared with `availability`. Deterministic in the spec alone, so
    /// the straggler process is independent of message timing and arrival
    /// order.
    pub(crate) fn busy(&self, t: usize, epoch: u32) -> bool {
        if self.staleness_bound == 0 || self.availability >= 1.0 {
            return false;
        }
        let mut z = self.seed
            ^ (t as u64).wrapping_mul(0xd129_0d3a_37cf_1e2b)
            ^ u64::from(epoch).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        unit >= self.availability
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

/// One collection over the outstanding assignments: [`Fleet::sweep`]s
/// against `owed` (each device's assignment epoch in flight) at staleness
/// bound `bound`, for replies carrying vectors of length `len`, until every
/// live device is accounted for. With a quiescence window `quiet` the
/// collection also closes once no reply has arrived for that long. Without
/// one it is a barrier: it re-sends the assignment to silent devices every
/// [`RESEND_AFTER`], so dropped frames cannot stall it (devices answer
/// re-sent assignments from their reply cache), and a [`SERVER_WAIT`]
/// expiry is a transport error.
///
/// Returns the accepted updates.
fn collect_replies(
    fleet: &mut Fleet<'_>,
    owed: &mut [Option<u32>],
    epoch: u32,
    bound: u32,
    len: usize,
    quiet: Option<Duration>,
    resend: &dyn Fn(usize) -> Message,
) -> Result<Vec<Reply>, CoreError> {
    // D2 audit: these clocks gate only the pass/quiescence windows and the
    // barrier re-send cadence — whether a reply folds is decided purely by
    // its epoch/basis tags, never by the wall-clock instant it arrived at.
    // Asserted clock-independent by tests/clock_independence.rs.
    // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
    let started = Instant::now();
    let hard_deadline = started + SERVER_WAIT;
    let mut quiet_deadline = quiet.map(|window| started + window);
    let mut resend_at = started + RESEND_AFTER;
    let mut accepted = Vec::new();
    loop {
        if fleet.alive_count() == 0 {
            return Err(CoreError::Transport {
                detail: format!("every device disconnected before epoch {epoch} closed"),
            });
        }
        let waiting = fleet.owing(owed);
        if waiting.is_empty() {
            break;
        }
        // plos-lint: allow(D2): pass-window/deadline timeout plumbing only
        let now = Instant::now();
        if now >= hard_deadline {
            if quiet.is_none() {
                return Err(CoreError::Transport {
                    detail: format!(
                        "{} device(s) silent for {SERVER_WAIT:?} in epoch {epoch}",
                        waiting.len()
                    ),
                });
            }
            break;
        }
        if quiet_deadline.is_some_and(|deadline| now >= deadline) {
            break;
        }
        if quiet.is_none() && now >= resend_at {
            fleet.send_each(&waiting, resend);
            // plos-lint: allow(D2): barrier re-send cadence only
            resend_at = Instant::now() + RESEND_AFTER;
        }
        // Any arrival re-arms the quiescence window.
        if let (Some(at), Some(window)) =
            (fleet.sweep(owed, epoch, bound, len, &mut accepted), quiet)
        {
            quiet_deadline = Some(at + window);
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
            _ => Message::Broadcast {
                round: epoch,
                w0: w0.clone(),
                u_t: us.get(t).cloned().unwrap_or_else(|| Vector::zeros(dim)),
            },
        };
        // S = 0 passes, initialization and refinement (always fresh — it
        // anchors the final model, and keeping it synchronous is what pins
        // the S > 0 accuracy band to the synchronous protocol's) are
        // barriers; an S > 0 pass closes on quiescence.
        let quiet = (phase == PHASE_ADMM && bound > 0).then_some(self.poll_window);
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
        let (fleet, owed) = (&mut self.fleet, &mut self.outstanding);
        let replies = collect_replies(fleet, owed, epoch, bound, dim, quiet, &message)?;
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
        }
    }

    fn export(&self) -> Option<FleetSection> {
        Some(FleetSection { reassignments: self.reassignments, ..self.fleet.snapshot(&self.slots) })
    }

    fn restore(&mut self, epoch: u32, section: &FleetSection) -> Result<(), CoreError> {
        self.slots = Slots::restored(section, self.dim);
        self.reassignments = section.reassignments;
        let restore = self.fleet.restore(section, epoch, self.dim);
        for (slot, &alive) in self.outstanding.iter_mut().zip(&self.fleet.alive) {
            *slot = alive.then_some(epoch);
        }
        // The acks carry no vectors.
        let (fleet, owed) = (&mut self.fleet, &mut self.outstanding);
        collect_replies(fleet, owed, epoch, self.bound, 0, None, &restore)?;
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

    /// Selects how many virtual devices each pool worker multiplexes
    /// ([`DeviceRuntime::Multiplexed`]). The default, K = 1, spreads the
    /// fleet over `min(T, pool)` workers. Every K produces bit-identical
    /// models.
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

        let (server_out, outcomes, panicked) =
            cohort.run(self.runtime, plan, Some(self.spec), |ends| {
                let mut server = Staleness::new(Fleet::new(plan.wrap_links(ends)), &self.spec, dim);
                let driver = Driver::new(&self.config, session, fingerprint, dim);
                let consensus = driver.run(&mut server, resume)?;
                let model =
                    consensus.model(&server.slots.w_ts, &server.fleet.alive, self.config.bias);
                Ok::<_, CoreError>((model, consensus, server.fleet.tally, server.reassignments))
            })?;
        let (model, consensus, tally, reassignments) = server_out?;
        let report = AsyncReport {
            per_user_traffic: outcomes.iter().map(|o| o.stats).collect(),
            admm_iterations: consensus.admm_iterations,
            cccp_rounds: consensus.cccp_rounds,
            history: consensus.history,
            converged: consensus.converged,
            stale_replies: outcomes.iter().map(|o| o.stale).collect(),
            fresh_replies: outcomes.iter().map(|o| o.fresh).collect(),
            stale_discards: tally.stale_discards,
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
        use crate::checkpoint::tests::kill_at_every_seam;
        let data = cohort();
        let config = PlosConfig::fast();
        for staleness_bound in [0, 2] {
            // A generous quiescence window so pass membership is decided by
            // the seeded staleness process alone: with the default 40 ms
            // window, a local solve delayed past it by suite-level CPU
            // contention shifts a reply into the next pass and the two runs
            // being compared follow different (individually valid)
            // trajectories.
            let spec = AsyncSpec {
                availability: 0.6,
                staleness_bound,
                poll_window: Duration::from_secs(2),
                seed: 5,
            };
            let (reference, ref_report) =
                AsyncDistributedPlos::try_new(config.clone(), spec).unwrap().fit(&data).unwrap();

            // One snapshot per CCCP round and one per refinement round: a
            // chain killed at every one of them must die exactly that often
            // and still reproduce the reference model exactly.
            let ((resumed, report), kills) = kill_at_every_seam("async-resume", |policy| {
                AsyncDistributedPlos::try_new(config.clone(), spec)?
                    .with_checkpointing(policy)
                    .fit(&data)
            });
            assert_eq!(kills, ref_report.cccp_rounds + config.refine_rounds, "S={staleness_bound}");
            assert_eq!(model_bits(&resumed), model_bits(&reference), "S={staleness_bound}");
            assert_eq!(report.history.values(), ref_report.history.values());
            assert_eq!(report.cccp_rounds, ref_report.cccp_rounds);
            assert_eq!(report.converged, ref_report.converged);
        }
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
    fn devices_per_worker_sweep_matches_default_bit_for_bit() {
        let data = cohort();
        let config = PlosConfig::fast();
        // Both protocol regimes: the S=0 barrier and a bounded-staleness
        // spec with stragglers in play. The S > 0 case follows the
        // clock_independence.rs recipe — a quiescence window generous
        // enough that every pass closes by full roster accounting, which is
        // what makes the S > 0 trajectory timing-independent and therefore
        // comparable across K at all.
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
            [DeviceRuntime::default(), DeviceRuntime::Multiplexed { devices_per_worker: 2 }]
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
