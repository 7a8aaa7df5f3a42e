//! The consensus driver of Algorithm 2, shared by every aggregation
//! topology.
//!
//! Algorithm 2 is one schedule: an initialization round that averages the
//! providers' local hyperplanes, then CCCP × consensus ADMM (Eq. 22–24),
//! then refinement. [`Driver`] owns that schedule, the Eq. (23)/(24)
//! arithmetic and stopping tests, the [`ConsensusState`] it snapshots, and
//! model assembly. Only how a round's device contributions reach the server
//! differs between topologies, so the driver takes a [`Gather`] strategy
//! that hands it *exact* partial sums ([`ExactVecSum`]/[`ExactSum`]) and
//! applies the u-updates on commit:
//!
//! * the barrier/quorum gather over a [`crate::distributed::Fleet`] — the
//!   flat star, and each regional aggregator of the tree;
//! * the bounded-staleness gather over the same fleet
//!   ([`crate::asynchronous`]);
//! * the tree root ([`crate::sharded`]): regional partials, commit, leader
//!   election, anti-entropy and failover.
//!
//! Every server-side reduction is an exact superaccumulator fold, which is
//! associative over any grouping of its addends, so the strategies produce
//! the same bits wherever their schedules coincide: the `S = 0` bounded-
//! staleness server equals the barrier server (`tests/fault_tolerance.rs`),
//! and the tree equals the flat star at any shard count
//! (`tests/shard_parity.rs`).

use crate::asynchronous::AsyncSpec;
use crate::checkpoint::{self, CheckpointPolicy, CkptSession};
use crate::config::PlosConfig;
use crate::distributed::AdmmResiduals;
use crate::error::CoreError;
use crate::local::{LocalSolver, LocalUpdate};
use crate::model::PersonalizedModel;
use crate::problem;
use crate::wire_u32;
use parking_lot::Mutex;
use plos_ckpt::{CkptError, ConsensusPhase, ConsensusState, FleetSection};
use plos_linalg::{ExactSum, ExactVecSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{
    try_star, ClientExit, DeviceMachine, DeviceRuntime, DeviceStep, Endpoint, FaultPlan, Message,
    MuxNetwork, TrafficStats,
};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Bound on gather passes per CCCP round, as a multiple of
/// `max_admm_iters`: a bounded-staleness pass that folds nothing is not an
/// iteration, so a cap on passes guarantees termination even if the fleet
/// goes silent.
const PASS_CAP_FACTOR: usize = 8;

/// One round's exact partial sums, as a strategy hands them to the driver.
pub(crate) struct Partial {
    /// Live cohort size when the round closed.
    pub(crate) n: usize,
    /// Devices that contributed a hyperplane (initialization round only).
    pub(crate) m: usize,
    /// Σ of the phase's summand over the contributors: the providers'
    /// `w_init` (init), `w_t − v_t + u_t` (ADMM), `w_t` (refinement).
    pub(crate) sum: ExactVecSum,
}

/// How the driver gathers one round of device contributions and commits
/// the consensus iterate back to them.
pub(crate) trait Gather {
    /// Runs round `round` of `phase` (`PHASE_INIT`/`PHASE_ADMM`/
    /// `PHASE_REFINE`) against `state.w0`. `None` when the round folded no
    /// update, which only a bounded-staleness pass can do. The tree root
    /// replicates `state` before the round and may replace it on failover.
    fn gather(
        &mut self,
        state: &mut ConsensusState,
        phase: u8,
        round: u32,
    ) -> Result<Option<Partial>, CoreError>;

    /// Commits the Eq. (23) iterate `w0`: applies the u-updates and returns
    /// the squared primal residual Σ‖w_t − w0 − v_t‖² over the updated
    /// slots.
    fn commit(&mut self, round: u32, w0: &Vector) -> Result<ExactSum, CoreError>;

    /// The live cohort size, Σ‖v_t‖² and Σξ_t: the terms of the CCCP
    /// objective L (Eq. 23, third line).
    fn objective(&mut self) -> (usize, ExactSum, ExactSum);

    /// Commits a refinement iterate `w0` and returns Σ‖w_t − w0‖² and Σξ_t
    /// over the live cohort.
    fn refine_terms(&mut self, round: u32, w0: &Vector) -> Result<(ExactSum, ExactSum), CoreError>;

    /// Enters CCCP round `cccp_round`; `advance` tells the devices to
    /// re-linearize (false for round 0, and for the round a boundary
    /// snapshot resumes into, whose restore handshake already did).
    fn enter_cccp(&mut self, cccp_round: u32, advance: bool) -> Result<(), CoreError>;

    /// Emits the strategy's per-ADMM-round trace event.
    fn round_event(&self, round: u32, primal: f64, dual: f64);

    /// The per-device state a snapshot needs. Snapshots are taken at CCCP
    /// and refinement boundaries only, where each device's own anchor is its
    /// last accepted `w_t` (fault-free), so the slots alone re-seat it.
    fn export(&self) -> Option<FleetSection> {
        None
    }

    /// Re-seats the devices from a snapshot taken at round `round`.
    fn restore(&mut self, _round: u32, _section: &FleetSection) -> Result<(), CoreError> {
        Err(CoreError::InvalidConfig {
            detail: "this topology does not resume from checkpoints".to_string(),
        })
    }

    /// Ends the run: tells every node to shut down.
    fn finish(&mut self) -> Result<(), CoreError>;
}

/// A snapshot to resume from: the driver's state and the fleet's.
pub(crate) type Resume = (ConsensusState, FleetSection);

/// What a finished run of the driver hands back.
pub(crate) struct Consensus {
    pub(crate) w0: Vector,
    pub(crate) history: History,
    pub(crate) residuals: Vec<AdmmResiduals>,
    pub(crate) admm_iterations: usize,
    pub(crate) cccp_rounds: usize,
    pub(crate) converged: bool,
    /// Time the driver spent in its own arithmetic.
    pub(crate) compute: Duration,
}

impl Consensus {
    /// Personalized hyperplanes are exactly the devices' final `w_t`. A
    /// device evicted before it ever reported one falls back to the global
    /// model (zero bias).
    pub(crate) fn model(
        &self,
        w_ts: &[Vector],
        alive: &[bool],
        bias: Option<f64>,
    ) -> PersonalizedModel {
        let w0 = &self.w0;
        let biases = w_ts
            .iter()
            .enumerate()
            .map(|(t, w_t)| {
                if alive.get(t).copied().unwrap_or(false) || w_t.norm() > 0.0 {
                    w_t - w0
                } else {
                    Vector::zeros(w0.len())
                }
            })
            .collect();
        PersonalizedModel::new(w0.clone(), biases, bias)
    }
}

/// The server side of Algorithm 2 over any [`Gather`] strategy.
pub(crate) struct Driver<'a> {
    config: &'a PlosConfig,
    session: Option<CkptSession>,
    state: ConsensusState,
    compute: Duration,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(
        config: &'a PlosConfig,
        session: Option<CkptSession>,
        fingerprint: u64,
        dim: usize,
    ) -> Self {
        Driver {
            config,
            session,
            state: ConsensusState::fresh(fingerprint, dim),
            compute: Duration::ZERO,
        }
    }

    /// Runs the schedule — initialization (or re-entry from `resume`), CCCP
    /// × ADMM, refinement, shutdown — and clears the snapshot on success so
    /// the next run starts fresh.
    pub(crate) fn run(
        mut self,
        g: &mut impl Gather,
        resume: Option<Resume>,
    ) -> Result<Consensus, CoreError> {
        let c = self.config;
        let mut start_cccp = 0;
        let mut refine_start = 0;
        // A resumed run's restore handshake already re-linearized the
        // devices, so its first CCCP round sends no `CccpAdvance`.
        let mut resumed = resume.is_some();
        match resume {
            Some((st, section)) => {
                g.restore(st.round, &section)?;
                match st.phase {
                    ConsensusPhase::Refine { rounds_done } => {
                        start_cccp = c.max_cccp_rounds;
                        refine_start = rounds_done as usize;
                    }
                    ConsensusPhase::Boundary => start_cccp = st.cccp_rounds as usize,
                }
                self.state = st;
            }
            None => self.initialize(g)?,
        }

        let pass_cap = c.max_admm_iters.saturating_mul(PASS_CAP_FACTOR);
        for cccp_round in start_cccp..c.max_cccp_rounds {
            if self.state.converged {
                break;
            }
            self.state.cccp_rounds += 1;
            g.enter_cccp(wire_u32(cccp_round), cccp_round > 0 && !resumed)?;
            resumed = false;
            let (mut applied, mut passes) = (0, 0);
            while applied < c.max_admm_iters && passes < pass_cap {
                passes += 1;
                self.state.round = self.state.round.saturating_add(1);
                let round = self.state.round;
                let Some(p) = g.gather(&mut self.state, PHASE_ADMM, round)? else {
                    // Nothing arrived: applying Eq. (23) would only replay
                    // the previous iterate. Wait for the fleet instead.
                    continue;
                };
                applied += 1;
                self.state.admm_iterations += 1;

                // Eq. (23): closed-form z-update over the live cohort; every
                // T-dependent scalar uses the (possibly shrunk) cohort size.
                // plos-lint: allow(D2): server compute-time metering only
                let t0 = Instant::now();
                let cohort = p.n as f64;
                let mut w0 = p.sum.value();
                w0.scale_mut(c.rho / (2.0 + cohort * c.rho));
                // Eq. (24): residuals.
                let sqrt_2t = (2.0 * cohort).sqrt();
                let sqrt_t = cohort.sqrt();
                let dual = c.rho * sqrt_2t * w0.distance(&self.state.w0);
                self.compute += t0.elapsed();
                let primal = g.commit(round, &w0)?.value().sqrt();
                // A non-finite residual means a local step diverged; the
                // stopping test would silently never fire.
                #[cfg(feature = "strict-invariants")]
                debug_assert!(
                    dual.is_finite() && primal.is_finite(),
                    "Eq. (24) residuals not finite in round {round}: dual {dual}, primal {primal}"
                );
                self.state.w0 = w0;
                self.state.residuals.push((round, primal, dual));
                g.round_event(round, primal, dual);

                if dual <= sqrt_2t * c.eps_abs && primal <= sqrt_t * c.eps_abs {
                    break;
                }
            }

            // Objective L (Eq. 23, third line), over the live cohort.
            let (cohort, obj_v, obj_xi) = g.objective();
            let kappa = c.lambda / cohort as f64;
            let objective = self.state.w0.norm_squared() + kappa * obj_v.value() + obj_xi.value();
            self.state.history.push(objective);
            plos_obs::emit(
                "cccp_round",
                &[("round", self.state.cccp_rounds.into()), ("objective", objective.into())],
            );
            if History::from_values(self.state.history.clone()).converged(c.cccp_tol) {
                self.state.converged = true;
            }
            self.save(g, ConsensusPhase::Boundary)?;
            if self.state.converged {
                break;
            }
        }

        // Refinement: multi-start per-device re-solve plus the closed-form
        // w0 block update (same messages, still only model parameters).
        for refine_round in refine_start..c.refine_rounds {
            self.state.round = self.state.round.saturating_add(1);
            let round = self.state.round;
            let p = required(g.gather(&mut self.state, PHASE_REFINE, round)?, round)?;
            // plos-lint: allow(D2): server compute-time metering only
            let t0 = Instant::now();
            let cohort = p.n as f64;
            let mut mean = p.sum.value();
            mean.scale_mut(1.0 / cohort);
            self.state.w0 = mean.scaled(c.lambda / (1.0 + c.lambda));
            self.compute += t0.elapsed();
            // ξ_t now carry true local losses, so this is the true
            // objective in the problem-(3) scale.
            let (dist, xi) = g.refine_terms(round, &self.state.w0)?;
            let kappa = c.lambda / cohort;
            let objective = self.state.w0.norm_squared() + kappa * dist.value() + xi.value();
            self.state.history.push(objective);
            plos_obs::emit(
                "refine_round",
                &[("round", (refine_round + 1).into()), ("objective", objective.into())],
            );
            self.save(g, ConsensusPhase::Refine { rounds_done: wire_u32(refine_round + 1) })?;
        }

        g.finish()?;
        if let Some(sess) = &self.session {
            sess.clear()?;
        }
        let st = self.state;
        Ok(Consensus {
            w0: st.w0,
            history: History::from_values(st.history),
            residuals: st
                .residuals
                .iter()
                .map(|&(round, primal, dual)| AdmmResiduals { round, primal, dual })
                .collect(),
            admm_iterations: st.admm_iterations as usize,
            cccp_rounds: st.cccp_rounds as usize,
            converged: st.converged,
            compute: self.compute,
        })
    }

    /// The initialization round: average the providers' local hyperplanes.
    fn initialize(&mut self, g: &mut impl Gather) -> Result<(), CoreError> {
        let p = required(g.gather(&mut self.state, PHASE_INIT, 0)?, 0)?;
        // plos-lint: allow(D2): server compute-time metering only
        let t0 = Instant::now();
        if p.m > 0 {
            let mut w0 = p.sum.value();
            w0.scale_mut(1.0 / p.m as f64);
            self.state.w0 = w0;
        } else {
            // No provider anywhere: deterministic random init, mirroring the
            // centralized fallback.
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
            let mut w0: Vector =
                (0..self.state.w0.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let norm = w0.norm();
            if norm > 0.0 {
                w0.scale_mut(1.0 / norm);
            }
            self.state.w0 = w0;
        }
        self.compute += t0.elapsed();
        Ok(())
    }

    /// Writes a boundary snapshot in `phase`, when checkpointing is on.
    fn save(&mut self, g: &impl Gather, phase: ConsensusPhase) -> Result<(), CoreError> {
        let Some(sess) = self.session.as_mut() else { return Ok(()) };
        self.state.phase = phase;
        let snapshot = ConsensusState { fleet: g.export(), ..self.state.clone() };
        sess.save(&snapshot.encode())
    }
}

/// Init and refinement rounds always fold; an empty one means the fleet
/// is gone.
fn required(partial: Option<Partial>, round: u32) -> Result<Partial, CoreError> {
    partial.ok_or_else(|| CoreError::Transport {
        detail: format!("round {round} closed without a single update"),
    })
}

/// Opens a fleet trainer's checkpoint session under `name` and loads its
/// snapshot, if one exists. A snapshot that does not belong to this run —
/// a different cohort, configuration or trainer, or a damaged file — is a
/// typed [`CoreError::Ckpt`], never silently ignored.
pub(crate) fn open(
    policy: Option<CheckpointPolicy>,
    name: &str,
    fingerprint: u64,
    t_count: usize,
    dim: usize,
) -> Result<(Option<CkptSession>, Option<Resume>), CoreError> {
    let Some(session) = policy.map(|p| p.session(name)) else { return Ok((None, None)) };
    let Some(file) = session.load()? else { return Ok((Some(session), None)) };
    let mut state = ConsensusState::decode(&file)?;
    checkpoint::check_fingerprint(state.fingerprint, fingerprint)?;
    // The section digests guarantee byte integrity and the fingerprint ties
    // the snapshot to this run; this guards the remaining structural degrees
    // of freedom (vector lengths) before any arithmetic touches them.
    let section = state.fleet.take().filter(|f| {
        f.us.len() == t_count
            && [&f.us, &f.w_ts, &f.v_ts].into_iter().flatten().all(|v| v.len() == dim)
    });
    let Some(section) = section.filter(|_| state.w0.len() == dim) else {
        return Err(CoreError::Ckpt(CkptError::Malformed {
            detail: format!(
                "checkpoint shape does not match this run (cohort {t_count}, dim {dim})"
            ),
        }));
    };
    plos_obs::emit(
        "checkpoint_resume",
        &[
            ("trainer", name.to_string().into()),
            ("round", state.round.into()),
            ("cccp_rounds", state.cccp_rounds.into()),
            ("admm_iterations", state.admm_iterations.into()),
        ],
    );
    Ok((Some(session), Some((state, section))))
}

/// A fleet server's per-device consensus slots: each device's last
/// accepted `(w_t, v_t, ξ_t)` and its scaled dual `u_t`. A device that stays
/// silent keeps its previous values (carry-forward).
#[derive(Debug, Clone)]
pub(crate) struct Slots {
    dim: usize,
    pub(crate) us: Vec<Vector>,
    pub(crate) w_ts: Vec<Vector>,
    pub(crate) v_ts: Vec<Vector>,
    pub(crate) xi_ts: Vec<f64>,
}

/// One accepted device reply: `(device, w_t, v_t, ξ_t)`.
pub(crate) type Reply = (usize, Vector, Vector, f64);

impl Slots {
    pub(crate) fn new(n: usize, dim: usize) -> Self {
        let zeros = vec![Vector::zeros(dim); n];
        Slots { dim, us: zeros.clone(), w_ts: zeros.clone(), v_ts: zeros, xi_ts: vec![0.0; n] }
    }

    /// The slots a snapshot recorded.
    pub(crate) fn restored(section: &FleetSection, dim: usize) -> Self {
        Slots {
            dim,
            us: section.us.clone(),
            w_ts: section.w_ts.clone(),
            v_ts: section.v_ts.clone(),
            xi_ts: section.xi_ts.clone(),
        }
    }

    /// Stores accepted replies in their devices' slots.
    pub(crate) fn store(&mut self, replies: Vec<Reply>) {
        for (t, w_t, v_t, xi_t) in replies {
            if let (Some(w), Some(v), Some(xi)) =
                (self.w_ts.get_mut(t), self.v_ts.get_mut(t), self.xi_ts.get_mut(t))
            {
                *w = w_t;
                *v = v_t;
                *xi = xi_t;
            }
        }
    }

    /// Σ over the `live` slots of `w_t − v_t + u_t`: the Eq. (23) numerator.
    pub(crate) fn admm_sum(&self, live: &[bool]) -> ExactVecSum {
        let mut sum = ExactVecSum::zeros(self.dim);
        let slots = self.w_ts.iter().zip(&self.v_ts).zip(&self.us).zip(live);
        for (((w_t, v_t), u_t), _) in slots.filter(|(_, live)| **live) {
            sum.add(w_t);
            sum.sub(v_t);
            sum.add(u_t);
        }
        sum
    }

    /// Σ over the `live` slots of `w_t`: the refinement mean's numerator.
    pub(crate) fn refine_sum(&self, live: &[bool]) -> ExactVecSum {
        let mut sum = ExactVecSum::zeros(self.dim);
        for (w_t, _) in self.w_ts.iter().zip(live).filter(|(_, live)| **live) {
            sum.add(w_t);
        }
        sum
    }

    /// The Eq. (23) u-updates of the `updated` slots against the committed
    /// `w0`; returns the squared primal residual (Eq. 24) over them.
    pub(crate) fn u_update(&mut self, w0: &Vector, updated: &[bool]) -> ExactSum {
        let mut primal = ExactSum::new();
        let slots = self.w_ts.iter().zip(&self.v_ts).zip(self.us.iter_mut()).zip(updated);
        for (((w_t, v_t), u_t), _) in slots.filter(|(_, updated)| **updated) {
            let mut delta = w_t.clone();
            delta -= w0;
            delta -= v_t;
            primal.add(delta.norm_squared());
            *u_t += &delta;
        }
        primal
    }

    /// Σ‖v_t‖² and Σξ_t over the `live` slots.
    pub(crate) fn objective_terms(&self, live: &[bool]) -> (ExactSum, ExactSum) {
        let mut obj_v = ExactSum::new();
        let mut obj_xi = ExactSum::new();
        for ((v_t, xi_t), _) in self.v_ts.iter().zip(&self.xi_ts).zip(live).filter(|(_, l)| **l) {
            obj_v.add(v_t.norm_squared());
            obj_xi.add(*xi_t);
        }
        (obj_v, obj_xi)
    }

    /// Σ‖w_t − w0‖² and Σξ_t over the `live` slots.
    pub(crate) fn refine_terms(&self, w0: &Vector, live: &[bool]) -> (ExactSum, ExactSum) {
        let mut dist = ExactSum::new();
        let mut obj_xi = ExactSum::new();
        for ((w_t, xi_t), _) in self.w_ts.iter().zip(&self.xi_ts).zip(live).filter(|(_, l)| **l) {
            dist.add(w_t.distance_squared(w0));
            obj_xi.add(*xi_t);
        }
        (dist, obj_xi)
    }
}

/// The initialization round's partial: the providers' hyperplanes (devices
/// with labels of both classes reply non-zero) out of `n` live devices.
pub(crate) fn providers(replies: &[Reply], n: usize, dim: usize) -> Partial {
    let mut sum = ExactVecSum::zeros(dim);
    let mut m = 0;
    for (_, w_init, _, _) in replies.iter().filter(|r| r.1.norm() > 0.0) {
        sum.add(w_init);
        m += 1;
    }
    Partial { n, m, sum }
}

/// What each device hands back when it shuts down.
#[derive(Debug, Default)]
pub(crate) struct DeviceOutcome {
    pub(crate) stats: TrafficStats,
    /// Cumulative local-solve time.
    pub(crate) compute: Duration,
    /// Rounds answered from the cache while busy.
    pub(crate) stale: usize,
    /// Fresh local solves (ADMM and refinement).
    pub(crate) fresh: usize,
}

/// A device's last answer: the round it answered, the round whose
/// `(w0, u_t)` the solution was computed against, and the solution.
struct Answer {
    round: u32,
    basis: u32,
    update: LocalUpdate,
}

/// The device side of Algorithm 2, one machine for every fleet server: it
/// answers the server's `(w0, u_t)` with a local solve of Eq. (22) until
/// shutdown, and the [`MuxNetwork`] sweep drives it alongside its siblings
/// on a pool worker. Timeouts and corrupted frames never reach it; the
/// server re-sends anything that mattered.
///
/// * The init round, every fresh solve, refinement and the `Restore` ack
///   travel as `ClientUpdate`.
/// * Under a bounded-staleness spec with `S > 0`, the spec's straggler
///   process makes the device busy at some rounds. A busy device answers
///   from its cache instead of solving: its last solution, as
///   `AsyncUpdate { basis }`, where `basis` is the round it was computed
///   against. Without a spec (the flat star and the tree's regionals) or at
///   `S = 0` it never does.
/// * A re-sent round gets the cached reply again, byte for byte, so a retry
///   or a duplicated frame never advances the working set twice.
/// * A `Broadcast` or `Refine` whose vectors are not the model dimension is
///   dropped: it runs no solve and caches nothing, so the server's re-send
///   of the round gets a fresh solve, and a device that only ever sees
///   such frames is struck out like a silent one. A `Restore` of the wrong
///   dimension is dropped the same way: no ack, and the solver keeps its
///   anchor.
struct Device {
    t: usize,
    user: u32,
    /// Model dimension every `w0` and `u_t` must have.
    dim: usize,
    solver: LocalSolver,
    spec: Option<AsyncSpec>,
    /// The last answer; cleared when the linearization changes.
    answer: Option<Answer>,
    compute: Duration,
    stale: usize,
    fresh: usize,
    /// Chaos injection: panic on the first broadcast at or after this round
    /// ([`FaultPlan::panic_round`]), modelling an app crash mid-ADMM.
    panic_at: Option<u32>,
}

impl Device {
    fn new(
        t: usize,
        dim: usize,
        solver: LocalSolver,
        plan: &FaultPlan,
        spec: Option<AsyncSpec>,
    ) -> Self {
        Device {
            t,
            user: wire_u32(t),
            dim,
            solver,
            spec,
            answer: None,
            compute: Duration::ZERO,
            stale: 0,
            fresh: 0,
            panic_at: plan.panic_round(t),
        }
    }

    /// Runs `work` on the solver, adding its time to the device's compute.
    fn metered<T>(&mut self, work: impl FnOnce(&mut LocalSolver) -> T) -> T {
        // plos-lint: allow(D2): per-device compute-time metering only
        let start = Instant::now();
        let out = work(&mut self.solver);
        self.compute += start.elapsed();
        out
    }

    /// The wire form of an answer: fresh solutions travel as
    /// `ClientUpdate`, cached ones as `AsyncUpdate` with their basis.
    fn frame(&self, answer: &Answer) -> Message {
        let LocalUpdate { w_t, v_t, xi_t } = answer.update.clone();
        let (round, basis, user) = (answer.round, answer.basis, self.user);
        if basis == round {
            Message::ClientUpdate { round, user, w_t, v_t, xi_t }
        } else {
            Message::AsyncUpdate { epoch: round, basis, user, w_t, v_t, xi_t }
        }
    }

    /// The cached reply, when `round` was already answered.
    fn resend(&self, round: u32) -> Option<DeviceStep> {
        let answer = self.answer.as_ref().filter(|a| a.round == round)?;
        Some(DeviceStep::Send(self.frame(answer)))
    }

    /// Sends `answer` and caches it.
    fn reply(&mut self, answer: Answer) -> DeviceStep {
        let frame = self.frame(&answer);
        self.answer = Some(answer);
        DeviceStep::Send(frame)
    }
}

/// A failed local solve degrades the device to the consensus update rather
/// than poisoning the protocol: the server keeps driving the other devices
/// and this one rejoins next round.
fn consensus_update(w0: &Vector) -> LocalUpdate {
    LocalUpdate { w_t: w0.clone(), v_t: Vector::zeros(w0.len()), xi_t: 0.0 }
}

impl DeviceMachine for Device {
    type Output = DeviceOutcome;

    // The planned chaos crash must be a genuine panic: the whole point of
    // the regression is that the runtime contains it per-device.
    #[allow(clippy::panic)]
    fn on_message(&mut self, message: Message) -> DeviceStep {
        match message {
            Message::Broadcast { w0, u_t, .. } if w0.len() != self.dim || u_t.len() != self.dim => {
                DeviceStep::NeedRecv
            }
            Message::Refine { w0, .. } if w0.len() != self.dim => DeviceStep::NeedRecv,
            Message::Broadcast { round, w0, u_t } => {
                if self.panic_at.is_some_and(|at| round >= at) {
                    panic!("planned chaos: device {} crashed at round {round}", self.user);
                }
                if let Some(cached) = self.resend(round) {
                    return cached;
                }
                let busy = self.spec.is_some_and(|s| s.busy(self.t, round));
                let answer = match self.answer.take() {
                    // Init round: contribute a local hyperplane if this
                    // device has labels of both classes.
                    _ if round == 0 => {
                        let w_t = self.metered(|s| s.initial_hyperplane());
                        let update = LocalUpdate {
                            w_t: w_t.unwrap_or_else(|| Vector::zeros(w0.len())),
                            v_t: Vector::zeros(w0.len()),
                            xi_t: 0.0,
                        };
                        Answer { round, basis: round, update }
                    }
                    // Busy with a solution of this linearization in hand
                    // (the init hyperplane is none): answer from the cache.
                    Some(last) if busy && last.basis > 0 => {
                        self.stale += 1;
                        Answer { round, ..last }
                    }
                    _ => {
                        self.fresh += 1;
                        let update = self.metered(|s| s.solve(&w0, &u_t));
                        let update = update.unwrap_or_else(|_| consensus_update(&w0));
                        Answer { round, basis: round, update }
                    }
                };
                self.reply(answer)
            }
            Message::Refine { round, w0 } => {
                if let Some(cached) = self.resend(round) {
                    return cached;
                }
                // Refinement is always fresh — it anchors the final model.
                self.fresh += 1;
                let seed = self.solver.seed_for_round(round);
                let update = self.metered(|s| s.refine(&w0, seed));
                let update = update.unwrap_or_else(|_| consensus_update(&w0));
                self.reply(Answer { round, basis: round, update })
            }
            Message::CccpAdvance { .. } => {
                self.solver.advance_cccp();
                // The linearization changed: the cached solution is void.
                self.answer = None;
                DeviceStep::NeedRecv
            }
            // The cohort shrank: rescale every T-dependent quantity,
            // notably κ = λ/T in the local objective.
            Message::RosterUpdate { t_count } => {
                self.solver.set_cohort_size(t_count as usize);
                DeviceStep::NeedRecv
            }
            // Checkpoint resume: adopt the server's recorded CCCP anchor and
            // cohort size, then ack so the server knows this device is
            // repositioned. An anchor of the wrong dimension is dropped
            // unacked, so the server's ack gather sees silence and re-sends.
            // The ack carries empty vectors — it is a liveness signal, not
            // an update — and is not cached: under S > 0 a device busy in
            // the next round answers from its cache, and an empty ack must
            // never stand in for a solution.
            Message::Restore { round, t_count, w_t } => {
                if self.solver.restore(w_t, t_count as usize).is_err() {
                    return DeviceStep::NeedRecv;
                }
                self.answer = None;
                DeviceStep::Send(Message::ClientUpdate {
                    round,
                    user: self.user,
                    w_t: Vector::zeros(0),
                    v_t: Vector::zeros(0),
                    xi_t: 0.0,
                })
            }
            // Devices never receive peer updates or tree frames; drop the
            // stray frame rather than dying on a protocol hiccup.
            Message::ClientUpdate { .. }
            | Message::AsyncUpdate { .. }
            | Message::ShardBroadcast { .. }
            | Message::PartialSum { .. }
            | Message::ShardCommit { .. }
            | Message::ShardResidual { .. } => DeviceStep::NeedRecv,
            Message::Shutdown => DeviceStep::Done,
        }
    }

    fn finish(self, stats: TrafficStats) -> DeviceOutcome {
        DeviceOutcome { stats, compute: self.compute, stale: self.stale, fresh: self.fresh }
    }
}

/// A prepared cohort: one local solver per device, handed out once each.
pub(crate) struct Cohort {
    pub(crate) t_count: usize,
    pub(crate) dim: usize,
    solvers: Mutex<Vec<Option<LocalSolver>>>,
}

/// Validates the fault plan and prepares every device's local solver.
///
/// # Errors
///
/// [`CoreError::Protocol`] for an invalid fault plan and
/// [`CoreError::EmptyDataset`] when the dataset has no users.
pub(crate) fn prepare(
    config: &PlosConfig,
    dataset: &MultiUserDataset,
    plan: &FaultPlan,
) -> Result<Cohort, CoreError> {
    plan.validate().map_err(|detail| CoreError::Protocol {
        detail: format!("invalid fault plan: {detail}"),
    })?;
    let prepared = problem::prepare(dataset, config.bias);
    let t_count = prepared.users.len();
    if t_count == 0 {
        return Err(CoreError::EmptyDataset);
    }
    // Salt each device's seed so refinement restarts differ across users;
    // the devices cannot tell which topology is driving them.
    let solvers = prepared
        .users
        .iter()
        .enumerate()
        .map(|(t, u)| {
            let mut cfg = config.clone();
            cfg.seed = cfg.seed.wrapping_add(t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Some(LocalSolver::new(u.clone(), cfg, t_count))
        })
        .collect();
    Ok(Cohort { t_count, dim: prepared.dim, solvers: Mutex::new(solvers) })
}

impl Cohort {
    /// Runs the devices on the [`MuxNetwork`] under `runtime`, each one a
    /// [`Device`] around its solver under `plan` and, for the
    /// bounded-staleness server, `spec`, while `server` drives the star from
    /// the calling thread. Returns the server's result, every device's
    /// outcome in device order (a crashed device's left at its defaults) and
    /// the crashed devices.
    // Allowed: the slot map holds one solver per device index and the
    // network builds each device exactly once, so the take-once expect
    // cannot fail.
    #[allow(clippy::expect_used)]
    pub(crate) fn run<R>(
        &self,
        runtime: DeviceRuntime,
        plan: &FaultPlan,
        spec: Option<AsyncSpec>,
        server: impl FnOnce(&mut Vec<Endpoint>) -> R,
    ) -> Result<(R, Vec<DeviceOutcome>, Vec<usize>), CoreError> {
        let network =
            try_star(self.t_count).map_err(|e| CoreError::Protocol { detail: e.to_string() })?;
        let DeviceRuntime::Multiplexed { devices_per_worker } = runtime;
        let (out, exits) = MuxNetwork::new(network, devices_per_worker).run(server, |t| {
            let solver = self.solvers.lock().get_mut(t).and_then(Option::take);
            let solver = solver.expect("each device slot is taken exactly once");
            Device::new(t, self.dim, solver, plan, spec)
        });
        let mut panicked = Vec::new();
        let outcomes = exits
            .into_iter()
            .enumerate()
            .map(|(t, exit)| match exit {
                ClientExit::Finished(outcome) => outcome,
                // A crashed device left no outcome: it counts as a protocol
                // error, not a process abort — the server already evicted
                // its dead link.
                ClientExit::Panicked(_) => {
                    panicked.push(t);
                    DeviceOutcome::default()
                }
            })
            .collect();
        Ok((out, outcomes, panicked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::Fleet;
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
    use rand::rngs::StdRng;

    /// Device 0 of a small cohort, built with `spec`, and the model dimension.
    fn device(spec: Option<AsyncSpec>) -> (Device, usize) {
        let shape =
            SyntheticSpec { num_users: 3, points_per_class: 20, max_rotation: 0.4, flip_prob: 0.0 };
        let data = generate_synthetic(&shape, 7).mask_labels(&LabelMask::providers(2, 0.2), 1);
        let plan = FaultPlan::none();
        let cohort = prepare(&PlosConfig::fast(), &data, &plan).unwrap();
        let solver = cohort.solvers.lock()[0].take().unwrap();
        (Device::new(0, cohort.dim, solver, &plan, spec), cohort.dim)
    }

    fn broadcast(round: u32, dim: usize) -> Message {
        Message::Broadcast { round, w0: Vector::from(vec![0.5; dim]), u_t: Vector::zeros(dim) }
    }

    fn sent(step: DeviceStep) -> Message {
        let DeviceStep::Send(reply) = step else { panic!("the device did not reply") };
        reply
    }

    #[test]
    fn fresh_answers_are_client_updates_and_only_busy_ones_come_from_the_cache() {
        let (mut dev, dim) = device(None);
        let steps = [
            broadcast(0, dim),
            broadcast(1, dim),
            Message::Refine { round: 2, w0: Vector::from(vec![0.5; dim]) },
            Message::Restore { round: 3, t_count: 3, w_t: Vector::zeros(dim) },
        ];
        for (round, message) in (0..).zip(steps) {
            let reply = sent(dev.on_message(message));
            assert!(
                matches!(reply, Message::ClientUpdate { round: r, user: 0, .. } if r == round),
                "round {round}: {reply:?}"
            );
        }

        let spec =
            AsyncSpec { availability: 0.1, staleness_bound: 2, seed: 3, ..AsyncSpec::default() };
        let (mut dev, dim) = device(Some(spec));
        sent(dev.on_message(broadcast(0, dim)));
        // Nothing is cached before the first solve of a linearization.
        assert!(matches!(sent(dev.on_message(broadcast(1, dim))), Message::ClientUpdate { .. }));
        let mut cached = 0;
        for epoch in 2..12 {
            match sent(dev.on_message(broadcast(epoch, dim))) {
                Message::AsyncUpdate { epoch: e, basis, .. } => {
                    assert_eq!(e, epoch);
                    assert!(basis > 0 && basis < epoch, "basis {basis} at epoch {epoch}");
                    cached += 1;
                }
                Message::ClientUpdate { round, .. } => assert_eq!(round, epoch),
                other => panic!("epoch {epoch}: {other:?}"),
            }
        }
        assert!(cached > 0, "at 10 % availability some epoch must be busy");
        assert_eq!((dev.stale, dev.fresh), (cached, 11 - cached));

        // The same straggler process at S = 0 never answers from the cache.
        let (mut dev, dim) = device(Some(AsyncSpec { staleness_bound: 0, ..spec }));
        for epoch in 0..12 {
            let reply = sent(dev.on_message(broadcast(epoch, dim)));
            assert!(matches!(reply, Message::ClientUpdate { .. }), "epoch {epoch}: {reply:?}");
        }
        assert_eq!(dev.stale, 0);
    }

    #[test]
    fn a_re_sent_round_gets_the_cached_reply_without_a_second_solve() {
        let (mut dev, dim) = device(None);
        sent(dev.on_message(broadcast(0, dim)));
        let first = sent(dev.on_message(broadcast(1, dim)));
        let working_set = dev.solver.working_set_len();
        let again = sent(dev.on_message(broadcast(1, dim)));
        assert_eq!(again.encode(), first.encode());
        assert_eq!(dev.fresh, 1);
        assert_eq!(dev.solver.working_set_len(), working_set);
    }

    #[test]
    fn a_frame_of_the_wrong_dimension_is_dropped_and_the_good_one_is_solved() {
        let (mut dev, dim) = device(None);
        sent(dev.on_message(broadcast(0, dim)));
        let short = Message::Broadcast {
            round: 1,
            w0: Vector::from(vec![0.5; dim - 1]),
            u_t: Vector::zeros(dim - 1),
        };
        assert!(matches!(dev.on_message(short), DeviceStep::NeedRecv));
        let long = Message::Refine { round: 1, w0: Vector::from(vec![0.5; dim + 3]) };
        assert!(matches!(dev.on_message(long), DeviceStep::NeedRecv));
        assert_eq!(dev.fresh, 0, "a dropped frame runs no solve");
        // Nothing was cached for round 1, so its good frame is solved.
        let reply = sent(dev.on_message(broadcast(1, dim)));
        assert!(
            matches!(&reply, Message::ClientUpdate { round: 1, w_t, .. } if w_t.len() == dim),
            "{reply:?}"
        );
        assert_eq!(dev.fresh, 1);

        // A short anchor is dropped unacked and changes nothing; the good
        // `Restore` is acked with an empty update.
        let short = Message::Restore { round: 2, t_count: 2, w_t: Vector::zeros(dim - 1) };
        assert!(matches!(dev.on_message(short), DeviceStep::NeedRecv));
        assert_eq!(dev.solver.cohort_size(), 3, "a dropped restore changes nothing");
        let good = Message::Restore { round: 2, t_count: 2, w_t: Vector::zeros(dim) };
        let ack = sent(dev.on_message(good));
        assert!(
            matches!(&ack, Message::ClientUpdate { round: 2, w_t, .. } if w_t.is_empty()),
            "{ack:?}"
        );
        assert_eq!(dev.solver.cohort_size(), 2);
    }

    #[test]
    fn a_device_busy_after_a_restore_solves_instead_of_answering_from_the_ack() {
        let spec =
            AsyncSpec { availability: 0.1, staleness_bound: 2, seed: 3, ..AsyncSpec::default() };
        let (mut dev, dim) = device(Some(spec));
        // Snapshots follow the init round, so a restore round is never 0.
        let round = (1..).find(|&r| spec.busy(0, r + 1)).unwrap();
        let restore = Message::Restore { round, t_count: 3, w_t: Vector::zeros(dim) };
        let ack = sent(dev.on_message(restore));
        assert!(matches!(&ack, Message::ClientUpdate { w_t, .. } if w_t.is_empty()));
        // Busy in the next round, with nothing but the ack behind it.
        let reply = sent(dev.on_message(broadcast(round + 1, dim)));
        assert!(
            matches!(&reply, Message::ClientUpdate { round: r, w_t, .. }
                if *r == round + 1 && w_t.len() == dim),
            "{reply:?}"
        );
        assert_eq!(dev.fresh, 1);
    }

    /// One random valid message of each of the twelve wire tags: rounds,
    /// users and counts below 4, vectors 0, `dim − 1`, `dim` or `dim + 1`
    /// long.
    fn random_messages(rng: &mut StdRng, dim: usize) -> Vec<Message> {
        fn vector(rng: &mut StdRng, dim: usize) -> Vector {
            let len = [0, dim - 1, dim, dim + 1][rng.gen_range(0..4usize)];
            (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
        }
        fn sum(rng: &mut StdRng) -> Box<ExactSum> {
            let mut s = ExactSum::new();
            s.add(rng.gen_range(-2.0..2.0));
            Box::new(s)
        }
        let small = |rng: &mut StdRng| rng.gen_range(0..4u32);
        let w = vector(rng, dim);
        let mut sum_w = ExactVecSum::zeros(w.len());
        sum_w.add(&w);
        vec![
            Message::Broadcast { round: small(rng), w0: vector(rng, dim), u_t: vector(rng, dim) },
            Message::ClientUpdate {
                round: small(rng),
                user: small(rng),
                w_t: vector(rng, dim),
                v_t: vector(rng, dim),
                xi_t: 0.5,
            },
            Message::CccpAdvance { cccp_round: small(rng) },
            Message::Shutdown,
            Message::Refine { round: small(rng), w0: vector(rng, dim) },
            Message::RosterUpdate { t_count: small(rng) },
            Message::Restore { round: small(rng), t_count: small(rng), w_t: vector(rng, dim) },
            Message::AsyncUpdate {
                epoch: small(rng),
                basis: small(rng),
                user: small(rng),
                w_t: vector(rng, dim),
                v_t: vector(rng, dim),
                xi_t: -0.5,
            },
            Message::ShardBroadcast { round: small(rng), phase: 1, w0: vector(rng, dim) },
            Message::PartialSum { shard: 0, round: small(rng), n: 3, m: 2, sum_w },
            Message::ShardCommit { round: small(rng), phase: 2, w0: vector(rng, dim) },
            Message::ShardResidual {
                shard: 0,
                round: small(rng),
                a: sum(rng),
                b: sum(rng),
                c: sum(rng),
            },
        ]
    }

    /// Every single-bit flip and every prefix of `frame`, `frame` with a
    /// trailing byte, and random bodies behind its version and tag bytes.
    fn mutants(frame: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..frame.len() * 8)
            .map(|bit| {
                let mut flipped = frame.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            })
            .collect();
        out.extend((0..frame.len()).map(|cut| frame[..cut].to_vec()));
        out.push([frame, &[0]].concat());
        for _ in 0..50 {
            let len = rng.gen_range(0..=2 * frame.len());
            out.push(
                frame[..2]
                    .iter()
                    .copied()
                    .chain((0..len).map(|_| rng.gen_range(0..=u8::MAX)))
                    .collect(),
            );
        }
        out
    }

    /// Sends `message` to a one-device fleet through the device's client
    /// endpoint and runs one reply sweep owing the message's round. The
    /// sweep must either accept the message or count it; returns whether
    /// it was accepted, after checking that an accepted reply is device 0's
    /// with vectors `dim` long.
    fn swept(fleet: &mut Fleet<'_>, client: &Endpoint, message: &Message, dim: usize) -> bool {
        let (round, user, lens) = match message {
            Message::ClientUpdate { round, user, w_t, v_t, .. } => {
                (*round, *user, (w_t.len(), v_t.len()))
            }
            Message::AsyncUpdate { epoch, user, w_t, v_t, .. } => {
                (*epoch, *user, (w_t.len(), v_t.len()))
            }
            _ => (0, 0, (0, 0)),
        };
        let counted = |fleet: &Fleet<'_>| {
            let tally = &fleet.tally;
            tally.protocol_errors + tally.late_discards + tally.stale_discards
        };
        let before = counted(fleet);
        let mut accepted = Vec::new();
        client.send(message).unwrap();
        fleet.sweep(&mut [Some(round)], round, u32::MAX, dim, &mut accepted);
        let outcome = (accepted.len(), counted(fleet) - before);
        let valid = matches!(message, Message::ClientUpdate { .. } | Message::AsyncUpdate { .. })
            && user == 0
            && lens == (dim, dim);
        assert_eq!(outcome, if valid { (1, 0) } else { (0, 1) }, "{message:?}");
        valid
    }

    /// Every mutant of a random valid frame that still decodes reaches a
    /// live device and, through a client endpoint, the reply sweep, and so
    /// does every device reply. Nothing panics; the device replies only
    /// with vectors of the model dimension or with the empty ack of a
    /// `Restore` of the model dimension; the sweep accepts only device 0's
    /// replies of the model dimension and counts every other frame.
    #[test]
    fn decoded_mutants_reach_the_device_and_the_sweep_without_a_panic() {
        let mut rng = StdRng::seed_from_u64(0xf422);
        let (mut dev, dim) = device(None);
        let net = try_star(1).unwrap();
        let mut fleet = Fleet::new(FaultPlan::none().wrap_links(&net.server));
        let client = &net.clients[0];
        let (mut decoded, mut acks, mut accepted) = (0usize, 0usize, 0usize);
        for _ in 0..4 {
            for message in random_messages(&mut rng, dim) {
                for mutant in mutants(&message.encode(), &mut rng) {
                    let Ok(message) = Message::decode(mutant.into()) else { continue };
                    decoded += 1;
                    accepted += usize::from(swept(&mut fleet, client, &message, dim));
                    let restore_of_dim =
                        matches!(&message, Message::Restore { w_t, .. } if w_t.len() == dim);
                    let DeviceStep::Send(reply) = dev.on_message(message.clone()) else {
                        continue;
                    };
                    let lens = match &reply {
                        Message::ClientUpdate { w_t, v_t, .. }
                        | Message::AsyncUpdate { w_t, v_t, .. } => (w_t.len(), v_t.len()),
                        other => panic!("the device sent {other:?}"),
                    };
                    let ack = lens == (0, 0) && restore_of_dim;
                    assert!(lens == (dim, dim) || ack, "{message:?} drew {reply:?}");
                    acks += usize::from(ack);
                    accepted += usize::from(swept(&mut fleet, client, &reply, dim));
                }
            }
        }
        assert!(decoded > 5_000, "only {decoded} mutants decoded");
        assert!(accepted > 0 && acks > 0, "{accepted} accepted, {acks} acks");
    }
}
