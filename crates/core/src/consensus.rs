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
//! staleness server equals the barrier server (`async_parity`), and the
//! tree equals the flat star at any shard count (`shard_parity`).

use crate::checkpoint::{self, CheckpointPolicy, CkptSession};
use crate::config::PlosConfig;
use crate::distributed::AdmmResiduals;
use crate::error::CoreError;
use crate::local::LocalSolver;
use crate::model::PersonalizedModel;
use crate::problem;
use crate::wire_u32;
use parking_lot::Mutex;
use plos_ckpt::{CkptError, ConsensusPhase, ConsensusState, FleetSection};
use plos_linalg::{ExactSum, ExactVecSum, Vector};
use plos_net::shard::{PHASE_ADMM, PHASE_INIT, PHASE_REFINE};
use plos_net::{
    try_star, ClientExit, DeviceMachine, DeviceRuntime, Endpoint, FaultPlan, TrafficStats,
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

    /// The per-device state a snapshot needs. `boundary` is set when every
    /// device sits at its own slot (a CCCP boundary or refinement), so no
    /// broadcast replay is needed to re-seat it.
    fn export(&self, _boundary: bool) -> Option<FleetSection> {
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
    /// Snapshot after every ADMM iteration (the barrier server) rather than
    /// only at CCCP boundaries (the bounded-staleness server, whose devices
    /// hold in-flight work between boundaries).
    every_round: bool,
    state: ConsensusState,
    compute: Duration,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(
        config: &'a PlosConfig,
        session: Option<CkptSession>,
        every_round: bool,
        fingerprint: u64,
        dim: usize,
    ) -> Self {
        Driver {
            config,
            session,
            every_round,
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
        // Where a resumed run re-enters its first CCCP round.
        let mut entry = None;
        match resume {
            Some((st, section)) => {
                g.restore(st.round, &section)?;
                match st.phase {
                    ConsensusPhase::Refine { rounds_done } => {
                        start_cccp = c.max_cccp_rounds;
                        refine_start = rounds_done as usize;
                    }
                    phase => {
                        start_cccp = st.cccp_round as usize;
                        entry = Some((phase, st.iters_done as usize, st.inner_done));
                    }
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
            let (mut applied, inner_done) = match entry.take() {
                // Mid-round snapshot: the round was entered before the kill.
                Some((ConsensusPhase::Admm, iters_done, inner_done)) => (iters_done, inner_done),
                resumed => {
                    self.state.cccp_rounds += 1;
                    g.enter_cccp(wire_u32(cccp_round), cccp_round > 0 && resumed.is_none())?;
                    (0, false)
                }
            };
            let mut passes = applied;
            while !inner_done && applied < c.max_admm_iters && passes < pass_cap {
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

                let met = dual <= sqrt_2t * c.eps_abs && primal <= sqrt_t * c.eps_abs;
                if self.every_round {
                    let done = met || applied == c.max_admm_iters;
                    self.save(g, ConsensusPhase::Admm, cccp_round, applied, done)?;
                }
                if met {
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
            if !self.every_round {
                self.save(g, ConsensusPhase::Boundary, cccp_round + 1, 0, false)?;
            }
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
            let phase = ConsensusPhase::Refine { rounds_done: wire_u32(refine_round + 1) };
            self.save(g, phase, c.max_cccp_rounds, 0, true)?;
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

    /// Writes a snapshot at the given resume coordinates, when
    /// checkpointing is on.
    fn save(
        &mut self,
        g: &impl Gather,
        phase: ConsensusPhase,
        cccp_round: usize,
        iters_done: usize,
        inner_done: bool,
    ) -> Result<(), CoreError> {
        let Some(sess) = self.session.as_mut() else { return Ok(()) };
        let st = &mut self.state;
        st.phase = phase;
        st.cccp_round = wire_u32(cccp_round);
        st.iters_done = wire_u32(iters_done);
        st.inner_done = inner_done;
        let snapshot =
            ConsensusState { fleet: g.export(phase != ConsensusPhase::Admm), ..st.clone() };
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
        let logged = f.log.iter().flat_map(|(_, w0, us)| std::iter::once(w0).chain(us));
        f.us.len() == t_count
            && [&f.us, &f.w_ts, &f.v_ts, &f.anchors]
                .into_iter()
                .flatten()
                .chain(logged)
                .all(|v| v.len() == dim)
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
            ("cccp_round", state.cccp_round.into()),
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
    /// Cumulative local-solve time (barrier devices).
    pub(crate) compute: Duration,
    /// Replies answered from the cache (bounded-staleness devices).
    pub(crate) stale: usize,
    /// Fresh local solves (bounded-staleness devices).
    pub(crate) fresh: usize,
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
    /// Runs the devices under `runtime`, each one the machine `machine`
    /// builds around its solver, while `server` drives the star from the
    /// calling thread. Returns the server's result, every device's outcome
    /// in device order (a crashed device's left at its defaults) and the
    /// crashed devices.
    // Allowed: the slot map holds one solver per device index and the
    // network builds each device exactly once, so the take-once expect
    // cannot fail.
    #[allow(clippy::expect_used)]
    pub(crate) fn run<R, M>(
        &self,
        runtime: DeviceRuntime,
        server: impl FnOnce(&mut Vec<Endpoint>) -> R,
        machine: impl Fn(usize, LocalSolver) -> M + Sync,
    ) -> Result<(R, Vec<DeviceOutcome>, Vec<usize>), CoreError>
    where
        M: DeviceMachine<Output = DeviceOutcome>,
    {
        let network =
            try_star(self.t_count).map_err(|e| CoreError::Protocol { detail: e.to_string() })?;
        let (out, exits) = network.run_devices(runtime, server, |t| {
            let solver = self.solvers.lock().get_mut(t).and_then(Option::take);
            machine(t, solver.expect("each device slot is taken exactly once"))
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
