//! Centralized PLOS — Algorithm 1.
//!
//! The trainer alternates two nested loops exactly as the paper describes:
//!
//! 1. **CCCP** (outer): fix the sign pattern `sign(w_t⁽ᵏ⁾·x)` of every
//!    unlabeled sample, turning problem (9) into the convex problem (11);
//!    stop when the true objective `L` stabilizes (step 7).
//! 2. **Cutting plane** (inner): grow per-user working sets `Ω_t` with the
//!    most violated constraints (Eq. 14) and re-solve the dual QP (Eq. 16)
//!    until no constraint is violated by more than `ε` (steps 4–6).
//!
//! The dual is solved by [`DualSolver`], which exploits the feature-map
//! block structure; the global SVM used to initialize `w'⁽⁰⁾` comes from
//! `plos-ml`.

use crate::checkpoint::{self, CheckpointPolicy};
use crate::config::PlosConfig;
use crate::dual::{DualSolution, DualSolver};
use crate::error::CoreError;
use crate::model::PersonalizedModel;
use crate::problem::{self, Prepared};
use crate::wire_u32;
use plos_ckpt::{CentralizedPhase, CentralizedState, CkptError, KIND_CENTRALIZED};
use plos_linalg::Vector;
use plos_ml::svm::{LinearSvm, SvmParams};
use plos_opt::History;
use plos_sensing::dataset::MultiUserDataset;
use rand::{Rng, SeedableRng};

/// The centralized trainer.
#[derive(Debug, Clone)]
pub struct CentralizedPlos {
    config: PlosConfig,
    ckpt: Option<CheckpointPolicy>,
}

/// Detailed training output: the model plus convergence diagnostics.
#[derive(Debug, Clone)]
pub struct CentralizedFit {
    /// The trained model.
    pub model: PersonalizedModel,
    /// True objective `L` after each CCCP round.
    pub history: History,
    /// CCCP rounds performed.
    pub cccp_rounds: usize,
    /// Cutting-plane rounds summed over all CCCP rounds.
    pub cutting_rounds: usize,
    /// Constraints accumulated over all CCCP rounds.
    pub constraints_added: usize,
    /// Whether the CCCP objective converged before the round cap.
    pub converged: bool,
}

/// Shape check on a restored snapshot: the fingerprint already binds the
/// cohort and dimension, so a mismatch here means a buggy writer, but the
/// trainer still refuses to index out of bounds on corrupt input.
fn validate_restored(st: &CentralizedState, t_count: usize, dim: usize) -> Result<(), CoreError> {
    if st.vectors.len() != t_count
        || st.w0.len() != dim
        || st.vectors.iter().any(|v| v.len() != dim)
    {
        return Err(CkptError::Malformed {
            detail: format!(
                "centralized checkpoint shape disagrees with the dataset \
                 ({} vectors, dim {}; expected {t_count} of dim {dim})",
                st.vectors.len(),
                st.w0.len()
            ),
        }
        .into());
    }
    Ok(())
}

impl CentralizedPlos {
    /// Creates a trainer, rejecting invalid configurations with a typed
    /// error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the configuration is invalid.
    pub fn try_new(config: PlosConfig) -> Result<Self, CoreError> {
        config.try_validate()?;
        Ok(CentralizedPlos { config, ckpt: None })
    }

    /// Returns a copy that checkpoints after every CCCP and refinement
    /// round under `policy`, and resumes from an existing snapshot with
    /// bit-parity. Without this (or the `PLOS_CKPT_DIR` environment
    /// variable) the trainer never touches the filesystem.
    #[must_use]
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.ckpt = Some(policy);
        self
    }

    /// Trains on a masked multi-user dataset, returning the personalized
    /// model.
    ///
    /// # Errors
    ///
    /// Propagates QP and SVM failures from [`Self::fit_detailed`].
    pub fn fit(&self, dataset: &MultiUserDataset) -> Result<PersonalizedModel, CoreError> {
        Ok(self.fit_detailed(dataset)?.model)
    }

    /// Trains and returns convergence diagnostics alongside the model.
    ///
    /// # Errors
    ///
    /// Propagates failures of the dual QP solves, the refinement CCCP runs,
    /// and the SVM initialization as [`CoreError`].
    // Allowed: `st.vectors` holds `t_count` vectors (built that way on a
    // fresh start, checked by `validate_restored` on resume) and `t` ranges
    // over `prepared.users` of that same length, so the indices are in
    // bounds.
    #[allow(clippy::indexing_slicing)]
    pub fn fit_detailed(&self, dataset: &MultiUserDataset) -> Result<CentralizedFit, CoreError> {
        let _span = plos_obs::Span::enter("centralized_fit");
        let prepared = problem::prepare(dataset, self.config.bias);
        let t_count = prepared.users.len();
        let dim = prepared.dim;
        // Per-user work below (constraint search, sign refresh, refinement)
        // fans out on the fork-join pool; results come back in user order,
        // so training output is bit-identical at any pool size.
        let pool = plos_exec::Pool::current();

        // Checkpoint policy: explicit builder setting first, `PLOS_CKPT_DIR`
        // fallback. A valid snapshot resumes the run; a damaged one is a
        // typed error, never a silent fresh start.
        let policy = self.ckpt.clone().or_else(CheckpointPolicy::from_env);
        let fingerprint = checkpoint::run_fingerprint(KIND_CENTRALIZED, t_count, dim, &self.config);
        let mut session = policy.as_ref().map(|p| p.session("centralized"));
        let snapshot = match &session {
            Some(sess) => sess.load()?,
            None => None,
        };
        let mut st = match snapshot {
            Some(file) => {
                let st = CentralizedState::decode(&file)?;
                checkpoint::check_fingerprint(st.fingerprint, fingerprint)?;
                validate_restored(&st, t_count, dim)?;
                plos_obs::emit(
                    "checkpoint_resume",
                    &[
                        ("trainer", "centralized".into()),
                        ("cccp_rounds", u64::from(st.cccp_rounds).into()),
                    ],
                );
                st
            }
            // Initialization of w'(0): a global SVM over all observed labels
            // gives the sign pattern CCCP linearizes around first.
            None => CentralizedState {
                fingerprint,
                phase: CentralizedPhase::Cccp,
                w0: self.initial_hyperplane(&prepared)?,
                vectors: vec![Vector::zeros(dim); t_count],
                history: Vec::new(),
                cccp_rounds: 0,
                cccp_converged: false,
                cutting_rounds: 0,
                constraints_added: 0,
            },
        };

        let refine_start = match st.phase {
            // CCCP finished before the snapshot: `vectors` hold the per-user
            // hyperplanes `w_t` mid-refinement.
            CentralizedPhase::Refine { rounds_done } => rounds_done as usize,
            // CCCP (step 7), with `vectors` holding the biases `v_t`. Rounds
            // a resumed snapshot already completed count against the cap,
            // and a history that converged before the kill takes no round.
            CentralizedPhase::Cccp => {
                let tol = self.config.cccp_tol;
                let converged = |h: &[f64]| History::from_values(h.to_vec()).converged(tol);
                while !converged(&st.history) && st.history.len() < self.config.max_cccp_rounds {
                    // Linearize the concave terms around w_t = w0 + v_t
                    // (Eq. 10); on a fresh start v_t = 0.
                    let signs = pool.par_map(&prepared.users, |t, u| {
                        problem::compute_signs(u, &(&st.w0 + &st.vectors[t]))
                    });
                    let solution = self.cutting_planes(&prepared, &signs, &mut st)?;
                    let objective =
                        problem::objective(&prepared, &solution.w0, &solution.vs, &self.config);
                    st.w0 = solution.w0;
                    st.vectors = solution.vs;
                    st.history.push(objective);
                    st.cccp_rounds = wire_u32(st.history.len());
                    plos_obs::emit(
                        "cccp_round",
                        &[("round", st.history.len().into()), ("objective", objective.into())],
                    );
                    if let Some(sess) = session.as_mut() {
                        sess.save(&st.encode())?;
                    }
                }
                st.cccp_converged = converged(&st.history);
                // Refinement works on the per-user hyperplanes w_t = w0 + v_t.
                st.vectors = st.vectors.iter().map(|v| &st.w0 + v).collect();
                st.phase = CentralizedPhase::Refine { rounds_done: 0 };
                0
            }
        };
        // Refinement: block-coordinate descent on the true objective with
        // multi-start per-user CCCP. Each user step exactly minimizes its
        // block `(λ/T)‖w_t − w0‖² + loss_t(w_t)` over the candidate local
        // optima; the w0 step is the closed-form minimizer of
        // `‖w0‖² + (λ/T)Σ‖w_t − w0‖²`, so the objective never increases.
        // A resumed run re-enters at `refine_start`; seeds depend only on
        // the absolute round index, so the replayed rounds are identical.
        let mu = 2.0 * self.config.lambda / t_count as f64;
        for round in refine_start..self.config.refine_rounds {
            // Within a round every user's block step depends only on the
            // round-start `w0` and its own `w_t`, so the per-user CCCP runs
            // are independent; per-user seeds are derived from (round, t)
            // exactly as in the sequential schedule.
            let updates = pool.par_map_indexed(&prepared.users, |t, user| {
                let w_t = &st.vectors[t];
                let base_signs = problem::compute_signs(user, w_t);
                let seed = self.config.seed.wrapping_add(
                    0x5851_f42d_4c95_7f2d_u64.wrapping_mul((round * t_count + t + 1) as u64),
                );
                let sol = crate::prox::prox_cccp_multistart(
                    user,
                    &st.w0,
                    mu,
                    base_signs,
                    seed,
                    &self.config,
                )?;
                // Keep the incumbent when no candidate beats it — this is
                // what makes the refinement pass monotone.
                let incumbent = crate::prox::prox_objective(user, &st.w0, mu, w_t, &self.config);
                Ok::<Option<Vector>, CoreError>((sol.objective < incumbent).then_some(sol.w))
            })?;
            for (w_t, update) in st.vectors.iter_mut().zip(updates) {
                if let Some(w) = update {
                    *w_t = w;
                }
            }
            // Closed-form w0 block update.
            let mut mean = Vector::zeros(dim);
            for w_t in &st.vectors {
                mean += w_t;
            }
            mean.scale_mut(1.0 / t_count as f64);
            st.w0 = mean.scaled(self.config.lambda / (1.0 + self.config.lambda));
            let vs: Vec<Vector> = st.vectors.iter().map(|w_t| w_t - &st.w0).collect();
            let objective = problem::objective(&prepared, &st.w0, &vs, &self.config);
            st.history.push(objective);
            plos_obs::emit(
                "refine_round",
                &[("round", (round + 1).into()), ("objective", objective.into())],
            );
            st.phase = CentralizedPhase::Refine { rounds_done: wire_u32(round + 1) };
            if let Some(sess) = session.as_mut() {
                sess.save(&st.encode())?;
            }
        }
        let vs: Vec<Vector> = st.vectors.iter().map(|w_t| w_t - &st.w0).collect();

        let model = PersonalizedModel::new(st.w0, vs, self.config.bias);
        // The run completed: drop the snapshot so the next run starts fresh.
        if let Some(sess) = &session {
            sess.clear()?;
        }
        Ok(CentralizedFit {
            model,
            history: History::from_values(st.history),
            cccp_rounds: st.cccp_rounds as usize,
            cutting_rounds: st.cutting_rounds as usize,
            constraints_added: st.constraints_added as usize,
            converged: st.cccp_converged,
        })
    }

    /// The cutting-plane inner loop (steps 4–6) for one sign pattern: grow
    /// the per-user working sets with the most violated constraints
    /// (Eq. 14) and re-solve the dual (Eq. 16) until no constraint is
    /// violated by more than `ε`. Counts its rounds and constraints into
    /// `st`.
    // Allowed: `signs` and the solution's `vs`/`xis` hold one entry per user
    // of `prepared`, and `t` ranges over `prepared.users`.
    #[allow(clippy::indexing_slicing)]
    fn cutting_planes(
        &self,
        prepared: &Prepared,
        signs: &[Vec<f64>],
        st: &mut CentralizedState,
    ) -> Result<DualSolution, CoreError> {
        let pool = plos_exec::Pool::current();
        // Fresh working sets: constraints depend on the sign pattern.
        // The hard class-balance constraints are installed first — they
        // rule out the degenerate all-on-one-side margin solutions.
        let mut solver = DualSolver::new(self.config.lambda, prepared.users.len(), prepared.dim)?;
        for (t, user) in prepared.users.iter().enumerate() {
            for k in problem::balance_constraints(user, self.config.balance) {
                solver.add_hard_constraint(t, k)?;
            }
        }
        let mut solution = solver.solve(&self.config.qp)?;
        for round in 0..self.config.max_cutting_rounds {
            st.cutting_rounds += 1;
            let mut any_added = false;
            let mut max_violation = 0.0_f64;
            // Per-user most-violated-constraint search (Eq. 14) is
            // independent given the current iterate — fan it out, then
            // install the findings in user order.
            let searched = pool.par_map(&prepared.users, |t, user| {
                let w_t = &solution.w0 + &solution.vs[t];
                problem::most_violated_constraint(
                    user,
                    &signs[t],
                    &w_t,
                    solution.xis[t],
                    &self.config,
                )
            });
            for (t, (constraint, violation)) in searched.into_iter().enumerate() {
                max_violation = max_violation.max(violation);
                if violation > self.config.eps {
                    solver.add_constraint(t, constraint)?;
                    st.constraints_added += 1;
                    any_added = true;
                }
            }
            plos_obs::emit(
                "cutting_round",
                &[
                    ("round", (round + 1).into()),
                    ("working_set", solver.num_constraints().into()),
                    ("max_violation", max_violation.into()),
                ],
            );
            if !any_added {
                break;
            }
            solution = solver.solve(&self.config.qp)?;
        }
        Ok(solution)
    }

    /// Global-SVM initialization over all observed labels; falls back to a
    /// deterministic pseudo-random unit vector when no user provides labels
    /// (pure maximum-margin clustering).
    fn initial_hyperplane(&self, prepared: &Prepared) -> Result<Vector, CoreError> {
        let mut xs: Vec<Vector> = Vec::new();
        let mut ys: Vec<i8> = Vec::new();
        for user in &prepared.users {
            for &(i, y) in &user.labeled {
                if let Some(x) = user.features.get(i) {
                    xs.push(x.clone());
                    ys.push(if y > 0.0 { 1 } else { -1 });
                }
            }
        }
        let has_both_classes = ys.contains(&1) && ys.contains(&-1);
        if !xs.is_empty() && has_both_classes {
            // Features are already bias-augmented; disable the SVM's own
            // augmentation.
            let params = SvmParams { c: 1.0, bias: None, ..SvmParams::default() };
            return Ok(LinearSvm::new(params).fit(&xs, &ys)?.weights().clone());
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut w: Vector = (0..prepared.dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let norm = w.norm();
        if norm > 0.0 {
            w.scale_mut(1.0 / norm);
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::{LabelMask, UserData};
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn small_synthetic(users: usize, providers: usize, rate: f64) -> MultiUserDataset {
        let spec = SyntheticSpec {
            num_users: users,
            points_per_class: 30,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        generate_synthetic(&spec, 11)
            .mask_labels(&LabelMask::providers(providers, 0.2_f64.max(rate)), 5)
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
    fn learns_separable_multi_user_problem() {
        let dataset = small_synthetic(4, 2, 0.2);
        let fit =
            CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit_detailed(&dataset).unwrap();
        let acc = accuracy(&fit.model, &dataset);
        assert!(acc > 0.78, "accuracy {acc}");
        assert!(fit.constraints_added > 0);
        assert!(fit.cccp_rounds >= 1);
    }

    #[test]
    fn cccp_objective_is_monotone_decreasing() {
        let dataset = small_synthetic(3, 2, 0.3);
        let fit =
            CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit_detailed(&dataset).unwrap();
        assert!(
            fit.history.is_monotone_decreasing(1e-3),
            "objective history {:?}",
            fit.history.values()
        );
    }

    #[test]
    fn benefits_users_without_labels() {
        // Three users labeled, one unlabeled but aligned with the others.
        // Uses its own dataset seed: the property needs a draw where the
        // unlabeled user's rotation actually stays near the cohort (the
        // spec allows rotations up to 45°, which occasionally produces a
        // legitimately misaligned user).
        let spec = SyntheticSpec {
            num_users: 4,
            points_per_class: 30,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        let dataset = generate_synthetic(&spec, 23).mask_labels(&LabelMask::providers(3, 0.3), 5);
        let model = CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit(&dataset).unwrap();
        for t in dataset.non_providers() {
            let u = dataset.user(t);
            let preds = model.predict_batch(t, &u.features);
            let acc = preds.iter().zip(&u.truth).filter(|(p, y)| p == y).count() as f64
                / u.num_samples() as f64;
            // Clustering symmetry: accept either labeling orientation for a
            // label-free user, but the split itself must be right.
            let acc = acc.max(1.0 - acc);
            assert!(acc > 0.8, "unlabeled user {t} accuracy {acc}");
        }
    }

    #[test]
    fn zero_label_dataset_still_trains() {
        // Pure maximum-margin clustering: no user provides labels.
        let spec =
            SyntheticSpec { num_users: 2, points_per_class: 25, max_rotation: 0.1, flip_prob: 0.0 };
        let dataset = generate_synthetic(&spec, 3);
        let model = CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit(&dataset).unwrap();
        // The margin split should align with the true classes up to sign.
        let u = dataset.user(0);
        let preds = model.predict_batch(0, &u.features);
        let acc = preds.iter().zip(&u.truth).filter(|(p, y)| p == y).count() as f64 / 50.0;
        let acc = acc.max(1.0 - acc);
        assert!(acc > 0.8, "clustering accuracy {acc}");
    }

    #[test]
    fn single_user_degenerates_to_semi_supervised_svm() {
        let features = vec![
            Vector::from(vec![2.0, 0.1]),
            Vector::from(vec![2.5, -0.2]),
            Vector::from(vec![-2.0, 0.3]),
            Vector::from(vec![-2.2, 0.0]),
        ];
        let mut user = UserData::new(features, vec![1, 1, -1, -1]);
        user.observed = vec![Some(1), None, Some(-1), None];
        let dataset = MultiUserDataset::new(vec![user]);
        let model = CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit(&dataset).unwrap();
        for (x, &y) in dataset.user(0).features.iter().zip(&dataset.user(0).truth) {
            assert_eq!(model.predict(0, x), y);
        }
    }

    #[test]
    fn large_lambda_approaches_global_model() {
        let dataset = small_synthetic(4, 2, 0.3);
        let config = PlosConfig { lambda: 1e5, ..PlosConfig::fast() };
        let model = CentralizedPlos::try_new(config).unwrap().fit(&dataset).unwrap();
        for t in 0..4 {
            assert!(
                model.personalization_ratio(t) < 0.05,
                "user {t} deviates: {}",
                model.personalization_ratio(t)
            );
        }
    }

    #[test]
    fn small_lambda_allows_personalization() {
        // Strong rotation makes users genuinely different; tiny λ lets the
        // biases absorb that difference.
        let spec = SyntheticSpec {
            num_users: 3,
            points_per_class: 25,
            max_rotation: std::f64::consts::PI * 0.75,
            flip_prob: 0.0,
        };
        let dataset = generate_synthetic(&spec, 7).mask_labels(&LabelMask::providers(3, 0.3), 2);
        let config = PlosConfig { lambda: 0.5, ..PlosConfig::fast() };
        let model = CentralizedPlos::try_new(config).unwrap().fit(&dataset).unwrap();
        let max_ratio = (0..3).map(|t| model.personalization_ratio(t)).fold(0.0_f64, f64::max);
        assert!(max_ratio > 0.05, "no personalization happened: {max_ratio}");
    }

    #[test]
    fn deterministic_given_config_and_data() {
        let dataset = small_synthetic(3, 2, 0.3);
        let m1 = CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit(&dataset).unwrap();
        let m2 = CentralizedPlos::try_new(PlosConfig::fast()).unwrap().fit(&dataset).unwrap();
        assert_eq!(m1, m2);
    }

    fn model_bits(model: &PersonalizedModel) -> Vec<u64> {
        let mut bits: Vec<u64> = model.global_hyperplane().iter().map(|c| c.to_bits()).collect();
        for v in model.personal_biases() {
            bits.extend(v.iter().map(|c| c.to_bits()));
        }
        bits
    }

    #[test]
    fn killed_and_resumed_run_matches_uninterrupted_bit_for_bit() {
        use crate::checkpoint::tests::kill_at_every_seam;
        let dataset = small_synthetic(3, 2, 0.3);
        let config = PlosConfig::fast();
        let reference =
            CentralizedPlos::try_new(config.clone()).unwrap().fit_detailed(&dataset).unwrap();

        // One snapshot per CCCP round and one per refinement round: a chain
        // killed at every one of them must die exactly that often and still
        // reproduce the reference model exactly.
        let (resumed, kills) = kill_at_every_seam("centralized-resume", |policy| {
            CentralizedPlos::try_new(config.clone())?
                .with_checkpointing(policy)
                .fit_detailed(&dataset)
        });
        assert_eq!(kills, reference.cccp_rounds + config.refine_rounds);
        assert_eq!(model_bits(&resumed.model), model_bits(&reference.model));
        assert_eq!(resumed.history.values(), reference.history.values());
        assert_eq!(resumed.cccp_rounds, reference.cccp_rounds);
        assert_eq!(resumed.converged, reference.converged);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected_not_ignored() {
        use crate::checkpoint::CheckpointPolicy;
        let dataset = small_synthetic(3, 2, 0.3);
        let dir =
            std::env::temp_dir().join(format!("plos-centralized-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PlosConfig::fast();
        let killed = CentralizedPlos::try_new(config.clone())
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir).abort_after(1))
            .fit_detailed(&dataset);
        assert!(matches!(killed, Err(CoreError::Interrupted { .. })));

        // A different seed is a different run: the stale snapshot must be
        // refused with a typed error rather than silently resumed.
        let other = PlosConfig { seed: config.seed + 99, ..config };
        let resumed = CentralizedPlos::try_new(other)
            .unwrap()
            .with_checkpointing(CheckpointPolicy::new(&dir))
            .fit_detailed(&dataset);
        assert!(
            matches!(resumed, Err(CoreError::Ckpt(_))),
            "expected a checkpoint context error, got {resumed:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cccp_stops_at_the_round_cap_unconverged() {
        let dataset = small_synthetic(3, 2, 0.3);
        let config = PlosConfig { max_cccp_rounds: 1, cccp_tol: 0.0, ..PlosConfig::fast() };
        let fit = CentralizedPlos::try_new(config.clone()).unwrap().fit_detailed(&dataset).unwrap();
        assert_eq!(fit.cccp_rounds, 1);
        assert!(!fit.converged);
        assert_eq!(fit.history.len(), 1 + config.refine_rounds);
    }

    /// Writes a CCCP-phase snapshot with the given objective history through
    /// the trainer's own session and fingerprint, as a run killed after
    /// `history.len()` rounds would have left it, then resumes from it.
    fn resume_cccp_snapshot(tag: &str, config: PlosConfig, history: Vec<f64>) -> CentralizedFit {
        use crate::checkpoint::CheckpointPolicy;
        let dataset = small_synthetic(3, 2, 0.3);
        let dir =
            std::env::temp_dir().join(format!("plos-centralized-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trainer = CentralizedPlos::try_new(config.clone()).unwrap();
        let prepared = problem::prepare(&dataset, config.bias);
        let (t_count, dim) = (prepared.users.len(), prepared.dim);
        let snapshot = CentralizedState {
            fingerprint: checkpoint::run_fingerprint(KIND_CENTRALIZED, t_count, dim, &config),
            phase: CentralizedPhase::Cccp,
            w0: trainer.initial_hyperplane(&prepared).unwrap(),
            vectors: vec![Vector::zeros(dim); t_count],
            cccp_rounds: wire_u32(history.len()),
            history,
            cccp_converged: false,
            cutting_rounds: 7,
            constraints_added: 11,
        };
        CheckpointPolicy::new(&dir).session("centralized").save(&snapshot.encode()).unwrap();
        let fit =
            trainer.with_checkpointing(CheckpointPolicy::new(&dir)).fit_detailed(&dataset).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // No cutting-plane round ran after the restore.
        assert_eq!((fit.cutting_rounds, fit.constraints_added), (7, 11));
        fit
    }

    #[test]
    fn resumed_converged_history_takes_no_further_cccp_round() {
        let config = PlosConfig::fast();
        let fit = resume_cccp_snapshot("converged", config.clone(), vec![0.5, 0.5]);
        assert_eq!(fit.cccp_rounds, 2);
        assert!(fit.converged);
        assert_eq!(fit.history.values()[..2], [0.5, 0.5]);
        assert_eq!(fit.history.len(), 2 + config.refine_rounds);
    }

    #[test]
    fn restored_rounds_count_against_the_cap() {
        let config = PlosConfig { max_cccp_rounds: 3, cccp_tol: 0.0, ..PlosConfig::fast() };
        let fit = resume_cccp_snapshot("capped", config.clone(), vec![3.0, 2.0, 1.0]);
        assert_eq!(fit.cccp_rounds, 3);
        assert!(!fit.converged);
        assert_eq!(fit.history.values()[..3], [3.0, 2.0, 1.0]);
        assert_eq!(fit.history.len(), 3 + config.refine_rounds);
    }
}
