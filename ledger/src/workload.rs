//! The pinned workloads and one trial of each.
//!
//! Every setting a workload depends on — cohort shape, label mask, PLOS
//! hyperparameters, retry windows, device runtime, fault plan — is written
//! out here rather than taken from `plos-bench`'s figure presets, so that
//! editing the figure harness cannot move the benchmark.

use plos_ckpt::model_digest;
use plos_core::distributed::DistributedReport;
use plos_core::eval::{plos_predictions, score_predictions};
use plos_core::{
    CentralizedPlos, CheckpointPolicy, CoreError, DistributedPlos, FaultTolerance,
    PersonalizedModel, PlosConfig, RetryPolicy, ShardSpec, Topology,
};
use plos_net::{DeviceRuntime, FaultPlan};
use plos_opt::QpSolverOptions;
use plos_sensing::dataset::{LabelMask, MultiUserDataset};
use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 alone: `CentralizedPlos::fit_detailed`.
    Central,
    /// Algorithm 2 on a flat star with few heavy devices, a straggler and a
    /// checkpoint every round.
    Star,
    /// Algorithm 2 on a flat star with many tiny devices.
    Fleet,
    /// The `Fleet` cohort through the sharded aggregation tree.
    Tree,
}

/// Every workload, in the round-robin order the ledger runs them.
pub const ALL: [Workload; 4] = [Workload::Central, Workload::Star, Workload::Fleet, Workload::Tree];

/// Shards of the `Tree` workload's aggregation tree.
pub const TREE_SHARDS: usize = 8;

/// Reply lag of the `Star` workload's straggler (its last device).
pub const STRAGGLER_LAG: Duration = Duration::from_millis(10);

/// Seeds of the cohorts every run of every workload fits. Pinned, so that
/// each run measures the same work and reads the same accuracy, and a
/// change in either is the program's, not the inputs'. Sharing them lets
/// `tree` be checked against `fleet` and `central` be compared with `star`
/// (Fig. 11/12) cohort by cohort.
pub const PANEL: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// Cohort shape: `users` users with `2 * points_per_class` samples each,
/// `providers` of whom reveal `rate` of their labels.
#[derive(Debug, Clone, Copy)]
pub struct CohortSpec {
    /// Users (devices).
    pub users: usize,
    /// Synthetic points per class per user.
    pub points_per_class: usize,
    /// Users that provide labels.
    pub providers: usize,
    /// Fraction of a provider's samples that are labeled.
    pub rate: f64,
}

impl Workload {
    /// The workload's name in `BENCHMARK.json` and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Central => "central_t16",
            Workload::Star => "star_t16",
            Workload::Fleet => "fleet_t64",
            Workload::Tree => "tree_t64",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload trains with the distributed trainer.
    pub fn distributed(self) -> bool {
        self != Workload::Central
    }

    /// The cohort the workload trains on (Sec. VI-E: half the users
    /// provide labels).
    pub fn cohort(self) -> CohortSpec {
        match self {
            Workload::Central | Workload::Star => {
                CohortSpec { users: 16, points_per_class: 100, providers: 8, rate: 0.05 }
            }
            Workload::Fleet | Workload::Tree => {
                CohortSpec { users: 64, points_per_class: 20, providers: 32, rate: 0.2 }
            }
        }
    }

    /// PLOS hyperparameters, written out here. `central` and `star` use the
    /// accuracy figures' setting (λ = 40, 6 CCCP rounds of at most 30
    /// cutting rounds, 2 restarts, 2 refinement rounds, every tolerance at
    /// the library default, the QP's stagnation cutoff armed above 64
    /// constraints); `fleet` and `tree` use the `--quick` setting (the
    /// library's `PlosConfig::fast` tolerances and caps with λ = 40).
    /// Convergence tests stay on, as users run them, so a change that makes
    /// a solver stop sooner shows in `train_s` and one that stops it too
    /// soon shows in `accuracy`.
    pub fn config(self) -> PlosConfig {
        let figure = PlosConfig {
            lambda: 40.0,
            c_labeled: 100.0,
            c_unlabeled: 1.0,
            eps: 1e-3,
            max_cutting_rounds: 30,
            cccp_tol: 1e-3,
            max_cccp_rounds: 6,
            bias: Some(1.0),
            qp: QpSolverOptions {
                tol: 1e-10,
                max_sweeps: 10_000,
                stall_dim: 64,
                stall_every: 64,
                stall_rel_tol: 1e-5,
            },
            rho: 1.0,
            eps_abs: 1e-3,
            max_admm_iters: 60,
            balance: 0.5,
            restarts: 2,
            refine_rounds: 2,
            seed: 0,
        };
        match self {
            Workload::Central | Workload::Star => figure,
            Workload::Fleet | Workload::Tree => PlosConfig {
                eps: 1e-2,
                max_cutting_rounds: 25,
                cccp_tol: 1e-2,
                max_cccp_rounds: 5,
                qp: QpSolverOptions { tol: 1e-8, max_sweeps: 2000, ..figure.qp },
                eps_abs: 1e-2,
                max_admm_iters: 25,
                refine_rounds: 1,
                ..figure
            },
        }
    }

    /// Server retry windows. The fleet workloads widen them as the shard
    /// sweep does: one mux worker steps a whole shard before the next
    /// shard's first reply lands, which can outlast the production window
    /// on a busy host and would read as a lost quorum.
    pub fn fault_tolerance(self) -> FaultTolerance {
        let retry = match self {
            Workload::Fleet | Workload::Tree => RetryPolicy {
                recv_timeout: Duration::from_secs(10),
                max_retries: 2,
                backoff_base: Duration::from_secs(1),
                backoff_factor: 2.0,
                round_deadline: Duration::from_secs(90),
            },
            Workload::Central | Workload::Star => RetryPolicy {
                recv_timeout: Duration::from_secs(2),
                max_retries: 2,
                backoff_base: Duration::from_millis(500),
                backoff_factor: 2.0,
                round_deadline: Duration::from_secs(30),
            },
        };
        FaultTolerance { quorum_fraction: 1.0, retry, evict_after: 2 }
    }

    /// The fault plan: a straggler on the star's last device, nothing
    /// elsewhere.
    pub fn fault_plan(self, seed: u64) -> FaultPlan {
        match self {
            Workload::Star => {
                FaultPlan::seeded(seed).with_straggler(self.cohort().users - 1, STRAGGLER_LAG)
            }
            _ => FaultPlan::none(),
        }
    }
}

/// The masked cohort of `workload` for `seed`.
pub fn cohort(workload: Workload, seed: u64) -> MultiUserDataset {
    let spec = workload.cohort();
    let base = generate_synthetic(
        &SyntheticSpec {
            num_users: spec.users,
            points_per_class: spec.points_per_class,
            max_rotation: std::f64::consts::FRAC_PI_2,
            flip_prob: 0.1,
        },
        seed,
    );
    base.mask_labels(&LabelMask::providers(spec.providers, spec.rate), seed.wrapping_add(7))
}

/// Virtual devices per mux worker: enough that the worker count equals the
/// ambient pool size.
pub fn devices_per_worker(users: usize) -> usize {
    users.div_ceil(plos_exec::Pool::current().threads().max(1))
}

/// A constructed trainer, ready to fit.
enum Trainer {
    Central(CentralizedPlos),
    Distributed(Box<(DistributedPlos, FaultPlan)>),
}

/// Everything one fit produced that the ledger measures.
#[derive(Debug, Clone)]
pub struct Fit {
    /// When the fit call started.
    pub started: Instant,
    /// Wall clock of the fit call.
    pub train_s: f64,
    /// FNV-1a digest of the trained model.
    pub digest: u64,
    /// Overall accuracy on the cohort.
    pub accuracy: f64,
    /// Operations attempted: one fit (central) or one per gather round.
    pub ops: u64,
    /// Operations that failed: a round that closed short of the live
    /// roster or fired a retry.
    pub ops_failed: u64,
    /// Constraints the centralized trainer added over all CCCP rounds.
    pub constraints_added: Option<usize>,
    /// The distributed trainer's report.
    pub report: Option<DistributedReport>,
}

/// A trial that is set up and waiting to fit.
pub struct Prepared {
    workload: Workload,
    data: MultiUserDataset,
    trainer: Trainer,
    ckpt_dir: Option<PathBuf>,
    /// Cohort generation + masking + trainer construction, seconds.
    pub setup_s: f64,
}

/// Builds the cohort and the trainer. `ckpt_dir` is the directory the star
/// workload checkpoints into.
///
/// # Errors
///
/// An invalid configuration.
pub fn prepare(workload: Workload, seed: u64, ckpt_dir: PathBuf) -> Result<Prepared, CoreError> {
    let started = Instant::now();
    let data = cohort(workload, seed);
    let users = workload.cohort().users;
    let mut star_ckpt_dir = None;
    let trainer = if workload.distributed() {
        let mut trainer = DistributedPlos::try_new(workload.config())?
            .try_with_fault_tolerance(workload.fault_tolerance())?
            .with_runtime(DeviceRuntime::Multiplexed {
                devices_per_worker: devices_per_worker(users),
            });
        match workload {
            Workload::Star => {
                trainer = trainer.with_checkpointing(CheckpointPolicy::new(&ckpt_dir));
                star_ckpt_dir = Some(ckpt_dir);
            }
            Workload::Tree => {
                trainer = trainer.with_topology(Topology::Sharded(ShardSpec::new(TREE_SHARDS)));
            }
            Workload::Central | Workload::Fleet => {}
        }
        Trainer::Distributed(Box::new((trainer, workload.fault_plan(seed))))
    } else {
        Trainer::Central(CentralizedPlos::try_new(workload.config())?)
    };
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Prepared { workload, data, trainer, ckpt_dir: star_ckpt_dir, setup_s })
}

impl Prepared {
    /// The cohort being trained.
    pub fn data(&self) -> &MultiUserDataset {
        &self.data
    }

    /// Runs the fit and scores the model.
    ///
    /// # Errors
    ///
    /// The trainer's error.
    pub fn fit(&self) -> Result<Fit, CoreError> {
        let started = Instant::now();
        let outcome = match &self.trainer {
            Trainer::Central(trainer) => trainer
                .fit_detailed(&self.data)
                .map(|fit| (fit.model, Some(fit.constraints_added), None)),
            Trainer::Distributed(distributed) => {
                let (trainer, plan) = &**distributed;
                trainer.fit_with_faults(&self.data, plan).map(|(model, r)| (model, None, Some(r)))
            }
        };
        let train_s = started.elapsed().as_secs_f64();
        if let Some(dir) = &self.ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (model, constraints_added, report) = outcome?;
        let (ops, ops_failed) = match &report {
            None => (1, 0),
            Some(r) => (
                r.participation.len() as u64,
                r.participation.iter().filter(|p| p.replied < p.alive || p.retries > 0).count()
                    as u64,
            ),
        };
        Ok(Fit {
            started,
            train_s,
            digest: digest(&model),
            accuracy: accuracy(&model, &self.data, self.workload.cohort().providers),
            ops,
            ops_failed,
            constraints_added,
            report,
        })
    }
}

fn digest(model: &PersonalizedModel) -> u64 {
    model_digest(model.global_hyperplane(), model.personal_biases())
}

/// Overall accuracy on the cohort (Fig. 11), weighting the provider and
/// non-provider means by their user counts.
fn accuracy(model: &PersonalizedModel, data: &MultiUserDataset, providers: usize) -> f64 {
    let scores = score_predictions(data, &plos_predictions(model, data));
    scores.overall(providers, data.num_users() - providers)
}
