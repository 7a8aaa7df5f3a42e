//! Experiment harness: the paper's evaluation protocol.
//!
//! Sec. VI-A: "we apply the learned hyperplanes on the data and calculate
//! the difference between the labels assigned by the hyperplanes and the
//! ground truth labels. We report the accuracy on users with labels and
//! without labels separately." Unsupervised outputs (clustering fallbacks)
//! are scored "under the best class assignments".

use crate::baselines::{AllBaseline, GroupBaseline, GroupConfig, SingleBaseline, UserPredictions};
use crate::centralized::CentralizedPlos;
use crate::config::PlosConfig;
use crate::error::CoreError;
use crate::model::PersonalizedModel;
use plos_ml::svm::SvmParams;
use plos_sensing::dataset::MultiUserDataset;

/// Mean per-user accuracy, split by user type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracies {
    /// Mean accuracy over users who provided labels (`None` when the cohort
    /// has no providers).
    pub labeled_users: Option<f64>,
    /// Mean accuracy over users who provided no labels (`None` when every
    /// user is a provider).
    pub unlabeled_users: Option<f64>,
}

impl Accuracies {
    /// Mean accuracy over all users regardless of type.
    pub fn overall(&self, num_labeled: usize, num_unlabeled: usize) -> f64 {
        let total = (num_labeled + num_unlabeled) as f64;
        let l = self.labeled_users.unwrap_or(0.0) * num_labeled as f64;
        let u = self.unlabeled_users.unwrap_or(0.0) * num_unlabeled as f64;
        if total == 0.0 {
            0.0
        } else {
            (l + u) / total
        }
    }
}

/// Scores per-user predictions against ground truth, averaged separately
/// over label providers and non-providers.
///
/// # Panics
///
/// Panics if `predictions.len() != dataset.num_users()`.
pub fn score_predictions(
    dataset: &MultiUserDataset,
    predictions: &[UserPredictions],
) -> Accuracies {
    assert_eq!(predictions.len(), dataset.num_users(), "one prediction set per user required");
    let mut labeled = Vec::new();
    let mut unlabeled = Vec::new();
    for (t, (user, preds)) in dataset.users().iter().zip(predictions).enumerate() {
        let acc = preds.accuracy(&user.truth);
        if dataset.user(t).is_provider() {
            labeled.push(acc);
        } else {
            unlabeled.push(acc);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    };
    Accuracies { labeled_users: mean(&labeled), unlabeled_users: mean(&unlabeled) }
}

/// Predictions of a trained PLOS model on every user's full sample set.
pub fn plos_predictions(
    model: &PersonalizedModel,
    dataset: &MultiUserDataset,
) -> Vec<UserPredictions> {
    // Scoring each user is independent; results return in user order.
    let pool = plos_exec::Pool::current();
    pool.par_map(dataset.users(), |t, u| {
        UserPredictions::Labels(model.predict_batch(t, &u.features))
    })
}

/// One experiment's accuracy for the four methods the paper compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodScores {
    /// PLOS (centralized trainer).
    pub plos: Accuracies,
    /// The *All* baseline.
    pub all: Accuracies,
    /// The *Group* baseline.
    pub group: Accuracies,
    /// The *Single* baseline.
    pub single: Accuracies,
}

/// Harness configuration bundling every method's hyperparameters.
#[derive(Debug, Clone, Default)]
pub struct EvalConfig {
    /// PLOS hyperparameters.
    pub plos: PlosConfig,
    /// Group-baseline knobs.
    pub group: GroupConfig,
    /// SVM hyperparameters for the *All*/*Single* baselines.
    pub svm: SvmParams,
    /// Seed for baseline randomness (k-means restarts etc.).
    pub seed: u64,
}

/// Trains and scores all four methods on one masked dataset — one point of
/// one paper figure.
///
/// # Errors
///
/// Propagates the first training failure of any of the four methods.
pub fn compare_methods(
    dataset: &MultiUserDataset,
    config: &EvalConfig,
) -> Result<MethodScores, CoreError> {
    let _span = plos_obs::Span::enter("compare_methods");
    let plos_model = CentralizedPlos::try_new(config.plos.clone())?.fit(dataset)?;
    let plos = score_predictions(dataset, &plos_predictions(&plos_model, dataset));

    let all_model = AllBaseline::fit_with(dataset, &config.svm)?;
    let all = score_predictions(dataset, &all_model.predict_all(dataset));

    let group_model = GroupBaseline::fit(dataset, &config.group)?;
    let group = score_predictions(dataset, &group_model.predict_all(dataset));

    let single_model = SingleBaseline::fit_with(dataset, &config.svm, config.seed)?;
    let single = score_predictions(dataset, &single_model.predict_all(dataset));

    Ok(MethodScores { plos, all, group, single })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_linalg::Vector;
    use plos_sensing::dataset::{LabelMask, UserData};
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    #[test]
    fn scoring_splits_user_types() {
        let mut u0 =
            UserData::new(vec![Vector::from(vec![1.0]), Vector::from(vec![-1.0])], vec![1, -1]);
        u0.observed[0] = Some(1);
        let u1 =
            UserData::new(vec![Vector::from(vec![1.0]), Vector::from(vec![-1.0])], vec![1, -1]);
        let d = MultiUserDataset::new(vec![u0, u1]);
        let preds = vec![
            UserPredictions::Labels(vec![1, -1]), // provider: 100%
            UserPredictions::Labels(vec![1, 1]),  // non-provider: 50%
        ];
        let acc = score_predictions(&d, &preds);
        assert_eq!(acc.labeled_users, Some(1.0));
        assert_eq!(acc.unlabeled_users, Some(0.5));
        assert!((acc.overall(1, 1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn all_providers_yields_no_unlabeled_score() {
        let spec = SyntheticSpec { num_users: 2, points_per_class: 10, ..Default::default() };
        let d = generate_synthetic(&spec, 0).mask_labels(&LabelMask::providers(2, 0.5), 0);
        let preds: Vec<UserPredictions> =
            d.users().iter().map(|u| UserPredictions::Labels(u.truth.clone())).collect();
        let acc = score_predictions(&d, &preds);
        assert_eq!(acc.labeled_users, Some(1.0));
        assert_eq!(acc.unlabeled_users, None);
    }

    #[test]
    fn compare_methods_runs_all_four() {
        let spec = SyntheticSpec {
            num_users: 4,
            points_per_class: 25,
            max_rotation: std::f64::consts::FRAC_PI_4,
            flip_prob: 0.05,
        };
        let d = generate_synthetic(&spec, 3).mask_labels(&LabelMask::providers(2, 0.2), 1);
        let config = EvalConfig { plos: PlosConfig::fast(), ..Default::default() };
        let scores = compare_methods(&d, &config).unwrap();
        for acc in [scores.plos, scores.all, scores.group, scores.single] {
            let l = acc.labeled_users.expect("providers exist");
            let u = acc.unlabeled_users.expect("non-providers exist");
            assert!((0.0..=1.0).contains(&l));
            assert!((0.0..=1.0).contains(&u));
        }
        // The paper's headline: PLOS is at least competitive with every
        // baseline on this mild-rotation cohort.
        let plos_overall = scores.plos.overall(2, 2);
        assert!(plos_overall > 0.75, "PLOS overall {plos_overall}");
    }

    #[test]
    #[should_panic(expected = "one prediction set per user")]
    fn prediction_count_checked() {
        let spec = SyntheticSpec { num_users: 2, points_per_class: 5, ..Default::default() };
        let d = generate_synthetic(&spec, 0);
        let _ = score_predictions(&d, &[]);
    }
}
