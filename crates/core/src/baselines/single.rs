//! The *Single* baseline: every user learns alone.
//!
//! "Each user locally conducts classification/clustering based on only his
//! own data. If a user has labels, then an SVM classifier is trained from
//! the labeled samples. Otherwise, the k-means algorithm is applied to
//! derive the clusters" — evaluated "under the best class assignments"
//! (Sec. VI-A).

use crate::baselines::UserPredictions;
use crate::error::CoreError;
use plos_ml::kmeans::KMeans;
use plos_ml::svm::{LinearSvm, SvmModel, SvmParams};
use plos_sensing::dataset::MultiUserDataset;

/// One user's locally trained predictor.
#[derive(Debug, Clone)]
enum LocalModel {
    /// Supervised: the user had labels (of at least one class).
    Svm(SvmModel),
    /// Unsupervised fallback: precomputed cluster assignments over the
    /// user's own samples.
    Clusters(Vec<usize>),
}

/// Trained *Single* baseline: a vector of independent per-user models.
#[derive(Debug, Clone)]
pub struct SingleBaseline {
    models: Vec<LocalModel>,
}

impl SingleBaseline {
    /// Trains each user independently. Users whose labels cover both classes
    /// get an SVM over their labeled samples; everyone else is clustered
    /// with k-means (`k = 2`, seeded deterministically).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if any per-user SVM or k-means fit fails
    /// (e.g. a user with no samples at all).
    pub fn fit(dataset: &MultiUserDataset, seed: u64) -> Result<Self, CoreError> {
        Self::fit_with(dataset, &SvmParams::default(), seed)
    }

    /// Trains with explicit SVM hyperparameters.
    ///
    /// # Errors
    ///
    /// See [`SingleBaseline::fit`].
    pub fn fit_with(
        dataset: &MultiUserDataset,
        params: &SvmParams,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let _span = plos_obs::Span::enter("single_baseline_fit");
        // Users train independently (that is the whole point of *Single*),
        // so fit them concurrently; per-user k-means seeds depend only on
        // `t`, and results return in user order, so the trained model is
        // identical at any pool size.
        let pool = plos_exec::Pool::current();
        let models = pool.par_map_indexed(dataset.users(), |t, user| {
            let mut xs = Vec::new();
            let mut ys: Vec<i8> = Vec::new();
            for (i, obs) in user.observed.iter().enumerate() {
                if let (Some(y), Some(x)) = (obs, user.features.get(i)) {
                    xs.push(x.clone());
                    ys.push(*y);
                }
            }
            let has_both = ys.contains(&1) && ys.contains(&-1);
            if has_both {
                Ok::<LocalModel, CoreError>(LocalModel::Svm(
                    LinearSvm::new(params.clone()).fit(&xs, &ys)?,
                ))
            } else {
                let k = 2.min(user.features.len());
                let clusters = KMeans::new(k).fit(&user.features, seed.wrapping_add(t as u64))?;
                Ok(LocalModel::Clusters(clusters.assignments))
            }
        })?;
        Ok(SingleBaseline { models })
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.models.len()
    }

    /// Whether user `t` trained a supervised model. An out-of-range `t`
    /// names no user and therefore no supervised model: `false`.
    pub fn is_supervised(&self, t: usize) -> bool {
        matches!(self.models.get(t), Some(LocalModel::Svm(_)))
    }

    /// Predictions for every user's full sample set.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` does not have as many users as the model was
    /// trained on.
    pub fn predict_all(&self, dataset: &MultiUserDataset) -> Vec<UserPredictions> {
        assert_eq!(dataset.num_users(), self.models.len(), "dataset/model user mismatch");
        dataset
            .users()
            .iter()
            .zip(&self.models)
            .map(|(user, model)| match model {
                LocalModel::Svm(svm) => UserPredictions::Labels(svm.predict_batch(&user.features)),
                LocalModel::Clusters(assignments) => UserPredictions::Clusters(assignments.clone()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn data(providers: usize, rate: f64) -> MultiUserDataset {
        let spec = SyntheticSpec {
            num_users: 4,
            points_per_class: 30,
            max_rotation: std::f64::consts::FRAC_PI_2,
            flip_prob: 0.0,
        };
        generate_synthetic(&spec, 6).mask_labels(&LabelMask::providers(providers, rate), 1)
    }

    #[test]
    fn providers_get_svms_others_get_clusters() {
        let d = data(2, 0.3);
        let single = SingleBaseline::fit(&d, 0).unwrap();
        assert_eq!(single.num_users(), 4);
        let supervised: usize = (0..4).filter(|&t| single.is_supervised(t)).count();
        assert_eq!(supervised, 2);
        let preds = single.predict_all(&d);
        for (t, p) in preds.iter().enumerate() {
            match (single.is_supervised(t), p) {
                (true, UserPredictions::Labels(_)) => {}
                (false, UserPredictions::Clusters(_)) => {}
                other => panic!("mismatched prediction kind: {other:?}"),
            }
        }
    }

    #[test]
    fn rich_labels_give_high_per_user_accuracy() {
        let d = data(4, 0.8);
        let single = SingleBaseline::fit(&d, 0).unwrap();
        let preds = single.predict_all(&d);
        for (u, p) in d.users().iter().zip(&preds) {
            assert!(p.accuracy(&u.truth) > 0.85, "accuracy {}", p.accuracy(&u.truth));
        }
    }

    #[test]
    fn unlabeled_users_cluster_above_chance_but_poorly() {
        // The paper's Fig. 9b/10b shows Single pinned near the bottom on
        // unlabeled users: k-means on the strongly elongated Gaussians
        // prefers splitting along the long axis, not between the classes.
        let d = data(0, 0.5).mask_labels(&LabelMask::providers(1, 0.3), 2);
        let single = SingleBaseline::fit(&d, 3).unwrap();
        let preds = single.predict_all(&d);
        for t in d.non_providers() {
            let acc = preds[t].accuracy(&d.user(t).truth);
            assert!(acc >= 0.5, "matching accuracy is at least chance: {acc}");
            assert!(acc <= 1.0);
        }
    }

    #[test]
    fn sparse_labels_hurt_single_more_than_rich_labels() {
        let sparse = data(4, 0.07);
        let rich = data(4, 0.8);
        let acc_of = |d: &MultiUserDataset| {
            let preds = SingleBaseline::fit(d, 1).unwrap().predict_all(d);
            d.users().iter().zip(&preds).map(|(u, p)| p.accuracy(&u.truth)).sum::<f64>() / 4.0
        };
        assert!(acc_of(&rich) >= acc_of(&sparse), "more labels should not hurt Single");
    }

    #[test]
    fn single_class_labels_fall_back_to_clustering() {
        // Force a user whose observed labels are all +1.
        let spec = SyntheticSpec { num_users: 1, points_per_class: 20, ..Default::default() };
        let mut d = generate_synthetic(&spec, 9);
        let mut users: Vec<_> = d.users().to_vec();
        // Label two positive samples only.
        let pos_idx: Vec<usize> =
            (0..users[0].truth.len()).filter(|&i| users[0].truth[i] == 1).collect();
        users[0].observed[pos_idx[0]] = Some(1);
        users[0].observed[pos_idx[1]] = Some(1);
        d = MultiUserDataset::new(users);
        let single = SingleBaseline::fit(&d, 0).unwrap();
        assert!(!single.is_supervised(0), "one-class labels cannot train an SVM");
    }
}
