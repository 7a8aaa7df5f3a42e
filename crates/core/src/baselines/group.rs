//! The *Group* baseline: cluster similar users, one classifier per group.
//!
//! Pipeline (Sec. VI-A): hash each user's sensory data into `n = 128`
//! discrete buckets with the random-hyperplane algorithm, compare users by
//! the weighted Jaccard similarity of their bucket histograms, cluster users
//! into groups (spectral clustering, 3 clusters in the paper), then within
//! each group pool data/labels and train a group classifier — an SVM when
//! the group has labels of both classes, else k-means on the pooled data.

use crate::baselines::UserPredictions;
use crate::error::CoreError;
use plos_linalg::Vector;
use plos_ml::kmeans::KMeans;
use plos_ml::lsh::RandomHyperplaneHasher;
use plos_ml::similarity::similarity_matrix;
use plos_ml::spectral::spectral_clustering;
use plos_ml::svm::{LinearSvm, SvmModel, SvmParams};
use plos_sensing::dataset::MultiUserDataset;

/// Knobs of the *Group* baseline (paper values as defaults).
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// LSH hash bits; `2^bits` buckets (paper: 128 buckets → 7 bits).
    pub lsh_bits: usize,
    /// Number of user groups (paper: 3).
    pub num_groups: usize,
    /// SVM hyperparameters for group classifiers.
    pub svm: SvmParams,
    /// Seed for LSH hyperplanes and clustering.
    pub seed: u64,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig { lsh_bits: 7, num_groups: 3, svm: SvmParams::default(), seed: 0 }
    }
}

/// One group's pooled classifier.
#[derive(Debug, Clone)]
enum GroupModel {
    /// The group pooled labels of both classes.
    Svm(SvmModel),
    /// Unsupervised group: pooled k-means centroids (samples are assigned to
    /// the nearest centroid at prediction time).
    Centroids(Vec<Vector>),
}

/// Trained *Group* baseline.
#[derive(Debug, Clone)]
pub struct GroupBaseline {
    /// Group id per user.
    assignment: Vec<usize>,
    models: Vec<GroupModel>,
}

impl GroupBaseline {
    /// Trains the baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `num_groups` is 0 or exceeds
    /// the number of users, and [`CoreError::Ml`] if spectral clustering or
    /// any per-group SVM / k-means fit fails.
    pub fn fit(dataset: &MultiUserDataset, config: &GroupConfig) -> Result<Self, CoreError> {
        let _span = plos_obs::Span::enter("group_baseline_fit");
        let t_count = dataset.num_users();
        if config.num_groups < 1 || config.num_groups > t_count {
            return Err(CoreError::InvalidConfig {
                detail: format!("num_groups must be in 1..={t_count}, got {}", config.num_groups),
            });
        }

        // 1. LSH histograms per user, hashed concurrently (the hyperplanes
        // are fixed by the seed, so output is identical at any pool size).
        let pool = plos_exec::Pool::current();
        let hasher = RandomHyperplaneHasher::new(dataset.dim(), config.lsh_bits, config.seed);
        let histograms: Vec<Vec<f64>> =
            pool.par_map(dataset.users(), |_t, u| hasher.histogram(&u.features));

        // 2. Pairwise Jaccard similarity → spectral clustering.
        let affinity = similarity_matrix(&histograms);
        let assignment = spectral_clustering(&affinity, config.num_groups, config.seed)?;

        // 3. One classifier per group over pooled members; groups are
        // disjoint, so they fit concurrently (per-group k-means seeds depend
        // only on `g`).
        let group_ids: Vec<usize> = (0..config.num_groups).collect();
        let models = pool.par_map_indexed(&group_ids, |_i, &g| {
            let members: Vec<usize> =
                assignment.iter().enumerate().filter(|&(_, &a)| a == g).map(|(t, _)| t).collect();
            let mut xs: Vec<Vector> = Vec::new();
            let mut ys: Vec<i8> = Vec::new();
            let mut pooled: Vec<Vector> = Vec::new();
            for &t in &members {
                let user = dataset.user(t);
                pooled.extend(user.features.iter().cloned());
                for (i, obs) in user.observed.iter().enumerate() {
                    if let (Some(y), Some(x)) = (obs, user.features.get(i)) {
                        xs.push(x.clone());
                        ys.push(*y);
                    }
                }
            }
            let has_both = ys.contains(&1) && ys.contains(&-1);
            if has_both {
                Ok::<GroupModel, CoreError>(GroupModel::Svm(
                    LinearSvm::new(config.svm.clone()).fit(&xs, &ys)?,
                ))
            } else if pooled.is_empty() {
                // Empty group (spectral clustering may leave one): a
                // degenerate centroid model that maps everything to one
                // cluster.
                Ok(GroupModel::Centroids(vec![Vector::zeros(dataset.dim())]))
            } else {
                let k = 2.min(pooled.len());
                let result = KMeans::new(k).fit(&pooled, config.seed.wrapping_add(g as u64))?;
                Ok(GroupModel::Centroids(result.centroids))
            }
        })?;
        Ok(GroupBaseline { assignment, models })
    }

    /// Group id of each user.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.models.len()
    }

    /// Whether group `g` trained a supervised classifier. An out-of-range
    /// `g` names no group and therefore no supervised classifier: `false`.
    pub fn is_supervised(&self, g: usize) -> bool {
        matches!(self.models.get(g), Some(GroupModel::Svm(_)))
    }

    /// Predictions for every user's full sample set, using that user's group
    /// classifier.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` does not have as many users as the model was
    /// trained on.
    // Allowed: `assignment` entries are produced by spectral clustering with
    // `num_groups` clusters and `models` has exactly `num_groups` entries, so
    // `self.models[g]` is in bounds by construction.
    #[allow(clippy::indexing_slicing)]
    pub fn predict_all(&self, dataset: &MultiUserDataset) -> Vec<UserPredictions> {
        assert_eq!(dataset.num_users(), self.assignment.len(), "dataset/model user mismatch");
        dataset
            .users()
            .iter()
            .zip(&self.assignment)
            .map(|(user, &g)| match &self.models[g] {
                GroupModel::Svm(svm) => UserPredictions::Labels(svm.predict_batch(&user.features)),
                GroupModel::Centroids(centroids) => {
                    let clusters = user
                        .features
                        .iter()
                        .map(|x| {
                            centroids
                                .iter()
                                .enumerate()
                                .min_by(|(_, a), (_, b)| {
                                    x.distance_squared(a).total_cmp(&x.distance_squared(b))
                                })
                                .map_or(0, |(i, _)| i)
                        })
                        .collect();
                    UserPredictions::Clusters(clusters)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plos_sensing::dataset::LabelMask;
    use plos_sensing::synthetic::{generate_synthetic, SyntheticSpec};

    fn rotated_cohort() -> MultiUserDataset {
        // 6 users spread over a wide rotation range: the extremes belong in
        // different groups.
        let spec = SyntheticSpec {
            num_users: 6,
            points_per_class: 30,
            max_rotation: std::f64::consts::PI * 0.9,
            flip_prob: 0.0,
        };
        generate_synthetic(&spec, 17).mask_labels(&LabelMask::providers(4, 0.3), 3)
    }

    #[test]
    fn groups_users_and_predicts() {
        let d = rotated_cohort();
        let cfg = GroupConfig { num_groups: 3, ..Default::default() };
        let group = GroupBaseline::fit(&d, &cfg).unwrap();
        assert_eq!(group.assignment().len(), 6);
        assert_eq!(group.num_groups(), 3);
        assert!(group.assignment().iter().all(|&g| g < 3));
        let preds = group.predict_all(&d);
        assert_eq!(preds.len(), 6);
        for (u, p) in d.users().iter().zip(&preds) {
            assert_eq!(p.len(), u.num_samples());
        }
    }

    #[test]
    fn similar_users_share_a_group() {
        // Adjacent rotations (users 0 and 1) are far more similar than the
        // extremes (users 0 and 5).
        let d = rotated_cohort();
        let cfg = GroupConfig { num_groups: 2, ..Default::default() };
        let group = GroupBaseline::fit(&d, &cfg).unwrap();
        let a = group.assignment();
        assert_ne!(a[0], a[5], "extreme rotations should split: {a:?}");
    }

    #[test]
    fn beats_chance_with_group_labels() {
        let d = rotated_cohort();
        let group = GroupBaseline::fit(&d, &GroupConfig::default()).unwrap();
        let preds = group.predict_all(&d);
        let mean_acc: f64 =
            d.users().iter().zip(&preds).map(|(u, p)| p.accuracy(&u.truth)).sum::<f64>() / 6.0;
        assert!(mean_acc > 0.7, "mean accuracy {mean_acc}");
    }

    #[test]
    fn unsupervised_group_uses_clusters() {
        // No labels anywhere → every group falls back to k-means.
        let spec =
            SyntheticSpec { num_users: 4, points_per_class: 20, max_rotation: 0.3, flip_prob: 0.0 };
        let d = generate_synthetic(&spec, 23);
        let cfg = GroupConfig { num_groups: 2, ..Default::default() };
        let group = GroupBaseline::fit(&d, &cfg).unwrap();
        for g in 0..2 {
            assert!(!group.is_supervised(g));
        }
        let preds = group.predict_all(&d);
        for p in &preds {
            assert!(matches!(p, UserPredictions::Clusters(_)));
        }
    }

    #[test]
    fn single_group_equals_pooling_everyone() {
        let d = rotated_cohort();
        let cfg = GroupConfig { num_groups: 1, ..Default::default() };
        let group = GroupBaseline::fit(&d, &cfg).unwrap();
        assert!(group.assignment().iter().all(|&g| g == 0));
        assert!(group.is_supervised(0));
    }

    #[test]
    fn bad_num_groups_is_an_error_not_a_panic() {
        let d = rotated_cohort();
        for bad in [0, 100] {
            let cfg = GroupConfig { num_groups: bad, ..Default::default() };
            let err = GroupBaseline::fit(&d, &cfg).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("num_groups")),
                "num_groups {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn out_of_range_group_is_not_supervised() {
        let d = rotated_cohort();
        let group = GroupBaseline::fit(&d, &GroupConfig::default()).unwrap();
        assert!(!group.is_supervised(usize::MAX));
    }
}
