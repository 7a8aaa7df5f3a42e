//! Multi-user dataset containers and label masking.
//!
//! PLOS's problem setting (Sec. III): `T` users each hold feature vectors
//! `x_{it}`; some users label part of their data ("label providers"), the
//! rest provide none. [`MultiUserDataset`] carries both the ground truth
//! (used only for evaluation) and the *observed* labels the learner may see;
//! [`LabelMask`] reproduces the paper's experimental knobs — the number of
//! providers and the labeling rate — with class-balanced random selection
//! ("approximately 3 samples for each activity", Sec. VI-B).

use plos_linalg::Vector;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One user's data: features, ground-truth labels, and observed labels.
#[derive(Debug, Clone, PartialEq)]
pub struct UserData {
    /// Feature vectors, all of one dimension.
    pub features: Vec<Vector>,
    /// Ground-truth labels in `{−1, +1}`; used only for evaluation.
    pub truth: Vec<i8>,
    /// Labels visible to the learner; `None` = unlabeled.
    pub observed: Vec<Option<i8>>,
}

impl UserData {
    /// Creates a fully *unlabeled* user from features and ground truth.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, features are ragged/empty, or labels are
    /// not ±1.
    pub fn new(features: Vec<Vector>, truth: Vec<i8>) -> Self {
        assert!(!features.is_empty(), "a user must have at least one sample");
        assert_eq!(features.len(), truth.len(), "features/labels length mismatch");
        let d = features.first().map_or(0, Vector::len);
        assert!(d > 0, "features must be non-empty vectors");
        assert!(features.iter().all(|f| f.len() == d), "ragged features");
        assert!(truth.iter().all(|&y| y == 1 || y == -1), "labels must be ±1");
        let observed = vec![None; truth.len()];
        UserData { features, truth, observed }
    }

    /// Number of samples `m_t`.
    pub fn num_samples(&self) -> usize {
        self.features.len()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vector::len)
    }

    /// Number of observed labels `l_t`.
    pub fn num_labeled(&self) -> usize {
        self.observed.iter().filter(|l| l.is_some()).count()
    }

    /// Whether this user provides any labels.
    pub fn is_provider(&self) -> bool {
        self.num_labeled() > 0
    }
}

/// A cohort of users for one PLOS task.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiUserDataset {
    users: Vec<UserData>,
}

impl MultiUserDataset {
    /// Creates a dataset, validating that all users share a feature
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if `users` is empty or dimensions differ across users.
    pub fn new(users: Vec<UserData>) -> Self {
        assert!(!users.is_empty(), "dataset must contain at least one user");
        let d = users.first().map_or(0, UserData::dim);
        assert!(users.iter().all(|u| u.dim() == d), "users disagree on feature dimension");
        MultiUserDataset { users }
    }

    /// Number of users `T`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Shared feature dimension.
    pub fn dim(&self) -> usize {
        self.users.first().map_or(0, UserData::dim)
    }

    /// Borrows the users.
    pub fn users(&self) -> &[UserData] {
        &self.users
    }

    /// Borrows one user.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    // Allowed: a documented panicking accessor delegating to the slice
    // bounds check.
    #[allow(clippy::indexing_slicing)]
    pub fn user(&self, t: usize) -> &UserData {
        &self.users[t]
    }

    /// Indices of users that provide at least one label.
    pub fn providers(&self) -> Vec<usize> {
        self.users.iter().enumerate().filter(|(_, u)| u.is_provider()).map(|(t, _)| t).collect()
    }

    /// Indices of users that provide no labels.
    pub fn non_providers(&self) -> Vec<usize> {
        self.users.iter().enumerate().filter(|(_, u)| !u.is_provider()).map(|(t, _)| t).collect()
    }

    /// Returns a copy with observed labels assigned according to `mask`.
    ///
    /// Providers are drawn uniformly at random; each provider reveals a
    /// class-balanced random subset of its ground-truth labels. Existing
    /// observed labels are discarded first, so masking is idempotent in
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mask.num_providers` exceeds the number of users or
    /// `mask.rate` is outside `(0, 1]`.
    pub fn mask_labels(&self, mask: &LabelMask, seed: u64) -> MultiUserDataset {
        assert!(
            mask.num_providers <= self.num_users(),
            "cannot select {} providers among {} users",
            mask.num_providers,
            self.num_users()
        );
        assert!(
            mask.rate > 0.0 && mask.rate <= 1.0,
            "labeling rate must be in (0,1], got {}",
            mask.rate
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut user_order: Vec<usize> = (0..self.num_users()).collect();
        user_order.shuffle(&mut rng);
        user_order.truncate(mask.num_providers);

        let mut users = self.users.clone();
        for u in &mut users {
            u.observed.iter_mut().for_each(|l| *l = None);
        }
        for &t in &user_order {
            let Some(user) = users.get_mut(t) else { continue };
            let m = user.num_samples();
            let want = ((mask.rate * m as f64).round() as usize).clamp(1, m);
            // Class-balanced selection: split the budget between classes.
            let mut pos: Vec<usize> = label_indices(&user.truth, 1);
            let mut neg: Vec<usize> = label_indices(&user.truth, -1);
            pos.shuffle(&mut rng);
            neg.shuffle(&mut rng);
            let take_pos = (want / 2 + want % 2).min(pos.len());
            let take_neg = (want - take_pos).min(neg.len());
            // If one class is short, backfill from the other.
            let shortfall = want - take_pos - take_neg;
            let extra_pos = shortfall.min(pos.len() - take_pos);
            reveal(user, pos.iter().take(take_pos + extra_pos));
            reveal(user, neg.iter().take(take_neg));
        }
        MultiUserDataset { users }
    }
}

/// Indices of samples whose ground-truth label equals `label`.
fn label_indices(truth: &[i8], label: i8) -> Vec<usize> {
    truth.iter().enumerate().filter(|(_, &y)| y == label).map(|(i, _)| i).collect()
}

/// Copies ground-truth labels at `indices` into the observed set.
fn reveal<'a>(user: &mut UserData, indices: impl Iterator<Item = &'a usize>) {
    for &i in indices {
        if let (Some(slot), Some(&y)) = (user.observed.get_mut(i), user.truth.get(i)) {
            *slot = Some(y);
        }
    }
}

/// Label-visibility configuration: how many users label, and how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelMask {
    /// Number of users that provide labels.
    pub num_providers: usize,
    /// Fraction of each provider's samples that get labeled, in `(0, 1]`.
    pub rate: f64,
}

impl LabelMask {
    /// Convenience constructor.
    pub fn providers(num_providers: usize, rate: f64) -> Self {
        LabelMask { num_providers, rate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_user(n: usize, dim: usize, bias: f64) -> UserData {
        let features: Vec<Vector> =
            (0..n).map(|i| (0..dim).map(|j| bias + (i * dim + j) as f64).collect()).collect();
        let truth: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        UserData::new(features, truth)
    }

    fn toy_dataset(users: usize, n: usize) -> MultiUserDataset {
        MultiUserDataset::new((0..users).map(|u| toy_user(n, 3, u as f64)).collect())
    }

    #[test]
    fn user_accessors() {
        let u = toy_user(6, 3, 0.0);
        assert_eq!(u.num_samples(), 6);
        assert_eq!(u.dim(), 3);
        assert_eq!(u.num_labeled(), 0);
        assert!(!u.is_provider());
    }

    #[test]
    fn dataset_accessors() {
        let d = toy_dataset(4, 6);
        assert_eq!(d.num_users(), 4);
        assert_eq!(d.dim(), 3);
        assert!(d.providers().is_empty());
        assert_eq!(d.non_providers().len(), 4);
    }

    #[test]
    fn mask_selects_exact_provider_count() {
        let d = toy_dataset(10, 20);
        let masked = d.mask_labels(&LabelMask::providers(4, 0.5), 7);
        assert_eq!(masked.providers().len(), 4);
        assert_eq!(masked.non_providers().len(), 6);
    }

    #[test]
    fn mask_rate_controls_label_count() {
        let d = toy_dataset(3, 20);
        let masked = d.mask_labels(&LabelMask::providers(3, 0.5), 3);
        for t in masked.providers() {
            assert_eq!(masked.user(t).num_labeled(), 10);
        }
    }

    #[test]
    fn mask_is_class_balanced() {
        let d = toy_dataset(2, 40);
        let masked = d.mask_labels(&LabelMask::providers(2, 0.2), 11);
        for t in masked.providers() {
            let u = masked.user(t);
            let pos = u.observed.iter().flatten().filter(|&&y| y == 1).count();
            let neg = u.observed.iter().flatten().filter(|&&y| y == -1).count();
            assert_eq!(pos + neg, 8);
            assert!((pos as i64 - neg as i64).abs() <= 1, "pos={pos} neg={neg}");
        }
    }

    #[test]
    fn observed_labels_match_truth() {
        let d = toy_dataset(5, 12);
        let masked = d.mask_labels(&LabelMask::providers(5, 0.5), 0);
        for u in masked.users() {
            for (i, l) in u.observed.iter().enumerate() {
                if let Some(y) = l {
                    assert_eq!(*y, u.truth[i]);
                }
            }
        }
    }

    #[test]
    fn mask_is_deterministic_per_seed() {
        let d = toy_dataset(6, 10);
        let a = d.mask_labels(&LabelMask::providers(3, 0.3), 5);
        let b = d.mask_labels(&LabelMask::providers(3, 0.3), 5);
        assert_eq!(a, b);
        let c = d.mask_labels(&LabelMask::providers(3, 0.3), 6);
        assert_ne!(a, c);
    }

    #[test]
    fn tiny_rate_still_labels_at_least_one() {
        let d = toy_dataset(2, 10);
        let masked = d.mask_labels(&LabelMask::providers(2, 0.01), 0);
        for t in masked.providers() {
            assert!(masked.user(t).num_labeled() >= 1);
        }
    }

    #[test]
    fn remasking_discards_previous_labels() {
        let d = toy_dataset(4, 10);
        let once = d.mask_labels(&LabelMask::providers(4, 1.0), 0);
        let twice = once.mask_labels(&LabelMask::providers(1, 0.1), 1);
        assert_eq!(twice.providers().len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn too_many_providers_panics() {
        let d = toy_dataset(2, 4);
        let _ = d.mask_labels(&LabelMask::providers(3, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "labels must be ±1")]
    fn bad_truth_labels_panic() {
        let _ = UserData::new(vec![Vector::from(vec![1.0])], vec![0]);
    }

    #[test]
    #[should_panic(expected = "disagree on feature dimension")]
    fn mixed_dims_panic() {
        let _ = MultiUserDataset::new(vec![toy_user(2, 3, 0.0), toy_user(2, 4, 0.0)]);
    }
}
