// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Classical machine-learning substrate for the PLOS reproduction.
//!
//! Everything the paper's *baselines* and evaluation pipeline need, built on
//! `plos-linalg` (with `plos-exec` for the pairwise similarity matrix):
//!
//! * [`svm`] — linear SVM trained by dual coordinate descent (the *All* and
//!   *Single* baselines, and the initializer for PLOS itself);
//! * [`kmeans`] — k-means++ clustering (the *Single* baseline for users with
//!   no labels, and the final step of spectral clustering);
//! * [`spectral`] — normalized spectral clustering (the *Group* baseline);
//! * [`lsh`] — sign-random-projection hashing of sensory data into discrete
//!   buckets (the *Group* baseline's user-similarity sketch, Sec. VI-A);
//! * [`similarity`] — histogram Jaccard similarity `Σ min / Σ max`;
//! * [`matching`] — Hungarian assignment for evaluating clusterings under
//!   the best cluster-to-class matching;
//! * [`metrics`] — accuracy.

pub mod error;
pub mod kmeans;
pub mod lsh;
pub mod matching;
pub mod metrics;
pub mod similarity;
pub mod spectral;
pub mod svm;

pub use error::MlError;
pub use kmeans::{KMeans, KMeansResult};
pub use lsh::RandomHyperplaneHasher;
pub use matching::best_matching_accuracy;
pub use metrics::accuracy;
pub use similarity::histogram_jaccard;
pub use spectral::spectral_clustering;
pub use svm::{LinearSvm, SvmModel, SvmParams};
