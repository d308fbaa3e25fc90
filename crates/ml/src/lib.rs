//! # amoeba-ml
//!
//! Classical machine-learning substrate for the Amoeba (CoNEXT'23)
//! reproduction — the models the paper imports from scikit-learn:
//!
//! * [`tree::DecisionTree`] — CART with Gini impurity and feature
//!   importances (the DT censor and the Figure 4 experiment);
//! * [`forest::RandomForest`] — bagging + feature subsampling (RF censor);
//! * [`svm::Svm`] — simplified-SMO SVM with RBF kernel (the CUMUL censor);
//! * [`scale::StandardScaler`] — feature standardisation.

#![warn(missing_docs)]

pub mod forest;
pub mod scale;
pub mod svm;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use scale::StandardScaler;
pub use svm::{Kernel, Svm, SvmConfig};
pub use tree::{DecisionTree, TreeConfig};
