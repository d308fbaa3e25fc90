//! The censor abstraction: a black box that scores flows.
//!
//! Per the threat model (§2), the attacker observes only binary decisions.
//! [`Censor`] is that oracle: `score` returns P(sensitive) in `[0, 1]` and
//! [`Censor::blocks`] thresholds it at 0.5. All implementations are
//! `Send + Sync` so the RL core can query them from parallel rollout
//! workers.
//!
//! Polarity note (DESIGN.md §5.1): the paper's decision function
//! `C(y) = 1 ⇔ allowed` is expressed here as `blocks = score ≥ 0.5` with
//! *score = P(sensitive)*; an adversarial flow succeeds when
//! `blocks == false`.

use amoeba_nn::{Forward, Matrix};
use amoeba_traffic::{Flow, Layer};

/// The shared numeric scoring path: the per-flow probability of the NN
/// and CUMUL censors is one [`Forward`] evaluation over that family's
/// numeric representation (position-major rows for the NN censors,
/// cumulative features for CUMUL). Centralising it here keeps those
/// `Censor::score` impls free of duplicated forward plumbing; DT and RF
/// score their feature row directly ([`Censor::score_features`]).
pub(crate) fn score_row(net: &dyn Forward, row: &[f32]) -> f32 {
    let x = Matrix::from_vec(1, row.len(), row.to_vec());
    net.forward(&x)[(0, 0)]
}

/// A trained censoring classifier.
pub trait Censor: Send + Sync {
    /// P(flow is sensitive / tunnelled) in `[0, 1]`.
    ///
    /// Traditional models (DT/RF/CUMUL) return leaf probabilities or
    /// logistic-squashed margins; NN models return sigmoid outputs.
    fn score(&self, flow: &Flow) -> f32;

    /// The gateway's blocking decision for this (possibly partial) flow.
    fn blocks(&self, flow: &Flow) -> bool {
        self.score(flow) >= 0.5
    }

    /// Model family identifier.
    fn kind(&self) -> CensorKind;

    /// The observation layer of the 166-feature vector
    /// ([`amoeba_traffic::extract_features`]) this censor scores, when
    /// its score is a function of that vector alone. Streaming callers
    /// then keep an [`amoeba_traffic::FeatureStream`] per flow and call
    /// [`Censor::score_features`] instead of re-extracting every prefix.
    fn feature_layer(&self) -> Option<Layer> {
        None
    }

    /// The score of one 166-feature row, bit-identical to
    /// [`Censor::score`] on the flow the row was extracted from on
    /// [`Censor::feature_layer`].
    ///
    /// # Panics
    /// The provided method panics: only censors whose `feature_layer` is
    /// `Some` score rows.
    fn score_features(&self, _row: &[f32]) -> f32 {
        panic!("{} censor does not score feature rows", self.kind())
    }
}

/// The six classifier families evaluated in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CensorKind {
    /// Stacked Denoising Autoencoder (MLP encoder + classifier head).
    Sdae,
    /// Deep Fingerprinting (1-D CNN).
    Df,
    /// Multi-layer LSTM over raw sequences.
    Lstm,
    /// CART decision tree over 166 hand-crafted features.
    Dt,
    /// Random forest over 166 hand-crafted features.
    Rf,
    /// SVM-RBF over CUMUL cumulative traces.
    Cumul,
}

impl CensorKind {
    /// All kinds, in the paper's Table 1 row order.
    pub const ALL: [CensorKind; 6] = [
        CensorKind::Sdae,
        CensorKind::Df,
        CensorKind::Lstm,
        CensorKind::Dt,
        CensorKind::Rf,
        CensorKind::Cumul,
    ];

    /// Whether the model is an NN with usable gradients (white-box attacks
    /// in Table 1 are N/A for the others).
    pub fn is_differentiable(&self) -> bool {
        matches!(self, CensorKind::Sdae | CensorKind::Df | CensorKind::Lstm)
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            CensorKind::Sdae => "SDAE",
            CensorKind::Df => "DF",
            CensorKind::Lstm => "LSTM",
            CensorKind::Dt => "DT",
            CensorKind::Rf => "RF",
            CensorKind::Cumul => "CUMUL",
        }
    }
}

impl std::fmt::Display for CensorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A censor with a fixed decision: useful for tests and reward-masking
/// plumbing.
#[derive(Debug, Clone, Copy)]
pub struct ConstantCensor {
    /// The score returned for every flow.
    pub fixed_score: f32,
    /// Reported kind.
    pub as_kind: CensorKind,
}

impl Censor for ConstantCensor {
    fn score(&self, _flow: &Flow) -> f32 {
        self.fixed_score
    }

    fn kind(&self) -> CensorKind {
        self.as_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_threshold() {
        let block_all = ConstantCensor {
            fixed_score: 0.9,
            as_kind: CensorKind::Dt,
        };
        let allow_all = ConstantCensor {
            fixed_score: 0.1,
            as_kind: CensorKind::Dt,
        };
        let flow = Flow::from_pairs(&[(100, 0.0)]);
        assert!(block_all.blocks(&flow));
        assert!(!allow_all.blocks(&flow));
    }

    #[test]
    fn kind_metadata() {
        assert!(CensorKind::Df.is_differentiable());
        assert!(!CensorKind::Rf.is_differentiable());
        assert_eq!(CensorKind::ALL.len(), 6);
        assert_eq!(CensorKind::Cumul.to_string(), "CUMUL");
    }
}
