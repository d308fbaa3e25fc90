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
use amoeba_traffic::Flow;

/// The shared numeric scoring path: the per-flow probability of the DF,
/// SDAE and CUMUL censors is one [`Forward`] evaluation over that
/// family's numeric representation (position-major rows for DF and SDAE,
/// cumulative features for CUMUL). Centralising it here keeps those
/// `Censor::score` impls free of duplicated forward plumbing; DT and RF
/// score their 166-feature row, and LSTM runs a fresh [`PrefixState`]
/// over the flow.
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

    /// A fresh state that scores growing prefixes of one flow, absorbing
    /// each packet once, for censors that can do better than re-scoring
    /// the whole prefix with [`Censor::score`]. `None` (the default)
    /// means callers score every prefix with [`Censor::score`].
    fn prefix_state(&self) -> Option<Box<dyn PrefixState>> {
        None
    }
}

/// One flow's incremental scorer, from [`Censor::prefix_state`].
pub trait PrefixState: Send {
    /// Absorbs `wire.packets[seen..]`, where `seen` counts the packets
    /// absorbed so far, and returns the censor's score of `wire`: bit for
    /// bit [`Censor::score`]`(wire)`.
    ///
    /// Successive calls should pass growing prefixes of one flow. A wire
    /// shorter than what has been absorbed starts the state over from
    /// `wire`, so the score stays that of `wire`.
    fn score(&mut self, wire: &Flow) -> f32;

    /// Forgets every absorbed packet and frees the buffers; the next
    /// [`PrefixState::score`] starts from an empty flow.
    fn reset(&mut self);
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
