//! The shared inference path: every frozen `*Snapshot` (and anything else
//! that maps matrices to matrices without building an autograd graph)
//! implements [`Forward`], so rollout workers, censors and benches can
//! hold heterogeneous networks behind one object-safe, `Send + Sync`
//! interface and share them across threads via `Arc`.
//!
//! Input conventions:
//!
//! * **Feed-forward** implementors (`LinearSnapshot`, `MlpSnapshot`,
//!   `Conv1dSnapshot`, `MaxPool1d`, `Activation`) treat each row of `x` as
//!   one independent sample — `(B, in) -> (B, out)`.
//! * **Recurrent** implementors (`GruSnapshot`, `LstmSnapshot`) treat the
//!   rows of `x` as the *timesteps* of a single batch-1 sequence —
//!   `(T, in) -> (1, hidden)`. Their `forward` is a loop over their
//!   public `step`, which is what streaming consumers call directly: the
//!   incremental encoder and the LSTM censor's prefix state step one
//!   packet at a time and keep the state between packets, so they run
//!   the same arithmetic in the same order as `forward` over the whole
//!   prefix. Multi-sequence work goes through [`Forward::forward_batch`].
//!
//! [`Pipeline`] composes stages into one `Forward` (e.g. the DF censor is
//! `conv → relu → conv → relu → pool → mlp → sigmoid`), replacing the
//! hand-rolled per-censor forward plumbing each crate used to duplicate.

use std::sync::Arc;

use crate::matrix::Matrix;

/// Object-safe, thread-safe inference over plain matrices.
pub trait Forward: Send + Sync {
    /// Runs the network on one input (see the module docs for the row
    /// conventions of feed-forward vs recurrent implementors).
    fn forward(&self, x: &Matrix) -> Matrix;

    /// Runs the network on each input independently. The default maps
    /// [`Forward::forward`]; implementors with a cheaper fused path may
    /// override it.
    fn forward_batch(&self, xs: &[Matrix]) -> Vec<Matrix> {
        xs.iter().map(|x| self.forward(x)).collect()
    }
}

impl<T: Forward + ?Sized> Forward for &T {
    fn forward(&self, x: &Matrix) -> Matrix {
        (**self).forward(x)
    }

    fn forward_batch(&self, xs: &[Matrix]) -> Vec<Matrix> {
        (**self).forward_batch(xs)
    }
}

impl<T: Forward + ?Sized> Forward for Box<T> {
    fn forward(&self, x: &Matrix) -> Matrix {
        (**self).forward(x)
    }

    fn forward_batch(&self, xs: &[Matrix]) -> Vec<Matrix> {
        (**self).forward_batch(xs)
    }
}

impl<T: Forward + ?Sized> Forward for Arc<T> {
    fn forward(&self, x: &Matrix) -> Matrix {
        (**self).forward(x)
    }

    fn forward_batch(&self, xs: &[Matrix]) -> Vec<Matrix> {
        (**self).forward_batch(xs)
    }
}

/// A sequential composition of [`Forward`] stages, itself a [`Forward`].
///
/// Stages are `Arc`-shared, so cloning a pipeline (or a censor holding
/// one) is cheap and the clone can be sent to other threads.
#[derive(Clone, Default)]
pub struct Pipeline {
    stages: Vec<Arc<dyn Forward>>,
}

impl Pipeline {
    /// An empty pipeline (the identity map).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (builder style).
    pub fn then(mut self, stage: impl Forward + 'static) -> Self {
        self.stages.push(Arc::new(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pipeline({} stages)", self.stages.len())
    }
}

impl Forward for Pipeline {
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for stage in &self.stages {
            h = stage.forward(&h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;

    /// Doubles every entry — a minimal Forward for plumbing tests.
    struct Double;

    impl Forward for Double {
        fn forward(&self, x: &Matrix) -> Matrix {
            x.scale(2.0)
        }
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let p = Pipeline::new();
        assert!(p.is_empty());
        let x = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        assert_eq!(p.forward(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn pipeline_composes_in_order() {
        let p = Pipeline::new().then(Double).then(Activation::Relu);
        assert_eq!(p.len(), 2);
        let x = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        assert_eq!(p.forward(&x).as_slice(), &[2.0, 0.0, 6.0]);
    }

    #[test]
    fn default_batch_maps_forward() {
        let p = Pipeline::new().then(Double);
        let xs = vec![Matrix::ones(1, 2), Matrix::full(1, 2, 3.0)];
        let ys = p.forward_batch(&xs);
        assert_eq!(ys.len(), 2);
        assert_eq!(ys[0].as_slice(), &[2.0, 2.0]);
        assert_eq!(ys[1].as_slice(), &[6.0, 6.0]);
    }

    #[test]
    fn trait_objects_and_smart_pointers_forward() {
        let boxed: Box<dyn Forward> = Box::new(Double);
        let arced: Arc<dyn Forward> = Arc::new(Double);
        let x = Matrix::ones(2, 2);
        assert_eq!(boxed.forward(&x).as_slice(), &[2.0; 4]);
        assert_eq!(arced.forward(&x).as_slice(), &[2.0; 4]);
        let by_ref: &dyn Forward = &Double;
        assert_eq!(by_ref.forward(&x).as_slice(), &[2.0; 4]);
    }
}
