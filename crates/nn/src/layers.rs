//! Feed-forward building blocks: [`Linear`], activations, and [`Mlp`].
//!
//! Every layer exposes two paths:
//! * `forward(&Tensor) -> Tensor` builds the autograd graph (training);
//! * `snapshot() -> …Snapshot` captures plain-`Matrix` weights that
//!   implement the shared [`Forward`] inference trait (`Send + Sync`,
//!   allocation-light), used by multi-threaded rollout workers and
//!   latency benchmarks.

use rand::Rng;

use crate::forward::Forward;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::packed::PreparedRhs;
use crate::tensor::Tensor;

/// Pointwise nonlinearity selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no-op).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation in the autograd graph.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
        }
    }

    /// Applies the activation to a plain matrix (inference path).
    pub fn apply_matrix(&self, x: &Matrix) -> Matrix {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Tanh => x.map(f32::tanh),
            Activation::Sigmoid => x.map(|v| 1.0 / (1.0 + (-v).exp())),
        }
    }
}

impl Forward for Activation {
    fn forward(&self, x: &Matrix) -> Matrix {
        self.apply_matrix(x)
    }
}

/// Fully connected layer `y = x W + b` with `W: (in, out)`, `b: (1, out)`.
pub struct Linear {
    /// Weight matrix, shape `(in_dim, out_dim)`.
    pub w: Tensor,
    /// Bias row vector, shape `(1, out_dim)`.
    pub b: Tensor,
}

impl Linear {
    /// Xavier-initialised linear layer.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Self {
            w: Tensor::parameter(xavier_uniform(in_dim, out_dim, rng)),
            b: Tensor::parameter(Matrix::zeros(1, out_dim)),
        }
    }

    /// Builds a layer from explicit weights (e.g. for tests).
    pub fn from_weights(w: Matrix, b: Matrix) -> Self {
        assert_eq!(b.rows(), 1, "Linear bias must be a row vector");
        assert_eq!(w.cols(), b.cols(), "Linear weight/bias width mismatch");
        Self {
            w: Tensor::parameter(w),
            b: Tensor::parameter(b),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.shape().0
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.shape().1
    }

    /// Autograd forward: `x (B, in) -> (B, out)`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.w).add_bias(&self.b)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        vec![self.w.clone(), self.b.clone()]
    }

    /// Thread-safe plain-weight copy for inference.
    pub fn snapshot(&self) -> LinearSnapshot {
        LinearSnapshot {
            w: self.w.value(),
            b: self.b.value(),
        }
    }

    /// Loads weights from a snapshot (e.g. after parallel search).
    pub fn load_snapshot(&self, s: &LinearSnapshot) {
        self.w.set_value(s.w.clone());
        self.b.set_value(s.b.clone());
    }
}

/// Plain-weight copy of a [`Linear`] layer; `Send + Sync`, inference via
/// [`Forward`].
#[derive(Clone, Debug)]
pub struct LinearSnapshot {
    /// Weight matrix `(in, out)`.
    pub w: Matrix,
    /// Bias row `(1, out)`.
    pub b: Matrix,
}

impl LinearSnapshot {
    /// Prepares the weights once for repeated inference through a
    /// [`PreparedRhs`] tier (packed ⇒ bit-exact, quantized ⇒ tolerance).
    pub fn prepare<W: PreparedRhs>(&self) -> PreparedLinear<W> {
        PreparedLinear {
            w: W::prepare(&self.w),
            b: self.b.clone(),
        }
    }
}

impl Forward for LinearSnapshot {
    fn forward(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w).add_row_broadcast(&self.b)
    }
}

/// A [`LinearSnapshot`] whose weights were prepared once through a
/// [`PreparedRhs`] tier. With [`crate::packed::PackedWeights`] the
/// forward pass is bit-identical to [`LinearSnapshot`]'s [`Forward::forward`];
/// with [`crate::quant::QuantWeights`] it carries bounded quantization
/// error (tolerance tier).
#[derive(Clone, Debug)]
pub struct PreparedLinear<W: PreparedRhs> {
    w: W,
    b: Matrix,
}

impl<W: PreparedRhs> PreparedLinear<W> {
    /// Forward pass `x W + b` through the prepared weights.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.w.forward(x).add_row_broadcast(&self.b)
    }
}

/// Multi-layer perceptron with a shared hidden activation and a separate
/// output activation.
///
/// The paper's actor/critic use dims `[in, 256, 64, 32, out]` with Tanh
/// hidden activations (Table 3).
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP from `dims = [in, h1, …, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp requires at least [in, out] dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(Linear::in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(Linear::out_dim).unwrap_or(0)
    }

    /// Autograd forward.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            h = if i == last {
                self.output_activation.apply(&h)
            } else {
                self.hidden_activation.apply(&h)
            };
        }
        h
    }

    /// All trainable parameters, layer by layer.
    pub fn params(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(Linear::params).collect()
    }

    /// Thread-safe plain-weight copy.
    pub fn snapshot(&self) -> MlpSnapshot {
        MlpSnapshot {
            layers: self.layers.iter().map(Linear::snapshot).collect(),
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }

    /// Loads weights from a snapshot.
    pub fn load_snapshot(&self, s: &MlpSnapshot) {
        assert_eq!(
            self.layers.len(),
            s.layers.len(),
            "Mlp snapshot depth mismatch"
        );
        for (l, ls) in self.layers.iter().zip(&s.layers) {
            l.load_snapshot(ls);
        }
    }
}

/// Plain-weight copy of an [`Mlp`]; `Send + Sync`, inference via
/// [`Forward`].
#[derive(Clone, Debug)]
pub struct MlpSnapshot {
    /// Per-layer weights.
    pub layers: Vec<LinearSnapshot>,
    /// Activation between hidden layers.
    pub hidden_activation: Activation,
    /// Activation on the final layer.
    pub output_activation: Activation,
}

impl MlpSnapshot {
    /// Prepares every layer's weights once for repeated inference
    /// through a [`PreparedRhs`] tier.
    pub fn prepare<W: PreparedRhs>(&self) -> PreparedMlp<W> {
        PreparedMlp {
            layers: self.layers.iter().map(LinearSnapshot::prepare).collect(),
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }
}

/// An [`MlpSnapshot`] with every layer's weights prepared through a
/// [`PreparedRhs`] tier. Same exactness contract as [`PreparedLinear`]:
/// bit-exact for packed weights, bounded-error for quantized ones. The
/// activation schedule is shared with [`MlpSnapshot`]'s [`Forward::forward`]
/// verbatim.
#[derive(Clone, Debug)]
pub struct PreparedMlp<W: PreparedRhs> {
    layers: Vec<PreparedLinear<W>>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl<W: PreparedRhs> PreparedMlp<W> {
    /// Forward pass through the prepared layers.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            h = if i == last {
                self.output_activation.apply_matrix(&h)
            } else {
                self.hidden_activation.apply_matrix(&h)
            };
        }
        h
    }
}

impl Forward for MlpSnapshot {
    /// Every per-layer product runs through [`Matrix::matmul`] (the
    /// register-tiled nest at the detected SIMD level).
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            h = if i == last {
                self.output_activation.apply_matrix(&h)
            } else {
                self.hidden_activation.apply_matrix(&h)
            };
        }
        h
    }

    /// Fused fast path: equal-width single-row inputs are stacked into one
    /// `(B, in)` matrix, pushed through a single forward pass, and split
    /// back into rows. Because every matrix op involved is row-independent,
    /// each output row is bit-identical to the per-input [`Forward::forward`]
    /// result; the win is one allocation + weight traversal per layer per
    /// *batch* instead of per *sample* (the `amoeba-serve` scheduler's hot
    /// path), with the per-layer products running through
    /// [`Matrix::matmul`]. Mixed shapes fall back to the default
    /// per-input mapping.
    fn forward_batch(&self, xs: &[Matrix]) -> Vec<Matrix> {
        let stackable =
            xs.len() > 1 && xs.iter().all(|x| x.rows() == 1 && x.cols() == xs[0].cols());
        if !stackable {
            return xs.iter().map(|x| self.forward(x)).collect();
        }
        let mut stacked = Matrix::zeros(xs.len(), xs[0].cols());
        for (r, x) in xs.iter().enumerate() {
            stacked.row_mut(r).copy_from_slice(x.as_slice());
        }
        let out = self.forward(&stacked);
        (0..out.rows())
            .map(|r| Matrix::from_vec(1, out.cols(), out.row(r).to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(5, 3, &mut rng);
        assert_eq!(l.in_dim(), 5);
        assert_eq!(l.out_dim(), 3);
        let x = Tensor::constant(Matrix::ones(4, 5));
        let y = l.forward(&x);
        assert_eq!(y.shape(), (4, 3));
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(3, 2, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let target = Matrix::randn(4, 2, 1.0, &mut rng);
        let params = l.params();
        check_gradients(
            &params,
            || l.forward(&Tensor::constant(x.clone())).mse_loss(&target),
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn mlp_gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let target = Matrix::randn(4, 2, 1.0, &mut rng);
        let params = mlp.params();
        check_gradients(
            &params,
            || mlp.forward(&Tensor::constant(x.clone())).mse_loss(&target),
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn snapshot_matches_graph_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Relu, Activation::Sigmoid, &mut rng);
        let x = Matrix::randn(2, 4, 1.0, &mut rng);
        let graph_out = mlp.forward(&Tensor::constant(x.clone())).value();
        let snap_out = mlp.snapshot().forward(&x);
        for (a, b) in graph_out.as_slice().iter().zip(snap_out.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn load_snapshot_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let b = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        b.load_snapshot(&a.snapshot());
        let x = Matrix::randn(3, 2, 1.0, &mut rng);
        let ya = a.forward(&Tensor::constant(x.clone())).value();
        let yb = b.forward(&Tensor::constant(x)).value();
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(6);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(mlp.params(), 0.05);
        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            opt.zero_grad();
            let logits = mlp.forward(&Tensor::constant(x.clone()));
            let loss = logits.bce_with_logits_loss(&y);
            final_loss = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(final_loss < 0.1, "XOR loss {final_loss}");
        let probs = mlp.forward(&Tensor::constant(x)).sigmoid().value();
        assert!(probs[(0, 0)] < 0.5);
        assert!(probs[(1, 0)] > 0.5);
        assert!(probs[(2, 0)] > 0.5);
        assert!(probs[(3, 0)] < 0.5);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn mlp_rejects_single_dim() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = Mlp::new(&[3], Activation::Tanh, Activation::Identity, &mut rng);
    }

    /// The serve-path guarantee: the fused `forward_batch` fast path must
    /// be bit-identical to mapping `forward` over the inputs.
    #[test]
    fn mlp_forward_batch_fused_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(8);
        let snap = Mlp::new(
            &[6, 16, 4],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
        .snapshot();
        let xs: Vec<Matrix> = (0..37)
            .map(|_| Matrix::randn(1, 6, 1.0, &mut rng))
            .collect();
        let fused = snap.forward_batch(&xs);
        assert_eq!(fused.len(), xs.len());
        for (x, y) in xs.iter().zip(&fused) {
            let single = snap.forward(x);
            assert_eq!(y.shape(), single.shape());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y), bits(&single));
        }
        // Mixed shapes fall back to the per-input path.
        let mixed = vec![Matrix::ones(1, 6), Matrix::ones(2, 6)];
        let out = snap.forward_batch(&mixed);
        assert_eq!(out[0].shape(), (1, 4));
        assert_eq!(out[1].shape(), (2, 4));
    }
}
