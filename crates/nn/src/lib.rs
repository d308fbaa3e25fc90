//! # amoeba-nn
//!
//! From-scratch neural-network substrate for the Amoeba (CoNEXT'23)
//! reproduction: a dense `f32` [`matrix::Matrix`] kernel, a reverse-mode
//! tape autograd engine ([`tensor::Tensor`]), the layer zoo needed by the
//! paper (MLP, GRU, LSTM, Conv1d/MaxPool1d), losses, Xavier/He
//! initialisation, and Adam/SGD/RMSProp optimisers.
//!
//! The paper implements its models in PyTorch; no ML framework is available
//! to this reproduction, so this crate stands in for `torch.nn` +
//! `torch.optim` + `torch.autograd`. Every op and layer is validated by
//! finite-difference gradient checks (see [`gradcheck`]).
//!
//! ## Two execution paths
//!
//! * **Training** builds autograd graphs of [`tensor::Tensor`] nodes
//!   (thread-local, `Rc`-based).
//! * **Inference** uses `*Snapshot` types holding plain [`matrix::Matrix`]
//!   weights. Every snapshot implements the object-safe, `Send + Sync`
//!   [`forward::Forward`] trait, so the multi-threaded rollout workers in
//!   `amoeba-core`, the censors in `amoeba-classifiers`, and the latency
//!   benchmarks behind Figure 11 all share one inference interface
//!   (compose stages with [`forward::Pipeline`]).
//!
//! ```
//! use amoeba_nn::layers::{Activation, Mlp};
//! use amoeba_nn::matrix::Matrix;
//! use amoeba_nn::optim::{Adam, Optimizer};
//! use amoeba_nn::tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(mlp.params(), 1e-2);
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
//! for _ in 0..100 {
//!     opt.zero_grad();
//!     let loss = mlp.forward(&Tensor::constant(x.clone())).bce_with_logits_loss(&y);
//!     loss.backward();
//!     opt.step();
//! }
//! ```

#![warn(missing_docs)]

pub mod conv;
pub mod forward;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod matrix;
pub mod optim;
pub mod rnn;
pub mod simd;
pub mod tensor;

pub use conv::{Conv1d, Conv1dSnapshot, MaxPool1d};
pub use forward::{Forward, Pipeline};
pub use layers::{Activation, Linear, LinearSnapshot, Mlp, MlpSnapshot};
pub use matrix::Matrix;
pub use optim::{clip_grad_norm, Adam, Optimizer, RmsProp, Sgd};
pub use rnn::{Gru, GruCell, GruSnapshot, Lstm, LstmCell, LstmSnapshot};
pub use simd::SimdLevel;
pub use tensor::Tensor;
