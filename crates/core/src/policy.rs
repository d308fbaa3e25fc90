//! Adversarial Actor & Critic (§4.3) — MLPs over the StateEncoder
//! representation, with a diagonal-Gaussian policy head using the
//! reparameterisation trick (§A.1).
//!
//! The actor outputs four units per state: the means and log-standard-
//! deviations of `(p̃, Δφ)`. Actions are sampled as `a = μ + σ·ε` with
//! `ε ~ N(0, 1)`; the environment clamps them into the legal box, while
//! log-probabilities are always computed on the *raw* (pre-clamp) sample,
//! the standard PPO treatment of box-constrained continuous actions.

use rand::Rng;

use amoeba_nn::forward::Forward;
use amoeba_nn::layers::{Activation, Mlp, MlpSnapshot};
use amoeba_nn::matrix::Matrix;
use amoeba_nn::tensor::Tensor;

use crate::config::AmoebaConfig;

/// Action dimensionality: packet size + extra delay.
pub const ACTION_DIM: usize = 2;

const LOG_2PI: f32 = 1.837_877_1; // ln(2π)

/// Trainable actor network.
pub struct Actor {
    mlp: Mlp,
    logstd_range: (f32, f32),
}

impl Actor {
    /// Builds an actor with the configured hidden widths (Table 3:
    /// 256→64→32, Tanh activations).
    pub fn new(cfg: &AmoebaConfig, rng: &mut impl Rng) -> Self {
        let mut dims = vec![cfg.state_dim()];
        dims.extend(&cfg.actor_hidden);
        dims.push(2 * ACTION_DIM);
        Self {
            mlp: Mlp::new(&dims, Activation::Tanh, Activation::Identity, rng),
            logstd_range: cfg.logstd_range,
        }
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        self.mlp.params()
    }

    /// Splits the raw head output into `(mean, log_std)` graph tensors.
    fn head(&self, states: &Tensor) -> (Tensor, Tensor) {
        let out = self.mlp.forward(states);
        let mean = out.slice_cols(0, ACTION_DIM);
        let logstd = out
            .slice_cols(ACTION_DIM, 2 * ACTION_DIM)
            .clamp(self.logstd_range.0, self.logstd_range.1);
        (mean, logstd)
    }

    /// Log-probability `(B, 1)` and entropy `(B, 1)` of stored actions
    /// under the current policy (PPO re-evaluation path).
    pub fn log_prob_entropy(&self, states: &Tensor, actions: &Matrix) -> (Tensor, Tensor) {
        let (mean, logstd) = self.head(states);
        let std = logstd.exp();
        let a = Tensor::constant(actions.clone());
        let z = a.sub(&mean).div(&std);
        let logp = z
            .square()
            .scale(-0.5)
            .sub(&logstd)
            .add_scalar(-0.5 * LOG_2PI)
            .sum_cols();
        // Diagonal Gaussian entropy: Σ (logσ + ½ln(2πe)).
        let entropy = logstd.add_scalar(0.5 * (LOG_2PI + 1.0)).sum_cols();
        (logp, entropy)
    }

    /// Thread-safe sampling snapshot.
    pub fn snapshot(&self) -> ActorSnapshot {
        ActorSnapshot {
            mlp: self.mlp.snapshot(),
            logstd_range: self.logstd_range,
        }
    }
}

/// Frozen actor used by rollout workers; `Send + Sync`.
#[derive(Clone, Debug)]
pub struct ActorSnapshot {
    mlp: MlpSnapshot,
    logstd_range: (f32, f32),
}

impl ActorSnapshot {
    fn head(&self, state: &[f32]) -> ([f32; ACTION_DIM], [f32; ACTION_DIM]) {
        let x = Matrix::from_vec(1, state.len(), state.to_vec());
        let out = self.mlp.forward(&x);
        let mut mean = [0.0; ACTION_DIM];
        let mut logstd = [0.0; ACTION_DIM];
        for d in 0..ACTION_DIM {
            mean[d] = out[(0, d)];
            logstd[d] = out[(0, ACTION_DIM + d)].clamp(self.logstd_range.0, self.logstd_range.1);
        }
        (mean, logstd)
    }

    /// Batched policy head: one fused MLP pass over `(B, state_dim)`
    /// states (through the register-tiled `amoeba-nn` matmul nest), returning
    /// `(means, log_stds)` as `(B, ACTION_DIM)` matrices. Every matrix op
    /// is row-independent, so row `r` is bit-identical to the
    /// single-state head of `states.row(r)` — the property the
    /// `amoeba-serve` batched scheduler relies on, within a shard and
    /// across shard threads (the snapshot is immutable `Send + Sync`
    /// state shared via `Arc`).
    pub fn head_batch(&self, states: &Matrix) -> (Matrix, Matrix) {
        split_head(&self.mlp.forward(states), self.logstd_range)
    }

    /// Samples one action from an already-computed Gaussian head — the
    /// shared tail of [`ActorSnapshot::sample`] and the batched serving
    /// path (which computes heads for many flows at once but draws from
    /// each flow's own RNG). Returns `(action, log_prob)`.
    pub fn sample_from_head(
        mean: &[f32],
        logstd: &[f32],
        rng: &mut impl Rng,
    ) -> ([f32; ACTION_DIM], f32) {
        let mut action = [0.0; ACTION_DIM];
        let mut logp = 0.0;
        for d in 0..ACTION_DIM {
            let std = logstd[d].exp();
            let eps = gaussian(rng);
            action[d] = mean[d] + std * eps;
            let z = (action[d] - mean[d]) / std;
            logp += -0.5 * z * z - logstd[d] - 0.5 * LOG_2PI;
        }
        (action, logp)
    }

    /// Samples a raw action via reparameterisation; returns
    /// `(action, log_prob)`.
    pub fn sample(&self, state: &[f32], rng: &mut impl Rng) -> ([f32; ACTION_DIM], f32) {
        let (mean, logstd) = self.head(state);
        Self::sample_from_head(&mean, &logstd, rng)
    }

    /// Deterministic (mean) action for evaluation.
    pub fn mode(&self, state: &[f32]) -> [f32; ACTION_DIM] {
        self.head(state).0
    }
}

/// Splits a raw `(B, 2·ACTION_DIM)` actor-head output into clamped
/// `(means, log_stds)` matrices — the tail of
/// [`ActorSnapshot::head_batch`].
fn split_head(out: &Matrix, logstd_range: (f32, f32)) -> (Matrix, Matrix) {
    let b = out.rows();
    let mut mean = Matrix::zeros(b, ACTION_DIM);
    let mut logstd = Matrix::zeros(b, ACTION_DIM);
    for r in 0..b {
        for d in 0..ACTION_DIM {
            mean[(r, d)] = out[(r, d)];
            logstd[(r, d)] = out[(r, ACTION_DIM + d)].clamp(logstd_range.0, logstd_range.1);
        }
    }
    (mean, logstd)
}

/// Trainable critic network `V_c(s)`.
pub struct Critic {
    mlp: Mlp,
}

impl Critic {
    /// Builds a critic with the same hidden widths as the actor (§4.3).
    pub fn new(cfg: &AmoebaConfig, rng: &mut impl Rng) -> Self {
        let mut dims = vec![cfg.state_dim()];
        dims.extend(&cfg.actor_hidden);
        dims.push(1);
        Self {
            mlp: Mlp::new(&dims, Activation::Tanh, Activation::Identity, rng),
        }
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        self.mlp.params()
    }

    /// State values `(B, 1)` (autograd path).
    pub fn values(&self, states: &Tensor) -> Tensor {
        self.mlp.forward(states)
    }

    /// Thread-safe snapshot.
    pub fn snapshot(&self) -> CriticSnapshot {
        CriticSnapshot {
            mlp: self.mlp.snapshot(),
        }
    }

    /// Trainable critic holding a snapshot's weights (on the calling
    /// thread's tape).
    pub(crate) fn from_snapshot(s: CriticSnapshot) -> Self {
        Self {
            mlp: Mlp::from_snapshot(s.mlp),
        }
    }

    /// Overwrites the weights with a snapshot's.
    pub(crate) fn load_snapshot(&self, s: &CriticSnapshot) {
        self.mlp.load_snapshot(&s.mlp);
    }
}

/// Frozen critic for rollout workers; `Send + Sync`.
#[derive(Clone, Debug)]
pub struct CriticSnapshot {
    mlp: MlpSnapshot,
}

impl CriticSnapshot {
    /// `V(s)` for one state row.
    pub fn value(&self, state: &[f32]) -> f32 {
        let x = Matrix::from_vec(1, state.len(), state.to_vec());
        self.mlp.forward(&x)[(0, 0)]
    }

    /// Fused `V(s)` over `(B, state_dim)` states; entry `r` is
    /// bit-identical to [`CriticSnapshot::value`] on `states.row(r)`.
    pub fn value_batch(&self, states: &Matrix) -> Vec<f32> {
        let out = self.mlp.forward(states);
        (0..out.rows()).map(|r| out[(r, 0)]).collect()
    }
}

/// Standard normal sample (Box–Muller).
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> AmoebaConfig {
        AmoebaConfig {
            encoder_hidden: 8,
            actor_hidden: vec![16],
            ..AmoebaConfig::fast()
        }
    }

    #[test]
    fn snapshot_logp_matches_graph_logp() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let actor = Actor::new(&cfg, &mut rng);
        let snap = actor.snapshot();
        let state: Vec<f32> = (0..cfg.state_dim())
            .map(|i| (i as f32 * 0.1).sin())
            .collect();
        let (action, logp_sample) = snap.sample(&state, &mut rng);

        let states = Tensor::constant(Matrix::from_vec(1, state.len(), state.clone()));
        let actions = Matrix::from_vec(1, ACTION_DIM, action.to_vec());
        let (logp, _) = actor.log_prob_entropy(&states, &actions);
        assert!(
            (logp.value()[(0, 0)] - logp_sample).abs() < 1e-4,
            "graph {} vs sample {}",
            logp.value()[(0, 0)],
            logp_sample
        );
    }

    #[test]
    fn mode_is_mean_of_samples() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let actor = Actor::new(&cfg, &mut rng);
        let snap = actor.snapshot();
        let state: Vec<f32> = vec![0.3; cfg.state_dim()];
        let mode = snap.mode(&state);
        let mut mean = [0.0f32; ACTION_DIM];
        let n = 3000;
        for _ in 0..n {
            let (a, _) = snap.sample(&state, &mut rng);
            for d in 0..ACTION_DIM {
                mean[d] += a[d] / n as f32;
            }
        }
        for d in 0..ACTION_DIM {
            assert!(
                (mean[d] - mode[d]).abs() < 0.1,
                "dim {d}: {} vs {}",
                mean[d],
                mode[d]
            );
        }
    }

    #[test]
    fn entropy_increases_with_logstd() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let actor = Actor::new(&cfg, &mut rng);
        let states = Tensor::constant(Matrix::zeros(4, cfg.state_dim()));
        let actions = Matrix::zeros(4, ACTION_DIM);
        let (_, entropy) = actor.log_prob_entropy(&states, &actions);
        let e = entropy.value();
        // Entropy is state-dependent but must be finite and consistent.
        assert!(e.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(e.shape(), (4, 1));
    }

    #[test]
    fn critic_outputs_scalar_values() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(4);
        let critic = Critic::new(&cfg, &mut rng);
        let snap = critic.snapshot();
        let state = vec![0.1; cfg.state_dim()];
        let v1 = snap.value(&state);
        let graph = critic
            .values(&Tensor::constant(Matrix::from_vec(1, state.len(), state)))
            .value()[(0, 0)];
        assert!((v1 - graph).abs() < 1e-5);
    }

    /// The serving scheduler's core assumption: batched heads/values are
    /// bit-identical to the per-state paths, row by row.
    #[test]
    fn batched_heads_and_values_match_per_state_paths() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(7);
        let actor = Actor::new(&cfg, &mut rng).snapshot();
        let critic = Critic::new(&cfg, &mut rng).snapshot();
        let b = 9;
        let states = Matrix::randn(b, cfg.state_dim(), 0.7, &mut rng);
        let (means, logstds) = actor.head_batch(&states);
        let values = critic.value_batch(&states);
        assert_eq!(means.shape(), (b, ACTION_DIM));
        assert_eq!(logstds.shape(), (b, ACTION_DIM));
        assert_eq!(values.len(), b);
        for r in 0..b {
            let row = states.row(r);
            let mode = actor.mode(row);
            let (single_mean, single_logstd) = actor.head(row);
            for d in 0..ACTION_DIM {
                assert_eq!(means[(r, d)].to_bits(), mode[d].to_bits());
                assert_eq!(means[(r, d)].to_bits(), single_mean[d].to_bits());
                assert_eq!(logstds[(r, d)].to_bits(), single_logstd[d].to_bits());
            }
            assert_eq!(values[r].to_bits(), critic.value(row).to_bits());
        }
        // Sampling from a batched head with the same RNG stream matches
        // the single-state sample exactly.
        let row = states.row(0);
        let (a1, lp1) = actor.sample(row, &mut StdRng::seed_from_u64(11));
        let mean0: Vec<f32> = (0..ACTION_DIM).map(|d| means[(0, d)]).collect();
        let logstd0: Vec<f32> = (0..ACTION_DIM).map(|d| logstds[(0, d)]).collect();
        let (a2, lp2) =
            ActorSnapshot::sample_from_head(&mean0, &logstd0, &mut StdRng::seed_from_u64(11));
        assert_eq!(a1, a2);
        assert_eq!(lp1.to_bits(), lp2.to_bits());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn logp_gradient_flows_to_actor_params() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(6);
        let actor = Actor::new(&cfg, &mut rng);
        let states = Tensor::constant(Matrix::randn(3, cfg.state_dim(), 0.5, &mut rng));
        let actions = Matrix::randn(3, ACTION_DIM, 0.5, &mut rng);
        let (logp, entropy) = actor.log_prob_entropy(&states, &actions);
        logp.add(&entropy).mean().backward();
        let n_with_grad = actor
            .params()
            .iter()
            .filter(|p| p.grad().norm() > 0.0)
            .count();
        assert_eq!(n_with_grad, actor.params().len());
    }
}
