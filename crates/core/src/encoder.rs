//! StateEncoder (§4.3, Appendix A.2/A.3): a two-layer GRU pretrained as
//! the encoder half of a Seq2Seq autoencoder, mapping arbitrary-length
//! flows to fixed-size hidden representations.
//!
//! Pretraining follows Algorithm 2: a synthetic dataset of maximal
//! variability (`p ~ U(-1,1)`, `φ ~ U(0,1)`, `φ_1 = 0`), random sequence
//! truncation per batch so every prefix length is seen, and an
//! MSE (or MAE) reconstruction objective through a mirror-architecture
//! StateDecoder. Only the encoder survives pretraining; during RL it is
//! frozen (Algorithm 1 line 2) and queried incrementally, one packet per
//! timestep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amoeba_nn::layers::Linear;
use amoeba_nn::matrix::Matrix;
use amoeba_nn::optim::{Adam, Optimizer};
use amoeba_nn::rnn::{Gru, GruSnapshot};
use amoeba_nn::tensor::Tensor;

use crate::config::{AmoebaConfig, ReconLoss};

/// Input dimensionality of each timestep: `(size, delay)`.
pub const STEP_DIM: usize = 2;

/// Trainable StateEncoder + StateDecoder pair (the decoder exists only for
/// pretraining and NMAE evaluation).
pub struct StateEncoder {
    encoder: Gru,
    decoder: Gru,
    /// Projects decoder hidden states back to `(size, delay)` pairs.
    project: Linear,
    hidden: usize,
    layers: usize,
}

/// Synthetic pretraining sample: a normalised flow of `(size, delay)`
/// steps.
pub type SyntheticFlow = Vec<[f32; 2]>;

/// Generates the Algorithm 2 synthetic dataset: `p_i ~ U(-1,1)`,
/// `φ_i ~ U(0,1)`, `φ_1 = 0`.
pub fn synthetic_flows(n: usize, max_len: usize, rng: &mut StdRng) -> Vec<SyntheticFlow> {
    (0..n)
        .map(|_| {
            (0..max_len)
                .enumerate()
                .map(|(i, _)| {
                    let p = rng.gen_range(-1.0f32..1.0);
                    let phi = if i == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0f32..1.0)
                    };
                    [p, phi]
                })
                .collect()
        })
        .collect()
}

impl StateEncoder {
    /// Builds an untrained encoder/decoder pair.
    pub fn new(hidden: usize, layers: usize, rng: &mut StdRng) -> Self {
        Self {
            encoder: Gru::new(STEP_DIM, hidden, layers, rng),
            decoder: Gru::new(STEP_DIM, hidden, layers, rng),
            project: Linear::new(hidden, STEP_DIM, rng),
            hidden,
            layers,
        }
    }

    /// Hidden representation width `H`.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Encodes a batch of equal-length sequences; returns the final
    /// top-layer hidden `(B, H)` (autograd path).
    fn encode_graph(&self, xs: &[Tensor]) -> Tensor {
        let (outs, _) = self.encoder.forward_sequence(xs);
        outs.last().expect("nonempty sequence").clone()
    }

    /// Decodes `len` steps from a hidden representation `(B, H)`,
    /// returning per-step `(B, 2)` reconstructions.
    ///
    /// The representation seeds every decoder layer's initial state; the
    /// decoder is driven by its own previous output (zero for step 0).
    fn decode_graph(&self, rep: &Tensor, len: usize) -> Vec<Tensor> {
        let b = rep.shape().0;
        let mut state: Vec<Tensor> = (0..self.layers).map(|_| rep.clone()).collect();
        let mut prev = Tensor::constant(Matrix::zeros(b, STEP_DIM));
        let mut outs = Vec::with_capacity(len);
        for _ in 0..len {
            state = self.decoder.step(&prev, &state);
            let y = self.project.forward(state.last().expect("nonempty"));
            outs.push(y.clone());
            prev = y.detach();
        }
        outs
    }

    /// All trainable parameters (encoder + decoder + projection).
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.decoder.params());
        p.extend(self.project.params());
        p
    }

    /// Algorithm 2: Seq2Seq pretraining on the synthetic dataset.
    /// Returns the final epoch's mean reconstruction loss.
    pub fn pretrain(&mut self, cfg: &AmoebaConfig) -> f32 {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));
        let dataset = synthetic_flows(cfg.encoder_train_flows, cfg.encoder_max_len, &mut rng);
        let mut opt = Adam::new(self.params(), cfg.encoder_lr);

        let mut last = f32::INFINITY;
        for _ in 0..cfg.encoder_epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            let mut order: Vec<usize> = (0..dataset.len()).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(cfg.encoder_batch.max(1)) {
                // Random truncation length per minibatch (Alg 2 line 5).
                let t = rng.gen_range(1..=cfg.encoder_max_len);
                let xs: Vec<Tensor> = (0..t)
                    .map(|step| {
                        let mut m = Matrix::zeros(chunk.len(), STEP_DIM);
                        for (r, &fi) in chunk.iter().enumerate() {
                            m.row_mut(r).copy_from_slice(&dataset[fi][step]);
                        }
                        Tensor::constant(m)
                    })
                    .collect();

                opt.zero_grad();
                let rep = self.encode_graph(&xs);
                let recon = self.decode_graph(&rep, t);
                let mut loss: Option<Tensor> = None;
                for (r, x) in recon.iter().zip(&xs) {
                    let target = x.value();
                    let step_loss = match cfg.encoder_loss {
                        ReconLoss::Mse => r.mse_loss(&target),
                        ReconLoss::Mae => r.mae_loss(&target),
                    };
                    loss = Some(match loss {
                        Some(l) => l.add(&step_loss),
                        None => step_loss,
                    });
                }
                let loss = loss.expect("nonempty sequence").scale(1.0 / t as f32);
                epoch_loss += loss.item();
                batches += 1;
                loss.backward();
                opt.step();
            }
            last = epoch_loss / batches.max(1) as f32;
        }
        last
    }

    /// NMAE of Seq2Seq reconstruction per flow length (Figure 13 /
    /// Appendix A.3), evaluated on fresh synthetic flows.
    ///
    /// The paper's NMAE divides by `s_t`; with inputs in `(-1, 1)` this
    /// explodes near zero, so the denominator is clamped to
    /// `max(|s_t|, 0.05)` (documented deviation — it bounds rather than
    /// inflates the reported error).
    pub fn evaluate_nmae(&self, lengths: &[usize], flows_per_len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_len = lengths.iter().copied().max().unwrap_or(1);
        let flows = synthetic_flows(flows_per_len, max_len, &mut rng);
        lengths
            .iter()
            .map(|&t| {
                let xs: Vec<Tensor> = (0..t)
                    .map(|step| {
                        let mut m = Matrix::zeros(flows.len(), STEP_DIM);
                        for (r, f) in flows.iter().enumerate() {
                            m.row_mut(r).copy_from_slice(&f[step]);
                        }
                        Tensor::constant(m)
                    })
                    .collect();
                let rep = self.encode_graph(&xs);
                let recon = self.decode_graph(&rep, t);
                let mut err = 0.0f32;
                let mut count = 0usize;
                for (r, x) in recon.iter().zip(&xs) {
                    let rv = r.value();
                    let xv = x.value();
                    for (a, b) in rv.as_slice().iter().zip(xv.as_slice()) {
                        err += (a - b).abs() / b.abs().max(0.05);
                        count += 1;
                    }
                }
                err / count.max(1) as f32
            })
            .collect()
    }

    /// Freezes the encoder into a thread-safe incremental snapshot for RL.
    pub fn snapshot(&self) -> EncoderSnapshot {
        EncoderSnapshot {
            gru: self.encoder.snapshot(),
            hidden: self.hidden,
        }
    }
}

/// Frozen StateEncoder used during rollouts; `Send + Sync`.
#[derive(Clone, Debug)]
pub struct EncoderSnapshot {
    gru: GruSnapshot,
    hidden: usize,
}

impl EncoderSnapshot {
    /// Hidden representation width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Fresh incremental encoding state (`E` of an empty sequence = 0).
    pub fn begin(&self) -> EncoderState {
        EncoderState {
            state: self.gru.zero_state(1),
            hidden: self.hidden,
        }
    }

    /// Encodes a whole sequence at once (equivalent to repeated
    /// [`EncoderState::push`]).
    pub fn encode(&self, steps: &[[f32; 2]]) -> Vec<f32> {
        let mut s = self.begin();
        for step in steps {
            s.push(self, *step);
        }
        s.representation().to_vec()
    }

    /// Advances many *independent* per-flow states by one step each in a
    /// single fused GRU evaluation — the `amoeba-serve` scheduler's fast
    /// path. Row `r` of `steps` (shape `(B, 2)`) is fed to
    /// `states[indices[r]]`; the per-layer hidden rows are gathered into
    /// one batch matrix, stepped once (through the register-tiled
    /// `amoeba-nn` matmul nest), and scattered back.
    ///
    /// Every GRU-step matrix op is row-independent, so each selected state
    /// ends up bit-identical to an individual [`EncoderState::push`] of
    /// its row — regardless of how the flows are grouped into batches, or
    /// across the serve dataplane's shard threads (the snapshot is an
    /// immutable `Send + Sync` weight set; each shard owns its own
    /// `states`, so concurrent `push_batch` calls never alias).
    ///
    /// # Panics
    /// Panics if `steps.rows() != indices.len()`, if an index is out of
    /// bounds or repeated, or if a state does not belong to this encoder.
    pub fn push_batch(&self, states: &mut [EncoderState], indices: &[usize], steps: &Matrix) {
        let Some(mut batch) =
            gather_states(states, indices, steps, self.gru.num_layers(), self.hidden)
        else {
            return;
        };
        self.gru.step(steps, &mut batch);
        scatter_states(states, indices, &batch);
    }
}

/// Validates a batched-step request and gathers the selected per-flow
/// hidden rows into per-layer `(B, H)` matrices; returns `None` for the
/// empty batch.
///
/// # Panics
/// Panics if `steps.rows() != indices.len()`, if an index is out of
/// bounds or repeated, or if a state does not belong to this encoder.
fn gather_states(
    states: &[EncoderState],
    indices: &[usize],
    steps: &Matrix,
    layers: usize,
    hidden: usize,
) -> Option<Vec<Matrix>> {
    assert_eq!(steps.rows(), indices.len(), "push_batch shape mismatch");
    assert_eq!(steps.cols(), STEP_DIM, "push_batch expects (B, 2) steps");
    if indices.is_empty() {
        return None;
    }
    // A repeated index would silently lose one of its pushes (the
    // scatter's last write wins), so enforce uniqueness uncondition-
    // ally — indices are small (one inference batch) and the check is
    // dwarfed by the GRU step itself.
    {
        let mut seen = indices.to_vec();
        seen.sort_unstable();
        assert!(
            seen.windows(2).all(|w| w[0] != w[1]),
            "push_batch indices must be unique"
        );
    }
    let b = indices.len();
    Some(
        (0..layers)
            .map(|l| {
                let mut m = Matrix::zeros(b, hidden);
                for (r, &i) in indices.iter().enumerate() {
                    let s = &states[i];
                    assert_eq!(s.state.len(), layers, "state depth mismatch");
                    assert_eq!(s.hidden, hidden, "state width mismatch");
                    m.row_mut(r).copy_from_slice(s.state[l].as_slice());
                }
                m
            })
            .collect(),
    )
}

/// Scatters stepped per-layer `(B, H)` rows back into the selected
/// states — the inverse of [`gather_states`].
fn scatter_states(states: &mut [EncoderState], indices: &[usize], batch: &[Matrix]) {
    for (l, m) in batch.iter().enumerate() {
        for (r, &i) in indices.iter().enumerate() {
            states[i].state[l].as_mut_slice().copy_from_slice(m.row(r));
        }
    }
}

/// Incremental GRU state over one growing sequence.
#[derive(Clone, Debug)]
pub struct EncoderState {
    state: Vec<Matrix>,
    hidden: usize,
}

impl EncoderState {
    /// Feeds one `(size, delay)` step.
    pub fn push(&mut self, enc: &EncoderSnapshot, step: [f32; 2]) {
        let x = Matrix::from_vec(1, STEP_DIM, step.to_vec());
        enc.gru.step(&x, &mut self.state);
    }

    /// Current fixed-size representation (top-layer hidden, length `H`).
    pub fn representation(&self) -> &[f32] {
        self.state.last().expect("nonempty state").as_slice()
    }

    /// Representation width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Moves the state out, leaving one with no layers in its place
    /// (no allocation). Lockstep rollouts gather a chunk's states into
    /// one slice for [`EncoderSnapshot::push_batch`] this way and move
    /// them back when the window ends.
    pub(crate) fn take(&mut self) -> EncoderState {
        EncoderState {
            state: std::mem::take(&mut self.state),
            hidden: self.hidden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> AmoebaConfig {
        AmoebaConfig {
            encoder_hidden: 12,
            encoder_layers: 2,
            encoder_train_flows: 48,
            encoder_max_len: 10,
            encoder_epochs: 8,
            encoder_batch: 16,
            encoder_lr: 5e-3,
            ..AmoebaConfig::fast()
        }
    }

    #[test]
    fn synthetic_flows_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let flows = synthetic_flows(10, 20, &mut rng);
        assert_eq!(flows.len(), 10);
        for f in &flows {
            assert_eq!(f.len(), 20);
            assert_eq!(f[0][1], 0.0, "first delay must be 0");
            for s in f {
                assert!((-1.0..1.0).contains(&s[0]));
                assert!((0.0..1.0).contains(&s[1]));
            }
        }
    }

    #[test]
    fn pretraining_reduces_reconstruction_loss() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut enc = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng);
        // One-epoch loss as the "before" reference.
        let before = {
            let mut one = cfg.clone();
            one.encoder_epochs = 1;
            enc.pretrain(&one)
        };
        let after = enc.pretrain(&cfg);
        assert!(
            after < before,
            "pretraining did not improve: {before} -> {after}"
        );
    }

    #[test]
    fn incremental_matches_batch_encoding() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng);
        let snap = enc.snapshot();
        let steps = vec![[0.5, 0.0], [-0.3, 0.2], [0.9, 0.7]];
        let whole = snap.encode(&steps);
        let mut state = snap.begin();
        for s in &steps {
            state.push(&snap, *s);
        }
        assert_eq!(whole, state.representation());
        assert_eq!(whole.len(), cfg.encoder_hidden);
    }

    #[test]
    fn different_sequences_get_different_representations() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = StateEncoder::new(16, 2, &mut rng);
        let snap = enc.snapshot();
        let a = snap.encode(&[[1.0, 0.0], [1.0, 0.1]]);
        let b = snap.encode(&[[-1.0, 0.0], [-1.0, 0.1]]);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-3, "representations collapsed");
    }

    #[test]
    fn nmae_is_finite_and_reported_per_length() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(5);
        let mut enc = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng);
        enc.pretrain(&cfg);
        let nmae = enc.evaluate_nmae(&[1, 5, 10], 8, 99);
        assert_eq!(nmae.len(), 3);
        assert!(nmae.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    /// The batched dataplane path: fused multi-flow steps must be
    /// bit-identical to per-flow pushes, for any batch grouping.
    #[test]
    fn push_batch_matches_individual_pushes() {
        let mut rng = StdRng::seed_from_u64(7);
        let enc = StateEncoder::new(10, 2, &mut rng);
        let snap = enc.snapshot();
        let n = 7;
        let mut batched: Vec<EncoderState> = (0..n).map(|_| snap.begin()).collect();
        let mut single: Vec<EncoderState> = (0..n).map(|_| snap.begin()).collect();
        // Three rounds over changing, non-contiguous subsets.
        let rounds: [&[usize]; 3] = [&[0, 2, 4, 6], &[1, 3, 5], &[6, 0, 3]];
        for (round, indices) in rounds.iter().enumerate() {
            let mut steps = Matrix::zeros(indices.len(), STEP_DIM);
            for (r, &i) in indices.iter().enumerate() {
                let step = [
                    ((round * 7 + i) as f32 * 0.37).sin(),
                    ((round + i) as f32 * 0.21).cos().abs(),
                ];
                steps.row_mut(r).copy_from_slice(&step);
                single[i].push(&snap, step);
            }
            snap.push_batch(&mut batched, indices, &steps);
        }
        for i in 0..n {
            let a: Vec<u32> = batched[i]
                .representation()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let b: Vec<u32> = single[i]
                .representation()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(a, b, "state {i} diverged");
        }
    }

    #[test]
    fn empty_state_representation_is_zero() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = StateEncoder::new(8, 2, &mut rng);
        let snap = enc.snapshot();
        let s = snap.begin();
        assert!(s.representation().iter().all(|&v| v == 0.0));
    }
}
