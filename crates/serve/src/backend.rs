//! Pluggable inference backends: the seam between the shard scheduler and
//! whatever executes the fused GRU/MLP passes.
//!
//! The scheduler only ever needs two operations per tick — advance a
//! batch of per-session encoder states by one observation each, and run
//! the actor heads over a batch of concatenated states. [`InferenceBackend`]
//! names exactly that contract; [`CpuBackend`] is its one in-crate
//! implementation (the snapshot fast path on the register-tiled matmul
//! nest). The trait stays so that a caller can wrap or replace it — a
//! timing wrapper, say — through [`crate::ServeEngine::with_backend`].
//!
//! ## Backend obligations: bit-exactness and summation order
//!
//! Any backend must preserve the dataplane's grouping- and
//! tenancy-invariance contract — wire output is a pure function of
//! `(seed, session_id, policy, censor)` — which reduces to two
//! obligations on the math:
//!
//! 1. **Row independence**: both operations must be bit-exact per row;
//!    the result for a session must not depend on which other sessions
//!    share the batch, the batch size, or the call order.
//! 2. **Summation order**: every output element must accumulate its
//!    `a[k] * b[k]` terms in the reference's ascending-`k` order, with
//!    one `mul` rounding and one `add` rounding per term. A kernel that
//!    re-associates the reduction (lane-wise horizontal adds) or fuses
//!    the roundings (FMA) changes wire output and is **not** a valid
//!    backend, however fast. [`CpuBackend`] satisfies this by
//!    vectorising over output *columns* only — see `amoeba_nn::simd`.
//!
//! ## Plugging in a new backend
//!
//! Implement [`InferenceBackend`] (usually by delegating to the snapshot
//! paths), then run [`crate::testutil::check_batch_ops_bit_exact`] and
//! [`crate::testutil::check_engine_matches_cpu_reference`] against it
//! before trusting it with traffic, as `tests/backend_conformance.rs`
//! does for [`CpuBackend`]. The checks are generic over
//! `dyn InferenceBackend`, so every obligation above is checked
//! mechanically. Hand it to an engine with
//! [`crate::ServeEngine::with_backend`].

use std::sync::Arc;

use amoeba_core::encoder::EncoderState;
use amoeba_nn::matrix::Matrix;

use crate::FrozenPolicy;

/// Executes the two fused inference operations the batched scheduler
/// needs. Implementations are shared (`Send + Sync`) across every shard
/// worker thread; all mutable state lives in the caller-owned
/// `EncoderState`s.
pub trait InferenceBackend: Send + Sync {
    /// Advances the selected per-session `E(·)` states by one step each in
    /// a single fused GRU pass: row `r` of `obs` (shape `(B, 2)`) feeds
    /// `states[indices[r]]`, exactly as
    /// [`amoeba_core::encoder::EncoderSnapshot::push_batch`].
    ///
    /// Must be bit-identical per row to a per-session
    /// [`amoeba_core::encoder::EncoderState::push`], for any grouping.
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    );

    /// Runs the actor heads over a `(B, 2H)` batch of concatenated
    /// `[E(x_{1:t}) | E(a_{1:t})]` states, returning `(means, logstds)`,
    /// exactly as [`amoeba_core::policy::ActorSnapshot::head_batch`].
    ///
    /// Must be bit-identical per row to a single-row head pass, for any
    /// grouping.
    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix);

    /// Human-readable backend label (reports and benches).
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// The reference backend: the frozen snapshots' own fused fast paths
/// (the register-tiled `amoeba_nn::simd` matmul nest at the detected
/// level, fused GRU gate pass), bit-identical to the per-flow paths by
/// construction. Training, rollouts and evaluation run the same
/// snapshot code, so a served policy is evaluated exactly as it was
/// trained.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackend;

impl InferenceBackend for CpuBackend {
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    ) {
        policy.encoder.push_batch(states, indices, obs);
    }

    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix) {
        policy.actor.head_batch(states)
    }

    fn name(&self) -> &'static str {
        "cpu"
    }
}

/// Config-friendly backend selector carried by [`crate::ServeConfig`].
///
/// [`CpuBackend`] is the only in-crate backend, so this has one variant.
/// It stays because the layer ledger (`ledger/`) names
/// `BackendKind::default()`, `ServeConfigBuilder::backend` and
/// `cfg.backend.instantiate()`; dropping the type changes the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The [`CpuBackend`].
    #[default]
    Cpu,
}

impl BackendKind {
    /// Instantiates the selected backend.
    pub fn instantiate(self) -> Arc<dyn InferenceBackend> {
        match self {
            BackendKind::Cpu => Arc::new(CpuBackend),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_policy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The CPU backend is definitionally the snapshot fast path: both ops
    /// must be bit-identical to calling the snapshots directly.
    #[test]
    fn cpu_backend_matches_snapshot_paths() {
        let p = tiny_policy(11);
        let backend = CpuBackend;
        assert_eq!(backend.name(), "cpu");
        assert_eq!(BackendKind::default().instantiate().name(), "cpu");

        let mut a: Vec<EncoderState> = (0..3).map(|_| p.encoder.begin()).collect();
        let mut b: Vec<EncoderState> = (0..3).map(|_| p.encoder.begin()).collect();
        let obs = Matrix::from_vec(2, 2, vec![0.25, -0.5, 0.75, 0.1]);
        backend.push_batch(&p, &mut a, &[0, 2], &obs);
        p.encoder.push_batch(&mut b, &[0, 2], &obs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.representation(), y.representation());
        }

        let mut rng = StdRng::seed_from_u64(5);
        let states = Matrix::randn(4, 2 * p.encoder.hidden_size(), 1.0, &mut rng);
        let (m1, s1) = backend.head_batch(&p, &states);
        let (m2, s2) = p.actor.head_batch(&states);
        assert_eq!(m1.as_slice(), m2.as_slice());
        assert_eq!(s1.as_slice(), s2.as_slice());
    }
}
