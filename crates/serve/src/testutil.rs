//! Test fixtures and the reusable **backend-conformance checks**.
//!
//! The fixture half provides one definition of the tiny frozen policy,
//! the constant-score censor and the random offered flows that the
//! crate's unit tests, integration tests and benches drive the dataplane
//! with.
//!
//! The conformance half is the executable form of the
//! [`crate::backend`] obligations: checks that are generic over
//! `dyn` [`InferenceBackend`], so any backend inherits the full
//! bit-exactness contract by being passed to them, as
//! `tests/backend_conformance.rs` does for [`CpuBackend`]:
//!
//! * [`check_batch_ops_bit_exact`] — `push_batch` / `head_batch` against
//!   the per-flow snapshot paths, across groupings and batch sizes;
//! * [`check_engine_matches_cpu_reference`] — a pinned multi-tenant
//!   engine run against the [`CpuBackend`] reference, wire and verdicts.
//!
//! This module ships in the library (not `#[cfg(test)]`) precisely so
//! integration tests and downstream backend authors can reuse it.

use std::sync::Arc;

use amoeba_classifiers::{Censor, CensorKind, ConstantCensor};
use amoeba_core::encoder::{EncoderState, StateEncoder};
use amoeba_core::policy::Actor;
use amoeba_core::AmoebaConfig;
use amoeba_nn::matrix::Matrix;
use amoeba_traffic::{Flow, Layer, NetEm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::{CpuBackend, InferenceBackend};
use crate::{ActionMode, FrozenPolicy, ServeConfig, ServeEngine, ServeReport, VerdictPolicy};

/// A small randomly initialised frozen policy (16-hidden encoder, one
/// 32-wide actor layer); distinct seeds give distinct weights.
pub fn tiny_policy(seed: u64) -> FrozenPolicy {
    let mut rng = StdRng::seed_from_u64(seed);
    let encoder = StateEncoder::new(16, 2, &mut rng);
    let cfg = AmoebaConfig {
        encoder_hidden: 16,
        actor_hidden: vec![32],
        ..AmoebaConfig::fast()
    };
    let actor = Actor::new(&cfg, &mut rng);
    FrozenPolicy::new(encoder.snapshot(), actor.snapshot())
}

/// A censor that scores every flow with the given constant.
pub fn scoring_censor(score: f32) -> Arc<dyn Censor> {
    Arc::new(ConstantCensor {
        fixed_score: score,
        as_kind: CensorKind::Dt,
    })
}

/// `n` random offered flows (2–5 packets, random sizes/signs/delays).
pub fn offered_flows(n: usize, seed: u64) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(2..6usize);
            Flow::from_pairs(
                &(0..len)
                    .map(|i| {
                        let size = rng.gen_range(40..1400i32);
                        let sign = if rng.gen_bool(0.5) { 1 } else { -1 };
                        let delay = if i == 0 {
                            0.0
                        } else {
                            rng.gen_range(0.0..8.0f32)
                        };
                        (sign * size, delay)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

/// Conformance check 1: the backend's two batch operations are bit-exact
/// against the per-flow snapshot paths, for any grouping.
///
/// * `push_batch` is run over three rounds of changing, non-contiguous
///   index subsets and compared state-by-state with individual
///   [`EncoderState::push`] calls (the per-flow reference path);
/// * `head_batch` is run at batch sizes 1, 5 and 64 and compared
///   row-by-row with single-row head passes — which also pins that the
///   result for a row is independent of which other rows share the
///   batch.
///
/// # Panics
/// Panics (failing the test) on the first bit divergence.
pub fn check_batch_ops_bit_exact(backend: &dyn InferenceBackend) {
    let policy = tiny_policy(11);

    // push_batch vs per-flow pushes, across non-contiguous groupings.
    let n = 9;
    let mut batched: Vec<EncoderState> = (0..n).map(|_| policy.encoder.begin()).collect();
    let mut single: Vec<EncoderState> = (0..n).map(|_| policy.encoder.begin()).collect();
    let rounds: [&[usize]; 4] = [&[0, 2, 4, 6, 8], &[1, 3, 5, 7], &[8, 0, 3], &[5]];
    for (round, indices) in rounds.iter().enumerate() {
        let mut steps = Matrix::zeros(indices.len(), 2);
        for (r, &i) in indices.iter().enumerate() {
            let step = [
                ((round * 11 + i) as f32 * 0.37).sin(),
                ((round + i) as f32 * 0.21).cos().abs(),
            ];
            steps.row_mut(r).copy_from_slice(&step);
            single[i].push(&policy.encoder, step);
        }
        backend.push_batch(&policy, &mut batched, indices, &steps);
    }
    for (i, (a, b)) in batched.iter().zip(&single).enumerate() {
        assert_bits_eq(
            a.representation(),
            b.representation(),
            &format!("backend {} push_batch state {i}", backend.name()),
        );
    }

    // head_batch vs single-row head passes, across batch sizes.
    let hidden = policy.encoder.hidden_size();
    let mut rng = StdRng::seed_from_u64(5);
    for b in [1usize, 5, 64] {
        let states = Matrix::randn(b, 2 * hidden, 1.0, &mut rng);
        let (means, logstds) = backend.head_batch(&policy, &states);
        assert_eq!(means.rows(), b);
        assert_eq!(logstds.rows(), b);
        for r in 0..b {
            let row = Matrix::from_vec(1, 2 * hidden, states.row(r).to_vec());
            let (m1, s1) = backend.head_batch(&policy, &row);
            assert_bits_eq(
                means.row(r),
                m1.row(0),
                &format!("backend {} head_batch({b}) means row {r}", backend.name()),
            );
            assert_bits_eq(
                logstds.row(r),
                s1.row(0),
                &format!("backend {} head_batch({b}) logstd row {r}", backend.name()),
            );
            // And against the reference snapshot path.
            let (m2, s2) = policy.actor.head_batch(&row);
            assert_bits_eq(m1.row(0), m2.row(0), "single-row means vs snapshot");
            assert_bits_eq(s1.row(0), s2.row(0), "single-row logstds vs snapshot");
        }
    }
}

/// Asserts two reports carry bit-identical wire output and identical
/// verdicts, session by session.
fn assert_reports_wire_identical(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(
        a.outcomes.len(),
        b.outcomes.len(),
        "{what}: session count diverged"
    );
    let (wa, wb) = (a.wire_bits(), b.wire_bits());
    for i in 0..wa.len() {
        assert_eq!(wa[i], wb[i], "{what}: session {i} wire diverged");
        assert_eq!(
            a.outcomes[i].final_score.to_bits(),
            b.outcomes[i].final_score.to_bits(),
            "{what}: session {i} verdict diverged"
        );
        assert_eq!(
            a.outcomes[i].evaded, b.outcomes[i].evaded,
            "{what}: session {i} evasion diverged"
        );
    }
}

/// Conformance check 2: a pinned multi-tenant engine run (60 flows, 2
/// policies × 3 censors, sampled actions, inline verdicts every 4
/// frames, NetEm impairment, batch 16 × 2 shards with stealing on)
/// against the [`CpuBackend`] reference at batch 1 × 1 shard with
/// stealing off — the candidate backend must reproduce the reference
/// wire output and verdicts bit-for-bit even though the backend, the
/// grouping *and* the scheduler mode all changed.
///
/// # Panics
/// Panics (failing the test) on the first divergence.
pub fn check_engine_matches_cpu_reference(backend: Arc<dyn InferenceBackend>) {
    let name = backend.name();
    let flows = offered_flows(60, 3);
    let policies = [tiny_policy(7), tiny_policy(19)];
    let scores = [0.1, 0.45, 0.9];
    let run = |batch: usize, shards: usize, steal: bool, backend: Arc<dyn InferenceBackend>| {
        let cfg = ServeConfig::builder(Layer::Tcp)
            .seed(23)
            .batch(batch)
            .shards(shards)
            .steal(steal)
            .mode(ActionMode::Sample)
            .netem(Some(NetEm {
                drop_rate: 0.08,
                retransmit_timeout_ms: 50.0,
                jitter_std: 0.2,
            }))
            .verdicts(VerdictPolicy::Every(4))
            .build();
        let mut engine = ServeEngine::new(cfg).with_backend(backend);
        let pids: Vec<_> = policies
            .iter()
            .map(|p| engine.register_policy(p.clone()))
            .collect();
        let cids: Vec<_> = scores
            .iter()
            .map(|&s| engine.register_censor(scoring_censor(s)))
            .collect();
        for (i, f) in flows.iter().enumerate() {
            let tenant = i % 6;
            engine
                .admit(f)
                .id(i)
                .policy(pids[tenant / 3])
                .censor(cids[tenant % 3])
                .submit();
        }
        engine.run()
    };
    let reference = run(1, 1, false, Arc::new(CpuBackend));
    let candidate = run(16, 2, true, backend);
    assert_reports_wire_identical(
        &reference,
        &candidate,
        &format!("backend {name} vs cpu reference"),
    );
    assert_eq!(candidate.stream_ok_rate(), 1.0);
}
