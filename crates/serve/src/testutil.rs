//! Test fixtures and the reusable **backend-conformance suite**.
//!
//! The fixture half provides one definition of the tiny frozen policy,
//! the constant-score censor and the random offered flows that the
//! crate's unit tests, integration tests and benches drive the dataplane
//! with.
//!
//! The conformance half is the executable form of the
//! [`crate::backend`] obligations: checks that are generic over
//! `dyn` [`InferenceBackend`], so any backend — present or future (packed,
//! async, GPU) — inherits the full bit-exactness contract by being
//! dropped into one [`backend_conformance_suite!`](crate::backend_conformance_suite)
//! invocation in `tests/backend_conformance.rs`:
//!
//! * [`check_batch_ops_bit_exact`] — `push_batch` / `head_batch` against
//!   the per-flow snapshot paths, across groupings and batch sizes;
//! * [`check_engine_matches_cpu_reference`] — a pinned multi-tenant
//!   engine run against the [`CpuBackend`] reference, wire and verdicts;
//! * [`run_workload`] — the parameterised engine harness the end-to-end
//!   proptest (random flows × policies × censors × shards × batches)
//!   compares backends with.
//!
//! The **tolerance conformance tier** is the contract for backends that
//! deliberately break bit-identity (int8 quantization — tier B in
//! [`crate::backend`]'s exactness table): instead of byte-equality, a
//! [`ToleranceSpec`] bounds how far the candidate's wire output and
//! evasion behaviour may drift from the [`CpuBackend`] reference on the
//! same workload:
//!
//! * [`StatCensor`] — a deterministic *wire-dependent* censor (logistic
//!   score over the mean absolute frame size), so evasion verdicts
//!   genuinely respond to wire perturbations (a constant censor would
//!   make any evasion-delta bound vacuous);
//! * [`run_workload_with`] — [`run_workload`] with explicit censors;
//! * [`check_reports_within_tolerance`] /
//!   [`check_backend_within_tolerance`] — the bounded-divergence
//!   assertions, per session, per tenant, and in aggregate.
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

/// An allow-everything censor.
pub fn allow_censor() -> Arc<dyn Censor> {
    scoring_censor(0.1)
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

/// One backend-comparison engine workload: flows, their `(policy,
/// censor)` assignment, and the grouping knobs. [`run_workload`] turns it
/// into a [`ServeReport`] under any backend; identical workloads under
/// different conformant backends must produce bit-identical reports.
pub struct BackendWorkload<'a> {
    /// Offered flows; flow `i` is admitted with session id `i`.
    pub flows: &'a [Flow],
    /// Per-flow `(policy index, censor index)` assignment
    /// (`assignment[i % assignment.len()]` serves flow `i`).
    pub assignment: &'a [(usize, usize)],
    /// The policy table.
    pub policies: &'a [FrozenPolicy],
    /// Constant scores, one registered censor each.
    pub censor_scores: &'a [f32],
    /// Master seed.
    pub seed: u64,
    /// Inference batch cap.
    pub batch: usize,
    /// Shard (worker thread) count.
    pub shards: usize,
    /// Overlap inference and framing in a two-stage pipeline.
    pub pipeline: bool,
    /// Let idle shards steal due chunks from loaded ones.
    pub steal: bool,
    /// Optional path impairment.
    pub netem: Option<NetEm>,
}

/// Runs one multi-tenant engine over the workload with the given
/// backend (sampled actions, inline verdicts every 4 frames — the most
/// RNG- and censor-coupled configuration).
pub fn run_workload(w: &BackendWorkload<'_>, backend: Arc<dyn InferenceBackend>) -> ServeReport {
    let censors: Vec<Arc<dyn Censor>> =
        w.censor_scores.iter().map(|&s| scoring_censor(s)).collect();
    run_workload_with(w, &censors, backend)
}

/// [`run_workload`] with an explicit censor table replacing the
/// workload's constant scores — the harness the tolerance tier drives
/// with wire-dependent [`StatCensor`]s.
pub fn run_workload_with(
    w: &BackendWorkload<'_>,
    censors: &[Arc<dyn Censor>],
    backend: Arc<dyn InferenceBackend>,
) -> ServeReport {
    let cfg = ServeConfig::builder(Layer::Tcp)
        .seed(w.seed)
        .batch(w.batch)
        .shards(w.shards)
        .pipeline(w.pipeline)
        .steal(w.steal)
        .mode(ActionMode::Sample)
        .netem(w.netem)
        .verdicts(VerdictPolicy::Every(4))
        .build();
    let mut engine = ServeEngine::new(cfg).with_backend(backend);
    let pids: Vec<_> = w
        .policies
        .iter()
        .map(|p| engine.register_policy(p.clone()))
        .collect();
    let cids: Vec<_> = censors
        .iter()
        .map(|c| engine.register_censor(Arc::clone(c)))
        .collect();
    for (i, f) in w.flows.iter().enumerate() {
        let (p, c) = w.assignment[i % w.assignment.len()];
        engine
            .admit(f)
            .id(i)
            .policy(pids[p % pids.len()])
            .censor(cids[c % cids.len()])
            .submit();
    }
    engine.run()
}

/// Asserts two reports carry bit-identical wire output and identical
/// verdicts, session by session.
///
/// # Panics
/// Panics (failing the test) on the first divergence.
pub fn assert_reports_wire_identical(a: &ServeReport, b: &ServeReport, what: &str) {
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
/// policies × 3 censors, sampled actions, NetEm impairment, batch 16 ×
/// 2 shards with pipelining and stealing on) against the [`CpuBackend`]
/// reference at batch 1 × 1 shard with both off — the candidate backend
/// must reproduce the reference wire output and verdicts bit-for-bit
/// even though the backend, the grouping *and* the scheduler mode all
/// changed.
///
/// # Panics
/// Panics (failing the test) on the first divergence.
pub fn check_engine_matches_cpu_reference(backend: Arc<dyn InferenceBackend>) {
    let name = backend.name();
    let flows = offered_flows(60, 3);
    let policies = [tiny_policy(7), tiny_policy(19)];
    let assignment: Vec<(usize, usize)> = (0..6).map(|i| (i / 3, i % 3)).collect();
    let netem = Some(NetEm {
        drop_rate: 0.08,
        retransmit_timeout_ms: 50.0,
        jitter_std: 0.2,
    });
    let workload = |batch: usize, shards: usize, pipeline: bool, steal: bool| BackendWorkload {
        flows: &flows,
        assignment: &assignment,
        policies: &policies,
        censor_scores: &[0.1, 0.45, 0.9],
        seed: 23,
        batch,
        shards,
        pipeline,
        steal,
        netem,
    };
    let reference = run_workload(&workload(1, 1, false, false), Arc::new(CpuBackend));
    let candidate = run_workload(&workload(16, 2, true, true), backend);
    assert_reports_wire_identical(
        &reference,
        &candidate,
        &format!("backend {name} vs cpu reference"),
    );
    assert_eq!(candidate.stream_ok_rate(), 1.0);
}

/// A deterministic, **wire-dependent** censor for the tolerance tier: a
/// logistic score over the mean absolute frame size,
/// `σ((mean|size| − midpoint) / width)`. Unlike [`scoring_censor`]'s
/// constant, this verdict genuinely responds to what the policy puts on
/// the wire, so a bound on the evasion-rate delta between two backends
/// is a real statement about behavioural divergence — with a constant
/// censor it would hold vacuously. The score is a pure function of the
/// flow (no RNG, no state), so it never perturbs the dataplane's
/// determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct StatCensor {
    /// Mean-|size| (bytes) at which the score crosses 0.5.
    pub midpoint: f32,
    /// Logistic width (bytes); smaller = sharper verdict boundary.
    pub width: f32,
}

impl Censor for StatCensor {
    fn score(&self, flow: &Flow) -> f32 {
        if flow.packets.is_empty() {
            return 0.0;
        }
        let mean_abs = flow
            .packets
            .iter()
            .map(|p| p.size.unsigned_abs() as f32)
            .sum::<f32>()
            / flow.packets.len() as f32;
        1.0 / (1.0 + (-(mean_abs - self.midpoint) / self.width.max(1.0)).exp())
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Dt
    }
}

/// Three [`StatCensor`]s with staggered midpoints (lenient, mid,
/// strict) — the censor axis of the tolerance tier's policy × censor
/// matrix. Midpoints bracket the typical shaped mean frame size so each
/// censor blocks a different, nonzero fraction of sessions.
pub fn stat_censors() -> Vec<Arc<dyn Censor>> {
    [
        StatCensor {
            midpoint: 900.0,
            width: 150.0,
        },
        StatCensor {
            midpoint: 700.0,
            width: 100.0,
        },
        StatCensor {
            midpoint: 500.0,
            width: 60.0,
        },
    ]
    .into_iter()
    .map(|c| Arc::new(c) as Arc<dyn Censor>)
    .collect()
}

/// Divergence budget for the tolerance conformance tier: how far a
/// tier-B backend's report may drift from the [`CpuBackend`] reference
/// on the identical workload. All bounds are checked by
/// [`check_reports_within_tolerance`]; the defaults are the ε the
/// in-crate quantized backend ships under.
#[derive(Debug, Clone, Copy)]
pub struct ToleranceSpec {
    /// Max |evasion-rate delta|, overall **and per tenant** (ε).
    pub max_evasion_delta: f32,
    /// Max relative delta in a session's total wire bytes
    /// (`|a−b| / max(a, b)`).
    pub max_wire_bytes_rel_delta: f32,
    /// Max relative delta in a session's emitted frame count.
    pub max_frames_rel_delta: f32,
}

impl Default for ToleranceSpec {
    fn default() -> Self {
        Self {
            max_evasion_delta: 0.10,
            max_wire_bytes_rel_delta: 0.15,
            max_frames_rel_delta: 0.25,
        }
    }
}

/// Asserts a candidate report stays within the tolerance budget of the
/// reference report from the identical workload: same session set, every
/// session's wire output close in frame count and total bytes, and
/// evasion rates within ε both overall and per `(policy, censor)`
/// tenant. Structural invariants (payload-conserving streams) must hold
/// exactly — quantization is allowed to move *sizes*, never to corrupt
/// *content*.
///
/// # Panics
/// Panics (failing the test) on the first exceeded bound.
pub fn check_reports_within_tolerance(
    reference: &ServeReport,
    candidate: &ServeReport,
    spec: &ToleranceSpec,
    what: &str,
) {
    assert_eq!(
        reference.outcomes.len(),
        candidate.outcomes.len(),
        "{what}: session count diverged"
    );
    assert_eq!(
        candidate.stream_ok_rate(),
        1.0,
        "{what}: candidate corrupted a stream"
    );
    let (wa, wb) = (reference.wire_bits(), candidate.wire_bits());
    for (i, (sa, sb)) in wa.iter().zip(&wb).enumerate() {
        let rel = |a: f32, b: f32| (a - b).abs() / a.max(b).max(1.0);
        let frames_delta = rel(sa.len() as f32, sb.len() as f32);
        assert!(
            frames_delta <= spec.max_frames_rel_delta,
            "{what}: session {i} frame count drifted {:.3} > {} ({} vs {} frames)",
            frames_delta,
            spec.max_frames_rel_delta,
            sa.len(),
            sb.len()
        );
        let bytes = |s: &[(i32, u32)]| {
            s.iter()
                .map(|(sz, _)| sz.unsigned_abs() as f32)
                .sum::<f32>()
        };
        let bytes_delta = rel(bytes(sa), bytes(sb));
        assert!(
            bytes_delta <= spec.max_wire_bytes_rel_delta,
            "{what}: session {i} wire bytes drifted {:.3} > {}",
            bytes_delta,
            spec.max_wire_bytes_rel_delta
        );
    }
    let overall = (reference.evasion_rate() - candidate.evasion_rate()).abs();
    assert!(
        overall <= spec.max_evasion_delta,
        "{what}: overall evasion delta {overall:.3} > {}",
        spec.max_evasion_delta
    );
    let subs_ref = reference.sub_reports();
    let subs_cand = candidate.sub_reports();
    assert_eq!(
        subs_ref.len(),
        subs_cand.len(),
        "{what}: tenant set diverged"
    );
    for ((ta, ra), (tb, rb)) in subs_ref.iter().zip(&subs_cand) {
        assert_eq!(ta, tb, "{what}: tenant order diverged");
        let delta = (ra.evasion_rate() - rb.evasion_rate()).abs();
        assert!(
            delta <= spec.max_evasion_delta,
            "{what}: tenant {ta:?} evasion delta {delta:.3} > {}",
            spec.max_evasion_delta
        );
    }
}

/// The tolerance-tier engine check: runs the pinned multi-tenant
/// workload of [`check_engine_matches_cpu_reference`] — but against the
/// wire-dependent [`stat_censors`] matrix — under the [`CpuBackend`]
/// reference and the candidate, and bounds the divergence with the
/// given [`ToleranceSpec`].
///
/// # Panics
/// Panics (failing the test) on the first exceeded bound.
pub fn check_backend_within_tolerance(backend: Arc<dyn InferenceBackend>, spec: &ToleranceSpec) {
    let name = backend.name();
    let flows = offered_flows(60, 3);
    let policies = [tiny_policy(7), tiny_policy(19)];
    let assignment: Vec<(usize, usize)> = (0..6).map(|i| (i / 3, i % 3)).collect();
    let censors = stat_censors();
    let workload = BackendWorkload {
        flows: &flows,
        assignment: &assignment,
        policies: &policies,
        censor_scores: &[],
        seed: 23,
        batch: 16,
        shards: 2,
        pipeline: true,
        steal: true,
        netem: None,
    };
    let reference = run_workload_with(&workload, &censors, Arc::new(CpuBackend));
    let candidate = run_workload_with(&workload, &censors, backend);
    check_reports_within_tolerance(
        &reference,
        &candidate,
        spec,
        &format!("backend {name} vs cpu reference (tolerance tier)"),
    );
}

/// Instantiates the deterministic half of the backend-conformance suite
/// for one backend: a module of `#[test]`s running
/// [`check_batch_ops_bit_exact`](crate::testutil::check_batch_ops_bit_exact)
/// and
/// [`check_engine_matches_cpu_reference`](crate::testutil::check_engine_matches_cpu_reference).
/// Dropping a new backend into the suite is one line:
///
/// ```ignore
/// amoeba_serve::backend_conformance_suite!(my_backend, MyBackend::new());
/// ```
#[macro_export]
macro_rules! backend_conformance_suite {
    ($name:ident, $backend:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn batch_ops_match_per_flow_snapshot_paths_bit_exact() {
                $crate::testutil::check_batch_ops_bit_exact(&$backend);
            }

            #[test]
            fn pinned_multi_tenant_engine_run_matches_cpu_reference() {
                $crate::testutil::check_engine_matches_cpu_reference(::std::sync::Arc::new(
                    $backend,
                ));
            }
        }
    };
}
