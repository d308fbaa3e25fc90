//! End-to-end property test of the censor-program refactor's core
//! equivalence claim: a one-shot [`Censor`] registered through
//! [`ServeEngine::register_censor`] — which wraps it in the degenerate
//! `ClassifierProgramFactory` streaming adapter — must reproduce the
//! pre-refactor one-shot verdict path *exactly*, for every session, at
//! every grouping.
//!
//! The pre-refactor path no longer exists in code, so the oracle is
//! recomputed from first principles: for each session the recorded wire
//! flow is replayed against the raw one-shot censor — inline verdicts at
//! every cadence point over growing wire prefixes, final score over the
//! full wire — and the session's `blocked_midstream` / `final_score` /
//! `evaded` must match bit-for-bit. The same run is then repeated across
//! shards 1/4 × steal on/off × batch 1/64 and the
//! wire plus every per-session verdict must be identical: program state
//! rides the work item, so grouping stays a pure throughput knob.

mod common;

use std::sync::Arc;

use common::arb_flow;
use proptest::prelude::*;

use amoeba_classifiers::{Censor, CensorKind};
use amoeba_serve::{
    testutil::tiny_policy, ServeConfig, ServeEngine, ServeReport, SessionStatus, VerdictPolicy,
};
use amoeba_traffic::{Flow, Layer};

/// Inline-verdict cadence used throughout: small enough that short
/// random flows still get mid-stream verdicts.
const EVERY: usize = 2;

/// A deterministic, wire-sensitive one-shot censor: the score folds
/// every packet size and delay through FNV, so mid-stream verdicts
/// genuinely change as the prefix grows — unlike a constant-score
/// fixture, this exercises the blocked-midstream state machine.
#[derive(Debug)]
struct FoldCensor;

impl Censor for FoldCensor {
    fn score(&self, flow: &Flow) -> f32 {
        let mut h: u32 = 0x811c_9dc5;
        for (s, d) in flow.sizes().iter().zip(flow.delays()) {
            h = (h ^ *s as u32).wrapping_mul(0x0100_0193);
            h = (h ^ d.to_bits()).wrapping_mul(0x0100_0193);
        }
        (h % 1001) as f32 / 1000.0
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Dt
    }
}

fn run(flows: &[Flow], seed: u64, batch: usize, shards: usize, steal: bool) -> ServeReport {
    let cfg = ServeConfig::new(Layer::Tcp)
        .with_seed(seed)
        .with_batch(batch)
        .with_shards(shards)
        .with_steal(steal)
        .with_verdicts(VerdictPolicy::Every(EVERY));
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(tiny_policy(7));
    let c = engine.register_censor(Arc::new(FoldCensor));
    engine.admit_all(flows.iter(), p, c);
    engine.run()
}

/// The pre-refactor one-shot verdict trail, recomputed from the recorded
/// wire: inline `censor.blocks(prefix)` at every cadence point before the
/// final frame (stopping once blocked), then `censor.score(full wire)` as
/// the final verdict. Without NetEm each frame is exactly one wire
/// packet, so `wire.prefix(k)` is the censor-visible flow after frame `k`.
fn one_shot_oracle(wire: &Flow, frames: usize) -> (bool, f32) {
    let censor = FoldCensor;
    let mut blocked = false;
    for k in 1..frames {
        if k % EVERY == 0 && !blocked && censor.score(&wire.prefix(k)) >= 0.5 {
            blocked = true;
        }
    }
    (blocked, censor.score(wire))
}

proptest! {
    // Each case runs the dataplane nine times; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random flows: the adapted classifier program's verdicts equal the
    /// recomputed one-shot oracle session-by-session, and every grouping
    /// (shards × steal × batch) reproduces wire and verdicts
    /// bit-for-bit.
    #[test]
    fn adapted_classifier_matches_one_shot_path_across_groupings(
        flows in prop::collection::vec(arb_flow(), 4..20),
        seed in any::<u64>(),
        steal in any::<bool>(),
    ) {
        let reference = run(&flows, seed, 1, 1, false);
        prop_assert_eq!(reference.outcomes.len(), flows.len());
        for o in &reference.outcomes {
            // A degenerate classifier program never tears a session down.
            prop_assert_eq!(o.status, SessionStatus::Completed);
            prop_assert_eq!(o.frames, o.wire.len(), "one frame = one wire packet");
            let (blocked, final_score) = one_shot_oracle(&o.wire, o.frames);
            prop_assert_eq!(
                o.blocked_midstream, blocked,
                "session {}: inline verdict trail diverged from the one-shot oracle", o.id
            );
            prop_assert_eq!(
                o.final_score, final_score,
                "session {}: final score diverged from the one-shot oracle", o.id
            );
            prop_assert_eq!(o.evaded, !blocked && final_score < 0.5);
        }
        let ref_bits = reference.wire_bits();
        for shards in [1usize, 4] {
            for batch in [1usize, 64] {
                let r = run(&flows, seed, batch, shards, steal);
                prop_assert_eq!(
                    r.wire_bits(),
                    ref_bits.clone(),
                    "{} shards x batch {} (steal {}) moved a wire bit",
                    shards, batch, steal
                );
                for (a, b) in reference.outcomes.iter().zip(&r.outcomes) {
                    prop_assert_eq!(a.id, b.id);
                    prop_assert_eq!(a.final_score, b.final_score);
                    prop_assert_eq!(a.blocked_midstream, b.blocked_midstream);
                    prop_assert_eq!(a.status, b.status);
                    prop_assert_eq!(a.evaded, b.evaded);
                }
            }
        }
    }
}
