//! End-to-end property test of the engine's tenancy-invariance contract:
//! a session's wire output is a pure function of
//! `(seed, session_id, policy, censor)` — never of which other tenants
//! share the process, how sessions are packed into shards or batches, or
//! the order tenants were registered in.
//!
//! Each case builds one multi-tenant engine (random flows spread across
//! 2 policies × 3 censors), runs it at a random shard count (1 or 4),
//! batch size (1 or 64), pipelining on/off and work-stealing on/off, and
//! asserts every session is bit-identical to a
//! fresh single-tenant engine run carrying only that session's
//! `(id, flow)` under its `(policy, censor)` pair — and that re-running
//! the same multi-tenant mix on the `PackedBackend` reproduces the
//! `CpuBackend` run byte for byte (backend choice is a pure throughput
//! knob, like sharding and batching).

mod common;

use common::{scoring_censor as censor, tiny_policy};
use proptest::prelude::*;

use amoeba_serve::{ActionMode, BackendKind, ServeConfig, ServeEngine};
use amoeba_traffic::{Layer, NetEm};

fn config(
    seed: u64,
    batch: usize,
    shards: usize,
    pipeline: bool,
    steal: bool,
    netem: Option<NetEm>,
    backend: BackendKind,
) -> ServeConfig {
    ServeConfig::builder(Layer::Tcp)
        .seed(seed)
        .batch(batch)
        .shards(shards)
        .pipeline(pipeline)
        .steal(steal)
        .mode(ActionMode::Sample)
        .netem(netem)
        .backend(backend)
        .build()
}

use common::arb_flow;

const CENSOR_SCORES: [f32; 3] = [0.1, 0.45, 0.9];

proptest! {
    // Each case runs one multi-tenant engine plus one single-tenant
    // engine per session; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random flows across 2 policies × 3 censors, shards 1/4, batch
    /// 1/64: every session bit-identical to its solo single-tenant run.
    #[test]
    fn co_tenants_never_change_a_sessions_wire_output(
        flows in prop::collection::vec(arb_flow(), 6..18),
        seed in any::<u64>(),
        four_shards in any::<bool>(),
        big_batch in any::<bool>(),
        pipeline in any::<bool>(),
        steal in any::<bool>(),
        with_netem in any::<bool>(),
        // Random tenant assignment per session.
        assignment in prop::collection::vec((0usize..2, 0usize..3), 18),
    ) {
        let netem = with_netem.then_some(NetEm {
            drop_rate: 0.08,
            retransmit_timeout_ms: 50.0,
            jitter_std: 0.2,
        });
        let shards = if four_shards { 4 } else { 1 };
        let batch = if big_batch { 64 } else { 1 };
        let policies = [tiny_policy(7), tiny_policy(19)];

        let run_mix = |backend: BackendKind| {
            let mut engine =
                ServeEngine::new(config(seed, batch, shards, pipeline, steal, netem, backend));
            let pids: Vec<_> = policies
                .iter()
                .map(|p| engine.register_policy(p.clone()))
                .collect();
            let cids: Vec<_> = CENSOR_SCORES
                .iter()
                .map(|&s| engine.register_censor(censor(s)))
                .collect();
            for (i, f) in flows.iter().enumerate() {
                let (p, c) = assignment[i];
                engine.admit(f).id(i).policy(pids[p]).censor(cids[c]).submit();
            }
            engine.run()
        };
        let multi = run_mix(BackendKind::Cpu);
        prop_assert_eq!(multi.outcomes.len(), flows.len());
        let multi_bits = multi.wire_bits();

        // The same random tenant mix on the packed backend: byte-identical
        // wire and verdicts (backend choice is a pure throughput knob).
        let packed = run_mix(BackendKind::Packed);
        prop_assert_eq!(&multi_bits, &packed.wire_bits(), "PackedBackend diverged from CpuBackend");
        for (a, b) in multi.outcomes.iter().zip(&packed.outcomes) {
            prop_assert_eq!(a.final_score.to_bits(), b.final_score.to_bits());
            prop_assert_eq!(a.evaded, b.evaded);
        }

        for (i, f) in flows.iter().enumerate() {
            let (p, c) = assignment[i];
            let mut solo =
                ServeEngine::new(config(seed, 1, 1, false, false, netem, BackendKind::Cpu));
            let pid = solo.register_policy(policies[p].clone());
            let cid = solo.register_censor(censor(CENSOR_SCORES[c]));
            solo.admit(f).id(i).policy(pid).censor(cid).submit();
            let solo = solo.run();
            prop_assert_eq!(
                &multi_bits[i],
                &solo.wire_bits()[0],
                "session {} (policy {}, censor {}) diverged from its solo run \
                 at {} shards x batch {}",
                i, p, c, shards, batch
            );
            prop_assert_eq!(
                multi.outcomes[i].final_score,
                solo.outcomes[0].final_score,
                "session {} verdict diverged", i
            );
        }
    }
}
