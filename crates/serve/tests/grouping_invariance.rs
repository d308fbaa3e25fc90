//! End-to-end property test of the dataplane's grouping-invariance
//! contract: for random offered flows, a fixed seed must produce
//! bit-identical per-session wire output no matter how sessions are
//! grouped — any shard count in `1..=8`, batch size 1 or 64, sampled
//! actions, NetEm impairment on or off, and the trace-ring size varied
//! (observability must never perturb the wire).
//!
//! Runs one-tenant [`ServeEngine`]s; the multi-tenant variant of this
//! property lives in `tenancy_invariance.rs`.

mod common;

use common::{arb_flow, scoring_censor, tiny_policy};
use proptest::prelude::*;

use amoeba_serve::{ActionMode, ServeConfig, ServeEngine, ServeReport};
use amoeba_traffic::{Flow, Layer, NetEm};

fn run(
    flows: &[Flow],
    seed: u64,
    batch: usize,
    shards: usize,
    steal: bool,
    netem: Option<NetEm>,
    trace_ring: usize,
) -> ServeReport {
    let cfg = ServeConfig::builder(Layer::Tcp)
        .seed(seed)
        .batch(batch)
        .shards(shards)
        .steal(steal)
        .trace_ring(trace_ring)
        .mode(ActionMode::Sample)
        .netem(netem)
        .build();
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(tiny_policy(7));
    let c = engine.register_censor(scoring_censor(0.1));
    engine.admit_all(flows.iter(), p, c);
    engine.run()
}

/// The per-session wire frame stream, down to the bit.
fn wire_bits(report: &ServeReport) -> Vec<Vec<(i32, u32)>> {
    report.wire_bits()
}

proptest! {
    // Each case runs the full dataplane three times; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random flows, random shard count, random stealing, batch 1 vs 64:
    /// identical `ServeReport` frame streams. The reference run is always
    /// stealing off at batch 1 × 1 shard.
    #[test]
    fn shard_count_and_batch_size_never_change_wire_output(
        flows in prop::collection::vec(arb_flow(), 4..24),
        seed in any::<u64>(),
        n_shards in 1usize..=8,
        steal in any::<bool>(),
        with_netem in any::<bool>(),
        ring_pick in 0usize..3,
    ) {
        let netem = with_netem.then_some(NetEm {
            drop_rate: 0.08,
            retransmit_timeout_ms: 50.0,
            jitter_std: 0.2,
        });
        let trace_ring = [0usize, 8, 256][ring_pick];
        // Reference run: stage tracing off — the sharded runs vary the
        // trace ring to prove observability never leaks into the wire.
        let reference = run(&flows, seed, 1, 1, false, netem, 0);
        prop_assert_eq!(reference.outcomes.len(), flows.len());
        let ref_bits = wire_bits(&reference);
        for batch in [1usize, 64] {
            let sharded = run(
                &flows, seed, batch, n_shards, steal, netem, trace_ring,
            );
            prop_assert_eq!(sharded.frames, reference.frames);
            prop_assert_eq!(
                wire_bits(&sharded),
                ref_bits.clone(),
                "{} shards x batch {} (steal {}) diverged",
                n_shards,
                batch,
                steal
            );
        }
    }
}
