//! Work-stealing under a pathologically skewed tenant mix: one policy
//! owns ~90% of the sessions, so with round-robin-by-id partitioning the
//! shards whose slots lean on the heavy policy form far larger chunks
//! and the steal path actually fires. The property pinned here is the
//! engine's invariance contract at its most load-imbalanced: wire output
//! is bit-identical across steal on/off × shards 1/4 × batch 1/64, with
//! the steal-off, batch-1, single-shard run as the reference.
//!
//! The balanced-mix variants of this property live in
//! `grouping_invariance.rs` and `tenancy_invariance.rs`.

mod common;

use common::{arb_flow, scoring_censor, tiny_policy};
use proptest::prelude::*;

use amoeba_serve::{ActionMode, ServeConfig, ServeEngine, ServeReport};
use amoeba_traffic::{Flow, Layer, NetEm};

/// Runs the skewed mix: session `i` goes to the heavy policy unless
/// `i % 10 == 9` (a 90/10 split), censors alternate.
fn run_skewed(
    flows: &[Flow],
    seed: u64,
    batch: usize,
    shards: usize,
    steal: bool,
    netem: Option<NetEm>,
) -> ServeReport {
    let cfg = ServeConfig::builder(Layer::Tcp)
        .seed(seed)
        .batch(batch)
        .shards(shards)
        .steal(steal)
        .mode(ActionMode::Sample)
        .netem(netem)
        .build();
    let mut engine = ServeEngine::new(cfg);
    let heavy = engine.register_policy(tiny_policy(7));
    let light = engine.register_policy(tiny_policy(19));
    let censors = [
        engine.register_censor(scoring_censor(0.1)),
        engine.register_censor(scoring_censor(0.9)),
    ];
    for (i, f) in flows.iter().enumerate() {
        let p = if i % 10 == 9 { light } else { heavy };
        engine
            .admit(f)
            .id(i)
            .policy(p)
            .censor(censors[i % 2])
            .submit();
    }
    engine.run()
}

proptest! {
    // Each case runs the engine nine times; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 90%-one-policy mixes: every reference stream reassembles, and
    /// steal on/off × shards 1/4 × batch 1/64 all reproduce the
    /// reference bit for bit.
    #[test]
    fn skewed_tenant_mix_is_invariant_across_stealing_shards_and_batches(
        flows in prop::collection::vec(arb_flow(), 10..30),
        seed in any::<u64>(),
        with_netem in any::<bool>(),
    ) {
        let netem = with_netem.then_some(NetEm {
            drop_rate: 0.08,
            retransmit_timeout_ms: 50.0,
            jitter_std: 0.2,
        });
        let reference = run_skewed(&flows, seed, 1, 1, false, netem);
        prop_assert_eq!(reference.outcomes.len(), flows.len());
        prop_assert_eq!(reference.stream_ok_rate(), 1.0);
        let ref_bits = reference.wire_bits();
        for steal in [false, true] {
            for shards in [1usize, 4] {
                for batch in [1usize, 64] {
                    let r = run_skewed(&flows, seed, batch, shards, steal, netem);
                    prop_assert_eq!(
                        r.wire_bits(),
                        ref_bits.clone(),
                        "steal {} x {} shards x batch {} diverged on the skewed mix",
                        steal,
                        shards,
                        batch
                    );
                }
            }
        }
    }
}

/// A single shard has no peer to steal from, so the steal counter must
/// stay zero even with stealing enabled on a heavily skewed mix.
#[test]
fn steal_counter_is_zero_on_a_single_shard() {
    let flows: Vec<Flow> = (0..30)
        .map(|i| Flow::from_pairs(&[(200 + 10 * i, 0.0), (-(300 + 5 * i), 2.0), (150, 1.0)]))
        .collect();
    let report = run_skewed(&flows, 11, 8, 1, true, None);
    assert_eq!(report.stolen_batches, 0, "n_shards == 1 cannot steal");
    assert!(report.frames > 0);
}
