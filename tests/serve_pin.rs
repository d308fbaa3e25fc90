//! The serving wire pin: a fixed multi-tenant workload must reproduce
//! one FNV-1a wire fingerprint at every shard count, batch size and
//! stealing setting. Wire output is a pure function of
//! `(seed, session_id, policy, censor)`, so any change that moves a
//! wire bit — in the inference kernels, the snapshots, the scheduler or
//! the framing — fails here.

use amoeba::serve::testutil::{offered_flows, scoring_censor, tiny_policy};
use amoeba::serve::{ActionMode, CensorId, PolicyId, ServeConfig, ServeEngine, VerdictPolicy};
use amoeba::traffic::{Layer, NetEm};

/// Regression pin against the original scan scheduler: the exact
/// workload below produced this wire fingerprint under the original
/// fold-min + refill-scan tick selection (batch 16, 2 shards). The heap
/// scheduler, with stealing on and off at every shard/batch
/// combination, must reproduce it bit for bit.
#[test]
fn wire_output_is_pinned_to_scan_scheduler_fingerprint() {
    const SCAN_FINGERPRINT: u64 = 0x49e0ec8f7a4bf3f9;
    let flows = offered_flows(64, 3);
    let policies = [tiny_policy(7), tiny_policy(19)];
    let scores = [0.1, 0.9];
    let netem = NetEm {
        drop_rate: 0.08,
        retransmit_timeout_ms: 50.0,
        jitter_std: 0.2,
    };
    for shards in [1usize, 2, 4, 8] {
        for batch in [1usize, 16, 64] {
            for steal in [false, true] {
                let c = ServeConfig::builder(Layer::Tcp)
                    .seed(11)
                    .batch(batch)
                    .shards(shards)
                    .mode(ActionMode::Sample)
                    .verdicts(VerdictPolicy::Every(4))
                    .steal(steal)
                    .netem(Some(netem))
                    .build();
                let mut engine = ServeEngine::new(c);
                let pids: Vec<PolicyId> = policies
                    .iter()
                    .map(|p| engine.register_policy(p.clone()))
                    .collect();
                let cids: Vec<CensorId> = scores
                    .iter()
                    .map(|&s| engine.register_censor(scoring_censor(s)))
                    .collect();
                for (i, f) in flows.iter().enumerate() {
                    engine
                        .admit(f)
                        .id(i)
                        .policy(pids[i % 2])
                        .censor(cids[i % 2])
                        .submit();
                }
                let report = engine.run();
                assert_eq!(
                    report.wire_fingerprint(),
                    SCAN_FINGERPRINT,
                    "wire diverged from the scan scheduler at \
                     shards={shards} batch={batch} steal={steal}"
                );
            }
        }
    }
}
