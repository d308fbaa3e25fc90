//! The deprecated one-tenant shim over [`ServeEngine`].
//!
//! [`Dataplane`] was the pre-engine serving API: exactly one
//! `(FrozenPolicy, Censor)` pair per process. It survives as a thin
//! delegating wrapper so existing callers compile, but new code should
//! use [`ServeEngine`] directly — registries, the admission builder, and
//! per-tenant sub-reports all live there, and the shim can express none
//! of them.
//!
//! ## Migration
//!
//! ```text
//! // before                                   // after
//! let mut dp = Dataplane::new(p, c, cfg);     let mut e = ServeEngine::new(cfg);
//! dp.add_flow(&flow);                         let p = e.register_policy(p);
//! dp.add_flow_with_id(7, &flow);              let c = e.register_censor(c);
//! dp.add_flow_with_payload(&flow, out, inb);  e.admit(&flow).policy(p).censor(c).submit();
//! let report = dp.run();                      e.admit(&flow).id(7).submit();
//!                                             e.admit(&flow).payload(out, inb).submit();
//!                                             let report = e.run();
//! ```
//!
//! (With exactly one registered policy and censor, the builder's
//! `.policy(..)`/`.censor(..)` calls may be omitted — they default to
//! the first registration, which is how the shim itself delegates.)
//!
//! Every admission path below — including bulk [`Dataplane::add_flows`],
//! which previously re-derived ids internally — routes through the
//! engine's admission builder, so shim and engine admissions are
//! wire-identical by construction (regression-pinned in the tests).
//! The grouping-invariance regression tests for shard counts × batch
//! sizes also still live here, now exercising the engine through the
//! shim.

#![allow(deprecated)]

use std::sync::Arc;

use amoeba_classifiers::Censor;
use amoeba_traffic::Flow;

use crate::engine::ServeEngine;
use crate::metrics::ServeReport;
use crate::registry::{CensorId, PolicyId};
use crate::{FrozenPolicy, ServeConfig};

/// One-tenant serving: a frozen policy + censor pair and its sessions.
///
/// Deprecated shim over [`ServeEngine`]; see the [module docs](self) for
/// the migration table.
#[deprecated(
    since = "0.1.0",
    note = "use ServeEngine: register the policy and censor, then admit flows via the builder"
)]
pub struct Dataplane {
    engine: ServeEngine,
    policy: PolicyId,
    censor: CensorId,
}

impl Dataplane {
    /// Builds an empty one-tenant engine around a frozen policy and an
    /// inline censor.
    pub fn new(policy: FrozenPolicy, censor: Arc<dyn Censor>, cfg: ServeConfig) -> Self {
        let mut engine = ServeEngine::new(cfg);
        let policy = engine.register_policy(policy);
        let censor = engine.register_censor(censor);
        Self {
            engine,
            policy,
            censor,
        }
    }

    /// Number of admitted sessions.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when no sessions were admitted.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Admits one session carrying a deterministic pseudo-random payload
    /// sized to the offered flow; returns its session id (the next free
    /// one).
    pub fn add_flow(&mut self, offered: &Flow) -> usize {
        self.engine
            .admit(offered)
            .policy(self.policy)
            .censor(self.censor)
            .submit()
    }

    /// Admits one session under an explicit session id. Everything a
    /// session does — payload generation, action sampling, NetEm — derives
    /// from `(seed, id)` only, so admitting the same `(id, flow)` pairs in
    /// any order yields identical per-session wire output (pinned by
    /// `insertion_order_does_not_change_wire_output` below).
    ///
    /// Ids must be unique; duplicates panic at [`Dataplane::run`].
    pub fn add_flow_with_id(&mut self, id: usize, offered: &Flow) -> usize {
        self.engine
            .admit(offered)
            .id(id)
            .policy(self.policy)
            .censor(self.censor)
            .submit()
    }

    /// Admits one session carrying caller-supplied byte streams.
    pub fn add_flow_with_payload(
        &mut self,
        offered: &Flow,
        outbound: Vec<u8>,
        inbound: Vec<u8>,
    ) -> usize {
        self.engine
            .admit(offered)
            .payload(outbound, inbound)
            .policy(self.policy)
            .censor(self.censor)
            .submit()
    }

    /// Admits many flows at once — one admission-builder submit per flow,
    /// so bulk admission is wire-identical to the equivalent
    /// [`Dataplane::add_flow`] loop (regression-pinned below).
    pub fn add_flows<'a>(&mut self, offered: impl IntoIterator<Item = &'a Flow>) {
        for f in offered {
            self.add_flow(f);
        }
    }

    /// Drives every session to completion and returns the merged run
    /// report — [`ServeEngine::run`] verbatim.
    ///
    /// # Panics
    /// Panics if two sessions share an id.
    pub fn run(self) -> ServeReport {
        self.engine.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{allow_censor, offered_flows, scoring_censor, tiny_policy};
    use crate::{ActionMode, VerdictPolicy};
    use amoeba_traffic::{Layer, NetEm};

    fn run_with(
        flows: &[Flow],
        batch: usize,
        shards: usize,
        mode: ActionMode,
        netem: Option<NetEm>,
    ) -> ServeReport {
        let policy = tiny_policy(7);
        // Exact per-frame vectors on: the accounting test below asserts
        // their lengths, and the invariance pins double as proof exact
        // stats cannot perturb the wire.
        let mut cfg = ServeConfig::new(Layer::Tcp)
            .with_seed(11)
            .with_batch(batch)
            .with_shards(shards)
            .with_mode(mode)
            .with_exact_frame_stats(true);
        cfg.netem = netem;
        let mut dp = Dataplane::new(policy, allow_censor(), cfg);
        dp.add_flows(flows.iter());
        dp.run()
    }

    fn run_with_batch(
        flows: &[Flow],
        batch: usize,
        mode: ActionMode,
        netem: Option<NetEm>,
    ) -> ServeReport {
        run_with(flows, batch, 1, mode, netem)
    }

    fn wire_bits(report: &ServeReport) -> Vec<Vec<(i32, u32)>> {
        report.wire_bits()
    }

    /// The acceptance criterion: ≥ 1k concurrent flows in one process,
    /// bit-identical output for a fixed seed regardless of batch size.
    #[test]
    fn thousand_flows_bit_identical_across_batch_sizes() {
        let flows = offered_flows(1000, 3);
        let reference = run_with_batch(&flows, 1, ActionMode::Deterministic, None);
        assert_eq!(reference.outcomes.len(), 1000);
        assert!(reference.frames >= 1000);
        assert_eq!(
            reference.stream_ok_rate(),
            1.0,
            "every stream must reassemble bit-exact"
        );
        let ref_bits = wire_bits(&reference);
        for batch in [64, 256] {
            let report = run_with_batch(&flows, batch, ActionMode::Deterministic, None);
            assert_eq!(report.frames, reference.frames, "batch {batch}");
            assert_eq!(report.stream_ok_rate(), 1.0, "batch {batch}");
            assert_eq!(wire_bits(&report), ref_bits, "batch {batch} diverged");
        }
    }

    /// The sharding acceptance criterion: bit-identical per-session wire
    /// output for shard counts 1/2/4/8 × batch sizes 1/64, deterministic
    /// policy.
    #[test]
    fn sharded_serving_bit_identical_across_shard_counts() {
        let flows = offered_flows(250, 3);
        let reference = run_with(&flows, 1, 1, ActionMode::Deterministic, None);
        let ref_bits = wire_bits(&reference);
        let ref_ids: Vec<usize> = reference.outcomes.iter().map(|o| o.id).collect();
        for shards in [1usize, 2, 4, 8] {
            for batch in [1usize, 64] {
                let report = run_with(&flows, batch, shards, ActionMode::Deterministic, None);
                assert_eq!(report.frames, reference.frames, "{shards} shards");
                let ids: Vec<usize> = report.outcomes.iter().map(|o| o.id).collect();
                assert_eq!(ids, ref_ids, "{shards} shards: merge order broke");
                assert_eq!(
                    wire_bits(&report),
                    ref_bits,
                    "{shards} shards x batch {batch} diverged"
                );
                assert_eq!(report.stream_ok_rate(), 1.0, "{shards} shards");
            }
        }
    }

    /// Sharding must also be invariant under sampled actions + NetEm —
    /// every RNG is per-session, so moving a session to another shard
    /// cannot shift its stream.
    #[test]
    fn sharded_sampled_impaired_serving_is_invariant() {
        let flows = offered_flows(48, 5);
        let netem = Some(NetEm {
            drop_rate: 0.1,
            retransmit_timeout_ms: 60.0,
            jitter_std: 0.1,
        });
        let reference = run_with(&flows, 1, 1, ActionMode::Sample, netem);
        let ref_bits = wire_bits(&reference);
        for shards in [2usize, 4, 8] {
            let report = run_with(&flows, 64, shards, ActionMode::Sample, netem);
            assert_eq!(wire_bits(&report), ref_bits, "{shards} shards diverged");
        }
    }

    /// `n_shards: 0` resolves to the core count and still merges cleanly.
    #[test]
    fn auto_shard_count_runs_and_merges() {
        let flows = offered_flows(16, 7);
        let report = run_with(&flows, 16, 0, ActionMode::Deterministic, None);
        assert_eq!(report.outcomes.len(), 16);
        assert_eq!(report.stream_ok_rate(), 1.0);
        let reference = run_with(&flows, 16, 1, ActionMode::Deterministic, None);
        assert_eq!(wire_bits(&report), wire_bits(&reference));
    }

    /// A session's randomness derives from `(seed, session_id)` only:
    /// admitting the same `(id, flow)` pairs in permuted order yields
    /// bit-identical per-session wire output.
    #[test]
    fn insertion_order_does_not_change_wire_output() {
        let flows = offered_flows(40, 9);
        let reference = run_with(&flows, 8, 2, ActionMode::Sample, None);

        let policy = tiny_policy(7);
        let cfg = ServeConfig::new(Layer::Tcp)
            .with_seed(11)
            .with_batch(8)
            .with_shards(2)
            .with_mode(ActionMode::Sample);
        let mut dp = Dataplane::new(policy, allow_censor(), cfg);
        // Deterministic permutation: stride through the ids.
        let n = flows.len();
        for k in 0..n {
            let id = (k * 17 + 5) % n;
            dp.add_flow_with_id(id, &flows[id]);
        }
        let permuted = dp.run();
        assert_eq!(wire_bits(&permuted), wire_bits(&reference));
        let ids: Vec<usize> = permuted.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..n).collect::<Vec<usize>>());
    }

    /// The old `add_flows` API gap, pinned closed: bulk admission routes
    /// through the engine's admission builder, so it is wire-identical to
    /// a one-by-one `add_flow` loop *and* to direct engine admission.
    #[test]
    fn bulk_admission_matches_loop_and_engine_admission() {
        let flows = offered_flows(32, 15);
        let cfg = || {
            ServeConfig::new(Layer::Tcp)
                .with_seed(11)
                .with_batch(8)
                .with_mode(ActionMode::Sample)
        };

        let mut bulk = Dataplane::new(tiny_policy(7), allow_censor(), cfg());
        bulk.add_flows(flows.iter());
        assert_eq!(bulk.len(), flows.len());
        let bulk = bulk.run();

        let mut looped = Dataplane::new(tiny_policy(7), allow_censor(), cfg());
        for f in &flows {
            looped.add_flow(f);
        }
        let looped = looped.run();

        let mut engine = ServeEngine::new(cfg());
        let p = engine.register_policy(tiny_policy(7));
        let c = engine.register_censor(allow_censor());
        engine.admit_all(flows.iter(), p, c);
        let engine = engine.run();

        assert_eq!(wire_bits(&bulk), wire_bits(&looped));
        assert_eq!(wire_bits(&bulk), wire_bits(&engine));
    }

    #[test]
    #[should_panic(expected = "duplicate session ids")]
    fn duplicate_session_ids_are_rejected() {
        let flows = offered_flows(2, 1);
        let policy = tiny_policy(7);
        let mut dp = Dataplane::new(policy, allow_censor(), ServeConfig::new(Layer::Tcp));
        dp.add_flow_with_id(3, &flows[0]);
        dp.add_flow_with_id(3, &flows[1]);
        let _ = dp.run();
    }

    /// Stochastic serving and path impairment draw from per-session RNGs,
    /// so they are batch-size invariant too.
    #[test]
    fn sampled_and_impaired_serving_is_batch_invariant() {
        let flows = offered_flows(64, 5);
        let netem = Some(NetEm {
            drop_rate: 0.1,
            retransmit_timeout_ms: 60.0,
            jitter_std: 0.1,
        });
        let a = run_with_batch(&flows, 1, ActionMode::Sample, netem);
        let b = run_with_batch(&flows, 64, ActionMode::Sample, netem);
        assert_eq!(wire_bits(&a), wire_bits(&b));
        assert_eq!(a.stream_ok_rate(), 1.0);
        // Duplicated packets appear on the wire.
        let wire_packets: usize = a.outcomes.iter().map(|o| o.wire.len()).sum();
        let frames: usize = a.outcomes.iter().map(|o| o.frames).sum();
        assert!(wire_packets > frames, "netem should duplicate some frames");
    }

    #[test]
    fn inline_verdicts_catch_blocking_censors() {
        let flows = offered_flows(24, 9);
        let policy = tiny_policy(7);
        let block = scoring_censor(0.9);
        let cfg = ServeConfig::new(Layer::Tcp)
            .with_seed(1)
            .with_verdicts(VerdictPolicy::EveryFrame);
        let mut dp = Dataplane::new(policy, block, cfg);
        dp.add_flows(flows.iter());
        let report = dp.run();
        assert_eq!(report.evasion_rate(), 0.0);
        assert!(report.outcomes.iter().all(|o| o.blocked_midstream));
        // Blocked or not, payload delivery still verifies.
        assert_eq!(report.stream_ok_rate(), 1.0);
    }

    #[test]
    fn report_accounts_frames_latency_and_throughput() {
        let flows = offered_flows(32, 13);
        let report = run_with_batch(&flows, 16, ActionMode::Deterministic, None);
        assert_eq!(
            report.frames,
            report.outcomes.iter().map(|o| o.frames).sum::<usize>()
        );
        assert_eq!(
            report
                .frame_runs
                .iter()
                .map(|r| r.frames as usize)
                .sum::<usize>(),
            report.frames
        );
        assert!(report.inference_batches > 0);
        assert!(report.wall_seconds > 0.0);
        assert!(report.flows_per_sec() > 0.0);
        assert!(report.p99_latency_us() >= report.p50_latency_us());
        assert!(report.evasion_rate() == 1.0, "allow-all censor");
        for o in &report.outcomes {
            assert!(o.wire_bytes >= o.payload_bytes + o.header_bytes);
            assert!(o.duration_ms >= 0.0);
        }
    }

    #[test]
    fn empty_offered_flows_complete_without_frames() {
        let policy = tiny_policy(7);
        let mut dp = Dataplane::new(policy, allow_censor(), ServeConfig::new(Layer::Tcp));
        dp.add_flow(&Flow::new());
        assert_eq!(dp.len(), 1);
        let report = dp.run();
        assert_eq!(report.frames, 0);
        assert_eq!(report.outcomes[0].frames, 0);
        assert!(report.outcomes[0].stream_ok);
    }
}
