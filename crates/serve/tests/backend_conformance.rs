//! The backend-conformance suite, instantiated per backend: the
//! executable form of the `amoeba_serve::backend` bit-exactness
//! obligations. Each `backend_conformance_suite!` line pins one backend
//! against the per-flow snapshot paths and against a pinned multi-tenant
//! `CpuBackend` reference engine run; the proptest below then drives the
//! candidate backends end to end over random flows × policies × censors
//! × shard counts 1/4 × batch sizes 1/64 and asserts wire identity with
//! the CPU reference.
//!
//! Adding a future backend (async, GPU, …) to the contract is one line
//! in each place:
//!
//! ```ignore
//! amoeba_serve::backend_conformance_suite!(my_backend, MyBackend::new());
//! // …and in `candidate_backends()`:
//! //   Arc::new(MyBackend::new()),
//! ```

use std::sync::Arc;

use proptest::prelude::*;

use amoeba_serve::testutil::{
    assert_reports_wire_identical, run_workload, tiny_policy, BackendWorkload,
};
use amoeba_serve::{CpuBackend, InferenceBackend, PackedBackend};
use amoeba_traffic::NetEm;

mod common;
use common::arb_flow;

// The deterministic half of the suite, one module per backend. The CPU
// backend is included so the reference itself is pinned against the
// per-flow paths (and the suite never silently tests nothing).
amoeba_serve::backend_conformance_suite!(cpu, CpuBackend);
amoeba_serve::backend_conformance_suite!(packed, PackedBackend::new());

/// Every non-reference backend the end-to-end property below must hold
/// for. New backends join the contract by pushing one entry here.
/// (`QuantBackend` deliberately does NOT belong here: it is tier B and
/// is held to the tolerance contract in `tests/quant_tolerance.rs`.)
fn candidate_backends() -> Vec<Arc<dyn InferenceBackend>> {
    vec![Arc::new(PackedBackend::new())]
}

const CENSOR_SCORES: [f32; 3] = [0.1, 0.45, 0.9];

proptest! {
    // Each case runs one engine per backend plus the CPU reference;
    // keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random flows across 2 policies × 3 censors at shards 1/4 × batch
    /// 1/64 × pipelining on/off × stealing on/off (sampled actions,
    /// optional NetEm): every candidate backend's run is bit-identical —
    /// wire, verdicts, evasion — to the `CpuBackend` run of the same
    /// workload.
    #[test]
    fn backends_produce_identical_wire_end_to_end(
        flows in prop::collection::vec(arb_flow(), 6..18),
        seed in any::<u64>(),
        four_shards in any::<bool>(),
        big_batch in any::<bool>(),
        pipeline in any::<bool>(),
        steal in any::<bool>(),
        with_netem in any::<bool>(),
        assignment in prop::collection::vec((0usize..2, 0usize..3), 18),
    ) {
        let netem = with_netem.then_some(NetEm {
            drop_rate: 0.08,
            retransmit_timeout_ms: 50.0,
            jitter_std: 0.2,
        });
        let policies = [tiny_policy(7), tiny_policy(19)];
        let workload = BackendWorkload {
            flows: &flows,
            assignment: &assignment,
            policies: &policies,
            censor_scores: &CENSOR_SCORES,
            seed,
            batch: if big_batch { 64 } else { 1 },
            shards: if four_shards { 4 } else { 1 },
            pipeline,
            steal,
            netem,
        };
        let reference = run_workload(&workload, Arc::new(CpuBackend));
        for backend in candidate_backends() {
            let name = backend.name();
            let candidate = run_workload(&workload, backend);
            assert_reports_wire_identical(
                &reference,
                &candidate,
                &format!("backend {name} vs cpu at shards {} x batch {}",
                         workload.shards, workload.batch),
            );
        }
    }
}
