//! The backend-conformance checks, run against [`CpuBackend`]: the
//! executable form of the `amoeba_serve::backend` bit-exactness
//! obligations. One test pins the backend's batch operations against the
//! per-flow snapshot paths; the other pins a grouped, sharded,
//! stealing multi-tenant engine run against the batch-1, single-shard
//! reference run.
//!
//! A new backend joins the contract by calling the same two
//! `amoeba_serve::testutil` checks with itself.

use std::sync::Arc;

use amoeba_serve::testutil::{check_batch_ops_bit_exact, check_engine_matches_cpu_reference};
use amoeba_serve::CpuBackend;

#[test]
fn batch_ops_match_per_flow_snapshot_paths_bit_exact() {
    check_batch_ops_bit_exact(&CpuBackend);
}

#[test]
fn pinned_multi_tenant_engine_run_matches_cpu_reference() {
    check_engine_matches_cpu_reference(Arc::new(CpuBackend));
}
