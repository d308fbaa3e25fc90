//! # amoeba-telemetry — zero-perturbation serving observability
//!
//! Counters, latency histograms, stage tracing, and a flight recorder
//! for the Amoeba serving stack. The crate is deliberately dependency-
//! free and engine-agnostic: the serve crate records into these types;
//! this crate only aggregates and renders.
//!
//! ## Obligations for future instrumentation
//!
//! Every probe added here or in the serve crate MUST uphold two
//! contracts, both pinned by tests in `amoeba-serve`:
//!
//! 1. **Zero perturbation.** Telemetry must never change what the
//!    engine emits on the wire. Wire output is bit-identical with
//!    telemetry on, off, or ring sizes varied (proptest
//!    `telemetry_invariance`). Concretely: never touch a session RNG,
//!    never reorder or gate scheduling on a telemetry value, never
//!    take a lock a data-path thread can contend on. Counters are
//!    plain `u64` cells owned by one shard thread ([`Counters`],
//!    [`ShardTelemetry`]); histograms are thread-owned arrays
//!    ([`Histogram`]); trace events go to a ring each shard driver
//!    owns ([`FlightRecorder`]). Nothing in this crate synchronizes.
//!
//! 2. **Deterministic aggregation.** The k-way merge folds shard
//!    telemetry in shard-index order, per-tenant maps are `BTreeMap`s,
//!    and trace events sort by `(t0_ns, shard, seq)` — a given set of
//!    shard results always renders to the same bytes. Per-session
//!    quantities (frames, verdicts, evasions, sessions) are
//!    grouping-invariant sums; scheduler quantities (ticks, batches,
//!    steals, queue depths) legitimately vary with shard count and are
//!    documented as such on [`Counters`].
//!
//! Overhead is budgeted too: CI's `telemetry-overhead` gate fails the
//! build if full telemetry costs more than 2% throughput, but enforces
//! it only on runners with at least 4 cores. On a 2-vCPU host
//! `serve_bench --overhead` measured 5.3–8.5%, so the 2% bound is
//! unverified there.
//!
//! ## Exposition
//!
//! [`TelemetrySnapshot`] renders as Prometheus text
//! ([`TelemetrySnapshot::to_prometheus_text`], format pinned by a
//! snapshot test), machine-readable JSON
//! ([`TelemetrySnapshot::to_json`]), and Chrome-trace JSON
//! ([`TelemetrySnapshot::trace_json`], loadable in `chrome://tracing`
//! or Perfetto). See the README "Observability" section for the metric
//! catalogue.

pub mod counters;
pub mod histogram;
pub mod snapshot;
pub mod trace;

pub use counters::{Counters, ShardTelemetry, TenantCounters, TenantKey};
pub use histogram::Histogram;
pub use snapshot::{TelemetrySnapshot, QUANTILES};
pub use trace::{trace_json, FlightRecorder, StageKind, TraceEvent};
