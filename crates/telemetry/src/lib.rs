//! # amoeba-telemetry — zero-perturbation serving observability
//!
//! Counters, latency summaries, stage tracing, and a flight recorder
//! for the Amoeba serving stack. The crate is deliberately dependency-
//! free and engine-agnostic: the serve crate fills these types; this
//! crate only holds and renders them.
//!
//! ## Obligations for future instrumentation
//!
//! Every probe added here or in the serve crate MUST uphold two
//! contracts, both pinned by tests in `amoeba-serve`:
//!
//! 1. **Zero perturbation.** Telemetry must never change what the
//!    engine emits on the wire. Wire output is bit-identical whatever
//!    the trace-ring size (proptest `telemetry_invariance`). The serve
//!    crate keeps this by construction: it derives the
//!    [`TelemetrySnapshot`] after the run from its report — counters
//!    ([`Counters`], [`TenantCounters`]) from the report's fields and
//!    session outcomes, [`LatencySummary`]s from its exact frame-run
//!    percentiles — so no telemetry code runs while sessions are served.
//!    The one recording on the data path is the stage trace: each shard
//!    driver pushes spans into a ring it owns ([`FlightRecorder`]),
//!    never touching a session RNG, gating scheduling on a telemetry
//!    value or taking a lock. Nothing in this crate synchronizes.
//!
//! 2. **Deterministic rendering.** Per-tenant maps are `BTreeMap`s and
//!    trace events sort by `(t0_ns, shard, seq, executor)` — a given
//!    snapshot always renders to the same bytes. Per-session quantities
//!    (frames, verdicts, verdict queries, evasions, sessions) are
//!    grouping-invariant sums; scheduler quantities (ticks, batches,
//!    steals, queue depths) legitimately vary with shard count and are
//!    documented as such on [`Counters`].
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
pub mod snapshot;
pub mod trace;

pub use counters::{Counters, TenantCounters, TenantKey};
pub use snapshot::{LatencySummary, TelemetrySnapshot, QUANTILES};
pub use trace::{trace_json, FlightRecorder, StageKind, TraceEvent};
