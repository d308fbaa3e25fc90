//! # amoeba-serve
//!
//! The online flow-shaping dataplane (§5.6.1): where `amoeba-core` *trains*
//! policies inside the offline gym, this crate *serves* them — a
//! deterministic, discrete-event, **multi-tenant** engine that drives
//! thousands of concurrent framed sessions from frozen policy snapshots
//! against any number of inline censors, the "transport-layer extension
//! inside obfuscators" deployment the paper argues for, scaled to the
//! cross-censor sweeps its robustness analysis (§5.4) needs.
//!
//! ## Architecture
//!
//! * [`engine::ServeEngine`] — the serving API. Registering a policy or
//!   a censor hands out a cheap `Copy` handle
//!   ([`registry::PolicyId`] / [`registry::CensorId`]); sessions are
//!   admitted through a builder and tagged with their
//!   [`registry::Tenant`] — a `(policy, censor)` pair:
//!
//!   ```text
//!   let mut engine = ServeEngine::new(ServeConfig::builder(Layer::Tcp).batch(64).build());
//!   let p  = engine.register_policy(FrozenPolicy::from_agent(&agent));
//!   let dt = engine.register_censor(dt_censor);
//!   let ls = engine.register_censor(lstm_censor);
//!   engine.admit(&flow).policy(p).censor(dt).submit();
//!   engine.admit(&flow).policy(p).censor(ls).submit();
//!   let report = engine.run();
//!   for (tenant, sub) in report.sub_reports() { /* per-(policy, censor) cells */ }
//!   ```
//!
//! * Sessions — the per-flow state machine: an application
//!   byte stream per direction enters a `ShapedSender`, the shared
//!   [`amoeba_core::ShapingKernel`] (the same §4.2 constraint logic the
//!   gym uses) turns policy actions into legal frame shapes, frames go on
//!   the wire with the §5.6.1 header, and a `ShapedReceiver` at the far
//!   end reassembles the exact original stream.
//! * Shards — the shard-local event loop: a virtual clock
//!   honouring per-frame delays, optional [`amoeba_traffic::NetEm`]
//!   impairment of what the on-path censor observes, inline per-tenant
//!   censor verdicts, and the **batched inference scheduler**: at every
//!   virtual tick, all due flows are bucketed by [`registry::PolicyId`]
//!   and each bucket's observations are gathered into single matrices
//!   and pushed through one fused GRU/MLP pass — tenants that share a
//!   policy share the pass, whichever censor each faces, so a
//!   policy × censor sweep costs one dataplane run instead of `P×C`.
//! * Censor programs — censors are served as **streaming
//!   [`amoeba_classifiers::CensorProgram`] state machines**: each
//!   admitted session spawns a private program from its tenant's
//!   [`amoeba_classifiers::CensorProgramFactory`]
//!   ([`engine::ServeEngine::register_censor_program`]; plain one-shot
//!   censors enter via [`engine::ServeEngine::register_censor`] through
//!   the bit-identical degenerate adapter). Programs must be
//!   deterministic pure functions of their observation sequence — the
//!   program travels *inside* the session's work item, which is what
//!   keeps stateful censors compatible with sharding and work
//!   stealing. A program may answer `Allow`, `Score`, `Block`, or
//!   `Reset` (mid-stream teardown, surfacing as
//!   [`metrics::SessionStatus::Torn`] and per-tenant `teardowns`
//!   telemetry).
//! * [`backend::InferenceBackend`] — the pluggable execution seam behind
//!   the scheduler (`push_batch` / `head_batch`).
//!   [`backend::CpuBackend`] is the snapshot path on the register-tiled
//!   matmul nest; a caller can wrap or replace it through
//!   [`engine::ServeEngine::with_backend`].
//! * [`metrics::ServeReport`] — throughput (`flows/sec`, `MB/s`),
//!   per-frame latency percentiles (linearly interpolated between ranks),
//!   evasion rate, overhead accounting — plus per-`(policy, censor)`
//!   [`metrics::ServeReport::sub_reports`] with a deterministic merge.
//! * Observability — the engine is instrumented by `amoeba_telemetry`
//!   under the **zero-perturbation obligation**: counters, log-linear
//!   latency histograms and the stage-trace flight recorder
//!   ([`ServeConfig::trace_ring`]) must never move a wire bit or take
//!   a lock a data-path thread can contend on. Telemetry is on by
//!   default ([`ServeConfig::telemetry`]) and publishes as
//!   [`metrics::ServeReport::telemetry`]. CI's `telemetry-overhead` gate
//!   fails a change that costs more than 2% throughput, but enforces it
//!   only on runners with at least 4 cores. The invariance is
//!   pinned by `tests/telemetry_invariance.rs` and the workspace's
//!   fingerprint sweep (`tests/serve_pin.rs`).
//! * Timing — each work item carries one timing record: five clock
//!   stamps (formed, then the start and end of its three contiguous
//!   stages). Its queue wait, compute, per-stage totals, trace spans, the
//!   telemetry histograms and its [`metrics::FrameRun`]s (one per batch
//!   and tenant, always kept) all derive from those stamps, so the
//!   report's exact percentiles, the per-tenant sub-reports and the
//!   Prometheus summaries share one latency definition: queue wait plus
//!   compute.
//!
//! ## Determinism: the grouping- and tenancy-invariance contract
//!
//! Every matrix op on the batched path is row-independent (and the
//! blocked `amoeba-nn` matmul kernel is bit-identical to the naive
//! reference), and every source of randomness (payload generation, action
//! sampling, NetEm) draws from a per-session RNG derived from
//! `(seed, session_id)` only — never from insertion order, shard id, or
//! batch grouping. For a fixed seed a session's wire output is therefore
//! a pure function of `(seed, session_id, policy, censor)`: inference
//! batch size (1/64/256), shard count (1/2/4/8), admission order, *and
//! which other tenants share the process* all produce the same wire flows
//! (regression-pinned in `engine.rs` and the workspace's
//! `tests/serve_pin.rs`, property-tested end-to-end in
//! `tests/grouping_invariance.rs` and
//! `tests/tenancy_invariance.rs`). This is the property that makes
//! batching, sharding and multi-tenant packing pure throughput knobs
//! rather than semantics knobs, and it is what every future scaling axis
//! (async or GPU [`backend::InferenceBackend`]s, work stealing) plugs into.
//!
//! ## Framing note
//!
//! Each emitted frame carries the 4-byte `amoeba_core::shaper` header *on
//! top of* the policy-chosen size, so wire sizes observed by the censor
//! are `decision + HEADER_LEN`. Keeping the header outside the decision
//! preserves the gym's payload-conservation guarantee end-to-end: the
//! frame capacity always covers the payload the kernel promised to move.
//! The action-history encoder `E(a_{1:t})`, by contrast, is fed the
//! *kernel* packet (header-exclusive), exactly as during training, so the
//! frozen policy runs on the input distribution it was optimised for; the
//! header shift is visible only to the on-path censor (a real deployment
//! gap the gym could close by training with header-inclusive rewards).

#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod metrics;
pub mod registry;
mod scheduler;
mod session;
mod shard;
pub mod testutil;

use std::sync::Arc;

use amoeba_core::encoder::EncoderSnapshot;
use amoeba_core::policy::ActorSnapshot;
use amoeba_core::ppo::PolicySnapshots;
use amoeba_core::{ActionSpace, AmoebaAgent, AmoebaConfig, ShapingKernel};
use amoeba_traffic::{Layer, NetEm};

pub use backend::{BackendKind, CpuBackend, InferenceBackend};
pub use engine::{Admission, ServeEngine};
pub use metrics::{FrameRun, ServeReport, SessionOutcome, SessionStatus};
pub use registry::{CensorId, PolicyId, Tenant};

/// The slice of a trained agent the dataplane needs: the frozen
/// StateEncoder and actor. (Serving never needs the critic.)
///
/// Cloning shares the underlying `Arc`s — registering one policy with
/// many engines, or one engine many times, never duplicates weights.
#[derive(Clone)]
pub struct FrozenPolicy {
    /// Frozen StateEncoder driving `E(x_{1:t})` and `E(a_{1:t})`.
    pub encoder: Arc<EncoderSnapshot>,
    /// Frozen Gaussian actor.
    pub actor: Arc<ActorSnapshot>,
}

impl FrozenPolicy {
    /// Wraps snapshots for serving.
    pub fn new(encoder: EncoderSnapshot, actor: ActorSnapshot) -> Self {
        Self {
            encoder: Arc::new(encoder),
            actor: Arc::new(actor),
        }
    }

    /// Freezes a trained agent's encoder + actor — `Arc`-sharing the
    /// agent's weight allocations, not copying them.
    pub fn from_agent(agent: &AmoebaAgent) -> Self {
        Self::from(agent.snapshots())
    }
}

impl From<&PolicySnapshots> for FrozenPolicy {
    fn from(p: &PolicySnapshots) -> Self {
        Self {
            encoder: Arc::clone(&p.encoder),
            actor: Arc::clone(&p.actor),
        }
    }
}

/// How the dataplane turns policy heads into actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActionMode {
    /// Deterministic mean action (lowest variance, fully RNG-free).
    #[default]
    Deterministic,
    /// Sample from the Gaussian policy with a per-session RNG (the
    /// paper's generation mode, §4.1).
    Sample,
}

/// When the inline censor renders verdicts on a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerdictPolicy {
    /// Score only the complete flow (cheapest).
    #[default]
    Final,
    /// Score every prefix, like the training gym (a censor "on the wire").
    EveryFrame,
    /// Score every `n`-th frame plus the complete flow.
    Every(usize),
}

/// Engine configuration.
///
/// Built only through [`ServeConfig::builder`] (serving defaults) or
/// [`ServeConfig::builder_from_amoeba`] (the limits a policy was trained
/// under); the fields stay readable. The struct is `#[non_exhaustive]`
/// so future knobs can land without breaking callers. Every engine
/// constructor validates the config it is given.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Observation layer (TCP segments or TLS records).
    pub layer: Layer,
    /// Maximum agent-added delay per frame (ms).
    pub max_delay_ms: f32,
    /// Minimum policy-chosen frame size (bytes, before the header).
    pub min_packet: u32,
    /// Morphing operations available to the policy.
    pub action_space: ActionSpace,
    /// Per-session frame cap as a multiple of the offered flow length.
    pub max_len_factor: usize,
    /// Additive slack on top of the frame cap.
    pub max_len_slack: usize,
    /// Maximum flows fused into one inference batch (≥ 1).
    pub max_batch: usize,
    /// Worker threads the sessions are sharded across at
    /// [`ServeEngine::run`] (0 = one per available core). A pure
    /// throughput knob: per-session wire output is shard-count-invariant.
    pub n_shards: usize,
    /// Deterministic vs sampled actions.
    pub mode: ActionMode,
    /// Optional path impairment applied to what the censor observes.
    pub netem: Option<NetEm>,
    /// Inline verdict cadence.
    pub verdicts: VerdictPolicy,
    /// Master seed for per-session payload generation, sampling and NetEm.
    pub seed: u64,
    /// Which in-crate [`backend::InferenceBackend`] the engine
    /// instantiates; [`BackendKind::Cpu`] is the only one. Other
    /// backends go through [`ServeEngine::with_backend`].
    pub backend: BackendKind,
    /// Work stealing between shards: idle shards execute due work items
    /// stolen from loaded peers' deques, so one heavy tenant cannot idle
    /// the other shards under skewed session mixes (default `true`; moot
    /// at `n_shards == 1`). A pure throughput knob — stolen items carry
    /// their global session ids, and results are absorbed in sequence
    /// order, so wire output is steal-invariant.
    pub steal: bool,
    /// Telemetry recording: shard-local counters, per-tenant feedback and
    /// log-linear latency histograms, aggregated into the report's
    /// [`metrics::ServeReport::telemetry`] snapshot (default `true`).
    /// Zero-perturbation by contract: wire output is bit-identical with
    /// telemetry on or off (pinned in `tests/telemetry_invariance.rs`).
    /// CI's `telemetry-overhead` gate fails a change that costs more
    /// than 2% throughput, but enforces it only on runners with at least
    /// 4 cores; on a 2-vCPU host `serve_bench --overhead` measured
    /// 5.3–8.5%.
    pub telemetry: bool,
    /// Flight-recorder capacity per shard driver, in stage-trace events
    /// (0 = stage tracing off, the default). When non-zero and
    /// [`ServeConfig::telemetry`] is on, each shard driver keeps the most
    /// recent `trace_ring` stage spans of its own work items in a
    /// fixed-size ring and counts the overwritten ones; the rings publish
    /// as [`amoeba_telemetry::TelemetrySnapshot::events`], rendered as
    /// Chrome-trace JSON by
    /// [`amoeba_telemetry::TelemetrySnapshot::trace_json`]. A pure
    /// observability knob — wire output is ring-size-invariant.
    pub trace_ring: usize,
}

impl ServeConfig {
    /// A builder over the serving defaults at a layer (the environment
    /// limits mirror [`AmoebaConfig::fast`]'s).
    pub fn builder(layer: Layer) -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self {
                layer,
                max_delay_ms: 100.0,
                min_packet: 1,
                action_space: ActionSpace::Both,
                max_len_factor: 3,
                max_len_slack: 16,
                max_batch: 64,
                n_shards: 1,
                mode: ActionMode::Deterministic,
                netem: None,
                verdicts: VerdictPolicy::Final,
                seed: 0,
                backend: BackendKind::Cpu,
                steal: true,
                telemetry: true,
                trace_ring: 0,
            },
        }
    }

    /// A builder whose serving limits and seed come from a training
    /// config, so a policy serves under exactly the constraints it was
    /// trained with.
    pub fn builder_from_amoeba(cfg: &AmoebaConfig, layer: Layer) -> ServeConfigBuilder {
        let mut b = Self::builder(layer);
        b.cfg.max_delay_ms = cfg.max_delay_ms;
        b.cfg.min_packet = cfg.min_packet;
        b.cfg.action_space = cfg.action_space;
        b.cfg.max_len_factor = cfg.max_len_factor;
        b.cfg.max_len_slack = cfg.max_len_slack;
        b.cfg.seed = cfg.seed;
        b
    }

    /// Checks the fields the scheduler relies on. [`ServeEngine::new`]
    /// and [`ServeConfigBuilder::build`] call it, so a config is checked
    /// wherever it enters, direct field writes included.
    ///
    /// # Panics
    /// Panics if `max_batch == 0`, or if `max_delay_ms` is negative or
    /// NaN.
    pub(crate) fn validate(&self) {
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            self.max_delay_ms >= 0.0,
            "max_delay_ms must be non-negative"
        );
    }

    /// The shaping kernel this configuration induces — shared §4.2
    /// constraint logic with the training gym.
    pub fn kernel(&self) -> ShapingKernel {
        ShapingKernel::new(
            self.layer,
            self.max_delay_ms,
            self.min_packet,
            self.action_space,
        )
    }
}

/// Fluent [`ServeConfig`] constructor, mirroring the engine's admission
/// builder and the only way to make a config. Obtain via
/// [`ServeConfig::builder`] or [`ServeConfig::builder_from_amoeba`];
/// every method sets one config field; [`ServeConfigBuilder::build`]
/// validates and returns the config.
#[derive(Debug, Clone)]
#[must_use = "a config builder does nothing until .build() is called"]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Inference batch cap (≥ 1, validated at [`ServeConfigBuilder::build`]).
    pub fn batch(mut self, max_batch: usize) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    /// Shard (worker thread) count; 0 = one per available core.
    pub fn shards(mut self, n_shards: usize) -> Self {
        self.cfg.n_shards = n_shards;
        self
    }

    /// Deterministic vs sampled actions.
    pub fn mode(mut self, mode: ActionMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Optional path impairment of the censor-visible wire.
    pub fn netem(mut self, netem: Option<NetEm>) -> Self {
        self.cfg.netem = netem;
        self
    }

    /// Inline verdict cadence.
    pub fn verdicts(mut self, verdicts: VerdictPolicy) -> Self {
        self.cfg.verdicts = verdicts;
        self
    }

    /// Master seed for per-session payload generation, sampling, NetEm.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// In-crate inference backend the engine instantiates.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Does nothing: every shard runs its work inline, so there is no
    /// pipelining to switch. Kept only because the `ledger/` benchmark
    /// package names it; remove it together with those calls.
    #[doc(hidden)]
    pub fn pipeline(self, _pipeline: bool) -> Self {
        self
    }

    /// Work stealing between shards (a pure throughput knob).
    pub fn steal(mut self, steal: bool) -> Self {
        self.cfg.steal = steal;
        self
    }

    /// Telemetry recording (a pure observability knob: wire output is
    /// telemetry-invariant).
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Per-shard flight-recorder capacity in trace events (0 = off).
    pub fn trace_ring(mut self, trace_ring: usize) -> Self {
        self.cfg.trace_ring = trace_ring;
        self
    }

    /// Does nothing: every run keeps its exact per-frame latency runs
    /// ([`metrics::ServeReport::frame_runs`]). Kept only because the
    /// `ledger/` benchmark package names it; remove it together with
    /// that call.
    #[doc(hidden)]
    pub fn exact_frame_stats(self, _exact: bool) -> Self {
        self
    }

    /// Validates and returns the config (the same check
    /// [`ServeEngine::new`] applies).
    ///
    /// # Panics
    /// Panics on an invalid field (`max_batch == 0`, or a negative or
    /// NaN `max_delay_ms` inherited from a training config).
    pub fn build(self) -> ServeConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `ServeConfig::builder()` default, pinned field by field
    /// (`builder` is where the defaults live, so this is the one place
    /// they are asserted directly).
    #[test]
    fn builder_defaults_match_documented_values() {
        let cfg = ServeConfig::builder(Layer::Tcp).build();
        assert_eq!(cfg.layer, Layer::Tcp);
        assert_eq!(cfg.max_delay_ms, 100.0);
        assert_eq!(cfg.min_packet, 1);
        assert_eq!(cfg.action_space, ActionSpace::Both);
        assert_eq!(cfg.max_len_factor, 3);
        assert_eq!(cfg.max_len_slack, 16);
        assert_eq!(cfg.max_batch, 64);
        assert_eq!(cfg.n_shards, 1);
        assert_eq!(cfg.mode, ActionMode::Deterministic);
        assert!(cfg.netem.is_none());
        assert_eq!(cfg.verdicts, VerdictPolicy::Final);
        assert_eq!(cfg.seed, 0);
        assert!(cfg.steal, "work stealing defaults on");
        assert!(cfg.telemetry, "telemetry defaults on (zero-perturbation)");
        assert_eq!(cfg.trace_ring, 0, "stage tracing defaults off");
        assert_eq!(cfg.backend, BackendKind::Cpu);
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn builder_rejects_zero_batch() {
        let _ = ServeConfig::builder(Layer::Tcp).batch(0).build();
    }

    #[test]
    fn builder_from_amoeba_inherits_training_limits() {
        let amoeba = AmoebaConfig::fast().with_seed(23);
        let cfg = ServeConfig::builder_from_amoeba(&amoeba, Layer::Tcp)
            .batch(16)
            .build();
        assert_eq!(cfg.seed, 23);
        assert_eq!(cfg.max_delay_ms, amoeba.max_delay_ms);
        assert_eq!(cfg.min_packet, amoeba.min_packet);
        assert_eq!(cfg.action_space, amoeba.action_space);
        assert_eq!(cfg.max_len_factor, amoeba.max_len_factor);
        assert_eq!(cfg.max_len_slack, amoeba.max_len_slack);
        assert_eq!(cfg.max_batch, 16);
    }
}
