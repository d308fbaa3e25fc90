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
//! * [`engine::ServeEngine`] — the serving API. A [`registry::PolicyRegistry`]
//!   and [`registry::CensorRegistry`] hand out cheap `Copy` handles
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
//! * [`session::Session`] — the per-flow state machine: an application
//!   byte stream per direction enters a `ShapedSender`, the shared
//!   [`amoeba_core::ShapingKernel`] (the same §4.2 constraint logic the
//!   gym uses) turns policy actions into legal frame shapes, frames go on
//!   the wire with the §5.6.1 header, and a `ShapedReceiver` at the far
//!   end reassembles the exact original stream.
//! * [`shard::Shard`] — the shard-local event loop: a virtual clock
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
//!   keeps stateful censors compatible with pipelining and work
//!   stealing. A program may answer `Allow`, `Score`, `Block`, or
//!   `Reset` (mid-stream teardown, surfacing as
//!   [`metrics::SessionStatus::Torn`] and per-tenant `teardowns`
//!   telemetry).
//! * [`backend::InferenceBackend`] — the pluggable execution seam behind
//!   the scheduler (`push_batch` / `head_batch`).
//!   [`backend::CpuBackend`] is the reference snapshot path on the
//!   register-tiled matmul nest; async and GPU backends slot in behind
//!   the same trait without another API break.
//! * [`metrics::ServeReport`] — throughput (`flows/sec`, `MB/s`),
//!   per-frame latency percentiles (linearly interpolated between ranks),
//!   evasion rate, overhead accounting — plus per-`(policy, censor)`
//!   [`metrics::ServeReport::sub_reports`] with a deterministic merge.
//! * Observability — the engine is instrumented by `amoeba_telemetry`
//!   under the **zero-perturbation obligation**: counters, log-linear
//!   latency histograms and the stage-trace flight recorder
//!   ([`ServeConfig::trace_ring`]) must never move a wire bit or take
//!   a lock a data-path thread can contend on. Telemetry is on by
//!   default ([`ServeConfig::telemetry`]), publishes as
//!   [`metrics::ServeReport::telemetry`] and through
//!   [`engine::ServeEngine::telemetry`], and is priced by CI's
//!   `telemetry-overhead` gate (≤2% throughput). The invariance is
//!   pinned by `tests/telemetry_invariance.rs` and the fingerprint
//!   sweep in `engine.rs`; exact per-frame latency samples (one
//!   [`metrics::FrameRun`] per batch and tenant) are opt-in via
//!   [`ServeConfig::exact_frame_stats`].
//! * [`dataplane::Dataplane`] — **deprecated** one-tenant shim over the
//!   engine, kept so pre-engine callers compile. Migration: replace
//!   `Dataplane::new(policy, censor, cfg)` + `add_flow*` with a
//!   [`engine::ServeEngine`], one `register_policy` / `register_censor`
//!   call each, and the [`engine::ServeEngine::admit`] builder (which is
//!   also where explicit ids and payloads — the old `add_flows` gap —
//!   plug in).
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
//! (regression-pinned in `engine.rs` and `dataplane.rs`, property-tested
//! end-to-end in `tests/grouping_invariance.rs` and
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
pub mod dataplane;
pub mod engine;
pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod session;
pub mod shard;
pub mod testutil;

use std::sync::{Arc, OnceLock};

use amoeba_core::encoder::{EncoderSnapshot, PreparedEncoderSnapshot};
use amoeba_core::policy::{ActorSnapshot, PreparedActorSnapshot};
use amoeba_core::ppo::PolicySnapshots;
use amoeba_core::{ActionSpace, AmoebaAgent, AmoebaConfig, ShapingKernel};
use amoeba_nn::packed::{PackedWeights, PreparedRhs};
use amoeba_nn::quant::QuantWeights;
use amoeba_traffic::{Layer, NetEm};

pub use backend::{BackendKind, CpuBackend, InferenceBackend, PackedBackend, QuantBackend};
#[allow(deprecated)]
pub use dataplane::Dataplane;
pub use engine::{Admission, ServeEngine, TelemetryHandle};
pub use metrics::{FrameRun, ServeReport, SessionOutcome, SessionStatus};
pub use registry::{CensorId, CensorRegistry, PolicyId, PolicyRegistry, Tenant};
pub use session::Session;
pub use shard::Shard;

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
    /// Lazily-built tier-A (packed, bit-exact) weight preparation,
    /// shared across clones so each policy packs at most once.
    packed: Arc<OnceLock<PreparedPolicy<PackedWeights>>>,
    /// Lazily-built tier-B (int8, tolerance) weight preparation.
    quant: Arc<OnceLock<PreparedPolicy<QuantWeights>>>,
}

/// A [`FrozenPolicy`]'s weights prepared once through one
/// [`PreparedRhs`] tier — the pair of prepared snapshots the packed and
/// quantized [`InferenceBackend`]s execute against. Obtained from
/// [`FrozenPolicy::packed`] / [`FrozenPolicy::quantized`]; both
/// preparations are pure functions of the frozen weights, built lazily
/// on first use and cached for the policy's lifetime.
#[derive(Clone, Debug)]
pub struct PreparedPolicy<W: PreparedRhs> {
    /// Prepared StateEncoder.
    pub encoder: PreparedEncoderSnapshot<W>,
    /// Prepared actor.
    pub actor: PreparedActorSnapshot<W>,
}

impl FrozenPolicy {
    /// Wraps snapshots for serving.
    pub fn new(encoder: EncoderSnapshot, actor: ActorSnapshot) -> Self {
        Self::from_arcs(Arc::new(encoder), Arc::new(actor))
    }

    fn from_arcs(encoder: Arc<EncoderSnapshot>, actor: Arc<ActorSnapshot>) -> Self {
        Self {
            encoder,
            actor,
            packed: Arc::new(OnceLock::new()),
            quant: Arc::new(OnceLock::new()),
        }
    }

    /// Freezes a trained agent's encoder + actor — `Arc`-sharing the
    /// agent's weight allocations, not copying them.
    pub fn from_agent(agent: &AmoebaAgent) -> Self {
        Self::from(agent.snapshots())
    }

    /// The tier-A preparation: panel-packed weights, bit-identical to the
    /// unprepared paths on every input. Built on first call (a pure
    /// layout transform of the frozen weights), then cached.
    pub fn packed(&self) -> &PreparedPolicy<PackedWeights> {
        self.packed.get_or_init(|| PreparedPolicy {
            encoder: self.encoder.prepare(),
            actor: self.actor.prepare(),
        })
    }

    /// The tier-B preparation: per-column symmetric int8 weights —
    /// deliberately *not* bit-identical (tolerance tier). Built on first
    /// call (a pure, deterministic quantization of the frozen weights),
    /// then cached.
    pub fn quantized(&self) -> &PreparedPolicy<QuantWeights> {
        self.quant.get_or_init(|| PreparedPolicy {
            encoder: self.encoder.prepare(),
            actor: self.actor.prepare(),
        })
    }
}

impl From<&PolicySnapshots> for FrozenPolicy {
    fn from(p: &PolicySnapshots) -> Self {
        Self::from_arcs(Arc::clone(&p.encoder), Arc::clone(&p.actor))
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
/// Construct via [`ServeConfig::new`] / [`ServeConfig::from_amoeba`] and
/// the `with_*` setters, or the [`ServeConfig::builder`]; the struct is
/// `#[non_exhaustive]` so future knobs (async backends, work stealing)
/// can land without breaking callers.
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
    /// Scheduler quantum (virtual ms): all sessions ready within
    /// `[t, t + tick_ms]` of the earliest ready time join one tick. A
    /// pure throughput knob — per-session output is grouping-invariant.
    pub tick_ms: f32,
    /// Deterministic vs sampled actions.
    pub mode: ActionMode,
    /// Optional path impairment applied to what the censor observes.
    pub netem: Option<NetEm>,
    /// Inline verdict cadence.
    pub verdicts: VerdictPolicy,
    /// Verify end-to-end stream reassembly per session (cleared from
    /// memory as sessions finish either way).
    pub verify_streams: bool,
    /// Master seed for per-session payload generation, sampling and NetEm.
    pub seed: u64,
    /// Which in-crate [`backend::InferenceBackend`] the engine
    /// instantiates — a pure throughput knob: all backends are
    /// bit-identical (the [`backend`] module's conformance obligation).
    /// Defaults to [`BackendKind::Cpu`], overridable process-wide via the
    /// `AMOEBA_SERVE_BACKEND` environment variable; out-of-crate backends
    /// go through [`ServeEngine::with_backend`] instead.
    pub backend: BackendKind,
    /// Two-stage software pipelining: each shard spawns a companion
    /// inference thread so batch *t*'s fused GRU/MLP pass overlaps batch
    /// *t−1*'s framing/impairment/verdict stage (default `true`; `false`
    /// is the inline fallback with no extra threads). A pure throughput
    /// knob — wire output is pipelining-invariant by the
    /// [`shard`] module-docs argument.
    pub pipeline: bool,
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
    /// telemetry on or off (pinned in `tests/telemetry_invariance.rs`),
    /// and CI's overhead gate bounds the cost at 2% throughput.
    pub telemetry: bool,
    /// Flight-recorder capacity per shard driver, in stage-trace events
    /// (0 = stage tracing off, the default). When non-zero, each shard
    /// keeps the most recent `trace_ring` pipeline-stage spans in a
    /// fixed-size ring, dumpable as Chrome-trace JSON via
    /// [`amoeba_telemetry::TelemetrySnapshot::trace_json`] and to stderr
    /// on panic. A pure observability knob — wire output is
    /// ring-size-invariant.
    pub trace_ring: usize,
    /// Keep the exact per-frame latency samples
    /// ([`metrics::ServeReport::frame_runs`]) for exact-interpolation
    /// percentiles (default `false`: percentiles come from the
    /// bounded-memory telemetry histograms, within 1/16 relative error).
    /// Memory grows with the batches run (one [`metrics::FrameRun`] per
    /// batch and tenant) — intended for tests and calibration runs.
    pub exact_frame_stats: bool,
}

impl ServeConfig {
    /// Sensible serving defaults at a layer (mirrors
    /// [`AmoebaConfig::fast`]'s environment limits).
    pub fn new(layer: Layer) -> Self {
        Self {
            layer,
            max_delay_ms: 100.0,
            min_packet: 1,
            action_space: ActionSpace::Both,
            max_len_factor: 3,
            max_len_slack: 16,
            max_batch: 64,
            n_shards: 1,
            tick_ms: 5.0,
            mode: ActionMode::Deterministic,
            netem: None,
            verdicts: VerdictPolicy::Final,
            verify_streams: true,
            seed: 0,
            backend: BackendKind::from_env_or_default(),
            pipeline: true,
            steal: true,
            telemetry: true,
            trace_ring: 0,
            exact_frame_stats: false,
        }
    }

    /// Derives serving limits from a training config, so a policy serves
    /// under exactly the constraints it was trained with.
    pub fn from_amoeba(cfg: &AmoebaConfig, layer: Layer) -> Self {
        Self {
            max_delay_ms: cfg.max_delay_ms,
            min_packet: cfg.min_packet,
            action_space: cfg.action_space,
            max_len_factor: cfg.max_len_factor,
            max_len_slack: cfg.max_len_slack,
            seed: cfg.seed,
            ..Self::new(layer)
        }
    }

    /// A fluent builder starting from [`ServeConfig::new`]'s defaults.
    pub fn builder(layer: Layer) -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self::new(layer),
        }
    }

    /// A fluent builder starting from [`ServeConfig::from_amoeba`].
    pub fn builder_from_amoeba(cfg: &AmoebaConfig, layer: Layer) -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self::from_amoeba(cfg, layer),
        }
    }

    /// Sets the inference batch cap.
    pub fn with_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        self.max_batch = max_batch;
        self
    }

    /// Sets the shard (worker thread) count; 0 = one per available core.
    pub fn with_shards(mut self, n_shards: usize) -> Self {
        self.n_shards = n_shards;
        self
    }

    /// Sets the scheduler quantum (virtual ms).
    pub fn with_tick(mut self, tick_ms: f32) -> Self {
        assert!(tick_ms >= 0.0, "tick_ms must be non-negative");
        self.tick_ms = tick_ms;
        self
    }

    /// Sets the action mode.
    pub fn with_mode(mut self, mode: ActionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables path impairment.
    pub fn with_netem(mut self, netem: NetEm) -> Self {
        self.netem = Some(netem);
        self
    }

    /// Sets the inline verdict cadence.
    pub fn with_verdicts(mut self, verdicts: VerdictPolicy) -> Self {
        self.verdicts = verdicts;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the in-crate inference backend.
    pub fn with_backend_kind(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Enables or disables the per-shard inference/framing pipeline.
    pub fn with_pipeline(mut self, pipeline: bool) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Enables or disables work stealing between shards.
    pub fn with_steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Enables or disables telemetry recording (zero-perturbation
    /// counters, histograms, per-tenant feedback).
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the per-shard flight-recorder capacity in trace events
    /// (0 = stage tracing off).
    pub fn with_trace_ring(mut self, trace_ring: usize) -> Self {
        self.trace_ring = trace_ring;
        self
    }

    /// Keeps exact per-frame latency sample vectors for
    /// exact-interpolation percentiles (unbounded memory; tests only).
    pub fn with_exact_frame_stats(mut self, exact: bool) -> Self {
        self.exact_frame_stats = exact;
        self
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
/// builder. Obtain via [`ServeConfig::builder`]; every method maps to one
/// config field; [`ServeConfigBuilder::build`] validates and returns the
/// config.
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

    /// Scheduler quantum (virtual ms, non-negative).
    pub fn tick_ms(mut self, tick_ms: f32) -> Self {
        self.cfg.tick_ms = tick_ms;
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

    /// Verify end-to-end stream reassembly per session.
    pub fn verify_streams(mut self, verify: bool) -> Self {
        self.cfg.verify_streams = verify;
        self
    }

    /// Master seed for per-session payload generation, sampling, NetEm.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// In-crate inference backend the engine instantiates (bit-identical
    /// choices; a pure throughput knob).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Per-shard inference/framing pipelining (a pure throughput knob).
    pub fn pipeline(mut self, pipeline: bool) -> Self {
        self.cfg.pipeline = pipeline;
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

    /// Keep exact per-frame latency vectors (unbounded memory).
    pub fn exact_frame_stats(mut self, exact: bool) -> Self {
        self.cfg.exact_frame_stats = exact;
        self
    }

    /// Maximum agent-added delay per frame (ms).
    pub fn max_delay_ms(mut self, ms: f32) -> Self {
        self.cfg.max_delay_ms = ms;
        self
    }

    /// Morphing operations available to the policy.
    pub fn action_space(mut self, space: ActionSpace) -> Self {
        self.cfg.action_space = space;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Panics
    /// Panics on an invalid combination (`max_batch == 0`, negative
    /// `tick_ms` or `max_delay_ms`).
    pub fn build(self) -> ServeConfig {
        assert!(self.cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.cfg.tick_ms >= 0.0, "tick_ms must be non-negative");
        assert!(
            self.cfg.max_delay_ms >= 0.0,
            "max_delay_ms must be non-negative"
        );
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The builder is field-for-field equivalent to the `with_*` chain.
    #[test]
    fn config_builder_matches_with_chain() {
        let built = ServeConfig::builder(Layer::Tcp)
            .batch(32)
            .shards(4)
            .tick_ms(2.0)
            .mode(ActionMode::Sample)
            .verdicts(VerdictPolicy::Every(8))
            .verify_streams(false)
            .seed(99)
            .pipeline(false)
            .steal(false)
            .telemetry(false)
            .trace_ring(128)
            .exact_frame_stats(true)
            .build();
        let mut chained = ServeConfig::new(Layer::Tcp)
            .with_batch(32)
            .with_shards(4)
            .with_tick(2.0)
            .with_mode(ActionMode::Sample)
            .with_verdicts(VerdictPolicy::Every(8))
            .with_seed(99)
            .with_pipeline(false)
            .with_steal(false)
            .with_telemetry(false)
            .with_trace_ring(128)
            .with_exact_frame_stats(true);
        chained.verify_streams = false;
        assert_eq!(format!("{built:?}"), format!("{chained:?}"));
    }

    /// Every `ServeConfig::builder()` default, pinned field by field
    /// (the builder starts from `ServeConfig::new`'s values, so this is
    /// the one place the documented defaults are asserted directly).
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
        assert_eq!(cfg.tick_ms, 5.0);
        assert_eq!(cfg.mode, ActionMode::Deterministic);
        assert!(cfg.netem.is_none());
        assert_eq!(cfg.verdicts, VerdictPolicy::Final);
        assert!(cfg.verify_streams);
        assert_eq!(cfg.seed, 0);
        assert!(cfg.pipeline, "pipelining defaults on");
        assert!(cfg.steal, "work stealing defaults on");
        assert!(cfg.telemetry, "telemetry defaults on (zero-perturbation)");
        assert_eq!(cfg.trace_ring, 0, "stage tracing defaults off");
        assert!(!cfg.exact_frame_stats, "exact frame vectors default off");
        // The backend default honours the process-wide CI forcing knob
        // (`AMOEBA_SERVE_BACKEND`), falling back to the CPU reference.
        assert_eq!(cfg.backend, BackendKind::from_env_or_default());
        if std::env::var(BackendKind::ENV).is_err() {
            assert_eq!(cfg.backend, BackendKind::Cpu);
        }
    }

    /// Backend selection flows through both the builder and the
    /// `with_*` chain.
    #[test]
    fn builder_backend_selects_packed() {
        let built = ServeConfig::builder(Layer::Tcp)
            .backend(BackendKind::Packed)
            .build();
        assert_eq!(built.backend, BackendKind::Packed);
        let chained = ServeConfig::new(Layer::Tcp).with_backend_kind(BackendKind::Packed);
        assert_eq!(chained.backend, BackendKind::Packed);
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn builder_rejects_zero_batch() {
        let _ = ServeConfig::builder(Layer::Tcp).batch(0).build();
    }

    #[test]
    #[should_panic(expected = "tick_ms must be non-negative")]
    fn builder_rejects_negative_tick() {
        let _ = ServeConfig::builder(Layer::Tcp).tick_ms(-1.0).build();
    }

    #[test]
    fn builder_from_amoeba_inherits_training_limits() {
        let amoeba = AmoebaConfig::fast().with_seed(23);
        let cfg = ServeConfig::builder_from_amoeba(&amoeba, Layer::Tcp)
            .batch(16)
            .build();
        assert_eq!(cfg.seed, 23);
        assert_eq!(cfg.max_delay_ms, amoeba.max_delay_ms);
        assert_eq!(cfg.max_batch, 16);
    }
}
