//! The multi-tenant serving engine: one process, many policies and
//! censors.
//!
//! [`ServeEngine`] replaces the single-tenant `Dataplane` constructor
//! with registries and an admission builder:
//!
//! ```text
//! let mut engine = ServeEngine::new(cfg);
//! let p = engine.register_policy(policy);        // PolicyId (Copy)
//! let c = engine.register_censor(censor);        // CensorId (Copy)
//! engine.admit(&flow).policy(p).censor(c).submit();
//! let report = engine.run();
//! for (tenant, sub) in report.sub_reports() { ... }
//! ```
//!
//! ## Scheduling model
//!
//! Each session's next decision becomes *ready* the moment its previous
//! frame is emitted (`ready_at`); the frame itself leaves `delay_ms`
//! later, which is when the following decision is taken — inference cost
//! hides inside the frame delay, exactly the §5.6.1 deployment argument.
//! Each [`crate::shard::Shard`] keeps its sessions in a min-heap of
//! `ready_at` times: every tick pops the earliest ready time `t` plus
//! every session ready within the scheduler quantum `[t, t + tick_ms]`,
//! buckets them by [`PolicyId`] (sessions sharing a policy share weights,
//! so their observations fuse into the same GRU/MLP pass no matter which
//! censor they face), and packages each bucket into inference batches of
//! at most `max_batch` flows. The [`crate::scheduler`] executes those
//! batches through the pluggable [`InferenceBackend`] — pipelined with a
//! per-shard companion inference thread ([`ServeConfig::pipeline`]) and
//! balanced across shards by work stealing ([`ServeConfig::steal`]).
//!
//! ## Sharding, tenancy and grouping invariance
//!
//! Sessions are fully independent (a private censor program per session
//! spawned from the tenant's factory, per-session RNGs derived from
//! `(seed, session_id)` only, row-independent matrix
//! kernels), so *any* grouping of sessions — into inference batches
//! within a tick, across [`crate::shard::Shard`] worker threads, or
//! alongside any mix of co-tenants — produces bit-identical per-session
//! output. `max_batch`, `tick_ms`, `n_shards`, `pipeline` and `steal`
//! are pure throughput knobs, and multi-tenancy is a pure *packing*
//! knob: a session's wire output depends only on
//! `(seed, session_id, policy, censor)`. The
//! regression tests below pin a 1 000-flow run split across 2 policies ×
//! 3 censors against the corresponding single-tenant runs, and
//! `tests/tenancy_invariance.rs` property-tests random tenant mixes ×
//! shard counts × batch sizes end-to-end.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use amoeba_classifiers::{Censor, CensorProgramFactory};
use amoeba_telemetry::{ShardTelemetry, TelemetrySnapshot};
use amoeba_traffic::Flow;

use crate::backend::InferenceBackend;
use crate::metrics::{FrameRun, ServeReport, SessionOutcome};
use crate::registry::{CensorId, CensorRegistry, PolicyId, PolicyRegistry, Tenant};
use crate::session::Session;
use crate::shard::{Shard, ShardReport};
use crate::{FrozenPolicy, ServeConfig};

/// The multi-tenant serving engine: policy and censor registries, an
/// admission builder, and the sharded, per-policy-fused batched
/// scheduler. See the [module docs](self) for the API shape and the
/// tenancy-invariance contract.
pub struct ServeEngine {
    policies: PolicyRegistry,
    censors: CensorRegistry,
    backend: Arc<dyn InferenceBackend>,
    cfg: ServeConfig,
    sessions: Vec<Session>,
    /// Next auto-assigned session id (`max(assigned) + 1`).
    next_id: usize,
    /// Where [`ServeEngine::run`] publishes the aggregated telemetry
    /// snapshot; [`TelemetryHandle`]s obtained before the (consuming)
    /// run read it afterwards.
    telemetry_hub: Arc<Mutex<Option<TelemetrySnapshot>>>,
}

/// A handle onto an engine's telemetry snapshot, valid across
/// [`ServeEngine::run`] (which consumes the engine). Obtain via
/// [`ServeEngine::telemetry`] before the run; [`TelemetryHandle::get`]
/// returns `Some` once the run completed with
/// [`crate::ServeConfig::telemetry`] enabled. The hub mutex is touched
/// only at publication time, after every shard has finished — never on
/// the serving data path.
#[derive(Clone)]
pub struct TelemetryHandle {
    hub: Arc<Mutex<Option<TelemetrySnapshot>>>,
}

impl TelemetryHandle {
    /// The aggregated snapshot of the engine's completed run, if any.
    pub fn get(&self) -> Option<TelemetrySnapshot> {
        self.hub.lock().expect("telemetry hub poisoned").clone()
    }
}

impl ServeEngine {
    /// An empty engine. Register at least one policy and one censor
    /// before admitting sessions.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            policies: PolicyRegistry::new(),
            censors: CensorRegistry::new(),
            backend: cfg.backend.instantiate(),
            cfg,
            sessions: Vec::new(),
            next_id: 0,
            telemetry_hub: Arc::new(Mutex::new(None)),
        }
    }

    /// An engine over pre-built registries (sweep harnesses that assemble
    /// their tenant tables up front).
    pub fn with_registries(
        policies: PolicyRegistry,
        censors: CensorRegistry,
        cfg: ServeConfig,
    ) -> Self {
        Self {
            policies,
            censors,
            backend: cfg.backend.instantiate(),
            cfg,
            sessions: Vec::new(),
            next_id: 0,
            telemetry_hub: Arc::new(Mutex::new(None)),
        }
    }

    /// A handle onto this engine's telemetry snapshot, usable after the
    /// consuming [`ServeEngine::run`] call:
    ///
    /// ```text
    /// let handle = engine.telemetry();
    /// let report = engine.run();
    /// let snapshot = handle.get().expect("telemetry enabled");
    /// println!("{}", snapshot.to_prometheus_text());
    /// ```
    ///
    /// Returns `None` from [`TelemetryHandle::get`] until the run
    /// finishes, or always when [`crate::ServeConfig::telemetry`] is off.
    /// The same snapshot also rides on
    /// [`ServeReport::telemetry`](crate::metrics::ServeReport::telemetry).
    pub fn telemetry(&self) -> TelemetryHandle {
        TelemetryHandle {
            hub: Arc::clone(&self.telemetry_hub),
        }
    }

    /// Swaps in an arbitrary inference backend, overriding the
    /// [`crate::BackendKind`] the config selected (the escape hatch for
    /// backends living outside this crate). Backends must honour the
    /// bit-exactness obligations in [`crate::backend`].
    pub fn with_backend(mut self, backend: Arc<dyn InferenceBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The label of the backend this engine will run inference on.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Registers a frozen policy, returning its cheap `Copy` handle.
    /// `Arc`-identical policies dedupe onto the existing handle.
    pub fn register_policy(&mut self, policy: FrozenPolicy) -> PolicyId {
        self.policies.register(policy)
    }

    /// Registers an inline one-shot censor, returning its cheap `Copy`
    /// handle. `Arc`-identical censors dedupe onto the existing handle.
    /// The censor is adapted into a degenerate streaming program
    /// ([`amoeba_classifiers::ClassifierProgramFactory`]) — bit-for-bit
    /// the one-shot scoring path.
    pub fn register_censor(&mut self, censor: Arc<dyn Censor>) -> CensorId {
        self.censors.register(censor)
    }

    /// Registers a streaming censor-program factory (stateful warmup /
    /// hysteresis censors, verdict-only hard-label gateways, teardown
    /// policies), returning its cheap `Copy` handle. Each admitted
    /// session of this tenant gets its own program via
    /// [`CensorProgramFactory::spawn`]. `Arc`-identical factories dedupe
    /// onto the existing handle.
    pub fn register_censor_program(&mut self, factory: Arc<dyn CensorProgramFactory>) -> CensorId {
        self.censors.register_program(factory)
    }

    /// The policy table.
    pub fn policies(&self) -> &PolicyRegistry {
        &self.policies
    }

    /// The censor table.
    pub fn censors(&self) -> &CensorRegistry {
        &self.censors
    }

    /// Number of admitted sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions were admitted.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Starts admitting one session over an offered flow: returns the
    /// admission builder. The builder defaults to the first registered
    /// policy and censor, the next free session id, and a deterministic
    /// pseudo-random payload derived from `(seed, session_id)`; finish
    /// with [`Admission::submit`].
    pub fn admit<'e, 'f>(&'e mut self, offered: &'f Flow) -> Admission<'e, 'f> {
        Admission {
            engine: self,
            offered,
            id: None,
            policy: PolicyId::default(),
            censor: CensorId::default(),
            payload: None,
        }
    }

    /// Bulk admission: every flow under one `(policy, censor)` pair, auto
    /// ids, derived payloads. Equivalent to (and implemented as) a loop
    /// over [`ServeEngine::admit`]; returns the assigned session ids.
    pub fn admit_all<'f>(
        &mut self,
        offered: impl IntoIterator<Item = &'f Flow>,
        policy: PolicyId,
        censor: CensorId,
    ) -> Vec<usize> {
        offered
            .into_iter()
            .map(|f| self.admit(f).policy(policy).censor(censor).submit())
            .collect()
    }

    /// Shard count this run will use: `n_shards` resolved (0 = one per
    /// available core) and clamped to the session count.
    fn effective_shards(&self) -> usize {
        let configured = if self.cfg.n_shards == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.cfg.n_shards
        };
        configured.clamp(1, self.sessions.len().max(1))
    }

    /// Drives every session to completion and returns the merged run
    /// report.
    ///
    /// Sessions are sorted by id, partitioned round-robin across
    /// [`Shard`]s, run to completion on `std::thread::scope` workers
    /// (inline for a single shard), and the shard reports are merged
    /// deterministically by session id — so the report is identical for
    /// any shard count, wall-clock fields aside. Slice it per tenant with
    /// [`ServeReport::sub_reports`].
    ///
    /// # Panics
    /// Panics if two sessions share an id.
    pub fn run(mut self) -> ServeReport {
        // audit:allow(AMB002, reason = "wall-clock run duration for ServeReport/throughput; read once, never steers scheduling or the wire")
        let start = Instant::now();
        self.sessions.sort_by_key(Session::id);
        assert!(
            self.sessions.windows(2).all(|w| w[0].id() != w[1].id()),
            "duplicate session ids"
        );
        let n_shards = self.effective_shards();
        let policies = self.policies.into_shared();
        let censors = self.censors.into_shared();

        // Round-robin partition in id order: shard s takes sorted
        // sessions s, s + n, s + 2n, … — balanced and deterministic.
        let mut parts: Vec<Vec<Session>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (i, session) in self.sessions.drain(..).enumerate() {
            parts[i % n_shards].push(session);
        }
        let shards: Vec<Shard> = parts
            .into_iter()
            .map(|sessions| {
                Shard::new(
                    Arc::clone(&policies),
                    Arc::clone(&censors),
                    Arc::clone(&self.backend),
                    self.cfg.clone(),
                    sessions,
                )
            })
            .collect();

        let reports: Vec<ShardReport> = crate::scheduler::run_shards(shards);

        let report = Self::merge(reports, start.elapsed().as_secs_f64(), self.cfg.telemetry);
        *self.telemetry_hub.lock().expect("telemetry hub poisoned") = report.telemetry.clone();
        report
    }

    /// Deterministic merge: outcomes k-way-merged by session id (each
    /// shard's list is already id-ascending), counters summed, frame runs
    /// concatenated in shard order, and shard telemetry aggregated in
    /// shard-index order.
    fn merge(reports: Vec<ShardReport>, wall_seconds: f64, telemetry_on: bool) -> ServeReport {
        let mut frames = 0usize;
        let mut batches = 0usize;
        let mut stolen_batches = 0usize;
        let mut infer_stage_us = 0f64;
        let mut framing_stage_us = 0f64;
        let mut max_queue_depth = 0usize;
        let total: usize = reports.iter().map(|r| r.outcomes.len()).sum();
        let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(total);
        let mut frame_runs: Vec<FrameRun> = Vec::new();
        let mut shard_tel: Vec<ShardTelemetry> = Vec::new();
        let mut queues: Vec<std::vec::IntoIter<SessionOutcome>> = Vec::new();
        for r in reports {
            frames += r.frames;
            batches += r.batches;
            stolen_batches += r.stolen_batches;
            infer_stage_us += r.infer_us;
            framing_stage_us += r.framing_us;
            max_queue_depth = max_queue_depth.max(r.max_queue_depth);
            frame_runs.extend(r.frame_runs);
            if telemetry_on {
                shard_tel.push(r.telemetry);
            }
            queues.push(r.outcomes.into_iter());
        }
        let telemetry =
            telemetry_on.then(|| TelemetrySnapshot::aggregate(&shard_tel, wall_seconds));
        let mut heads: Vec<Option<SessionOutcome>> =
            queues.iter_mut().map(Iterator::next).collect();
        while let Some(best) = heads
            .iter()
            .enumerate()
            .filter_map(|(q, h)| h.as_ref().map(|o| (o.id, q)))
            .min()
            .map(|(_, q)| q)
        {
            outcomes.push(heads[best].take().expect("nonempty head"));
            heads[best] = queues[best].next();
        }
        ServeReport {
            outcomes,
            wall_seconds,
            frames,
            inference_batches: batches,
            frame_runs,
            stolen_batches,
            infer_stage_us,
            framing_stage_us,
            max_queue_depth,
            telemetry,
        }
    }
}

/// In-flight admission of one session: choose the tenant, optionally the
/// session id and payload, then [`Admission::submit`].
///
/// Unset knobs fall back to: the first registered policy and censor, the
/// engine's next free id, and a deterministic pseudo-random payload
/// derived from `(seed, session_id)` sized to the offered flow.
#[must_use = "an admission does nothing until .submit() is called"]
pub struct Admission<'e, 'f> {
    engine: &'e mut ServeEngine,
    offered: &'f Flow,
    id: Option<usize>,
    policy: PolicyId,
    censor: CensorId,
    payload: Option<(Vec<u8>, Vec<u8>)>,
}

impl Admission<'_, '_> {
    /// Serves this session with the given registered policy.
    pub fn policy(mut self, policy: PolicyId) -> Self {
        self.policy = policy;
        self
    }

    /// Evaluates this session against the given registered censor.
    pub fn censor(mut self, censor: CensorId) -> Self {
        self.censor = censor;
        self
    }

    /// Admits under an explicit session id (ids must be unique; duplicates
    /// panic at [`ServeEngine::run`]). Everything a session does —
    /// payload generation, action sampling, NetEm — derives from
    /// `(seed, id)` and its tenant only, so admitting the same
    /// `(id, flow, tenant)` triples in any order yields identical
    /// per-session wire output.
    pub fn id(mut self, id: usize) -> Self {
        self.id = Some(id);
        self
    }

    /// Carries caller-supplied byte streams instead of the derived
    /// pseudo-random payload. Stream lengths must not exceed the offered
    /// flow's per-direction byte totals.
    pub fn payload(mut self, outbound: Vec<u8>, inbound: Vec<u8>) -> Self {
        self.payload = Some((outbound, inbound));
        self
    }

    /// Builds and admits the session, returning its id.
    ///
    /// # Panics
    /// Panics if the policy or censor handle is not registered with this
    /// engine, or a payload stream exceeds its offered capacity.
    pub fn submit(self) -> usize {
        assert!(
            self.policy.index() < self.engine.policies.len(),
            "admit: PolicyId({}) is not registered (register_policy first)",
            self.policy.index()
        );
        assert!(
            self.censor.index() < self.engine.censors.len(),
            "admit: CensorId({}) is not registered (register_censor first)",
            self.censor.index()
        );
        let id = self.id.unwrap_or(self.engine.next_id);
        let tenant = Tenant::new(self.policy, self.censor);
        let session = match self.payload {
            Some((out, inb)) => Session::with_payload(id, self.offered, &self.engine.cfg, out, inb),
            None => Session::new(id, self.offered, &self.engine.cfg),
        }
        .with_tenant(tenant);
        self.engine.sessions.push(session);
        self.engine.next_id = self.engine.next_id.max(id + 1);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{offered_flows, scoring_censor, tiny_policy};
    use crate::{ActionMode, VerdictPolicy};
    use amoeba_traffic::{Layer, NetEm};

    fn cfg(batch: usize, shards: usize, mode: ActionMode) -> ServeConfig {
        // Exact per-frame vectors stay on in this suite: the accounting
        // tests assert on them, and running the invariance pins with
        // them enabled doubles as proof they cannot perturb the wire.
        ServeConfig::new(Layer::Tcp)
            .with_seed(11)
            .with_batch(batch)
            .with_shards(shards)
            .with_mode(mode)
            .with_exact_frame_stats(true)
    }

    /// Admits `flows[i]` (id `i`) to tenant `tenants[i % tenants.len()]`.
    fn run_multi(
        flows: &[Flow],
        policies: &[FrozenPolicy],
        censor_scores: &[f32],
        batch: usize,
        shards: usize,
        mode: ActionMode,
    ) -> ServeReport {
        let mut engine = ServeEngine::new(cfg(batch, shards, mode));
        let pids: Vec<PolicyId> = policies
            .iter()
            .map(|p| engine.register_policy(p.clone()))
            .collect();
        let cids: Vec<CensorId> = censor_scores
            .iter()
            .map(|&s| engine.register_censor(scoring_censor(s)))
            .collect();
        let n_tenants = pids.len() * cids.len();
        for (i, f) in flows.iter().enumerate() {
            let t = i % n_tenants;
            engine
                .admit(f)
                .id(i)
                .policy(pids[t / cids.len()])
                .censor(cids[t % cids.len()])
                .submit();
        }
        engine.run()
    }

    /// Single-tenant engine run of one `(id, flow)` set under one policy
    /// and censor.
    fn run_single(
        pairs: &[(usize, &Flow)],
        policy: &FrozenPolicy,
        censor_score: f32,
        mode: ActionMode,
    ) -> ServeReport {
        let mut engine = ServeEngine::new(cfg(1, 1, mode));
        let p = engine.register_policy(policy.clone());
        let c = engine.register_censor(scoring_censor(censor_score));
        for &(id, f) in pairs {
            engine.admit(f).id(id).policy(p).censor(c).submit();
        }
        engine.run()
    }

    /// The tentpole acceptance criterion: one engine run over 1 000 flows
    /// split across 2 policies × 3 censors is bit-identical, per session,
    /// to the six corresponding single-tenant runs — at batch 64 and
    /// multiple shards, against batch-1 single-shard references.
    #[test]
    fn multi_tenant_run_matches_single_tenant_runs_bit_exact() {
        let flows = offered_flows(1000, 3);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.4, 0.9];
        let report = run_multi(&flows, &policies, &scores, 64, 4, ActionMode::Sample);
        assert_eq!(report.outcomes.len(), 1000);
        assert_eq!(report.stream_ok_rate(), 1.0);
        assert_eq!(report.tenants().len(), 6);

        for (ti, (tenant, sub)) in report.sub_reports().into_iter().enumerate() {
            // Reconstruct this tenant's (id, flow) set and serve it alone.
            let pairs: Vec<(usize, &Flow)> = flows
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 6 == ti)
                .collect();
            assert_eq!(sub.outcomes.len(), pairs.len());
            let single = run_single(
                &pairs,
                &policies[tenant.policy.index()],
                scores[tenant.censor.index()],
                ActionMode::Sample,
            );
            assert_eq!(
                sub.wire_bits(),
                single.wire_bits(),
                "tenant {tenant:?} diverged from its single-tenant run"
            );
            // Scores and evasion match too — the censor saw identical wire.
            let sub_scores: Vec<f32> = sub.outcomes.iter().map(|o| o.final_score).collect();
            let single_scores: Vec<f32> = single.outcomes.iter().map(|o| o.final_score).collect();
            assert_eq!(sub_scores, single_scores);
        }
    }

    /// Tenancy is a pure packing knob: the same multi-tenant admission at
    /// any batch size × shard count yields bit-identical wire output.
    #[test]
    fn multi_tenant_run_is_grouping_invariant() {
        let flows = offered_flows(120, 5);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.9];
        let reference = run_multi(&flows, &policies, &scores, 1, 1, ActionMode::Deterministic);
        for (batch, shards) in [(64, 1), (1, 4), (64, 4), (256, 8)] {
            let r = run_multi(
                &flows,
                &policies,
                &scores,
                batch,
                shards,
                ActionMode::Deterministic,
            );
            assert_eq!(
                r.wire_bits(),
                reference.wire_bits(),
                "batch {batch} x {shards} shards diverged"
            );
        }
    }

    /// Frames and latency tags stay consistent in a multi-tenant run, and
    /// the sub-reports partition them exactly.
    #[test]
    fn multi_tenant_report_accounting_is_partitioned() {
        let flows = offered_flows(60, 13);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.4, 0.9];
        let report = run_multi(&flows, &policies, &scores, 16, 2, ActionMode::Deterministic);
        let run_frames = |r: &ServeReport| {
            r.frame_runs
                .iter()
                .map(|f| f.frames as usize)
                .sum::<usize>()
        };
        assert_eq!(run_frames(&report), report.frames);
        assert!(report.frame_runs.iter().all(|f| f.frames > 0));
        assert!(report.frame_runs.len() >= report.inference_batches);
        assert!(report.inference_batches > 0);
        assert!(report.max_queue_depth > 0);
        assert!(report.infer_stage_us > 0.0);
        assert!(report.framing_stage_us > 0.0);
        let subs = report.sub_reports();
        assert_eq!(subs.len(), 6);
        assert_eq!(
            subs.iter().map(|(_, r)| r.frames).sum::<usize>(),
            report.frames
        );
        assert_eq!(
            subs.iter().map(|(_, r)| r.outcomes.len()).sum::<usize>(),
            report.outcomes.len()
        );
        for (t, sub) in &subs {
            assert!(sub.outcomes.iter().all(|o| o.tenant == *t));
            assert!(sub.frame_runs.iter().all(|f| f.tenant == *t));
            assert_eq!(run_frames(sub), sub.frames);
        }
        // The tenants' runs partition the parent's: every parent run
        // lands in exactly its tenant's sub-report, in parent order.
        let mut regrouped: Vec<FrameRun> = Vec::new();
        for (_, sub) in &subs {
            regrouped.extend(&sub.frame_runs);
        }
        assert_eq!(regrouped.len(), report.frame_runs.len());
        for (t, sub) in &subs {
            let want: Vec<FrameRun> = report
                .frame_runs
                .iter()
                .filter(|f| f.tenant == *t)
                .copied()
                .collect();
            assert_eq!(sub.frame_runs, want);
        }
    }

    /// A report keeps every session's wire flow for as long as the caller
    /// holds it, so each is stored at exactly its length: no doubling
    /// slack from the growth buffer it was built in.
    #[test]
    fn outcome_wires_are_stored_at_exact_size() {
        let flows = offered_flows(60, 13);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let report = run_multi(&flows, &policies, &[0.1, 0.9], 16, 2, ActionMode::Sample);
        assert_eq!(report.outcomes.len(), flows.len());
        assert!(report.frames > 0);
        for o in &report.outcomes {
            assert_eq!(
                o.wire.packets.capacity(),
                o.wire.packets.len(),
                "session {}",
                o.id
            );
        }
    }

    /// The telemetry snapshot agrees with the report's own accounting and
    /// reaches the caller both on the report and through a pre-run
    /// [`ServeEngine::telemetry`] handle.
    #[test]
    fn telemetry_snapshot_matches_report_accounting() {
        let flows = offered_flows(60, 13);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.4, 0.9];
        let mut engine =
            ServeEngine::new(cfg(16, 2, ActionMode::Deterministic).with_trace_ring(256));
        let pids: Vec<PolicyId> = policies
            .iter()
            .map(|p| engine.register_policy(p.clone()))
            .collect();
        let cids: Vec<CensorId> = scores
            .iter()
            .map(|&s| engine.register_censor(scoring_censor(s)))
            .collect();
        for (i, f) in flows.iter().enumerate() {
            let t = i % 6;
            engine
                .admit(f)
                .id(i)
                .policy(pids[t / 3])
                .censor(cids[t % 3])
                .submit();
        }
        let handle = engine.telemetry();
        assert!(handle.get().is_none(), "no snapshot before the run");
        let report = engine.run();

        let snap = report.telemetry.as_ref().expect("telemetry defaults on");
        assert_eq!(snap.counters.frames as usize, report.frames);
        assert_eq!(snap.counters.batches as usize, report.inference_batches);
        assert_eq!(snap.counters.absorbs as usize, report.inference_batches);
        assert_eq!(snap.counters.sessions as usize, report.outcomes.len());
        assert_eq!(snap.counters.stolen_batches as usize, report.stolen_batches);
        assert_eq!(
            snap.counters.max_queue_depth as usize,
            report.max_queue_depth
        );
        assert!(snap.counters.ticks > 0);
        assert_eq!(snap.shards, 2);

        // Histograms saw exactly one sample per frame.
        assert_eq!(snap.queue_hist.count() as usize, report.frames);
        assert_eq!(snap.compute_hist.count() as usize, report.frames);
        assert_eq!(snap.latency_hist.count() as usize, report.frames);

        // Per-tenant feedback partitions the totals and matches the
        // sub-report evasion accounting.
        assert_eq!(snap.tenants.len(), 6);
        let tenant_frames: u64 = snap.tenants.values().map(|t| t.frames).sum();
        let tenant_sessions: u64 = snap.tenants.values().map(|t| t.sessions).sum();
        assert_eq!(tenant_frames as usize, report.frames);
        assert_eq!(tenant_sessions as usize, report.outcomes.len());
        for (key, cell) in &snap.tenants {
            let evaded = report
                .outcomes
                .iter()
                .filter(|o| {
                    o.tenant.policy.index() == key.policy
                        && o.tenant.censor.index() == key.censor
                        && o.evaded
                })
                .count();
            assert_eq!(cell.evasions as usize, evaded, "tenant {key:?}");
            assert!(cell.verdicts >= cell.sessions, "≥ one final verdict each");
        }

        // Stage tracing captured real spans on the common epoch.
        assert!(!snap.events.is_empty(), "trace ring was enabled");
        let json = snap.trace_json();
        assert!(json.contains("\"name\":\"infer\""));
        assert!(json.contains("\"name\":\"frame\""));
        assert!(json.contains("\"name\":\"emit\""));
        assert!(
            snap.events.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns),
            "aggregated events are time-sorted"
        );

        // The pre-run handle sees the same snapshot after the run.
        let via_handle = handle.get().expect("snapshot published");
        assert_eq!(via_handle.to_prometheus_text(), snap.to_prometheus_text());
    }

    /// With telemetry off the engine reports no snapshot — and the wire
    /// is bit-identical to the telemetry-on run (the zero-perturbation
    /// contract, property-tested at scale in
    /// `tests/telemetry_invariance.rs`).
    #[test]
    fn telemetry_off_omits_snapshot_and_keeps_wire_identical() {
        let flows = offered_flows(24, 9);
        let run = |telemetry: bool, trace_ring: usize| {
            let mut engine = ServeEngine::new(
                cfg(8, 2, ActionMode::Sample)
                    .with_telemetry(telemetry)
                    .with_trace_ring(trace_ring),
            );
            let p = engine.register_policy(tiny_policy(7));
            let c = engine.register_censor(scoring_censor(0.4));
            for (i, f) in flows.iter().enumerate() {
                engine.admit(f).id(i).policy(p).censor(c).submit();
            }
            engine.run()
        };
        let on = run(true, 0);
        let off = run(false, 0);
        let traced = run(true, 32);
        assert!(on.telemetry.is_some());
        assert!(off.telemetry.is_none(), "telemetry off ⇒ no snapshot");
        assert_eq!(on.wire_bits(), off.wire_bits());
        assert_eq!(on.wire_bits(), traced.wire_bits());
    }

    /// FNV-1a 64 over `wire_bits()` in session order, packet order:
    /// `size` then `delay_ms.to_bits()`, each little-endian — the
    /// published [`ServeReport::wire_fingerprint`], whose scheme the
    /// `SCAN_FINGERPRINT` pin below freezes.
    fn wire_fingerprint(report: &ServeReport) -> u64 {
        report.wire_fingerprint()
    }

    /// Regression pin against the pre-pipeline scan scheduler: the exact
    /// workload below produced this wire fingerprint under the original
    /// fold-min + refill-scan tick selection (batch 16, 2 shards). The
    /// heap scheduler, with pipelining and stealing at every shard/batch
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
                for pipeline in [false, true] {
                    for steal in [false, true] {
                        let mut c = cfg(batch, shards, ActionMode::Sample)
                            .with_verdicts(VerdictPolicy::Every(4))
                            .with_pipeline(pipeline)
                            .with_steal(steal);
                        c.netem = Some(netem);
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
                            wire_fingerprint(&report),
                            SCAN_FINGERPRINT,
                            "wire diverged from the scan scheduler at \
                             shards={shards} batch={batch} \
                             pipeline={pipeline} steal={steal}"
                        );
                    }
                }
            }
        }
    }

    /// A single shard has nobody to steal from: the counter must stay
    /// zero even with stealing enabled.
    #[test]
    fn single_shard_reports_zero_stolen_batches() {
        let flows = offered_flows(40, 5);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.9];
        let mut engine = ServeEngine::new(cfg(8, 1, ActionMode::Deterministic).with_steal(true));
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
        assert_eq!(report.stolen_batches, 0, "n_shards == 1 cannot steal");
        assert!(report.frames > 0);
    }

    /// Different censors on identical sessions: wire identical (actions
    /// come from the policy, not the censor), verdicts differ.
    #[test]
    fn censor_choice_affects_verdicts_not_wire() {
        let flows = offered_flows(24, 9);
        let policy = tiny_policy(7);
        let mut engine = ServeEngine::new(
            cfg(8, 1, ActionMode::Deterministic).with_verdicts(VerdictPolicy::EveryFrame),
        );
        let p = engine.register_policy(policy);
        let allow = engine.register_censor(scoring_censor(0.1));
        let block = engine.register_censor(scoring_censor(0.9));
        // The same offered flow twice, under each censor, with ids chosen
        // so both sessions share (seed, session_id)-derived randomness…
        // they can't share an id, so give each pair adjacent ids and
        // compare against single-tenant runs instead.
        for (i, f) in flows.iter().enumerate() {
            engine.admit(f).id(2 * i).policy(p).censor(allow).submit();
            engine
                .admit(f)
                .id(2 * i + 1)
                .policy(p)
                .censor(block)
                .submit();
        }
        let report = engine.run();
        let subs = report.sub_reports();
        assert_eq!(subs.len(), 2);
        // Deterministic actions depend on the offered flow, not the
        // censor: both tenants put bit-identical frames on the wire.
        assert_eq!(subs[0].1.wire_bits(), subs[1].1.wire_bits());
        assert_eq!(subs[0].1.evasion_rate(), 1.0, "allow-censor tenant");
        assert_eq!(subs[1].1.evasion_rate(), 0.0, "block-censor tenant");
        assert!(subs[1].1.outcomes.iter().all(|o| o.blocked_midstream));
        assert_eq!(report.stream_ok_rate(), 1.0);
    }

    /// NetEm + sampling keep the tenancy contract: co-tenants cannot
    /// perturb a session's RNG stream.
    #[test]
    fn sampled_impaired_multi_tenant_matches_single_tenant() {
        let flows = offered_flows(40, 21);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.4, 0.9];
        let netem = NetEm {
            drop_rate: 0.1,
            retransmit_timeout_ms: 60.0,
            jitter_std: 0.1,
        };
        let mk = |batch: usize, shards: usize| {
            let mut c = cfg(batch, shards, ActionMode::Sample);
            c.netem = Some(netem);
            c
        };
        let mut engine = ServeEngine::new(mk(64, 4));
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
                .censor(cids[i % 3])
                .submit();
        }
        let multi = engine.run();

        for (i, f) in flows.iter().enumerate() {
            let mut single = ServeEngine::new(mk(1, 1));
            let p = single.register_policy(policies[i % 2].clone());
            let c = single.register_censor(scoring_censor(scores[i % 3]));
            single.admit(f).id(i).policy(p).censor(c).submit();
            let r = single.run();
            assert_eq!(
                multi.wire_bits()[i],
                r.wire_bits()[0],
                "session {i} diverged from its solo run"
            );
        }
    }

    /// Admission builder defaults: first policy, first censor, next id,
    /// derived payload.
    #[test]
    fn admission_defaults_to_first_tenant_and_next_id() {
        let flows = offered_flows(3, 1);
        let mut engine = ServeEngine::new(cfg(4, 1, ActionMode::Deterministic));
        engine.register_policy(tiny_policy(7));
        engine.register_censor(scoring_censor(0.1));
        let a = engine.admit(&flows[0]).submit();
        let b = engine.admit(&flows[1]).id(10).submit();
        let c = engine.admit(&flows[2]).submit();
        assert_eq!((a, b, c), (0, 10, 11));
        let report = engine.run();
        assert_eq!(report.outcomes.len(), 3);
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.tenant == Tenant::default()));
    }

    /// Pre-assembled registries compose with admission and running, and
    /// their handles are interchangeable with engine-registered ones.
    #[test]
    fn with_registries_matches_direct_registration() {
        let flows = offered_flows(12, 3);
        let mut policies = crate::PolicyRegistry::new();
        let p = policies.register(tiny_policy(7));
        let mut censors = crate::CensorRegistry::new();
        let c = censors.register(scoring_censor(0.1));
        let mut pre =
            ServeEngine::with_registries(policies, censors, cfg(8, 2, ActionMode::Sample));
        pre.admit_all(flows.iter(), p, c);
        let pre = pre.run();

        let mut direct = ServeEngine::new(cfg(8, 2, ActionMode::Sample));
        let dp = direct.register_policy(tiny_policy(7));
        let dc = direct.register_censor(scoring_censor(0.1));
        direct.admit_all(flows.iter(), dp, dc);
        let direct = direct.run();

        assert_eq!(pre.wire_bits(), direct.wire_bits());
        assert_eq!(pre.outcomes.len(), 12);
    }

    /// Explicit payloads ride through the builder.
    #[test]
    fn admission_payload_is_carried_end_to_end() {
        let flow = Flow::from_pairs(&[(600, 0.0), (-900, 2.0)]);
        let mut engine = ServeEngine::new(cfg(4, 1, ActionMode::Deterministic));
        engine.register_policy(tiny_policy(7));
        engine.register_censor(scoring_censor(0.1));
        engine
            .admit(&flow)
            .payload(vec![0xAB; 600], vec![0xCD; 900])
            .submit();
        let report = engine.run();
        assert_eq!(report.outcomes[0].payload_bytes, 1500);
        assert!(report.outcomes[0].stream_ok);
    }

    #[test]
    #[should_panic(expected = "PolicyId(1) is not registered")]
    fn unregistered_policy_handle_is_rejected_at_submit() {
        let flow = Flow::from_pairs(&[(600, 0.0)]);
        let mut engine = ServeEngine::new(cfg(1, 1, ActionMode::Deterministic));
        engine.register_policy(tiny_policy(7));
        engine.register_censor(scoring_censor(0.1));
        engine.admit(&flow).policy(PolicyId(1)).submit();
    }

    #[test]
    #[should_panic(expected = "CensorId(0) is not registered")]
    fn empty_censor_registry_is_rejected_at_submit() {
        let flow = Flow::from_pairs(&[(600, 0.0)]);
        let mut engine = ServeEngine::new(cfg(1, 1, ActionMode::Deterministic));
        engine.register_policy(tiny_policy(7));
        engine.admit(&flow).submit();
    }

    #[test]
    #[should_panic(expected = "duplicate session ids")]
    fn duplicate_session_ids_are_rejected() {
        let flows = offered_flows(2, 1);
        let mut engine = ServeEngine::new(cfg(1, 1, ActionMode::Deterministic));
        engine.register_policy(tiny_policy(7));
        engine.register_censor(scoring_censor(0.1));
        engine.admit(&flows[0]).id(3).submit();
        engine.admit(&flows[1]).id(3).submit();
        let _ = engine.run();
    }

    /// `admit_all` is exactly the admission-builder loop: bulk vs loop
    /// admission is wire-identical (the old `Dataplane::add_flows` gap).
    #[test]
    fn bulk_admission_is_wire_identical_to_loop_admission() {
        let flows = offered_flows(32, 17);
        let policies = [tiny_policy(7)];
        let build = |bulk: bool| {
            let mut engine = ServeEngine::new(cfg(8, 2, ActionMode::Sample));
            let p = engine.register_policy(policies[0].clone());
            let c = engine.register_censor(scoring_censor(0.1));
            if bulk {
                engine.admit_all(flows.iter(), p, c);
            } else {
                for f in &flows {
                    engine.admit(f).policy(p).censor(c).submit();
                }
            }
            engine.run()
        };
        let bulk = build(true);
        let looped = build(false);
        assert_eq!(bulk.wire_bits(), looped.wire_bits());
    }
}
