//! The multi-tenant serving engine: one process, many policies and
//! censors.
//!
//! [`ServeEngine`] serves any number of `(policy, censor)` tenants
//! through registries and an admission builder:
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
//! Each shard keeps its sessions in a min-heap of `ready_at` times: every
//! tick pops the earliest ready time `t` plus every session ready within
//! a fixed 5 ms virtual quantum `[t, t + 5]`, buckets them by [`PolicyId`]
//! (sessions sharing a policy share weights, so their observations fuse
//! into the same GRU/MLP pass no matter which censor they face), and
//! packages each bucket into inference batches of at most `max_batch`
//! flows. Each shard's driver thread runs those batches inline through
//! the pluggable [`InferenceBackend`] (infer, frame, emit), and work
//! stealing ([`ServeConfig::steal`]) balances them across shards.
//!
//! ## Sharding, tenancy and grouping invariance
//!
//! Sessions are fully independent (a private censor program per session
//! spawned from the tenant's factory, per-session RNGs derived from
//! `(seed, session_id)` only, row-independent matrix
//! kernels), so *any* grouping of sessions — into inference batches
//! within a tick, across shard worker threads, or alongside any mix of
//! co-tenants — produces bit-identical per-session output. `max_batch`,
//! `n_shards` and `steal` are pure throughput knobs, and
//! multi-tenancy is a pure *packing* knob: a session's wire output
//! depends only on
//! `(seed, session_id, policy, censor)`. The
//! regression tests below pin a 1 000-flow run split across 2 policies ×
//! 3 censors against the corresponding single-tenant runs, and
//! `tests/tenancy_invariance.rs` property-tests random tenant mixes ×
//! shard counts × batch sizes end-to-end.

use std::sync::Arc;
use std::time::Instant;

use amoeba_classifiers::{Censor, CensorProgramFactory};
use amoeba_telemetry::{Counters, LatencySummary, TelemetrySnapshot, TenantKey, QUANTILES};
use amoeba_traffic::Flow;

use crate::backend::InferenceBackend;
use crate::metrics::{FrameRun, ServeReport, SessionOutcome, SessionStatus};
use crate::registry::{CensorId, CensorRegistry, PolicyId, PolicyRegistry, Tenant};
use crate::scheduler::DriveAcct;
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
}

impl ServeEngine {
    /// An empty engine. Register at least one policy and one censor
    /// before admitting sessions.
    ///
    /// # Panics
    /// Panics on an invalid config: `max_batch == 0`, or a negative or
    /// NaN `max_delay_ms`.
    pub fn new(cfg: ServeConfig) -> Self {
        cfg.validate();
        Self {
            policies: PolicyRegistry::default(),
            censors: CensorRegistry::default(),
            backend: cfg.backend.instantiate(),
            cfg,
            sessions: Vec::new(),
            next_id: 0,
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
    /// shards, run to completion on `std::thread::scope` workers
    /// (inline for a single shard), and the shard reports are merged
    /// deterministically by session id — so the report is identical for
    /// any shard count, wall-clock fields aside. Slice it per tenant with
    /// [`ServeReport::sub_reports`].
    ///
    /// # Panics
    /// Panics if two sessions share an id.
    pub fn run(mut self) -> ServeReport {
        // audit:allow(AMB002, reason = "run start: the wall-clock duration for ServeReport/throughput and the epoch of every work-item stamp; never steers scheduling or the wire")
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
            .enumerate()
            .map(|(index, sessions)| {
                Shard::new(
                    Arc::clone(&policies),
                    Arc::clone(&censors),
                    Arc::clone(&self.backend),
                    self.cfg.clone(),
                    sessions,
                    start,
                    index,
                )
            })
            .collect();

        let reports: Vec<ShardReport> = crate::scheduler::run_shards(shards);

        Self::merge(reports, start.elapsed().as_secs_f64())
    }

    /// Deterministic merge: outcomes k-way-merged by session id (each
    /// shard's list is already id-ascending), counters summed and frame
    /// runs concatenated in shard order. The telemetry snapshot is then
    /// derived from the merged report.
    fn merge(reports: Vec<ShardReport>, wall_seconds: f64) -> ServeReport {
        let mut report = ServeReport {
            wall_seconds,
            ..ServeReport::default()
        };
        let mut accts = Vec::with_capacity(reports.len());
        let mut queues = Vec::with_capacity(reports.len());
        for ShardReport { outcomes, mut acct } in reports {
            report.frames += acct.frames;
            report.inference_batches += acct.batches;
            report.stolen_batches += acct.stolen_batches;
            report.infer_stage_us += acct.infer_us;
            report.framing_stage_us += acct.framing_us;
            report.max_queue_depth = report.max_queue_depth.max(acct.max_queue_depth);
            report.frame_runs.append(&mut acct.frame_runs);
            queues.push(outcomes.into_iter());
            accts.push(acct);
        }
        report
            .outcomes
            .reserve(queues.iter().map(ExactSizeIterator::len).sum());
        let mut heads: Vec<Option<SessionOutcome>> =
            queues.iter_mut().map(Iterator::next).collect();
        while let Some(best) = heads
            .iter()
            .enumerate()
            .filter_map(|(q, h)| h.as_ref().map(|o| (o.id, q)))
            .min()
            .map(|(_, q)| q)
        {
            report
                .outcomes
                .push(heads[best].take().expect("nonempty head"));
            heads[best] = queues[best].next();
        }
        report.telemetry = Some(telemetry_snapshot(&report, &accts));
        report
    }
}

/// The run's telemetry snapshot, derived after the run from the merged
/// report and each shard driver's scheduler counts and trace ring. The
/// latency summaries are the report's own percentiles of its frame runs;
/// per-tenant frames come from the frame runs, the other tenant cells
/// from the outcomes.
fn telemetry_snapshot(report: &ServeReport, accts: &[DriveAcct]) -> TelemetrySnapshot {
    // The minimum, then each exposed quantile.
    let mut qs = [0.0; QUANTILES.len() + 1];
    qs[1..].copy_from_slice(&QUANTILES);
    let summary = |ps: Vec<f32>, value: fn(&FrameRun) -> f32| LatencySummary {
        count: report.frame_runs.iter().map(|r| u64::from(r.frames)).sum(),
        sum: report
            .frame_runs
            .iter()
            .map(|r| f64::from(r.frames) * f64::from(value(r)))
            .sum(),
        min: ps[0],
        quantiles: std::array::from_fn(|i| ps[i + 1]),
    };
    let batches = report.inference_batches as u64;
    let mut snap = TelemetrySnapshot {
        counters: Counters {
            ticks: accts.iter().map(|a| a.ticks as u64).sum(),
            batches,
            stolen_batches: report.stolen_batches as u64,
            // Every executed batch is absorbed once, at its home shard.
            absorbs: batches,
            absorbs_out_of_order: accts.iter().map(|a| a.absorbs_out_of_order as u64).sum(),
            frames: report.frames as u64,
            sessions: report.outcomes.len() as u64,
            max_queue_depth: report.max_queue_depth as u64,
        },
        events: accts.iter().flat_map(|a| a.rec.events()).collect(),
        dropped_events: accts.iter().map(|a| a.rec.dropped()).sum(),
        queue_us: summary(report.queue_percentiles_us(&qs), |r| r.queue_us),
        compute_us: summary(report.compute_percentiles_us(&qs), |r| r.compute_us),
        latency_us: summary(report.latency_percentiles_us(&qs), FrameRun::latency_us),
        wall_seconds: report.wall_seconds,
        shards: accts.len() as u64,
        ..TelemetrySnapshot::default()
    };
    snap.events
        .sort_by_key(|e| (e.t0_ns, e.shard, e.seq, e.executor));
    let key = |t: Tenant| TenantKey {
        policy: t.policy.index(),
        censor: t.censor.index(),
    };
    for run in &report.frame_runs {
        snap.tenants.entry(key(run.tenant)).or_default().frames += u64::from(run.frames);
    }
    for o in &report.outcomes {
        let cell = snap.tenants.entry(key(o.tenant)).or_default();
        cell.sessions += 1;
        cell.evasions += u64::from(o.evaded);
        cell.teardowns += u64::from(o.status == SessionStatus::Torn);
        cell.verdicts += u64::from(o.verdicts);
        cell.verdict_queries += u64::from(o.verdict_queries);
    }
    snap
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
    use crate::{ActionMode, ServeConfigBuilder, VerdictPolicy};
    use amoeba_classifiers::StatefulProgramFactory;
    use amoeba_traffic::{Layer, NetEm};

    fn builder(batch: usize, shards: usize, mode: ActionMode) -> ServeConfigBuilder {
        ServeConfig::builder(Layer::Tcp)
            .seed(11)
            .batch(batch)
            .shards(shards)
            .mode(mode)
    }

    fn cfg(batch: usize, shards: usize, mode: ActionMode) -> ServeConfig {
        builder(batch, shards, mode).build()
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
        let ids: Vec<usize> = reference.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..flows.len()).collect::<Vec<_>>());
        // `shards == 0` resolves to one shard per available core.
        for (batch, shards) in [(64, 1), (64, 2), (1, 4), (64, 4), (256, 8), (16, 0)] {
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
            let merged: Vec<usize> = r.outcomes.iter().map(|o| o.id).collect();
            assert_eq!(merged, ids, "batch {batch} x {shards} shards: merge order");
            assert_eq!(r.stream_ok_rate(), 1.0);
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
        assert!(report.wall_seconds > 0.0);
        assert!(report.flows_per_sec() > 0.0);
        assert!(report.p99_latency_us() >= report.p50_latency_us());
        for o in &report.outcomes {
            assert!(o.wire_bytes >= o.payload_bytes + o.header_bytes);
            assert!(o.duration_ms >= 0.0);
        }
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

    /// The telemetry snapshot on the report agrees with the report's own
    /// accounting.
    #[test]
    fn telemetry_snapshot_matches_report_accounting() {
        let flows = offered_flows(60, 13);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.4, 0.9];
        let mut engine = ServeEngine::new(
            builder(16, 2, ActionMode::Deterministic)
                .trace_ring(256)
                .build(),
        );
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
        let report = engine.run();

        let snap = report.telemetry.as_ref().expect("always attached");
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

        // Each latency summary covers one sample per frame.
        for s in [&snap.queue_us, &snap.compute_us, &snap.latency_us] {
            assert_eq!(s.count as usize, report.frames);
        }

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
    }

    /// Every tenant cell of the snapshot matches that tenant's
    /// sub-report, empty sessions included: an empty offered flow is a
    /// session (evaded, never scored) although it never reaches a work
    /// item, and a torn-down session counts once as a teardown.
    #[test]
    fn telemetry_tenant_cells_match_sub_reports() {
        let mut flows = offered_flows(6, 5);
        flows.push(Flow::new());
        let mut engine = ServeEngine::new(
            builder(8, 1, ActionMode::Deterministic)
                .verdicts(VerdictPolicy::EveryFrame)
                .build(),
        );
        let p = engine.register_policy(tiny_policy(7));
        let allow = engine.register_censor(scoring_censor(0.1));
        let tear = engine.register_censor_program(Arc::new(
            StatefulProgramFactory::new(scoring_censor(0.9), 0, 1, 0.5).with_teardown(true),
        ));
        engine.admit_all(flows.iter(), p, allow);
        engine.admit_all(flows.iter(), p, tear);
        let report = engine.run();
        assert!(report.torn_sessions() > 0, "the teardown tenant tore down");

        let snap = report.telemetry.as_ref().expect("always attached");
        let subs = report.sub_reports();
        assert_eq!(snap.tenants.len(), subs.len());
        for (t, sub) in &subs {
            let key = TenantKey {
                policy: t.policy.index(),
                censor: t.censor.index(),
            };
            let cell = &snap.tenants[&key];
            let evaded = sub.outcomes.iter().filter(|o| o.evaded).count();
            assert_eq!(cell.sessions as usize, sub.outcomes.len(), "{key:?}");
            assert_eq!(cell.evasions as usize, evaded, "{key:?}");
            assert_eq!(cell.teardowns as usize, sub.torn_sessions(), "{key:?}");
            assert_eq!(cell.frames as usize, sub.frames, "{key:?}");
        }
        let sessions: u64 = snap.tenants.values().map(|c| c.sessions).sum();
        assert_eq!(sessions, snap.counters.sessions);
    }

    /// Each session counts its own censor queries and verdicts. Under
    /// `Every(n)` a never-blocking program is queried on every n-th
    /// frame plus once at the end; a scoring program answers each query
    /// with a verdict, its hard-label wrapper with `Allow`. The tenant
    /// cells are the sums of their sessions' counts.
    #[test]
    fn sessions_count_their_censor_queries_and_verdicts() {
        use amoeba_classifiers::HardLabelFactory;
        let mut flows = offered_flows(12, 3);
        flows.insert(4, Flow::new());
        for n in [1, 3] {
            let mut engine = ServeEngine::new(
                builder(8, 2, ActionMode::Deterministic)
                    .verdicts(VerdictPolicy::Every(n))
                    .build(),
            );
            let p = engine.register_policy(tiny_policy(7));
            let scored = engine.register_censor(scoring_censor(0.1));
            let hard = engine.register_censor_program(Arc::new(HardLabelFactory::over_censor(
                scoring_censor(0.1),
            )));
            engine.admit_all(flows.iter(), p, scored);
            engine.admit_all(flows.iter(), p, hard);
            let report = engine.run();
            let snap = report.telemetry.as_ref().expect("always attached");
            for o in &report.outcomes {
                let queries = if o.frames == 0 {
                    0
                } else {
                    (o.frames - 1) / n + 1
                };
                let verdicts = if o.tenant.censor == scored {
                    queries
                } else {
                    0
                };
                assert_eq!(
                    o.verdict_queries as usize, queries,
                    "n {n} session {}",
                    o.id
                );
                assert_eq!(o.verdicts as usize, verdicts, "n {n} session {}", o.id);
            }
            assert!(report.outcomes.iter().any(|o| o.frames == 0));
            for (t, sub) in report.sub_reports() {
                let cell = &snap.tenants[&TenantKey {
                    policy: t.policy.index(),
                    censor: t.censor.index(),
                }];
                let sum = |f: fn(&SessionOutcome) -> u32| -> u64 {
                    sub.outcomes.iter().map(|o| u64::from(f(o))).sum()
                };
                assert_eq!(cell.verdict_queries, sum(|o| o.verdict_queries), "n {n}");
                assert_eq!(cell.verdicts, sum(|o| o.verdicts), "n {n}");
            }
        }
    }

    /// Each shard driver's flight recorder stays bounded through the
    /// engine: with a 4-event ring on 2 shards a multi-tick run keeps at
    /// most 8 spans, counts every other span as dropped, and keeps the
    /// newest window of both home shards. A 0-event ring keeps nothing.
    #[test]
    fn trace_ring_stays_bounded_per_shard() {
        let flows = offered_flows(48, 11);
        let run = |trace_ring: usize| {
            let mut engine = ServeEngine::new(
                builder(4, 2, ActionMode::Deterministic)
                    .steal(true)
                    .trace_ring(trace_ring)
                    .build(),
            );
            let p = engine.register_policy(tiny_policy(7));
            let c = engine.register_censor(scoring_censor(0.4));
            engine.admit_all(flows.iter(), p, c);
            engine.run()
        };
        let ringed = run(4);
        let snap = ringed.telemetry.as_ref().expect("always attached");
        assert!(snap.counters.ticks > 2, "a multi-tick run");
        assert_eq!(snap.events.len(), 8, "two full 4-event rings");
        // Every absorbed item pushes infer/frame/emit spans, plus a
        // steal marker when a peer ran it.
        let pushed = 3 * ringed.inference_batches + ringed.stolen_batches;
        assert_eq!(
            snap.events.len() as u64 + snap.dropped_events,
            pushed as u64
        );
        for home in 0..2 {
            assert_eq!(
                snap.events.iter().filter(|e| e.shard == home).count(),
                4,
                "home shard {home} keeps its own window"
            );
        }

        let off = run(0);
        let snap = off.telemetry.as_ref().expect("always attached");
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 0);
        assert_eq!(off.wire_bits(), ringed.wire_bits());
    }

    /// An item's infer, frame and emit spans tile its compute time: each
    /// starts exactly where the previous one ended, because all three
    /// derive from the item's own stamps. A steal marker sits at the
    /// infer start.
    #[test]
    fn trace_spans_of_each_item_are_contiguous() {
        use amoeba_telemetry::StageKind;
        use std::collections::BTreeMap;
        let flows = offered_flows(48, 11);
        let mut engine = ServeEngine::new(
            builder(4, 2, ActionMode::Deterministic)
                .trace_ring(4096)
                .build(),
        );
        let p = engine.register_policy(tiny_policy(7));
        let c = engine.register_censor(scoring_censor(0.4));
        engine.admit_all(flows.iter(), p, c);
        let report = engine.run();
        let snap = report.telemetry.as_ref().expect("always attached");
        assert_eq!(snap.dropped_events, 0, "the ring holds the whole run");
        let mut spans = BTreeMap::new();
        for e in &snap.events {
            let prev = spans.insert((e.shard, e.seq, e.stage.name()), (e.t0_ns, e.dur_ns));
            assert!(prev.is_none(), "one {} span per item", e.stage.name());
        }
        let infers: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.stage == StageKind::Infer)
            .collect();
        assert_eq!(infers.len(), report.inference_batches);
        for e in infers {
            let span = |stage: StageKind| spans.get(&(e.shard, e.seq, stage.name())).copied();
            let item = (e.shard, e.seq);
            let frame = span(StageKind::Frame).expect("frame span");
            let emit = span(StageKind::Emit).expect("emit span");
            assert_eq!(e.t0_ns + e.dur_ns, frame.0, "item {item:?}: infer → frame");
            assert_eq!(frame.0 + frame.1, emit.0, "item {item:?}: frame → emit");
            if let Some(steal) = span(StageKind::Steal) {
                assert_eq!(steal, (e.t0_ns, 0), "item {item:?}: steal marker");
            }
        }
    }

    /// Every tenant cell of a default-config run quotes its own latency
    /// percentiles: frame runs are always kept, so no cell reads NaN.
    #[test]
    fn default_config_sub_reports_have_finite_latency_percentiles() {
        let flows = offered_flows(60, 13);
        let mut engine = ServeEngine::new(ServeConfig::builder(Layer::Tcp).build());
        let pids = [tiny_policy(7), tiny_policy(19)].map(|p| engine.register_policy(p));
        let cids = [0.1, 0.9].map(|s| engine.register_censor(scoring_censor(s)));
        for (i, f) in flows.iter().enumerate() {
            engine
                .admit(f)
                .policy(pids[i % 2])
                .censor(cids[i / 2 % 2])
                .submit();
        }
        let report = engine.run();
        let subs = report.sub_reports();
        assert_eq!(subs.len(), 4);
        for (t, sub) in &subs {
            assert!(sub.frames > 0, "tenant {t:?} served frames");
            let ps = sub.latency_percentiles_us(&[0.5, 0.99]);
            assert!(
                ps.iter().all(|p| p.is_finite()) && ps[0] <= ps[1],
                "tenant {t:?}: p50/p99 {ps:?}"
            );
        }
    }

    /// A single shard has nobody to steal from: the counter must stay
    /// zero even with stealing enabled.
    #[test]
    fn single_shard_reports_zero_stolen_batches() {
        let flows = offered_flows(40, 5);
        let policies = [tiny_policy(7), tiny_policy(19)];
        let scores = [0.1, 0.9];
        let mut engine =
            ServeEngine::new(builder(8, 1, ActionMode::Deterministic).steal(true).build());
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
            builder(8, 1, ActionMode::Deterministic)
                .verdicts(VerdictPolicy::EveryFrame)
                .build(),
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
            builder(batch, shards, ActionMode::Sample)
                .netem(Some(netem))
                .build()
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
        assert_eq!(multi.stream_ok_rate(), 1.0);
        // NetEm retransmissions put duplicated packets on the wire.
        let wire_packets: usize = multi.outcomes.iter().map(|o| o.wire.len()).sum();
        let frames: usize = multi.outcomes.iter().map(|o| o.frames).sum();
        assert!(wire_packets > frames, "netem should duplicate some frames");

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
        // An empty offered flow completes without a frame.
        engine.admit(&Flow::new()).submit();
        let report = engine.run();
        assert_eq!(report.outcomes[0].payload_bytes, 1500);
        assert!(report.outcomes[0].stream_ok);
        assert_eq!(report.outcomes[1].frames, 0);
        assert!(report.outcomes[1].stream_ok);
        assert_eq!(report.frames, report.outcomes[0].frames);
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

    /// A field written after `build` is caught by the engine itself.
    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn engine_rejects_zero_batch() {
        let mut cfg = ServeConfig::builder(Layer::Tcp).build();
        cfg.max_batch = 0;
        let _ = ServeEngine::new(cfg);
    }

    #[test]
    #[should_panic(expected = "max_delay_ms must be non-negative")]
    fn engine_rejects_nan_max_delay() {
        let mut cfg = ServeConfig::builder(Layer::Tcp).build();
        cfg.max_delay_ms = f32::NAN;
        let _ = ServeEngine::new(cfg);
    }

    /// How [`bulk_admission_is_wire_identical_to_loop_admission`]
    /// admits its flows.
    #[derive(Clone, Copy)]
    enum Admit {
        Bulk,
        Loop,
        /// Explicit ids `0..n`, submitted in a strided permutation.
        Permuted,
    }

    /// `admit_all` is exactly the admission-builder loop, and a session's
    /// randomness derives from `(seed, session_id)` only: bulk, loop and
    /// permuted-order admission are wire-identical.
    #[test]
    fn bulk_admission_is_wire_identical_to_loop_admission() {
        let flows = offered_flows(32, 17);
        let policies = [tiny_policy(7)];
        let build = |admit: Admit| {
            let mut engine = ServeEngine::new(cfg(8, 2, ActionMode::Sample));
            let p = engine.register_policy(policies[0].clone());
            let c = engine.register_censor(scoring_censor(0.1));
            match admit {
                Admit::Bulk => {
                    engine.admit_all(flows.iter(), p, c);
                }
                Admit::Loop => {
                    for f in &flows {
                        engine.admit(f).policy(p).censor(c).submit();
                    }
                }
                Admit::Permuted => {
                    let n = flows.len();
                    for k in 0..n {
                        let id = (k * 17 + 5) % n;
                        engine.admit(&flows[id]).id(id).policy(p).censor(c).submit();
                    }
                }
            }
            engine.run()
        };
        let bulk = build(Admit::Bulk);
        assert_eq!(bulk.wire_bits(), build(Admit::Loop).wire_bits());
        let permuted = build(Admit::Permuted);
        assert_eq!(bulk.wire_bits(), permuted.wire_bits());
        let ids: Vec<usize> = permuted.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..flows.len()).collect::<Vec<_>>());
    }
}
