//! Serving telemetry: per-session outcomes and the aggregate throughput /
//! latency / evasion report the ROADMAP's scaling work steers by — plus
//! the per-`(policy, censor)` sub-reports a multi-tenant engine run
//! slices into (the cross-censor evaluation matrix of §5.4 from one
//! dataplane pass).

use amoeba_telemetry::TelemetrySnapshot;
use amoeba_traffic::Flow;

use crate::registry::Tenant;

/// How a session left the dataplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionStatus {
    /// The session transmitted every frame it owed.
    #[default]
    Completed,
    /// The censor program issued a mid-stream
    /// [`amoeba_classifiers::CensorDecision::Reset`]: the connection was
    /// torn down before the session finished, its remaining frames were
    /// never emitted, and it counts as detected (never evaded).
    Torn,
}

/// One completed session's accounting.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session identifier.
    pub id: usize,
    /// The `(policy, censor)` pair that served this session.
    pub tenant: Tenant,
    /// Whether the session ran to completion or was torn down mid-stream
    /// by its censor program.
    pub status: SessionStatus,
    /// The flow was never blocked mid-stream and its final score allowed.
    /// A session whose offered flow was empty emits nothing, is never
    /// scored (`final_score` stays 0.0), and trivially counts as evaded —
    /// there was nothing on the wire to block.
    pub evaded: bool,
    /// An inline verdict blocked a prefix of the flow.
    pub blocked_midstream: bool,
    /// Censor score on the complete wire flow.
    pub final_score: f32,
    /// Censor verdicts issued against this session: its program's
    /// decisions other than `Allow` (scores, blocks, resets).
    pub verdicts: u32,
    /// Censor-program observations of this session, `Allow` included —
    /// the session's hard-label query budget. The mid-stream cadence
    /// ([`crate::VerdictPolicy`]) plus the one final observation; 0 for
    /// an empty session. Always `verdict_queries >= verdicts`.
    pub verdict_queries: u32,
    /// Frames emitted (pre-impairment).
    pub frames: usize,
    /// Application payload bytes carried (both directions).
    pub payload_bytes: u64,
    /// Bytes on the wire as observed on-path (headers + padding +
    /// impairment duplicates included).
    pub wire_bytes: u64,
    /// Dummy padding bytes inside frames.
    pub padding_bytes: u64,
    /// Framing header bytes.
    pub header_bytes: u64,
    /// Agent-added delay total (ms).
    pub extra_delay_ms: f32,
    /// Virtual transmission time of the session (ms).
    pub duration_ms: f64,
    /// End-to-end reassembly verified bit-exact.
    pub stream_ok: bool,
    /// The on-path wire flow (feeds censors / feature extractors via
    /// `Flow::from_frames`-shaped packets).
    pub wire: Flow,
}

impl SessionOutcome {
    /// `(padding + headers) / wire bytes` — serving data overhead.
    pub fn data_overhead(&self) -> f32 {
        if self.wire_bytes == 0 {
            0.0
        } else {
            (self.padding_bytes + self.header_bytes) as f32 / self.wire_bytes as f32
        }
    }
}

/// A run of consecutive frames of one work item that share a tenant.
///
/// Every frame of a batch carries the batch's queue wait and compute
/// total, so the report stores those once per run together with the
/// run's frame count instead of once per frame (32 bytes per run, one
/// or more runs per batch). A run stands for `frames` identical
/// per-frame samples: the percentile accessors on [`ServeReport`] rank
/// the runs by weight and return exactly the type-7 value of the
/// expanded per-frame vector. Both fields derive from the work item's
/// clock stamps, as do the trace spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRun {
    /// Queue wait (µs): how long the work item sat between being formed
    /// (its sessions became due) and the start of its inference —
    /// scheduler pressure.
    pub queue_us: f32,
    /// Compute time (µs): the wall-clock the work item spent in its three
    /// contiguous stages, from the start of inference (fused GRU/MLP)
    /// through framing/impairment/verdicts to the end of the emit push —
    /// the batch is the unit a flow actually waits on for its next frame
    /// decision.
    pub compute_us: f32,
    /// The tenant that owned the run's frames — what lets
    /// [`ServeReport::sub_report`] attribute latencies per
    /// `(policy, censor)` cell.
    pub tenant: Tenant,
    /// Frames in the run (at least 1).
    pub frames: u32,
}

impl FrameRun {
    /// End-to-end latency (µs) of each frame of the run: queue wait plus
    /// compute, what a frame waited from its session becoming due to its
    /// batch fully processed. The one latency definition: the report's
    /// percentiles and the sub-reports rank this value, and the telemetry
    /// `latency_us` summary is the report's percentiles of it.
    pub fn latency_us(&self) -> f32 {
        self.queue_us + self.compute_us
    }
}

/// Aggregate dataplane run report.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Per-session outcomes, in session-id order.
    pub outcomes: Vec<SessionOutcome>,
    /// Wall-clock time of the whole run (seconds).
    pub wall_seconds: f64,
    /// Total frames processed.
    pub frames: usize,
    /// Inference batches executed.
    pub inference_batches: usize,
    /// Exact per-frame queue wait and compute samples, one [`FrameRun`]
    /// per (work item, consecutive-tenant run), in absorb order per shard
    /// and shard order across shards; the run frames sum to
    /// [`ServeReport::frames`]. Every run keeps them.
    pub frame_runs: Vec<FrameRun>,
    /// Inference batches executed by a shard *other* than the sessions'
    /// home shard (the work-stealing scheduler's activity counter; always
    /// 0 when `n_shards == 1` or stealing is disabled).
    pub stolen_batches: usize,
    /// Total wall-clock spent in the fused inference stages, summed over
    /// batches and shards (µs). Shards run in parallel, so the per-stage
    /// totals can exceed `wall_seconds`.
    pub infer_stage_us: f64,
    /// Total wall-clock spent in the framing/impairment/verdict stage,
    /// summed over batches and shards (µs).
    pub framing_stage_us: f64,
    /// Largest number of work items any one shard formed in a single tick
    /// (the high-water mark of its work deque).
    pub max_queue_depth: usize,
    /// The telemetry snapshot of this run (counters, latency summaries,
    /// per-tenant feedback, trace events). Every engine run attaches
    /// one; [`ServeReport::sub_report`] and `Default` carry none. It is
    /// derived after the run from this report — counters from its
    /// fields, latency summaries from the `*_percentiles_us` accessors
    /// (bit for bit), tenant cells from [`ServeReport::frame_runs`] and
    /// [`ServeReport::outcomes`] — plus the shard drivers' tick and
    /// out-of-order-absorb counts and trace rings, so it agrees with the
    /// report by construction.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ServeReport {
    /// Fraction of sessions that evaded the censor.
    pub fn evasion_rate(&self) -> f32 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.evaded).count() as f32 / self.outcomes.len() as f32
    }

    /// Fraction of sessions whose streams reassembled bit-exact, over the
    /// sessions their censor program did not tear down: a teardown cuts
    /// the stream short on purpose, so it is no reassembly fault. 0 when
    /// every session was torn down, or there are none.
    pub fn stream_ok_rate(&self) -> f32 {
        let (kept, ok) = self
            .outcomes
            .iter()
            .filter(|o| o.status != SessionStatus::Torn)
            .fold((0usize, 0usize), |(n, ok), o| {
                (n + 1, ok + usize::from(o.stream_ok))
            });
        if kept == 0 {
            return 0.0;
        }
        ok as f32 / kept as f32
    }

    /// Sessions torn down mid-stream by their censor program
    /// ([`SessionStatus::Torn`]).
    pub fn torn_sessions(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == SessionStatus::Torn)
            .count()
    }

    /// Completed flows per wall-clock second.
    pub fn flows_per_sec(&self) -> f64 {
        self.outcomes.len() as f64 / self.wall_seconds.max(1e-9)
    }

    /// Frames per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.wall_seconds.max(1e-9)
    }

    /// Application payload megabytes moved per wall-clock second.
    pub fn payload_mb_per_sec(&self) -> f64 {
        let bytes: u64 = self.outcomes.iter().map(|o| o.payload_bytes).sum();
        bytes as f64 / 1e6 / self.wall_seconds.max(1e-9)
    }

    /// Wire megabytes emitted per wall-clock second.
    pub fn wire_mb_per_sec(&self) -> f64 {
        let bytes: u64 = self.outcomes.iter().map(|o| o.wire_bytes).sum();
        bytes as f64 / 1e6 / self.wall_seconds.max(1e-9)
    }

    /// Mean serving data overhead across sessions.
    pub fn data_overhead(&self) -> f32 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(SessionOutcome::data_overhead)
            .sum::<f32>()
            / self.outcomes.len() as f32
    }

    /// The distinct tenants present in this report, ascending by
    /// `(policy, censor)`.
    pub fn tenants(&self) -> Vec<Tenant> {
        let mut ts: Vec<Tenant> = self.outcomes.iter().map(|o| o.tenant).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// The slice of this report belonging to one `(policy, censor)` pair:
    /// that tenant's outcomes (still in session-id order), its frames, and
    /// the frame runs of exactly the batches that carried its frames, so
    /// its latency percentiles are that tenant's own.
    ///
    /// `wall_seconds` is copied from the parent (tenants share the
    /// process), and the batch-level counters (`inference_batches`,
    /// `stolen_batches`, the per-stage totals, `max_queue_depth`) are
    /// reported as 0: batches are fused across tenants sharing a policy,
    /// so per-tenant batch accounting has no meaning — read it off the
    /// parent report.
    pub fn sub_report(&self, tenant: Tenant) -> ServeReport {
        let frame_runs = self
            .frame_runs
            .iter()
            .filter(|r| r.tenant == tenant)
            .copied()
            .collect();
        let outcomes: Vec<SessionOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.tenant == tenant)
            .cloned()
            .collect();
        ServeReport {
            frames: outcomes.iter().map(|o| o.frames).sum(),
            outcomes,
            wall_seconds: self.wall_seconds,
            inference_batches: 0,
            frame_runs,
            stolen_batches: 0,
            infer_stage_us: 0.0,
            framing_stage_us: 0.0,
            max_queue_depth: 0,
            // The snapshot's summaries fuse all tenants; the per-tenant
            // latency split is the frame runs above. Per-tenant
            // *counters* live in the parent snapshot's tenant map.
            telemetry: None,
        }
    }

    /// Every tenant's sub-report, ascending by `(policy, censor)` — the
    /// deterministic per-cell decomposition of a multi-tenant run. The
    /// union of the sub-reports' outcomes is exactly the parent's.
    pub fn sub_reports(&self) -> Vec<(Tenant, ServeReport)> {
        self.tenants()
            .into_iter()
            .map(|t| (t, self.sub_report(t)))
            .collect()
    }

    /// Per-session wire-stream fingerprint: each session's frames as
    /// `(signed size, delay_ms bit pattern)` pairs, in session-id order.
    /// This is the exact object the grouping-invariance regression tests,
    /// property tests and CI smoke compare — two reports with equal
    /// fingerprints emitted bit-identical wire traffic.
    pub fn wire_bits(&self) -> Vec<Vec<(i32, u32)>> {
        self.outcomes
            .iter()
            .map(|o| {
                o.wire
                    .packets
                    .iter()
                    .map(|p| (p.size, p.delay_ms.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// FNV-1a 64 hash of [`ServeReport::wire_bits`]: every session's
    /// frames in session-id order, each frame eaten as
    /// `size.to_le_bytes()` then `delay_ms.to_bits().to_le_bytes()`.
    /// One `u64` that pins an entire run's wire output — the constant the
    /// CI matrix smoke asserts against so the classifier scenario stays
    /// bit-identical to the pre-refactor engine.
    pub fn wire_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for o in &self.outcomes {
            for p in &o.wire.packets {
                for b in p
                    .size
                    .to_le_bytes()
                    .into_iter()
                    .chain(p.delay_ms.to_bits().to_le_bytes())
                {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }

    /// Percentiles of `value` over [`ServeReport::frame_runs`], each run
    /// weighted by its frames, in µs (one sort for all requested `qs`,
    /// each in `[0, 1]`).
    ///
    /// ## Percentile semantics
    ///
    /// Uses linear interpolation between closest ranks (the "type 7"
    /// estimator of numpy/R): rank `(len - 1) * q` is split into its
    /// integer neighbours and blended by the fractional part (the earlier
    /// nearest-rank `.round()` scheme was biased for small samples — p50
    /// of `[1, 2, 3, 4]` came out as 2 or 3 instead of 2.5). The samples
    /// are **per frame, valued per batch**: every frame of a batch
    /// carries its batch's queue wait and compute total, so percentiles
    /// are frame-weighted — a 64-flow batch counts as 64 identical
    /// samples, one per frame a flow actually waited on. A run of `n`
    /// frames is ranked as `n` copies of its value, so the result is
    /// bit-identical to the estimator over the expanded per-frame vector:
    /// the same `total_cmp` order, and the same `lo`/`hi`/`frac`
    /// arithmetic over `len` = total frames. Queue and compute
    /// percentiles do **not** sum to the end-to-end latency percentile at
    /// the same `q` (percentiles are not additive); rank
    /// [`FrameRun::latency_us`] for end-to-end figures.
    fn percentiles_of(&self, value: impl Fn(&FrameRun) -> f32, qs: &[f64]) -> Vec<f32> {
        let mut runs: Vec<(f32, u32)> = self
            .frame_runs
            .iter()
            .map(|r| (value(r), r.frames))
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        // `ends[i]` is one past the last expanded position of run `i`.
        let ends: Vec<usize> = runs
            .iter()
            .scan(0usize, |end, &(_, n)| {
                *end += n as usize;
                Some(*end)
            })
            .collect();
        let len = ends.last().copied().unwrap_or(0);
        if len == 0 {
            // A percentile of zero samples is undefined: return NaN per
            // quantile (not 0.0, which would read as a zero-latency run).
            // Pinned in `empty_percentiles_are_nan`.
            return vec![f32::NAN; qs.len()];
        }
        let at = |pos: usize| runs[ends.partition_point(|&end| end <= pos)].0;
        qs.iter()
            .map(|q| {
                let rank = (len - 1) as f64 * q.clamp(0.0, 1.0);
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = (rank - lo as f64) as f32;
                at(lo) + (at(hi) - at(lo)) * frac
            })
            .collect()
    }

    /// End-to-end (queue + compute) per-frame latency percentiles in µs;
    /// see the percentile-semantics note on the internal estimator above.
    pub fn latency_percentiles_us(&self, qs: &[f64]) -> Vec<f32> {
        self.percentiles_of(FrameRun::latency_us, qs)
    }

    /// Queue-wait percentiles in µs (scheduler pressure alone).
    pub fn queue_percentiles_us(&self, qs: &[f64]) -> Vec<f32> {
        self.percentiles_of(|r| r.queue_us, qs)
    }

    /// Compute-time percentiles in µs (the three stages alone: inference,
    /// framing, emit).
    pub fn compute_percentiles_us(&self, qs: &[f64]) -> Vec<f32> {
        self.percentiles_of(|r| r.compute_us, qs)
    }

    /// Per-frame latency percentile in µs (`q` in `[0, 1]`).
    pub fn latency_percentile_us(&self, q: f64) -> f32 {
        self.latency_percentiles_us(&[q])[0]
    }

    /// Median per-frame latency (µs).
    pub fn p50_latency_us(&self) -> f32 {
        self.latency_percentile_us(0.50)
    }

    /// Tail per-frame latency (µs).
    pub fn p99_latency_us(&self) -> f32 {
        self.latency_percentile_us(0.99)
    }

    /// One-line human summary, scheduler counters included.
    pub fn summary(&self) -> String {
        let ps = self.latency_percentiles_us(&[0.50, 0.99]);
        format!(
            "{} flows, {} frames in {:.2}s | {:.0} flows/s, {:.0} frames/s, \
             {:.2} MB/s payload ({:.2} MB/s wire) | latency p50 {:.1}µs p99 {:.1}µs | \
             evasion {:.1}%, streams ok {:.1}%, overhead {:.1}% | \
             {} batches ({} stolen), depth ≤{}, infer {:.1}ms, framing {:.1}ms",
            self.outcomes.len(),
            self.frames,
            self.wall_seconds,
            self.flows_per_sec(),
            self.frames_per_sec(),
            self.payload_mb_per_sec(),
            self.wire_mb_per_sec(),
            ps[0],
            ps[1],
            self.evasion_rate() * 100.0,
            self.stream_ok_rate() * 100.0,
            self.data_overhead() * 100.0,
            self.inference_batches,
            self.stolen_batches,
            self.max_queue_depth,
            self.infer_stage_us / 1e3,
            self.framing_stage_us / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-frame runs of one tenant from parallel queue/compute lists.
    fn single_frames(queue: &[f32], compute: &[f32]) -> Vec<FrameRun> {
        queue
            .iter()
            .zip(compute)
            .map(|(&queue_us, &compute_us)| FrameRun {
                queue_us,
                compute_us,
                tenant: Tenant::default(),
                frames: 1,
            })
            .collect()
    }

    fn outcome(id: usize, evaded: bool) -> SessionOutcome {
        SessionOutcome {
            id,
            tenant: Tenant::default(),
            status: SessionStatus::Completed,
            evaded,
            blocked_midstream: !evaded,
            final_score: if evaded { 0.1 } else { 0.9 },
            verdicts: 1,
            verdict_queries: 1,
            frames: 10,
            payload_bytes: 1_000_000,
            wire_bytes: 1_250_000,
            padding_bytes: 200_000,
            header_bytes: 50_000,
            extra_delay_ms: 12.0,
            duration_ms: 80.0,
            stream_ok: true,
            wire: Flow::new(),
        }
    }

    #[test]
    fn aggregates_rates_and_throughput() {
        // queue = i/4, compute = 3i/4 → end-to-end latency = i, exactly
        // (both addends are exactly representable for i ≤ 30).
        let report = ServeReport {
            outcomes: vec![outcome(0, true), outcome(1, true), outcome(2, false)],
            wall_seconds: 0.5,
            frames: 30,
            inference_batches: 3,
            frame_runs: (1..=30)
                .map(|i| FrameRun {
                    queue_us: i as f32 * 0.25,
                    compute_us: i as f32 * 0.75,
                    tenant: Tenant::default(),
                    frames: 1,
                })
                .collect(),
            ..ServeReport::default()
        };
        assert!((report.evasion_rate() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(report.stream_ok_rate(), 1.0);
        assert!((report.flows_per_sec() - 6.0).abs() < 1e-9);
        assert!((report.frames_per_sec() - 60.0).abs() < 1e-9);
        assert!((report.payload_mb_per_sec() - 6.0).abs() < 1e-9);
        assert!((report.data_overhead() - 0.2).abs() < 1e-6);
        // Interpolated ranks over [1, 30]: p50 = 15.5, p99 = 29 + 0.71.
        assert_eq!(report.p50_latency_us(), 15.5);
        assert!((report.p99_latency_us() - 29.71).abs() < 1e-4);
        // The queue/compute split ranks each component alone.
        assert_eq!(report.queue_percentiles_us(&[0.5])[0], 15.5 * 0.25);
        assert_eq!(report.compute_percentiles_us(&[0.5])[0], 15.5 * 0.75);
        assert!(report.summary().contains("flows/s"));
        assert!(report.summary().contains("batches"), "scheduler counters");
        assert!(report.summary().contains("stolen"));
    }

    /// A session its censor program tore down is out of the stream
    /// rate's denominator; an untorn one that failed to verify counts.
    #[test]
    fn stream_ok_rate_skips_torn_sessions() {
        let unverified = |id, status| SessionOutcome {
            status,
            stream_ok: false,
            ..outcome(id, false)
        };
        let mut report = ServeReport {
            outcomes: vec![outcome(0, true), unverified(1, SessionStatus::Torn)],
            ..ServeReport::default()
        };
        assert_eq!(report.stream_ok_rate(), 1.0);
        report
            .outcomes
            .push(unverified(2, SessionStatus::Completed));
        assert_eq!(report.stream_ok_rate(), 0.5);
        report.outcomes.retain(|o| o.status == SessionStatus::Torn);
        assert_eq!(report.stream_ok_rate(), 0.0, "every session torn down");
    }

    /// The small-sample bias the nearest-rank scheme had: p50 of
    /// `[1, 2, 3, 4]` must be 2.5, not 2 or 3.
    #[test]
    fn percentiles_interpolate_between_ranks() {
        let report = ServeReport {
            frame_runs: single_frames(&[4.0, 1.0, 3.0, 2.0], &[0.0; 4]),
            ..ServeReport::default()
        };
        assert_eq!(report.p50_latency_us(), 2.5);
        assert_eq!(report.latency_percentile_us(0.0), 1.0);
        assert_eq!(report.latency_percentile_us(1.0), 4.0);
        assert_eq!(report.latency_percentile_us(0.25), 1.75);
        // With zero compute, queue percentiles equal end-to-end ones.
        assert_eq!(report.queue_percentiles_us(&[0.5])[0], 2.5);
        assert_eq!(report.compute_percentiles_us(&[0.5])[0], 0.0);
        // Out-of-range quantiles clamp to the extremes.
        assert_eq!(report.latency_percentile_us(-0.5), 1.0);
        assert_eq!(report.latency_percentile_us(2.0), 4.0);
        // A single sample is every percentile.
        let one = ServeReport {
            frame_runs: single_frames(&[3.0], &[4.0]),
            ..ServeReport::default()
        };
        assert_eq!(one.p50_latency_us(), 7.0);
        assert_eq!(one.p99_latency_us(), 7.0);
        // A run of `n` frames ranks as `n` copies of its value: runs
        // [1 × 2, 3 × 1] are the samples [1, 1, 3], so p50 = 1 and
        // p75 = 1 + (3 - 1) · 0.5.
        let mut runs = single_frames(&[1.0, 3.0], &[0.0, 0.0]);
        runs[0].frames = 2;
        let weighted = ServeReport {
            frame_runs: runs,
            ..ServeReport::default()
        };
        assert_eq!(weighted.p50_latency_us(), 1.0);
        assert_eq!(weighted.latency_percentile_us(0.75), 2.0);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = ServeReport::default();
        assert_eq!(r.evasion_rate(), 0.0);
        assert!(r.p99_latency_us().is_nan(), "no samples ⇒ NaN, not 0");
        assert_eq!(r.data_overhead(), 0.0);
        assert!(r.tenants().is_empty());
        assert!(r.sub_reports().is_empty());
    }

    /// Percentiles of zero samples are NaN for every quantile and every
    /// family — a report with no frames must not read as a zero-latency
    /// run (it used to return 0.0, indistinguishable from "instant").
    #[test]
    fn empty_percentiles_are_nan() {
        let r = ServeReport::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(r.latency_percentile_us(q).is_nan(), "latency q={q}");
            assert!(r.queue_percentiles_us(&[q])[0].is_nan(), "queue q={q}");
            assert!(r.compute_percentiles_us(&[q])[0].is_nan(), "compute q={q}");
        }
        assert!(r.p50_latency_us().is_nan());
        // A telemetry snapshot doesn't change that: percentiles rank the
        // frame runs only.
        let with_tel = ServeReport {
            telemetry: Some(TelemetrySnapshot::default()),
            ..ServeReport::default()
        };
        assert!(with_tel.p99_latency_us().is_nan());
        // The summary still renders (NaN prints, it doesn't panic).
        assert!(r.summary().contains("flows"));
    }

    /// `sub_reports()` orders cells ascending by `(policy, censor)` no
    /// matter how outcomes and frame tags are interleaved in the parent —
    /// the deterministic-merge contract the multi-tenant regression
    /// tests and the serve_bench matrix rely on (previously only
    /// exercised indirectly through engine runs).
    #[test]
    fn sub_reports_order_is_deterministic_and_insertion_independent() {
        use crate::registry::{CensorId, PolicyId};
        let tenants = [
            Tenant::new(PolicyId(1), CensorId(1)),
            Tenant::new(PolicyId(0), CensorId(1)),
            Tenant::new(PolicyId(1), CensorId(0)),
            Tenant::new(PolicyId(0), CensorId(0)),
        ];
        // Admit outcomes in a deliberately scrambled tenant order, with
        // duplicates, and compare against a rotation of the same set.
        let mk = |order: &[usize]| {
            let outcomes: Vec<SessionOutcome> = order
                .iter()
                .enumerate()
                .map(|(id, &t)| {
                    let mut o = outcome(id, true);
                    o.tenant = tenants[t];
                    o
                })
                .collect();
            ServeReport {
                frame_runs: outcomes
                    .iter()
                    .map(|o| FrameRun {
                        queue_us: 1.0,
                        compute_us: 2.0,
                        tenant: o.tenant,
                        frames: 1,
                    })
                    .collect(),
                frames: outcomes.len(),
                outcomes,
                ..ServeReport::default()
            }
        };
        let a = mk(&[2, 0, 3, 1, 2, 0]);
        let b = mk(&[0, 3, 1, 2, 2, 0]);
        let expected = [
            Tenant::new(PolicyId(0), CensorId(0)),
            Tenant::new(PolicyId(0), CensorId(1)),
            Tenant::new(PolicyId(1), CensorId(0)),
            Tenant::new(PolicyId(1), CensorId(1)),
        ];
        for report in [&a, &b] {
            let subs = report.sub_reports();
            let order: Vec<Tenant> = subs.iter().map(|(t, _)| *t).collect();
            assert_eq!(order, expected, "sub_reports must sort by (policy, censor)");
            // Each cell's outcomes keep the parent's id order, and the
            // cells partition the parent exactly.
            for (t, sub) in &subs {
                assert!(sub.outcomes.windows(2).all(|w| w[0].id < w[1].id));
                assert!(sub.outcomes.iter().all(|o| o.tenant == *t));
                assert_eq!(sub.frame_runs.len(), sub.outcomes.len());
                assert!(sub.frame_runs.iter().all(|r| r.tenant == *t));
            }
            let total: usize = subs.iter().map(|(_, r)| r.outcomes.len()).sum();
            assert_eq!(total, report.outcomes.len());
        }
        // The two insertion orders expose identical per-tenant counts.
        let counts = |r: &ServeReport| -> Vec<(Tenant, usize)> {
            r.sub_reports()
                .into_iter()
                .map(|(t, s)| (t, s.outcomes.len()))
                .collect()
        };
        assert_eq!(counts(&a), counts(&b));
    }

    #[test]
    fn sub_reports_partition_outcomes_and_latencies_by_tenant() {
        use crate::registry::{CensorId, PolicyId};
        let ta = Tenant::new(PolicyId(0), CensorId(0));
        let tb = Tenant::new(PolicyId(0), CensorId(1));
        let mut o0 = outcome(0, true);
        o0.tenant = ta;
        let mut o1 = outcome(1, false);
        o1.tenant = tb;
        let mut o2 = outcome(2, true);
        o2.tenant = tb;
        let report = ServeReport {
            outcomes: vec![o0, o1, o2],
            wall_seconds: 2.0,
            frames: 30,
            inference_batches: 5,
            frame_runs: [
                (1.0, 10.0, ta, 5),
                (2.0, 20.0, tb, 10),
                (3.0, 30.0, ta, 5),
                (4.0, 40.0, tb, 10),
            ]
            .into_iter()
            .map(|(queue_us, compute_us, tenant, frames)| FrameRun {
                queue_us,
                compute_us,
                tenant,
                frames,
            })
            .collect(),
            stolen_batches: 2,
            infer_stage_us: 100.0,
            framing_stage_us: 50.0,
            max_queue_depth: 4,
            telemetry: None,
        };
        assert_eq!(report.tenants(), vec![ta, tb]);
        let subs = report.sub_reports();
        assert_eq!(subs.len(), 2);
        let (_, ra) = &subs[0];
        let (_, rb) = &subs[1];
        assert_eq!(ra.outcomes.len(), 1);
        assert_eq!(rb.outcomes.len(), 2);
        assert_eq!(ra.frames, 10);
        assert_eq!(rb.frames, 20);
        let split = |r: &ServeReport| -> Vec<(f32, f32, u32)> {
            r.frame_runs
                .iter()
                .map(|f| (f.queue_us, f.compute_us, f.frames))
                .collect()
        };
        assert_eq!(split(ra), vec![(1.0, 10.0, 5), (3.0, 30.0, 5)]);
        assert_eq!(split(rb), vec![(2.0, 20.0, 10), (4.0, 40.0, 10)]);
        assert_eq!(ra.latency_percentiles_us(&[0.0, 1.0]), vec![11.0, 33.0]);
        assert_eq!(ra.wall_seconds, 2.0);
        // Batch-level counters fuse across tenants; sub-reports do not
        // claim them.
        assert_eq!(ra.inference_batches, 0);
        assert_eq!(ra.stolen_batches, 0);
        assert_eq!(ra.infer_stage_us, 0.0);
        assert_eq!(ra.max_queue_depth, 0);
        assert_eq!(ra.evasion_rate(), 1.0);
        assert_eq!(rb.evasion_rate(), 0.5);
        // The union of sub-report outcomes is the parent's outcome set.
        let total: usize = subs.iter().map(|(_, r)| r.outcomes.len()).sum();
        assert_eq!(total, report.outcomes.len());
    }
}
