//! Run-level aggregation and exposition.
//!
//! [`TelemetrySnapshot`] is the deterministic fold of every shard's
//! [`ShardTelemetry`], exposed three ways:
//!
//! - [`TelemetrySnapshot::to_prometheus_text`] — Prometheus text
//!   exposition (format pinned by a snapshot test; renames must update
//!   the golden text deliberately),
//! - [`TelemetrySnapshot::to_json`] — machine-readable JSON for bench
//!   harnesses,
//! - [`TelemetrySnapshot::trace_json`] — Chrome-trace JSON of the
//!   flight-recorder contents.
//!
//! Aggregation folds shards in index order and sorts trace events by
//! `(t0_ns, shard, seq)`, so a given set of shard telemetries always
//! renders to the same bytes.

use crate::counters::{Counters, ShardTelemetry, TenantCounters, TenantKey};
use crate::histogram::Histogram;
use crate::trace::{self, TraceEvent};
use std::collections::BTreeMap;

/// Quantiles exposed on every latency summary.
pub const QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 1.0];

/// The engine-wide telemetry fold for one completed run.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    pub counters: Counters,
    pub tenants: BTreeMap<TenantKey, TenantCounters>,
    /// Queue-wait latency (enqueue → batch start), nanoseconds.
    pub queue_hist: Histogram,
    /// Compute latency (batch start → end of its last stage), nanoseconds.
    pub compute_hist: Histogram,
    /// End-to-end frame latency, queue wait plus compute (the serving
    /// report's `FrameRun::latency_us`), nanoseconds.
    pub latency_hist: Histogram,
    /// Flight-recorder events from all shards, sorted by
    /// `(t0_ns, shard, seq)`.
    pub events: Vec<TraceEvent>,
    /// Ring overwrites across all shards.
    pub dropped_events: u64,
    /// Run wall-clock, seconds.
    pub wall_seconds: f64,
    /// Shards the run used.
    pub shards: u64,
}

impl TelemetrySnapshot {
    /// Folds per-shard telemetry (in index order) into a snapshot.
    pub fn aggregate(shards: &[ShardTelemetry], wall_seconds: f64) -> Self {
        let mut folded = ShardTelemetry::default();
        for s in shards {
            folded.merge(s);
        }
        folded
            .events
            .sort_by_key(|e| (e.t0_ns, e.shard, e.seq, e.executor));
        TelemetrySnapshot {
            counters: folded.counters,
            tenants: folded.tenants,
            queue_hist: folded.queue_hist,
            compute_hist: folded.compute_hist,
            latency_hist: folded.latency_hist,
            events: folded.events,
            dropped_events: folded.dropped_events,
            wall_seconds,
            shards: shards.len() as u64,
        }
    }

    /// Chrome-trace JSON of the flight-recorder events.
    pub fn trace_json(&self) -> String {
        trace::trace_json(&self.events)
    }

    /// Prometheus text exposition. Counter and gauge names are part of
    /// the crate's public contract — see the snapshot test.
    pub fn to_prometheus_text(&self) -> String {
        let c = &self.counters;
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            "amoeba_serve_ticks_total",
            "Drive-loop iterations summed over shards.",
            c.ticks,
        );
        counter(
            "amoeba_serve_batches_total",
            "Inference batches executed.",
            c.batches,
        );
        counter(
            "amoeba_serve_stolen_batches_total",
            "Batches executed away from their home shard.",
            c.stolen_batches,
        );
        counter(
            "amoeba_serve_absorbs_total",
            "Work items absorbed into their home shard.",
            c.absorbs,
        );
        counter(
            "amoeba_serve_absorbs_out_of_order_total",
            "Absorbs that arrived ahead of sequence and were parked.",
            c.absorbs_out_of_order,
        );
        counter(
            "amoeba_serve_frames_total",
            "Wire frames emitted across all sessions.",
            c.frames,
        );
        counter(
            "amoeba_serve_sessions_total",
            "Sessions driven to completion.",
            c.sessions,
        );
        counter(
            "amoeba_serve_trace_events_dropped_total",
            "Flight-recorder ring overwrites.",
            self.dropped_events,
        );
        let mut gauge = |name: &str, help: &str, v: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "amoeba_serve_queue_depth_max",
            "Highest per-shard ready-queue depth observed.",
            c.max_queue_depth.to_string(),
        );
        gauge(
            "amoeba_serve_shards",
            "Shards the run used.",
            self.shards.to_string(),
        );
        gauge(
            "amoeba_serve_wall_seconds",
            "Run wall-clock in seconds.",
            fmt_f64(self.wall_seconds),
        );
        for (name, help, field) in [
            (
                "amoeba_serve_tenant_frames_total",
                "Wire frames emitted per tenant.",
                0usize,
            ),
            (
                "amoeba_serve_tenant_verdicts_total",
                "Censor verdicts issued per tenant.",
                1,
            ),
            (
                "amoeba_serve_tenant_evasions_total",
                "Sessions that finished evading, per tenant.",
                2,
            ),
            (
                "amoeba_serve_tenant_sessions_total",
                "Sessions completed per tenant.",
                3,
            ),
            (
                "amoeba_serve_tenant_teardowns_total",
                "Sessions torn down mid-stream by the censor program, per tenant.",
                4,
            ),
            (
                "amoeba_serve_tenant_verdict_queries_total",
                "Censor-program observations (Allow included) per tenant.",
                5,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (k, t) in &self.tenants {
                let v = [
                    t.frames,
                    t.verdicts,
                    t.evasions,
                    t.sessions,
                    t.teardowns,
                    t.verdict_queries,
                ][field];
                out.push_str(&format!(
                    "{name}{{policy=\"{}\",censor=\"{}\"}} {v}\n",
                    k.policy, k.censor
                ));
            }
        }
        for (name, help, hist) in [
            (
                "amoeba_serve_frame_queue_us",
                "Queue-wait latency (enqueue to batch start) in microseconds.",
                &self.queue_hist,
            ),
            (
                "amoeba_serve_frame_compute_us",
                "Compute latency (inference + framing) in microseconds.",
                &self.compute_hist,
            ),
            (
                "amoeba_serve_frame_latency_us",
                "End-to-end frame latency in microseconds.",
                &self.latency_hist,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
            if !hist.is_empty() {
                for q in QUANTILES {
                    out.push_str(&format!(
                        "{name}{{quantile=\"{q}\"}} {}\n",
                        fmt_f64(hist.quantile_us(q))
                    ));
                }
            }
            out.push_str(&format!(
                "{name}_sum {}\n{name}_count {}\n",
                fmt_f64(hist.sum() as f64 / 1e3),
                hist.count()
            ));
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; empty histograms render
    /// `null` quantiles since NaN is not valid JSON).
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"counters\": {");
        out.push_str(&format!(
            "\"ticks\": {}, \"batches\": {}, \"stolen_batches\": {}, \
             \"absorbs\": {}, \"absorbs_out_of_order\": {}, \"frames\": {}, \
             \"sessions\": {}, \"max_queue_depth\": {}",
            c.ticks,
            c.batches,
            c.stolen_batches,
            c.absorbs,
            c.absorbs_out_of_order,
            c.frames,
            c.sessions,
            c.max_queue_depth
        ));
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"wall_seconds\": {},\n  \"shards\": {},\n",
            json_f64(self.wall_seconds),
            self.shards
        ));
        out.push_str("  \"tenants\": [");
        for (i, (k, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"policy\": {}, \"censor\": {}, \"frames\": {}, \
                 \"verdicts\": {}, \"evasions\": {}, \"sessions\": {}, \
                 \"teardowns\": {}, \"verdict_queries\": {}}}",
                k.policy,
                k.censor,
                t.frames,
                t.verdicts,
                t.evasions,
                t.sessions,
                t.teardowns,
                t.verdict_queries
            ));
        }
        out.push_str("],\n  \"histograms\": {");
        for (i, (name, hist)) in [
            ("frame_queue_us", &self.queue_hist),
            ("frame_compute_us", &self.compute_hist),
            ("frame_latency_us", &self.latency_hist),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p100\": {}}}",
                hist.count(),
                json_f64(hist.sum() as f64 / 1e3),
                json_f64(hist.min() as f64 / 1e3),
                json_f64(hist.max() as f64 / 1e3),
                json_f64(hist.quantile_us(0.5)),
                json_f64(hist.quantile_us(0.9)),
                json_f64(hist.quantile_us(0.99)),
                json_f64(hist.quantile_us(1.0)),
            ));
        }
        out.push_str(&format!(
            "}},\n  \"trace\": {{\"events\": {}, \"dropped\": {}}}\n}}\n",
            self.events.len(),
            self.dropped_events
        ));
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StageKind;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut a = ShardTelemetry {
            counters: Counters {
                ticks: 4,
                batches: 6,
                stolen_batches: 1,
                absorbs: 6,
                absorbs_out_of_order: 1,
                frames: 24,
                sessions: 3,
                max_queue_depth: 5,
            },
            ..ShardTelemetry::default()
        };
        // Values below 16 ns land in exact unit buckets, so the type-7
        // interpolated quantiles are exact and the golden text is stable
        // by construction.
        for v in [10, 10, 12, 14] {
            a.queue_hist.record(v);
            a.compute_hist.record(v);
            a.latency_hist.record(2 * v);
        }
        *a.tenant_mut(TenantKey {
            policy: 0,
            censor: 0,
        }) = TenantCounters {
            frames: 16,
            verdicts: 16,
            evasions: 2,
            sessions: 2,
            teardowns: 0,
            verdict_queries: 16,
        };
        *a.tenant_mut(TenantKey {
            policy: 1,
            censor: 2,
        }) = TenantCounters {
            frames: 8,
            verdicts: 8,
            evasions: 0,
            sessions: 1,
            teardowns: 1,
            verdict_queries: 8,
        };
        a.events.push(TraceEvent {
            stage: StageKind::Infer,
            shard: 0,
            executor: 0,
            seq: 0,
            t0_ns: 2_000,
            dur_ns: 1_000,
            batch: 3,
        });
        let mut b = ShardTelemetry::default();
        b.events.push(TraceEvent {
            stage: StageKind::Frame,
            shard: 1,
            executor: 1,
            seq: 0,
            t0_ns: 1_000,
            dur_ns: 500,
            batch: 3,
        });
        TelemetrySnapshot::aggregate(&[a, b], 1.5)
    }

    /// Snapshot test: the Prometheus exposition is pinned byte-for-byte.
    /// Renaming a metric or reordering families must update this golden
    /// text deliberately.
    #[test]
    fn prometheus_exposition_format_is_pinned() {
        let text = sample_snapshot().to_prometheus_text();
        let expected = "\
# HELP amoeba_serve_ticks_total Drive-loop iterations summed over shards.
# TYPE amoeba_serve_ticks_total counter
amoeba_serve_ticks_total 4
# HELP amoeba_serve_batches_total Inference batches executed.
# TYPE amoeba_serve_batches_total counter
amoeba_serve_batches_total 6
# HELP amoeba_serve_stolen_batches_total Batches executed away from their home shard.
# TYPE amoeba_serve_stolen_batches_total counter
amoeba_serve_stolen_batches_total 1
# HELP amoeba_serve_absorbs_total Work items absorbed into their home shard.
# TYPE amoeba_serve_absorbs_total counter
amoeba_serve_absorbs_total 6
# HELP amoeba_serve_absorbs_out_of_order_total Absorbs that arrived ahead of sequence and were parked.
# TYPE amoeba_serve_absorbs_out_of_order_total counter
amoeba_serve_absorbs_out_of_order_total 1
# HELP amoeba_serve_frames_total Wire frames emitted across all sessions.
# TYPE amoeba_serve_frames_total counter
amoeba_serve_frames_total 24
# HELP amoeba_serve_sessions_total Sessions driven to completion.
# TYPE amoeba_serve_sessions_total counter
amoeba_serve_sessions_total 3
# HELP amoeba_serve_trace_events_dropped_total Flight-recorder ring overwrites.
# TYPE amoeba_serve_trace_events_dropped_total counter
amoeba_serve_trace_events_dropped_total 0
# HELP amoeba_serve_queue_depth_max Highest per-shard ready-queue depth observed.
# TYPE amoeba_serve_queue_depth_max gauge
amoeba_serve_queue_depth_max 5
# HELP amoeba_serve_shards Shards the run used.
# TYPE amoeba_serve_shards gauge
amoeba_serve_shards 2
# HELP amoeba_serve_wall_seconds Run wall-clock in seconds.
# TYPE amoeba_serve_wall_seconds gauge
amoeba_serve_wall_seconds 1.5
# HELP amoeba_serve_tenant_frames_total Wire frames emitted per tenant.
# TYPE amoeba_serve_tenant_frames_total counter
amoeba_serve_tenant_frames_total{policy=\"0\",censor=\"0\"} 16
amoeba_serve_tenant_frames_total{policy=\"1\",censor=\"2\"} 8
# HELP amoeba_serve_tenant_verdicts_total Censor verdicts issued per tenant.
# TYPE amoeba_serve_tenant_verdicts_total counter
amoeba_serve_tenant_verdicts_total{policy=\"0\",censor=\"0\"} 16
amoeba_serve_tenant_verdicts_total{policy=\"1\",censor=\"2\"} 8
# HELP amoeba_serve_tenant_evasions_total Sessions that finished evading, per tenant.
# TYPE amoeba_serve_tenant_evasions_total counter
amoeba_serve_tenant_evasions_total{policy=\"0\",censor=\"0\"} 2
amoeba_serve_tenant_evasions_total{policy=\"1\",censor=\"2\"} 0
# HELP amoeba_serve_tenant_sessions_total Sessions completed per tenant.
# TYPE amoeba_serve_tenant_sessions_total counter
amoeba_serve_tenant_sessions_total{policy=\"0\",censor=\"0\"} 2
amoeba_serve_tenant_sessions_total{policy=\"1\",censor=\"2\"} 1
# HELP amoeba_serve_tenant_teardowns_total Sessions torn down mid-stream by the censor program, per tenant.
# TYPE amoeba_serve_tenant_teardowns_total counter
amoeba_serve_tenant_teardowns_total{policy=\"0\",censor=\"0\"} 0
amoeba_serve_tenant_teardowns_total{policy=\"1\",censor=\"2\"} 1
# HELP amoeba_serve_tenant_verdict_queries_total Censor-program observations (Allow included) per tenant.
# TYPE amoeba_serve_tenant_verdict_queries_total counter
amoeba_serve_tenant_verdict_queries_total{policy=\"0\",censor=\"0\"} 16
amoeba_serve_tenant_verdict_queries_total{policy=\"1\",censor=\"2\"} 8
# HELP amoeba_serve_frame_queue_us Queue-wait latency (enqueue to batch start) in microseconds.
# TYPE amoeba_serve_frame_queue_us summary
amoeba_serve_frame_queue_us{quantile=\"0.5\"} 0.011
amoeba_serve_frame_queue_us{quantile=\"0.9\"} 0.0134
amoeba_serve_frame_queue_us{quantile=\"0.99\"} 0.01394
amoeba_serve_frame_queue_us{quantile=\"1\"} 0.014
amoeba_serve_frame_queue_us_sum 0.046
amoeba_serve_frame_queue_us_count 4
# HELP amoeba_serve_frame_compute_us Compute latency (inference + framing) in microseconds.
# TYPE amoeba_serve_frame_compute_us summary
amoeba_serve_frame_compute_us{quantile=\"0.5\"} 0.011
amoeba_serve_frame_compute_us{quantile=\"0.9\"} 0.0134
amoeba_serve_frame_compute_us{quantile=\"0.99\"} 0.01394
amoeba_serve_frame_compute_us{quantile=\"1\"} 0.014
amoeba_serve_frame_compute_us_sum 0.046
amoeba_serve_frame_compute_us_count 4
# HELP amoeba_serve_frame_latency_us End-to-end frame latency in microseconds.
# TYPE amoeba_serve_frame_latency_us summary
amoeba_serve_frame_latency_us{quantile=\"0.5\"} 0.022
amoeba_serve_frame_latency_us{quantile=\"0.9\"} 0.0268
amoeba_serve_frame_latency_us{quantile=\"0.99\"} 0.02788
amoeba_serve_frame_latency_us{quantile=\"1\"} 0.028
amoeba_serve_frame_latency_us_sum 0.092
amoeba_serve_frame_latency_us_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn aggregation_sorts_events_and_sums_shards() {
        let snap = sample_snapshot();
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.events.len(), 2);
        assert!(snap.events[0].t0_ns <= snap.events[1].t0_ns);
        assert_eq!(snap.events[0].shard, 1, "earlier event sorts first");
        let json = snap.trace_json();
        assert!(json.contains("\"name\":\"frame\""));
        assert!(json.contains("\"name\":\"infer\""));
    }

    #[test]
    fn json_exposition_is_parseable_shape() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"ticks\": 4"));
        assert!(json.contains("\"frame_latency_us\""));
        assert!(json.contains("\"p50\": 0.022"));
        assert!(json.contains("\"tenants\": [{\"policy\": 0"));
        // Empty snapshot renders null quantiles, never NaN.
        let empty = TelemetrySnapshot::default();
        let j = empty.to_json();
        assert!(!j.contains("NaN"));
        assert!(j.contains("\"p50\": null"));
        // Empty snapshot Prometheus text omits quantile lines but keeps
        // _sum/_count so scrapers see the family.
        let p = empty.to_prometheus_text();
        assert!(p.contains("amoeba_serve_frame_queue_us_count 0"));
        assert!(!p.contains("amoeba_serve_frame_queue_us{quantile"));
    }
}
