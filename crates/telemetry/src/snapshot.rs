//! Run-level exposition.
//!
//! [`TelemetrySnapshot`] is one run's counters, latency summaries,
//! per-tenant cells and trace events, exposed three ways:
//!
//! - [`TelemetrySnapshot::to_prometheus_text`] — Prometheus text
//!   exposition (format pinned by a snapshot test; renames must update
//!   the golden text deliberately),
//! - [`TelemetrySnapshot::to_json`] — machine-readable JSON for bench
//!   harnesses,
//! - [`TelemetrySnapshot::trace_json`] — Chrome-trace JSON of the
//!   flight-recorder contents.
//!
//! Per-tenant maps are `BTreeMap`s and trace events are sorted by
//! `(t0_ns, shard, seq, executor)`, so a given snapshot always renders to
//! the same bytes.

use crate::counters::{Counters, TenantCounters, TenantKey};
use crate::trace::{self, TraceEvent};
use std::collections::BTreeMap;

/// Quantiles exposed on every latency summary.
pub const QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 1.0];

/// One per-frame latency series of a run, in microseconds: the sample
/// count and sum, the smallest sample and the value at each of
/// [`QUANTILES`]. The serve crate fills it from its report's exact
/// percentiles, so a summary and the report agree bit for bit.
/// `Default` is the empty summary, whose order statistics are NaN.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Samples (frames).
    pub count: u64,
    /// Sum of the samples, µs.
    pub sum: f64,
    /// Smallest sample, µs.
    pub min: f32,
    /// The value at each of [`QUANTILES`], in that order, µs.
    pub quantiles: [f32; QUANTILES.len()],
}

impl Default for LatencySummary {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f32::NAN,
            quantiles: [f32::NAN; QUANTILES.len()],
        }
    }
}

/// The engine-wide telemetry of one completed run.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    pub counters: Counters,
    pub tenants: BTreeMap<TenantKey, TenantCounters>,
    /// Queue-wait latency (enqueue → batch start).
    pub queue_us: LatencySummary,
    /// Compute latency (batch start → end of its last stage).
    pub compute_us: LatencySummary,
    /// End-to-end frame latency, queue wait plus compute (the serving
    /// report's `FrameRun::latency_us`).
    pub latency_us: LatencySummary,
    /// Flight-recorder events from all shards, sorted by
    /// `(t0_ns, shard, seq, executor)`.
    pub events: Vec<TraceEvent>,
    /// Ring overwrites across all shards.
    pub dropped_events: u64,
    /// Run wall-clock, seconds.
    pub wall_seconds: f64,
    /// Shards the run used.
    pub shards: u64,
}

impl TelemetrySnapshot {
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
            self.wall_seconds.to_string(),
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
        for (name, help, s) in [
            (
                "amoeba_serve_frame_queue_us",
                "Queue-wait latency (enqueue to batch start) in microseconds.",
                &self.queue_us,
            ),
            (
                "amoeba_serve_frame_compute_us",
                "Compute latency (inference + framing) in microseconds.",
                &self.compute_us,
            ),
            (
                "amoeba_serve_frame_latency_us",
                "End-to-end frame latency in microseconds.",
                &self.latency_us,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
            if s.count > 0 {
                for (q, v) in QUANTILES.iter().zip(s.quantiles) {
                    out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                }
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", s.sum, s.count));
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; empty summaries render
    /// `null` order statistics since NaN is not valid JSON). `max` is
    /// the `p100` quantile.
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
            json_num(self.wall_seconds),
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
        for (i, (name, s)) in [
            ("frame_queue_us", &self.queue_us),
            ("frame_compute_us", &self.compute_us),
            ("frame_latency_us", &self.latency_us),
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
                s.count,
                json_num(s.sum),
                json_num(s.min),
                json_num(s.quantiles[3]),
                json_num(s.quantiles[0]),
                json_num(s.quantiles[1]),
                json_num(s.quantiles[2]),
                json_num(s.quantiles[3]),
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

/// A JSON number in its shortest round-trip form, or `null` when not
/// finite.
fn json_num<T: Copy + Into<f64> + std::fmt::Display>(v: T) -> String {
    if v.into().is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StageKind;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot {
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
            tenants: BTreeMap::from([
                (
                    TenantKey {
                        policy: 0,
                        censor: 0,
                    },
                    TenantCounters {
                        frames: 16,
                        verdicts: 16,
                        evasions: 2,
                        sessions: 2,
                        teardowns: 0,
                        verdict_queries: 16,
                    },
                ),
                (
                    TenantKey {
                        policy: 1,
                        censor: 2,
                    },
                    TenantCounters {
                        frames: 8,
                        verdicts: 8,
                        evasions: 0,
                        sessions: 1,
                        teardowns: 1,
                        verdict_queries: 8,
                    },
                ),
            ]),
            events: vec![
                TraceEvent {
                    stage: StageKind::Frame,
                    shard: 1,
                    executor: 1,
                    seq: 0,
                    t0_ns: 1_000,
                    dur_ns: 500,
                    batch: 3,
                },
                TraceEvent {
                    stage: StageKind::Infer,
                    shard: 0,
                    executor: 0,
                    seq: 0,
                    t0_ns: 2_000,
                    dur_ns: 1_000,
                    batch: 3,
                },
            ],
            wall_seconds: 1.5,
            shards: 2,
            ..TelemetrySnapshot::default()
        };
        // The type-7 summary of the samples [10, 10, 12, 14] ns (twice
        // that for the latency), in µs.
        let summary = |k: f32| LatencySummary {
            count: 4,
            sum: 0.046 * f64::from(k),
            min: 0.010 * k,
            quantiles: [0.011 * k, 0.0134 * k, 0.01394 * k, 0.014 * k],
        };
        snap.queue_us = summary(1.0);
        snap.compute_us = summary(1.0);
        snap.latency_us = summary(2.0);
        snap
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
    fn trace_json_renders_every_event() {
        let snap = sample_snapshot();
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
