//! The telemetry contract, end to end: observability is a pure
//! *read-side* feature. Varying the stage-trace ring must never change
//! the wire output or the deterministic report fields, and every run
//! attaches a [`TelemetrySnapshot`] whose counters match the report. The
//! second half checks that the snapshot's latency summaries are the
//! report's own percentiles, bit for bit.
//!
//! [`TelemetrySnapshot`]: amoeba_telemetry::TelemetrySnapshot

mod common;

use common::{arb_flow, scoring_censor, tiny_policy};
use proptest::prelude::*;

use amoeba_serve::{ActionMode, FrameRun, ServeConfig, ServeEngine, ServeReport};
use amoeba_telemetry::QUANTILES;
use amoeba_traffic::{Flow, Layer};

fn run(flows: &[Flow], seed: u64, shards: usize, steal: bool, trace_ring: usize) -> ServeReport {
    let cfg = ServeConfig::builder(Layer::Tcp)
        .seed(seed)
        .batch(8)
        .shards(shards)
        .steal(steal)
        .trace_ring(trace_ring)
        .mode(ActionMode::Sample)
        .build();
    let mut engine = ServeEngine::new(cfg);
    let p = engine.register_policy(tiny_policy(7));
    let c = engine.register_censor(scoring_censor(0.1));
    engine.admit_all(flows.iter(), p, c);
    engine.run()
}

/// Everything in a report that is a deterministic function of
/// `(seed, flows, policy, censor)` — the fields the trace ring must not
/// move. Steal counts and wall-clock stats are excluded by construction
/// (they are timing-dependent even between identical configs).
fn deterministic_view(r: &ServeReport) -> (usize, Vec<(bool, bool, u32, usize)>) {
    (
        r.frames,
        r.outcomes
            .iter()
            .map(|o| {
                (
                    o.evaded,
                    o.blocked_midstream,
                    o.final_score.to_bits(),
                    o.frames,
                )
            })
            .collect(),
    )
}

proptest! {
    // Each case performs six full dataplane runs; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random flows and random scheduler knobs, the wire bits and
    /// deterministic report fields are identical with the trace ring
    /// off, tiny and large — and each run attaches a snapshot whose
    /// counters match its report.
    #[test]
    fn trace_ring_never_changes_wire_or_report(
        flows in prop::collection::vec(arb_flow(), 4..16),
        seed in any::<u64>(),
        steal in any::<bool>(),
    ) {
        for shards in [1usize, 4] {
            let rings = [0usize, 8, 4096];
            let runs: Vec<ServeReport> = rings
                .iter()
                .map(|&ring| run(&flows, seed, shards, steal, ring))
                .collect();
            for (ring, r) in rings.into_iter().zip(&runs) {
                let snap = r.telemetry.as_ref().expect("every run attaches a snapshot");
                prop_assert_eq!(snap.counters.frames as usize, r.frames);
                prop_assert_eq!(snap.counters.sessions as usize, r.outcomes.len());
                prop_assert_eq!(
                    r.wire_bits(),
                    runs[0].wire_bits(),
                    "ring={} x {} shards perturbed the wire",
                    ring, shards
                );
                prop_assert_eq!(deterministic_view(r), deterministic_view(&runs[0]));
            }
        }
    }
}

/// The snapshot's latency summaries are the report's percentiles: the
/// minimum is the `0.0` percentile and each quantile the value at the
/// same `q`, bit for bit, so Prometheus, the JSON export and the report
/// share one estimator. `count` is the frame count and `sum` the
/// frame-weighted sum of the runs.
#[test]
fn latency_summaries_are_the_reports_percentiles() {
    // Deterministic flows with a spread of sizes and delays.
    let flows: Vec<Flow> = (0..48)
        .map(|i| {
            let n = 1 + (i % 5);
            let pairs: Vec<(i32, f32)> = (0..n)
                .map(|p| {
                    let size = 60 + 23 * ((i * 7 + p * 3) % 50);
                    let signed = if (i + p) % 3 == 0 { -size } else { size };
                    (signed, if p == 0 { 0.0 } else { 0.4 })
                })
                .collect();
            Flow::from_pairs(&pairs)
        })
        .collect();
    let report = run(&flows, 42, 2, true, 0);
    let snap = report.telemetry.as_ref().expect("telemetry snapshot");
    assert!(report.frames > 0);

    let mut qs = vec![0.0];
    qs.extend(QUANTILES);
    for (name, exact, value, summary) in [
        (
            "queue",
            report.queue_percentiles_us(&qs),
            (|r| r.queue_us) as fn(&FrameRun) -> f32,
            &snap.queue_us,
        ),
        (
            "compute",
            report.compute_percentiles_us(&qs),
            |r| r.compute_us,
            &snap.compute_us,
        ),
        (
            "latency",
            report.latency_percentiles_us(&qs),
            FrameRun::latency_us,
            &snap.latency_us,
        ),
    ] {
        assert_eq!(summary.count as usize, report.frames, "{name} count");
        let sum: f64 = report
            .frame_runs
            .iter()
            .map(|r| f64::from(r.frames) * f64::from(value(r)))
            .sum();
        assert_eq!(summary.sum.to_bits(), sum.to_bits(), "{name} sum");
        assert_eq!(summary.min.to_bits(), exact[0].to_bits(), "{name} min");
        for (i, q) in QUANTILES.iter().enumerate() {
            assert_eq!(
                summary.quantiles[i].to_bits(),
                exact[i + 1].to_bits(),
                "{name} q={q}"
            );
        }
    }
}
