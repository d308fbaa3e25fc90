//! The telemetry contract, end to end: observability is a pure
//! *read-side* feature. Toggling counters, histograms or the trace ring
//! must never change the wire output or the deterministic report fields
//! — only whether a [`TelemetrySnapshot`] rides along. The second half
//! checks the accuracy side of the bargain: log-linear histogram
//! percentiles track the report's exact frame runs within one bucket
//! (relative error ≤ 1/16).
//!
//! [`TelemetrySnapshot`]: amoeba_telemetry::TelemetrySnapshot

mod common;

use common::{arb_flow, scoring_censor, tiny_policy};
use proptest::prelude::*;

use amoeba_serve::{ActionMode, FrameRun, ServeConfig, ServeEngine, ServeReport};
use amoeba_traffic::{Flow, Layer};

fn run(
    flows: &[Flow],
    seed: u64,
    shards: usize,
    steal: bool,
    telemetry: bool,
    trace_ring: usize,
) -> ServeReport {
    let cfg = ServeConfig::builder(Layer::Tcp)
        .seed(seed)
        .batch(8)
        .shards(shards)
        .steal(steal)
        .telemetry(telemetry)
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
/// `(seed, flows, policy, censor)` — the fields the telemetry knobs
/// must not move. Steal counts and wall-clock stats are excluded by
/// construction (they are timing-dependent even between identical
/// configs).
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
    // Each case performs eight full dataplane runs; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random flows and random scheduler knobs, the wire bits and
    /// deterministic report fields are identical with telemetry off,
    /// on, on with a tiny trace ring, and on with a large one — and the
    /// snapshot is attached exactly when telemetry is on.
    #[test]
    fn telemetry_knobs_never_change_wire_or_report(
        flows in prop::collection::vec(arb_flow(), 4..16),
        seed in any::<u64>(),
        steal in any::<bool>(),
    ) {
        for shards in [1usize, 4] {
            let off = run(&flows, seed, shards, steal, false, 0);
            prop_assert!(off.telemetry.is_none(), "telemetry off must omit the snapshot");
            let ref_bits = off.wire_bits();
            let ref_view = deterministic_view(&off);
            // (telemetry, trace_ring) variants.
            for (tel, ring) in [(true, 0), (true, 8), (true, 4096)] {
                let on = run(&flows, seed, shards, steal, tel, ring);
                prop_assert_eq!(
                    on.wire_bits(),
                    ref_bits.clone(),
                    "telemetry={} ring={} x {} shards perturbed the wire",
                    tel, ring, shards
                );
                prop_assert_eq!(deterministic_view(&on), ref_view.clone());
                let snap = on.telemetry.as_ref().expect("telemetry on must attach a snapshot");
                prop_assert_eq!(snap.counters.frames as usize, on.frames);
                prop_assert_eq!(snap.counters.sessions as usize, on.outcomes.len());
            }
        }
    }
}

/// Histogram percentiles vs the exact frame runs they summarise: both
/// use the type-7 (linear interpolation) estimator — the histogram over
/// bucket-midpoint rank values, the report over the exact samples — and
/// both record the same per-frame queue wait, compute and end-to-end
/// latency, so each histogram quantile must land within one log-linear
/// bucket (relative error ≤ 1/16) of the exact type-7 value. This is
/// what lets the Prometheus summaries stand for the report's
/// percentiles.
#[test]
fn histogram_percentiles_track_exact_ones() {
    // Deterministic flows with a spread of sizes and delays so the
    // queue/compute distributions cover several histogram decades.
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
    let report = run(&flows, 42, 2, true, true, 0);
    let snap = report.telemetry.as_ref().expect("telemetry snapshot");

    // The exact per-frame samples, expanded from the report's runs.
    let expand = |value: fn(&FrameRun) -> f32| -> Vec<f32> {
        report
            .frame_runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(value(r), r.frames as usize))
            .collect()
    };
    for (name, exact, hist) in [
        ("queue", expand(|r| r.queue_us), &snap.queue_hist),
        ("compute", expand(|r| r.compute_us), &snap.compute_hist),
        ("latency", expand(FrameRun::latency_us), &snap.latency_hist),
    ] {
        assert_eq!(hist.count(), exact.len() as u64, "{name} sample count");
        let mut sorted = exact;
        sorted.sort_by(f32::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            // Exact type-7 value, as `ServeReport::percentiles_of`
            // computes it over the raw samples.
            let rank = q * (sorted.len() - 1) as f64;
            let lo = sorted[rank.floor() as usize] as f64;
            let hi = sorted[rank.ceil() as usize] as f64;
            let want = lo + (hi - lo) * rank.fract();
            let got = hist.quantile_us(q);
            // One log-linear bucket of slack (on the larger interpolation
            // endpoint) plus 1µs for the f32→ns round-trip near zero.
            assert!(
                (got - want).abs() <= hi / 16.0 + 1.0,
                "{name} q={q}: hist {got} vs exact {want}"
            );
        }
    }
}
