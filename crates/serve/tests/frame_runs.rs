//! `ServeReport` stores its exact frame samples as weighted runs
//! ([`FrameRun`]: one queue wait and compute time per batch and tenant,
//! with a frame count) instead of one sample per frame. This property
//! pins that the percentile accessors still return, bit for bit, the
//! type-7 value of the expanded per-frame vectors: the estimator the
//! report ranked before the runs existed, kept here verbatim as the
//! reference.

use proptest::prelude::*;

use amoeba_serve::{FrameRun, ServeReport, Tenant};

/// The per-frame type-7 estimator, as `ServeReport` computed it over
/// the expanded sample vectors: one `total_cmp` sort, then linear
/// interpolation between the ranks around `(len - 1) * q`. NaN for no
/// samples.
fn type7_reference(values: &[f32], qs: &[f64]) -> Vec<f32> {
    if values.is_empty() {
        return vec![f32::NAN; qs.len()];
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    qs.iter()
        .map(|q| {
            let rank = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = (rank - lo as f64) as f32;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        })
        .collect()
}

/// Every frame of every run, as the old per-frame vector held it.
fn expand(runs: &[FrameRun], value: fn(&FrameRun) -> f32) -> Vec<f32> {
    runs.iter()
        .flat_map(|r| std::iter::repeat_n(value(r), r.frames as usize))
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A sample value: mostly drawn from a small pool, so equal values land
/// in different runs, otherwise any value in `[0, 5000)` µs.
fn arb_us() -> impl Strategy<Value = f32> {
    prop_oneof![
        (0usize..4).prop_map(|i| [0.0f32, 12.5, 12.5, 480.25][i]),
        0.0f32..5000.0,
    ]
}

/// A run list: empty lists, single-frame runs and multi-frame runs all
/// appear.
fn arb_runs() -> impl Strategy<Value = Vec<FrameRun>> {
    prop::collection::vec(
        (arb_us(), arb_us(), prop_oneof![1u32..=1, 1u32..=70]),
        0..12,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .map(|(queue_us, compute_us, frames)| FrameRun {
                queue_us,
                compute_us,
                tenant: Tenant::default(),
                frames,
            })
            .collect()
    })
}

const QS: [f64; 9] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_percentiles_equal_the_expanded_per_frame_estimator(
        runs in arb_runs(),
        q in 0.0f64..=1.0,
    ) {
        let report = ServeReport {
            frames: runs.iter().map(|r| r.frames as usize).sum(),
            frame_runs: runs.clone(),
            ..ServeReport::default()
        };
        let mut qs = QS.to_vec();
        qs.push(q);
        let latency = expand(&runs, FrameRun::latency_us);
        let queue = expand(&runs, |r| r.queue_us);
        let compute = expand(&runs, |r| r.compute_us);
        prop_assert_eq!(
            bits(&report.latency_percentiles_us(&qs)),
            bits(&type7_reference(&latency, &qs))
        );
        prop_assert_eq!(
            bits(&report.queue_percentiles_us(&qs)),
            bits(&type7_reference(&queue, &qs))
        );
        prop_assert_eq!(
            bits(&report.compute_percentiles_us(&qs)),
            bits(&type7_reference(&compute, &qs))
        );
    }
}

/// The edge cases the property draws only sometimes, pinned directly:
/// no runs at all (NaN), one single-frame run (every percentile is its
/// value), and equal values split across runs (ranked as one stretch).
#[test]
fn run_percentiles_pin_the_edge_cases() {
    let run = |queue_us: f32, compute_us: f32, frames: u32| FrameRun {
        queue_us,
        compute_us,
        tenant: Tenant::default(),
        frames,
    };
    let empty = ServeReport::default();
    assert!(empty.latency_percentiles_us(&QS).iter().all(|v| v.is_nan()));

    let single = ServeReport {
        frame_runs: vec![run(3.0, 4.5, 1)],
        ..ServeReport::default()
    };
    assert!(single.latency_percentiles_us(&QS).iter().all(|&v| v == 7.5));

    let split = ServeReport {
        frame_runs: vec![run(2.0, 0.0, 3), run(9.0, 0.0, 1), run(2.0, 0.0, 2)],
        ..ServeReport::default()
    };
    let want = type7_reference(&[2.0, 2.0, 2.0, 9.0, 2.0, 2.0], &QS);
    assert_eq!(bits(&split.queue_percentiles_us(&QS)), bits(&want));
    assert_eq!(split.queue_percentiles_us(&[0.8])[0], 2.0);
}
