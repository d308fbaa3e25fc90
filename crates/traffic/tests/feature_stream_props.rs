//! `FeatureStream` against the one-shot reference extractor: on every
//! prefix of random flows, in both layers, the streamed features must be
//! bit-identical to the reference (compared through `to_bits`, so that
//! `-0.0` and `0.0` differ).

mod common;

use proptest::prelude::*;

use amoeba_traffic::{extract_features, FeatureStream, Flow, Layer, Packet, NUM_FEATURES};
use common::oracle::oracle_features;

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Packet sizes: small, mid, the TCP and TLS maximum units exactly, and
/// above the TCP maximum.
fn arb_size() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=120, 1u32..=20_000, Just(1448u32), Just(16384u32)]
}

/// Delays: zero of either sign (ties that sort stably only if inserts go
/// after equal elements), sub-millisecond, around the 100 ms idle
/// threshold and the 500 ms histogram edge, and well beyond it.
fn arb_delay() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        0.0f32..1.0,
        90.0f32..110.0,
        100.0f32..600.0,
        0.0f32..5000.0,
    ]
}

/// Flows of 0 to 40 packets, either mixed-direction or single-direction.
fn arb_flow() -> impl Strategy<Value = Flow> {
    (
        0u8..3,
        prop::collection::vec((any::<bool>(), arb_size(), arb_delay()), 0..41),
    )
        .prop_map(|(mode, packets)| {
            let mut flow = Flow::new();
            for (i, (outbound, size, delay)) in packets.into_iter().enumerate() {
                let outbound = match mode {
                    0 => outbound,
                    1 => true,
                    _ => false,
                };
                let delay = if i == 0 { 0.0 } else { delay };
                flow.push(if outbound {
                    Packet::outbound(size, delay)
                } else {
                    Packet::inbound(size, delay)
                });
            }
            flow
        })
}

fn arb_layer() -> impl Strategy<Value = Layer> {
    prop_oneof![Just(Layer::Tcp), Just(Layer::TlsRecord)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One stream fed every prefix in order matches the reference on
    /// each of them, and so does the one-shot extractor.
    #[test]
    fn stream_matches_reference_on_every_prefix(flow in arb_flow(), layer in arb_layer()) {
        let mut stream = FeatureStream::new(layer);
        let mut row = [0.0f32; NUM_FEATURES];
        for k in 0..=flow.len() {
            let prefix = flow.prefix(k);
            stream.observe(&prefix, &mut row);
            let want = bits(&oracle_features(&prefix, layer));
            prop_assert_eq!(bits(&row), want.clone(), "prefix {} of {}", k, flow.len());
            prop_assert_eq!(bits(&extract_features(&prefix, layer)), want);
        }
    }

    /// A first packet with a nonzero delay feeds the first-gap and
    /// first-response features but no inter-packet gap.
    #[test]
    fn leading_delay_matches_reference(flow in arb_flow(), lead in arb_delay(), layer in arb_layer()) {
        let mut flow = flow;
        if let Some(first) = flow.packets.first_mut() {
            first.delay_ms = lead;
        }
        let mut stream = FeatureStream::new(layer);
        let mut row = [0.0f32; NUM_FEATURES];
        for k in 0..=flow.len() {
            let prefix = flow.prefix(k);
            stream.observe(&prefix, &mut row);
            prop_assert_eq!(bits(&row), bits(&oracle_features(&prefix, layer)));
        }
    }
}
