//! Property-based tests over the core invariants:
//! * the transport emulator satisfies Eq. 1 / Eq. 2 for *any* flow and
//!   *any* action sequence;
//! * the shaper reassembles any payload under any frame-size schedule;
//! * the profile codec round-trips any database;
//! * the feature extractor always emits 166 finite values with monotone
//!   percentiles.

use proptest::prelude::*;

use amoeba::core::{
    Action, ActionSpace, ProfileStore, ShapedReceiver, ShapedSender, ShapingKernel,
    TransportEmulator, MIN_FRAME,
};
use amoeba::traffic::{extract_features, feature_schema, Flow, Layer, NUM_FEATURES};

fn arb_flow(max_packets: usize) -> impl Strategy<Value = Flow> {
    prop::collection::vec(
        (prop_oneof![1i32..=16384, -16384i32..=-1], 0.0f32..500.0),
        1..max_packets,
    )
    .prop_map(|pairs| Flow::from_pairs(&pairs))
}

fn arb_actions(n: usize) -> impl Strategy<Value = Vec<(f32, f32)>> {
    prop::collection::vec((-1.5f32..1.5, -0.5f32..1.5), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 1: whatever the agent does, every original byte is transmitted
    /// (per direction), and Eq. 2: the first chunk of each packet pays at
    /// least the original delay.
    #[test]
    fn emulator_satisfies_constraints(flow in arb_flow(12), actions in arb_actions(256)) {
        let mut em = TransportEmulator::new(&flow);
        let kernel = ShapingKernel::new(Layer::TlsRecord, 100.0, 1, ActionSpace::Both);
        let mut sent_out = 0u64;
        let mut sent_in = 0u64;
        let mut first_chunk_delays = Vec::new();
        let mut expecting_first = true;
        let mut ai = 0;
        let mut steps = 0;
        while !em.finished() {
            let (s, d) = actions[ai % actions.len()];
            ai += 1;
            steps += 1;
            // The environment's length cap would force a flush; emulate it
            // here so adversarially tiny actions still terminate.
            let force = steps > flow.len() * 6 + 24;
            let obs = em.observe().unwrap();
            let frame = em.apply_kernel(&kernel, Action::clamped(s, d), force);
            let pkt = frame.packet;
            match pkt.direction() {
                amoeba::traffic::Direction::Outbound => sent_out += pkt.magnitude() as u64,
                amoeba::traffic::Direction::Inbound => sent_in += pkt.magnitude() as u64,
            }
            if expecting_first {
                first_chunk_delays.push((pkt.delay_ms, obs.base_delay_ms));
            }
            prop_assert!(pkt.delay_ms >= 0.0);
            expecting_first = !frame.truncated;
        }
        prop_assert!(sent_out >= flow.bytes(amoeba::traffic::Direction::Outbound));
        prop_assert!(sent_in >= flow.bytes(amoeba::traffic::Direction::Inbound));
        for (emitted, base) in first_chunk_delays {
            prop_assert!(emitted >= base - 1e-4, "Eq. 2 violated: {emitted} < {base}");
        }
    }

    /// The shaper reconstructs any payload exactly under any frame-size
    /// schedule (including pure dummy frames).
    #[test]
    fn shaper_round_trip(
        payload in prop::collection::vec(any::<u8>(), 0..4096),
        sizes in prop::collection::vec(MIN_FRAME..2048usize, 1..64),
    ) {
        let mut tx = ShapedSender::new(payload.clone());
        let mut rx = ShapedReceiver::new();
        let mut i = 0;
        while !tx.finished() {
            let frame = tx.next_frame(sizes[i % sizes.len()]);
            prop_assert_eq!(frame.len(), sizes[i % sizes.len()]);
            rx.push_frame(&frame).unwrap();
            i += 1;
            prop_assert!(i < payload.len() + sizes.len() + 8, "did not terminate");
        }
        prop_assert_eq!(rx.into_payload(), payload);
    }

    /// Profile databases survive serialisation for arbitrary contents.
    #[test]
    fn profile_codec_round_trip(flows in prop::collection::vec(arb_flow(20), 0..8)) {
        let store = ProfileStore::from_flows(flows.iter());
        let bytes = store.serialize();
        let back = ProfileStore::deserialize(&bytes).unwrap();
        prop_assert_eq!(store, back);
    }

    /// Embedding any flow into any nonempty store covers the payload.
    #[test]
    fn profile_embedding_covers_payload(
        profiles in prop::collection::vec(arb_flow(16), 1..4),
        flow in arb_flow(10),
    ) {
        let store = ProfileStore::from_flows(profiles.iter());
        let result = store.embed(&flow, 50.0, 0);
        let wire_bytes: u64 = result.wire_flows.iter().map(|f| f.total_bytes()).sum();
        prop_assert!(result.payload_bytes <= wire_bytes + result.padding_bytes);
        prop_assert!(result.data_overhead() >= 0.0 && result.data_overhead() <= 1.0);
        prop_assert!(result.time_overhead() >= 0.0 && result.time_overhead() <= 1.0);
    }

    /// The 166-feature extractor is total: any flow yields 166 finite
    /// values, with ordered size percentiles.
    #[test]
    fn feature_extraction_is_total(flow in arb_flow(40)) {
        let f = extract_features(&flow, Layer::TlsRecord);
        prop_assert_eq!(f.len(), NUM_FEATURES);
        prop_assert!(f.iter().all(|v| v.is_finite()));
        let schema = feature_schema();
        let idx = |n: &str| schema.names.iter().position(|x| x == n).unwrap();
        prop_assert!(f[idx("size_bi_p10")] <= f[idx("size_bi_p25")] + 1e-3);
        prop_assert!(f[idx("size_bi_p25")] <= f[idx("size_bi_p75")] + 1e-3);
        prop_assert!(f[idx("size_bi_p75")] <= f[idx("size_bi_p90")] + 1e-3);
        prop_assert!(f[idx("size_bi_min")] <= f[idx("size_bi_max")]);
        prop_assert!(f[idx("pkt_count")] as usize == flow.len());
    }

    /// Prefix monotonicity: byte counters of flow prefixes never decrease.
    #[test]
    fn prefix_counters_are_monotone(flow in arb_flow(24)) {
        let mut prev = 0u64;
        for n in 0..=flow.len() {
            let p = flow.prefix(n);
            let total = p.total_bytes();
            prop_assert!(total >= prev);
            prev = total;
        }
    }
}
