//! The streaming 166-feature extractor on the ledger's dataset: every
//! prefix of every flow of `build_dataset(Tor, 250, None, 42)`, fed to one
//! `FeatureStream` per flow in order, must match the one-shot reference
//! extractor bit for bit in both layers.

#[path = "../crates/traffic/tests/common/oracle.rs"]
mod oracle;

use amoeba::traffic::{build_dataset, DatasetKind, FeatureStream, Layer, NUM_FEATURES};
use oracle::oracle_features;

#[test]
fn stream_matches_reference_on_every_dataset_prefix() {
    let ds = build_dataset(DatasetKind::Tor, 250, None, 42);
    let mut prefixes = 0usize;
    for layer in [Layer::Tcp, Layer::TlsRecord] {
        for (i, flow) in ds.flows.iter().enumerate() {
            let mut stream = FeatureStream::new(layer);
            let mut row = [0.0f32; NUM_FEATURES];
            for k in 0..=flow.len() {
                let prefix = flow.prefix(k);
                stream.observe(&prefix, &mut row);
                let want = oracle_features(&prefix, layer);
                for (j, (got, want)) in row.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{layer:?} flow {i} prefix {k} feature {j}: {got} != {want}"
                    );
                }
                prefixes += 1;
            }
        }
    }
    assert!(prefixes > 2 * ds.len(), "swept {prefixes} prefixes");
}
