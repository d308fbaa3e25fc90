//! Streaming censors against their one-shot scores, bit for bit.
//!
//! * The 166-feature extractor on the ledger's dataset: every prefix of
//!   every flow of `build_dataset(Tor, 250, None, 42)`, fed to one
//!   `FeatureStream` per flow in order, must match the one-shot reference
//!   extractor in both layers.
//! * The LSTM censor's prefix state: one adapted program per flow, fed
//!   every prefix from the empty one up and then a shorter wire, must
//!   disclose `Censor::score` of each wire.

#[path = "../crates/traffic/tests/common/oracle.rs"]
mod oracle;

use std::sync::Arc;

use amoeba::classifiers::{
    train_censor, Censor, CensorDecision, CensorKind, CensorProgram, CensorProgramFactory,
    ClassifierProgramFactory, TrainConfig,
};
use amoeba::traffic::{build_dataset, DatasetKind, FeatureStream, Flow, Layer, NUM_FEATURES};
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

/// The score an adapted program discloses for `wire`.
fn score(prog: &mut Box<dyn CensorProgram>, wire: &Flow, last: bool) -> f32 {
    match prog.observe(wire, last) {
        CensorDecision::Score(s) => s,
        other => panic!("adapter decided {other:?}"),
    }
}

#[test]
fn lstm_program_matches_one_shot_score_on_every_prefix() {
    let ds = build_dataset(DatasetKind::Tor, 20, None, 42);
    let cfg = TrainConfig {
        lstm_epochs: 1,
        ..TrainConfig::fast()
    };
    let censor: Arc<dyn Censor> =
        Arc::new(train_censor(CensorKind::Lstm, &ds, Layer::Tcp, &cfg, 1));
    assert!(censor.prefix_state().is_some(), "LSTM must stream");
    let factory = ClassifierProgramFactory::new(Arc::clone(&censor));
    let mut prefixes = 0usize;
    for (i, flow) in ds.flows.iter().enumerate() {
        let mut prog = factory.spawn();
        for k in 0..=flow.len() {
            let prefix = flow.prefix(k);
            let got = score(&mut prog, &prefix, k == flow.len());
            let want = censor.score(&prefix);
            assert_eq!(got.to_bits(), want.to_bits(), "flow {i} prefix {k}");
            prefixes += 1;
        }
        // A shorter wire than the program absorbed restarts its state.
        let mut prog = factory.spawn();
        score(&mut prog, flow, false);
        let short = flow.prefix(flow.len() / 3);
        let got = score(&mut prog, &short, true);
        assert_eq!(
            got.to_bits(),
            censor.score(&short).to_bits(),
            "flow {i} replay"
        );
    }
    assert!(prefixes > 2 * ds.len(), "swept {prefixes} prefixes");
}
