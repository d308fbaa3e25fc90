//! Tree-based censors (DT and RF) over the 166-feature representation
//! [Barradas et al., USENIX Security'18].

use std::sync::Arc;

use amoeba_ml::{DecisionTree, RandomForest};
use amoeba_traffic::{extract_features, FeatureStream, Flow, Layer, NUM_FEATURES};

use crate::censor::{Censor, CensorKind, PrefixState};

/// Decision-tree censor.
#[derive(Debug, Clone)]
pub struct TreeCensor {
    /// The fitted tree, shared with the censor's prefix states.
    pub tree: Arc<DecisionTree>,
    /// Observation layer (sets the feature extractor's size normaliser).
    pub layer: Layer,
}

impl Censor for TreeCensor {
    fn score(&self, flow: &Flow) -> f32 {
        self.tree.predict_proba(&extract_features(flow, self.layer))
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Dt
    }

    fn prefix_state(&self) -> Option<Box<dyn PrefixState>> {
        let tree = Arc::clone(&self.tree);
        FeatureState::boxed(self.layer, move |row| tree.predict_proba(row))
    }
}

/// Random-forest censor.
#[derive(Debug, Clone)]
pub struct ForestCensor {
    /// The fitted forest, shared with the censor's prefix states.
    pub forest: Arc<RandomForest>,
    /// Observation layer.
    pub layer: Layer,
}

impl Censor for ForestCensor {
    fn score(&self, flow: &Flow) -> f32 {
        self.forest
            .predict_proba(&extract_features(flow, self.layer))
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Rf
    }

    fn prefix_state(&self) -> Option<Box<dyn PrefixState>> {
        let forest = Arc::clone(&self.forest);
        FeatureState::boxed(self.layer, move |row| forest.predict_proba(row))
    }
}

/// The prefix state of a censor whose score is a function of the
/// 166-feature vector: a [`FeatureStream`] absorbs each new wire packet
/// once and `predict` scores the row, which equals
/// [`extract_features`] of the wire bit for bit.
struct FeatureState<P> {
    stream: FeatureStream,
    predict: P,
}

impl<P: Fn(&[f32]) -> f32 + Send + 'static> FeatureState<P> {
    fn boxed(layer: Layer, predict: P) -> Option<Box<dyn PrefixState>> {
        Some(Box::new(Self {
            stream: FeatureStream::new(layer),
            predict,
        }))
    }
}

impl<P: Fn(&[f32]) -> f32 + Send> PrefixState for FeatureState<P> {
    fn score(&mut self, wire: &Flow) -> f32 {
        let mut row = [0.0f32; NUM_FEATURES];
        self.stream.observe(wire, &mut row);
        (self.predict)(&row)
    }

    fn reset(&mut self) {
        self.stream.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_ml::{ForestConfig, TreeConfig};
    use amoeba_traffic::{build_dataset, DatasetKind, Label};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_censor_separates_tor_from_https() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = build_dataset(DatasetKind::Tor, 60, None, 5);
        let x: Vec<Vec<f32>> = ds
            .flows
            .iter()
            .map(|f| extract_features(f, Layer::Tcp))
            .collect();
        let y = ds.labels_u8();
        let tree = DecisionTree::fit(&x, &y, TreeConfig::default(), &mut rng);
        let censor = TreeCensor {
            tree: Arc::new(tree),
            layer: Layer::Tcp,
        };
        let mut correct = 0;
        for (f, &l) in ds.flows.iter().zip(&ds.labels) {
            if censor.blocks(f) == (l == Label::Sensitive) {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / ds.len() as f32 > 0.95,
            "train acc {correct}/{}",
            ds.len()
        );
        assert_eq!(censor.kind(), CensorKind::Dt);
    }

    #[test]
    fn forest_censor_scores_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = build_dataset(DatasetKind::Tor, 30, None, 6);
        let x: Vec<Vec<f32>> = ds
            .flows
            .iter()
            .map(|f| extract_features(f, Layer::Tcp))
            .collect();
        let forest = RandomForest::fit(
            &x,
            &ds.labels_u8(),
            ForestConfig {
                n_trees: 10,
                ..Default::default()
            },
            &mut rng,
        );
        let censor = ForestCensor {
            forest: Arc::new(forest),
            layer: Layer::Tcp,
        };
        for f in &ds.flows {
            let s = censor.score(f);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(censor.kind(), CensorKind::Rf);
    }
}
