//! Training drivers and the unified classifier API.
//!
//! Mirrors the paper's §5.4 procedure: censors are trained on the
//! `clf_train` split and evaluated on `test`. One entry point,
//! [`train_censor`], covers all six families; NN models are additionally
//! reachable through [`train_nn_model`] so the white-box attack baselines
//! (C&W, NIDSGAN, BAP) can access their gradients.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use amoeba_ml::{
    DecisionTree, ForestConfig, RandomForest, StandardScaler, Svm, SvmConfig, TreeConfig,
};
use amoeba_nn::matrix::Matrix;
use amoeba_nn::optim::{Adam, Optimizer};
use amoeba_nn::tensor::Tensor;
use amoeba_traffic::{cumul_features, extract_features, Dataset, Flow, FlowRepr, Label, Layer};

use crate::censor::{Censor, CensorKind, PrefixState};
use crate::cumul::CumulCensor;
use crate::df::{DfCensor, DfConfig, DfModel};
use crate::lstm::{LstmCensor, LstmConfig, LstmModel};
use crate::sdae::{SdaeCensor, SdaeConfig, SdaeModel};
use crate::trees::{ForestCensor, TreeCensor};

/// Hyperparameters for training any censor family.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Gradient epochs for DF/SDAE.
    pub epochs: usize,
    /// Gradient epochs for the (slower, per-flow) LSTM.
    pub lstm_epochs: usize,
    /// Minibatch size for the feed-forward models.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// DF architecture.
    pub df: DfConfig,
    /// SDAE architecture + pretraining.
    pub sdae: SdaeConfig,
    /// LSTM architecture.
    pub lstm: LstmConfig,
    /// Decision-tree hyperparameters.
    pub tree: TreeConfig,
    /// Random-forest hyperparameters.
    pub forest: ForestConfig,
    /// SVM hyperparameters for CUMUL.
    pub svm: SvmConfig,
    /// CUMUL interpolation points.
    pub cumul_points: usize,
}

impl TrainConfig {
    /// CPU-friendly defaults used by tests and the scaled-down experiment
    /// harness.
    pub fn fast() -> Self {
        Self {
            epochs: 8,
            lstm_epochs: 2,
            batch_size: 32,
            lr: 2e-3,
            df: DfConfig::default(),
            sdae: SdaeConfig::default(),
            lstm: LstmConfig::default(),
            tree: TreeConfig::default(),
            forest: ForestConfig {
                n_trees: 30,
                ..Default::default()
            },
            svm: SvmConfig::default(),
            cumul_points: 40,
        }
    }

    /// Paper-scale preset (Table 3 / Appendix A.4); expect long CPU runs.
    pub fn paper() -> Self {
        Self {
            epochs: 30,
            lstm_epochs: 10,
            batch_size: 64,
            lr: 5e-4,
            df: DfConfig {
                channels1: 32,
                channels2: 64,
                kernel: 8,
                stride: 2,
                head_hidden: 256,
            },
            sdae: SdaeConfig {
                hidden: vec![512, 128, 32],
                corruption: 0.2,
                pretrain_epochs: 10,
                pretrain_lr: 1e-3,
            },
            lstm: LstmConfig {
                hidden: 128,
                layers: 2,
            },
            tree: TreeConfig::default(),
            forest: ForestConfig {
                n_trees: 100,
                ..Default::default()
            },
            svm: SvmConfig::default(),
            cumul_points: 100,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::fast()
    }
}

fn dataset_rows(ds: &Dataset, repr: FlowRepr) -> (Vec<Vec<f32>>, Vec<f32>) {
    let rows = ds.flows.iter().map(|f| repr.to_position_major(f)).collect();
    let labels = ds
        .labels
        .iter()
        .map(|l| if *l == Label::Sensitive { 1.0 } else { 0.0 })
        .collect();
    (rows, labels)
}

fn rows_to_matrix(rows: &[Vec<f32>], indices: &[usize]) -> Matrix {
    let cols = rows[0].len();
    let mut data = Vec::with_capacity(indices.len() * cols);
    for &i in indices {
        data.extend_from_slice(&rows[i]);
    }
    Matrix::from_vec(indices.len(), cols, data)
}

/// Minibatch BCE training loop shared by DF and SDAE. Returns the final
/// epoch's mean loss.
#[allow(clippy::too_many_arguments)]
fn train_batched(
    forward: impl Fn(&Tensor) -> Tensor,
    params: Vec<Tensor>,
    rows: &[Vec<f32>],
    labels: &[f32],
    epochs: usize,
    batch_size: usize,
    lr: f32,
    rng: &mut StdRng,
) -> f32 {
    let mut opt = Adam::new(params, lr);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut last_epoch_loss = f32::INFINITY;
    for _ in 0..epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size.max(1)) {
            let x = Tensor::constant(rows_to_matrix(rows, chunk));
            let y = Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| labels[i]).collect());
            opt.zero_grad();
            let loss = forward(&x).bce_with_logits_loss(&y);
            epoch_loss += loss.item();
            batches += 1;
            loss.backward();
            opt.step();
        }
        last_epoch_loss = epoch_loss / batches.max(1) as f32;
    }
    last_epoch_loss
}

/// Trains a DF model on the dataset (position-major inputs).
pub fn train_df(ds: &Dataset, repr: FlowRepr, cfg: &TrainConfig, seed: u64) -> DfModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = DfModel::new(repr, cfg.df, &mut rng);
    let (rows, labels) = dataset_rows(ds, repr);
    train_batched(
        |x| model.forward_graph(x),
        model.params(),
        &rows,
        &labels,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        &mut rng,
    );
    model
}

/// Trains an SDAE model: layer-wise denoising pretraining then supervised
/// fine-tuning.
pub fn train_sdae(ds: &Dataset, repr: FlowRepr, cfg: &TrainConfig, seed: u64) -> SdaeModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = SdaeModel::new(repr, cfg.sdae.clone(), &mut rng);
    let (rows, labels) = dataset_rows(ds, repr);
    model.pretrain(&rows, &mut rng);
    train_batched(
        |x| model.forward_graph(x),
        model.params(),
        &rows,
        &labels,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        &mut rng,
    );
    model
}

/// Trains an LSTM model over variable-length flows (per-flow gradient
/// accumulation within each minibatch).
pub fn train_lstm(ds: &Dataset, repr: FlowRepr, cfg: &TrainConfig, seed: u64) -> LstmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = LstmModel::new(repr, cfg.lstm, &mut rng);
    let mut opt = Adam::new(model.params(), cfg.lr);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    for _ in 0..cfg.lstm_epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            opt.zero_grad();
            let mut total: Option<Tensor> = None;
            for &i in chunk {
                let y = Matrix::from_vec(
                    1,
                    1,
                    vec![if ds.labels[i] == Label::Sensitive {
                        1.0
                    } else {
                        0.0
                    }],
                );
                let loss = model.forward_flow(&ds.flows[i]).bce_with_logits_loss(&y);
                total = Some(match total {
                    Some(t) => t.add(&loss),
                    None => loss,
                });
            }
            if let Some(t) = total {
                t.scale(1.0 / chunk.len() as f32).backward();
                opt.step();
            }
        }
    }
    model
}

/// Trains the DT censor over the 166-feature representation.
pub fn train_dt(ds: &Dataset, layer: Layer, cfg: &TrainConfig, seed: u64) -> TreeCensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f32>> = ds
        .flows
        .iter()
        .map(|f| extract_features(f, layer))
        .collect();
    let tree = DecisionTree::fit(&x, &ds.labels_u8(), cfg.tree, &mut rng);
    TreeCensor {
        tree: Arc::new(tree),
        layer,
    }
}

/// Trains the RF censor over the 166-feature representation.
pub fn train_rf(ds: &Dataset, layer: Layer, cfg: &TrainConfig, seed: u64) -> ForestCensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f32>> = ds
        .flows
        .iter()
        .map(|f| extract_features(f, layer))
        .collect();
    let forest = RandomForest::fit(&x, &ds.labels_u8(), cfg.forest, &mut rng);
    ForestCensor {
        forest: Arc::new(forest),
        layer,
    }
}

/// Trains the CUMUL censor (scaler + SVM-RBF over cumulative traces).
pub fn train_cumul(ds: &Dataset, cfg: &TrainConfig, seed: u64) -> CumulCensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let feats: Vec<Vec<f32>> = ds
        .flows
        .iter()
        .map(|f| cumul_features(f, cfg.cumul_points))
        .collect();
    let (scaler, scaled) = StandardScaler::fit_transform(&feats);
    let svm = Svm::fit(&scaled, &ds.labels_u8(), cfg.svm, &mut rng);
    CumulCensor {
        svm,
        scaler,
        n_points: cfg.cumul_points,
    }
}

/// Any trained censor, boxed by family.
pub enum TrainedCensor {
    /// Deep Fingerprinting CNN.
    Df(DfCensor),
    /// Stacked denoising autoencoder.
    Sdae(SdaeCensor),
    /// LSTM sequence model.
    Lstm(LstmCensor),
    /// Decision tree.
    Dt(TreeCensor),
    /// Random forest.
    Rf(ForestCensor),
    /// CUMUL SVM.
    Cumul(CumulCensor),
}

impl TrainedCensor {
    /// The censor inside, whichever family it is.
    fn inner(&self) -> &dyn Censor {
        match self {
            TrainedCensor::Df(c) => c,
            TrainedCensor::Sdae(c) => c,
            TrainedCensor::Lstm(c) => c,
            TrainedCensor::Dt(c) => c,
            TrainedCensor::Rf(c) => c,
            TrainedCensor::Cumul(c) => c,
        }
    }
}

impl Censor for TrainedCensor {
    fn score(&self, flow: &Flow) -> f32 {
        self.inner().score(flow)
    }

    fn kind(&self) -> CensorKind {
        self.inner().kind()
    }

    fn prefix_state(&self) -> Option<Box<dyn PrefixState>> {
        self.inner().prefix_state()
    }
}

/// Trains any censor family on a dataset.
pub fn train_censor(
    kind: CensorKind,
    ds: &Dataset,
    layer: Layer,
    cfg: &TrainConfig,
    seed: u64,
) -> TrainedCensor {
    let repr = FlowRepr::for_layer(layer);
    match kind {
        CensorKind::Df => TrainedCensor::Df(train_df(ds, repr, cfg, seed).censor()),
        CensorKind::Sdae => TrainedCensor::Sdae(train_sdae(ds, repr, cfg, seed).censor()),
        CensorKind::Lstm => TrainedCensor::Lstm(train_lstm(ds, repr, cfg, seed).censor()),
        CensorKind::Dt => TrainedCensor::Dt(train_dt(ds, layer, cfg, seed)),
        CensorKind::Rf => TrainedCensor::Rf(train_rf(ds, layer, cfg, seed)),
        CensorKind::Cumul => TrainedCensor::Cumul(train_cumul(ds, cfg, seed)),
    }
}

/// A trained NN model with its autograd graph intact — what the white-box
/// attack baselines differentiate through.
pub enum NnModel {
    /// Deep Fingerprinting CNN.
    Df(DfModel),
    /// Stacked denoising autoencoder.
    Sdae(SdaeModel),
    /// LSTM sequence model.
    Lstm(LstmModel),
}

impl NnModel {
    /// Autograd forward over a position-major batch; logits `(B, 1)`.
    pub fn forward_graph(&self, x: &Tensor) -> Tensor {
        match self {
            NnModel::Df(m) => m.forward_graph(x),
            NnModel::Sdae(m) => m.forward_graph(x),
            NnModel::Lstm(m) => m.forward_graph(x),
        }
    }

    /// Flow representation this model expects.
    pub fn repr(&self) -> FlowRepr {
        match self {
            NnModel::Df(m) => m.repr(),
            NnModel::Sdae(m) => m.repr(),
            NnModel::Lstm(m) => m.repr(),
        }
    }

    /// Freezes into a thread-safe censor.
    pub fn censor(&self) -> TrainedCensor {
        match self {
            NnModel::Df(m) => TrainedCensor::Df(m.censor()),
            NnModel::Sdae(m) => TrainedCensor::Sdae(m.censor()),
            NnModel::Lstm(m) => TrainedCensor::Lstm(m.censor()),
        }
    }

    /// Family tag.
    pub fn kind(&self) -> CensorKind {
        match self {
            NnModel::Df(_) => CensorKind::Df,
            NnModel::Sdae(_) => CensorKind::Sdae,
            NnModel::Lstm(_) => CensorKind::Lstm,
        }
    }
}

/// Trains one of the three NN families, keeping the graph for white-box
/// attacks.
///
/// # Panics
/// Panics if `kind` is not differentiable (DT/RF/CUMUL).
pub fn train_nn_model(
    kind: CensorKind,
    ds: &Dataset,
    layer: Layer,
    cfg: &TrainConfig,
    seed: u64,
) -> NnModel {
    let repr = FlowRepr::for_layer(layer);
    match kind {
        CensorKind::Df => NnModel::Df(train_df(ds, repr, cfg, seed)),
        CensorKind::Sdae => NnModel::Sdae(train_sdae(ds, repr, cfg, seed)),
        CensorKind::Lstm => NnModel::Lstm(train_lstm(ds, repr, cfg, seed)),
        other => panic!("train_nn_model: {other} is not an NN family"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use amoeba_traffic::{build_dataset, DatasetKind};

    fn tor_splits() -> (Dataset, Dataset) {
        let ds = build_dataset(DatasetKind::Tor, 120, None, 17);
        let splits = ds.split(17);
        (splits.clf_train, splits.test)
    }

    #[test]
    fn df_reaches_high_accuracy_on_tor() {
        let (train, test) = tor_splits();
        let cfg = TrainConfig::fast();
        let censor = train_censor(CensorKind::Df, &train, Layer::Tcp, &cfg, 1);
        let m = evaluate(&censor, &test);
        assert!(m.accuracy() > 0.9, "DF test metrics: {m}");
    }

    #[test]
    fn sdae_reaches_high_accuracy_on_tor() {
        let (train, test) = tor_splits();
        let cfg = TrainConfig::fast();
        let censor = train_censor(CensorKind::Sdae, &train, Layer::Tcp, &cfg, 2);
        let m = evaluate(&censor, &test);
        assert!(m.accuracy() > 0.9, "SDAE test metrics: {m}");
    }

    #[test]
    fn dt_and_rf_reach_high_accuracy_on_tor() {
        let (train, test) = tor_splits();
        let cfg = TrainConfig::fast();
        let dt = train_censor(CensorKind::Dt, &train, Layer::Tcp, &cfg, 3);
        let rf = train_censor(CensorKind::Rf, &train, Layer::Tcp, &cfg, 4);
        assert!(
            evaluate(&dt, &test).accuracy() > 0.95,
            "{}",
            evaluate(&dt, &test)
        );
        assert!(
            evaluate(&rf, &test).accuracy() > 0.95,
            "{}",
            evaluate(&rf, &test)
        );
    }

    #[test]
    fn cumul_reaches_high_accuracy_on_tor() {
        let (train, test) = tor_splits();
        let cfg = TrainConfig::fast();
        let censor = train_censor(CensorKind::Cumul, &train, Layer::Tcp, &cfg, 5);
        let m = evaluate(&censor, &test);
        assert!(m.accuracy() > 0.9, "CUMUL test metrics: {m}");
    }

    #[test]
    fn lstm_learns_above_chance() {
        let (train, test) = tor_splits();
        let cfg = TrainConfig::fast();
        let censor = train_censor(CensorKind::Lstm, &train, Layer::Tcp, &cfg, 6);
        let m = evaluate(&censor, &test);
        assert!(m.accuracy() > 0.8, "LSTM test metrics: {m}");
    }

    #[test]
    fn nn_model_censor_agrees_with_graph() {
        let (train, _) = tor_splits();
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::fast()
        };
        let model = train_nn_model(CensorKind::Df, &train, Layer::Tcp, &cfg, 7);
        let censor = model.censor();
        let flow = &train.flows[0];
        let row = model.repr().to_position_major(flow);
        let logit = model
            .forward_graph(&Tensor::constant(Matrix::from_vec(1, row.len(), row)))
            .value()[(0, 0)];
        let expect = 1.0 / (1.0 + (-logit).exp());
        assert!((censor.score(flow) - expect).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "not an NN family")]
    fn train_nn_model_rejects_trees() {
        let (train, _) = tor_splits();
        let _ = train_nn_model(CensorKind::Dt, &train, Layer::Tcp, &TrainConfig::fast(), 8);
    }
}
