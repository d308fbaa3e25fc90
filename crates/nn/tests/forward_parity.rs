//! Parity tests for the shared `Forward` inference trait: every
//! `*Snapshot` must produce the same numbers as the autograd `Tensor`
//! path it was frozen from, on random inputs, with the graph path itself
//! validated by finite-difference gradient checks. This is what lets the
//! multi-threaded rollout workers trust snapshots as drop-in replacements
//! for the training networks.

use amoeba_nn::conv::{Conv1d, MaxPool1d};
use amoeba_nn::forward::{Forward, Pipeline};
use amoeba_nn::gradcheck::check_gradients;
use amoeba_nn::layers::{Activation, Linear, Mlp};
use amoeba_nn::matrix::Matrix;
use amoeba_nn::rnn::{Gru, Lstm};
use amoeba_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 1e-5;

fn assert_close(graph: &Matrix, snap: &Matrix, what: &str) {
    assert_eq!(graph.shape(), snap.shape(), "{what}: shape mismatch");
    for (a, b) in graph.as_slice().iter().zip(snap.as_slice()) {
        assert!(
            (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs())),
            "{what}: graph {a} vs snapshot {b}"
        );
    }
}

/// The MLP and recurrent snapshots run the same per-element arithmetic,
/// in the same order, as the autograd path, so they agree bit for bit.
fn assert_bits(graph: &Matrix, snap: &Matrix, what: &str) {
    assert_eq!(graph.shape(), snap.shape(), "{what}: shape mismatch");
    for (a, b) in graph.as_slice().iter().zip(snap.as_slice()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: graph {a} vs snapshot {b}"
        );
    }
}

#[test]
fn linear_snapshot_matches_graph_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(10);
    let layer = Linear::new(6, 4, &mut rng);
    let snap = layer.snapshot();
    for trial in 0..8 {
        let x = Matrix::randn(3, 6, 1.0, &mut rng);
        let graph = layer.forward(&Tensor::constant(x.clone())).value();
        assert_close(&graph, &snap.forward(&x), &format!("linear trial {trial}"));
    }
    // The graph path itself is trustworthy: gradcheck it on this draw.
    let x = Matrix::randn(3, 6, 1.0, &mut rng);
    let target = Matrix::randn(3, 4, 1.0, &mut rng);
    check_gradients(
        &layer.params(),
        || {
            layer
                .forward(&Tensor::constant(x.clone()))
                .mse_loss(&target)
        },
        1e-2,
        2e-2,
    );
}

#[test]
fn mlp_snapshot_matches_graph_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(11);
    let mlp = Mlp::new(&[5, 12, 3], Activation::Tanh, Activation::Sigmoid, &mut rng);
    let snap = mlp.snapshot();
    for trial in 0..8 {
        let x = Matrix::randn(4, 5, 1.0, &mut rng);
        let graph = mlp.forward(&Tensor::constant(x.clone())).value();
        // The tape's tanh is `math::tanh`, the snapshot's `f32::tanh`:
        // both fdlibm's `tanhf`, so the two agree bit for bit.
        assert_bits(&graph, &snap.forward(&x), &format!("mlp trial {trial}"));
    }
    let x = Matrix::randn(4, 5, 1.0, &mut rng);
    let target = Matrix::randn(4, 3, 0.3, &mut rng);
    check_gradients(
        &mlp.params(),
        || mlp.forward(&Tensor::constant(x.clone())).mse_loss(&target),
        1e-2,
        3e-2,
    );
}

#[test]
fn conv1d_snapshot_matches_graph_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(12);
    let conv = Conv1d::new(2, 5, 3, 2, &mut rng);
    let snap = conv.snapshot();
    for trial in 0..8 {
        // 9 positions x 2 channels, position-major.
        let x = Matrix::randn(3, 18, 1.0, &mut rng);
        let graph = conv.forward(&Tensor::constant(x.clone())).value();
        assert_close(&graph, &snap.forward(&x), &format!("conv trial {trial}"));
    }
    let x = Matrix::randn(2, 18, 1.0, &mut rng);
    check_gradients(
        &conv.params(),
        || conv.forward(&Tensor::constant(x.clone())).square().sum(),
        1e-2,
        3e-2,
    );
}

#[test]
fn maxpool_forward_matches_graph_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(13);
    let pool = MaxPool1d::new(3, 2, 2);
    for trial in 0..8 {
        let x = Matrix::randn(2, 24, 1.0, &mut rng);
        let graph = pool.forward(&Tensor::constant(x.clone())).value();
        assert_close(
            &graph,
            &Forward::forward(&pool, &x),
            &format!("pool trial {trial}"),
        );
    }
}

#[test]
fn gru_snapshot_matches_graph_on_random_sequences() {
    let mut rng = StdRng::seed_from_u64(14);
    let gru = Gru::new(3, 6, 2, &mut rng);
    let snap = gru.snapshot();
    for len in [1usize, 2, 7, 19] {
        let seq = Matrix::randn(len, 3, 1.0, &mut rng);
        let graph_xs: Vec<Tensor> = (0..len)
            .map(|t| Tensor::constant(Matrix::from_vec(1, 3, seq.row(t).to_vec())))
            .collect();
        let (outs, _) = gru.forward_sequence(&graph_xs);
        let graph = outs.last().expect("nonempty").value();
        assert_bits(&graph, &snap.forward(&seq), &format!("gru len {len}"));
    }
    // Gradcheck one short sequence through the graph path.
    let seq = Matrix::randn(3, 3, 0.5, &mut rng);
    let target = Matrix::randn(1, 6, 0.5, &mut rng);
    check_gradients(
        &gru.params(),
        || {
            let xs: Vec<Tensor> = (0..3)
                .map(|t| Tensor::constant(Matrix::from_vec(1, 3, seq.row(t).to_vec())))
                .collect();
            let (outs, _) = gru.forward_sequence(&xs);
            outs.last().expect("nonempty").mse_loss(&target)
        },
        1e-2,
        3e-2,
    );
}

#[test]
fn lstm_snapshot_matches_graph_on_random_sequences() {
    let mut rng = StdRng::seed_from_u64(15);
    let lstm = Lstm::new(2, 5, 2, &mut rng);
    let snap = lstm.snapshot();
    for len in [1usize, 4, 11] {
        let seq = Matrix::randn(len, 2, 1.0, &mut rng);
        let graph_xs: Vec<Tensor> = (0..len)
            .map(|t| Tensor::constant(Matrix::from_vec(1, 2, seq.row(t).to_vec())))
            .collect();
        let graph = lstm.forward_sequence(&graph_xs).value();
        assert_bits(&graph, &snap.forward(&seq), &format!("lstm len {len}"));
    }
    let seq = Matrix::randn(3, 2, 0.5, &mut rng);
    let target = Matrix::randn(1, 5, 0.5, &mut rng);
    check_gradients(
        &lstm.params(),
        || {
            let xs: Vec<Tensor> = (0..3)
                .map(|t| Tensor::constant(Matrix::from_vec(1, 2, seq.row(t).to_vec())))
                .collect();
            lstm.forward_sequence(&xs).mse_loss(&target)
        },
        1e-2,
        3e-2,
    );
}

#[test]
fn pipeline_matches_manually_chained_graph() {
    // A DF-shaped pipeline: conv → relu → pool → mlp → sigmoid must equal
    // the hand-chained graph forward.
    let mut rng = StdRng::seed_from_u64(16);
    let conv = Conv1d::new(2, 4, 3, 1, &mut rng);
    let pool = MaxPool1d::new(4, 2, 2);
    let conv_out = conv.out_len(10);
    let pool_out = pool.out_len(conv_out);
    let head = Mlp::new(
        &[pool_out * 4, 8, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );

    let net = Pipeline::new()
        .then(conv.snapshot())
        .then(Activation::Relu)
        .then(pool)
        .then(head.snapshot())
        .then(Activation::Sigmoid);

    for trial in 0..5 {
        let x = Matrix::randn(2, 20, 1.0, &mut rng);
        let graph = head
            .forward(&pool.forward(&conv.forward(&Tensor::constant(x.clone())).relu()))
            .sigmoid()
            .value();
        assert_close(&graph, &net.forward(&x), &format!("pipeline trial {trial}"));
    }
}

#[test]
fn snapshots_are_shareable_across_threads() {
    // The point of Forward being Send + Sync: concurrent forwards on an
    // Arc-shared snapshot agree with the single-thread result.
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(17);
    let mlp = Mlp::new(&[4, 8, 2], Activation::Tanh, Activation::Identity, &mut rng);
    let snap: Arc<dyn Forward> = Arc::new(mlp.snapshot());
    let x = Matrix::randn(3, 4, 1.0, &mut rng);
    let expect = snap.forward(&x);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let snap = Arc::clone(&snap);
            let x = x.clone();
            let expect = expect.clone();
            scope.spawn(move || {
                for _ in 0..16 {
                    assert_eq!(snap.forward(&x).as_slice(), expect.as_slice());
                }
            });
        }
    });
}
