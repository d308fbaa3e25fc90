//! Gradient parity of the fused GRU cell.
//!
//! `GruCell::step` records three tape nodes (`x·Wx`, `h·Wh` and one gate
//! blend). This file keeps the update it replaced, composed from 22
//! slice, add, sigmoid, tanh, Hadamard and `1 − z` nodes, as the
//! reference, and checks that both give the same forward value and the
//! same gradient for every parameter and input, bit for bit, on 2-layer
//! sequences and on a seq2seq graph whose representation seeds both
//! decoder layers.

use amoeba_nn::matrix::Matrix;
use amoeba_nn::rnn::GruCell;
use amoeba_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The composed cell update: the reference for `GruCell::step`.
fn reference_step(cell: &GruCell, x: &Tensor, h: &Tensor) -> Tensor {
    let hs = cell.hidden_size();
    let gx = x.matmul(&cell.wx).add_bias(&cell.bx);
    let gh = h.matmul(&cell.wh).add_bias(&cell.bh);
    let r = gx.slice_cols(0, hs).add(&gh.slice_cols(0, hs)).sigmoid();
    let z = gx
        .slice_cols(hs, 2 * hs)
        .add(&gh.slice_cols(hs, 2 * hs))
        .sigmoid();
    let n = gx
        .slice_cols(2 * hs, 3 * hs)
        .add(&r.mul(&gh.slice_cols(2 * hs, 3 * hs)))
        .tanh();
    let one_minus_z = z.neg().add_scalar(1.0);
    one_minus_z.mul(&n).add(&z.mul(h))
}

type Step = fn(&GruCell, &Tensor, &Tensor) -> Tensor;

fn fused_step(cell: &GruCell, x: &Tensor, h: &Tensor) -> Tensor {
    cell.step(x, h)
}

/// One step through every layer; returns the per-layer new states.
fn stack_step(step: Step, cells: &[GruCell], x: &Tensor, state: &[Tensor]) -> Vec<Tensor> {
    let mut input = x.clone();
    let mut next = Vec::with_capacity(cells.len());
    for (cell, h) in cells.iter().zip(state) {
        let h_new = step(cell, &input, h);
        input = h_new.clone();
        next.push(h_new);
    }
    next
}

fn cells(layers: usize, input: usize, hidden: usize, rng: &mut StdRng) -> Vec<GruCell> {
    let mut out = vec![GruCell::new(input, hidden, rng)];
    for _ in 1..layers {
        out.push(GruCell::new(hidden, hidden, rng));
    }
    // Non-zero biases, so a bias that lands in the wrong place shows.
    for c in &out {
        for b in [&c.bx, &c.bh] {
            let (r, k) = b.shape();
            b.set_value(Matrix::randn(r, k, 0.3, rng));
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Forward value bits, then the gradient bits of every tensor in `wrt`.
fn run(wrt: &[Tensor], build: impl Fn() -> Tensor) -> (Vec<u32>, Vec<Vec<u32>>) {
    for t in wrt {
        t.zero_grad();
    }
    let loss = build();
    let value = bits(&loss.value());
    loss.backward();
    (value, wrt.iter().map(|t| bits(&t.grad())).collect())
}

fn params(cells: &[GruCell]) -> Vec<Tensor> {
    cells.iter().flat_map(GruCell::params).collect()
}

/// A loss that reads every step's top output and the final state of
/// every layer, so gradients reach each state along several paths.
fn sequence_loss(step: Step, cells: &[GruCell], xs: &[Tensor], h0: &[Tensor]) -> Tensor {
    let mut state = h0.to_vec();
    let mut loss: Option<Tensor> = None;
    for (t, x) in xs.iter().enumerate() {
        state = stack_step(step, cells, x, &state);
        let top = state
            .last()
            .expect("nonempty")
            .square()
            .mean()
            .scale(1.0 + t as f32);
        loss = Some(match loss {
            Some(l) => l.add(&top),
            None => top,
        });
    }
    let mut loss = loss.expect("nonempty sequence");
    for h in &state {
        loss = loss.add(&h.sum());
    }
    loss
}

#[test]
fn fused_cell_matches_composed_graph_on_two_layer_sequences() {
    let mut rng = StdRng::seed_from_u64(31);
    for (batch, len) in [(1usize, 1usize), (1, 5), (3, 2), (4, 9), (7, 13)] {
        let cells = cells(2, 3, 6, &mut rng);
        // Inputs and the initial state require grad too, so their
        // gradients are compared as well.
        let xs: Vec<Tensor> = (0..len)
            .map(|_| Tensor::parameter(Matrix::randn(batch, 3, 1.0, &mut rng)))
            .collect();
        let h0: Vec<Tensor> = (0..2)
            .map(|_| Tensor::parameter(Matrix::randn(batch, 6, 0.5, &mut rng)))
            .collect();
        let mut wrt = params(&cells);
        wrt.extend(xs.iter().cloned());
        wrt.extend(h0.iter().cloned());

        let reference = run(&wrt, || sequence_loss(reference_step, &cells, &xs, &h0));
        let fused = run(&wrt, || sequence_loss(fused_step, &cells, &xs, &h0));
        assert_eq!(reference.0, fused.0, "loss: batch {batch}, len {len}");
        for (i, (a, b)) in reference.1.iter().zip(&fused.1).enumerate() {
            assert_eq!(a, b, "gradient {i}: batch {batch}, len {len}");
        }
    }
}

/// The pretraining graph's shape: a 2-layer encoder whose final top
/// state seeds both layers of a 2-layer decoder, driven by constant
/// inputs and read by a projection at every step.
fn seq2seq_loss(
    step: Step,
    encoder: &[GruCell],
    decoder: &[GruCell],
    project: &Tensor,
    xs: &[Tensor],
) -> Tensor {
    let b = xs[0].shape().0;
    let hidden = encoder[0].hidden_size();
    let mut state: Vec<Tensor> = encoder
        .iter()
        .map(|_| Tensor::constant(Matrix::zeros(b, hidden)))
        .collect();
    for x in xs {
        state = stack_step(step, encoder, x, &state);
    }
    let rep = state.last().expect("nonempty").clone();
    let mut state: Vec<Tensor> = decoder.iter().map(|_| rep.clone()).collect();
    let mut prev = Tensor::constant(Matrix::zeros(b, 2));
    let mut loss: Option<Tensor> = None;
    for x in xs {
        state = stack_step(step, decoder, &prev, &state);
        let y = state.last().expect("nonempty").matmul(project);
        let step_loss = y.mse_loss(&x.value());
        prev = y.detach();
        loss = Some(match loss {
            Some(l) => l.add(&step_loss),
            None => step_loss,
        });
    }
    loss.expect("nonempty sequence")
        .scale(1.0 / xs.len() as f32)
}

#[test]
fn fused_cell_matches_composed_graph_when_one_state_seeds_both_decoder_layers() {
    let mut rng = StdRng::seed_from_u64(32);
    for (batch, len) in [(1usize, 3usize), (8, 6), (5, 12)] {
        let encoder = cells(2, 2, 8, &mut rng);
        let decoder = cells(2, 2, 8, &mut rng);
        let project = Tensor::parameter(Matrix::randn(8, 2, 0.4, &mut rng));
        let xs: Vec<Tensor> = (0..len)
            .map(|_| Tensor::constant(Matrix::randn(batch, 2, 0.6, &mut rng)))
            .collect();
        let mut wrt = params(&encoder);
        wrt.extend(params(&decoder));
        wrt.push(project.clone());

        let reference = run(&wrt, || {
            seq2seq_loss(reference_step, &encoder, &decoder, &project, &xs)
        });
        let fused = run(&wrt, || {
            seq2seq_loss(fused_step, &encoder, &decoder, &project, &xs)
        });
        assert_eq!(reference.0, fused.0, "loss: batch {batch}, len {len}");
        for (i, (a, b)) in reference.1.iter().zip(&fused.1).enumerate() {
            assert_eq!(a, b, "gradient {i}: batch {batch}, len {len}");
        }
    }
}

#[test]
fn a_cell_step_records_at_most_three_tape_nodes() {
    let mut rng = StdRng::seed_from_u64(33);
    let cell = GruCell::new(3, 4, &mut rng);
    let x = Tensor::constant(Matrix::randn(2, 3, 1.0, &mut rng));
    let h = Tensor::parameter(Matrix::randn(2, 4, 1.0, &mut rng));
    let before = Tensor::constant(Matrix::zeros(1, 1)).id();
    let out = cell.step(&x, &h);
    let nodes = out.id() - before;
    assert!(nodes <= 3, "one GRU cell step recorded {nodes} tape nodes");
}
