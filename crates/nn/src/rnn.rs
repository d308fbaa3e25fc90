//! Recurrent layers: [`GruCell`]/[`Gru`] (the paper's StateEncoder backbone)
//! and [`LstmCell`]/[`Lstm`] (the LSTM censoring classifier).
//!
//! Gate layout follows the PyTorch convention with fused gate matrices.
//! For a hidden width `h`, GRU gates are stored as `[r | z | n]` slices of a
//! `3h`-wide matrix and LSTM gates as `[i | f | g | o]` slices of a
//! `4h`-wide matrix.
//!
//! Training and serving share one GRU gate blend, `gru_blend`: the
//! autograd [`GruCell::step`] records it as a single tape node after the
//! two gate products, and [`GruCellSnapshot::step`] runs it on plain
//! matrices. Both add each bias to its product inside the pass, in the
//! order of the unfused formulation, so a frozen snapshot reproduces the
//! graph's hidden states bit for bit. [`LstmCellSnapshot::step`] likewise
//! writes its gates straight into its outputs, with no per-gate matrices.

use rand::Rng;

use crate::forward::Forward;
use crate::init::xavier_uniform_shaped;
use crate::matrix::Matrix;
use crate::tensor::Tensor;

/// The GRU gate blend: given the pre-bias products `xw = x·Wx` and
/// `hw = h·Wh` (both `(B, 3h)`, gates `[r|z|n]`) and the biases, computes
/// the new hidden state in one pass over the gate rows, with no `r`/`z`/`n`
/// matrices. Each bias is added to its product before the gates combine,
/// `(xw + bx) + (hw + bh)`, the order of the unfused formulation.
///
/// Training ([`GruCell::step`]) and serving ([`GruCellSnapshot::step`])
/// both run this routine. `keep` receives every element's
/// `[r, z, n, hw_n + bh_n]` in row-major order: the autograd cell keeps
/// them for its backward, serving passes a no-op.
pub(crate) fn gru_blend(
    xw: &Matrix,
    hw: &Matrix,
    bx: &Matrix,
    bh: &Matrix,
    h: &Matrix,
    mut keep: impl FnMut([f32; 4]),
) -> Matrix {
    let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
    let hs = h.cols();
    let [bxr, bxz, bxn] = gate_slices(bx.row(0), hs);
    let [bhr, bhz, bhn] = gate_slices(bh.row(0), hs);
    let mut out = Matrix::zeros(h.rows(), hs);
    for row in 0..h.rows() {
        let [xr, xz, xn] = gate_slices(xw.row(row), hs);
        let [hr, hz, hn] = gate_slices(hw.row(row), hs);
        let h_row = &h.row(row)[..hs];
        let out_row = &mut out.row_mut(row)[..hs];
        for c in 0..hs {
            let r = sig((xr[c] + bxr[c]) + (hr[c] + bhr[c]));
            let z = sig((xz[c] + bxz[c]) + (hz[c] + bhz[c]));
            let ghn = hn[c] + bhn[c];
            let n = ((xn[c] + bxn[c]) + r * ghn).tanh();
            out_row[c] = (1.0 - z) * n + z * h_row[c];
            keep([r, z, n, ghn]);
        }
    }
    out
}

/// The first `N` gate blocks of a fused gate row, each exactly `hs` wide
/// (so indexing them by a column below `hs` needs no bounds check).
fn gate_slices<const N: usize>(row: &[f32], hs: usize) -> [&[f32]; N] {
    std::array::from_fn(|k| &row[k * hs..(k + 1) * hs])
}

/// Single GRU cell.
///
/// Update equations (PyTorch convention):
/// ```text
/// r  = σ(x·Wxr + bxr + h·Whr + bhr)
/// z  = σ(x·Wxz + bxz + h·Whz + bhz)
/// n  = tanh(x·Wxn + bxn + r ∘ (h·Whn + bhn))
/// h' = (1 − z) ∘ n + z ∘ h
/// ```
pub struct GruCell {
    /// Input weights `(in, 3h)`, gates `[r|z|n]`.
    pub wx: Tensor,
    /// Hidden weights `(h, 3h)`.
    pub wh: Tensor,
    /// Input bias `(1, 3h)`.
    pub bx: Tensor,
    /// Hidden bias `(1, 3h)`.
    pub bh: Tensor,
    hidden: usize,
}

impl GruCell {
    /// Xavier-initialised GRU cell.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            wx: Tensor::parameter(xavier_uniform_shaped(input, 3 * hidden, input, hidden, rng)),
            wh: Tensor::parameter(xavier_uniform_shaped(
                hidden,
                3 * hidden,
                hidden,
                hidden,
                rng,
            )),
            bx: Tensor::parameter(Matrix::zeros(1, 3 * hidden)),
            bh: Tensor::parameter(Matrix::zeros(1, 3 * hidden)),
            hidden,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One autograd step: `x (B, in)`, `h (B, hidden)` → new hidden.
    ///
    /// Records three tape nodes: the products `x·Wx` and `h·Wh` and one
    /// fused blend (see [`Tensor`]'s memory contract). Values and
    /// gradients are bit-identical to the same update composed from
    /// slice, add, sigmoid, tanh and Hadamard nodes.
    pub fn step(&self, x: &Tensor, h: &Tensor) -> Tensor {
        Tensor::gru_cell(x, h, &self.wx, &self.wh, &self.bx, &self.bh)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        vec![
            self.wx.clone(),
            self.wh.clone(),
            self.bx.clone(),
            self.bh.clone(),
        ]
    }

    /// Thread-safe plain-weight copy.
    pub fn snapshot(&self) -> GruCellSnapshot {
        GruCellSnapshot {
            wx: self.wx.value(),
            wh: self.wh.value(),
            bx: self.bx.value(),
            bh: self.bh.value(),
            hidden: self.hidden,
        }
    }

    /// Loads weights from a snapshot.
    pub fn load_snapshot(&self, s: &GruCellSnapshot) {
        self.wx.set_value(s.wx.clone());
        self.wh.set_value(s.wh.clone());
        self.bx.set_value(s.bx.clone());
        self.bh.set_value(s.bh.clone());
    }
}

/// Plain-weight copy of a [`GruCell`]; `Send + Sync`.
#[derive(Clone, Debug)]
pub struct GruCellSnapshot {
    wx: Matrix,
    wh: Matrix,
    bx: Matrix,
    bh: Matrix,
    hidden: usize,
}

impl GruCellSnapshot {
    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One inference step on raw matrices.
    ///
    /// The two gate products go through [`Matrix::matmul`]; the biases,
    /// the gate nonlinearities and the hidden-state blend run in the same
    /// single pass as the autograd [`GruCell::step`], so both are
    /// bit-identical — the property the serving dataplane's batching and
    /// sharding rest on.
    pub fn step(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let xw = x.matmul(&self.wx);
        let hw = h.matmul(&self.wh);
        gru_blend(&xw, &hw, &self.bx, &self.bh, h, |_| {})
    }
}

/// Stacked multi-layer GRU.
pub struct Gru {
    cells: Vec<GruCell>,
}

impl Gru {
    /// `layers`-deep GRU; layer 0 consumes `input`-wide vectors, all layers
    /// share `hidden` width.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, layers: usize, rng: &mut R) -> Self {
        assert!(layers >= 1, "Gru requires at least one layer");
        let mut cells = Vec::with_capacity(layers);
        cells.push(GruCell::new(input, hidden, rng));
        for _ in 1..layers {
            cells.push(GruCell::new(hidden, hidden, rng));
        }
        Self { cells }
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.cells.len()
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.cells[0].hidden_size()
    }

    /// Zero initial hidden state for a batch of `b`.
    pub fn zero_state(&self, b: usize) -> Vec<Tensor> {
        self.cells
            .iter()
            .map(|c| Tensor::constant(Matrix::zeros(b, c.hidden_size())))
            .collect()
    }

    /// One autograd step through all layers; returns per-layer hidden states
    /// (last entry is the output).
    pub fn step(&self, x: &Tensor, state: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(state.len(), self.cells.len(), "Gru state depth mismatch");
        let mut new_state = Vec::with_capacity(self.cells.len());
        let mut input = x.clone();
        for (cell, h) in self.cells.iter().zip(state) {
            let h_new = cell.step(&input, h);
            input = h_new.clone();
            new_state.push(h_new);
        }
        new_state
    }

    /// Runs a full sequence, returning the output (top-layer hidden) at each
    /// step plus the final state.
    pub fn forward_sequence(&self, xs: &[Tensor]) -> (Vec<Tensor>, Vec<Tensor>) {
        let b = xs.first().map(|x| x.shape().0).unwrap_or(1);
        let mut state = self.zero_state(b);
        let mut outputs = Vec::with_capacity(xs.len());
        for x in xs {
            state = self.step(x, &state);
            outputs.push(state.last().expect("nonempty state").clone());
        }
        (outputs, state)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        self.cells.iter().flat_map(GruCell::params).collect()
    }

    /// Thread-safe plain-weight copy.
    pub fn snapshot(&self) -> GruSnapshot {
        GruSnapshot {
            cells: self.cells.iter().map(GruCell::snapshot).collect(),
        }
    }

    /// Loads weights from a snapshot.
    pub fn load_snapshot(&self, s: &GruSnapshot) {
        assert_eq!(
            self.cells.len(),
            s.cells.len(),
            "Gru snapshot depth mismatch"
        );
        for (c, cs) in self.cells.iter().zip(&s.cells) {
            c.load_snapshot(cs);
        }
    }
}

/// Plain-weight copy of a [`Gru`]; `Send + Sync`.
#[derive(Clone, Debug)]
pub struct GruSnapshot {
    cells: Vec<GruCellSnapshot>,
}

impl GruSnapshot {
    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.cells.len()
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.cells[0].hidden_size()
    }

    /// Zero initial state for a batch of `b`.
    pub fn zero_state(&self, b: usize) -> Vec<Matrix> {
        self.cells
            .iter()
            .map(|c| Matrix::zeros(b, c.hidden_size()))
            .collect()
    }

    /// One inference step; `state` is updated in place, the top-layer hidden
    /// is returned by reference.
    pub fn step<'s>(&self, x: &Matrix, state: &'s mut [Matrix]) -> &'s Matrix {
        assert_eq!(state.len(), self.cells.len(), "Gru state depth mismatch");
        for (l, cell) in self.cells.iter().enumerate() {
            let (below, rest) = state.split_at_mut(l);
            let input = below.last().unwrap_or(x);
            rest[0] = cell.step(input, &rest[0]);
        }
        state.last().expect("nonempty state")
    }
}

impl Forward for GruSnapshot {
    /// Encodes a batch-1 sequence: `x` is `(T, in)` with one timestep per
    /// row; returns the final top-layer hidden state `(1, hidden)`. An
    /// empty sequence (0 rows) yields the zero state.
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut state = self.zero_state(1);
        for t in 0..x.rows() {
            let step = Matrix::from_vec(1, x.cols(), x.row(t).to_vec());
            self.step(&step, &mut state);
        }
        state.pop().expect("nonempty state")
    }
}

/// Single LSTM cell with fused `[i|f|g|o]` gates.
pub struct LstmCell {
    /// Input weights `(in, 4h)`.
    pub wx: Tensor,
    /// Hidden weights `(h, 4h)`.
    pub wh: Tensor,
    /// Bias `(1, 4h)` (forget-gate slice initialised to 1).
    pub b: Tensor,
    hidden: usize,
}

impl LstmCell {
    /// Xavier-initialised LSTM cell with forget bias 1.0.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for i in hidden..2 * hidden {
            b[(0, i)] = 1.0;
        }
        Self {
            wx: Tensor::parameter(xavier_uniform_shaped(input, 4 * hidden, input, hidden, rng)),
            wh: Tensor::parameter(xavier_uniform_shaped(
                hidden,
                4 * hidden,
                hidden,
                hidden,
                rng,
            )),
            b: Tensor::parameter(b),
            hidden,
        }
    }

    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One autograd step: returns `(h', c')`.
    pub fn step(&self, x: &Tensor, h: &Tensor, c: &Tensor) -> (Tensor, Tensor) {
        let hs = self.hidden;
        let gates = x
            .matmul(&self.wx)
            .add(&h.matmul(&self.wh))
            .add_bias(&self.b);
        let i = gates.slice_cols(0, hs).sigmoid();
        let f = gates.slice_cols(hs, 2 * hs).sigmoid();
        let g = gates.slice_cols(2 * hs, 3 * hs).tanh();
        let o = gates.slice_cols(3 * hs, 4 * hs).sigmoid();
        let c_new = f.mul(c).add(&i.mul(&g));
        let h_new = o.mul(&c_new.tanh());
        (h_new, c_new)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        vec![self.wx.clone(), self.wh.clone(), self.b.clone()]
    }

    /// Thread-safe plain-weight copy.
    pub fn snapshot(&self) -> LstmCellSnapshot {
        LstmCellSnapshot {
            wx: self.wx.value(),
            wh: self.wh.value(),
            b: self.b.value(),
            hidden: self.hidden,
        }
    }
}

/// Plain-weight copy of an [`LstmCell`]; `Send + Sync`.
#[derive(Clone, Debug)]
pub struct LstmCellSnapshot {
    wx: Matrix,
    wh: Matrix,
    b: Matrix,
    hidden: usize,
}

impl LstmCellSnapshot {
    /// One inference step on raw matrices; returns `(h', c')`.
    ///
    /// After the two products, each gate row is computed in place in the
    /// outputs, with no per-gate matrices, in the order of the autograd
    /// [`LstmCell::step`]: `(x·Wx + h·Wh) + b`, then `c' = f·c + i·g` and
    /// `h' = o·tanh(c')`, so both are bit-identical.
    pub fn step(&self, x: &Matrix, h: &Matrix, c: &Matrix) -> (Matrix, Matrix) {
        let hs = self.hidden;
        let mut gates = x.matmul(&self.wx);
        gates.add_assign(&h.matmul(&self.wh));
        let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
        let [bi, bf, bg, bo] = gate_slices(self.b.row(0), hs);
        let mut h_new = Matrix::zeros(c.rows(), hs);
        let mut c_new = Matrix::zeros(c.rows(), hs);
        for row in 0..c.rows() {
            let [gi, gf, gg, go] = gate_slices(gates.row(row), hs);
            let c_row = &c.row(row)[..hs];
            let h_out = &mut h_new.row_mut(row)[..hs];
            let c_out = &mut c_new.row_mut(row)[..hs];
            // One short loop per gate: with a single libm call per
            // iteration this measured about a fifth faster than one loop
            // making all five calls. `h_out` holds `i`, then `o`.
            for k in 0..hs {
                c_out[k] = sig(gf[k] + bf[k]) * c_row[k];
            }
            for k in 0..hs {
                h_out[k] = sig(gi[k] + bi[k]);
            }
            for k in 0..hs {
                c_out[k] += h_out[k] * (gg[k] + bg[k]).tanh();
            }
            for k in 0..hs {
                h_out[k] = sig(go[k] + bo[k]);
            }
            for k in 0..hs {
                h_out[k] *= c_out[k].tanh();
            }
        }
        (h_new, c_new)
    }
}

/// Stacked multi-layer LSTM.
pub struct Lstm {
    cells: Vec<LstmCell>,
}

impl Lstm {
    /// `layers`-deep LSTM.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, layers: usize, rng: &mut R) -> Self {
        assert!(layers >= 1, "Lstm requires at least one layer");
        let mut cells = Vec::with_capacity(layers);
        cells.push(LstmCell::new(input, hidden, rng));
        for _ in 1..layers {
            cells.push(LstmCell::new(hidden, hidden, rng));
        }
        Self { cells }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.cells[0].hidden_size()
    }

    /// Runs a full sequence; returns the top-layer hidden output at the final
    /// step.
    pub fn forward_sequence(&self, xs: &[Tensor]) -> Tensor {
        let b = xs.first().map(|x| x.shape().0).unwrap_or(1);
        let mut hs: Vec<Tensor> = self
            .cells
            .iter()
            .map(|c| Tensor::constant(Matrix::zeros(b, c.hidden_size())))
            .collect();
        let mut cs = hs.clone();
        for x in xs {
            let mut input = x.clone();
            for (l, cell) in self.cells.iter().enumerate() {
                let (h_new, c_new) = cell.step(&input, &hs[l], &cs[l]);
                input = h_new.clone();
                hs[l] = h_new;
                cs[l] = c_new;
            }
        }
        hs.pop().expect("nonempty state")
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        self.cells.iter().flat_map(LstmCell::params).collect()
    }

    /// Thread-safe plain-weight copy.
    pub fn snapshot(&self) -> LstmSnapshot {
        LstmSnapshot {
            cells: self.cells.iter().map(LstmCell::snapshot).collect(),
        }
    }
}

/// Plain-weight copy of an [`Lstm`]; `Send + Sync`, inference via
/// [`Forward`] or step by step.
#[derive(Clone, Debug)]
pub struct LstmSnapshot {
    cells: Vec<LstmCellSnapshot>,
}

impl LstmSnapshot {
    /// Zero initial per-layer `(h, c)` state for a batch of `b`.
    pub fn zero_state(&self, b: usize) -> Vec<(Matrix, Matrix)> {
        self.cells
            .iter()
            .map(|c| (Matrix::zeros(b, c.hidden), Matrix::zeros(b, c.hidden)))
            .collect()
    }

    /// One inference step; `state` is updated in place, the top-layer hidden
    /// is returned by reference.
    pub fn step<'s>(&self, x: &Matrix, state: &'s mut [(Matrix, Matrix)]) -> &'s Matrix {
        assert_eq!(state.len(), self.cells.len(), "Lstm state depth mismatch");
        for (l, cell) in self.cells.iter().enumerate() {
            let (below, rest) = state.split_at_mut(l);
            let input = below.last().map_or(x, |(h, _)| h);
            let (h, c) = &mut rest[0];
            (*h, *c) = cell.step(input, h, c);
        }
        &state.last().expect("nonempty state").0
    }
}

impl Forward for LstmSnapshot {
    /// Encodes a batch-1 sequence: `x` is `(T, in)` with one timestep per
    /// row; returns the final top-layer hidden state `(1, hidden)`. An
    /// empty sequence (0 rows) yields the zero state.
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut state = self.zero_state(1);
        for t in 0..x.rows() {
            let step = Matrix::from_vec(1, x.cols(), x.row(t).to_vec());
            self.step(&step, &mut state);
        }
        state.pop().expect("nonempty state").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::layers::{Activation, Mlp};
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gru_step_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = GruCell::new(4, 6, &mut rng);
        let x = Tensor::constant(Matrix::ones(3, 4));
        let h = Tensor::constant(Matrix::zeros(3, 6));
        let h2 = cell.step(&x, &h);
        assert_eq!(h2.shape(), (3, 6));
    }

    #[test]
    fn gru_cell_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = GruCell::new(2, 3, &mut rng);
        let x = Matrix::randn(2, 2, 1.0, &mut rng);
        let target = Matrix::randn(2, 3, 0.5, &mut rng);
        let params = cell.params();
        check_gradients(
            &params,
            || {
                let h0 = Tensor::constant(Matrix::zeros(2, 3));
                let h1 = cell.step(&Tensor::constant(x.clone()), &h0);
                let h2 = cell.step(&Tensor::constant(x.clone()), &h1);
                h2.mse_loss(&target)
            },
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn lstm_cell_gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let cell = LstmCell::new(2, 3, &mut rng);
        let x = Matrix::randn(2, 2, 1.0, &mut rng);
        let target = Matrix::randn(2, 3, 0.5, &mut rng);
        let params = cell.params();
        check_gradients(
            &params,
            || {
                let h0 = Tensor::constant(Matrix::zeros(2, 3));
                let c0 = Tensor::constant(Matrix::zeros(2, 3));
                let (h1, c1) = cell.step(&Tensor::constant(x.clone()), &h0, &c0);
                let (h2, _) = cell.step(&Tensor::constant(x.clone()), &h1, &c1);
                h2.mse_loss(&target)
            },
            1e-2,
            3e-2,
        );
    }

    /// Splits a batch of per-timestep `(B, in)` matrices into per-sample
    /// `(T, in)` sequence matrices for the Forward path.
    fn per_sample_sequences(xs: &[Matrix]) -> Vec<Matrix> {
        let b = xs.first().map(Matrix::rows).unwrap_or(0);
        (0..b)
            .map(|s| {
                let mut seq = Matrix::zeros(xs.len(), xs[0].cols());
                for (t, x) in xs.iter().enumerate() {
                    seq.row_mut(t).copy_from_slice(x.row(s));
                }
                seq
            })
            .collect()
    }

    #[test]
    fn gru_snapshot_matches_graph() {
        let mut rng = StdRng::seed_from_u64(4);
        let gru = Gru::new(3, 5, 2, &mut rng);
        let xs: Vec<Matrix> = (0..4).map(|_| Matrix::randn(2, 3, 1.0, &mut rng)).collect();
        let graph_xs: Vec<Tensor> = xs.iter().map(|m| Tensor::constant(m.clone())).collect();
        let (outs, _) = gru.forward_sequence(&graph_xs);
        let graph_final = outs.last().unwrap().value();
        let snap = gru.snapshot();
        let finals = snap.forward_batch(&per_sample_sequences(&xs));
        for (sample, snap_final) in finals.iter().enumerate() {
            for (a, b) in graph_final.row(sample).iter().zip(snap_final.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lstm_snapshot_matches_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let lstm = Lstm::new(3, 4, 2, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| Matrix::randn(2, 3, 1.0, &mut rng)).collect();
        let graph_xs: Vec<Tensor> = xs.iter().map(|m| Tensor::constant(m.clone())).collect();
        let graph_final = lstm.forward_sequence(&graph_xs).value();
        let snap = lstm.snapshot();
        let finals = snap.forward_batch(&per_sample_sequences(&xs));
        for (sample, snap_final) in finals.iter().enumerate() {
            for (a, b) in graph_final.row(sample).iter().zip(snap_final.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    /// The fused snapshot step must be bit-identical to the textbook
    /// slice-by-slice gate formulation it replaced.
    #[test]
    fn gru_snapshot_fused_step_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(21);
        let cell = GruCell::new(3, 7, &mut rng);
        let snap = cell.snapshot();
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        let h = Matrix::randn(5, 7, 1.0, &mut rng);
        let fused = snap.step(&x, &h);

        let hs = 7;
        let gx = x.matmul_naive(&snap.wx).add_row_broadcast(&snap.bx);
        let gh = h.matmul_naive(&snap.wh).add_row_broadcast(&snap.bh);
        let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
        let r = gx
            .slice_cols(0, hs)
            .zip(&gh.slice_cols(0, hs), |a, b| sig(a + b));
        let z = gx
            .slice_cols(hs, 2 * hs)
            .zip(&gh.slice_cols(hs, 2 * hs), |a, b| sig(a + b));
        let n = gx
            .slice_cols(2 * hs, 3 * hs)
            .add(&r.hadamard(&gh.slice_cols(2 * hs, 3 * hs)))
            .map(f32::tanh);
        for i in 0..fused.len() {
            let (zi, ni, hi) = (z.as_slice()[i], n.as_slice()[i], h.as_slice()[i]);
            let reference = (1.0 - zi) * ni + zi * hi;
            assert_eq!(fused.as_slice()[i].to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn gru_incremental_step_equals_full_sequence() {
        let mut rng = StdRng::seed_from_u64(6);
        let gru = Gru::new(2, 4, 2, &mut rng);
        let snap = gru.snapshot();
        let seq = Matrix::randn(5, 2, 1.0, &mut rng);
        let full = snap.forward(&seq);
        let mut state = snap.zero_state(1);
        let mut last = Matrix::zeros(1, 4);
        for t in 0..seq.rows() {
            let x = Matrix::from_vec(1, 2, seq.row(t).to_vec());
            last = snap.step(&x, &mut state).clone();
        }
        for (a, b) in full.as_slice().iter().zip(last.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The step-wise LSTM forward runs each cell on the same inputs, in
    /// the same order, as a plain per-layer loop over the cells, so
    /// `forward` and explicit `step` calls both match that loop bit for
    /// bit, cell state included.
    #[test]
    fn lstm_step_loop_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(9);
        let snap = Lstm::new(2, 5, 3, &mut rng).snapshot();
        let seq = Matrix::randn(6, 2, 1.0, &mut rng);
        let mut hs: Vec<Matrix> = snap.cells.iter().map(|_| Matrix::zeros(1, 5)).collect();
        let mut cs = hs.clone();
        for t in 0..seq.rows() {
            let mut input = Matrix::from_vec(1, 2, seq.row(t).to_vec());
            for (l, cell) in snap.cells.iter().enumerate() {
                let (h, c) = cell.step(&input, &hs[l], &cs[l]);
                input = h.clone();
                (hs[l], cs[l]) = (h, c);
            }
        }
        let full = snap.forward(&seq);
        let mut state = snap.zero_state(1);
        for t in 0..seq.rows() {
            snap.step(&Matrix::from_vec(1, 2, seq.row(t).to_vec()), &mut state);
        }
        for got in [&full, &state[2].0] {
            for (a, b) in got.as_slice().iter().zip(hs[2].as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for (a, b) in state[1].1.as_slice().iter().zip(cs[1].as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gru_learns_sequence_sum_sign() {
        // Predict whether the running sum of a +/-1 sequence is positive:
        // requires the hidden state to integrate over time.
        let mut rng = StdRng::seed_from_u64(7);
        let gru = Gru::new(1, 8, 1, &mut rng);
        let head = Mlp::new(&[8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut params = gru.params();
        params.extend(head.params());
        let mut opt = Adam::new(params, 0.02);

        let seq_len = 6;
        let batch = 16;
        let mut final_loss = f32::INFINITY;
        for _ in 0..150 {
            let mut xs = Vec::with_capacity(seq_len);
            let mut sums = vec![0.0f32; batch];
            for _ in 0..seq_len {
                let step = Matrix::from_vec(
                    batch,
                    1,
                    (0..batch)
                        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                        .collect(),
                );
                for (s, v) in sums.iter_mut().zip(step.as_slice()) {
                    *s += v;
                }
                xs.push(Tensor::constant(step));
            }
            let labels = Matrix::from_vec(
                batch,
                1,
                sums.iter()
                    .map(|&s| if s > 0.0 { 1.0 } else { 0.0 })
                    .collect(),
            );
            opt.zero_grad();
            let (outs, _) = gru.forward_sequence(&xs);
            let logits = head.forward(outs.last().unwrap());
            let loss = logits.bce_with_logits_loss(&labels);
            final_loss = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(
            final_loss < 0.45,
            "GRU failed to learn integration: {final_loss}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn gru_rejects_zero_layers() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = Gru::new(2, 2, 0, &mut rng);
    }
}
