//! Recurrent layers: [`GruCell`]/[`Gru`] (the paper's StateEncoder backbone)
//! and [`LstmCell`]/[`Lstm`] (the LSTM censoring classifier).
//!
//! Gate layout follows the PyTorch convention with fused gate matrices.
//! For a hidden width `h`, GRU gates are stored as `[r | z | n]` slices of a
//! `3h`-wide matrix and LSTM gates as `[i | f | g | o]` slices of a
//! `4h`-wide matrix.

use rand::Rng;

use crate::forward::Forward;
use crate::init::xavier_uniform_shaped;
use crate::matrix::Matrix;
use crate::packed::PreparedRhs;
use crate::tensor::Tensor;

/// The fused GRU gate blend shared by [`GruCellSnapshot::step`] and
/// [`PreparedGruCell::step`]: given the pre-bias-added gate products
/// `gx = x·Wx + bx` and `gh = h·Wh + bh` (both `(B, 3h)`, gates
/// `[r|z|n]`), computes the new hidden state in a single pass with no
/// `r`/`z`/`n` temporaries. Keeping this in one place is what makes the
/// packed tier bit-identical to the row-major snapshot by construction — the
/// two paths differ only in how the gate matmuls are computed.
fn gru_gate_blend(gx: &Matrix, gh: &Matrix, h: &Matrix, hs: usize) -> Matrix {
    let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
    let mut out = Matrix::zeros(h.rows(), hs);
    for row in 0..h.rows() {
        let gx_row = gx.row(row);
        let gh_row = gh.row(row);
        let h_row = h.row(row);
        let out_row = out.row_mut(row);
        for c in 0..hs {
            let r = sig(gx_row[c] + gh_row[c]);
            let z = sig(gx_row[hs + c] + gh_row[hs + c]);
            let n = (gx_row[2 * hs + c] + r * gh_row[2 * hs + c]).tanh();
            out_row[c] = (1.0 - z) * n + z * h_row[c];
        }
    }
    out
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
    pub fn step(&self, x: &Tensor, h: &Tensor) -> Tensor {
        let hs = self.hidden;
        let gx = x.matmul(&self.wx).add_bias(&self.bx);
        let gh = h.matmul(&self.wh).add_bias(&self.bh);
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
    /// The two gate matmuls go through [`Matrix::matmul`]; the gate
    /// nonlinearities and the hidden-state blend are
    /// fused into a single pass over the gate rows (no `r`/`z`/`n`
    /// temporaries). Both are bit-identical to the unfused autograd
    /// formulation — the property the serving dataplane's batching and
    /// sharding rest on.
    pub fn step(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let gx = x.matmul(&self.wx).add_row_broadcast(&self.bx);
        let gh = h.matmul(&self.wh).add_row_broadcast(&self.bh);
        gru_gate_blend(&gx, &gh, h, self.hidden)
    }

    /// Prepares the gate weights once for repeated inference through a
    /// [`PreparedRhs`] tier (packed ⇒ bit-exact, quantized ⇒ tolerance).
    pub fn prepare<W: PreparedRhs>(&self) -> PreparedGruCell<W> {
        PreparedGruCell {
            wx: W::prepare(&self.wx),
            wh: W::prepare(&self.wh),
            bx: self.bx.clone(),
            bh: self.bh.clone(),
            hidden: self.hidden,
        }
    }
}

/// A [`GruCellSnapshot`] whose fused gate matrices were prepared once
/// through a [`PreparedRhs`] tier. With
/// [`crate::packed::PackedWeights`] the step is bit-identical to
/// [`GruCellSnapshot::step`] (same gate blend, bit-exact matmuls);
/// with [`crate::quant::QuantWeights`] the gate pre-activations carry
/// bounded quantization error.
#[derive(Clone, Debug)]
pub struct PreparedGruCell<W: PreparedRhs> {
    wx: W,
    wh: W,
    bx: Matrix,
    bh: Matrix,
    hidden: usize,
}

impl<W: PreparedRhs> PreparedGruCell<W> {
    /// Hidden state width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One inference step through the prepared gate weights: the same
    /// two gate products + fused blend as [`GruCellSnapshot::step`].
    pub fn step(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let gx = self.wx.forward(x).add_row_broadcast(&self.bx);
        let gh = self.wh.forward(h).add_row_broadcast(&self.bh);
        gru_gate_blend(&gx, &gh, h, self.hidden)
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
        let mut input = x.clone();
        for (cell, h) in self.cells.iter().zip(state.iter_mut()) {
            let h_new = cell.step(&input, h);
            input = h_new.clone();
            *h = h_new;
        }
        state.last().expect("nonempty state")
    }

    /// Prepares every cell's gate weights once for repeated inference
    /// through a [`PreparedRhs`] tier.
    pub fn prepare<W: PreparedRhs>(&self) -> PreparedGru<W> {
        PreparedGru {
            cells: self.cells.iter().map(GruCellSnapshot::prepare).collect(),
        }
    }
}

/// A [`GruSnapshot`] with every cell prepared through a [`PreparedRhs`]
/// tier. Same exactness contract as [`PreparedGruCell`].
#[derive(Clone, Debug)]
pub struct PreparedGru<W: PreparedRhs> {
    cells: Vec<PreparedGruCell<W>>,
}

impl<W: PreparedRhs> PreparedGru<W> {
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

    /// One inference step through all prepared layers; `state` is
    /// updated in place, the top-layer hidden is returned by reference —
    /// the same traversal as [`GruSnapshot::step`].
    pub fn step<'s>(&self, x: &Matrix, state: &'s mut [Matrix]) -> &'s Matrix {
        assert_eq!(state.len(), self.cells.len(), "Gru state depth mismatch");
        let mut input = x.clone();
        for (cell, h) in self.cells.iter().zip(state.iter_mut()) {
            let h_new = cell.step(&input, h);
            input = h_new.clone();
            *h = h_new;
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
    pub fn step(&self, x: &Matrix, h: &Matrix, c: &Matrix) -> (Matrix, Matrix) {
        let hs = self.hidden;
        let gates = x
            .matmul(&self.wx)
            .add(&h.matmul(&self.wh))
            .add_row_broadcast(&self.b);
        let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
        let i = gates.slice_cols(0, hs).map(sig);
        let f = gates.slice_cols(hs, 2 * hs).map(sig);
        let g = gates.slice_cols(2 * hs, 3 * hs).map(f32::tanh);
        let o = gates.slice_cols(3 * hs, 4 * hs).map(sig);
        let c_new = f.hadamard(c).add(&i.hadamard(&g));
        let h_new = o.hadamard(&c_new.map(f32::tanh));
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
/// [`Forward`].
#[derive(Clone, Debug)]
pub struct LstmSnapshot {
    cells: Vec<LstmCellSnapshot>,
}

impl Forward for LstmSnapshot {
    /// Encodes a batch-1 sequence: `x` is `(T, in)` with one timestep per
    /// row; returns the final top-layer hidden state `(1, hidden)`. An
    /// empty sequence (0 rows) yields the zero state.
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut hs: Vec<Matrix> = self
            .cells
            .iter()
            .map(|c| Matrix::zeros(1, c.hidden))
            .collect();
        let mut cs = hs.clone();
        for t in 0..x.rows() {
            let mut input = Matrix::from_vec(1, x.cols(), x.row(t).to_vec());
            for (l, cell) in self.cells.iter().enumerate() {
                let (h_new, c_new) = cell.step(&input, &hs[l], &cs[l]);
                input = h_new.clone();
                hs[l] = h_new;
                cs[l] = c_new;
            }
        }
        hs.pop().expect("nonempty state")
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
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
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
                assert!((a - b).abs() < 1e-5);
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

    /// The packed-tier GRU is bit-identical to the row-major snapshot GRU on a
    /// multi-layer, multi-step rollout — the contract that lets the
    /// serving stack's packed backend join the bit-exact conformance
    /// suite without a new fingerprint.
    #[test]
    fn prepared_packed_gru_is_bit_exact() {
        use crate::packed::PackedWeights;
        let mut rng = StdRng::seed_from_u64(29);
        let gru = Gru::new(2, 16, 2, &mut rng);
        let snap = gru.snapshot();
        let prepared = snap.prepare::<PackedWeights>();
        assert_eq!(prepared.num_layers(), snap.num_layers());
        assert_eq!(prepared.hidden_size(), snap.hidden_size());
        let mut ref_state = snap.zero_state(3);
        let mut packed_state = prepared.zero_state(3);
        for t in 0..5 {
            let x = Matrix::randn(3, 2, 1.0, &mut rng);
            let a = snap.step(&x, &mut ref_state).clone();
            let b = prepared.step(&x, &mut packed_state).clone();
            for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "step {t}");
            }
        }
    }

    /// The quantized-tier GRU tracks the exact GRU closely (gate
    /// pre-activations carry bounded int8 error, squashed further by the
    /// saturating nonlinearities) but is not bit-identical — the
    /// tolerance-tier contract.
    #[test]
    fn prepared_quant_gru_tracks_exact_within_tolerance() {
        use crate::quant::QuantWeights;
        let mut rng = StdRng::seed_from_u64(31);
        let gru = Gru::new(2, 16, 2, &mut rng);
        let snap = gru.snapshot();
        let prepared = snap.prepare::<QuantWeights>();
        let mut ref_state = snap.zero_state(3);
        let mut quant_state = prepared.zero_state(3);
        for t in 0..5 {
            let x = Matrix::randn(3, 2, 1.0, &mut rng);
            let a = snap.step(&x, &mut ref_state).clone();
            let b = prepared.step(&x, &mut quant_state).clone();
            for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((va - vb).abs() < 0.05, "step {t}: {va} vs {vb}");
            }
        }
    }
}
