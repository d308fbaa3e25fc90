//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The design is a classic tape: every operation produces a new [`Tensor`]
//! node holding its value, links to its parents, and a one-shot backward
//! closure that scatters the output gradient into the parents. Calling
//! [`Tensor::backward`] walks the graph in reverse topological order.
//!
//! # Memory contract
//!
//! - **Values are stored once.** Each node owns its value and nothing
//!   else copies it: a backward closure reads its operands through the
//!   parent handles it holds, and reads its own output from the node,
//!   which the walk hands to it.
//! - **Gradients are allocated on first accumulation.** A node that
//!   requires grad gets its gradient buffer when the first contribution
//!   arrives, as `+0.0 + g` element by element (so a `-0.0` in `g` lands
//!   as `+0.0`, exactly as in a zero-filled buffer). Constants and other
//!   nodes that do not require grad never get one, and a product whose
//!   operand does not require grad is not computed.
//! - **Interior gradients are not retained after `backward`.** The walk
//!   moves each interior node's gradient into its closure and frees it
//!   there. Leaves keep theirs for the optimiser; [`Tensor::grad`] on a
//!   leaf that received nothing returns zeros of its shape.
//!
//! None of this changes an arithmetic operation or its order, so the
//! gradients are bit-identical to a tape that zero-fills every buffer up
//! front and copies every operand.
//!
//! Graphs are thread-local (`Rc`-based). Multi-threaded rollout workers use
//! plain-`Matrix` snapshots of layer parameters instead (see
//! `layers::*::snapshot`), which keeps the hot inference path allocation-free
//! of graph bookkeeping.

use std::cell::{Cell, Ref, RefCell};
// audit:allow(AMB001, reason = "backward()'s visited set; membership probes only, see below")
use std::collections::HashSet;
use std::rc::Rc;

use crate::matrix::Matrix;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// One-shot backward step: receives the node's gradient by value and the
/// node's own output.
type BackwardFn = Box<dyn FnOnce(Matrix, &Matrix)>;

struct Inner {
    id: u64,
    value: Matrix,
    /// `None` until the first contribution arrives (see the module docs).
    grad: Option<Matrix>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph.
///
/// Cloning a `Tensor` is cheap (reference-counted); all clones share the
/// same value and gradient buffers.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<RefCell<Inner>>,
}

/// `g[i] = f(g[i], x[i])`, reusing the buffer of `g`.
fn zip_into(mut g: Matrix, x: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
    assert_eq!(g.shape(), x.shape(), "zip: shape mismatch");
    for (gi, &xi) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *gi = f(*gi, xi);
    }
    g
}

impl Tensor {
    /// Creates a leaf tensor. Set `requires_grad` for trainable parameters.
    pub fn new(value: Matrix, requires_grad: bool) -> Self {
        Tensor {
            inner: Rc::new(RefCell::new(Inner {
                id: next_id(),
                value,
                grad: None,
                requires_grad,
                parents: Vec::new(),
                backward: None,
            })),
        }
    }

    /// Leaf tensor that does not participate in gradients (inputs, labels).
    pub fn constant(value: Matrix) -> Self {
        Self::new(value, false)
    }

    /// Trainable leaf tensor.
    pub fn parameter(value: Matrix) -> Self {
        Self::new(value, true)
    }

    /// Scalar (1x1) constant.
    pub fn scalar(v: f32) -> Self {
        Self::constant(Matrix::from_vec(1, 1, vec![v]))
    }

    fn from_op(value: Matrix, parents: Vec<Tensor>, backward: BackwardFn) -> Self {
        let requires_grad = parents.iter().any(|p| p.requires_grad());
        if !requires_grad {
            return Self::constant(value);
        }
        Tensor {
            inner: Rc::new(RefCell::new(Inner {
                id: next_id(),
                value,
                grad: None,
                requires_grad: true,
                parents,
                backward: Some(backward),
            })),
        }
    }

    /// Unique node id (thread-local).
    pub fn id(&self) -> u64 {
        self.inner.borrow().id
    }

    /// Whether this node participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.inner.borrow().requires_grad
    }

    /// Borrowed view of the value.
    pub fn value_ref(&self) -> Ref<'_, Matrix> {
        Ref::map(self.inner.borrow(), |i| &i.value)
    }

    /// Clone of the value.
    pub fn value(&self) -> Matrix {
        self.inner.borrow().value.clone()
    }

    /// Clone of the accumulated gradient, or zeros of the value's shape
    /// when nothing has been accumulated.
    ///
    /// Meaningful on leaves: [`Tensor::backward`] frees the gradient of
    /// every interior node it walks, so an interior node reads as zeros
    /// afterwards.
    pub fn grad(&self) -> Matrix {
        let inner = self.inner.borrow();
        match &inner.grad {
            Some(g) => g.clone(),
            None => Matrix::zeros(inner.value.rows(), inner.value.cols()),
        }
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.borrow().value.shape()
    }

    /// Scalar value of a 1x1 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 1x1.
    pub fn item(&self) -> f32 {
        let v = self.inner.borrow();
        assert_eq!(v.value.shape(), (1, 1), "item() on non-scalar tensor");
        v.value[(0, 0)]
    }

    /// Overwrites the value in place (used by optimisers). Shape-checked.
    pub fn set_value(&self, new: Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.value.shape(),
            new.shape(),
            "set_value: shape mismatch"
        );
        inner.value = new;
    }

    /// Applies `f(value, grad)` producing the new value (optimiser hook).
    /// `grad` is zeros when nothing has been accumulated.
    pub fn update_value(&self, f: impl FnOnce(&Matrix, &Matrix) -> Matrix) {
        let mut inner = self.inner.borrow_mut();
        let zeros;
        let grad = match &inner.grad {
            Some(g) => g,
            None => {
                zeros = Matrix::zeros(inner.value.rows(), inner.value.cols());
                &zeros
            }
        };
        let new = f(&inner.value, grad);
        assert_eq!(
            inner.value.shape(),
            new.shape(),
            "update_value: shape mismatch"
        );
        inner.value = new;
    }

    /// Zeroes the gradient buffer, keeping its allocation.
    pub fn zero_grad(&self) {
        if let Some(g) = &mut self.inner.borrow_mut().grad {
            g.fill_zero();
        }
    }

    /// Overwrites the gradient buffer (used by the gradient clipper).
    pub fn set_grad(&self, g: Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.value.shape(), g.shape(), "set_grad: shape mismatch");
        inner.grad = Some(g);
    }

    /// Multiplies the gradient buffer by `s` in place.
    pub fn scale_grad(&self, s: f32) {
        let mut inner = self.inner.borrow_mut();
        let (r, c) = inner.value.shape();
        inner
            .grad
            .get_or_insert_with(|| Matrix::zeros(r, c))
            .map_inplace(|x| x * s);
    }

    /// Detaches from the graph: same value, no gradient history.
    pub fn detach(&self) -> Tensor {
        Self::constant(self.value())
    }

    /// Adds `g` into the gradient buffer. On the first contribution `g`'s
    /// own allocation becomes the buffer, after the same `+0.0 + g` pass a
    /// zero-filled buffer would have taken.
    fn accumulate_grad(&self, mut g: Matrix) {
        let mut inner = self.inner.borrow_mut();
        if !inner.requires_grad {
            return;
        }
        match &mut inner.grad {
            Some(buf) => buf.add_assign(&g),
            None => {
                g.map_inplace(|x| 0.0 + x);
                inner.grad = Some(g);
            }
        }
    }

    /// Adds `g` into columns `[start, start + g.cols())` of the gradient
    /// buffer in place. The other columns are left as they are, which is
    /// what adding `+0.0` to them would give: a buffer only ever
    /// accumulates from `+0.0`, so it never holds `-0.0`.
    fn accumulate_grad_cols(&self, start: usize, g: &Matrix) {
        let mut inner = self.inner.borrow_mut();
        if !inner.requires_grad {
            return;
        }
        let (r, c) = inner.value.shape();
        assert_eq!(g.rows(), r, "slice gradient: row mismatch");
        let buf = inner.grad.get_or_insert_with(|| Matrix::zeros(r, c));
        for i in 0..r {
            let dst = &mut buf.row_mut(i)[start..start + g.cols()];
            for (d, &s) in dst.iter_mut().zip(g.row(i)) {
                *d += s;
            }
        }
    }

    /// Runs reverse-mode differentiation from this node, seeding with ones.
    ///
    /// Consumes the backward closures: a graph can be backpropagated once.
    pub fn backward(&self) {
        let (r, c) = self.shape();
        self.backward_with(&Matrix::ones(r, c));
    }

    /// Runs backward with an explicit seed gradient.
    pub fn backward_with(&self, seed: &Matrix) {
        assert_eq!(self.shape(), seed.shape(), "backward seed shape mismatch");
        if !self.requires_grad() {
            return;
        }
        self.accumulate_grad(seed.clone());

        // Iterative DFS topological sort.
        let mut order: Vec<Tensor> = Vec::new();
        // audit:allow(AMB001, reason = "only insert/contains on unique node ids — never iterated, so hash order cannot reach `order` (DFS stack order alone decides it) or any gradient")
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((node, children_done)) = stack.pop() {
            let id = node.id();
            if children_done {
                order.push(node);
                continue;
            }
            if !visited.insert(id) {
                continue;
            }
            stack.push((node.clone(), true));
            let parents = node.inner.borrow().parents.clone();
            for p in parents {
                if p.requires_grad() && !visited.contains(&p.id()) {
                    stack.push((p, false));
                }
            }
        }

        // `order` is now children-after-parents; walk it back to front.
        // Interior nodes hand their gradient to their closure, which frees
        // it; leaves (no closure) keep theirs.
        for node in order.iter().rev() {
            let (grad, backward) = {
                let mut inner = node.inner.borrow_mut();
                let Some(backward) = inner.backward.take() else {
                    continue;
                };
                let (r, c) = inner.value.shape();
                let grad = inner.grad.take().unwrap_or_else(|| Matrix::zeros(r, c));
                (grad, backward)
            };
            backward(grad, &node.value_ref());
        }
    }

    // ----- binary ops ------------------------------------------------------
    //
    // A closure computes each parent's contribution into a local before
    // accumulating it, so no operand borrow is held across an
    // accumulation: `x.mul(&x)` borrows and mutates the same node.

    /// Matrix product.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().matmul(&rhs.value_ref());
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                if pa.requires_grad() {
                    let ga = g.matmul_t(&pb.value_ref());
                    pa.accumulate_grad(ga);
                }
                if pb.requires_grad() {
                    let gb = pa.value_ref().t_matmul(&g);
                    pb.accumulate_grad(gb);
                }
            }),
        )
    }

    /// Elementwise sum (same shape).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().add(&rhs.value_ref());
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                pa.accumulate_grad(g.clone());
                pb.accumulate_grad(g);
            }),
        )
    }

    /// Adds a 1 x n bias row to every row of `self`.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let out = self.value_ref().add_row_broadcast(&bias.value_ref());
        let (pa, pb) = (self.clone(), bias.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), bias.clone()],
            Box::new(move |g, _| {
                let gb = g.sum_rows();
                pa.accumulate_grad(g);
                pb.accumulate_grad(gb);
            }),
        )
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().sub(&rhs.value_ref());
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                let gb = g.scale(-1.0);
                pa.accumulate_grad(g);
                pb.accumulate_grad(gb);
            }),
        )
    }

    /// Hadamard (elementwise) product.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().hadamard(&rhs.value_ref());
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                let ga = g.hadamard(&pb.value_ref());
                pa.accumulate_grad(ga);
                let gb = zip_into(g, &pa.value_ref(), |gi, a| gi * a);
                pb.accumulate_grad(gb);
            }),
        )
    }

    /// Elementwise quotient.
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().zip(&rhs.value_ref(), |x, y| x / y);
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                let ga = g.zip(&pb.value_ref(), |gi, y| gi / y);
                pa.accumulate_grad(ga);
                let gb = zip_into(g, &pa.value_ref(), |gi, a| gi * a);
                let gb = zip_into(gb, &pb.value_ref(), |n, y| -n / (y * y));
                pb.accumulate_grad(gb);
            }),
        )
    }

    /// Minimum of two tensors, elementwise. Gradient flows to the smaller
    /// operand (ties go to `self`), matching PPO's clipped-objective use.
    pub fn minimum(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().zip(&rhs.value_ref(), f32::min);
        let (pa, pb) = (self.clone(), rhs.clone());
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                let (ga, gb) = {
                    let (a, b) = (pa.value_ref(), pb.value_ref());
                    let ga = g.zip(
                        &a.zip(&b, |x, y| if x <= y { 1.0 } else { 0.0 }),
                        |gi, m| gi * m,
                    );
                    let gb = zip_into(
                        g,
                        &a.zip(&b, |x, y| if x <= y { 0.0 } else { 1.0 }),
                        |gi, m| gi * m,
                    );
                    (ga, gb)
                };
                pa.accumulate_grad(ga);
                pb.accumulate_grad(gb);
            }),
        )
    }

    // ----- unary ops -------------------------------------------------------

    /// Records a one-parent op. `dydx(g, y, x)` maps the output gradient
    /// `g` (owned, so it may be reused in place) to the input gradient,
    /// given the op's output `y` and its input `x`.
    fn unary(
        &self,
        value: Matrix,
        dydx: impl FnOnce(Matrix, &Matrix, &Matrix) -> Matrix + 'static,
    ) -> Tensor {
        let p = self.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, y| {
                let gx = dydx(g, y, &p.value_ref());
                p.accumulate_grad(gx);
            }),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        self.scale(-1.0)
    }

    /// Multiply every element by a constant.
    pub fn scale(&self, s: f32) -> Tensor {
        let out = self.value_ref().scale(s);
        self.unary(out, move |mut g, _, _| {
            g.map_inplace(|x| x * s);
            g
        })
    }

    /// Add a constant to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let out = self.value_ref().map(|x| x + s);
        self.unary(out, |g, _, _| g)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let y = self.value_ref().map(|x| 1.0 / (1.0 + (-x).exp()));
        self.unary(y, |g, y, _| zip_into(g, y, |gi, yi| gi * yi * (1.0 - yi)))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let y = self.value_ref().map(f32::tanh);
        self.unary(y, |g, y, _| zip_into(g, y, |gi, yi| gi * (1.0 - yi * yi)))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let y = self.value_ref().map(|v| v.max(0.0));
        self.unary(y, |g, _, x| {
            zip_into(g, x, |gi, xi| if xi > 0.0 { gi } else { 0.0 })
        })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let y = self.value_ref().map(f32::exp);
        self.unary(y, |g, y, _| zip_into(g, y, |gi, yi| gi * yi))
    }

    /// Elementwise natural logarithm (inputs are clamped to `>= 1e-12`
    /// before the log for numerical safety; the gradient uses the clamped
    /// value).
    pub fn ln(&self) -> Tensor {
        let y = self.value_ref().map(|v| v.max(1e-12).ln());
        self.unary(y, |g, _, x| zip_into(g, x, |gi, xi| gi / xi.max(1e-12)))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        let y = self.value_ref().map(|v| v.max(0.0).sqrt());
        self.unary(y, |g, y, _| {
            zip_into(g, y, |gi, yi| gi * 0.5 / yi.max(1e-12))
        })
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        let y = self.value_ref().map(|v| v * v);
        self.unary(y, |g, _, x| zip_into(g, x, |gi, xi| gi * 2.0 * xi))
    }

    /// Clamp values to `[lo, hi]`; gradient is passed only where the input
    /// was strictly inside the interval.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        let y = self.value_ref().map(|v| v.clamp(lo, hi));
        self.unary(y, move |g, _, x| {
            zip_into(g, x, |gi, xi| if xi > lo && xi < hi { gi } else { 0.0 })
        })
    }

    // ----- reductions & shape ops -------------------------------------------

    /// Sum of every element, as a 1x1 tensor.
    pub fn sum(&self) -> Tensor {
        let (r, c) = self.shape();
        let out = Matrix::from_vec(1, 1, vec![self.value_ref().sum()]);
        self.unary(out, move |g, _, _| Matrix::full(r, c, g[(0, 0)]))
    }

    /// Mean of every element, as a 1x1 tensor.
    pub fn mean(&self) -> Tensor {
        let (r, c) = self.shape();
        let n = (r * c) as f32;
        let out = Matrix::from_vec(1, 1, vec![self.value_ref().mean()]);
        self.unary(out, move |g, _, _| Matrix::full(r, c, g[(0, 0)] / n))
    }

    /// Column-wise sum producing a 1 x cols tensor.
    pub fn sum_rows(&self) -> Tensor {
        let (r, _) = self.shape();
        let out = self.value_ref().sum_rows();
        self.unary(out, move |g, _, _| {
            // broadcast the row gradient back over all rows
            let mut full = Matrix::zeros(r, g.cols());
            for i in 0..r {
                full.row_mut(i).copy_from_slice(g.row(0));
            }
            full
        })
    }

    /// Row-wise sum producing a rows x 1 tensor.
    pub fn sum_cols(&self) -> Tensor {
        let (_, c) = self.shape();
        let out = self.value_ref().sum_cols();
        self.unary(out, move |g, _, _| {
            let rows = g.rows();
            let mut full = Matrix::zeros(rows, c);
            for i in 0..rows {
                let gi = g[(i, 0)];
                full.row_mut(i).iter_mut().for_each(|x| *x = gi);
            }
            full
        })
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().concat_cols(&rhs.value_ref());
        let (pa, pb) = (self.clone(), rhs.clone());
        let split = self.shape().1;
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                pa.accumulate_grad(g.slice_cols(0, split));
                pb.accumulate_grad(g.slice_cols(split, g.cols()));
            }),
        )
    }

    /// Vertical concatenation `[self ; rhs]`.
    pub fn concat_rows(&self, rhs: &Tensor) -> Tensor {
        let out = self.value_ref().concat_rows(&rhs.value_ref());
        let (pa, pb) = (self.clone(), rhs.clone());
        let split = self.shape().0;
        Tensor::from_op(
            out,
            vec![self.clone(), rhs.clone()],
            Box::new(move |g, _| {
                pa.accumulate_grad(g.slice_rows(0, split));
                pb.accumulate_grad(g.slice_rows(split, g.rows()));
            }),
        )
    }

    /// Column slice `[start, end)`. Backward adds into the parent's column
    /// block in place.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let out = self.value_ref().slice_cols(start, end);
        let p = self.clone();
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g, _| p.accumulate_grad_cols(start, &g)),
        )
    }

    /// Reshape, preserving row-major element order.
    pub fn reshape(&self, rows: usize, cols: usize) -> Tensor {
        let out = self.value_ref().reshape(rows, cols);
        let (r, c) = self.shape();
        self.unary(out, move |g, _, _| Matrix::from_vec(r, c, g.into_vec()))
    }

    // ----- structured ops for convolution ----------------------------------

    /// im2col for position-major 1-D sequences.
    ///
    /// Input rows are flattened `(L, C)` sequences (`cols = L * channels`);
    /// output has one row per `(batch, out_position)` pair and `kernel *
    /// channels` columns. Because the layout is position-major, each patch is
    /// a contiguous slice of the input row.
    pub fn unfold1d(&self, channels: usize, kernel: usize, stride: usize) -> Tensor {
        let (batch, width) = self.shape();
        assert!(channels > 0 && kernel > 0 && stride > 0);
        assert_eq!(
            width % channels,
            0,
            "unfold1d: width not divisible by channels"
        );
        let length = width / channels;
        assert!(length >= kernel, "unfold1d: sequence shorter than kernel");
        let out_len = (length - kernel) / stride + 1;
        let patch = kernel * channels;

        let mut out = Matrix::zeros(batch * out_len, patch);
        {
            let x = self.value_ref();
            for b in 0..batch {
                let row = x.row(b);
                for l in 0..out_len {
                    let src = l * stride * channels;
                    out.row_mut(b * out_len + l)
                        .copy_from_slice(&row[src..src + patch]);
                }
            }
        }
        self.unary(out, move |g, _, _| {
            let mut full = Matrix::zeros(batch, width);
            for b in 0..batch {
                for l in 0..out_len {
                    let src = l * stride * channels;
                    let grow = g.row(b * out_len + l);
                    let frow = full.row_mut(b);
                    for (d, &gv) in grow.iter().enumerate() {
                        frow[src + d] += gv;
                    }
                }
            }
            full
        })
    }

    /// 1-D max pooling over position-major sequences (`cols = L * channels`).
    pub fn maxpool1d(&self, channels: usize, kernel: usize, stride: usize) -> Tensor {
        let (batch, width) = self.shape();
        assert_eq!(
            width % channels,
            0,
            "maxpool1d: width not divisible by channels"
        );
        let length = width / channels;
        assert!(length >= kernel, "maxpool1d: sequence shorter than kernel");
        let out_len = (length - kernel) / stride + 1;

        let mut out = Matrix::zeros(batch, out_len * channels);
        let mut argmax = vec![0usize; batch * out_len * channels];
        {
            let x = self.value_ref();
            for b in 0..batch {
                let row = x.row(b);
                for l in 0..out_len {
                    for c in 0..channels {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for k in 0..kernel {
                            let idx = (l * stride + k) * channels + c;
                            if row[idx] > best {
                                best = row[idx];
                                best_idx = idx;
                            }
                        }
                        out[(b, l * channels + c)] = best;
                        argmax[(b * out_len + l) * channels + c] = best_idx;
                    }
                }
            }
        }
        self.unary(out, move |g, _, _| {
            let mut full = Matrix::zeros(batch, width);
            for b in 0..batch {
                for l in 0..out_len {
                    for c in 0..channels {
                        let src = argmax[(b * out_len + l) * channels + c];
                        full.row_mut(b)[src] += g[(b, l * channels + c)];
                    }
                }
            }
            full
        })
    }

    // ----- losses ------------------------------------------------------------
    //
    // A loss keeps its constant target; the input is read back through the
    // parent handle.

    /// Mean squared error against a constant target.
    pub fn mse_loss(&self, target: &Matrix) -> Tensor {
        let (r, c) = self.shape();
        assert_eq!((r, c), target.shape(), "mse_loss: shape mismatch");
        let n = (r * c) as f32;
        let loss = self.value_ref().zip(target, |x, t| (x - t) * (x - t)).sum() / n;
        let out = Matrix::from_vec(1, 1, vec![loss]);
        let target = target.clone();
        self.unary(out, move |g, _, x| {
            let s = 2.0 / n * g[(0, 0)];
            x.zip(&target, |xi, ti| (xi - ti) * s)
        })
    }

    /// Mean absolute error against a constant target.
    pub fn mae_loss(&self, target: &Matrix) -> Tensor {
        let (r, c) = self.shape();
        assert_eq!((r, c), target.shape(), "mae_loss: shape mismatch");
        let n = (r * c) as f32;
        let loss = self.value_ref().zip(target, |x, t| (x - t).abs()).sum() / n;
        let out = Matrix::from_vec(1, 1, vec![loss]);
        let target = target.clone();
        self.unary(out, move |g, _, x| {
            let g = g[(0, 0)];
            x.zip(&target, |xi, ti| (xi - ti).signum() / n * g)
        })
    }

    /// Numerically stable binary cross-entropy on raw logits.
    ///
    /// `labels` must contain values in `[0, 1]`.
    pub fn bce_with_logits_loss(&self, labels: &Matrix) -> Tensor {
        let (r, c) = self.shape();
        assert_eq!((r, c), labels.shape(), "bce_with_logits: shape mismatch");
        let n = (r * c) as f32;
        // loss = max(z,0) - z*y + ln(1 + exp(-|z|))
        let loss = self
            .value_ref()
            .zip(labels, |zi, yi| {
                zi.max(0.0) - zi * yi + (1.0 + (-zi.abs()).exp()).ln()
            })
            .sum()
            / n;
        let out = Matrix::from_vec(1, 1, vec![loss]);
        let labels = labels.clone();
        self.unary(out, move |g, _, z| {
            // d/dz = sigmoid(z) - y
            let g = g[(0, 0)];
            z.zip(&labels, |zi, yi| (1.0 / (1.0 + (-zi).exp()) - yi) / n * g)
        })
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Tensor(id={}, {:?}, requires_grad={})",
            inner.id,
            inner.value.shape(),
            inner.requires_grad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randt(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
        Tensor::parameter(Matrix::randn(r, c, 0.7, rng))
    }

    #[test]
    fn add_backward_is_identity() {
        let a = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = Tensor::parameter(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let c = a.add(&b).sum();
        c.backward();
        assert_eq!(a.grad().as_slice(), &[1.0, 1.0]);
        assert_eq!(b.grad().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn reuse_of_tensor_accumulates() {
        // d/dx (x*x) = 2x
        let x = Tensor::parameter(Matrix::from_vec(1, 1, vec![3.0]));
        let y = x.mul(&x).sum();
        y.backward();
        assert!((x.grad()[(0, 0)] - 6.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = randt(&mut rng, 3, 4);
        let b = randt(&mut rng, 4, 2);
        check_gradients(&[a.clone(), b.clone()], || a.matmul(&b).sum(), 1e-2, 2e-2);
    }

    #[test]
    fn elementwise_gradchecks() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = randt(&mut rng, 2, 3);
        let b = randt(&mut rng, 2, 3);
        check_gradients(&[a.clone(), b.clone()], || a.mul(&b).sum(), 1e-2, 2e-2);
        check_gradients(&[a.clone(), b.clone()], || a.sub(&b).mean(), 1e-2, 2e-2);
        let c = Tensor::parameter(Matrix::from_vec(2, 2, vec![0.5, 1.5, 2.5, 0.7]));
        let d = Tensor::parameter(Matrix::from_vec(2, 2, vec![1.2, -0.8, 0.9, 2.0]));
        check_gradients(&[d.clone(), c.clone()], || d.div(&c).sum(), 1e-3, 2e-2);
    }

    #[test]
    fn activation_gradchecks() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = randt(&mut rng, 2, 4);
        check_gradients(std::slice::from_ref(&a), || a.sigmoid().sum(), 1e-2, 2e-2);
        check_gradients(std::slice::from_ref(&a), || a.tanh().sum(), 1e-2, 2e-2);
        check_gradients(std::slice::from_ref(&a), || a.exp().mean(), 1e-2, 2e-2);
        check_gradients(std::slice::from_ref(&a), || a.square().sum(), 1e-2, 2e-2);
        let pos = Tensor::parameter(Matrix::from_vec(1, 3, vec![0.5, 1.5, 2.5]));
        check_gradients(std::slice::from_ref(&pos), || pos.ln().sum(), 1e-3, 2e-2);
        check_gradients(std::slice::from_ref(&pos), || pos.sqrt().sum(), 1e-3, 2e-2);
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let y = x.relu().sum();
        y.backward();
        assert_eq!(x.grad().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn minimum_routes_gradient_to_smaller() {
        let a = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, 5.0]));
        let b = Tensor::parameter(Matrix::from_vec(1, 2, vec![2.0, 4.0]));
        let m = a.minimum(&b);
        assert_eq!(m.value().as_slice(), &[1.0, 4.0]);
        m.sum().backward();
        assert_eq!(a.grad().as_slice(), &[1.0, 0.0]);
        assert_eq!(b.grad().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn reduction_gradchecks() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = randt(&mut rng, 3, 3);
        check_gradients(
            std::slice::from_ref(&a),
            || a.sum_rows().mul(&a.sum_rows()).sum(),
            1e-2,
            2e-2,
        );
        check_gradients(
            std::slice::from_ref(&a),
            || a.sum_cols().square().sum(),
            1e-2,
            2e-2,
        );
        check_gradients(std::slice::from_ref(&a), || a.mean(), 1e-2, 2e-2);
    }

    #[test]
    fn concat_and_slice_gradchecks() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = randt(&mut rng, 2, 3);
        let b = randt(&mut rng, 2, 2);
        check_gradients(
            &[a.clone(), b.clone()],
            || a.concat_cols(&b).square().sum(),
            1e-2,
            2e-2,
        );
        check_gradients(
            std::slice::from_ref(&a),
            || a.slice_cols(1, 3).square().sum(),
            1e-2,
            2e-2,
        );
        let c = randt(&mut rng, 1, 3);
        check_gradients(
            &[a.clone(), c.clone()],
            || a.concat_rows(&c).square().sum(),
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn bias_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = randt(&mut rng, 4, 3);
        let b = randt(&mut rng, 1, 3);
        check_gradients(
            &[x.clone(), b.clone()],
            || x.add_bias(&b).square().sum(),
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn unfold_and_maxpool_gradchecks() {
        let mut rng = StdRng::seed_from_u64(7);
        // 2 sequences of length 6 with 2 channels
        let x = randt(&mut rng, 2, 12);
        check_gradients(
            std::slice::from_ref(&x),
            || x.unfold1d(2, 3, 1).square().sum(),
            1e-2,
            2e-2,
        );
        check_gradients(
            std::slice::from_ref(&x),
            || x.maxpool1d(2, 2, 2).sum(),
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn maxpool_known_values() {
        // 1 sequence, 1 channel, length 4: [1, 3, 2, 0], k=2, s=2 -> [3, 2]
        let x = Tensor::parameter(Matrix::from_vec(1, 4, vec![1.0, 3.0, 2.0, 0.0]));
        let y = x.maxpool1d(1, 2, 2);
        assert_eq!(y.value().as_slice(), &[3.0, 2.0]);
        y.sum().backward();
        assert_eq!(x.grad().as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn loss_gradchecks() {
        let mut rng = StdRng::seed_from_u64(8);
        let z = randt(&mut rng, 4, 1);
        let target = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        check_gradients(
            std::slice::from_ref(&z),
            || z.bce_with_logits_loss(&target),
            1e-3,
            2e-2,
        );
        check_gradients(std::slice::from_ref(&z), || z.mse_loss(&target), 1e-3, 2e-2);
        check_gradients(std::slice::from_ref(&z), || z.mae_loss(&target), 1e-3, 5e-2);
    }

    #[test]
    fn bce_matches_manual_computation() {
        let z = Tensor::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let y = Matrix::from_vec(1, 1, vec![1.0]);
        let loss = z.bce_with_logits_loss(&y);
        // -ln(sigmoid(0)) = ln 2
        assert!((loss.item() - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn constant_graph_produces_no_gradients() {
        let a = Tensor::constant(Matrix::ones(2, 2));
        let b = Tensor::constant(Matrix::ones(2, 2));
        let c = a.matmul(&b).sum();
        assert!(!c.requires_grad());
        c.backward(); // no-op, must not panic
    }

    #[test]
    fn detach_stops_gradient() {
        let x = Tensor::parameter(Matrix::from_vec(1, 1, vec![2.0]));
        let y = x.detach().mul(&x).sum(); // d/dx = detach(x) = 2, not 2x = 4
        y.backward();
        assert!((x.grad()[(0, 0)] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn clamp_zeroes_outside_gradient() {
        let x = Tensor::parameter(Matrix::from_vec(1, 3, vec![-2.0, 0.5, 2.0]));
        let y = x.clamp(-1.0, 1.0);
        assert_eq!(y.value().as_slice(), &[-1.0, 0.5, 1.0]);
        y.sum().backward();
        assert_eq!(x.grad().as_slice(), &[0.0, 1.0, 0.0]);
    }

    fn has_grad_buffer(t: &Tensor) -> bool {
        t.inner.borrow().grad.is_some()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn negative_zero_upstream_lands_as_positive_zero() {
        // The seed lands in the root's buffer as `+0.0 + seed`, so the
        // `-0.0` upstream gradients are made inside the graph: `neg` turns
        // a `+0.0` gradient into `-0.0` for the op below it.
        let zero = Matrix::zeros(1, 3);
        let pos = |n: usize| vec![0.0f32.to_bits(); n];

        let r = Tensor::parameter(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        r.backward_with(&Matrix::from_vec(1, 3, vec![-0.0; 3]));
        assert_eq!(bits(&r.grad()), pos(3));

        // `add` hands one parent a copy of its gradient and the other the original.
        let a = Tensor::parameter(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let b = Tensor::parameter(Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]));
        a.add(&b).neg().backward_with(&zero);
        assert_eq!(bits(&a.grad()), pos(3));
        assert_eq!(bits(&b.grad()), pos(3));

        // `slice_cols` adds into the parent's column block in place, both
        // into a leaf and into an interior node that passes it on.
        let x = Tensor::parameter(Matrix::from_vec(1, 5, vec![1.0; 5]));
        x.slice_cols(1, 4).neg().backward_with(&zero);
        assert_eq!(bits(&x.grad()), pos(5));
        let y = Tensor::parameter(Matrix::from_vec(1, 5, vec![1.0; 5]));
        y.add_scalar(1.0)
            .slice_cols(2, 5)
            .neg()
            .backward_with(&zero);
        assert_eq!(bits(&y.grad()), pos(5));
    }

    #[test]
    fn slice_gradients_accumulate_per_column_block() {
        // Three disjoint slices and one whole-width use of the same node.
        let x = Tensor::parameter(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let h = x.scale(1.0);
        let loss = h
            .slice_cols(0, 1)
            .scale(2.0)
            .sum()
            .add(&h.slice_cols(1, 3).scale(3.0).sum())
            .add(&h.sum());
        loss.backward();
        assert_eq!(x.grad().as_slice(), &[3.0, 4.0, 4.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn parameter_without_gradient_reads_as_zeros() {
        let used = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let unused = Tensor::parameter(Matrix::from_vec(2, 3, vec![1.0; 6]));
        used.sum().backward();
        assert!(!has_grad_buffer(&unused));
        assert_eq!(unused.grad(), Matrix::zeros(2, 3));

        unused.zero_grad();
        assert_eq!(unused.grad(), Matrix::zeros(2, 3));
        unused.scale_grad(0.5);
        assert_eq!(unused.grad(), Matrix::zeros(2, 3));
        unused.update_value(|v, g| {
            assert_eq!(g, &Matrix::zeros(2, 3));
            v.add(g)
        });
        assert_eq!(unused.value(), Matrix::from_vec(2, 3, vec![1.0; 6]));
        unused.set_grad(Matrix::ones(2, 3));
        assert_eq!(unused.grad(), Matrix::ones(2, 3));
        unused.zero_grad();
        assert_eq!(unused.grad(), Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "set_grad: shape mismatch")]
    fn set_grad_checks_shape_without_a_buffer() {
        Tensor::parameter(Matrix::zeros(2, 3)).set_grad(Matrix::zeros(3, 2));
    }

    #[test]
    fn constants_and_interior_nodes_hold_no_gradient_after_backward() {
        let x = Tensor::constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let w = Tensor::parameter(Matrix::from_vec(2, 1, vec![0.5, -1.0]));
        let h = x.matmul(&w);
        let loss = h.tanh().sum();
        loss.backward();
        assert!(!has_grad_buffer(&x));
        assert!(!has_grad_buffer(&h));
        assert!(!has_grad_buffer(&loss));
        assert_eq!(h.grad(), Matrix::zeros(2, 1));
        assert!(has_grad_buffer(&w));
    }

    #[test]
    fn node_used_as_both_operands_backpropagates() {
        // Expected gradients accumulate in the tape's order: left operand
        // first, each into a buffer that starts at +0.0.
        let xv = Matrix::from_vec(2, 2, vec![0.3, -1.2, 0.7, 2.1]);
        let g = Matrix::ones(2, 2);

        let x = Tensor::parameter(xv.clone());
        x.mul(&x).sum().backward();
        let mut expected = Matrix::zeros(2, 2);
        expected.add_assign(&g.hadamard(&xv));
        expected.add_assign(&g.hadamard(&xv));
        assert_eq!(bits(&x.grad()), bits(&expected));

        let x = Tensor::parameter(xv.clone());
        x.matmul(&x).sum().backward();
        let mut expected = Matrix::zeros(2, 2);
        expected.add_assign(&g.matmul_t(&xv));
        expected.add_assign(&xv.t_matmul(&g));
        assert_eq!(bits(&x.grad()), bits(&expected));

        let x = Tensor::parameter(xv.clone());
        x.div(&x).sum().backward();
        let mut expected = Matrix::zeros(2, 2);
        expected.add_assign(&g.zip(&xv, |gi, y| gi / y));
        expected.add_assign(&g.hadamard(&xv).zip(&xv, |n, y| -n / (y * y)));
        assert_eq!(bits(&x.grad()), bits(&expected));

        let x = randt(&mut StdRng::seed_from_u64(9), 3, 3);
        check_gradients(std::slice::from_ref(&x), || x.matmul(&x).sum(), 1e-2, 2e-2);
        check_gradients(std::slice::from_ref(&x), || x.mul(&x).sum(), 1e-2, 2e-2);
    }

    #[test]
    fn deep_chain_backward() {
        // Long chains should not blow the stack (iterative DFS).
        let mut x = Tensor::parameter(Matrix::from_vec(1, 1, vec![1.0]));
        let root = x.clone();
        for _ in 0..5_000 {
            x = x.add_scalar(0.0);
        }
        x.sum().backward();
        assert!((root.grad()[(0, 0)] - 1.0).abs() < 1e-6);
    }
}
