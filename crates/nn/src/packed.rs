//! Prepared right-hand sides: weight matrices reorganised **once, at
//! policy freeze**, into a form the serving matmuls can consume faster
//! than the row-major original.
//!
//! The [`PreparedRhs`] trait is the seam between the two exactness
//! tiers the serving stack offers:
//!
//! * [`PackedWeights`] (this module) — **tier A, bit-exact**. The
//!   weights are permuted into the panel-packed layout of
//!   [`crate::simd::pack_rhs`], so the blocked kernel's inner loop
//!   streams the weight slab sequentially instead of striding by the
//!   row width. Packing changes only load *addresses*, never any
//!   output element's ascending-`k` summation order or its mul/add
//!   roundings, so every product is bit-identical to
//!   [`Matrix::matmul_naive`].
//! * [`crate::quant::QuantWeights`] — **tier B, tolerance**. Weights
//!   are quantized to per-column symmetric int8; products carry bounded
//!   quantization error and are *deliberately not* bit-identical.
//!
//! Both tiers share the generic `Prepared*` layer structs
//! ([`crate::layers::PreparedLinear`], [`crate::rnn::PreparedGruCell`],
//! …), so the layer logic is written once and instantiated per tier.
//! Every implementation must be a **pure function of the weights and
//! the input** — deterministic and row-independent — because the serve
//! dataplane's batching/sharding invariants (batch composition never
//! changes a session's output) rest on exactly that.

use crate::matrix::Matrix;
use crate::simd::{matmul_packed_into, pack_rhs, SimdLevel};

/// A weight matrix prepared (re-laid-out, possibly re-encoded) for fast
/// repeated left-multiplication `x · W`.
///
/// Implementations must be deterministic pure functions of the original
/// weights and the input, and must compute each output **row**
/// independently of the others — the properties the serving stack's
/// determinism contract needs. Bit-exactness with the unprepared matmul
/// is *per-implementation*: [`PackedWeights`] guarantees it,
/// [`crate::quant::QuantWeights`] deliberately trades it for speed.
pub trait PreparedRhs: Clone + std::fmt::Debug + Send + Sync {
    /// Prepares a row-major `(k, n)` weight matrix.
    fn prepare(w: &Matrix) -> Self;

    /// `(k, n)` shape of the original weight matrix.
    fn shape(&self) -> (usize, usize);

    /// Accumulates `lhs · W` into the zeroed `out` buffer, where `lhs`
    /// is `(m, k)` row-major and `out` is `(m, n)` row-major.
    fn matmul_into(&self, lhs: &[f32], out: &mut [f32], m: usize);

    /// Computes `x · W` for a `(m, k)` input, returning a fresh
    /// `(m, n)` matrix.
    ///
    /// # Panics
    /// Panics if `x.cols()` does not match the prepared weight height.
    fn forward(&self, x: &Matrix) -> Matrix {
        let (k, n) = self.shape();
        assert_eq!(x.cols(), k, "PreparedRhs::forward: inner dim mismatch");
        let mut out = Matrix::zeros(x.rows(), n);
        self.matmul_into(x.as_slice(), out.as_mut_slice(), x.rows());
        out
    }
}

/// Tier-A prepared weights: the panel-packed layout of
/// [`crate::simd::pack_rhs`], multiplied via
/// [`crate::simd::matmul_packed_into`] at the SIMD level detected when
/// the weights were prepared.
///
/// Products are **bit-identical** to [`Matrix::matmul_naive`] (and so to
/// [`Matrix::matmul`] at every [`SimdLevel`]) on every input: packing permutes
/// only the addresses of the weight loads. The win is purely
/// bandwidth — the kernel walks each `K × NC` weight slab as one linear
/// stream instead of `K` stride-`n` rows.
#[derive(Clone, Debug)]
pub struct PackedWeights {
    packed: Vec<f32>,
    k: usize,
    n: usize,
    level: SimdLevel,
}

impl PreparedRhs for PackedWeights {
    fn prepare(w: &Matrix) -> Self {
        Self {
            packed: pack_rhs(w.as_slice(), w.rows(), w.cols()),
            k: w.rows(),
            n: w.cols(),
            level: SimdLevel::detect(),
        }
    }

    fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    fn matmul_into(&self, lhs: &[f32], out: &mut [f32], m: usize) {
        matmul_packed_into(self.level, lhs, &self.packed, out, m, self.k, self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Packed products are bit-identical to the dispatched SIMD kernel
    /// (and therefore to the naive reference) on lane-straddling shapes.
    #[test]
    fn packed_forward_is_bit_identical_to_matmul() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1usize, 4usize, 9usize),
            (3, 7, 255),
            (5, 2, 256),
            (8, 16, 300),
        ] {
            let x = Matrix::randn(m, k, 1.0, &mut rng);
            let w = Matrix::randn(k, n, 1.0, &mut rng);
            let prepared = PackedWeights::prepare(&w);
            assert_eq!(prepared.shape(), (k, n));
            let got = prepared.forward(&x);
            let want = x.matmul(&w);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{m}x{k} * {k}x{n}");
            }
        }
    }

    /// Row independence: each row of a batched product equals the
    /// product of that row alone (the dataplane's batching invariant).
    #[test]
    fn packed_forward_rows_are_independent() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Matrix::randn(6, 10, 1.0, &mut rng);
        let w = Matrix::randn(10, 17, 1.0, &mut rng);
        let prepared = PackedWeights::prepare(&w);
        let batched = prepared.forward(&x);
        for r in 0..x.rows() {
            let single = prepared.forward(&Matrix::from_vec(1, x.cols(), x.row(r).to_vec()));
            for (a, b) in batched.row(r).iter().zip(single.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn packed_forward_rejects_dim_mismatch() {
        let w = Matrix::ones(4, 3);
        let prepared = PackedWeights::prepare(&w);
        let _ = prepared.forward(&Matrix::ones(2, 5));
    }
}
