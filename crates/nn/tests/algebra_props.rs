//! Property tests over the matrix kernel and autograd engine: the
//! algebraic laws every higher layer silently depends on.

use proptest::prelude::*;

use amoeba_nn::matrix::Matrix;
use amoeba_nn::tensor::Tensor;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// `rows × cols` in [-2, 2) with every entry below `zero_below` set to
/// exactly `0.0`.
fn with_zeros(rows: usize, cols: usize, zero_below: f32, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .map(|v| if v < zero_below { 0.0 } else { v })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        prop_assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{x} vs {y}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (AB)C = A(BC) within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 5),
        c in arb_matrix(5, 2),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-4)?;
    }

    /// A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes_over_add(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 3),
        c in arb_matrix(4, 3),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert_close(&left, &right, 1e-4)?;
    }

    /// (A^T)^T = A and (AB)^T = B^T A^T.
    #[test]
    fn transpose_laws(a in arb_matrix(3, 5), b in arb_matrix(5, 2)) {
        assert_close(&a.transpose().transpose(), &a, 0.0)?;
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-5)?;
    }

    /// The fused transpose products, at the detected level, are
    /// bit-identical to `matmul_naive` on explicit transposes. For
    /// `matmul_t` that reference skips zero lhs terms and `matmul_t` does
    /// not, but with a finite rhs each skipped term adds `±0.0` to an
    /// accumulator that started at `+0.0`, which changes no bit. Random
    /// shapes straddle every leg's lane width and tile; a third of the
    /// lhs entries are exact zeros. The `simd` unit tests pin every level
    /// and the non-finite case.
    #[test]
    fn fused_transpose_products(
        m in 1usize..=40,
        k in 0usize..=40,
        n in 1usize..=90,
        seed in any::<u64>(),
    ) {
        let a = with_zeros(k, m, -0.7, seed);
        let b = with_zeros(k, n, -2.0, seed ^ 1);
        let c = with_zeros(m, k, -0.7, seed ^ 2);
        let d = with_zeros(n, k, -2.0, seed ^ 3);
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a.t_matmul(&b)), bits(&a.transpose().matmul_naive(&b)));
        prop_assert_eq!(bits(&c.matmul_t(&d)), bits(&c.matmul_naive(&d.transpose())));
    }

    /// Row-gather of everything in order is the identity.
    #[test]
    fn gather_all_rows_is_identity(a in arb_matrix(4, 3)) {
        let idx: Vec<usize> = (0..4).collect();
        assert_close(&a.gather_rows(&idx), &a, 0.0)?;
    }

    /// concat then slice round-trips.
    #[test]
    fn concat_slice_roundtrip(a in arb_matrix(3, 2), b in arb_matrix(3, 4)) {
        let cat = a.concat_cols(&b);
        assert_close(&cat.slice_cols(0, 2), &a, 0.0)?;
        assert_close(&cat.slice_cols(2, 6), &b, 0.0)?;
    }

    /// Gradient of sum(A ∘ B) wrt A equals B (autograd sanity beyond the
    /// unit gradchecks).
    #[test]
    fn hadamard_sum_gradient(a in arb_matrix(3, 3), b in arb_matrix(3, 3)) {
        let ta = Tensor::parameter(a);
        let tb = Tensor::constant(b.clone());
        ta.mul(&tb).sum().backward();
        assert_close(&ta.grad(), &b, 1e-6)?;
    }

    /// Gradient of a linear map y = xW summed is x-independent: dW = x^T 1.
    #[test]
    fn linear_map_gradient(x in arb_matrix(4, 3), w in arb_matrix(3, 2)) {
        let tx = Tensor::constant(x.clone());
        let tw = Tensor::parameter(w);
        tx.matmul(&tw).sum().backward();
        let expected = x.t_matmul(&Matrix::ones(4, 2));
        assert_close(&tw.grad(), &expected, 1e-5)?;
    }

    /// Softplus-free BCE is bounded below by 0 and finite for any logits.
    #[test]
    fn bce_is_finite_nonnegative(z in arb_matrix(4, 1)) {
        let labels = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let loss = Tensor::parameter(z).bce_with_logits_loss(&labels);
        let v = loss.item();
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
    }

    /// Reshape preserves the sum (it never copies out of order).
    #[test]
    fn reshape_preserves_content(a in arb_matrix(4, 6)) {
        let r = a.reshape(6, 4);
        prop_assert_eq!(a.as_slice(), r.as_slice());
    }
}

proptest! {
    // Few cases: each one multiplies matrices up to 512x512 twice.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The blocked cache-tiled kernel is bit-identical to the naive
    /// reference on random shapes up to 512x512 — the contract that makes
    /// the serving dataplane's batched/sharded inference exact.
    #[test]
    fn blocked_matmul_is_bit_exact_up_to_512(
        m in 1usize..=512,
        k in 1usize..=512,
        n in 1usize..=512,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        // Exact zeros exercise the shared skip path.
        for v in a.as_mut_slice().iter_mut() {
            if *v > 1.0 {
                *v = 0.0;
            }
        }
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        prop_assert_eq!(blocked.shape(), naive.shape());
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The runtime-dispatched SIMD micro-kernel is bit-identical to the
    /// naive reference on random shapes up to 512x512 — including
    /// non-multiple-of-lane-width column tails (shapes are unconstrained,
    /// so most draws straddle the 8-wide AVX2 / 4-wide SSE2 lanes), exact
    /// zeros (the shared skip path), and the 1-row / 1-col edges.
    #[test]
    fn simd_matmul_is_bit_exact_up_to_512(
        m in 1usize..=512,
        k in 1usize..=512,
        n in 1usize..=512,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        for v in a.as_mut_slice().iter_mut() {
            if *v > 1.0 {
                *v = 0.0;
            }
        }
        let simd = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        prop_assert_eq!(simd.shape(), naive.shape());
        for (x, y) in simd.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn simd_matmul_empty_and_single_row_edges_match_naive() {
    // Empty inner / outer dimensions short-circuit to zeros.
    for (a, b) in [
        (Matrix::zeros(3, 0), Matrix::zeros(0, 5)),
        (Matrix::zeros(0, 4), Matrix::zeros(4, 2)),
        (Matrix::zeros(2, 4), Matrix::zeros(4, 0)),
    ] {
        let simd = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        assert_eq!(simd.shape(), naive.shape());
        assert_eq!(simd.as_slice(), naive.as_slice());
    }
    // A 1-row product with a sub-lane-width tail.
    let a = Matrix::row_vector(vec![0.5, -1.5, 0.0]);
    let b = Matrix::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.3 - 2.0).collect());
    let simd = a.matmul(&b);
    let naive = a.matmul_naive(&b);
    for (x, y) in simd.as_slice().iter().zip(naive.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
