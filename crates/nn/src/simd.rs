//! Runtime-dispatched SIMD matmul kernels: the register-tiled nest
//! behind [`crate::matrix::Matrix::matmul`], [`crate::matrix::Matrix::t_matmul`]
//! and [`crate::matrix::Matrix::matmul_t`] (the autograd forward and
//! backward products, and the product behind every frozen-snapshot
//! forward: serving, rollouts and evaluation), the scalar blocked axpy
//! nest that [`SimdLevel::Scalar`] runs (the path on hosts without SIMD
//! and the reference every level is pinned against).
//!
//! ## The bit-exactness obligation
//!
//! The serving dataplane (`amoeba-serve`) requires every inference kernel
//! to produce results **bit-identical** to the naive reference
//! ([`crate::matrix::Matrix::matmul_naive`]): wire output must be a pure
//! function of `(seed, session_id, policy, censor)`, never of which
//! kernel, batch size or shard count executed the math. Training needs the
//! same of its kernels, because the serving fingerprints pin a policy that
//! was *trained* through them. The usual way a SIMD matmul breaks this is
//! by re-associating the `k`-reduction (horizontal adds over lanes) or by
//! fusing multiply and add into one rounding (`FMA`). These kernels do
//! neither:
//!
//! * Vectorisation runs over the **output columns `j`**, not the
//!   reduction dimension `k`. Each output element `out[i][j]` still
//!   accumulates its `a[i][k] * b[k][j]` terms one `k` at a time, in
//!   ascending-`k` order — lanes hold *different* output elements, so no
//!   reduction is ever reordered.
//! * Only `mul` then `add` intrinsics are used (`_mm256_mul_ps` +
//!   `_mm256_add_ps`, never `_mm256_fmadd_ps`): two IEEE-754 roundings,
//!   exactly like the scalar `o += a * b` (rustc performs no FP
//!   contraction).
//! * The `a == 0.0` skip of the reference kernel is preserved, so even
//!   non-finite right-hand entries behave identically (`0 * inf` is never
//!   formed). [`matmul_t_into`] is the one product without the skip,
//!   because its reference, the serial dot product, has none; its nest
//!   runs with the skip switched off.
//!
//! ## Register tiling
//!
//! The scalar axpy nest loads and stores a slice of `out` for every `k`. The
//! register-tiled nest instead keeps an `MR × NR` tile of outputs (4 rows
//! by 4 vectors of 16 lanes on AVX-512, 3 × 8 on AVX2, 2 × 4 on SSE2 — as
//! many accumulators as the register file holds) in vector registers for
//! the whole ascending-`k` walk and stores it once. Tiling only moves
//! *where* a partial sum lives between two steps, never *how* it is
//! formed: each accumulator starts at `+0.0` — the value the reference's
//! zeroed `out` holds — and for each `k` in ascending order takes one
//! `mul` and one `add` (or nothing, for a skipped `a == 0.0`), so its
//! final bits equal the reference's. Row tails (`m % MR`) run the same
//! tile with fewer rows; column tails run single-vector tiles, and the
//! last `n % W` columns run against a zero-padded copy whose extra lanes
//! are never stored. The left operand is read through a strided view, so
//! [`t_matmul_into`] feeds it `lhsᵀ` without a copy; [`matmul_t_into`]
//! transposes its right operand once, a pure copy (the autograd tape
//! keeps that copy for each weight until the weight changes, through
//! `matmul_t_memo_into`).
//!
//! ## Dispatch
//!
//! [`SimdLevel::detect`] picks the widest available instruction set once
//! per process (AVX-512F → AVX2 → SSE2 on x86-64, scalar elsewhere); the
//! level can also be forced per call for testing. [`SimdLevel::Scalar`]
//! runs the blocked axpy nest (the reference), every vector level the
//! register-tiled nest; one macro generates the three vector legs.
//! Detection uses `std::is_x86_feature_detected!`, so the same binary
//! runs correctly on any host. The AVX-512 leg obeys the same obligation
//! as the narrower ones: 16-lane `mul` then `add` (`_mm512_mul_ps` +
//! `_mm512_add_ps`, never an FMA), lanes over output columns only.
//!
//! ## `tanh`
//!
//! [`crate::math::tanh`] dispatches here too (`tanh_into`), so every
//! `unsafe` block of the crate stays in this file: one loop over
//! fdlibm's `tanhf` as a branch-free lane function, compiled with
//! `#[target_feature]` for AVX-512F and AVX2 and as a plain loop for
//! SSE2 (the x86-64 baseline) and scalar. The compiler vectorises the
//! loop; each lane runs the same IEEE-754 operations at any width.

use std::fmt;

/// The widest SIMD instruction set the running CPU offers for the f32
/// matmul and `tanh` kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// 512-bit AVX-512F lanes (16 f32 per op).
    Avx512,
    /// 256-bit AVX2 lanes (8 f32 per op).
    Avx2,
    /// 128-bit SSE2 lanes (4 f32 per op; baseline on x86-64).
    Sse2,
    /// No vector unit used; plain scalar loop.
    Scalar,
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Scalar => "scalar",
        })
    }
}

impl SimdLevel {
    /// Detects the widest level the running CPU supports (cached after
    /// the first call). Non-x86-64 targets always report
    /// [`SimdLevel::Scalar`].
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
            *LEVEL.get_or_init(|| {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    SimdLevel::Avx512
                } else if std::arch::is_x86_feature_detected!("avx2") {
                    SimdLevel::Avx2
                } else if std::arch::is_x86_feature_detected!("sse2") {
                    SimdLevel::Sse2
                } else {
                    SimdLevel::Scalar
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    }

    /// True when this level is executable on the running CPU (scalar is
    /// always available).
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The scalar reference micro-panel — identical code to the inner loop of
/// the blocked [`crate::matrix::Matrix::matmul`].
#[inline]
fn axpy_scalar(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// Accumulates `lhs * rhs` into the zeroed `out` buffer at one SIMD
/// level — the entry point behind [`crate::matrix::Matrix::matmul`]
/// (which passes [`SimdLevel::detect`]). [`SimdLevel::Scalar`] runs the
/// blocked axpy nest, the reference; every vector level runs the
/// register-tiled nest (see the [module docs](self)). Either nest is
/// called once per matmul, so the per-call cost of crossing into
/// `#[target_feature]` code is paid once instead of once per tile. `lhs`
/// is `(m, kk)` row-major, `rhs` is `(kk, n)`, `out` is `(m, n)` and must
/// start zeroed.
///
/// Every level keeps each output element's ascending-`k` mul/add
/// sequence and the `a == 0.0` skip, hence all levels produce results
/// bit-identical to [`crate::matrix::Matrix::matmul_naive`].
///
/// # Panics
/// Panics on slice/dimension mismatch or an unavailable level.
pub fn matmul_into(
    level: SimdLevel,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * kk, "matmul_into: lhs size");
    assert_eq!(rhs.len(), kk * n, "matmul_into: rhs size");
    assert_eq!(out.len(), m * n, "matmul_into: out size");
    assert!(
        level.is_available(),
        "matmul_into: {level} not available on host"
    );
    if n == 0 || kk == 0 || m == 0 {
        return;
    }
    if level == SimdLevel::Scalar {
        matmul_blocked_scalar(lhs, rhs, out, m, kk, n);
    } else {
        let lhs = Lhs {
            data: lhs,
            rs: kk,
            cs: 1,
        };
        matmul_tiled::<true>(level, lhs, rhs, out, m, kk, n);
    }
}

/// Accumulates `lhsᵀ * rhs` into the zeroed `out` buffer without
/// materialising the transpose — the autograd weight gradient
/// ([`crate::matrix::Matrix::t_matmul`]). `lhs` is `(kk, m)` row-major,
/// `rhs` is `(kk, n)`, `out` is `(m, n)`. Vector levels feed the
/// transposed view of `lhs` to the register-tiled nest (element `(i, k)`
/// read at `lhs[k * m + i]`); [`SimdLevel::Scalar`] runs the `k`-outer
/// axpy loop. Both skip `a == 0.0` terms, so every level is bit-identical
/// to `lhs.transpose().matmul_naive(rhs)`.
///
/// # Panics
/// Panics on slice/dimension mismatch or an unavailable level.
pub fn t_matmul_into(
    level: SimdLevel,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), kk * m, "t_matmul_into: lhs size");
    assert_eq!(rhs.len(), kk * n, "t_matmul_into: rhs size");
    assert_eq!(out.len(), m * n, "t_matmul_into: out size");
    assert!(
        level.is_available(),
        "t_matmul_into: {level} not available on host"
    );
    if n == 0 || kk == 0 || m == 0 {
        return;
    }
    if level == SimdLevel::Scalar {
        for k in 0..kk {
            let b_row = &rhs[k * n..(k + 1) * n];
            for i in 0..m {
                let a = lhs[k * m + i];
                if a == 0.0 {
                    continue;
                }
                axpy_scalar(&mut out[i * n..(i + 1) * n], a, b_row);
            }
        }
    } else {
        let lhs = Lhs {
            data: lhs,
            rs: 1,
            cs: m,
        };
        matmul_tiled::<true>(level, lhs, rhs, out, m, kk, n);
    }
}

/// Writes `lhs * rhsᵀ` into the zeroed `out` buffer — the autograd input
/// gradient ([`crate::matrix::Matrix::matmul_t`]). `lhs` is `(m, kk)`
/// row-major, `rhs` is `(n, kk)`, `out` is `(m, n)`. Unlike the other
/// two products this one does **not** skip `a == 0.0` terms: every
/// output element is `+0.0` plus every `a * b` term in ascending-`k`
/// order, the serial dot product [`SimdLevel::Scalar`] runs. Vector
/// levels transpose `rhs` once (a pure copy) and feed it to the
/// register-tiled nest with the skip switched off, which performs that
/// same sequence per element, so every level is bit-identical.
///
/// # Panics
/// Panics on slice/dimension mismatch or an unavailable level.
pub fn matmul_t_into(
    level: SimdLevel,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    matmul_t_memo_into(level, lhs, rhs, &mut None, out, m, kk, n);
}

/// [`matmul_t_into`] with `rhsᵀ` memoised in `rhs_t`: a vector level
/// fills an empty slot with the transposed copy and reads a filled one
/// as it is, so a caller that multiplies by the same `rhs` many times
/// transposes it once. [`SimdLevel::Scalar`] never touches the slot. The
/// caller must empty the slot whenever `rhs` changes.
///
/// # Panics
/// Panics on slice/dimension mismatch, an unavailable level, or a filled
/// slot of the wrong size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_t_memo_into(
    level: SimdLevel,
    lhs: &[f32],
    rhs: &[f32],
    rhs_t: &mut Option<Vec<f32>>,
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * kk, "matmul_t_into: lhs size");
    assert_eq!(rhs.len(), n * kk, "matmul_t_into: rhs size");
    assert_eq!(out.len(), m * n, "matmul_t_into: out size");
    assert!(
        level.is_available(),
        "matmul_t_into: {level} not available on host"
    );
    if n == 0 || kk == 0 || m == 0 {
        return;
    }
    if level == SimdLevel::Scalar {
        for i in 0..m {
            let a_row = &lhs[i * kk..(i + 1) * kk];
            for j in 0..n {
                let b_row = &rhs[j * kk..(j + 1) * kk];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out[i * n + j] = acc;
            }
        }
    } else {
        let rhs_t = rhs_t.get_or_insert_with(|| crate::matrix::transpose_slice(rhs, n, kk));
        let lhs = Lhs {
            data: lhs,
            rs: kk,
            cs: 1,
        };
        matmul_tiled::<false>(level, lhs, rhs_t, out, m, kk, n);
    }
}

/// Column-panel width shared by every blocked kernel in this module (a
/// full `K x NC` slab of the right operand stays L2-resident).
const NC: usize = 256;
/// Micro-kernel height: each loaded `rhs` row feeds this many output
/// rows, in the scalar nest and in the register tiles alike.
const MR: usize = 4;

/// The scalar blocked loop nest — [`SimdLevel::Scalar`]'s kernel, so
/// what non-x86-64 targets run everywhere and the reference every vector
/// level is pinned against. NC/MR tiling, ascending-`k` accumulation per
/// output element through `out`, and the `a == 0.0` skip.
fn matmul_blocked_scalar(lhs: &[f32], rhs: &[f32], out: &mut [f32], m: usize, kk: usize, n: usize) {
    assert_eq!(lhs.len(), m * kk, "matmul_blocked_scalar: lhs size");
    assert_eq!(rhs.len(), kk * n, "matmul_blocked_scalar: rhs size");
    assert_eq!(out.len(), m * n, "matmul_blocked_scalar: out size");
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NC).min(n);
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + MR).min(m);
            for k in 0..kk {
                let b_panel = &rhs[k * n + j0..k * n + j1];
                for i in i0..i1 {
                    // SAFETY: `i < m` and `k < kk`, so `i * kk + k <
                    // m * kk == lhs.len()` (asserted above). The load is
                    // unchecked because a panic path inside the hot nest
                    // defeats unrolling of the axpy lane loop.
                    let a = unsafe { *lhs.get_unchecked(i * kk + k) };
                    if a == 0.0 {
                        continue;
                    }
                    axpy_scalar(&mut out[i * n + j0..i * n + j1], a, b_panel);
                }
            }
            i0 = i1;
        }
        j0 = j1;
    }
}

/// A strided view of the left operand: element `(i, k)` lives at
/// `data[i * rs + k * cs]`. Row-major `(m, kk)` is `rs = kk, cs = 1`; the
/// transpose of a row-major `(kk, m)` matrix is `rs = 1, cs = m`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl Lhs<'_> {
    /// True when every `(i, k)` with `i < m`, `k < kk` is in bounds —
    /// the precondition of the tiled nests' unchecked loads.
    fn covers(&self, m: usize, kk: usize) -> bool {
        m == 0 || kk == 0 || (m - 1) * self.rs + (kk - 1) * self.cs < self.data.len()
    }
}

/// Runs the register-tiled nest at a vector `level` (`SKIP` selects the
/// `a == 0.0` skip). `out` is `(m, n)`, `rhs` is row-major `(kk, n)`.
fn matmul_tiled<const SKIP: bool>(
    level: SimdLevel,
    lhs: Lhs<'_>,
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert!(lhs.covers(m, kk), "matmul_tiled: lhs view out of bounds");
    assert_eq!(rhs.len(), kk * n, "matmul_tiled: rhs size");
    assert_eq!(out.len(), m * n, "matmul_tiled: out size");
    assert!(level.is_available(), "matmul_tiled: {level} not available");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the view bound and both sizes are asserted above, and
        // so is the level's availability on this host.
        SimdLevel::Avx512 => unsafe { tiled_avx512::matmul::<SKIP>(lhs, rhs, out, m, kk, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the view bound and both sizes are asserted above, and
        // so is the level's availability on this host.
        SimdLevel::Avx2 => unsafe { tiled_avx2::matmul::<SKIP>(lhs, rhs, out, m, kk, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the view bound and both sizes are asserted above, and
        // so is the level's availability on this host.
        SimdLevel::Sse2 => unsafe { tiled_sse2::matmul::<SKIP>(lhs, rhs, out, m, kk, n) },
        _ => unreachable!("matmul_tiled: {level} has no register-tiled nest"),
    }
}

/// Generates one register-tiled matmul per level from a **single**
/// loop-nest definition, parameterised by the lane count, the number of
/// vectors per tile row, the vector type and its six operations (and,
/// for the vector legs, a `#[target_feature]` attribute), so the legs
/// cannot drift apart.
///
/// The nest walks `NC`-wide column panels; inside a panel, blocks of
/// `MR` output rows; inside a block, tiles of `NV` vectors (`NV * W`
/// columns), then single vectors, then a last partial vector whose `rhs`
/// columns were copied once into a zero-padded `kk × W` buffer. A tile
/// holds its `R × N` output vectors in registers for the whole `k` walk:
/// they start at `+0.0` and, for each `k` in ascending order, take one
/// `mul` and one `add` per row whose `a` is non-zero (or every row when
/// `SKIP` is off), then are stored once. That is the reference's exact
/// per-element sequence; only the loads and stores of `out` disappear.
/// The `m % MR` row tail runs the same tiles at `R = m % MR`.
///
/// Every function is `unsafe fn`: the caller guarantees
/// `lhs.covers(m, kk)`, `rhs.len() == kk * n`, `out.len() == m * n` and,
/// for the `#[target_feature]` legs, that the feature is available —
/// `matmul_tiled` asserts all of them up front.
macro_rules! tiled_matmul_impl {
    (
        $(#[$attr:meta])*
        mod $name:ident {
            lanes: $w:literal,
            vectors: $nv:literal,
            vector: $v:ty,
            zero: $zero:expr,
            splat: $splat:path,
            load: $load:path,
            store: $store:path,
            add: $add:path,
            mul: $mul:path $(,)?
        }
    ) => {
        #[allow(clippy::too_many_arguments)]
        mod $name {
            use super::*;

            /// f32 lanes per vector.
            const W: usize = $w;
            /// Vectors per row of a full tile.
            const NV: usize = $nv;

            /// One `R × (N * W)` tile: `c[r * ldc + j] = Σ_k a(r, k) *
            /// b[k * ldb + j]`, with `a(r, k)` at `a[r * rs + k * cs]`.
            ///
            /// # Safety
            /// All of `a(r, k)`, `b[k * ldb + j]`, `c[r * ldc + j]` for `r <
            /// R`, `k < kk`, `j < N * W` in bounds; the level's feature.
            #[inline]
            $(#[$attr])*
            unsafe fn tile<const R: usize, const N: usize, const SKIP: bool>(
                a: *const f32,
                rs: usize,
                cs: usize,
                b: *const f32,
                ldb: usize,
                c: *mut f32,
                ldc: usize,
                kk: usize,
            ) {
                let mut acc: [[$v; N]; R] = [[$zero; N]; R];
                for k in 0..kk {
                    // SAFETY: in bounds by this function's contract.
                    let bk = b.add(k * ldb);
                    let mut bv: [$v; N] = [$zero; N];
                    for (v, slot) in bv.iter_mut().enumerate() {
                        // SAFETY: columns `v * W..(v + 1) * W` of row `k`.
                        *slot = $load(bk.add(v * W));
                    }
                    for (r, row) in acc.iter_mut().enumerate() {
                        // SAFETY: `a(r, k)` is in bounds by contract.
                        let x = *a.add(r * rs + k * cs);
                        if SKIP && x == 0.0 {
                            continue;
                        }
                        let xv = $splat(x);
                        for (o, &bvv) in row.iter_mut().zip(&bv) {
                            *o = $add(*o, $mul(xv, bvv));
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (v, &o) in row.iter().enumerate() {
                        // SAFETY: row `r`, columns `v * W..(v + 1) * W`.
                        $store(c.add(r * ldc + v * W), o);
                    }
                }
            }

            /// Output rows `i0..i0 + R`, columns `j0..j1` of the panel.
            /// `pad` is the zero-padded `kk × W` copy of the `rhs`
            /// columns past the last full vector (empty when `n % W ==
            /// 0`).
            ///
            /// # Safety
            /// `i0 + R <= m`, `j1 <= n`, plus the nest's contract.
            #[inline]
            $(#[$attr])*
            unsafe fn rows<const R: usize, const SKIP: bool>(
                lhs: Lhs<'_>,
                rhs: &[f32],
                pad: &[f32],
                out: &mut [f32],
                i0: usize,
                j0: usize,
                j1: usize,
                kk: usize,
                n: usize,
            ) {
                // SAFETY: `i0 < m`, so row `i0` of the view is in bounds.
                let a = lhs.data.as_ptr().add(i0 * lhs.rs);
                let c = out.as_mut_ptr().add(i0 * n);
                let b = rhs.as_ptr();
                let mut j = j0;
                while j + NV * W <= j1 {
                    // SAFETY: rows `i0..i0 + R`, columns `j..j + NV * W`
                    // are inside `lhs`, `rhs` and `out`.
                    tile::<R, NV, SKIP>(a, lhs.rs, lhs.cs, b.add(j), n, c.add(j), n, kk);
                    j += NV * W;
                }
                while j + W <= j1 {
                    // SAFETY: as above, for one vector of columns.
                    tile::<R, 1, SKIP>(a, lhs.rs, lhs.cs, b.add(j), n, c.add(j), n, kk);
                    j += W;
                }
                if j < j1 {
                    // The last `j1 - j < W` columns: the padded copy is a
                    // full `kk × W` operand and the tile lands in a stack
                    // buffer, from which only the real columns are copied.
                    debug_assert_eq!(pad.len(), kk * W);
                    let mut buf = [0.0f32; MR * W];
                    // SAFETY: `pad` is `kk × W` and `buf` is `MR × W`
                    // with `R <= MR`.
                    tile::<R, 1, SKIP>(a, lhs.rs, lhs.cs, pad.as_ptr(), W, buf.as_mut_ptr(), W, kk);
                    for r in 0..R {
                        out[(i0 + r) * n + j..(i0 + r) * n + j1]
                            .copy_from_slice(&buf[r * W..r * W + (j1 - j)]);
                    }
                }
            }

            /// The whole nest.
            ///
            /// # Safety
            /// `lhs.covers(m, kk)`, `rhs.len() == kk * n`, `out.len() ==
            /// m * n`, and the level's feature on the host.
            $(#[$attr])*
            pub(super) unsafe fn matmul<const SKIP: bool>(
                lhs: Lhs<'_>,
                rhs: &[f32],
                out: &mut [f32],
                m: usize,
                kk: usize,
                n: usize,
            ) {
                debug_assert!(lhs.covers(m, kk));
                debug_assert_eq!(rhs.len(), kk * n);
                debug_assert_eq!(out.len(), m * n);
                // The row-tail `match` below covers `MR == 4`; whole
                // vectors fill every panel but the last.
                const { assert!(MR == 4 && NC % W == 0) };
                let tail = n % W;
                let mut pad = Vec::new();
                if tail != 0 {
                    pad.resize(kk * W, 0.0);
                    for k in 0..kk {
                        pad[k * W..k * W + tail]
                            .copy_from_slice(&rhs[k * n + n - tail..(k + 1) * n]);
                    }
                }
                let mut j0 = 0;
                while j0 < n {
                    let j1 = (j0 + NC).min(n);
                    let mut i0 = 0;
                    while i0 + MR <= m {
                        // SAFETY: rows `i0..i0 + MR` exist; the nest's
                        // contract covers the rest.
                        rows::<MR, SKIP>(lhs, rhs, &pad, out, i0, j0, j1, kk, n);
                        i0 += MR;
                    }
                    // SAFETY: rows `i0..m` exist, `m - i0 < MR`.
                    match m - i0 {
                        1 => rows::<1, SKIP>(lhs, rhs, &pad, out, i0, j0, j1, kk, n),
                        2 => rows::<2, SKIP>(lhs, rhs, &pad, out, i0, j0, j1, kk, n),
                        3 => rows::<3, SKIP>(lhs, rhs, &pad, out, i0, j0, j1, kk, n),
                        _ => {}
                    }
                    j0 = j1;
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
tiled_matmul_impl!(
    #[target_feature(enable = "avx512f")]
    mod tiled_avx512 {
        lanes: 16,
        vectors: 4,
        vector: std::arch::x86_64::__m512,
        zero: std::arch::x86_64::_mm512_setzero_ps(),
        splat: std::arch::x86_64::_mm512_set1_ps,
        load: std::arch::x86_64::_mm512_loadu_ps,
        store: std::arch::x86_64::_mm512_storeu_ps,
        add: std::arch::x86_64::_mm512_add_ps,
        mul: std::arch::x86_64::_mm512_mul_ps,
    }
);

#[cfg(target_arch = "x86_64")]
tiled_matmul_impl!(
    #[target_feature(enable = "avx2")]
    mod tiled_avx2 {
        lanes: 8,
        vectors: 3,
        vector: std::arch::x86_64::__m256,
        zero: std::arch::x86_64::_mm256_setzero_ps(),
        splat: std::arch::x86_64::_mm256_set1_ps,
        load: std::arch::x86_64::_mm256_loadu_ps,
        store: std::arch::x86_64::_mm256_storeu_ps,
        add: std::arch::x86_64::_mm256_add_ps,
        mul: std::arch::x86_64::_mm256_mul_ps,
    }
);

#[cfg(target_arch = "x86_64")]
tiled_matmul_impl!(
    #[target_feature(enable = "sse2")]
    mod tiled_sse2 {
        lanes: 4,
        vectors: 2,
        vector: std::arch::x86_64::__m128,
        zero: std::arch::x86_64::_mm_setzero_ps(),
        splat: std::arch::x86_64::_mm_set1_ps,
        load: std::arch::x86_64::_mm_loadu_ps,
        store: std::arch::x86_64::_mm_storeu_ps,
        add: std::arch::x86_64::_mm_add_ps,
        mul: std::arch::x86_64::_mm_mul_ps,
    }
);

/// `tanh` of every element of `xs` in place at one SIMD level: the
/// entry point behind [`crate::math::tanh`] (which passes
/// [`SimdLevel::detect`]). Every level runs the same loop over
/// `math::tanh_lane`; the `#[target_feature]` legs let the compiler
/// vectorise it at their width. A lane is the same sequence of IEEE-754
/// operations (no FMA, no contraction) at any width, so every level
/// returns the same bits.
///
/// # Panics
/// Panics on an unavailable level.
pub(crate) fn tanh_into(level: SimdLevel, xs: &mut [f32]) {
    assert!(level.is_available(), "tanh_into: {level} not available");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level's availability on this host is asserted above.
        SimdLevel::Avx512 => unsafe { tanh_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level's availability on this host is asserted above.
        SimdLevel::Avx2 => unsafe { tanh_avx2(xs) },
        // SSE2 is the x86-64 baseline, so the plain loop already runs
        // at its width.
        _ => tanh_loop(xs),
    }
}

/// The loop every `tanh` leg runs. It is inlined into each leg, so it
/// compiles (and vectorises) at that leg's instruction set.
#[inline(always)]
fn tanh_loop(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = crate::math::tanh_lane(*x);
    }
}

/// # Safety
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_avx512(xs: &mut [f32]) {
    tanh_loop(xs);
}

/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(xs: &mut [f32]) {
    tanh_loop(xs);
}

/// Portable four-lane "vectors" in plain scalar code. They instantiate
/// the tiled nest for the unit tests, so that miri — under which feature
/// detection finds no AVX2/AVX-512 — still runs the nest's unchecked
/// index arithmetic and its row and column tails.
#[cfg(test)]
mod portable {
    /// Four f32 lanes.
    pub(super) type Lanes = [f32; 4];

    pub(super) fn splat(x: f32) -> Lanes {
        [x; 4]
    }

    /// # Safety
    /// `p` must point at four readable `f32`s.
    pub(super) unsafe fn load(p: *const f32) -> Lanes {
        // SAFETY: four readable `f32`s by contract; unaligned read.
        unsafe { p.cast::<Lanes>().read_unaligned() }
    }

    /// # Safety
    /// `p` must point at four writable `f32`s.
    pub(super) unsafe fn store(p: *mut f32, v: Lanes) {
        // SAFETY: four writable `f32`s by contract; unaligned write.
        unsafe { p.cast::<Lanes>().write_unaligned(v) }
    }

    pub(super) fn add(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l] + b[l])
    }

    pub(super) fn mul(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l] * b[l])
    }
}

#[cfg(test)]
tiled_matmul_impl!(
    mod tiled_portable {
        lanes: 4,
        vectors: 2,
        vector: portable::Lanes,
        zero: [0.0f32; 4],
        splat: portable::splat,
        load: portable::load,
        store: portable::store,
        add: portable::add,
        mul: portable::mul,
    }
);

/// Every level the running CPU offers, widest first.
#[cfg(test)]
pub(crate) fn levels_on_host() -> Vec<SimdLevel> {
    [
        SimdLevel::Avx512,
        SimdLevel::Avx2,
        SimdLevel::Sse2,
        SimdLevel::Scalar,
    ]
    .into_iter()
    .filter(|l| l.is_available())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every `tanh` leg returns the lane function's bits on every slice
    /// length up to 40 (whole vectors and tails at every width). Miri runs
    /// this for the plain loop (the scalar and SSE2 leg); `math`'s tests
    /// pin the lane function itself against fdlibm.
    #[test]
    fn tanh_legs_match_the_lane_function_on_every_length() {
        let mut rng = StdRng::seed_from_u64(73);
        for len in 0..=40 {
            let mut xs = Matrix::randn(1, len, 4.0, &mut rng).as_slice().to_vec();
            for (i, special) in [f32::INFINITY, -0.0, 25.0, -1e-20].into_iter().enumerate() {
                if let Some(x) = xs.get_mut(i * 7) {
                    *x = special;
                }
            }
            let want: Vec<u32> = xs
                .iter()
                .map(|&x| crate::math::tanh_lane(x).to_bits())
                .collect();
            for level in levels_on_host() {
                let mut got = xs.clone();
                tanh_into(level, &mut got);
                let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "tanh at {level}, length {len}");
            }
        }
    }

    /// The detected level is available, and on x86-64 it is never scalar
    /// (SSE2 is architecturally guaranteed).
    #[test]
    fn detected_level_is_available() {
        let level = SimdLevel::detect();
        assert!(level.is_available());
        #[cfg(target_arch = "x86_64")]
        assert_ne!(level, SimdLevel::Scalar);
    }

    /// The full SIMD matmul against the naive reference on shapes that
    /// straddle lane widths (16 for AVX-512, 8 for AVX2, 4 for SSE2), the
    /// tiled nest's row and column tails, panel boundaries, and the
    /// degenerate 1-row case — through [`Matrix::matmul`] and at every
    /// available level.
    #[test]
    fn simd_matmul_matches_naive_on_edge_shapes() {
        let mut rng = StdRng::seed_from_u64(47);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize), // single element
            (1, 3, 7),                // 1 row, sub-lane width
            (2, 2, 8),                // exactly one AVX2 lane
            (3, 5, 9),                // one lane + 1 tail
            (4, 4, 4),                // exactly one SSE2 lane
            (5, 6, 12),               // SSE2 lanes, AVX2 tail
            (4, 7, 255),              // panel minus 1
            (5, 3, 256),              // exactly one column panel
            (6, 2, 261),              // panel + sub-lane tail
            (9, 64, 300),             // multi-panel
            (5, 16, 64),              // one AVX-512 tile + 1-row tail
            (6, 2, 65),               // tile + padded column, 2-row tail
            (7, 5, 79),               // tile + vector + padded, 3-row tail
            (1, 64, 192),             // single row, three tiles
        ] {
            let mut a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            // Exact zeros exercise the shared skip path.
            for v in a.as_mut_slice().iter_mut() {
                if *v < -0.8 {
                    *v = 0.0;
                }
            }
            let simd = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(simd.shape(), naive.shape());
            for (x, y) in simd.as_slice().iter().zip(naive.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k} * {k}x{n}");
            }
            for level in levels_on_host() {
                let mut out = vec![0.0f32; m * n];
                matmul_into(level, a.as_slice(), b.as_slice(), &mut out, m, k, n);
                assert_bits(&out, &naive, &format!("{m}x{k} * {k}x{n}, {level}"));
            }
        }
    }

    /// Shapes that put every tile path of every leg to work: full tiles,
    /// single-vector column tiles and the padded last vector (`n` around
    /// multiples of 4, 8, 16, 32 and 64 lanes), row tails of 1–3 rows,
    /// a second column panel, `m = 1` and `k = 0`.
    const TILE_EDGE_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 3, 7),
        (1, 64, 192),
        (2, 2, 8),
        (3, 5, 9),
        (4, 4, 4),
        (5, 6, 12),
        (6, 7, 17),
        (7, 9, 31),
        (4, 8, 33),
        (8, 3, 47),
        (5, 16, 64),
        (6, 2, 65),
        (7, 5, 79),
        (9, 4, 80),
        (4, 7, 255),
        (5, 3, 256),
        (6, 2, 261),
        (9, 64, 300),
        (3, 0, 5),
    ];

    /// `m × k` with roughly a tenth of its entries exactly zero.
    fn lhs_with_zeros(m: usize, k: usize, rng: &mut StdRng) -> Matrix {
        let mut a = Matrix::randn(m, k, 1.0, rng);
        for v in a.as_mut_slice().iter_mut() {
            if *v < -1.2 {
                *v = 0.0;
            }
        }
        a
    }

    /// The serial no-skip dot product `matmul_t` is pinned to.
    fn matmul_t_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn assert_bits(got: &[f32], want: &Matrix, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: size");
        for (x, y) in got.iter().zip(want.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    /// All three products at every available level are bit-identical to
    /// their scalar references on the tile-edge shapes, with exact zeros
    /// in the left operand.
    #[test]
    fn tiled_products_match_references_at_every_level() {
        let mut rng = StdRng::seed_from_u64(67);
        for &(m, k, n) in TILE_EDGE_SHAPES {
            let a = lhs_with_zeros(m, k, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let at = lhs_with_zeros(k, m, &mut rng);
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            let want = a.matmul_naive(&b);
            let want_t = at.transpose().matmul_naive(&b);
            let want_nt = matmul_t_reference(&a, &bt);
            for level in levels_on_host() {
                let what = format!("{m}x{k}x{n}, {level}");
                let mut out = vec![0.0f32; m * n];
                matmul_into(level, a.as_slice(), b.as_slice(), &mut out, m, k, n);
                assert_bits(&out, &want, &format!("matmul {what}"));
                let mut out = vec![0.0f32; m * n];
                t_matmul_into(level, at.as_slice(), b.as_slice(), &mut out, m, k, n);
                assert_bits(&out, &want_t, &format!("t_matmul {what}"));
                let mut out = vec![0.0f32; m * n];
                matmul_t_into(level, a.as_slice(), bt.as_slice(), &mut out, m, k, n);
                assert_bits(&out, &want_nt, &format!("matmul_t {what}"));
            }
        }
    }

    /// The portable-lane instantiation of the tiled nest — the one miri
    /// runs — matches the references on the same shapes through all three
    /// operand views: row-major with the skip, transposed lhs with the
    /// skip, and transposed rhs without it.
    #[test]
    fn portable_tiled_nest_matches_references() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(m, k, n) in TILE_EDGE_SHAPES {
            let a = lhs_with_zeros(m, k, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let at = lhs_with_zeros(k, m, &mut rng);
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            let what = format!("{m}x{k}x{n}");
            let run = |lhs: Lhs<'_>, rhs: &[f32], skip: bool| {
                assert!(lhs.covers(m, k));
                assert_eq!(rhs.len(), k * n);
                let mut out = vec![0.0f32; m * n];
                // SAFETY: the view bound and the rhs size are asserted
                // just above, `out` is `m × n`, and the portable leg
                // needs no CPU feature.
                unsafe {
                    if skip {
                        tiled_portable::matmul::<true>(lhs, rhs, &mut out, m, k, n);
                    } else {
                        tiled_portable::matmul::<false>(lhs, rhs, &mut out, m, k, n);
                    }
                }
                out
            };
            let row_major = Lhs {
                data: a.as_slice(),
                rs: k,
                cs: 1,
            };
            let transposed = Lhs {
                data: at.as_slice(),
                rs: 1,
                cs: m,
            };
            let bt_t = bt.transpose();
            assert_bits(
                &run(row_major, b.as_slice(), true),
                &a.matmul_naive(&b),
                &format!("matmul {what}"),
            );
            assert_bits(
                &run(transposed, b.as_slice(), true),
                &at.transpose().matmul_naive(&b),
                &format!("t_matmul {what}"),
            );
            assert_bits(
                &run(row_major, bt_t.as_slice(), false),
                &matmul_t_reference(&a, &bt),
                &format!("matmul_t {what}"),
            );
        }
    }

    /// A non-finite right-hand entry under a zero left-hand entry: the
    /// skipping products never form `0 * inf`, the no-skip `matmul_t`
    /// does (and yields NaN), at every level.
    #[test]
    fn skip_semantics_pin_non_finite_rhs() {
        let (m, k, n) = (5, 3, 18);
        let mut a = Matrix::from_vec(m, k, (0..m * k).map(|v| v as f32 * 0.25 - 1.0).collect());
        a[(2, 1)] = 0.0;
        let mut b = Matrix::from_vec(k, n, (0..k * n).map(|v| v as f32 * 0.5 - 3.0).collect());
        b[(1, 17)] = f32::INFINITY;
        let mut bt = b.transpose();
        bt[(17, 1)] = f32::NAN;
        let at = a.transpose();
        for level in levels_on_host() {
            let mut prod = vec![0.0f32; m * n];
            matmul_into(level, a.as_slice(), b.as_slice(), &mut prod, m, k, n);
            assert_bits(&prod, &a.matmul_naive(&b), &format!("matmul {level}"));
            assert!(
                prod[2 * n + 17].is_finite(),
                "matmul {level} formed 0 * inf"
            );
            let mut prod_t = vec![0.0f32; m * n];
            t_matmul_into(level, at.as_slice(), b.as_slice(), &mut prod_t, m, k, n);
            assert_bits(&prod_t, &a.matmul_naive(&b), &format!("t_matmul {level}"));
            let mut dot = vec![0.0f32; m * n];
            matmul_t_into(level, a.as_slice(), bt.as_slice(), &mut dot, m, k, n);
            assert_bits(
                &dot,
                &matmul_t_reference(&a, &bt),
                &format!("matmul_t {level}"),
            );
            assert!(dot[2 * n + 17].is_nan(), "matmul_t {level} skipped a zero");
        }
    }

    /// Zero-sized operands short-circuit identically to the reference.
    #[test]
    fn simd_matmul_empty_dims_are_zero() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let out = a.matmul(&b);
        assert_eq!(out.shape(), (2, 3));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let c = Matrix::zeros(0, 4);
        let d = Matrix::zeros(4, 5);
        assert_eq!(c.matmul(&d).shape(), (0, 5));
    }
}
