//! Runtime-dispatched SIMD matmul kernels: the register-tiled nest
//! behind [`crate::matrix::Matrix::matmul`], [`crate::matrix::Matrix::t_matmul`]
//! and [`crate::matrix::Matrix::matmul_t`] (the autograd forward and
//! backward products, and the product behind every frozen-snapshot
//! forward: serving, rollouts and evaluation), the scalar blocked axpy
//! nest that [`SimdLevel::Scalar`] runs (the path on hosts without SIMD
//! and the reference every level is pinned against), and the
//! panel-packed nest behind `amoeba_nn::packed`.
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
//! The axpy nests load and store a slice of `out` for every `k`. The
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
//! transposes its right operand once, a pure copy.
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
//! ## Packed right-hand sides
//!
//! [`matmul_packed_into`] is the same blocked loop nest over a
//! **panel-packed** right operand (see [`pack_rhs`]): the `(K, N)` weight
//! matrix is reordered into `NC`-wide column panels, each stored
//! `k`-major, so the inner `k`-walk reads the weight buffer strictly
//! sequentially instead of striding by `N` — the layout
//! `amoeba_nn::packed::PackedWeights` prepares once per frozen policy.
//! Per output element the packed nest performs the identical ascending-`k`
//! mul/add sequence as the unpacked one, so it is bit-exact by the same
//! argument (pinned by this module's tests).

use std::fmt;

/// The widest SIMD instruction set the running CPU offers for the f32
/// matmul kernels.
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

/// `out[j] += a * b[j]` for every `j`, at the given SIMD level — the
/// micro-panel update of the blocked matmul. Each element sees exactly
/// one `mul` rounding and one `add` rounding regardless of level, so all
/// levels are bit-identical (pinned by this module's unit tests).
///
/// # Panics
/// Panics if `out` and `b` differ in length, or if `level` is not
/// available on this CPU.
#[inline]
pub fn axpy(level: SimdLevel, out: &mut [f32], a: f32, b: &[f32]) {
    assert_eq!(out.len(), b.len(), "axpy: length mismatch");
    assert!(level.is_available(), "axpy: {level} not available on host");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above; slices are equal-length.
        SimdLevel::Avx512 => unsafe { axpy_avx512(out, a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above; slices are equal-length.
        SimdLevel::Avx2 => unsafe { axpy_avx2(out, a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above; slices are equal-length.
        SimdLevel::Sse2 => unsafe { axpy_sse2(out, a, b) },
        _ => axpy_scalar(out, a, b),
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

/// AVX-512F micro-panel: 16-lane `mul` + `add` (no FMA — FMA's single
/// rounding would diverge from the scalar path), scalar tail for the last
/// `len % 16` columns.
///
/// # Safety
/// Caller must guarantee the host CPU supports AVX-512F
/// (`#[target_feature]` makes the call itself the unsafe act); all
/// loads/stores stay inside `out`/`b` — the lane loop stops at
/// `n - n % 16` and `n` is the shorter of the two slice lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_storeu_ps,
    };
    let n = out.len().min(b.len());
    let va = _mm512_set1_ps(a);
    let mut j = 0;
    while j + 16 <= n {
        let vb = _mm512_loadu_ps(b.as_ptr().add(j));
        let vo = _mm512_loadu_ps(out.as_ptr().add(j));
        _mm512_storeu_ps(
            out.as_mut_ptr().add(j),
            _mm512_add_ps(vo, _mm512_mul_ps(va, vb)),
        );
        j += 16;
    }
    axpy_scalar(&mut out[j..], a, &b[j..]);
}

/// AVX2 micro-panel: 8-lane `mul` + `add` (no FMA — FMA's single rounding
/// would diverge from the scalar path), scalar tail for the last
/// `len % 8` columns.
///
/// # Safety
/// Caller must guarantee the host CPU supports AVX2 (`#[target_feature]`
/// makes the call itself the unsafe act); all loads/stores stay inside
/// `out`/`b` — the lane loop stops at `n - n % 8` and `n` is the shorter
/// of the two slice lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let n = out.len().min(b.len());
    let va = _mm256_set1_ps(a);
    let mut j = 0;
    while j + 8 <= n {
        let vb = _mm256_loadu_ps(b.as_ptr().add(j));
        let vo = _mm256_loadu_ps(out.as_ptr().add(j));
        _mm256_storeu_ps(
            out.as_mut_ptr().add(j),
            _mm256_add_ps(vo, _mm256_mul_ps(va, vb)),
        );
        j += 8;
    }
    axpy_scalar(&mut out[j..], a, &b[j..]);
}

/// SSE2 micro-panel: 4-lane `mul` + `add`, scalar tail for the last
/// `len % 4` columns.
///
/// # Safety
/// Caller must guarantee the host CPU supports SSE2 (architecturally
/// always true on x86-64, asserted by the dispatcher anyway); loads and
/// stores stay inside `out`/`b` — the lane loop stops at `n - n % 4` and
/// `n` is the shorter of the two slice lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn axpy_sse2(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps};
    let n = out.len().min(b.len());
    let va = _mm_set1_ps(a);
    let mut j = 0;
    while j + 4 <= n {
        let vb = _mm_loadu_ps(b.as_ptr().add(j));
        let vo = _mm_loadu_ps(out.as_ptr().add(j));
        _mm_storeu_ps(out.as_mut_ptr().add(j), _mm_add_ps(vo, _mm_mul_ps(va, vb)));
        j += 4;
    }
    axpy_scalar(&mut out[j..], a, &b[j..]);
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
        let rhs_t = crate::matrix::transpose_slice(rhs, n, kk);
        let lhs = Lhs {
            data: lhs,
            rs: kk,
            cs: 1,
        };
        matmul_tiled::<false>(level, lhs, &rhs_t, out, m, kk, n);
    }
}

/// Column-panel width shared by every blocked kernel in this module (a
/// full `K x NC` slab of the right operand stays L2-resident).
const NC: usize = 256;
/// Micro-kernel height: each loaded `rhs` row feeds this many output
/// rows, in the axpy nests and in the register tiles alike.
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

/// Reorders a row-major `(kk, n)` right operand into the panel-packed
/// layout [`matmul_packed_into`] consumes: `NC`-wide column panels in
/// ascending column order, each panel stored `k`-major (panel for columns
/// `[j0, j1)` occupies `packed[kk * j0..kk * j1]`, with row `k` of the
/// panel at offset `k * (j1 - j0)`). The packed buffer holds exactly the
/// same `kk * n` values — only their order changes, so packing is a pure
/// layout transform done once per weight matrix (at policy freeze), never
/// per matmul.
pub fn pack_rhs(rhs: &[f32], kk: usize, n: usize) -> Vec<f32> {
    assert_eq!(rhs.len(), kk * n, "pack_rhs: rhs size");
    let mut packed = Vec::with_capacity(kk * n);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NC).min(n);
        for k in 0..kk {
            packed.extend_from_slice(&rhs[k * n + j0..k * n + j1]);
        }
        j0 = j1;
    }
    packed
}

/// Generates one monolithic **packed-RHS** blocked matmul per level from
/// a single loop-nest definition — the same NC/MR tiling, ascending-`k`
/// accumulation per output element and `a == 0.0` skip as the scalar
/// blocked nest (`matmul_blocked_scalar`), but the weight panel for step
/// `k` is read from the [`pack_rhs`] buffer at `panel[k * w..]`
/// (sequential in `k`) instead of `rhs[k * n + j0..]` (stride-`n` in
/// `k`). Identical per-element mul/add sequence ⇒ bit-exact with the
/// unpacked nests; the only change is the address stream, which is now a
/// linear walk over the whole `K × NC` slab. Every instantiation is
/// `unsafe fn`: the caller guarantees `lhs.len() == m * kk` (the sole
/// unchecked access) and, for the `#[target_feature]` variants, the
/// feature on the host; [`matmul_packed_into`] asserts all sizes up
/// front.
macro_rules! packed_matmul_impl {
    ($(#[$attr:meta])* $name:ident, $axpy:path) => {
        $(#[$attr])*
        // SAFETY: the contract of every instantiation — caller guarantees
        // `lhs.len() == m * kk` (sole unchecked access) and, for the
        // `#[target_feature]` variants, that the feature is available on
        // the host; both asserted up front by `matmul_packed_into`.
        unsafe fn $name(
            lhs: &[f32],
            packed: &[f32],
            out: &mut [f32],
            m: usize,
            kk: usize,
            n: usize,
        ) {
            debug_assert_eq!(lhs.len(), m * kk);
            debug_assert_eq!(packed.len(), kk * n);
            debug_assert_eq!(out.len(), m * n);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + NC).min(n);
                let w = j1 - j0;
                let panel = &packed[kk * j0..kk * j1];
                let mut i0 = 0;
                while i0 < m {
                    let i1 = (i0 + MR).min(m);
                    for k in 0..kk {
                        let b_panel = &panel[k * w..(k + 1) * w];
                        for i in i0..i1 {
                            let a = *lhs.get_unchecked(i * kk + k);
                            if a == 0.0 {
                                continue;
                            }
                            $axpy(&mut out[i * n + j0..i * n + j1], a, b_panel);
                        }
                    }
                    i0 = i1;
                }
                j0 = j1;
            }
        }
    };
}

packed_matmul_impl!(matmul_packed_scalar_impl, axpy_scalar);

#[cfg(target_arch = "x86_64")]
packed_matmul_impl!(
    #[target_feature(enable = "avx512f")]
    matmul_packed_avx512,
    axpy_avx512
);

#[cfg(target_arch = "x86_64")]
packed_matmul_impl!(
    #[target_feature(enable = "avx2")]
    matmul_packed_avx2,
    axpy_avx2
);

#[cfg(target_arch = "x86_64")]
packed_matmul_impl!(
    #[target_feature(enable = "sse2")]
    matmul_packed_sse2,
    axpy_sse2
);

/// Accumulates `lhs * rhs` into the zeroed `out` buffer where `rhs` was
/// pre-packed by [`pack_rhs`] — the packed counterpart of the unpacked
/// `matmul_into` dispatch, bit-identical to it (and therefore to
/// [`crate::matrix::Matrix::matmul_naive`]) on every input at every
/// level, because packing permutes only the *addresses* of the weight
/// loads, never any element's ascending-`k` summation order or its
/// mul/add roundings. `lhs` is `(m, kk)` row-major, `packed` is the
/// [`pack_rhs`] image of the `(kk, n)` right operand, `out` is `(m, n)`
/// and must start zeroed.
///
/// # Panics
/// Panics on slice/dimension mismatch or an unavailable level.
pub fn matmul_packed_into(
    level: SimdLevel,
    lhs: &[f32],
    packed: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * kk, "matmul_packed_into: lhs size");
    assert_eq!(packed.len(), kk * n, "matmul_packed_into: packed size");
    assert_eq!(out.len(), m * n, "matmul_packed_into: out size");
    assert!(
        level.is_available(),
        "matmul_packed_into: {level} not available on host"
    );
    if n == 0 || kk == 0 || m == 0 {
        return;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sizes asserted above; availability asserted above.
        SimdLevel::Avx512 => unsafe { matmul_packed_avx512(lhs, packed, out, m, kk, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sizes asserted above; availability asserted above.
        SimdLevel::Avx2 => unsafe { matmul_packed_avx2(lhs, packed, out, m, kk, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sizes asserted above; availability asserted above.
        SimdLevel::Sse2 => unsafe { matmul_packed_sse2(lhs, packed, out, m, kk, n) },
        _ => {
            // SAFETY: no `#[target_feature]` on the scalar instantiation;
            // the sole unchecked access is bounded by the `lhs` size
            // assert above.
            unsafe { matmul_packed_scalar_impl(lhs, packed, out, m, kk, n) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn levels_on_host() -> Vec<SimdLevel> {
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

    /// Every available level produces bit-identical axpy results to the
    /// scalar reference, across lengths covering full lanes, partial
    /// tails, 1 element and 0 elements.
    #[test]
    fn axpy_levels_are_bit_identical_across_tail_lengths() {
        let mut rng = StdRng::seed_from_u64(31);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 256, 257] {
            let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let a: f32 = rng.gen_range(-2.0..2.0);
            let mut reference = base.clone();
            axpy_scalar(&mut reference, a, &b);
            for level in levels_on_host() {
                let mut out = base.clone();
                axpy(level, &mut out, a, &b);
                for (x, y) in out.iter().zip(&reference) {
                    assert_eq!(x.to_bits(), y.to_bits(), "len {len}, {level}");
                }
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

    /// `pack_rhs` is a pure permutation: every element of the original
    /// row-major operand appears exactly once in the packed buffer, at
    /// the documented panel offset.
    #[test]
    fn pack_rhs_is_a_permutation_at_documented_offsets() {
        let mut rng = StdRng::seed_from_u64(59);
        for &(kk, n) in &[
            (1usize, 1usize),
            (3, 7),
            (5, 255),
            (4, 256),
            (2, 261),
            (64, 300),
        ] {
            let rhs: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let packed = pack_rhs(&rhs, kk, n);
            assert_eq!(packed.len(), kk * n);
            for j0 in (0..n).step_by(NC) {
                let j1 = (j0 + NC).min(n);
                let w = j1 - j0;
                let panel = &packed[kk * j0..kk * j1];
                for k in 0..kk {
                    assert_eq!(
                        &panel[k * w..(k + 1) * w],
                        &rhs[k * n + j0..k * n + j1],
                        "({kk},{n}) panel {j0} row {k}"
                    );
                }
            }
        }
    }

    /// The packed matmul is bit-identical to the naive reference (and
    /// therefore to the unpacked blocked nests) at every available level,
    /// across the same edge shapes as the unpacked test — including exact
    /// zeros exercising the skip path and empty dimensions.
    #[test]
    fn packed_matmul_matches_naive_on_edge_shapes() {
        let mut rng = StdRng::seed_from_u64(61);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 3, 7),
            (2, 2, 8),
            (3, 5, 9),
            (4, 4, 4),
            (5, 6, 12),
            (4, 7, 255),
            (5, 3, 256),
            (6, 2, 261),
            (9, 64, 300),
            (2, 0, 3), // empty inner dim
            (0, 4, 5), // empty rows
        ] {
            let mut a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            for v in a.as_mut_slice().iter_mut() {
                if *v < -0.8 {
                    *v = 0.0;
                }
            }
            let naive = a.matmul_naive(&b);
            let packed = pack_rhs(b.as_slice(), k, n);
            for level in levels_on_host() {
                let mut out = vec![0.0f32; m * n];
                matmul_packed_into(level, a.as_slice(), &packed, &mut out, m, k, n);
                for (x, y) in out.iter().zip(naive.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k} * {k}x{n}, {level}");
                }
            }
        }
    }
}
