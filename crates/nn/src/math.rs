//! Owned transcendentals: functions whose bits this crate defines,
//! instead of the platform's libm.
//!
//! ## `tanh`
//!
//! [`tanh`] is fdlibm's single-precision hyperbolic tangent,
//! `s_tanhf.c`, together with the `s_expm1f.c` it calls: the generic
//! float code glibc ships for `tanhf`/`expm1f` (2.36 included). The
//! algorithm is written once, as the branch-free lane function
//! `tanh_lane`: every lane computes each of fdlibm's branches and
//! selects the one fdlibm would take, with fdlibm's constants, its
//! operation order and no fused multiply-add, so each lane's result is
//! the one fdlibm's branchy code returns. Where the lane form departs
//! from fdlibm's text, it computes the same value:
//!
//! * `2/(t+2)` (|x| ≥ 1), `−t/(t+2)` (|x| < 1) and `1/x` (non-finite x)
//!   share one division, whose numerator and denominator are selected
//!   per lane.
//! * `expm1` truncates `invln2·u ± ½` to an integer in float arithmetic
//!   (exact over the arguments `tanh` passes) rather than with a
//!   saturating `as i32`, which the compiler does not vectorise.
//! * `expm1` returns a tiny `u` (|u| < 2^-25) as it is, where fdlibm
//!   computes `u − ((huge + u) − (huge + u))` only to raise the inexact
//!   flag.
//! * `expm1` omits its filter for huge and non-finite arguments, which
//!   `tanh` never reaches: it calls `expm1(2|x|)` for 1 ≤ |x| < 22 and
//!   `expm1(−2|x|)` for |x| < 1.
//!
//! [`crate::simd`] compiles one loop over the lane function per
//! [`SimdLevel`], with `#[target_feature]` for AVX-512F and AVX2 as for
//! the matmul nest, and the compiler vectorises it at that width. A
//! level changes the instructions, never a result: every level is
//! pinned against a branchy scalar port of fdlibm kept in the tests, on
//! every bit pattern (an `#[ignore]`d test) and on a strided sweep plus
//! every branch boundary (the default suite). That port matches glibc's
//! `tanhf`, and so `f32::tanh` on glibc hosts, bit for bit.
//!
//! ## Call sites still on libm
//!
//! Only the forward of [`crate::tensor::Tensor::tanh`] (the autograd
//! tape: actor, critic and every trained `Mlp`, the autograd LSTM cell)
//! runs [`tanh`]. Serving and the frozen snapshots keep `f32::tanh`:
//! [`crate::layers::Activation::apply_matrix`], the GRU gate blend shared
//! by training and serving (`rnn::gru_blend`) and the LSTM snapshot
//! cells. They produce the same bits on glibc hosts, but a faster
//! serving step holds more memory in the benchmark ledger's retained
//! repetitions, so they move together once that retention is fixed.
//! `exp` (and the sigmoid built on it) stays on libm everywhere: glibc's
//! x86-64 `expf` dispatches to an FMA build on FMA hosts, so a portable
//! port would not reproduce today's bits.

use crate::simd::{self, SimdLevel};

/// `tanh` of every element in place, at the detected [`SimdLevel`].
/// Bit-identical to fdlibm's `tanhf` (see the module docs) at every
/// level.
pub fn tanh(xs: &mut [f32]) {
    simd::tanh_into(SimdLevel::detect(), xs);
}

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// 1.5·2^23: adding it rounds any |v| < 2^22 to an integer.
const ROUND: f32 = 12_582_912.0;
const TINY: f32 = 1.0e-30;
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `y · 2^k` by adding `k` to the exponent field, as fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))` does (two's-complement wrap).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k as u32).wrapping_shl(23)))
}

/// fdlibm's `expm1f` for a finite `x` below its overflow threshold and
/// above `−27·ln2` (the range `tanh` feeds it), branch-free: each
/// reduction and reconstruction branch is computed and the one fdlibm
/// takes is selected. Arguments outside that range give garbage, never
/// a panic (integer arithmetic wraps).
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;

    // Argument reduction: k = 0 for |x| ≤ ln2/2, ±1 below 1.5·ln2,
    // otherwise round(x/ln2). fdlibm's ±1 branch computes `x ∓ ln2_hi`
    // and `±ln2_lo`, which are `x − k·ln2_hi` and `k·ln2_lo` exactly,
    // and at k = 0 they leave `x` as it is, so one formula serves all.
    //
    // fdlibm converts `invln2·x ± ½` to int32 (truncation). Here the
    // truncation stays in float: round to nearest with 1.5·2^23, then
    // step back toward zero. It is exact for |v| < 2^22, which covers
    // every argument tanh passes; `as i32` would saturate instead, which
    // the compiler does not vectorise.
    let v = INV_LN2 * x + if neg { -0.5 } else { 0.5 };
    let r = (v + ROUND) - ROUND;
    let k_round = if v >= 0.0 {
        if r > v {
            r - 1.0
        } else {
            r
        }
    } else if r < v {
        r + 1.0
    } else {
        r
    };
    let kf = if hx <= 0x3eb1_7218 {
        0.0
    } else if hx < 0x3f85_1592 {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        k_round
    };
    // The integer k sits in the low mantissa bits of 1.5·2^23 + k.
    let k = (kf + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as i32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let y_k0 = x - (x * e - hxs);

    let e = x * (e - c) - c;
    let e = e - hxs;
    let y_km1 = 0.5 * (x - e) - 0.5;
    let y_k1 = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        1.0 + 2.0 * (x - e)
    };
    let y_far = add_exponent(1.0 - (e - x), k) - 1.0;
    // 2^-k, fdlibm's `(0x7f - k) << 23`; 1 − 2^-k is exact for k < 23.
    let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32).wrapping_shl(23));
    let y_mid = add_exponent((1.0 - two_mk) - (e - x), k);
    let y_high = add_exponent((x - (e + two_mk)) + 1.0, k);

    let y = if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k == 1 {
        y_k1
    } else if k <= -2 || k > 56 {
        y_far
    } else if k < 23 {
        y_mid
    } else {
        y_high
    };
    // |x| < 2^-25: fdlibm returns `x − ((huge + x) − (huge + x))`, which
    // is x itself (the sum only raises the inexact flag). Such an x has
    // k = 0, which left it unreduced.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// fdlibm's `tanhf` for one lane, branch-free (see the module docs).
#[inline(always)]
pub(crate) fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let neg = jx >> 31 != 0;
    let ax = f32::from_bits(ix);
    let non_finite = ix >= 0x7f80_0000;
    let above_one = ix >= 0x3f80_0000;

    let t = expm1_lane(if above_one { 2.0 * ax } else { -2.0 * ax });
    // One division: 2/(t+2) for 1 ≤ |x| < 22, −t/(t+2) below 1, and
    // 1/x for ±inf and NaN.
    let (num, den) = if non_finite {
        (1.0, x)
    } else if above_one {
        (2.0, t + 2.0)
    } else {
        (-t, t + 2.0)
    };
    let q = num / den;

    let z = if ix >= 0x41b0_0000 {
        1.0 - TINY // |x| ≥ 22: ±1
    } else if above_one {
        1.0 - q
    } else {
        q
    };
    let z = if neg { -z } else { z };
    // |x| < 2^-55: x·(1+x), which is x itself for ±0, so fdlibm's
    // separate ±0 return needs no lane of its own.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // tanh(±inf) = ±1, tanh(NaN) = NaN.
    let inf_nan = if neg { q - 1.0 } else { q + 1.0 };
    if non_finite {
        inf_nan
    } else {
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fdlibm's `s_tanhf.c` and `s_expm1f.c`, transcribed branch for
    /// branch: the reference every level of [`tanh`] is pinned against.
    mod fdlibm {
        use super::super::{INV_LN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5, TINY};

        const HUGE: f32 = 1.0e30;
        const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);

        pub(super) fn expm1f(mut x: f32) -> f32 {
            let mut hx = x.to_bits();
            let xsb = hx & 0x8000_0000;
            hx &= 0x7fff_ffff;

            // Filter out huge and non-finite arguments.
            if hx >= 0x4195_b844 {
                if hx >= 0x42b1_7218 {
                    if hx > 0x7f80_0000 {
                        return x + x;
                    }
                    if hx == 0x7f80_0000 {
                        return if xsb == 0 { x } else { -1.0 };
                    }
                    if x > O_THRESHOLD {
                        return HUGE * HUGE;
                    }
                }
                if xsb != 0 {
                    return TINY - 1.0;
                }
            }

            // Argument reduction.
            let k: i32;
            let mut c = 0.0f32;
            if hx > 0x3eb1_7218 {
                let (hi, lo);
                if hx < 0x3f85_1592 {
                    if xsb == 0 {
                        hi = x - LN2_HI;
                        lo = LN2_LO;
                        k = 1;
                    } else {
                        hi = x + LN2_HI;
                        lo = -LN2_LO;
                        k = -1;
                    }
                } else {
                    k = (INV_LN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                    let t = k as f32;
                    hi = x - t * LN2_HI;
                    lo = t * LN2_LO;
                }
                x = hi - lo;
                c = (hi - x) - lo;
            } else if hx < 0x3300_0000 {
                let t = HUGE + x;
                return x - (t - (HUGE + x));
            } else {
                k = 0;
            }

            // x is now in the primary range.
            let hfx = 0.5 * x;
            let hxs = x * hfx;
            let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
            let t = 3.0 - r1 * hfx;
            let mut e = hxs * ((r1 - t) / (6.0 - x * t));
            if k == 0 {
                return x - (x * e - hxs);
            }
            e = x * (e - c) - c;
            e -= hxs;
            if k == -1 {
                return 0.5 * (x - e) - 0.5;
            }
            if k == 1 {
                return if x < -0.25 {
                    -2.0 * (e - (x + 0.5))
                } else {
                    1.0 + 2.0 * (x - e)
                };
            }
            if k <= -2 || k > 56 {
                let y = 1.0 - (e - x);
                let y = f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
                return y - 1.0;
            }
            let y = if k < 23 {
                let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
                t - (e - x)
            } else {
                let t = f32::from_bits(((0x7f - k) << 23) as u32);
                (x - (e + t)) + 1.0
            };
            f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32)
        }

        pub(super) fn tanhf(x: f32) -> f32 {
            let jx = x.to_bits() as i32;
            let ix = jx & 0x7fff_ffff;

            // x is inf or NaN.
            if ix >= 0x7f80_0000 {
                return if jx >= 0 {
                    1.0 / x + 1.0
                } else {
                    1.0 / x - 1.0
                };
            }

            let z;
            if ix < 0x41b0_0000 {
                // |x| < 22
                if ix == 0 {
                    return x;
                }
                if ix < 0x2400_0000 {
                    // |x| < 2^-55
                    return x * (1.0 + x);
                }
                if ix >= 0x3f80_0000 {
                    // |x| >= 1
                    let t = expm1f(2.0 * x.abs());
                    z = 1.0 - 2.0 / (t + 2.0);
                } else {
                    let t = expm1f(-2.0 * x.abs());
                    z = -t / (t + 2.0);
                }
            } else {
                // |x| >= 22: ±1
                z = 1.0 - TINY;
            }
            if jx >= 0 {
                z
            } else {
                -z
            }
        }
    }

    /// Runs every level on `xs` and asserts bit equality with the
    /// branchy port and, on glibc (whose `tanhf` is this fdlibm code),
    /// the port's with `f32::tanh`.
    fn check(xs: &[f32]) {
        let want: Vec<u32> = xs.iter().map(|&x| fdlibm::tanhf(x).to_bits()).collect();
        if cfg!(target_env = "gnu") {
            for (&x, &w) in xs.iter().zip(&want) {
                assert_eq!(
                    w,
                    x.tanh().to_bits(),
                    "fdlibm port vs f32::tanh at {x:e} ({:#010x})",
                    x.to_bits()
                );
            }
        }
        for level in simd::levels_on_host() {
            let mut got = xs.to_vec();
            simd::tanh_into(level, &mut got);
            for ((&x, &g), &w) in xs.iter().zip(&got).zip(&want) {
                assert_eq!(
                    g.to_bits(),
                    w,
                    "{level} tanh({x:e} = {:#010x}): {g:e} vs fdlibm {:e}",
                    x.to_bits(),
                    f32::from_bits(w)
                );
            }
        }
    }

    /// `±2` ulp around `b`, on both signs.
    fn around(b: f32, out: &mut Vec<f32>) {
        let bits = b.abs().to_bits();
        for d in -2i32..=2 {
            let m = bits.wrapping_add_signed(d);
            out.push(f32::from_bits(m));
            out.push(-f32::from_bits(m));
        }
    }

    /// The inputs at which fdlibm changes branch, ±2 ulp each.
    fn boundaries() -> Vec<f32> {
        let ln2 = std::f32::consts::LN_2;
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        // tanh's own: |x| = 2^-55, 1 and 22.
        for b in [2f32.powi(-55), 1.0, 22.0] {
            around(b, &mut xs);
        }
        // expm1's reduction at u = ∓2|x|: |u| = 2^-25, ln2/2, 1.5·ln2.
        for u in [2f32.powi(-25), 0.5 * ln2, 1.5 * ln2] {
            around(u / 2.0, &mut xs);
        }
        // expm1's reconstruction: k = round(u/ln2) steps at (k ± ½)·ln2;
        // k = 1, 23 and 56 bound its branches.
        for k in [1.0f32, 2.0, 23.0, 24.0, 56.0, 57.0] {
            around((k - 0.5) * ln2 / 2.0, &mut xs);
        }
        // The exact fdlibm thresholds as bit patterns (|u| and |x|).
        for bits in [
            0x3300_0000u32,
            0x3eb1_7218,
            0x3f85_1592,
            0x4195_b844,
            0x42b1_7218,
        ] {
            around(f32::from_bits(bits) / 2.0, &mut xs);
        }
        for bits in [0x2400_0000u32, 0x3f80_0000, 0x41b0_0000, 0x7f80_0000] {
            around(f32::from_bits(bits), &mut xs);
        }
        xs
    }

    #[test]
    fn tanh_matches_fdlibm_at_every_branch_boundary() {
        check(&boundaries());
    }

    /// Every 4099th bit pattern (about a million inputs, both signs,
    /// NaNs and subnormals included) at every level.
    #[test]
    fn tanh_matches_fdlibm_on_a_strided_sweep() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        check(&xs);
    }

    /// All 2^32 bit patterns at every level. Slow in a debug build; CI
    /// runs it with `cargo test --release -p amoeba-nn -- --ignored tanh`.
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn tanh_matches_fdlibm_on_every_bit_pattern() {
        const CHUNK: u32 = 1 << 16;
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(4) as u32;
        std::thread::scope(|s| {
            for w in 0..threads {
                s.spawn(move || {
                    let mut xs = Vec::with_capacity(CHUNK as usize);
                    let mut start = w * CHUNK;
                    loop {
                        xs.clear();
                        xs.extend((start..=start + (CHUNK - 1)).map(f32::from_bits));
                        check(&xs);
                        match start.checked_add(threads * CHUNK) {
                            Some(next) => start = next,
                            None => break,
                        }
                    }
                });
            }
        });
    }
}
