//! The repo's own `tanh`: fdlibm's `tanhf`, ported and vectorised.
//!
//! Every committed `results/*.json` was recorded through glibc 2.36's
//! `tanhf`, which is fdlibm's: a fixed sequence of IEEE `+ − × ÷` and
//! integer bit operations, no FMA, no table. [`tanh_f32`] writes that
//! sequence out operation by operation
//! (`sysdeps/ieee754/flt-32/s_tanhf.c` and `s_expm1f.c`), so the bits no
//! longer depend on which libm the host ships (glibc ≥ 2.41 and musl
//! compute a different `tanhf`). It is the *definition*; the AVX2 lanes
//! below evaluate the same chain of correctly-rounded operations per lane
//! with every branch flattened into a blend, which makes them equal to it
//! on every input — `tanh_lanes_match_port_exhaustive` walks all 2³².
//!
//! No `mul_add`, no `f64` and no FMA intrinsic may appear in this file:
//! one fused rounding anywhere breaks the equality. (The lanes are compiled
//! with FMA enabled, like every lane kernel; a multiply and an add are
//! never fused unless written as one.)

use crate::lanes::Lanes;
use crate::ops::gelu_scalar;

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;

/// `y` with `k` added to its exponent field (fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`).
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// fdlibm `expm1f`.
fn expm1_f32(mut x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = x.to_bits() >> 31 != 0;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE;
            }
        }
        if negative {
            return TINY - 1.0;
        }
    }

    // Argument reduction: x = k·ln2 + r, |r| <= 0.5·ln2, correction `c`.
    let (k, c);
    if hx > 0x3eb1_7218 {
        let (hi, lo);
        if hx < 0x3f85_1592 {
            if negative {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
            } else {
                (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
            }
        } else {
            k = (INV_LN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
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
        (k, c) = (0, 0.0);
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
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        add_exponent(x - (e + t) + 1.0, k)
    }
}

/// Hyperbolic tangent — fdlibm `tanhf`, bit for bit on every input (NaN
/// in, NaN out). The one `tanh` of this workspace: [`crate::ops`]'s GELU
/// and tanh kernels are defined by it, and so is every committed baseline.
pub fn tanh_f32(x: f32) -> f32 {
    let negative = x.to_bits() >> 31 != 0;
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // ±inf -> ±1, NaN -> NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1_f32(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1_f32(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if negative {
        -z
    } else {
        z
    }
}

/// [`tanh_f32`] of every element, in place: the port loop or the 8-lane
/// kernel — the same bits either way.
pub fn tanh_slice(lanes: Lanes, xs: &mut [f32]) {
    match lanes {
        Lanes::Plain => xs.iter_mut().for_each(|x| *x = tanh_f32(*x)),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::tanh_lanes(xs) },
    }
}

/// [`gelu_scalar`] of every element, in place; bodies and bits as
/// [`tanh_slice`]. One `ops.gelu` profile span per call.
pub fn gelu_slice(lanes: Lanes, xs: &mut [f32]) {
    let _prof = dota_prof::span("ops.gelu");
    match lanes {
        Lanes::Plain => xs.iter_mut().for_each(|x| *x = gelu_scalar(*x)),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::gelu_lanes(xs) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use crate::lanes::{load, store};
    use crate::ops::{GELU_CUBIC, SQRT_2_OVER_PI};
    use std::arch::x86_64::*;

    /// `tanh` of eight lanes, each the operation chain of [`tanh_f32`].
    /// Exact for `2⁻⁵⁵ <= |x| < inf`; the other lanes ("rare": tiny,
    /// `±0`, `±inf`, NaN — see [`any_rare`]) come back unspecified.
    ///
    /// From `tanhf` the `expm1f` argument is `2|x|` in `[2, 44)` (general
    /// reduction, `k` in `3..=63`: the `k < 23`, `23..=56` and `> 56`
    /// endings) or `-2|x|` in `(-2, -2⁻⁵⁴]` (the `< 2⁻²⁵` early return,
    /// `k = 0`, `k = -1`, and `k` in `{-2, -3}` through the general
    /// reduction). Every ending is computed and the lane's own selected by
    /// the value of `k`; a lane's discarded endings may hold anything.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tanh8(x: __m256) -> __m256 {
        let ps = |v: f32| _mm256_set1_ps(v);
        let epi = |v: i32| _mm256_set1_epi32(v);
        let as_ps = |v: __m256i| _mm256_castsi256_ps(v);
        let as_epi = |v: __m256| _mm256_castps_si256(v);
        let sign_mask = as_ps(epi(i32::MIN));
        let (half, one, two) = (ps(0.5), ps(1.0), ps(2.0));

        let sign = _mm256_and_ps(x, sign_mask);
        let ax = _mm256_andnot_ps(sign_mask, x);
        let ix = as_epi(ax);
        // |x| >= 1: t = expm1f(2|x|), else t = expm1f(-2|x|).
        let ge1 = as_ps(_mm256_cmpgt_epi32(ix, epi(0x3f80_0000 - 1)));
        let a_abs = _mm256_mul_ps(two, ax);
        let a = _mm256_or_ps(a_abs, _mm256_andnot_ps(ge1, sign_mask));
        let hx = as_epi(a_abs);

        // Reduction. `hx <= 0x3eb17218` keeps k = 0 (then hi = a - 0 = a,
        // lo = 0, r = a, as the port's k = 0 arm); the (0.5·ln2, 1.5·ln2)
        // arm is k = -1 here (a < 0: positive arguments start at 2) and
        // `a - (-1)·ln2_hi`, `(-1)·ln2_lo` are exactly its `a + ln2_hi`,
        // `-ln2_lo`.
        let reduce = _mm256_cmpgt_epi32(hx, epi(0x3eb1_7218));
        let near = _mm256_cmpgt_epi32(epi(0x3f85_1592), hx);
        let bias = _mm256_or_ps(half, _mm256_and_ps(a, sign_mask));
        let k_far = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(ps(INV_LN2), a), bias));
        let k = _mm256_and_si256(reduce, _mm256_blendv_epi8(k_far, epi(-1), near));
        let kf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(a, _mm256_mul_ps(kf, ps(LN2_HI)));
        let lo = _mm256_mul_ps(kf, ps(LN2_LO));
        let r = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

        // Core polynomial on the reduced argument.
        let hfx = _mm256_mul_ps(half, r);
        let hxs = _mm256_mul_ps(r, hfx);
        let mut p = _mm256_mul_ps(hxs, ps(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            p = _mm256_mul_ps(hxs, _mm256_add_ps(ps(q), p));
        }
        let r1 = _mm256_add_ps(one, p);
        let t = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
        let e0 = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(ps(6.0), _mm256_mul_ps(r, t)),
            ),
        );
        // k == 0: r - (r·e - hxs).
        let end_zero = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e0), hxs));
        // k != 0: e = r·(e - c) - c; e -= hxs.
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e0, c)), c),
            hxs,
        );
        // k == -1: 0.5·(r - e) - 0.5.
        let end_m1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
        let shift = _mm256_slli_epi32::<23>(k);
        let scaled = |y: __m256| as_ps(_mm256_add_epi32(as_epi(y), shift));
        let e_minus_r = _mm256_sub_ps(e, r);
        // k <= -2 || k > 56: y = 1 - (e - r), exponent += k, y - 1.
        let end_wide = _mm256_sub_ps(scaled(_mm256_sub_ps(one, e_minus_r)), one);
        // 2 <= k < 23: t = 1 - 2^-k; y = t - (e - r), exponent += k.
        let t_lo = as_ps(_mm256_sub_epi32(
            epi(0x3f80_0000),
            _mm256_srlv_epi32(epi(0x0100_0000), k),
        ));
        let end_lo = scaled(_mm256_sub_ps(t_lo, e_minus_r));
        // 23 <= k <= 56: t = 2^-k; y = r - (e + t); y += 1, exponent += k.
        let t_hi = as_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(epi(0x7f), k)));
        let end_hi = scaled(_mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_hi)), one));

        let mut em1 = _mm256_blendv_ps(end_lo, end_hi, as_ps(_mm256_cmpgt_epi32(k, epi(22))));
        let wide = _mm256_or_si256(
            _mm256_cmpgt_epi32(k, epi(56)),
            _mm256_cmpgt_epi32(epi(-1), k),
        );
        em1 = _mm256_blendv_ps(em1, end_wide, as_ps(wide));
        em1 = _mm256_blendv_ps(em1, end_m1, as_ps(_mm256_cmpeq_epi32(k, epi(-1))));
        em1 = _mm256_blendv_ps(
            em1,
            end_zero,
            as_ps(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())),
        );
        // |a| < 2^-25: expm1f returns `a - ((huge + a) - (huge + a))` = a.
        em1 = _mm256_blendv_ps(em1, a, as_ps(_mm256_cmpgt_epi32(epi(0x3300_0000), hx)));

        // z = 1 - 2/(t + 2) for |x| >= 1, else -t/(t + 2): one division.
        let num = _mm256_blendv_ps(_mm256_xor_ps(em1, sign_mask), two, ge1);
        let q = _mm256_div_ps(num, _mm256_add_ps(em1, two));
        let mut z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), ge1);
        // |x| >= 22: 1 - tiny, which rounds to 1.
        let ge22 = as_ps(_mm256_cmpgt_epi32(ix, epi(0x41b0_0000 - 1)));
        z = _mm256_blendv_ps(z, ps(1.0 - TINY), ge22);
        // jx >= 0 ? z : -z.
        _mm256_xor_ps(z, sign)
    }

    /// Whether any lane of `x` is one [`tanh8`] leaves to the port:
    /// `|x| < 2⁻⁵⁵` (`±0` included), `±inf` or NaN.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn any_rare(x: __m256) -> bool {
        let ix = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(i32::MAX));
        let rare = _mm256_or_si256(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x2400_0000), ix),
            _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f80_0000 - 1)),
        );
        _mm256_movemask_epi8(rare) != 0
    }

    /// [`tanh_f32`] of every element: eight per pass through [`tanh8`], a
    /// group holding a rare lane and the tail `< 8` through the port.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn tanh_lanes(xs: &mut [f32]) {
        let (groups, tail) = xs.as_chunks_mut::<8>();
        for g in groups {
            let x = load(g);
            if any_rare(x) {
                g.iter_mut().for_each(|v| *v = tanh_f32(*v));
            } else {
                store(g, tanh8(x));
            }
        }
        for v in tail {
            *v = tanh_f32(*v);
        }
    }

    /// [`gelu_scalar`] of every element: the cubic, the [`tanh8`] lanes and
    /// the final `0.5·x·(1 + t)` in one pass, each product in the scalar
    /// expression's left-to-right order. Rare `u` (`x = ±0` among them)
    /// and the tail go through the port, as in [`tanh_lanes`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gelu_lanes(xs: &mut [f32]) {
        let ps = |v: f32| _mm256_set1_ps(v);
        let (groups, tail) = xs.as_chunks_mut::<8>();
        for g in groups {
            let x = load(g);
            let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(ps(GELU_CUBIC), x), x), x);
            let u = _mm256_mul_ps(ps(SQRT_2_OVER_PI), _mm256_add_ps(x, cube));
            if any_rare(u) {
                g.iter_mut().for_each(|v| *v = gelu_scalar(*v));
            } else {
                let y = _mm256_mul_ps(_mm256_mul_ps(ps(0.5), x), _mm256_add_ps(ps(1.0), tanh8(u)));
                store(g, y);
            }
        }
        for v in tail {
            *v = gelu_scalar(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{assert_lanes_port_host_agree, bodies, exhaustive_mismatches, same};
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    /// Inputs on which fdlibm's `tanhf` is not the correctly-rounded
    /// result, with fdlibm's answer: they tell an fdlibm host (glibc
    /// <= 2.40, where the committed baselines were recorded) from a
    /// correctly-rounded one (glibc >= 2.41), and pin the port's bits on
    /// every host.
    const FDLIBM_PROBES: [(u32, u32); 4] = [
        (0x3e00_0000, 0x3dfe_acca), // tanh(0.125), one ulp above the rounded value
        (0x3f00_0001, 0x3eec_9aa1),
        (0x3fc0_001e, 0x3f67_b7d6),
        (0x4060_01b1, 0x3f7f_889c),
    ];

    /// Whether the host's libm computes fdlibm's `tanhf`; prints the note
    /// the comparisons against it skip with when it does not.
    fn host_tanh_is_fdlibm() -> bool {
        let is = FDLIBM_PROBES
            .iter()
            .all(|&(x, y)| f32::from_bits(x).tanh().to_bits() == y);
        if !is {
            eprintln!(
                "note: this host's tanhf is not fdlibm's (glibc >= 2.41 or another \
                 libm); skipping the port-vs-host comparison — see \
                 tanh_port_matches_host_libm_exhaustive"
            );
        }
        is
    }

    /// Lanes == port on every input of `bits`, and port == host libm where
    /// that is fdlibm.
    fn agree(bits: &[u32]) {
        let host = host_tanh_is_fdlibm().then_some(f32::tanh as fn(f32) -> f32);
        assert_lanes_port_host_agree(bits, tanh_slice, tanh_f32, host);
    }

    /// `|x|` bit pattern of the first input whose `expm1f` reduction of
    /// `2|x|` reaches `k`.
    fn first_abs_bits_with_k(k: i32) -> u32 {
        let k_of = |b: u32| (INV_LN2 * (2.0 * f32::from_bits(b)) + 0.5) as i32;
        let (mut lo, mut hi) = (0x3f80_0000u32, 0x41b0_0000u32); // [1, 22]
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if k_of(mid) >= k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn port_reproduces_pinned_fdlibm_outputs() {
        for (x, y) in FDLIBM_PROBES {
            assert_eq!(tanh_f32(f32::from_bits(x)).to_bits(), y, "at {x:#010x}");
        }
        assert_eq!(tanh_f32(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_f32(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_f32(f32::INFINITY), 1.0);
        assert_eq!(tanh_f32(f32::NEG_INFINITY), -1.0);
        assert!(tanh_f32(f32::NAN).is_nan());
        assert_eq!(tanh_f32(30.0), 1.0);
        assert_eq!(tanh_f32(-30.0), -1.0);
    }

    #[test]
    fn every_threshold_of_the_recipe_within_four_ulps() {
        // tanhf's own thresholds on |x|; expm1f's on its argument 2|x|
        // (one exponent step above |x|); every step of k, 22 -> 23 and
        // 56 -> 57 among them.
        let mut edges = vec![0x2400_0000u32, 0x3f80_0000, 0x41b0_0000, 0x7f80_0000];
        edges.extend([0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592].map(|a| a - 0x0080_0000));
        edges.extend((4..=63).map(first_abs_bits_with_k));
        assert!(f32::from_bits(first_abs_bits_with_k(23)) > 7.0);
        assert!(f32::from_bits(first_abs_bits_with_k(57)) > 19.0);
        let mut bits = vec![0, 1, 0x007f_ffff, 0x0080_0000, 0x7fc0_0000, 0x7fff_ffff];
        for e in edges {
            bits.extend(e - 4..=e + 4);
        }
        let negatives: Vec<u32> = bits.iter().map(|b| b | 0x8000_0000).collect();
        bits.extend(negatives);
        agree(&bits);
    }

    #[test]
    fn random_bit_patterns_and_a_dense_stride() {
        let mut rng = SeededRng::new(17);
        let mut bits: Vec<u32> = (0..1 << 20).map(|_| rng.below(1 << 32) as u32).collect();
        // [-8, 8] in steps of 2^-14: 2^18 + 1 points.
        bits.extend((-(1i32 << 17)..=1 << 17).map(|i| (i as f32 / 16384.0).to_bits()));
        agree(&bits);
    }

    /// `tanhf` reaches only part of `expm1f` (no `k = 1`, no overflow, no
    /// non-finite argument); the port carries all of it, so all of it is
    /// held to the host's.
    #[test]
    fn expm1_port_matches_fdlibm_host_beyond_what_tanh_reaches() {
        if !host_tanh_is_fdlibm() {
            return;
        }
        let mut rng = SeededRng::new(19);
        let mut bits: Vec<u32> = (0..1 << 18).map(|_| rng.below(1 << 32) as u32).collect();
        for edge in [
            0x3300_0000u32,
            0x3eb1_7218,
            0x3f85_1592,
            0x4195_b844,
            O_THRESHOLD.to_bits(),
            0x42b1_7218,
            0x7f80_0000,
        ] {
            bits.extend((edge - 4..=edge + 4).flat_map(|b| [b, b | 0x8000_0000]));
        }
        for b in bits {
            let x = f32::from_bits(b);
            assert!(same(expm1_f32(x), x.exp_m1()), "expm1 at {b:#010x}");
        }
    }

    /// The values the lanes hand a whole group to the port for, then an
    /// ordinary one.
    const PLANTS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0e-40,
        -3.0e-20,
        0.75,
    ];

    #[test]
    fn slices_of_every_short_length_offset_and_planted_rare_lane() {
        let mut rng = SeededRng::new(18);
        let base = rng.normal_matrix(1, 32, 2.0);
        for len in 0..=17 {
            for offset in 0..4 {
                for plant in PLANTS {
                    for at in 0..len.max(1) {
                        let mut input = base.as_slice()[offset..offset + len].to_vec();
                        if let Some(slot) = input.get_mut(at) {
                            *slot = plant;
                        }
                        // Copy into a buffer at the same misalignment.
                        let mut buf = base.as_slice().to_vec();
                        buf[offset..offset + len].copy_from_slice(&input);
                        gelu_slice(Lanes::active(), &mut buf[offset..offset + len]);
                        for (&x, &y) in input.iter().zip(&buf[offset..]) {
                            assert!(same(y, gelu_scalar(x)), "gelu({x:e}) len {len} at {at}");
                            assert!(y.is_nan() || !x.is_nan());
                        }
                        buf[offset..offset + len].copy_from_slice(&input);
                        tanh_slice(Lanes::active(), &mut buf[offset..offset + len]);
                        for (&x, &y) in input.iter().zip(&buf[offset..]) {
                            assert!(same(y, tanh_f32(x)), "tanh({x:e}) len {len} at {at}");
                        }
                        // Nothing outside the slice is written.
                        assert_eq!(buf[..offset], base.as_slice()[..offset]);
                        assert_eq!(buf[offset + len..], base.as_slice()[offset + len..]);
                    }
                }
            }
        }
    }

    proptest! {
        /// The slice kernel is the scalar definition element by element on
        /// both bodies: there is no inexact GELU.
        #[test]
        fn gelu_slice_matches_scalar_oracle(
            seed in 0u64..1 << 32,
            len in 0usize..70,
            std in 0usize..4,
            plants in proptest::collection::vec(0usize..70 * 8, 0..4),
        ) {
            let mut rng = SeededRng::new(seed);
            let mut input = rng.normal_matrix(1, len, [1e-3, 1.0, 4.0, 30.0][std]).as_slice().to_vec();
            for p in plants {
                if let Some(slot) = input.get_mut(p / 8) {
                    *slot = PLANTS[p % 8];
                }
            }
            for lanes in bodies() {
                let mut got = input.clone();
                gelu_slice(lanes, &mut got);
                for (&x, &y) in input.iter().zip(&got) {
                    prop_assert!(same(y, gelu_scalar(x)), "{lanes:?}: gelu({x:e}) = {y:e}");
                }
            }
        }
    }

    /// All 2³² inputs through the lanes, eight consecutive bit patterns per
    /// group, against the port. ~35 s in release.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs"]
    fn tanh_lanes_match_port_exhaustive() {
        assert_eq!(exhaustive_mismatches("tanh", tanh_slice, tanh_f32), 0);
    }

    /// Provenance: the port against the host libm's `tanhf` on all 2³²
    /// inputs. The committed `results/*.json` were recorded through glibc
    /// 2.36, whose `tanhf` is fdlibm's; this passes there and is expected
    /// to fail on glibc >= 2.41 or musl, whose `tanhf` is another function
    /// — nothing in the repo depends on the host's any more. ~30 s in
    /// release.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs; fails by design where libm is not fdlibm"]
    fn tanh_port_matches_host_libm_exhaustive() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let x = f32::from_bits(b);
                !same(tanh_f32(x), x.tanh())
            })
            .count();
        println!("port vs host libm: {mismatches} mismatches over 2^32 inputs");
        assert_eq!(mismatches, 0);
    }
}
