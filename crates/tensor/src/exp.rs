//! The repo's own `exp`: glibc's FMA-variant `expf`, ported and vectorised.
//!
//! Every committed `results/*.json` was recorded through glibc 2.36's
//! `expf` on a host with FMA units, where the `ifunc` resolves to
//! `__expf_fma`: a 32-entry table lookup plus exactly five fused
//! multiply-adds in `f64` (`sysdeps/ieee754/flt-32/e_expf.c` compiled with
//! `-mfma -mavx2`; the fusions are read off the binary, where
//! `InvLn2N · x` is never rounded on its own). [`exp_f32`] writes that
//! sequence out operation by operation, so softmax bits no longer depend
//! on which `expf` the host resolves to (`__expf_sse2` without FMA units,
//! another polynomial in another release). It is the *definition*; the
//! AVX2+FMA lanes below run the same five fused operations per lane as two
//! `f64` halves, with the `|x| >= 88` endings blended in by compares on
//! `x`, which makes them equal to it on every input —
//! `exp_lanes_match_port_exhaustive` walks all 2³².
//!
//! The five `mul_add`s of [`exp_port`] (and their five `fmadd/fmsub`
//! twins in the lanes) are the only fused operations of the attention
//! path: adding, removing or splitting one breaks the equality.

use crate::lanes::Lanes;

/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Cubic for `2^(r/32)`, coefficients pre-divided by `32³`, `32²`, `32`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// glibc's `__exp2f_data.tab`: `2^(i/32)` as `f64` bits with `i << 47`
/// subtracted, so adding `ki << 47` both restores the mantissa and adds
/// `ki / 32` to the exponent.
static TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// Above this, `exp` overflows to `+inf` (`ln 2¹²⁸`, 88.72283).
const OVERFLOW_ABOVE: f32 = f32::from_bits(0x42b1_7217);
/// Below this, `exp` is `+0.0` (`ln 2⁻¹⁵⁰`, −103.97208).
const ZERO_BELOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Below this (and not below [`ZERO_BELOW`]), `exp` is the smallest
/// subnormal (`ln 2⁻¹⁴⁹`, −103.27892).
const TINY_BELOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// The recipe. `#[inline(always)]` so that each caller's target features
/// decide what `mul_add` compiles to: one `vfmadd` instruction inside a
/// `#[target_feature(enable = "fma")]` function, a call to libm's
/// (correctly rounded, slower) `fma` elsewhere — the same bits either way.
#[inline(always)]
fn exp_port(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop > 0x42a {
        // |x| >= 88, infinite or NaN.
        if x.to_bits() == 0xff80_0000 {
            return 0.0;
        }
        if abstop > 0x7f7 {
            return x + x;
        }
        if x > OVERFLOW_ABOVE {
            return f32::INFINITY;
        }
        if x < ZERO_BELOW {
            return 0.0;
        }
        if x < TINY_BELOW {
            return f32::from_bits(1);
        }
    }
    // x·32/ln2 = k + r, k an integer and r in [-1/2, 1/2]; the product is
    // only ever rounded together with the addend.
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) · 2^(r/32) ~= s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(TABLE[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = r.mul_add(C0, C1);
    let r2 = r * r;
    let y = r.mul_add(C2, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Natural exponential — glibc 2.36's `__expf_fma`, bit for bit on every
/// input. The one `exp` of this workspace's `f32` paths: softmax (hence
/// every attention) and the autograd sigmoid are defined by it, and so is
/// every committed baseline.
pub fn exp_f32(x: f32) -> f32 {
    exp_port(x)
}

/// `exp_f32(x − max)` of every element, in place — softmax's middle pass;
/// `x − 0.0` is `x`, so `max = 0.0` is the plain `exp`. The plain body is
/// the recipe loop (`mul_add` a libm call there); the lanes run eight per
/// pass, with the subtraction in the same registers.
pub(crate) fn exp_sub(lanes: Lanes, xs: &mut [f32], max: f32) {
    match lanes {
        Lanes::Plain => xs.iter_mut().for_each(|x| *x = exp_port(*x - max)),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::exp_sub_lanes(xs, max) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use crate::lanes::{gather, load, store};
    use std::arch::x86_64::*;

    /// The main path of [`exp_port`] on four lanes widened to `f64`,
    /// narrowed back. Lanes with `|x| >= 88` may hold anything.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp4(x: __m128) -> __m128 {
        let pd = |v: f64| _mm256_set1_pd(v);
        let xd = _mm256_cvtps_pd(x);
        let kd = _mm256_fmadd_pd(pd(INV_LN2_N), xd, pd(SHIFT));
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, pd(SHIFT));
        let r = _mm256_fmsub_pd(pd(INV_LN2_N), xd, kd);
        let t = gather(&TABLE, ki);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(r, pd(C0), pd(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(r, pd(C2), pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// [`exp_port`] of eight lanes: [`exp4`] on each half, then the
    /// `|x| >= 88` endings blended in lane by lane. Each threshold implies
    /// `|x| >= 88`, so comparing `x` alone reproduces the recipe's nested
    /// tests; a masked softmax row is mostly `-inf` and stays on the lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
        let ps = |v: f32| _mm256_set1_ps(v);
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        let mut y = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
        // Ordered compares: a NaN lane fails all three and takes the last.
        let tiny = _mm256_cmp_ps::<_CMP_LT_OQ>(x, ps(TINY_BELOW));
        y = _mm256_blendv_ps(y, ps(f32::from_bits(1)), tiny);
        let zero = _mm256_cmp_ps::<_CMP_LT_OQ>(x, ps(ZERO_BELOW));
        y = _mm256_blendv_ps(y, _mm256_setzero_ps(), zero);
        let inf = _mm256_cmp_ps::<_CMP_GT_OQ>(x, ps(OVERFLOW_ABOVE));
        y = _mm256_blendv_ps(y, ps(f32::INFINITY), inf);
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
    }

    /// [`super::exp_sub`] on the lanes: eight per pass through [`exp8`],
    /// the tail `< 8` through the recipe.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn exp_sub_lanes(xs: &mut [f32], max: f32) {
        let shift = _mm256_set1_ps(max);
        let (groups, tail) = xs.as_chunks_mut::<8>();
        for g in groups {
            store(g, exp8(_mm256_sub_ps(load(g), shift)));
        }
        for v in tail {
            *v = exp_port(*v - max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{
        assert_lanes_port_host_agree, assert_windows_match_port, bodies, exhaustive_mismatches,
        same,
    };
    use crate::rng::SeededRng;

    /// The only two inputs among all 2³² on which the fused recipe and the
    /// same recipe with every product rounded on its own (`__expf_sse2`,
    /// or any compiler that does not contract) round differently, with the
    /// fused answer — one ulp above the unfused one both times. They tell
    /// an `__expf_fma` host (where the committed baselines were recorded)
    /// from any other, and pin the port's bits on every host.
    const FMA_PROBES: [(u32, u32); 2] = [
        (0x4202_422f, 0x56fc_9f1c), // exp(32.564632)
        (0xc27c_65d9, 0x11fa_2993), // exp(-63.09946)
    ];

    /// Whether the host's libm computes glibc's FMA-variant `expf`; prints
    /// the note the comparisons against it skip with when it does not.
    fn host_exp_is_glibc_fma() -> bool {
        let is = FMA_PROBES
            .iter()
            .all(|&(x, y)| f32::from_bits(x).exp().to_bits() == y);
        if !is {
            eprintln!(
                "note: this host's expf is not glibc's __expf_fma (no FMA units, or \
                 another libm); skipping the port-vs-host comparison — see \
                 exp_port_matches_host_libm_exhaustive"
            );
        }
        is
    }

    /// Lanes == port on every input of `bits`, and port == host libm where
    /// that is `__expf_fma`.
    fn agree(bits: &[u32]) {
        let host = host_exp_is_glibc_fma().then_some(f32::exp as fn(f32) -> f32);
        assert_lanes_port_host_agree(bits, |lanes, xs| exp_sub(lanes, xs, 0.0), exp_f32, host);
    }

    #[test]
    fn exp_port_reproduces_pinned_glibc_fma_outputs() {
        for (x, y) in FMA_PROBES {
            assert_eq!(exp_f32(f32::from_bits(x)).to_bits(), y, "at {x:#010x}");
            // Both instantiations of the recipe: libm's `fma` in the plain
            // body, one instruction per `mul_add` in the lanes' tail.
            for lanes in bodies() {
                let mut tail = [f32::from_bits(x)];
                exp_sub(lanes, &mut tail, 0.0);
                assert_eq!(tail[0].to_bits(), y, "{lanes:?} at {x:#010x}");
            }
        }
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(exp_f32(-0.0), 1.0);
        assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_f32(f32::NEG_INFINITY).to_bits(), 0);
        assert!(exp_f32(f32::NAN).is_nan());
        assert_eq!(exp_f32(89.0), f32::INFINITY);
        assert_eq!(exp_f32(-103.5).to_bits(), 1);
        assert_eq!(exp_f32(-104.0).to_bits(), 0);
    }

    #[test]
    fn every_threshold_of_the_recipe_within_four_ulps() {
        // `abstop` 0x42a|0x42b on both signs, the three endings, ±0, ±inf.
        let edges = [
            0x42b0_0000u32,
            0xc2b0_0000,
            OVERFLOW_ABOVE.to_bits(),
            TINY_BELOW.to_bits(),
            ZERO_BELOW.to_bits(),
            0x7f80_0000,
            0xff80_0000,
        ];
        // Zeros, the subnormals' ends, NaNs of both signs with payload.
        let mut bits = vec![
            0,
            1,
            2,
            3,
            4,
            0x8000_0000,
            0x8000_0001,
            0x8000_0004,
            0x007f_ffff,
            0x807f_ffff,
            0x0080_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fc1_2345,
            0xffd4_3210,
            0x7fff_ffff,
            0xffff_ffff,
        ];
        for e in edges {
            bits.extend(e - 4..=e + 4);
        }
        // One input per value of `ki & 31`, on both sides of zero and so
        // across steps of `ki >> 5`: x = i·ln2/32 for i in -80..=80.
        bits.extend((-80..=80).map(|i| (i as f32 * (std::f32::consts::LN_2 / 32.0)).to_bits()));
        bits.extend(FMA_PROBES.map(|(x, _)| x));
        agree(&bits);
    }

    #[test]
    fn random_bit_patterns_and_a_dense_stride() {
        let mut rng = SeededRng::new(23);
        let mut bits: Vec<u32> = (0..1 << 20).map(|_| rng.below(1 << 32) as u32).collect();
        // [-104, 0] in steps of 2^-12: softmax's whole input range.
        bits.extend((-(104i32 << 12)..=0).map(|i| (i as f32 / 4096.0).to_bits()));
        agree(&bits);
    }

    #[test]
    fn exp_slice_is_the_port_element_wise_at_every_short_length() {
        let base = SeededRng::new(24).normal_matrix(1, 40, 30.0);
        let kernel = |lanes, xs: &mut [f32]| exp_sub(lanes, xs, 0.0);
        assert_windows_match_port(base.as_slice(), kernel, exp_f32);
    }

    /// All 2³² inputs through the lanes, eight consecutive bit patterns per
    /// group, against the port. ~40 s in release.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs"]
    fn exp_lanes_match_port_exhaustive() {
        assert_eq!(
            exhaustive_mismatches("exp", |lanes, xs| exp_sub(lanes, xs, 0.0), exp_f32),
            0
        );
    }

    /// Provenance: the port against the host libm's `expf` on all 2³²
    /// inputs. The committed `results/*.json` were recorded through glibc
    /// 2.36 on a host with FMA units (`__expf_fma`); this passes there and
    /// is expected to fail — on the two [`FMA_PROBES`] at least — on a host
    /// without them or with another libm. Nothing in the repo depends on
    /// the host's `expf` any more. ~25 s in release.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs; fails by design where libm is not glibc's __expf_fma"]
    fn exp_port_matches_host_libm_exhaustive() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let x = f32::from_bits(b);
                !same(exp_f32(x), x.exp())
            })
            .count();
        println!("exp port vs host libm: {mismatches} mismatches over 2^32 inputs");
        assert_eq!(mismatches, 0);
    }
}
