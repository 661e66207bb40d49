//! The repo's own `ln`: glibc's FMA-variant `logf`, ported and vectorised.
//!
//! Seeded weights are Box–Muller draws, `sqrt(−2·ln u1)·cos(2π·u2)`, and
//! every committed `results/*.json` was recorded through glibc 2.36's
//! `logf` on a host with FMA units, where the `ifunc` resolves to
//! `__logf_fma`: a 16-entry table of `(1/c, ln c)` plus five fused
//! multiply-adds in `f64` (`sysdeps/ieee754/flt-32/e_logf.c` compiled with
//! `-mfma -mavx2`; the fusions are read off the binary, where `z·(1/c) − 1`
//! and `k·ln2 + ln c` are each one `vfmadd`). On this recipe the fusions
//! move no output: rounding every product on its own gives the same `f32`
//! on every positive normal input. [`ln_f32`] writes the sequence out
//! operation by operation, so a seeded checkpoint no longer depends on
//! which `logf` the host resolves to. It is the *definition*; the AVX2+FMA
//! lanes below run the same operations per lane as two `f64` halves and
//! hand a group holding a zero, subnormal, negative or non-finite input to
//! it, which makes them equal to it on every input —
//! `ln_lanes_match_port_exhaustive` walks all 2³².
//!
//! The five `mul_add`s of [`ln_port`] and their five `fmadd` twins in the
//! lanes are the definition's: keep each one fused.

use crate::lanes::Lanes;

/// `ix − OFF` puts `x = 2^k·z` with `z` in `[OFF, 2·OFF)` (about
/// `[0.7, 1.4)`), split into 16 subintervals by the next four bits.
const OFF: u32 = 0x3f33_0000;
/// `ln 2`.
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `ln(1 + r) ~= r + A2·r² + A1·r³ + A0·r⁴`.
const A0: f64 = f64::from_bits(0xbfd0_0ea3_48b8_8334);
const A1: f64 = f64::from_bits(0x3fd5_575b_0be0_0b6a);
const A2: f64 = f64::from_bits(0xbfdf_fffe_f20a_4123);
/// glibc's `__logf_data.tab`: for each subinterval `i`, `1/c` at `2i` and
/// `ln c` at `2i + 1`, `c` near the subinterval's centre. Laid out as the
/// 32 `u64`s the lanes gather from.
static TABLE: [u64; 32] = [
    0x3ff6_61ec_79f8_f3be,
    0xbfd5_7bf7_808c_aade,
    0x3ff5_71ed_4aaf_883d,
    0xbfd2_bef0_a7c0_6ddb,
    0x3ff4_9539_f0f0_10b0,
    0xbfd0_1eae_7f51_3a67,
    0x3ff3_c995_b0b8_0385,
    0xbfcb_31d8_a682_24e9,
    0x3ff3_0d19_0c88_64a5,
    0xbfc6_574f_0ac0_7758,
    0x3ff2_5e22_7b0b_8ea0,
    0xbfc1_aa2b_c79c_8100,
    0x3ff1_bb4a_4a1a_343f,
    0xbfba_4e76_ce8c_0e5e,
    0x3ff1_2358_f08a_e5ba,
    0xbfb1_973c_5a61_1ccc,
    0x3ff0_953f_4199_00a7,
    0xbfa2_52f4_38e1_0c1e,
    0x3ff0_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x3fee_608c_fd9a_47ac,
    0x3faa_a5aa_5df2_5984,
    0x3fec_a4b3_1f02_6aa0,
    0x3fbc_5e53_aa36_2eb4,
    0x3feb_2036_576a_fce6,
    0x3fc5_26e5_7720_db08,
    0x3fe9_c2d1_63a1_aa2d,
    0x3fcb_c286_0d22_4770,
    0x3fe8_86e6_0378_41ed,
    0x3fd1_058b_c8a0_7ee1,
    0x3fe7_67dc_f553_4862,
    0x3fd4_0430_57b6_ee09,
];

/// The recipe. `#[inline(always)]` for the reason [`crate::exp`] gives:
/// each caller's target features decide what `mul_add` compiles to, with
/// the same bits either way.
/// Invalid inputs take glibc's `__math_invalidf`, `(x − x) / (x − x)`: NaN
/// by arithmetic, so a NaN input keeps its payload.
#[inline(always)]
#[allow(clippy::eq_op)]
fn ln_port(x: f32) -> f32 {
    let mut ix = x.to_bits();
    if ix == 0x3f80_0000 {
        // ln 1 = +0 in every rounding mode.
        return 0.0;
    }
    if ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000 {
        // Zero, subnormal, negative, infinite or NaN.
        if ix.wrapping_mul(2) == 0 {
            return f32::NEG_INFINITY;
        }
        if ix == 0x7f80_0000 {
            return x;
        }
        if ix & 0x8000_0000 != 0 || ix.wrapping_mul(2) >= 0xff00_0000 {
            return (x - x) / (x - x);
        }
        // Subnormal: scale into the normal range, take the 23 back from k.
        ix = (x * f32::from_bits(0x4b00_0000))
            .to_bits()
            .wrapping_sub(23 << 23);
    }
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> 19) % 16) as usize;
    let k = tmp as i32 >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let (invc, logc) = (
        f64::from_bits(TABLE[2 * i]),
        f64::from_bits(TABLE[2 * i + 1]),
    );
    // ln x = ln(1 + (z/c − 1)) + ln c + k·ln2.
    let r = z.mul_add(invc, -1.0);
    let y0 = f64::from(k).mul_add(LN2, logc);
    let r2 = r * r;
    let y = A1.mul_add(r, A2);
    let y = A0.mul_add(r2, y);
    y.mul_add(r2, y0 + r) as f32
}

/// Natural logarithm — glibc 2.36's `__logf_fma`, bit for bit on every
/// input. The one `ln` of this workspace's `f32` paths: the Box–Muller
/// radius of every seeded weight and the cross-entropy loss are defined by
/// it.
pub fn ln_f32(x: f32) -> f32 {
    ln_port(x)
}

/// [`ln_f32`] of every element, in place: the port loop or the 8-lane
/// kernel — the same bits either way.
pub(crate) fn ln_slice(lanes: Lanes, xs: &mut [f32]) {
    match lanes {
        Lanes::Plain => xs.iter_mut().for_each(|x| *x = ln_port(*x)),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::ln_lanes(xs) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use crate::lanes::{gather, load, store};
    use std::arch::x86_64::*;

    /// The main path of [`ln_port`] on four lanes: `z` and `k` of the
    /// reduction and the subinterval `i`, widened to `f64`, narrowed back.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn ln4(z: __m128, k: __m128i, i: __m128i) -> __m128 {
        let pd = |v: f64| _mm256_set1_pd(v);
        let at = _mm256_slli_epi64::<1>(_mm256_cvtepi32_epi64(i));
        let invc = _mm256_castsi256_pd(gather(&TABLE, at));
        let logc = _mm256_castsi256_pd(gather(&TABLE, _mm256_add_epi64(at, _mm256_set1_epi64x(1))));
        let r = _mm256_fmadd_pd(_mm256_cvtps_pd(z), invc, pd(-1.0));
        let y0 = _mm256_fmadd_pd(_mm256_cvtepi32_pd(k), pd(LN2), logc);
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(pd(A1), r, pd(A2));
        let y = _mm256_fmadd_pd(pd(A0), r2, y);
        _mm256_cvtpd_ps(_mm256_fmadd_pd(y, r2, _mm256_add_pd(y0, r)))
    }

    /// [`ln_port`] of eight positive normal finite lanes (the others come
    /// back unspecified): the reduction in `i32`, [`ln4`] on each half.
    /// The `x == 1` early return needs no lane of its own: the main path
    /// gives `+0` there too.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn ln8(x: __m256) -> __m256 {
        let epi = |v: u32| _mm256_set1_epi32(v as i32);
        let ix = _mm256_castps_si256(x);
        let tmp = _mm256_sub_epi32(ix, epi(OFF));
        let i = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), epi(15));
        let k = _mm256_srai_epi32::<23>(tmp);
        let iz = _mm256_sub_epi32(ix, _mm256_and_si256(tmp, epi(0xff80_0000)));
        let z = _mm256_castsi256_ps(iz);
        let half = |v: __m256i| (_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let ((k_lo, k_hi), (i_lo, i_hi)) = (half(k), half(i));
        let lo = ln4(_mm256_castps256_ps128(z), k_lo, i_lo);
        let hi = ln4(_mm256_extractf128_ps::<1>(z), k_hi, i_hi);
        _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
    }

    /// Whether any lane of `x` is one [`ln8`] leaves to the port: not in
    /// `[2⁻¹²⁶, inf)` as a bit pattern, so zero, subnormal, negative,
    /// infinite or NaN.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn any_rare(x: __m256) -> bool {
        let ix = _mm256_castps_si256(x);
        let rare = _mm256_or_si256(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x0080_0000), ix),
            _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f7f_ffff)),
        );
        _mm256_movemask_epi8(rare) != 0
    }

    /// [`super::ln_slice`] on the lanes: eight per pass through [`ln8`], a
    /// group holding a rare lane and the tail `< 8` through the recipe.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn ln_lanes(xs: &mut [f32]) {
        let (groups, tail) = xs.as_chunks_mut::<8>();
        for g in groups {
            let x = load(g);
            if any_rare(x) {
                g.iter_mut().for_each(|v| *v = ln_port(*v));
            } else {
                store(g, ln8(x));
            }
        }
        for v in tail {
            *v = ln_port(*v);
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

    /// Inputs on which glibc's `logf` is not the correctly-rounded result,
    /// with glibc's answer, one ulp off: they tell a glibc host from a
    /// correctly-rounded libm, and pin the port's bits on every host.
    /// (Fusing changes no output on the normal range, so no such input
    /// tells `__logf_fma` from `__logf_sse2`.)
    const GLIBC_PROBES: [(u32, u32); 2] = [(0x3f00_5bac, 0xbf30_bb01), (0x3f00_8460, 0xbf30_69e0)];

    /// Whether the host's libm computes glibc's `logf`; prints the note the
    /// comparisons against it skip with when it does not.
    fn host_ln_is_glibc() -> bool {
        let is = GLIBC_PROBES
            .iter()
            .all(|&(x, y)| f32::from_bits(x).ln().to_bits() == y);
        if !is {
            eprintln!(
                "note: this host's logf is not glibc's; skipping the port-vs-host \
                 comparison — see ln_port_matches_host_libm_exhaustive"
            );
        }
        is
    }

    /// Lanes == port on every input of `bits`, and port == host libm where
    /// that is glibc's.
    fn agree(bits: &[u32]) {
        let host = host_ln_is_glibc().then_some(f32::ln as fn(f32) -> f32);
        assert_lanes_port_host_agree(bits, ln_slice, ln_f32, host);
    }

    #[test]
    fn ln_port_reproduces_pinned_glibc_outputs() {
        for (x, y) in GLIBC_PROBES {
            assert_eq!(ln_f32(f32::from_bits(x)).to_bits(), y, "at {x:#010x}");
            for lanes in bodies() {
                let mut tail = [f32::from_bits(x)];
                ln_slice(lanes, &mut tail);
                assert_eq!(tail[0].to_bits(), y, "{lanes:?} at {x:#010x}");
            }
        }
        assert_eq!(ln_f32(1.0).to_bits(), 0);
        assert_eq!(ln_f32(0.0), f32::NEG_INFINITY);
        assert_eq!(ln_f32(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln_f32(f32::INFINITY), f32::INFINITY);
        assert!(ln_f32(-1.0).is_nan());
        assert!(ln_f32(f32::NEG_INFINITY).is_nan());
        assert!(ln_f32(f32::NAN).is_nan());
        assert_eq!(ln_f32(2.0), std::f32::consts::LN_2);
    }

    #[test]
    fn every_threshold_and_subinterval_edge_within_four_ulps() {
        // Zeros, subnormals, the normal range's ends, infinities and NaNs
        // of both signs.
        let mut bits = vec![
            0,
            1,
            2,
            0x8000_0000,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0x7fff_ffff,
            0xffff_ffff,
        ];
        let mut edges = vec![
            0x0080_0000u32,
            0x7f7f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x3f80_0000,
        ];
        // Every subinterval edge (tmp's bits 19..23) across three octaves,
        // and OFF itself, where k steps.
        for octave in [-100i32, 0, 60] {
            edges.extend(
                (0..16).map(|i| OFF.wrapping_add(i << 19).wrapping_add_signed(octave << 23)),
            );
        }
        for e in edges {
            bits.extend(e.saturating_sub(4)..=e.saturating_add(4));
        }
        bits.extend(GLIBC_PROBES.map(|(x, _)| x));
        agree(&bits);
    }

    #[test]
    fn random_bit_patterns_and_a_dense_stride() {
        let mut rng = SeededRng::new(29);
        let mut bits: Vec<u32> = (0..1 << 20).map(|_| rng.below(1 << 32) as u32).collect();
        // [0.5, 2] in steps of 2^-18, both sides of OFF and of 1.
        bits.extend((1i32 << 17..=1 << 19).map(|i| (i as f32 / 262_144.0).to_bits()));
        agree(&bits);
    }

    /// The Box–Muller radius's whole domain: every `u1` a draw can give
    /// (`k·2⁻²⁴`, with `0` lifted to the `1e-12` floor), lanes == port ==
    /// host.
    #[test]
    fn ln_over_the_whole_draw_domain() {
        let mut bits: Vec<u32> = (1..1u32 << 24)
            .map(|k| (k as f32 * (1.0 / (1u32 << 24) as f32)).to_bits())
            .collect();
        bits.push(1e-12f32.to_bits());
        agree(&bits);
    }

    #[test]
    fn ln_slice_is_the_port_element_wise_at_every_short_length() {
        let mut rng = SeededRng::new(30);
        let mut base = rng.uniform_matrix(1, 40, 0.0, 3.0).as_slice().to_vec();
        base[5] = -1.0;
        base[22] = 0.0;
        assert_windows_match_port(&base, ln_slice, ln_f32);
    }

    /// All 2³² inputs through the lanes, eight consecutive bit patterns per
    /// group, against the port.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs"]
    fn ln_lanes_match_port_exhaustive() {
        assert_eq!(exhaustive_mismatches("ln", ln_slice, ln_f32), 0);
    }

    /// Provenance: the port against the host libm's `logf` on all 2³²
    /// inputs. The committed `results/*.json` were recorded through glibc
    /// 2.36 (`__logf_fma`); this passes there and is expected to fail
    /// where libm computes another `logf`.
    /// Nothing in the repo's `f32` paths depends on the host's `logf` any
    /// more.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs; fails by design where libm is not glibc's logf"]
    fn ln_port_matches_host_libm_exhaustive() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let x = f32::from_bits(b);
                !same(ln_f32(x), x.ln())
            })
            .count();
        println!("ln port vs host libm: {mismatches} mismatches over 2^32 inputs");
        assert_eq!(mismatches, 0);
    }
}
