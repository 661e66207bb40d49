//! The repo's own `cos`: glibc's FMA-variant `cosf`, ported and vectorised.
//!
//! Seeded weights are Box–Muller draws, `sqrt(−2·ln u1)·cos(2π·u2)`, and
//! every committed `results/*.json` was recorded through glibc 2.36's
//! `cosf` on a host with FMA units, where the `ifunc` resolves to
//! `__cosf_fma` (`sysdeps/ieee754/flt-32/s_cosf.c` and `sincosf.h`
//! compiled with `-mfma -mavx2`; the fusions are read off the binary). In
//! `f64`: `|x| < π/4` (as `abstop12` sees it) evaluates a degree-8 cosine
//! polynomial, `|x| < 120` reduces by one fused `x − n·π/2` and picks the
//! sine or cosine polynomial and a sign by the quadrant `n`, and larger
//! finite `|x|` reduces exactly against a 192-bit `4/π` in integer
//! arithmetic. [`cos_f32`] writes that out operation by operation, so a
//! seeded checkpoint no longer depends on which `cosf` the host resolves
//! to. It is the *definition*; the AVX2+FMA lanes below run the first two
//! paths per lane as two `f64` halves, the quadrant's polynomial and sign
//! blended in, and hand a group holding an `|x| >= 120` or non-finite
//! input to it, which makes them equal to it on every input —
//! `cos_lanes_match_port_exhaustive` walks all 2³².
//!
//! The `mul_add`s of [`cos_port`] (and their `fmadd/fnmadd` twins in the
//! lanes) are the only fused operations: adding, removing or splitting one
//! breaks the equality.

use crate::lanes::Lanes;

/// `2/π · 2²⁴`: the quadrant lands in bits 24.. of the truncated product.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `π/2`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// `2π · 2⁻⁶⁴`: the large reduction's fixed-point scale.
const PI63: f64 = f64::from_bits(0x3c19_21fb_5444_2d18);
/// The sine of quadrants 0..3 (`__sincosf_table[0].sign`).
const SIGN: [f64; 4] = [1.0, -1.0, -1.0, 1.0];
/// The sine polynomial `x + S1·x³ + (S2 + S3·x²)·x⁷`.
const S1: f64 = f64::from_bits(0xbfc5_5554_5995_a603);
const S2: f64 = f64::from_bits(0x3f81_1076_0523_0bc4);
const S3: f64 = f64::from_bits(0xbf29_94eb_3774_cf24);
/// The cosine polynomial `C0 + C1·x² + C2·x⁴ + (C3 + C4·x²)·x⁶`, as
/// `__sincosf_table[0]`; `__sincosf_table[1]` (quadrants with bit 1 set)
/// holds every coefficient negated.
const COS: [[f64; 5]; 2] = [
    [
        f64::from_bits(0x3ff0_0000_0000_0000),
        f64::from_bits(0xbfdf_ffff_fd0c_621c),
        f64::from_bits(0x3fa5_5553_e106_8f19),
        f64::from_bits(0xbf56_c087_e89a_359d),
        f64::from_bits(0x3ef9_9343_027b_f8c3),
    ],
    [
        f64::from_bits(0xbff0_0000_0000_0000),
        f64::from_bits(0x3fdf_ffff_fd0c_621c),
        f64::from_bits(0xbfa5_5553_e106_8f19),
        f64::from_bits(0x3f56_c087_e89a_359d),
        f64::from_bits(0xbef9_9343_027b_f8c3),
    ],
];
/// `4/π` to 192 bits (`__inv_pio4`), eight new bits per entry so that any
/// three entries four apart are a 96-bit window.
const INV_PIO4: [u32; 24] = [
    0x0000_00a2,
    0x0000_a2f9,
    0x00a2_f983,
    0xa2f9_836e,
    0xf983_6e4e,
    0x836e_4e44,
    0x6e4e_4415,
    0x4e44_1529,
    0x4415_29fc,
    0x1529_fc27,
    0x29fc_2757,
    0xfc27_57d1,
    0x2757_d1f5,
    0x57d1_f534,
    0xd1f5_34dd,
    0xf534_ddc0,
    0x34dd_c0db,
    0xddc0_db62,
    0xc0db_6295,
    0xdb62_9599,
    0x6295_993c,
    0x9599_3c43,
    0x993c_4390,
    0x3c43_9041,
];

/// Below this `abstop12` (`|x| < 2⁻¹²`), `cos x` is `1`.
const TINY_TOP: u32 = 0x398;
/// Below this (`|x| < 0.75`, `abstop12(π/4)`), no reduction.
const PIO4_TOP: u32 = 0x3f4;
/// Below this (`|x| < 120`), the one-step reduction.
const FAST_TOP: u32 = 0x42f;
/// From this on, `±inf` and NaN.
const NONFINITE_TOP: u32 = 0x7f8;

/// Exponent and the top three mantissa bits of `|x|`.
fn abstop12(x: f32) -> u32 {
    (x.to_bits() >> 20) & 0x7ff
}

/// glibc's `sinf_poly(x·sign[q & 3], x·x, table[q & 2 != 0], n ^ 1)`: the
/// sine polynomial for an odd quadrant `n`, the cosine's otherwise; the
/// sign and table come from `q` (`n`, plus the input's sign bit on the
/// large path).
#[inline(always)]
fn poly(x: f64, q: i32, n: i32) -> f32 {
    let x2 = x * x;
    if n & 1 != 0 {
        let x = x * SIGN[(q & 3) as usize];
        let x3 = x * x2;
        let s1 = x2.mul_add(S3, S2);
        let x7 = x3 * x2;
        let s = x3.mul_add(S1, x);
        s1.mul_add(x7, s) as f32
    } else {
        let c = &COS[((q >> 1) & 1) as usize];
        let x4 = x2 * x2;
        let c2 = x2.mul_add(c[4], c[3]);
        let c1 = x2.mul_add(c[1], c[0]);
        let x6 = x4 * x2;
        let c = x4.mul_add(c[2], c1);
        c2.mul_add(x6, c) as f32
    }
}

/// `|x|`'s residue modulo `π/2` in `[−π/4, π/4]` and its quadrant, for
/// `|x| >= 2` given as bits: a 32×96-bit product against a window of
/// [`INV_PIO4`] gives the residue as an exact 2.62 fixed-point number.
fn reduce_large(xi: u32) -> (f64, i32) {
    let arr = &INV_PIO4[((xi >> 26) & 15) as usize..];
    let shift = (xi >> 23) & 7;
    let xi = ((xi & 0x00ff_ffff) | 0x0080_0000) << shift;
    let res0 = u64::from(xi.wrapping_mul(arr[0]));
    let res1 = u64::from(xi) * u64::from(arr[4]);
    let res2 = u64::from(xi) * u64::from(arr[8]);
    let res0 = ((res2 >> 32) | (res0 << 32)).wrapping_add(res1);
    let n = res0.wrapping_add(1 << 61) >> 62;
    let res0 = res0.wrapping_sub(n << 62);
    (res0 as i64 as f64 * PI63, n as i32)
}

/// The recipe. `#[inline(always)]` for the reason [`crate::exp`] gives:
/// each caller's target features decide what `mul_add` compiles to, with
/// the same bits either way.
/// Non-finite inputs take glibc's `__math_invalidf`, `(y − y) / (y − y)`:
/// NaN by arithmetic, so a NaN input keeps its payload.
#[inline(always)]
#[allow(clippy::eq_op)]
fn cos_port(y: f32) -> f32 {
    let x = f64::from(y);
    let top = abstop12(y);
    if top < PIO4_TOP {
        if top < TINY_TOP {
            return 1.0;
        }
        return poly(x, 0, 0);
    }
    if top < FAST_TOP {
        // Truncating `x·2/π·2²⁴` and rounding in integers avoids the
        // truncation's bias on negative inputs.
        let n = ((x * HPI_INV) as i32).wrapping_add(0x0080_0000) >> 24;
        let x = (-f64::from(n)).mul_add(HPI, x);
        return poly(x, n, n);
    }
    if top < NONFINITE_TOP {
        let sign = (y.to_bits() >> 31) as i32;
        let (x, n) = reduce_large(y.to_bits());
        return poly(x, n.wrapping_add(sign), n);
    }
    (y - y) / (y - y)
}

/// Cosine — glibc 2.36's `__cosf_fma`, bit for bit on every input. The one
/// `cos` of this workspace's `f32` paths: the Box–Muller angle of every
/// seeded weight, the cosine learning-rate schedule and ELSA's angle
/// estimate are defined by it.
pub fn cos_f32(x: f32) -> f32 {
    cos_port(x)
}

/// [`cos_f32`] of every element, in place: the port loop or the 8-lane
/// kernel — the same bits either way.
pub(crate) fn cos_slice(lanes: Lanes, xs: &mut [f32]) {
    match lanes {
        Lanes::Plain => xs.iter_mut().for_each(|x| *x = cos_port(*x)),
        // SAFETY: the token proves AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2(_) => unsafe { x86::cos_lanes(xs) },
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use crate::lanes::{load, store};
    use std::arch::x86_64::*;

    /// The `|x| < 120` paths of [`cos_port`] on four lanes widened to
    /// `f64`, narrowed back. Below `0.75` the quadrant is 0 and
    /// `x − 0·π/2` is `x`, so the unreduced path needs no lane of its own.
    /// The quadrant's table only negates every cosine coefficient, and a
    /// fused multiply-add of negated operands is the negated result, so
    /// the lanes negate the cosine instead.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn cos4(x: __m128) -> __m128 {
        let pd = |v: f64| _mm256_set1_pd(v);
        let xd = _mm256_cvtps_pd(x);
        let t = _mm256_cvttpd_epi32(_mm256_mul_pd(xd, pd(HPI_INV)));
        let n = _mm_srai_epi32::<24>(_mm_add_epi32(t, _mm_set1_epi32(0x0080_0000)));
        let x = _mm256_fnmadd_pd(_mm256_cvtepi32_pd(n), pd(HPI), xd);
        let x2 = _mm256_mul_pd(x, x);
        let n = _mm256_cvtepi32_epi64(n);
        let sign_bit = |v: __m256i| _mm256_castsi256_pd(_mm256_slli_epi64::<63>(v));
        // Quadrants 1 and 2: bit 0 of `n ^ (n >> 1)`.
        let xs = _mm256_xor_pd(x, sign_bit(_mm256_xor_si256(n, _mm256_srli_epi64::<1>(n))));
        let x3 = _mm256_mul_pd(x2, xs);
        let s1 = _mm256_fmadd_pd(x2, pd(S3), pd(S2));
        let x7 = _mm256_mul_pd(x2, x3);
        let s = _mm256_fmadd_pd(x3, pd(S1), xs);
        let sin = _mm256_fmadd_pd(s1, x7, s);
        let c = &COS[0];
        let x4 = _mm256_mul_pd(x2, x2);
        let c2 = _mm256_fmadd_pd(x2, pd(c[4]), pd(c[3]));
        let c1 = _mm256_fmadd_pd(x2, pd(c[1]), pd(c[0]));
        let x6 = _mm256_mul_pd(x2, x4);
        let c = _mm256_fmadd_pd(x4, pd(c[2]), c1);
        let cos = _mm256_fmadd_pd(c2, x6, c);
        // Bit 1 of `n`: the negated table.
        let cos = _mm256_xor_pd(cos, sign_bit(_mm256_srli_epi64::<1>(n)));
        let odd = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(n));
        _mm256_cvtpd_ps(_mm256_blendv_pd(cos, sin, odd))
    }

    /// [`cos_port`] of eight lanes with `|x| < 120` (the others come back
    /// unspecified): [`cos4`] on each half, `1` blended in below `2⁻¹²`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn cos8(x: __m256) -> __m256 {
        let lo = cos4(_mm256_castps256_ps128(x));
        let hi = cos4(_mm256_extractf128_ps::<1>(x));
        let y = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
        let top = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(x)),
            _mm256_set1_epi32(0x7ff),
        );
        let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(TINY_TOP as i32), top);
        _mm256_blendv_ps(y, _mm256_set1_ps(1.0), _mm256_castsi256_ps(tiny))
    }

    /// Whether any lane of `x` is one [`cos8`] leaves to the port:
    /// `|x| >= 120`, infinite or NaN.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn any_rare(x: __m256) -> bool {
        let ix = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(i32::MAX));
        let rare = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(((FAST_TOP << 20) - 1) as i32));
        _mm256_movemask_epi8(rare) != 0
    }

    /// [`super::cos_slice`] on the lanes: eight per pass through [`cos8`],
    /// a group holding a rare lane and the tail `< 8` through the recipe.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn cos_lanes(xs: &mut [f32]) {
        let (groups, tail) = xs.as_chunks_mut::<8>();
        for g in groups {
            let x = load(g);
            if any_rare(x) {
                g.iter_mut().for_each(|v| *v = cos_port(*v));
            } else {
                store(g, cos8(x));
            }
        }
        for v in tail {
            *v = cos_port(*v);
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

    /// Two of the eleven inputs below 120 on which glibc's fused recipe
    /// and the same recipe with every product rounded on its own round
    /// differently (all near a multiple of `π/2`, where `x − n·π/2`
    /// cancels; no Box–Muller angle is among them), with the fused answer.
    /// They tell an `__cosf_fma` host from any other, and pin the port's
    /// bits on every host.
    const FMA_PROBES: [(u32, u32); 2] = [(0x418a_3adb, 0xb7b4_f770), (0x41bc_76d9, 0xbb80_3f6b)];

    /// Whether the host's libm computes glibc's FMA-variant `cosf`.
    fn host_cos_is_glibc_fma() -> bool {
        let is = FMA_PROBES
            .iter()
            .all(|&(x, y)| f32::from_bits(x).cos().to_bits() == y);
        if !is {
            eprintln!(
                "note: this host's cosf is not glibc's __cosf_fma (no FMA units, or \
                 another libm); skipping the port-vs-host comparison — see \
                 cos_port_matches_host_libm_exhaustive"
            );
        }
        is
    }

    /// Lanes == port on every input of `bits`, and port == host libm where
    /// that is `__cosf_fma`.
    fn agree(bits: &[u32]) {
        let host = host_cos_is_glibc_fma().then_some(f32::cos as fn(f32) -> f32);
        assert_lanes_port_host_agree(bits, cos_slice, cos_f32, host);
    }

    #[test]
    fn cos_port_reproduces_pinned_glibc_fma_outputs() {
        for (x, y) in FMA_PROBES {
            assert_eq!(cos_f32(f32::from_bits(x)).to_bits(), y, "at {x:#010x}");
            for lanes in bodies() {
                let mut tail = [f32::from_bits(x)];
                cos_slice(lanes, &mut tail);
                assert_eq!(tail[0].to_bits(), y, "{lanes:?} at {x:#010x}");
            }
        }
        assert_eq!(cos_f32(0.0), 1.0);
        assert_eq!(cos_f32(-0.0), 1.0);
        assert_eq!(cos_f32(std::f32::consts::PI), -1.0);
        assert!(cos_f32(f32::INFINITY).is_nan());
        assert!(cos_f32(f32::NEG_INFINITY).is_nan());
        assert!(cos_f32(f32::NAN).is_nan());
    }

    #[test]
    fn every_path_edge_and_quadrant_within_four_ulps() {
        let mut edges = vec![0u32, 0x007f_ffff, 0x7f7f_ffff, 0x7f80_0000];
        // Each path's first input, and the large path's shifts and table
        // windows: every exponent step up to the largest finite.
        edges.extend([TINY_TOP, PIO4_TOP, FAST_TOP, NONFINITE_TOP].map(|t| t << 20));
        edges.extend((0x40..0xff).map(|e: u32| e << 23));
        // Quadrant boundaries (odd multiples of π/4) through the fast range.
        edges.extend(
            (1..152)
                .step_by(2)
                .map(|j| (j as f32 * std::f32::consts::FRAC_PI_4).to_bits()),
        );
        let mut bits = vec![0x7fc0_0000, 0x7f80_0001, 0x7fff_ffff];
        for e in edges {
            bits.extend((e.saturating_sub(4)..=e.saturating_add(4)).flat_map(|b| [b, b | 1 << 31]));
        }
        bits.extend(FMA_PROBES.map(|(x, _)| x));
        agree(&bits);
    }

    #[test]
    fn random_bit_patterns_and_a_dense_stride() {
        let mut rng = SeededRng::new(31);
        let mut bits: Vec<u32> = (0..1 << 20).map(|_| rng.below(1 << 32) as u32).collect();
        // [-130, 130] in steps of 2^-11: every quadrant of the fast range
        // and the first of the large.
        bits.extend((-(130i32 << 11)..=130 << 11).map(|i| (i as f32 / 2048.0).to_bits()));
        agree(&bits);
    }

    /// The Box–Muller angle's whole domain: `(2π)·u2` for every `u2` a draw
    /// can give (`k·2⁻²⁴`), lanes == port == host.
    #[test]
    fn cos_over_the_whole_draw_domain() {
        let bits: Vec<u32> = (0..1u32 << 24)
            .map(|k| (std::f32::consts::TAU * (k as f32 * (1.0 / (1u32 << 24) as f32))).to_bits())
            .collect();
        agree(&bits);
    }

    #[test]
    fn cos_slice_is_the_port_element_wise_at_every_short_length() {
        let mut rng = SeededRng::new(32);
        let mut base = rng.uniform_matrix(1, 40, -10.0, 10.0).as_slice().to_vec();
        base[5] = 1.0e6;
        base[22] = f32::NAN;
        assert_windows_match_port(&base, cos_slice, cos_f32);
    }

    /// All 2³² inputs through the lanes, eight consecutive bit patterns per
    /// group, against the port.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs"]
    fn cos_lanes_match_port_exhaustive() {
        assert_eq!(exhaustive_mismatches("cos", cos_slice, cos_f32), 0);
    }

    /// Provenance: the port against the host libm's `cosf` on all 2³²
    /// inputs. The committed `results/*.json` were recorded through glibc
    /// 2.36 on a host with FMA units (`__cosf_fma`); this passes there and
    /// is expected to fail on a host without them or with another libm.
    /// Nothing in the repo's `f32` paths depends on the host's `cosf` any
    /// more.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs; fails by design where libm is not glibc's __cosf_fma"]
    fn cos_port_matches_host_libm_exhaustive() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let x = f32::from_bits(b);
                !same(cos_f32(x), x.cos())
            })
            .count();
        println!("cos port vs host libm: {mismatches} mismatches over 2^32 inputs");
        assert_eq!(mismatches, 0);
    }
}
