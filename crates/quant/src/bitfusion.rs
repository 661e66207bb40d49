//! Bit-fusion multiplier composition (paper §4.2, Fig. 7).
//!
//! DOTA's RMMU does not instantiate separate INT2/INT4/INT8/FX16 multipliers.
//! Instead, each PE contains a pool of INT2 multipliers that can either run
//! 64 independent INT2 multiplies per cycle or be *fused* — four INT2 blocks
//! make an INT4 multiplier, four INT4 make an INT8, four INT8 make an FX16 —
//! following the construction of Sharma et al.'s Bit Fusion, which the paper
//! cites as its building block.
//!
//! [`FusedMultiplier`] reproduces that construction in software: an n-bit
//! signed multiply is decomposed into radix-4 fragments (the top fragment
//! signed, the rest unsigned), all pairwise 2-bit products are formed by a
//! modeled INT2 multiplier, and the partial products are shifted and
//! accumulated exactly as the adder network in Fig. 7(c) would. Property
//! tests assert the composition is *bit-exact* against native wide
//! multiplication for every supported precision.

use crate::Precision;

/// One radix-4 (2-bit) fragment of an operand, with its signedness.
///
/// In the hardware, unsigned fragments feed unsigned×unsigned INT2
/// multipliers and the most-significant fragment feeds the signed port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// Fragment value: `0..=3` when unsigned, `-2..=1` when signed.
    pub value: i8,
    /// Whether this fragment carries the operand's sign.
    pub signed: bool,
}

/// Decomposes an n-bit signed integer into `n/2` radix-4 fragments,
/// least-significant first. All fragments are unsigned except the last.
///
/// # Panics
///
/// Panics if `value` does not fit in `bits`, or `bits` is not a positive
/// multiple of 2.
pub fn decompose(value: i32, bits: u32) -> Vec<Fragment> {
    assert!(
        bits >= 2 && bits.is_multiple_of(2),
        "bits must be a positive multiple of 2"
    );
    let min = -(1i32 << (bits - 1));
    let max = (1i32 << (bits - 1)) - 1;
    assert!(
        (min..=max).contains(&value),
        "{value} does not fit in {bits} signed bits"
    );
    let unsigned = (value as u32) & ((1u64 << bits) - 1) as u32;
    let n_frag = (bits / 2) as usize;
    (0..n_frag)
        .map(|i| {
            let raw = ((unsigned >> (2 * i)) & 0b11) as i8;
            if i == n_frag - 1 {
                // Sign-extend the top fragment from 2 bits.
                let signed_val = if raw >= 2 { raw - 4 } else { raw };
                Fragment {
                    value: signed_val,
                    signed: true,
                }
            } else {
                Fragment {
                    value: raw,
                    signed: false,
                }
            }
        })
        .collect()
}

/// Reassembles fragments produced by [`decompose`] back into the integer.
#[cfg(test)]
pub(crate) fn recompose(fragments: &[Fragment]) -> i32 {
    fragments
        .iter()
        .enumerate()
        .map(|(i, f)| (f.value as i32) << (2 * i))
        .sum()
}

/// A multi-precision multiplier built from INT2 blocks.
///
/// Tracks how many INT2 sub-multiplications have been issued, so callers
/// (the RMMU timing model) can account for energy and throughput.
///
/// # Example
///
/// ```
/// use dota_quant::bitfusion::FusedMultiplier;
/// use dota_quant::Precision;
///
/// let mut m = FusedMultiplier::new(Precision::Int4);
/// assert_eq!(m.mul(-7, 5), -35);
/// assert_eq!(m.int2_ops(), 4); // one INT4 multiply = four INT2 blocks
/// ```
#[derive(Debug, Clone)]
pub struct FusedMultiplier {
    precision: Precision,
    int2_ops: u64,
}

impl FusedMultiplier {
    /// Creates a multiplier configured for `precision`.
    pub fn new(precision: Precision) -> Self {
        Self {
            precision,
            int2_ops: 0,
        }
    }

    /// The configured precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Total INT2 block multiplications issued so far.
    pub fn int2_ops(&self) -> u64 {
        self.int2_ops
    }

    /// Multiplies two signed operands of the configured precision by
    /// composing INT2 block products, exactly as the fused hardware would.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in the configured bit width.
    pub fn mul(&mut self, a: i32, b: i32) -> i64 {
        let bits = self.precision.bits();
        let fa = decompose(a, bits);
        let fb = decompose(b, bits);
        let mut acc: i64 = 0;
        for (i, x) in fa.iter().enumerate() {
            for (j, y) in fb.iter().enumerate() {
                let partial = self.int2_block_mul(*x, *y);
                // Shift-and-accumulate network: partial product of fragments
                // i and j lands at bit position 2*(i+j).
                acc += (partial as i64) << (2 * (i + j));
            }
        }
        acc
    }

    /// Dot product of two equal-length operand slices with a wide
    /// accumulator, the PE's MAC loop.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or an element is out of range.
    pub fn dot(&mut self, a: &[i32], b: &[i32]) -> i64 {
        assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        a.iter().zip(b).map(|(&x, &y)| self.mul(x, y)).sum()
    }

    /// One INT2 block: multiplies two 2-bit fragments (signed or unsigned
    /// ports) and produces a 4-bit partial sum, as in Fig. 7(c).
    fn int2_block_mul(&mut self, a: Fragment, b: Fragment) -> i32 {
        self.int2_ops += 1;
        debug_assert!(if a.signed {
            (-2..=1).contains(&a.value)
        } else {
            (0..=3).contains(&a.value)
        });
        debug_assert!(if b.signed {
            (-2..=1).contains(&b.value)
        } else {
            (0..=3).contains(&b.value)
        });
        a.value as i32 * b.value as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_recompose_round_trip() {
        for bits in [2u32, 4, 8, 16] {
            let min = -(1i32 << (bits - 1));
            let max = (1i32 << (bits - 1)) - 1;
            let samples = [min, min + 1, -1, 0, 1, max - 1, max];
            for &v in &samples {
                let frags = decompose(v, bits);
                assert_eq!(frags.len(), (bits / 2) as usize);
                assert_eq!(recompose(&frags), v, "bits={bits} v={v}");
                // Exactly one signed fragment, and it is the last one.
                assert!(frags.last().unwrap().signed);
                assert!(frags[..frags.len() - 1].iter().all(|f| !f.signed));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn decompose_rejects_out_of_range() {
        let _ = decompose(8, 4);
    }

    #[test]
    fn int4_exhaustive_matches_native() {
        let mut m = FusedMultiplier::new(Precision::Int4);
        for a in -8..=7 {
            for b in -8..=7 {
                assert_eq!(m.mul(a, b), (a * b) as i64, "{a}*{b}");
            }
        }
    }

    #[test]
    fn int2_exhaustive_matches_native() {
        let mut m = FusedMultiplier::new(Precision::Int2);
        for a in -2..=1 {
            for b in -2..=1 {
                assert_eq!(m.mul(a, b), (a * b) as i64);
            }
        }
        // One INT2 multiply uses exactly one block.
        let mut m = FusedMultiplier::new(Precision::Int2);
        m.mul(1, -2);
        assert_eq!(m.int2_ops(), 1);
    }

    #[test]
    fn block_counts_match_fig7() {
        for (p, blocks) in [
            (Precision::Int2, 1u64),
            (Precision::Int4, 4),
            (Precision::Int8, 16),
            (Precision::Fx16, 64),
        ] {
            let mut m = FusedMultiplier::new(p);
            m.mul(1, 1);
            assert_eq!(m.int2_ops(), blocks, "{p}");
            assert_eq!(p.int2_blocks() as u64, blocks);
        }
    }

    #[test]
    fn fx16_extremes_match_native() {
        let mut m = FusedMultiplier::new(Precision::Fx16);
        for &a in &[i16::MIN as i32, -1, 0, 1, i16::MAX as i32, 12345, -9876] {
            for &b in &[i16::MIN as i32, -1, 0, 1, i16::MAX as i32, -321] {
                assert_eq!(m.mul(a, b), a as i64 * b as i64, "{a}*{b}");
            }
        }
    }

    #[test]
    fn dot_accumulates() {
        let mut m = FusedMultiplier::new(Precision::Int8);
        let a = [1, -2, 3, 100];
        let b = [4, 5, -6, -100];
        let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as i64).sum();
        assert_eq!(m.dot(&a, &b), expect);
        assert_eq!(m.int2_ops(), 4 * 16);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn int8_composition_bit_exact(a in -128i32..=127, b in -128i32..=127) {
                let mut m = FusedMultiplier::new(Precision::Int8);
                prop_assert_eq!(m.mul(a, b), a as i64 * b as i64);
            }

            #[test]
            fn fx16_composition_bit_exact(a in i16::MIN as i32..=i16::MAX as i32,
                                          b in i16::MIN as i32..=i16::MAX as i32) {
                let mut m = FusedMultiplier::new(Precision::Fx16);
                prop_assert_eq!(m.mul(a, b), a as i64 * b as i64);
            }

            #[test]
            fn decompose_round_trip_prop(v in i16::MIN as i32..=i16::MAX as i32) {
                prop_assert_eq!(recompose(&decompose(v, 16)), v);
            }
        }
    }
}
