use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Number of fractional bits in the Q-format used for FX16 values.
///
/// Q6.10 comfortably covers post-layer-norm activations and softmax
/// probabilities (magnitude ≤ ~32) with ~1e-3 resolution.
pub const FX16_FRAC_BITS: u32 = 10;

/// A 16-bit fixed-point number in Q6.10 format.
///
/// This is the datatype of DOTA's important-attention computation (paper
/// §4.1): `Q*K^T` products are accumulated in 32-bit and requantized, and
/// softmax is performed in floating point by the Multi-Function Unit before
/// results are quantized back to `Fx16` for the `A*V` product.
///
/// Arithmetic saturates instead of wrapping, matching hardware behaviour.
///
/// # Example
///
/// ```
/// use dota_quant::Fx16;
///
/// let a = Fx16::from_f32(1.5);
/// let b = Fx16::from_f32(-0.25);
/// assert!((f32::from(a * b) + 0.375).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx16(i16);

impl Fx16 {
    /// The zero value.
    pub const ZERO: Fx16 = Fx16(0);
    /// The largest representable value.
    pub const MAX: Fx16 = Fx16(i16::MAX);
    /// The smallest representable value.
    pub const MIN: Fx16 = Fx16(i16::MIN);

    /// Converts from `f32`, rounding to nearest and saturating at the
    /// representable range.
    pub fn from_f32(x: f32) -> Self {
        let scaled = (x * (1 << FX16_FRAC_BITS) as f32).round();
        Fx16(scaled.clamp(i16::MIN as f32, i16::MAX as f32) as i16)
    }

    /// Constructs from the raw underlying bits.
    pub(crate) fn from_raw(raw: i16) -> Self {
        Fx16(raw)
    }

    /// The raw underlying bits.
    pub fn raw(self) -> i16 {
        self.0
    }

    /// Converts to `f32`.
    pub(crate) fn to_f32(self) -> f32 {
        self.0 as f32 / (1 << FX16_FRAC_BITS) as f32
    }

    /// The quantization step (smallest positive increment).
    #[cfg(test)]
    pub(crate) fn epsilon() -> f32 {
        1.0 / (1 << FX16_FRAC_BITS) as f32
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Fx16) -> Fx16 {
        Fx16(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication via a 32-bit intermediate product, as a
    /// hardware fixed-point multiplier would compute it.
    pub fn saturating_mul(self, rhs: Fx16) -> Fx16 {
        let wide = (self.0 as i32 * rhs.0 as i32) >> FX16_FRAC_BITS;
        Fx16(wide.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Multiply-accumulate into a 32-bit accumulator *without* intermediate
    /// rounding: returns `acc + self*rhs` where the product keeps all
    /// `2*FX16_FRAC_BITS` fractional bits. This models the PE's wide PSUM
    /// register (Fig. 7(b)).
    pub(crate) fn mac(self, rhs: Fx16, acc: i64) -> i64 {
        acc + self.0 as i64 * rhs.0 as i64
    }

    /// Converts a wide accumulator produced by [`mac`](Fx16::mac) back into
    /// an `Fx16`, with rounding and saturation.
    #[cfg(test)]
    pub(crate) fn from_accumulator(acc: i64) -> Fx16 {
        let rounded = (acc + (1 << (FX16_FRAC_BITS - 1))) >> FX16_FRAC_BITS;
        Fx16(rounded.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
    }
}

impl From<Fx16> for f32 {
    fn from(x: Fx16) -> f32 {
        x.to_f32()
    }
}

impl Add for Fx16 {
    type Output = Fx16;
    fn add(self, rhs: Fx16) -> Fx16 {
        self.saturating_add(rhs)
    }
}

impl Sub for Fx16 {
    type Output = Fx16;
    fn sub(self, rhs: Fx16) -> Fx16 {
        Fx16(self.0.saturating_sub(rhs.0))
    }
}

impl Mul for Fx16 {
    type Output = Fx16;
    fn mul(self, rhs: Fx16) -> Fx16 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Fx16 {
    type Output = Fx16;
    fn neg(self) -> Fx16 {
        Fx16(self.0.saturating_neg())
    }
}

impl fmt::Display for Fx16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_epsilon() {
        for &x in &[0.0, 1.0, -1.0, 0.123, -3.719, 15.5, -20.0] {
            let fx = Fx16::from_f32(x);
            assert!(
                (fx.to_f32() - x).abs() <= Fx16::epsilon() / 2.0 + 1e-6,
                "{x}"
            );
        }
    }

    #[test]
    fn saturates_out_of_range() {
        assert_eq!(Fx16::from_f32(1e9), Fx16::MAX);
        assert_eq!(Fx16::from_f32(-1e9), Fx16::MIN);
        assert_eq!(Fx16::MAX + Fx16::MAX, Fx16::MAX);
        assert_eq!(Fx16::MIN + Fx16::MIN, Fx16::MIN);
    }

    #[test]
    fn multiplication_approximates_f32() {
        let cases = [(1.5, 2.0), (-0.75, 0.5), (3.25, -3.0), (0.1, 0.1)];
        for (a, b) in cases {
            let got = (Fx16::from_f32(a) * Fx16::from_f32(b)).to_f32();
            assert!((got - a * b).abs() < 0.01, "{a}*{b} = {got}");
        }
    }

    #[test]
    fn mul_saturates() {
        let big = Fx16::from_f32(30.0);
        assert_eq!(big * big, Fx16::MAX);
        assert_eq!(big * -big, Fx16::MIN);
    }

    #[test]
    fn wide_mac_no_intermediate_rounding() {
        // Sum of many small products: wide accumulation must be more
        // accurate than rounding each product to Fx16 first.
        let vals: Vec<f32> = (0..100).map(|i| 0.011 * (i % 7) as f32).collect();
        let mut acc = 0i64;
        let mut narrow = Fx16::ZERO;
        let mut exact = 0.0f32;
        for &v in &vals {
            let a = Fx16::from_f32(v);
            let b = Fx16::from_f32(0.013);
            acc = a.mac(b, acc);
            narrow = narrow + a * b;
            exact += a.to_f32() * b.to_f32();
        }
        let wide = Fx16::from_accumulator(acc).to_f32();
        assert!((wide - exact).abs() <= (narrow.to_f32() - exact).abs() + 1e-6);
        assert!((wide - exact).abs() < 0.002);
    }

    #[test]
    fn neg_and_sub() {
        let a = Fx16::from_f32(2.0);
        assert_eq!((-a).to_f32(), -2.0);
        assert_eq!((a - a).to_f32(), 0.0);
    }

    #[test]
    fn ordering_matches_value() {
        assert!(Fx16::from_f32(1.0) < Fx16::from_f32(2.0));
        assert!(Fx16::from_f32(-1.0) < Fx16::ZERO);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(Fx16::from_f32(0.5).to_string(), "0.5");
    }
}
