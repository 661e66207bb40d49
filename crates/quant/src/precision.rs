use std::fmt;

/// A computation precision supported by the RMMU (paper §4.2).
///
/// FX16 is used for the important-attention computation; INT8/INT4/INT2 are
/// used by the attention detector. Because the RMMU builds wide multipliers
/// out of INT2 blocks, narrower precisions run quadratically more multiplies
/// per cycle on the same silicon — captured by
/// [`throughput_multiplier`](Precision::throughput_multiplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// 2-bit signed integer (detector, most aggressive).
    Int2,
    /// 4-bit signed integer (the paper's "safe" detector precision, §5.5).
    Int4,
    /// 8-bit signed integer (needed when X, W̃Q, W̃K are INT4 so that
    /// Q̃ and K̃ are INT8, §5.5).
    Int8,
    /// 16-bit fixed point, the precision of important attention computation.
    Fx16,
}

impl Precision {
    /// All precisions, narrowest first.
    pub const ALL: [Precision; 4] = [
        Precision::Int2,
        Precision::Int4,
        Precision::Int8,
        Precision::Fx16,
    ];

    /// Bit width of one operand.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Int2 => 2,
            Precision::Int4 => 4,
            Precision::Int8 => 8,
            Precision::Fx16 => 16,
        }
    }

    /// Number of representable signed levels (`2^bits`).
    pub fn levels(self) -> i32 {
        1 << self.bits()
    }

    /// Largest representable magnitude for symmetric quantization
    /// (`2^(bits-1) - 1`).
    pub(crate) fn qmax(self) -> i32 {
        (1 << (self.bits() - 1)) - 1
    }

    /// Smallest representable value (`-2^(bits-1)`).
    pub(crate) fn qmin(self) -> i32 {
        -(1 << (self.bits() - 1))
    }

    /// MAC throughput of one PE at this precision, relative to FX16.
    ///
    /// An FX16 multiplier decomposes into 8×8 = 64 INT2 sub-multipliers
    /// (Fig. 7 shows the FX4/INT2 case: one FX4 multiplier = 4 INT2
    /// multipliers). Reconfiguring to half the width quadruples throughput:
    /// FX16 → 1, INT8 → 4, INT4 → 16, INT2 → 64.
    pub fn throughput_multiplier(self) -> u32 {
        let ratio = 16 / self.bits();
        ratio * ratio
    }

    /// Number of INT2 building-block multipliers consumed by one multiply at
    /// this precision.
    pub fn int2_blocks(self) -> u32 {
        let frags = self.bits() / 2;
        frags * frags
    }

    /// Relative dynamic energy of one MAC at this precision, normalized to
    /// FX16 = 1.0.
    ///
    /// Multiplier energy scales roughly quadratically with operand width;
    /// we use the INT2-block count as the proxy, which also matches the
    /// bit-fusion construction (active sub-multipliers).
    pub fn mac_energy_rel(self) -> f64 {
        self.int2_blocks() as f64 / Precision::Fx16.int2_blocks() as f64
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Int2 => "INT2",
            Precision::Int4 => "INT4",
            Precision::Int8 => "INT8",
            Precision::Fx16 => "FX16",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths() {
        assert_eq!(Precision::Int2.bits(), 2);
        assert_eq!(Precision::Int4.bits(), 4);
        assert_eq!(Precision::Int8.bits(), 8);
        assert_eq!(Precision::Fx16.bits(), 16);
    }

    #[test]
    fn quant_ranges_symmetric() {
        assert_eq!(Precision::Int2.qmin(), -2);
        assert_eq!(Precision::Int2.qmax(), 1);
        assert_eq!(Precision::Int4.qmin(), -8);
        assert_eq!(Precision::Int4.qmax(), 7);
        assert_eq!(Precision::Int8.qmax(), 127);
        assert_eq!(Precision::Fx16.qmax(), 32767);
    }

    #[test]
    fn throughput_quadratic_in_width_ratio() {
        assert_eq!(Precision::Fx16.throughput_multiplier(), 1);
        assert_eq!(Precision::Int8.throughput_multiplier(), 4);
        assert_eq!(Precision::Int4.throughput_multiplier(), 16);
        assert_eq!(Precision::Int2.throughput_multiplier(), 64);
    }

    #[test]
    fn int2_blocks_match_fig7_example() {
        // Fig. 7(c): an FX4 multiplier is built from four INT2 multipliers.
        assert_eq!(Precision::Int4.int2_blocks(), 4);
        assert_eq!(Precision::Int2.int2_blocks(), 1);
        assert_eq!(Precision::Fx16.int2_blocks(), 64);
    }

    #[test]
    fn energy_monotone_in_precision() {
        let mut prev = 0.0;
        for p in Precision::ALL {
            assert!(p.mac_energy_rel() > prev);
            prev = p.mac_energy_rel();
        }
        assert_eq!(Precision::Fx16.mac_energy_rel(), 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Int4.to_string(), "INT4");
        assert_eq!(Precision::Fx16.to_string(), "FX16");
    }

    #[test]
    fn ordering_narrowest_first() {
        assert!(Precision::Int2 < Precision::Int4);
        assert!(Precision::Int8 < Precision::Fx16);
    }
}
