//! Energy, power and area model (paper Table 2: TSMC 22nm, 1 GHz).
//!
//! Per-operation energies are derived from the paper's published module
//! powers divided by their throughputs at 1 GHz; SRAM/DRAM access energies
//! use standard 22nm-era constants (CACTI-class numbers). Everything is in
//! picojoules so reports stay integer-friendly.

use dota_quant::Precision;

/// Clock frequency of the modeled design (GHz).
pub const FREQ_GHZ: f64 = 1.0;

/// FX16 MAC energy in pJ.
///
/// Table 2: one Lane's RMMU draws 645.98 mW; a 32×16 array at 1 GHz
/// sustains 512 MACs/cycle → `645.98e-3 W / 512e9 MAC/s ≈ 1.26 pJ/MAC`.
pub const MAC_FX16_PJ: f64 = 1.26;

/// Accumulator energy per accumulation in pJ (139.21 mW at 512 acc/cycle).
pub const ACCUM_PJ: f64 = 0.27;

/// MFU energy per special-function element (exp + divide + quantize path);
/// 60.73 mW across 16 exp + 16 div lanes at 1 GHz.
pub const MFU_OP_PJ: f64 = 1.9;

/// Scheduler (Detector "Filter") energy per scheduled connection ID;
/// 9.13 mW at 4 IDs/cycle.
pub const SCHED_ID_PJ: f64 = 2.3;

/// On-chip SRAM access energy per byte (22nm, 64 KB banks).
pub const SRAM_PJ_PER_BYTE: f64 = 1.4;

/// Off-chip DRAM access energy per byte (~7 pJ/bit, HBM-class interface —
/// consistent with §5.4's finding that FC-layer MACs, not DRAM, dominate
/// DOTA's energy).
pub const DRAM_PJ_PER_BYTE: f64 = 56.0;

/// SRAM leakage power in mW (Table 2: 0.51 mW for 2.5 MB).
pub const SRAM_LEAKAGE_MW: f64 = 0.51;

/// Energy of one MAC at the given precision, in pJ.
///
/// Narrow MACs reuse a quadratically smaller slice of the fused multiplier
/// (see [`Precision::mac_energy_rel`]).
pub(crate) fn mac_pj(precision: Precision) -> f64 {
    MAC_FX16_PJ * precision.mac_energy_rel()
}

/// One row of the Table 2 area/power inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    /// Module name as printed in Table 2.
    pub name: &'static str,
    /// Configuration summary.
    pub configuration: &'static str,
    /// Power in mW.
    pub power_mw: f64,
    /// Area in mm².
    pub area_mm2: f64,
}

/// The Table 2 inventory of the DOTA accelerator (per-module power/area at
/// 22nm, 1 GHz). Values are the paper's synthesis results; this model's
/// per-op energies above are calibrated against them.
pub fn table2() -> Vec<ModuleSpec> {
    vec![
        ModuleSpec {
            name: "Lane",
            configuration: "4 Lanes per accelerator",
            power_mw: 2878.33,
            area_mm2: 2.701,
        },
        ModuleSpec {
            name: "Lane/RMMU",
            configuration: "32*16 FX-16",
            power_mw: 645.98,
            area_mm2: 0.609,
        },
        ModuleSpec {
            name: "Lane/Filter",
            configuration: "Token Paral. = 4",
            power_mw: 9.13,
            area_mm2: 0.003,
        },
        ModuleSpec {
            name: "Lane/MFU",
            configuration: "16 Exp, 16 Div, 16*16 Adder Tree",
            power_mw: 60.73,
            area_mm2: 0.060,
        },
        ModuleSpec {
            name: "Accumulator",
            configuration: "512 accu/cycle",
            power_mw: 139.21,
            area_mm2: 0.045,
        },
        ModuleSpec {
            name: "DOTA (w/o SRAM)",
            configuration: "2TOPS",
            power_mw: 3017.54,
            area_mm2: 2.746,
        },
        ModuleSpec {
            name: "SRAM",
            configuration: "2.5MB",
            power_mw: SRAM_LEAKAGE_MW,
            area_mm2: 1.690,
        },
    ]
}

/// Total accelerator power (W) including SRAM leakage.
pub fn total_power_w() -> f64 {
    (3017.54 + SRAM_LEAKAGE_MW) / 1000.0
}

/// Total accelerator area (mm²) including SRAM.
pub fn total_area_mm2() -> f64 {
    2.746 + 1.690
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_energy_scales_quadratically() {
        assert!((mac_pj(Precision::Fx16) - MAC_FX16_PJ).abs() < 1e-9);
        assert!((mac_pj(Precision::Int8) - MAC_FX16_PJ / 4.0).abs() < 1e-9);
        assert!((mac_pj(Precision::Int4) - MAC_FX16_PJ / 16.0).abs() < 1e-9);
        assert!((mac_pj(Precision::Int2) - MAC_FX16_PJ / 64.0).abs() < 1e-9);
    }

    #[test]
    fn rmmu_energy_consistent_with_table2_power() {
        // 4 lanes * 512 MACs/cycle * 1 GHz * MAC_FX16_PJ should be close to
        // the 4-lane RMMU power (4 * 645.98 mW).
        let watts = 4.0 * 512.0 * 1e9 * mac_pj(Precision::Fx16) * 1e-12;
        let table = 4.0 * 645.98e-3;
        assert!((watts - table).abs() / table < 0.05, "{watts} vs {table}");
    }

    #[test]
    fn table2_matches_paper_totals() {
        let rows = table2();
        assert_eq!(rows.len(), 7);
        let dota = rows.iter().find(|r| r.name.starts_with("DOTA")).unwrap();
        assert!((dota.power_mw - 3017.54).abs() < 1e-6);
        // Per-lane module areas sum close to the per-lane area:
        // (2.701 / 4) ≈ RMMU + Filter + MFU.
        let per_lane: f64 = 2.701 / 4.0;
        let parts = 0.609 + 0.003 + 0.060;
        assert!((per_lane - parts).abs() / per_lane < 0.01);
        assert!((total_area_mm2() - 4.436).abs() < 1e-9);
        assert!(total_power_w() > 3.0 && total_power_w() < 3.1);
    }

    #[test]
    fn dram_much_more_expensive_than_sram() {
        let ratio = DRAM_PJ_PER_BYTE / SRAM_PJ_PER_BYTE;
        assert!(ratio > 20.0, "DRAM/SRAM energy ratio {ratio}");
    }
}
