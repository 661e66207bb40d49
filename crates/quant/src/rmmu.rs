//! Functional and throughput model of the Reconfigurable Matrix
//! Multiplication Unit (paper §4.2, Fig. 7a).
//!
//! The RMMU is a 32×16 grid of multi-precision PEs. Each *row* of the array
//! can be independently configured to FX16, INT8, INT4 or INT2; a row at a
//! narrower precision performs quadratically more MACs per cycle on the same
//! INT2 blocks. DOTA uses this to rebalance throughput between attention
//! *detection* (low precision) and attention *computation* (FX16) per
//! benchmark.
//!
//! The model here answers the two questions the cycle-level simulator asks:
//! *how many MACs per cycle does a configuration sustain at each precision*,
//! and *how many cycles does a given GEMM take*.

use crate::Precision;

/// Default PE-array height (rows) from Table 2.
pub const DEFAULT_ROWS: usize = 32;
/// Default PE-array width (columns) from Table 2.
pub const DEFAULT_COLS: usize = 16;

/// A row-wise precision configuration of the RMMU PE array.
///
/// # Example
///
/// ```
/// use dota_quant::rmmu::RmmuConfig;
/// use dota_quant::Precision;
///
/// // 28 FX16 rows for attention math, 4 INT4 rows for the detector.
/// let cfg = RmmuConfig::split(28, Precision::Fx16, 4, Precision::Int4);
/// assert_eq!(cfg.macs_per_cycle(Precision::Fx16), 28 * 16);
/// assert_eq!(cfg.macs_per_cycle(Precision::Int4), 4 * 16 * 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmmuConfig {
    cols: usize,
    row_precision: Vec<Precision>,
}

impl RmmuConfig {
    /// A uniform configuration: every row at `precision`.
    pub fn uniform(precision: Precision) -> Self {
        Self::with_shape(DEFAULT_ROWS, DEFAULT_COLS, precision)
    }

    /// A uniform configuration with explicit array shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub(crate) fn with_shape(rows: usize, cols: usize, precision: Precision) -> Self {
        assert!(rows > 0 && cols > 0, "PE array must be non-empty");
        Self {
            cols,
            row_precision: vec![precision; rows],
        }
    }

    /// A two-way split: `rows_a` rows at `prec_a` followed by `rows_b` rows
    /// at `prec_b`, with the default column width.
    ///
    /// # Panics
    ///
    /// Panics if `rows_a + rows_b == 0`.
    pub fn split(rows_a: usize, prec_a: Precision, rows_b: usize, prec_b: Precision) -> Self {
        assert!(rows_a + rows_b > 0, "PE array must be non-empty");
        let mut row_precision = vec![prec_a; rows_a];
        row_precision.extend(std::iter::repeat_n(prec_b, rows_b));
        Self {
            cols: DEFAULT_COLS,
            row_precision,
        }
    }

    /// Number of PE rows.
    pub fn rows(&self) -> usize {
        self.row_precision.len()
    }

    /// Number of PE columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The precision of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> Precision {
        self.row_precision[r]
    }

    /// Number of rows currently configured at `precision`.
    pub(crate) fn rows_at(&self, precision: Precision) -> usize {
        self.row_precision
            .iter()
            .filter(|&&p| p == precision)
            .count()
    }

    /// Sustained MACs per cycle available to work at `precision`.
    ///
    /// Only rows configured at that precision contribute; each contributes
    /// `cols * throughput_multiplier` MACs per cycle.
    pub fn macs_per_cycle(&self, precision: Precision) -> u64 {
        self.rows_at(precision) as u64 * self.cols as u64 * precision.throughput_multiplier() as u64
    }

    /// Cycles to execute an `m x k x n` GEMM at `precision`, assuming ideal
    /// utilization of the rows configured at that precision.
    ///
    /// Returns `None` if no row is configured at that precision.
    #[cfg(test)]
    pub(crate) fn gemm_cycles(
        &self,
        precision: Precision,
        m: usize,
        k: usize,
        n: usize,
    ) -> Option<u64> {
        let rate = self.macs_per_cycle(precision);
        if rate == 0 {
            return None;
        }
        let macs = m as u64 * k as u64 * n as u64;
        Some(macs.div_ceil(rate))
    }
}

impl Default for RmmuConfig {
    fn default() -> Self {
        Self::uniform(Precision::Fx16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_throughput_matches_table2() {
        // Table 2: 32*16 FX-16 PEs at 1 GHz ≈ 0.5 TMAC/s = 1 TOPS/Lane,
        // 4 lanes ≈ 2 TOPS accelerator at 2 ops/MAC... the model just needs
        // 512 MACs/cycle at FX16.
        let cfg = RmmuConfig::uniform(Precision::Fx16);
        assert_eq!(cfg.macs_per_cycle(Precision::Fx16), 512);
        assert_eq!(cfg.macs_per_cycle(Precision::Int4), 0);
    }

    #[test]
    fn split_rebalances_throughput() {
        let cfg = RmmuConfig::split(30, Precision::Fx16, 2, Precision::Int2);
        assert_eq!(cfg.macs_per_cycle(Precision::Fx16), 30 * 16);
        assert_eq!(cfg.macs_per_cycle(Precision::Int2), 2 * 16 * 64);
        assert_eq!(cfg.rows(), 32);
    }

    #[test]
    fn narrow_rows_quadratically_faster() {
        let wide = RmmuConfig::with_shape(1, 16, Precision::Fx16);
        let narrow = RmmuConfig::with_shape(1, 16, Precision::Int4);
        let c_wide = wide.gemm_cycles(Precision::Fx16, 64, 64, 64).unwrap();
        let c_narrow = narrow.gemm_cycles(Precision::Int4, 64, 64, 64).unwrap();
        assert_eq!(c_wide, 16 * c_narrow);
    }

    #[test]
    fn gemm_cycles_rounds_up() {
        let cfg = RmmuConfig::with_shape(1, 16, Precision::Fx16);
        // 17 MACs at 16/cycle -> 2 cycles.
        assert_eq!(cfg.gemm_cycles(Precision::Fx16, 1, 17, 1), Some(2));
        assert_eq!(cfg.gemm_cycles(Precision::Int8, 1, 1, 1), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_array_rejected() {
        let _ = RmmuConfig::with_shape(0, 16, Precision::Fx16);
    }
}

/// A functional executor for the PE array: performs a quantized
/// `A * B^T` on the modeled hardware, multiplying through the bit-fusion
/// [`FusedMultiplier`](crate::bitfusion::FusedMultiplier) blocks and
/// accounting cycles against the configured throughput.
///
/// This is the consistency bridge between the three RMMU views: the
/// *functional* result must equal [`crate::QuantizedMatrix::matmul_nt_dequant`]
/// exactly, and the *cycle* count must equal the GEMM's MACs over the
/// configured rate, rounded up.
#[derive(Debug, Clone)]
pub struct RmmuArray {
    config: RmmuConfig,
    cycles: u64,
}

impl RmmuArray {
    /// Creates an executor over a configuration.
    pub fn new(config: RmmuConfig) -> Self {
        Self { config, cycles: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &RmmuConfig {
        &self.config
    }

    /// Total cycles accumulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Executes `a * b^T` on quantized operands at `precision`, returning
    /// the dequantized result. Every scalar multiply goes through the fused
    /// INT2-block construction; cycles accrue at the configured rate.
    ///
    /// # Errors
    ///
    /// Returns a [`dota_tensor::ShapeError`] when inner dimensions
    /// disagree.
    ///
    /// # Panics
    ///
    /// Panics if no row of the array is configured at `precision`, or an
    /// operand's codes do not fit the precision.
    pub fn matmul_nt(
        &mut self,
        precision: Precision,
        a: &crate::QuantizedMatrix,
        b: &crate::QuantizedMatrix,
    ) -> Result<dota_tensor::Matrix, dota_tensor::ShapeError> {
        if a.cols() != b.cols() {
            return Err(dota_tensor::ShapeError::new(
                "rmmu_matmul_nt",
                (a.rows(), a.cols()),
                (b.rows(), b.cols()),
            ));
        }
        let rate = self.config.macs_per_cycle(precision);
        assert!(rate > 0, "no PE row configured at {precision}");
        let mut mul = crate::bitfusion::FusedMultiplier::new(precision);
        let scale = a.scale() * b.scale();
        let mut out = dota_tensor::Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let arow = a.code_row(i);
            for j in 0..b.rows() {
                let brow = b.code_row(j);
                let acc = mul.dot(arow, brow);
                out[(i, j)] = acc as f32 * scale;
            }
        }
        let macs = (a.rows() * a.cols() * b.rows()) as u64;
        let cycles = macs.div_ceil(rate);
        self.cycles += cycles;
        if dota_trace::enabled() {
            dota_trace::count(&format!("rmmu.exec.macs.{precision}"), macs);
            dota_trace::count("rmmu.exec.int2_ops", mul.int2_ops());
            dota_trace::count("rmmu.exec.cycles", cycles);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod array_tests {
    use super::*;
    use crate::Quantizer;
    use dota_tensor::rng::SeededRng;

    #[test]
    fn functional_result_matches_quantized_matmul() {
        let mut rng = SeededRng::new(11);
        let a = rng.normal_matrix(6, 8, 1.0);
        let b = rng.normal_matrix(5, 8, 1.0);
        for p in [Precision::Int4, Precision::Int8] {
            let qa = Quantizer::symmetric(p).quantize(&a);
            let qb = Quantizer::symmetric(p).quantize(&b);
            let reference = qa.matmul_nt_dequant(&qb).unwrap();
            let mut array = RmmuArray::new(RmmuConfig::uniform(p));
            let got = array.matmul_nt(p, &qa, &qb).unwrap();
            assert!(got.approx_eq(&reference, 1e-6), "{p}: functional mismatch");
        }
    }

    #[test]
    fn cycles_match_timing_model() {
        let mut rng = SeededRng::new(12);
        let a = rng.normal_matrix(16, 32, 1.0);
        let b = rng.normal_matrix(16, 32, 1.0);
        let p = Precision::Int4;
        let qa = Quantizer::symmetric(p).quantize(&a);
        let qb = Quantizer::symmetric(p).quantize(&b);
        let cfg = RmmuConfig::uniform(p);
        let expect = cfg.gemm_cycles(p, 16, 32, 16).unwrap();
        let mut array = RmmuArray::new(cfg);
        let _ = array.matmul_nt(p, &qa, &qb).unwrap();
        assert_eq!(array.cycles(), expect);
    }

    #[test]
    fn int2_block_count_scales_with_precision() {
        let mut rng = SeededRng::new(13);
        let a = rng.normal_matrix(4, 4, 1.0);
        let b = rng.normal_matrix(4, 4, 1.0);
        let count_for = |p: Precision| {
            let qa = Quantizer::symmetric(p).quantize(&a);
            let qb = Quantizer::symmetric(p).quantize(&b);
            let mut array = RmmuArray::new(RmmuConfig::uniform(p));
            let guard = dota_trace::session("rmmu");
            let _ = array.matmul_nt(p, &qa, &qb).unwrap();
            guard.counters()["rmmu.exec.int2_ops"]
        };
        let macs = 4 * 4 * 4;
        assert_eq!(count_for(Precision::Int2), macs);
        assert_eq!(count_for(Precision::Int4), macs * 4);
        assert_eq!(count_for(Precision::Int8), macs * 16);
    }

    #[test]
    #[should_panic(expected = "no PE row configured")]
    fn unconfigured_precision_rejected() {
        let mut array = RmmuArray::new(RmmuConfig::uniform(Precision::Fx16));
        let q = Quantizer::symmetric(Precision::Int4).quantize(&dota_tensor::Matrix::zeros(2, 2));
        let _ = array.matmul_nt(Precision::Int4, &q, &q);
    }
}
