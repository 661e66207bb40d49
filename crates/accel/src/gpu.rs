//! V100-class GPU baseline as a roofline model (paper §5.1, §5.3).
//!
//! The paper compares against an NVIDIA V100 (14 TFLOPS FP32 peak,
//! 900 GB/s HBM2, ~300 W) running dense batch-1 inference. A roofline with
//! size-dependent GEMM efficiency captures the two behaviours the
//! comparison rests on: (a) dense attention cannot exploit sparsity, and
//! (b) batch-1 attention GEMMs have tiny inner dimensions (the 64-wide head
//! dimension), so the GPU runs them at a few percent of peak while the
//! parameterized GEMMs fare much better.

use dota_transformer::TransformerConfig;

/// Roofline model of a data-center GPU.
#[derive(Debug, Clone)]
pub struct GpuModel {
    /// Peak FP32 throughput in TFLOPS.
    pub peak_tflops: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Board power in watts.
    pub power_w: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        Self {
            peak_tflops: 14.0,
            mem_bw_gbps: 900.0,
            power_w: 300.0,
        }
    }
}

impl GpuModel {
    /// Achievable fraction of peak for an `m x k x n` GEMM at batch 1.
    ///
    /// Efficiency saturates at 45% for large square GEMMs and collapses
    /// when the smallest dimension is narrow (underfilled SMs, no data
    /// reuse) — the regime of `Q K^T` with `k = 64`.
    pub(crate) fn gemm_efficiency(&self, m: usize, k: usize, n: usize) -> f64 {
        let min_dim = m.min(k).min(n) as f64;
        (0.45 * (min_dim / 512.0)).clamp(0.08, 0.45)
    }

    /// Seconds for an `m x k x n` GEMM (compute vs. memory roofline).
    pub(crate) fn gemm_seconds(&self, m: usize, k: usize, n: usize) -> f64 {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let eff = self.gemm_efficiency(m, k, n);
        let compute = flops / (self.peak_tflops * 1e12 * eff);
        // Operands + result once through HBM (batch-1: no cross-batch reuse).
        let bytes = 4.0 * (m * k + k * n + m * n) as f64;
        let memory = bytes / (self.mem_bw_gbps * 1e9);
        compute.max(memory)
    }

    /// Seconds for the dense attention block of one layer at sequence
    /// length `n`: per head `Q K^T`, softmax (memory-bound row scans of the
    /// n×n matrix), and `A V`.
    pub fn attention_seconds(&self, cfg: &TransformerConfig, n: usize) -> f64 {
        let hd = cfg.head_dim();
        let heads = cfg.n_heads as f64;
        let qkt = self.gemm_seconds(n, hd, n);
        let av = self.gemm_seconds(n, n, hd);
        // Softmax: 3 passes over the n*n matrix (max, exp-sum, divide).
        let softmax = 3.0 * 4.0 * (n * n) as f64 / (self.mem_bw_gbps * 1e9);
        heads * (qkt + av) + softmax * heads
    }

    /// Seconds for one full encoder layer (linear + attention + FFN).
    pub(crate) fn layer_seconds(&self, cfg: &TransformerConfig, n: usize) -> f64 {
        let d = cfg.d_model;
        let linear = self.gemm_seconds(n, d, 3 * d) + self.gemm_seconds(n, d, d);
        let ffn = self.gemm_seconds(n, d, cfg.d_ff) + self.gemm_seconds(n, cfg.d_ff, d);
        linear + self.attention_seconds(cfg, n) + ffn
    }

    /// Seconds for the whole model at sequence length `n`.
    pub fn model_seconds(&self, cfg: &TransformerConfig, n: usize) -> f64 {
        self.layer_seconds(cfg, n) * cfg.n_layers as f64
    }

    /// Energy in joules for a run of `seconds`.
    pub fn energy_j(&self, seconds: f64) -> f64 {
        self.power_w * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_efficiency_collapses_at_head_dim() {
        let gpu = GpuModel::default();
        // Q K^T at 4K sequence: inner dim 64 → near the efficiency floor.
        let eff_attn = gpu.gemm_efficiency(4096, 64, 4096);
        let eff_big = gpu.gemm_efficiency(4096, 1024, 4096);
        assert!(eff_attn < 0.1, "attention eff {eff_attn}");
        assert!(eff_big > 0.4, "large GEMM eff {eff_big}");
    }

    #[test]
    fn attention_share_grows_with_sequence() {
        let gpu = GpuModel::default();
        let cfg = TransformerConfig::lra(8192, 2);
        let frac = |n: usize| gpu.attention_seconds(&cfg, n) / gpu.layer_seconds(&cfg, n);
        assert!(frac(512) < frac(4096));
        assert!(frac(4096) > 0.5, "attention share at 4K: {}", frac(4096));
    }

    #[test]
    fn roofline_is_monotone_in_size() {
        let gpu = GpuModel::default();
        assert!(gpu.gemm_seconds(512, 512, 512) < gpu.gemm_seconds(1024, 1024, 1024));
        assert!(
            gpu.model_seconds(&TransformerConfig::lra(4096, 2), 2048)
                < gpu.model_seconds(&TransformerConfig::lra(4096, 2), 4096)
        );
    }

    #[test]
    fn energy_scales_with_time() {
        let gpu = GpuModel::default();
        assert!((gpu.energy_j(2.0) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn bert_large_latency_plausible() {
        // BERT-large at 384 tokens on a V100 takes on the order of tens of
        // milliseconds at batch 1.
        let gpu = GpuModel::default();
        let s = gpu.model_seconds(&TransformerConfig::bert_large(384), 384);
        assert!(s > 1e-3 && s < 0.5, "BERT-large latency {s}s");
    }
}
