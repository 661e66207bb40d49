use crate::presets::{self, OperatingPoint};
use dota_accel::elsa::ElsaModel;
use dota_accel::gpu::GpuModel;
use dota_accel::synth::SelectionProfile;
use dota_accel::{AccelConfig, Accelerator, PerfReport};
use dota_workloads::Benchmark;
use serde::Serialize;

/// The simulated DOTA system: accelerator + baselines, ready to produce the
/// paper's performance and energy comparisons (Figures 12–13).
#[derive(Debug, Clone)]
pub struct DotaSystem {
    accel: Accelerator,
    gpu: GpuModel,
    elsa: ElsaModel,
    profile: SelectionProfile,
}

/// One row of the Figure 12 speedup comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Operating point name (DOTA-F/C/A).
    pub variant: String,
    /// Retention executed at.
    pub retention: f64,
    /// Attention-block speedup over the GPU (Fig. 12a).
    pub attention_vs_gpu: f64,
    /// Attention-block speedup over ELSA (Fig. 12a).
    pub attention_vs_elsa: f64,
    /// End-to-end speedup over the GPU (Fig. 12b).
    pub end_to_end_vs_gpu: f64,
    /// Amdahl upper bound: end-to-end speedup with free attention
    /// (Fig. 12b's red dots).
    pub upper_bound_vs_gpu: f64,
    /// Latency fractions of linear / attention / detection (Fig. 12c).
    pub latency_breakdown: LatencyFractions,
}

/// Normalized latency fractions of one simulated pass (Fig. 12c).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyFractions {
    /// Linear transformations + FFN share.
    pub linear: f64,
    /// Sparse attention share.
    pub attention: f64,
    /// Detection share.
    pub detection: f64,
}

/// One row of the Figure 13 energy-efficiency comparison (inferences per
/// joule, normalized to the GPU).
#[derive(Debug, Clone, Serialize)]
pub struct EnergyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Operating point name.
    pub variant: String,
    /// Energy-efficiency improvement over the GPU.
    pub vs_gpu: f64,
    /// Energy-efficiency improvement over ELSA (attention block only,
    /// since ELSA is attention-only hardware).
    pub vs_elsa_attention: f64,
    /// DOTA energy per inference in millijoules.
    pub dota_mj: f64,
}

impl DotaSystem {
    /// The §5.3 comparison setup: the GPU-comparable 12 TOPS DOTA build, a
    /// V100 GPU, and ELSA scaled to the same MAC budget.
    pub fn paper_default() -> Self {
        Self {
            accel: Accelerator::new(AccelConfig::gpu_comparable()),
            gpu: GpuModel::default(),
            elsa: ElsaModel::scaled(6.0),
            profile: SelectionProfile::default(),
        }
    }

    /// The underlying accelerator simulator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accel
    }

    /// Simulates DOTA on a benchmark at an operating point.
    pub fn simulate(&self, benchmark: Benchmark, point: OperatingPoint) -> PerfReport {
        let model = presets::paper_model(benchmark);
        let n = benchmark.paper_seq_len();
        let retention = presets::retention(benchmark, point);
        let sigma = if matches!(point, OperatingPoint::Full) {
            0.0
        } else {
            presets::SIGMA
        };
        self.accel
            .simulate_shape(&model, n, retention, sigma, &self.profile)
    }

    /// Produces the Figure 12 row for a benchmark and operating point.
    pub fn speedup_row(&self, benchmark: Benchmark, point: OperatingPoint) -> SpeedupRow {
        let model = presets::paper_model(benchmark);
        let n = benchmark.paper_seq_len();
        let rep = self.simulate(benchmark, point);

        let dota_attn_s = rep.attention_seconds();
        let dota_total_s = rep.seconds();
        let gpu_attn_s = self.gpu.attention_seconds(&model, n) * model.n_layers as f64;
        let gpu_total_s = self.gpu.model_seconds(&model, n);
        let elsa_attn_s = self.elsa.attention_seconds(&model, n);

        // Amdahl bound: GPU time with attention removed, against DOTA's
        // non-attention time (attention assumed free on both sides).
        let dota_rest_s = dota_total_s - dota_attn_s;
        let upper = gpu_total_s / dota_rest_s.max(1e-12);

        let total = rep.cycles.total().max(1) as f64;
        SpeedupRow {
            benchmark: benchmark.name().to_owned(),
            variant: point.name().to_owned(),
            retention: rep.retention,
            attention_vs_gpu: gpu_attn_s / dota_attn_s.max(1e-12),
            attention_vs_elsa: elsa_attn_s / dota_attn_s.max(1e-12),
            end_to_end_vs_gpu: gpu_total_s / dota_total_s.max(1e-12),
            upper_bound_vs_gpu: upper,
            latency_breakdown: LatencyFractions {
                linear: (rep.cycles.linear + rep.cycles.ffn) as f64 / total,
                attention: rep.cycles.attention as f64 / total,
                detection: rep.cycles.detection as f64 / total,
            },
        }
    }

    /// Produces the Figure 13 row for a benchmark and operating point.
    pub fn energy_row(&self, benchmark: Benchmark, point: OperatingPoint) -> EnergyRow {
        let model = presets::paper_model(benchmark);
        let n = benchmark.paper_seq_len();
        let rep = self.simulate(benchmark, point);

        let dota_j = rep.energy.total_j();
        let gpu_j = self.gpu.energy_j(self.gpu.model_seconds(&model, n));
        let elsa_attn_j = self.elsa.attention_energy_j(&model, n);
        let dota_attn_j = (rep.attention_energy_pj * 1e-12).max(1e-15);

        EnergyRow {
            benchmark: benchmark.name().to_owned(),
            variant: point.name().to_owned(),
            vs_gpu: gpu_j / dota_j.max(1e-15),
            vs_elsa_attention: elsa_attn_j / dota_attn_j,
            dota_mj: dota_j * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dota_c_attention_speedup_large_over_gpu() {
        // Fig. 12a: DOTA-C attention speedups over GPU are two to three
        // orders of magnitude at paper scale; the model should land in
        // double-to-triple digits on every benchmark.
        let sys = DotaSystem::paper_default();
        for b in Benchmark::ALL {
            let row = sys.speedup_row(b, OperatingPoint::Conservative);
            assert!(
                row.attention_vs_gpu > 20.0,
                "{b:?}: attention speedup {}",
                row.attention_vs_gpu
            );
            assert!(
                row.attention_vs_gpu < 3000.0,
                "{b:?}: implausibly high {}",
                row.attention_vs_gpu
            );
        }
    }

    #[test]
    fn dota_beats_elsa_on_attention() {
        // Fig. 12a: DOTA-C ≈ 4.5× ELSA on average; every benchmark > 1.
        let sys = DotaSystem::paper_default();
        let mut product = 1.0;
        let mut count = 0;
        for b in Benchmark::ALL {
            let row = sys.speedup_row(b, OperatingPoint::Conservative);
            assert!(
                row.attention_vs_elsa > 1.0,
                "{b:?}: {}",
                row.attention_vs_elsa
            );
            product *= row.attention_vs_elsa;
            count += 1;
        }
        let geomean = f64::powf(product, 1.0 / count as f64);
        assert!(geomean > 2.0, "geomean vs ELSA {geomean}");
    }

    #[test]
    fn aggressive_at_least_as_fast_as_conservative() {
        let sys = DotaSystem::paper_default();
        for b in Benchmark::ALL {
            let c = sys.speedup_row(b, OperatingPoint::Conservative);
            let a = sys.speedup_row(b, OperatingPoint::Aggressive);
            assert!(
                a.attention_vs_gpu >= c.attention_vs_gpu * 0.99,
                "{b:?}: A {} < C {}",
                a.attention_vs_gpu,
                c.attention_vs_gpu
            );
        }
    }

    #[test]
    fn end_to_end_below_upper_bound() {
        // Fig. 12b: measured end-to-end speedup is below (but within reach
        // of) the Amdahl upper bound.
        let sys = DotaSystem::paper_default();
        for b in Benchmark::ALL {
            let row = sys.speedup_row(b, OperatingPoint::Conservative);
            assert!(
                row.end_to_end_vs_gpu <= row.upper_bound_vs_gpu,
                "{b:?}: e2e {} above bound {}",
                row.end_to_end_vs_gpu,
                row.upper_bound_vs_gpu
            );
            assert!(
                row.end_to_end_vs_gpu > 1.0,
                "{b:?}: e2e {}",
                row.end_to_end_vs_gpu
            );
        }
    }

    #[test]
    fn latency_breakdown_detection_small() {
        // Fig. 12c: detection latency is a small share; after omission the
        // bottleneck shifts to the linear stages.
        let sys = DotaSystem::paper_default();
        for b in Benchmark::ALL {
            let row = sys.speedup_row(b, OperatingPoint::Conservative);
            let lb = row.latency_breakdown;
            assert!(lb.detection < 0.25, "{b:?}: detection {}", lb.detection);
            assert!(
                lb.linear > lb.attention,
                "{b:?}: linear {} should dominate attention {}",
                lb.linear,
                lb.attention
            );
            let sum = lb.linear + lb.attention + lb.detection;
            assert!((sum - 1.0).abs() < 1e-9, "{b:?}: fractions sum {sum}");
        }
    }

    #[test]
    fn full_attention_breakdown_dominated_by_attention() {
        // Fig. 12c DOTA-F bars: attention dominates when nothing is
        // omitted on long sequences.
        let sys = DotaSystem::paper_default();
        let row = sys.speedup_row(Benchmark::Retrieval, OperatingPoint::Full);
        assert!(
            row.latency_breakdown.attention > 0.5,
            "attention share {}",
            row.latency_breakdown.attention
        );
    }

    #[test]
    fn energy_efficiency_orders_of_magnitude_over_gpu() {
        // Fig. 13: DOTA-C is 618–5185× more energy-efficient than the GPU.
        let sys = DotaSystem::paper_default();
        for b in Benchmark::ALL {
            let row = sys.energy_row(b, OperatingPoint::Conservative);
            assert!(row.vs_gpu > 50.0, "{b:?}: vs GPU {}", row.vs_gpu);
            assert!(
                row.vs_elsa_attention > 1.0,
                "{b:?}: vs ELSA {}",
                row.vs_elsa_attention
            );
            assert!(row.dota_mj > 0.0);
        }
    }
}
