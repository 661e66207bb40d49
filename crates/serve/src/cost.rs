//! Decode step latency model.
//!
//! [`dota_accel::decode`]'s memory-bound decode accounting (its closed
//! forms, not a copy of them), restructured for *batched* steps: one
//! scheduler step decodes one token for every in-flight request, so the
//! layer weights stream from DRAM **once per step** (amortized over the
//! whole batch — the reason continuous batching raises throughput at all),
//! while K/V-cache traffic is paid per request and scales with how many
//! cached connections its attention actually touched. Retention shedding
//! attacks exactly that second, per-request term.

use dota_accel::{decode, energy, AccelConfig};
use dota_transformer::TransformerConfig;

/// Cycle accounting for one continuous-batching decode step.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-step weight traffic in bytes (all layers: QKV + output + FFN).
    weight_bytes: u64,
    /// DRAM bytes fetched per attended connection (K and V vectors).
    bytes_per_connection: u64,
    /// Sustained DRAM bandwidth in bytes per cycle (1 GHz clock).
    bw: f64,
}

impl CostModel {
    /// Builds the model for an accelerator configuration and model shape.
    pub fn new(accel: &AccelConfig, model: &TransformerConfig) -> Self {
        Self {
            weight_bytes: decode::weight_bytes(model),
            bytes_per_connection: decode::bytes_per_connection(model),
            bw: accel.dram_gbps,
        }
    }

    /// Cycles to stream the layer weights once (paid once per step,
    /// independent of batch occupancy).
    pub fn weight_cycles(&self) -> u64 {
        decode::stream_cycles(self.weight_bytes, self.bw)
    }

    /// Cycles to stream one request's K/V traffic for a step in which its
    /// attention touched `attended` cached connections (summed over all
    /// layers and heads, as reported by
    /// [`Model::decode_step`](dota_transformer::Model::decode_step)).
    pub fn kv_cycles(&self, attended: u64) -> u64 {
        decode::stream_cycles(attended * self.bytes_per_connection, self.bw)
    }

    /// Total cycles of one step: one weight stream plus every member's K/V
    /// traffic.
    pub fn step_cycles(&self, attended: impl IntoIterator<Item = u64>) -> u64 {
        let mut cycles = self.weight_cycles();
        for a in attended {
            cycles += self.kv_cycles(a);
        }
        cycles
    }

    /// Rough dense per-token service-cycle estimate for one request in a
    /// batch of `occupancy`, attending over `context` cached positions:
    /// its share of the weight stream plus its own dense K/V traffic. The
    /// traffic generator calibrates offered load against this.
    pub fn per_token_estimate(
        &self,
        model: &TransformerConfig,
        occupancy: usize,
        context: usize,
    ) -> f64 {
        let connections = (model.n_layers * model.n_heads * context) as u64;
        self.weight_cycles() as f64 / occupancy.max(1) as f64
            + (connections * self.bytes_per_connection) as f64 / self.bw
    }

    /// Converts cycles on the 1 GHz model clock to microseconds.
    pub fn cycles_to_us(cycles: u64) -> f64 {
        cycles as f64 / (energy::FREQ_GHZ * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (CostModel, TransformerConfig) {
        let model = TransformerConfig::tiny_causal(48, 16);
        (CostModel::new(&AccelConfig::default(), &model), model)
    }

    #[test]
    fn weight_stream_is_paid_once_per_step() {
        let (cost, _) = setup();
        let solo = cost.step_cycles([100]);
        let batch = cost.step_cycles([100, 100, 100, 100]);
        // Four members cost far less than four solo steps.
        assert!(batch < 4 * solo, "batch {batch} vs 4x solo {}", 4 * solo);
        assert_eq!(
            batch - cost.weight_cycles(),
            4 * (solo - cost.weight_cycles())
        );
    }

    #[test]
    fn kv_cycles_scale_with_attended_connections() {
        let (cost, _) = setup();
        let sparse = cost.kv_cycles(50);
        let dense = cost.kv_cycles(400);
        assert!(dense >= 8 * sparse - 8, "{dense} vs {sparse}");
        assert_eq!(cost.kv_cycles(0), 0);
    }

    #[test]
    fn estimate_brackets_actual_dense_step_share() {
        let (cost, model) = setup();
        let context = 24;
        let attended = (model.n_layers * model.n_heads * context) as u64;
        let occupancy = 8;
        let est = cost.per_token_estimate(&model, occupancy, context);
        let actual_share =
            cost.weight_cycles() as f64 / occupancy as f64 + cost.kv_cycles(attended) as f64;
        assert!((est - actual_share).abs() <= 1.0, "{est} vs {actual_share}");
    }

    #[test]
    fn cycles_to_us_uses_model_clock() {
        assert_eq!(CostModel::cycles_to_us(1000), 1.0);
    }

    proptest! {
        /// A batch of one is the single-stream simulator: summing solo
        /// steps over a generation reproduces `simulate_decode`'s cycles
        /// exactly, whatever the shape, retention and lengths.
        #[test]
        fn solo_steps_sum_to_simulate_decode_oracle(
            shape in 0usize..2,
            below_one in 0.0f64..1.0,
            prompt in 0usize..600,
            gen in 1usize..40,
        ) {
            let model = [TransformerConfig::tiny_causal(64, 16), TransformerConfig::gpt2(1024)][shape]
                .clone();
            let retention = 1.0 - below_one;
            let accel = AccelConfig::default();
            let cost = CostModel::new(&accel, &model);
            let per_position = (model.n_layers * model.n_heads) as u64;
            let summed: u64 = (prompt..prompt + gen)
                .map(|context| {
                    let kept = ((retention * context as f64).ceil() as u64).max(1);
                    cost.step_cycles([per_position * kept])
                })
                .sum();
            let sim = decode::simulate_decode(&accel, &model, prompt, gen, retention, 0.0);
            prop_assert_eq!(sim.cycles, summed);
        }
    }
}
