use crate::energy;
use crate::fault::SimFault;
use crate::memory::{DramModel, SramModel};
use crate::sched;
use crate::synth::{SelectionProfile, SelectionSampler};
use dota_faults::FaultSite;
use dota_quant::rmmu::RmmuConfig;
use dota_quant::Precision;
use dota_tensor::rng::SeededRng;
use dota_transformer::{ForwardTrace, TransformerConfig};

/// Configuration of one DOTA accelerator (paper Table 2 defaults).
#[derive(Debug, Clone)]
pub struct AccelConfig {
    /// Number of compute Lanes (paper: 4, the LCM of head counts §4.1).
    pub lanes: usize,
    /// Per-Lane RMMU shape/precision configuration.
    pub rmmu: RmmuConfig,
    /// Queries processed in parallel per head (paper: 4, §5.5).
    pub token_parallelism: usize,
    /// Sustained DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Precision of the detection computation.
    pub detect_precision: Precision,
    /// Precision of the parameterized GEMMs (linear transformations and
    /// FFN). FX16 by default; §5.3 suggests INT8 weight quantization once
    /// detection has made these stages the bottleneck, which the RMMU runs
    /// 4× faster on the same PEs.
    pub linear_precision: Precision,
    /// Locality-aware out-of-order scheduling enabled (ablation toggle).
    pub out_of_order: bool,
    /// Compute scale factor: 1.0 is the 2 TOPS Table 2 design; 6.0 matches
    /// the GPU-comparable 12 TOPS build used in §5.3's comparison.
    pub scale: f64,
    /// Sustained PE utilization (pipeline fill, drain and tail-imbalance
    /// losses). Applied to all compute rates.
    pub utilization: f64,
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            rmmu: RmmuConfig::uniform(Precision::Fx16),
            token_parallelism: 4,
            dram_gbps: 128.0,
            detect_precision: Precision::Int4,
            linear_precision: Precision::Fx16,
            out_of_order: true,
            scale: 1.0,
            utilization: 0.75,
        }
    }
}

impl AccelConfig {
    /// The 12 TOPS build scaled to V100-comparable peak throughput (§5.3).
    pub fn gpu_comparable() -> Self {
        Self {
            scale: 6.0,
            dram_gbps: 768.0,
            ..Self::default()
        }
    }

    /// Effective FX16 MACs per cycle across all lanes (with scaling and
    /// sustained utilization).
    pub fn fx16_macs_per_cycle(&self) -> f64 {
        self.lanes as f64
            * self.rmmu.macs_per_cycle(Precision::Fx16) as f64
            * self.scale
            * self.utilization
    }

    /// Effective MACs per cycle at the detection precision when the array
    /// is reconfigured for detection work.
    pub fn detect_macs_per_cycle(&self) -> f64 {
        self.reconfigured_macs_per_cycle(self.detect_precision)
    }

    /// Effective MACs per cycle at the linear-stage precision.
    pub(crate) fn linear_macs_per_cycle(&self) -> f64 {
        self.reconfigured_macs_per_cycle(self.linear_precision)
    }

    /// MACs per cycle with the whole array reconfigured to `precision`.
    fn reconfigured_macs_per_cycle(&self, precision: Precision) -> f64 {
        let per_lane = self.rmmu.cols() as f64
            * self.rmmu.rows() as f64
            * precision.throughput_multiplier() as f64;
        self.lanes as f64 * per_lane * self.scale * self.utilization
    }
}

/// Cycle counts of the four pipeline stages of one encoder pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatency {
    /// Linear transformation (QKV + output projections).
    pub linear: u64,
    /// Attention detection (low-precision estimate + threshold + schedule).
    pub detection: u64,
    /// Sparse attention computation (scores, softmax, aggregation).
    pub attention: u64,
    /// Feed-forward network.
    pub ffn: u64,
}

impl StageLatency {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.linear + self.detection + self.attention + self.ffn
    }

    /// Cycles of the attention block (detection + attention), the quantity
    /// Figure 12a compares.
    pub fn attention_block(&self) -> u64 {
        self.detection + self.attention
    }

    /// Element-wise sum.
    pub fn add(&self, other: &StageLatency) -> StageLatency {
        StageLatency {
            linear: self.linear + other.linear,
            detection: self.detection + other.detection,
            attention: self.attention + other.attention,
            ffn: self.ffn + other.ffn,
        }
    }
}

/// Energy breakdown in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// RMMU MAC energy.
    pub rmmu_pj: f64,
    /// Multi-Function Unit (softmax, GELU, (de)quantize).
    pub mfu_pj: f64,
    /// Scheduler / Filter.
    pub scheduler_pj: f64,
    /// Cross-lane Accumulator.
    pub accumulator_pj: f64,
    /// On-chip SRAM traffic.
    pub sram_pj: f64,
    /// Off-chip DRAM traffic.
    pub dram_pj: f64,
    /// SRAM leakage over the run.
    pub leakage_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.rmmu_pj
            + self.mfu_pj
            + self.scheduler_pj
            + self.accumulator_pj
            + self.sram_pj
            + self.dram_pj
            + self.leakage_pj
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.total_pj() * 1e-12
    }

    /// Element-wise sum.
    pub fn add(&self, o: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            rmmu_pj: self.rmmu_pj + o.rmmu_pj,
            mfu_pj: self.mfu_pj + o.mfu_pj,
            scheduler_pj: self.scheduler_pj + o.scheduler_pj,
            accumulator_pj: self.accumulator_pj + o.accumulator_pj,
            sram_pj: self.sram_pj + o.sram_pj,
            dram_pj: self.dram_pj + o.dram_pj,
            leakage_pj: self.leakage_pj + o.leakage_pj,
        }
    }
}

/// Result of simulating a model pass on the accelerator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Stage cycle counts.
    pub cycles: StageLatency,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// K/V vector loads performed by the token-parallel scheduler.
    pub key_loads: u64,
    /// K/V vector loads a row-by-row dataflow would have performed.
    pub key_loads_row_by_row: u64,
    /// Attention retention this run executed at.
    pub retention: f64,
    /// Energy of the attention block alone (detection estimate, scheduler,
    /// sparse attention MACs, softmax, K/V traffic), in pJ — the quantity
    /// Figure 13's ELSA comparison needs.
    pub attention_energy_pj: f64,
}

impl PerfReport {
    /// Wall-clock seconds at the modeled frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles.total() as f64 / (energy::FREQ_GHZ * 1e9)
    }

    /// Seconds spent in the attention block only.
    pub fn attention_seconds(&self) -> f64 {
        self.cycles.attention_block() as f64 / (energy::FREQ_GHZ * 1e9)
    }

    /// Accumulates another report (e.g. per-layer into per-model).
    pub fn add(&self, o: &PerfReport) -> PerfReport {
        PerfReport {
            cycles: self.cycles.add(&o.cycles),
            energy: self.energy.add(&o.energy),
            key_loads: self.key_loads + o.key_loads,
            key_loads_row_by_row: self.key_loads_row_by_row + o.key_loads_row_by_row,
            retention: o.retention, // last writer wins; uniform in practice
            attention_energy_pj: self.attention_energy_pj + o.attention_energy_pj,
        }
    }
}

/// Emits one Chrome-trace event per pipeline stage of layer `l` on the
/// simulated `encoder` track, starting at `cursor` cycles; returns the new
/// cursor (the coarse model is additive, so stages lay end to end).
fn emit_stage_events(l: u64, cursor: u64, cycles: &StageLatency) -> u64 {
    let mut t = cursor;
    for (stage, dur) in [
        ("linear", cycles.linear),
        ("detection", cycles.detection),
        ("attention", cycles.attention),
        ("ffn", cycles.ffn),
    ] {
        dota_trace::sim_event("encoder", format_args!("L{l}.{stage}"), t, dur);
        t += dur;
    }
    t
}

/// The DOTA accelerator simulator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AccelConfig,
}

impl Accelerator {
    /// Creates a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if lanes, token parallelism or scale are non-positive.
    pub fn new(config: AccelConfig) -> Self {
        assert!(config.lanes > 0, "need at least one lane");
        assert!(
            config.token_parallelism > 0,
            "token parallelism must be positive"
        );
        assert!(config.scale > 0.0, "scale must be positive");
        assert!(
            config.utilization > 0.0 && config.utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Simulates one full model pass analytically for a model shape at
    /// sequence length `n`, keeping `retention` of attention connections,
    /// detecting with dimension-reduction factor `sigma` (`retention = 1.0`
    /// and `sigma = 0` model DOTA-F: full attention, no detection).
    ///
    /// Key/value memory behaviour comes from one representative head's
    /// synthetic selection (profile-controlled locality), scaled to all
    /// heads and layers.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is outside `(0, 1]`.
    pub fn simulate_shape(
        &self,
        model: &TransformerConfig,
        n: usize,
        retention: f64,
        sigma: f64,
        profile: &SelectionProfile,
    ) -> PerfReport {
        let _prof = dota_prof::span("accel.simulate_shape");
        assert!(
            retention > 0.0 && retention <= 1.0,
            "retention {retention} out of range"
        );
        let heads = model.n_heads as u64;
        let layers = model.n_layers as u64;
        let k_per_row = ((retention * n as f64).round() as usize).clamp(1, n);

        // One representative head's K/V schedule, counted one
        // token-parallel group at a time as the rows are sampled.
        let (key_loads_head, rbr_head) = if retention < 1.0 {
            let mut rng = SeededRng::new(0xacce1);
            let mut sampler = SelectionSampler::new(n, k_per_row, profile, &mut rng);
            let mut counter = sched::LoadCounter::new(self.config.out_of_order);
            let t = self.config.token_parallelism;
            let mut group: Vec<Vec<u32>> = (0..t.min(n))
                .map(|_| Vec::with_capacity(k_per_row))
                .collect();
            let mut rbr = 0;
            for first in (0..n).step_by(t) {
                let rows = &mut group[..t.min(n - first)];
                for row in rows.iter_mut() {
                    sampler.next_row(row);
                }
                counter.group(rows);
                rbr += sched::row_by_row_loads(rows);
            }
            (counter.finish().loads, rbr)
        } else {
            // Dense attention streams each K/V once per token-parallel group.
            let groups = (n as u64).div_ceil(self.config.token_parallelism as u64);
            ((n as u64) * groups, (n as u64) * (n as u64))
        };
        let key_loads = key_loads_head * heads * layers;
        let key_loads_rbr = rbr_head * heads * layers;

        // One layer_report call per layer (identical arithmetic to computing
        // one representative layer and adding it `layers` times, since the
        // model is pure) so memory/MAC counters accumulate whole-model
        // totals and the trace shows every layer's stages.
        let mut report = PerfReport::default();
        let mut cursor = 0u64;
        for l in 0..layers {
            let layer = self
                .layer_report(
                    model,
                    n,
                    k_per_row,
                    retention,
                    sigma,
                    key_loads_head,
                    rbr_head,
                    l,
                    false,
                )
                .expect("fault-free simulation cannot fail");
            if dota_trace::enabled() {
                cursor = emit_stage_events(l, cursor, &layer.cycles);
            }
            report = report.add(&layer);
        }
        report.key_loads = key_loads;
        report.key_loads_row_by_row = key_loads_rbr;
        report.retention = retention;
        report
    }

    /// Routes around stuck lanes: inside a fault session, each configured
    /// lane is tested against site `lane.stuck`; dropped lanes are counted
    /// (`faults.lane.dropped`) and the returned executor runs on the
    /// survivors at proportionally reduced throughput. All lanes down is a
    /// typed error. Returns an unmodified clone when `faults` is false or
    /// no session is active.
    fn degraded(&self, faults: bool) -> Result<Accelerator, SimFault> {
        if !faults || !dota_faults::enabled() {
            return Ok(self.clone());
        }
        let mut up = 0usize;
        for lane in 0..self.config.lanes {
            if dota_faults::should_inject(FaultSite::LaneStuck, &[lane as u64]) {
                dota_faults::record("faults.lane.dropped", 1);
                dota_trace::count("faults.lane.dropped", 1);
            } else {
                up += 1;
            }
        }
        if up == 0 {
            return Err(SimFault::AllLanesDown {
                lanes: self.config.lanes,
            });
        }
        let mut config = self.config.clone();
        config.lanes = up;
        Ok(Accelerator { config })
    }

    /// Simulates a replayed [`ForwardTrace`] from a real model inference:
    /// the exact per-head selections drive the scheduler and the sparse
    /// attention cost. The sequence length is the first head's; a trace
    /// without a head, or over no tokens, has nothing to simulate and
    /// reports [`PerfReport::default`].
    pub fn simulate_trace(&self, model: &TransformerConfig, trace: &ForwardTrace) -> PerfReport {
        match self.simulate_trace_impl(model, trace, false) {
            Ok(report) => report,
            // With injection off the impl has no error source.
            Err(_) => unreachable!("fault-free simulation cannot fail"),
        }
    }

    /// Fault-aware variant of [`simulate_trace`](Accelerator::simulate_trace):
    /// inside a [`dota_faults`] session, injected SRAM bit-flips and DRAM
    /// transient-read errors are absorbed (ECC replay / bounded retry,
    /// counted under `faults.*`) and stuck lanes are routed around at
    /// reduced throughput; unabsorbable faults (retry exhaustion, every
    /// lane down) surface as a typed [`SimFault`]. Identical to
    /// `simulate_trace` when no fault session is active.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimFault`] the modeled machine cannot recover
    /// from.
    pub fn try_simulate_trace(
        &self,
        model: &TransformerConfig,
        trace: &ForwardTrace,
    ) -> Result<PerfReport, SimFault> {
        self.simulate_trace_impl(model, trace, true)
    }

    fn simulate_trace_impl(
        &self,
        model: &TransformerConfig,
        trace: &ForwardTrace,
        faults: bool,
    ) -> Result<PerfReport, SimFault> {
        let _prof = dota_prof::span("accel.simulate_trace");
        let first_head = trace.layers.iter().flat_map(|layer| &layer.heads).next();
        let n = match first_head.map(|head| head.q.rows()) {
            None | Some(0) => return Ok(PerfReport::default()),
            Some(n) => n,
        };
        let exec = self.degraded(faults)?;
        let mut total = PerfReport::default();
        let sigma = 0.0; // detection cost is folded per-head below
        let mut cursor = 0u64;
        for (l, layer) in trace.layers.iter().enumerate() {
            let mut kept_sum = 0u64;
            let mut key_loads = 0u64;
            let mut rbr = 0u64;
            for head in &layer.heads {
                let kept = head.kept_connections();
                kept_sum += kept;
                if let Some(sel) = &head.selected {
                    key_loads += sched::matrix_loads(
                        sel,
                        self.config.token_parallelism,
                        self.config.out_of_order,
                    )
                    .loads;
                    rbr += sched::row_by_row_loads(sel);
                } else {
                    let groups = (n as u64).div_ceil(self.config.token_parallelism as u64);
                    key_loads += n as u64 * groups;
                    rbr += (n * n) as u64;
                }
            }
            let heads = layer.heads.len() as u64;
            // A layer without heads keeps nothing: only its linear and FFN
            // stages cost anything.
            let (retention, k_per_row) = if heads == 0 {
                (0.0, 0)
            } else {
                let k = (kept_sum as f64 / (heads as f64 * n as f64)).round() as usize;
                (kept_sum as f64 / (heads * (n * n) as u64) as f64, k.max(1))
            };
            let mut rep = exec.layer_report(
                model,
                n,
                k_per_row,
                retention,
                sigma,
                key_loads / heads.max(1),
                rbr / heads.max(1),
                l as u64,
                faults,
            )?;
            rep.key_loads = key_loads;
            rep.key_loads_row_by_row = rbr;
            rep.retention = retention;
            if dota_trace::enabled() {
                cursor = emit_stage_events(l as u64, cursor, &rep.cycles);
            }
            total = total.add(&rep);
        }
        Ok(total)
    }

    /// Cycle/energy model of a single encoder layer. `l` is the layer's
    /// index (stable fault coordinate); with `faults` set, memory accesses
    /// go through the fault-aware paths and may surface a [`SimFault`].
    #[allow(clippy::too_many_arguments)]
    fn layer_report(
        &self,
        model: &TransformerConfig,
        n: usize,
        k_per_row: usize,
        retention: f64,
        sigma: f64,
        key_loads_head: u64,
        rbr_head: u64,
        l: u64,
        faults: bool,
    ) -> Result<PerfReport, SimFault> {
        let cfg = &self.config;
        let d = model.d_model as u64;
        let d_ff = model.d_ff as u64;
        let hd = model.head_dim() as u64;
        let heads = model.n_heads as u64;
        let nn = n as u64;
        let kept = heads * nn * k_per_row as u64;
        let fx_rate = cfg.fx16_macs_per_cycle();
        let detect_rate = cfg.detect_macs_per_cycle();
        let bytes = 2u64; // FX16 operands

        let mut dram = DramModel::new(cfg.dram_gbps);
        let mut sram = SramModel::lane_default();

        // --- Linear transformation stage: X(Wq|Wk|Wv) + Wo. ---
        let linear_rate = cfg.linear_macs_per_cycle();
        let linear_macs = nn * d * d * 4;
        let linear_compute = (linear_macs as f64 / linear_rate).ceil() as u64;
        let linear_dram = if faults {
            dram.read_checked(4 * d * d * bytes, "linear.weights", 0, l)?
                + dram.read_checked(nn * d * bytes, "linear.activations", 1, l)?
        } else {
            dram.read(4 * d * d * bytes) + dram.read(nn * d * bytes)
        };
        let linear = linear_compute.max(linear_dram);

        // --- Detection stage (skipped when sigma == 0). ---
        let (detection, detect_macs, sched_ids) = if sigma > 0.0 {
            let k_rank = ((hd as f64 * sigma).floor() as u64).max(1);
            let est_macs = heads * (nn * d * k_rank + 2 * nn * k_rank * k_rank + nn * k_rank * nn);
            let est_cycles = (est_macs as f64 / detect_rate).ceil() as u64;
            // Threshold compare + scheduling: the Scheduler issues 4 IDs
            // per cycle per lane, ahead of the consuming RMMU. Issue is
            // pipelined with the attention computation, so only the part
            // that outruns the RMMU's consumption shows up as latency.
            let ids = kept;
            let issue_cycles = ids.div_ceil(4 * cfg.lanes as u64 * cfg.scale.ceil() as u64);
            let consume_cycles = ((2 * kept * hd) as f64 / fx_rate).ceil() as u64;
            let sched_exposed = issue_cycles.saturating_sub(consume_cycles);
            (est_cycles + sched_exposed, est_macs, ids)
        } else {
            (0, 0, 0)
        };

        // --- Sparse attention stage: scores + softmax + aggregation. ---
        let attn_macs = 2 * kept * hd;
        let attn_compute = (attn_macs as f64 / fx_rate).ceil() as u64;
        // MFU: one exp + one divide per kept weight, 16+16 units per lane.
        let mfu_ops = 2 * kept;
        let mfu_cycles = mfu_ops.div_ceil(32 * cfg.lanes as u64 * cfg.scale.ceil() as u64);
        // K/V SRAM traffic follows the schedule (K and V vectors, FX16).
        // Heads are distributed across lanes, each with its own SRAM, and
        // the scaled build widens every lane's banks proportionally.
        let kv_bytes = key_loads_head * heads * 2 * hd * bytes;
        let kv_per_lane = (kv_bytes as f64 / (cfg.lanes as f64 * cfg.scale)).ceil() as u64;
        let kv_cycles = if faults {
            sram.access_checked(kv_per_lane, 0, l)
        } else {
            sram.access(kv_per_lane)
        };
        // Pipelined: RMMU, MFU and SRAM streams overlap.
        let attention = attn_compute.max(mfu_cycles).max(kv_cycles);

        // --- FFN stage. ---
        let ffn_macs = 2 * nn * d * d_ff;
        let ffn_compute = (ffn_macs as f64 / linear_rate).ceil() as u64;
        let ffn_dram = if faults {
            dram.read_checked(2 * d * d_ff * bytes, "ffn.weights", 2, l)?
        } else {
            dram.read(2 * d * d_ff * bytes)
        };
        let gelu_cycles = (nn * d_ff).div_ceil(32 * cfg.lanes as u64 * cfg.scale.ceil() as u64);
        let ffn = ffn_compute.max(ffn_dram) + gelu_cycles;

        let cycles = StageLatency {
            linear,
            detection,
            attention,
            ffn,
        };

        // --- Energy. ---
        let fx_macs = linear_macs + attn_macs + ffn_macs;
        // Activation streams through SRAM: inputs and outputs of each GEMM.
        let act_bytes = (nn * d * 8 + nn * d_ff * 2) * bytes;
        if faults {
            sram.access_checked(act_bytes, 1, l);
        } else {
            sram.access(act_bytes);
        }
        let accum_ops = nn * d * 4 + kept + nn * d_ff + nn * d;
        let mfu_total = mfu_ops + nn * d_ff; // softmax + GELU
        let seconds = cycles.total() as f64 / (energy::FREQ_GHZ * 1e9);
        let attention_energy_pj = attn_macs as f64 * energy::mac_pj(Precision::Fx16)
            + detect_macs as f64 * energy::mac_pj(cfg.detect_precision)
            + sched_ids as f64 * energy::SCHED_ID_PJ
            + mfu_ops as f64 * energy::MFU_OP_PJ
            + kv_bytes as f64 * energy::SRAM_PJ_PER_BYTE;
        let linear_stage_macs = linear_macs + ffn_macs;
        let attn_stage_macs = fx_macs - linear_stage_macs;
        let energy = EnergyBreakdown {
            rmmu_pj: attn_stage_macs as f64 * energy::mac_pj(Precision::Fx16)
                + linear_stage_macs as f64 * energy::mac_pj(cfg.linear_precision)
                + detect_macs as f64 * energy::mac_pj(cfg.detect_precision),
            mfu_pj: mfu_total as f64 * energy::MFU_OP_PJ,
            scheduler_pj: sched_ids as f64 * energy::SCHED_ID_PJ,
            accumulator_pj: accum_ops as f64 * energy::ACCUM_PJ,
            sram_pj: sram.energy_pj(),
            dram_pj: dram.energy_pj(),
            leakage_pj: energy::SRAM_LEAKAGE_MW * 1e-3 * seconds * 1e12,
        };

        if dota_trace::enabled() {
            dota_trace::count("accel.layers", 1);
            dota_trace::count("accel.kept_connections", kept);
            dota_trace::count("accel.cycles.linear", linear);
            dota_trace::count("accel.cycles.detection", detection);
            dota_trace::count("accel.cycles.attention", attention);
            dota_trace::count("accel.cycles.ffn", ffn);
            dota_trace::count(&format!("rmmu.macs.{}", Precision::Fx16), attn_stage_macs);
            dota_trace::count(
                &format!("rmmu.macs.{}", cfg.linear_precision),
                linear_stage_macs,
            );
            if detect_macs > 0 {
                dota_trace::count(
                    &format!("rmmu.detect_macs.{}", cfg.detect_precision),
                    detect_macs,
                );
            }
            dota_trace::count("mfu.ops", mfu_total);
            dota_trace::count("sched.ids_issued", sched_ids);
            dota_trace::count("accel.key_loads", key_loads_head * heads);
            dota_trace::count("accel.key_loads_row_by_row", rbr_head * heads);
        }

        Ok(PerfReport {
            cycles,
            energy,
            key_loads: key_loads_head * heads,
            key_loads_row_by_row: rbr_head * heads,
            retention,
            attention_energy_pj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lra() -> TransformerConfig {
        TransformerConfig::lra(2048, 2)
    }

    #[test]
    fn sparse_attention_much_faster_than_dense() {
        let acc = Accelerator::new(AccelConfig::default());
        let profile = SelectionProfile::default();
        let dense = acc.simulate_shape(&lra(), 512, 1.0, 0.0, &profile);
        let sparse = acc.simulate_shape(&lra(), 512, 0.1, 0.2, &profile);
        let speedup =
            dense.cycles.attention_block() as f64 / sparse.cycles.attention_block() as f64;
        assert!(speedup > 4.0, "attention speedup {speedup}");
        // End-to-end also improves, but less (Amdahl).
        let e2e = dense.cycles.total() as f64 / sparse.cycles.total() as f64;
        assert!(
            e2e > 1.0 && e2e < speedup,
            "e2e {e2e} vs attention {speedup}"
        );
    }

    #[test]
    fn detection_overhead_is_small_fraction() {
        let acc = Accelerator::new(AccelConfig::default());
        let rep = acc.simulate_shape(&lra(), 2048, 0.1, 0.2, &SelectionProfile::default());
        let frac = rep.cycles.detection as f64 / rep.cycles.total() as f64;
        assert!(frac < 0.2, "detection fraction {frac}");
        assert!(rep.cycles.detection > 0);
    }

    #[test]
    fn energy_dominated_by_fc_after_detection() {
        // §5.4: with effective attention reduction, the FC layers dominate
        // energy while detection is well under 1%.
        let acc = Accelerator::new(AccelConfig::default());
        let rep = acc.simulate_shape(&lra(), 2048, 0.05, 0.2, &SelectionProfile::default());
        let sched_frac = rep.energy.scheduler_pj / rep.energy.total_pj();
        assert!(sched_frac < 0.05, "scheduler energy fraction {sched_frac}");
    }

    #[test]
    fn out_of_order_reduces_key_loads() {
        let in_order = Accelerator::new(AccelConfig {
            out_of_order: false,
            ..Default::default()
        });
        let ooo = Accelerator::new(AccelConfig::default());
        let prof = SelectionProfile::default();
        let a = in_order.simulate_shape(&lra(), 512, 0.1, 0.2, &prof);
        let b = ooo.simulate_shape(&lra(), 512, 0.1, 0.2, &prof);
        assert!(
            b.key_loads <= a.key_loads,
            "{} vs {}",
            b.key_loads,
            a.key_loads
        );
        assert!(b.key_loads < b.key_loads_row_by_row);
    }

    #[test]
    fn retention_scales_attention_cycles() {
        let acc = Accelerator::new(AccelConfig::default());
        let prof = SelectionProfile::default();
        let r20 = acc.simulate_shape(&lra(), 1024, 0.2, 0.2, &prof);
        let r05 = acc.simulate_shape(&lra(), 1024, 0.05, 0.2, &prof);
        let ratio = r20.cycles.attention as f64 / r05.cycles.attention as f64;
        assert!(ratio > 2.0 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn gpu_comparable_build_is_faster() {
        let base = Accelerator::new(AccelConfig::default());
        let big = Accelerator::new(AccelConfig::gpu_comparable());
        let prof = SelectionProfile::default();
        let a = base.simulate_shape(&lra(), 1024, 0.1, 0.2, &prof);
        let b = big.simulate_shape(&lra(), 1024, 0.1, 0.2, &prof);
        assert!(b.cycles.total() < a.cycles.total());
    }

    #[test]
    fn trace_replay_matches_shape_roughly() {
        use dota_autograd::ParamSet;
        use dota_transformer::Model;
        let mut params = ParamSet::new();
        let tiny = TransformerConfig::tiny(32, 8, 2);
        let model = Model::init(tiny.clone(), &mut params, 1);
        let ids: Vec<usize> = (0..32).map(|i| i % 8).collect();
        let trace = model.infer(&params, &ids, &dota_transformer::NoHook);
        let acc = Accelerator::new(AccelConfig::default());
        let rep = acc.simulate_trace(&tiny, &trace);
        assert!(rep.cycles.total() > 0);
        assert_eq!(rep.retention, 1.0);
        assert!(rep.energy.total_pj() > 0.0);
    }

    #[test]
    fn report_add_accumulates() {
        let a = PerfReport {
            cycles: StageLatency {
                linear: 1,
                detection: 2,
                attention: 3,
                ffn: 4,
            },
            key_loads: 10,
            ..Default::default()
        };
        let sum = a.add(&a);
        assert_eq!(sum.cycles.total(), 20);
        assert_eq!(sum.key_loads, 20);
    }

    #[test]
    #[should_panic(expected = "retention")]
    fn rejects_zero_retention() {
        let acc = Accelerator::new(AccelConfig::default());
        let _ = acc.simulate_shape(&lra(), 128, 0.0, 0.2, &SelectionProfile::default());
    }
}

/// The simulate paths against themselves as they were before they counted
/// (whole selection sampled, every group's schedule materialised), and on
/// traces no inference would produce.
#[cfg(test)]
mod counting_tests {
    use super::*;
    use crate::synth::sample_selection;
    use dota_autograd::ParamSet;
    use dota_tensor::Matrix;
    use dota_transformer::{HeadTrace, InferenceHook, LayerTrace, Model, NoHook};

    impl Accelerator {
        fn simulate_shape_reference(
            &self,
            model: &TransformerConfig,
            n: usize,
            retention: f64,
            sigma: f64,
            profile: &SelectionProfile,
        ) -> PerfReport {
            let heads = model.n_heads as u64;
            let layers = model.n_layers as u64;
            let k_per_row = ((retention * n as f64).round() as usize).clamp(1, n);
            let mut rng = SeededRng::new(0xacce1);
            let (key_loads_head, rbr_head) = if retention < 1.0 {
                let sel = sample_selection(n, k_per_row, profile, &mut rng);
                let s = sched::schedule_matrix(
                    &sel,
                    self.config.token_parallelism,
                    self.config.out_of_order,
                );
                (s.total_loads(), sched::row_by_row_loads(&sel))
            } else {
                let groups = (n as u64).div_ceil(self.config.token_parallelism as u64);
                ((n as u64) * groups, (n as u64) * (n as u64))
            };
            let mut report = PerfReport::default();
            let mut cursor = 0u64;
            for l in 0..layers {
                let layer = self
                    .layer_report(
                        model,
                        n,
                        k_per_row,
                        retention,
                        sigma,
                        key_loads_head,
                        rbr_head,
                        l,
                        false,
                    )
                    .expect("fault-free");
                if dota_trace::enabled() {
                    cursor = emit_stage_events(l, cursor, &layer.cycles);
                }
                report = report.add(&layer);
            }
            report.key_loads = key_loads_head * heads * layers;
            report.key_loads_row_by_row = rbr_head * heads * layers;
            report.retention = retention;
            report
        }

        fn simulate_trace_reference(
            &self,
            model: &TransformerConfig,
            trace: &ForwardTrace,
        ) -> PerfReport {
            let mut total = PerfReport::default();
            let n = trace.layers[0].heads[0].q.rows();
            let mut cursor = 0u64;
            for (l, layer) in trace.layers.iter().enumerate() {
                let mut kept_sum = 0u64;
                let mut key_loads = 0u64;
                let mut rbr = 0u64;
                for head in &layer.heads {
                    kept_sum += head.kept_connections();
                    if let Some(sel) = &head.selected {
                        let s = sched::schedule_matrix(
                            sel,
                            self.config.token_parallelism,
                            self.config.out_of_order,
                        );
                        key_loads += s.total_loads();
                        rbr += sched::row_by_row_loads(sel);
                    } else {
                        let groups = (n as u64).div_ceil(self.config.token_parallelism as u64);
                        key_loads += n as u64 * groups;
                        rbr += (n * n) as u64;
                    }
                }
                let heads = layer.heads.len() as u64;
                let retention = kept_sum as f64 / (heads * (n * n) as u64) as f64;
                let k_per_row = (kept_sum as f64 / (heads as f64 * n as f64)).round() as usize;
                let mut rep = self
                    .layer_report(
                        model,
                        n,
                        k_per_row.max(1),
                        retention,
                        0.0,
                        key_loads / heads.max(1),
                        rbr / heads.max(1),
                        l as u64,
                        false,
                    )
                    .expect("fault-free");
                rep.key_loads = key_loads;
                rep.key_loads_row_by_row = rbr;
                rep.retention = retention;
                if dota_trace::enabled() {
                    cursor = emit_stage_events(l as u64, cursor, &rep.cycles);
                }
                total = total.add(&rep);
            }
            total
        }
    }

    /// Runs `f` in a trace session of its own; its result and the counters
    /// it recorded.
    fn traced<R>(f: impl FnOnce() -> R) -> (R, std::collections::BTreeMap<String, u64>) {
        let guard = dota_trace::session("counting");
        let result = f();
        (result, guard.counters())
    }

    proptest::proptest! {
        #[test]
        fn simulate_shape_matches_materialised_oracle(
            n in 1usize..=300,
            retention in 0.01f64..1.0,
            profile in 0usize..3,
            token_parallelism in 1usize..=6,
            out_of_order in 0usize..2,
        ) {
            let profile = [
                SelectionProfile::default(),
                SelectionProfile::uniform(),
                SelectionProfile { window: 0, ..SelectionProfile::default() },
            ][profile];
            let acc = Accelerator::new(AccelConfig {
                token_parallelism,
                out_of_order: out_of_order == 1,
                ..AccelConfig::default()
            });
            let model = TransformerConfig::tiny(300, 16, 2);
            let want = traced(|| acc.simulate_shape_reference(&model, n, retention, 0.25, &profile));
            let got = traced(|| acc.simulate_shape(&model, n, retention, 0.25, &profile));
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// Keeps the query's own position and every `stride`-th key on its
    /// anti-diagonals: rows of unequal length that share keys, a different
    /// pattern per `(layer, head)`.
    struct StridedHook;

    impl InferenceHook for StridedHook {
        fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
            let n = x.rows();
            let stride = 2 + layer + head;
            Some(
                (0..n)
                    .map(|q| {
                        (0..n)
                            .filter(|j| (q + j) % stride == 0 || *j == q)
                            .map(|j| j as u32)
                            .collect()
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn simulate_trace_matches_materialised_oracle() {
        let mut params = ParamSet::new();
        let tiny = TransformerConfig::tiny(48, 8, 2);
        let model = Model::init(tiny.clone(), &mut params, 3);
        let ids: Vec<usize> = (0..45).map(|i| i * 5 % 8).collect();
        for trace in [
            model.infer(&params, &ids, &StridedHook),
            model.infer(&params, &ids, &NoHook),
        ] {
            for (token_parallelism, out_of_order) in [(4, true), (4, false), (6, true), (1, true)] {
                let acc = Accelerator::new(AccelConfig {
                    token_parallelism,
                    out_of_order,
                    ..AccelConfig::default()
                });
                let want = traced(|| acc.simulate_trace_reference(&tiny, &trace));
                let got = traced(|| acc.simulate_trace(&tiny, &trace));
                assert_eq!(
                    got, want,
                    "T = {token_parallelism}, out of order {out_of_order}"
                );
                assert_eq!(acc.try_simulate_trace(&tiny, &trace).as_ref(), Ok(&want.0));
            }
        }
    }

    fn trace_of(layers: Vec<LayerTrace>) -> ForwardTrace {
        ForwardTrace {
            layers,
            logits: Matrix::zeros(1, 1),
            fallback_dense: 0,
        }
    }

    fn dense_head(n: usize) -> HeadTrace {
        HeadTrace {
            selected: None,
            q: Matrix::zeros(n, 4),
            k: Matrix::zeros(n, 4),
            v: Matrix::zeros(n, 4),
        }
    }

    #[test]
    fn empty_traces_have_nothing_to_simulate() {
        let acc = Accelerator::new(AccelConfig::default());
        let model = TransformerConfig::tiny(16, 8, 2);
        for trace in [
            trace_of(vec![]),
            trace_of(vec![LayerTrace { heads: vec![] }]),
            trace_of(vec![LayerTrace {
                heads: vec![dense_head(0)],
            }]),
        ] {
            assert_eq!(acc.simulate_trace(&model, &trace), PerfReport::default());
            assert_eq!(
                acc.try_simulate_trace(&model, &trace),
                Ok(PerfReport::default())
            );
        }
    }

    #[test]
    fn head_less_layer_costs_its_linear_stages_only() {
        let acc = Accelerator::new(AccelConfig::default());
        let model = TransformerConfig::tiny(16, 8, 2);
        let full = LayerTrace {
            heads: vec![dense_head(16), dense_head(16)],
        };
        let empty = LayerTrace { heads: vec![] };
        let one = acc.simulate_trace(&model, &trace_of(vec![full.clone()]));
        // The sequence length comes from the first head there is, wherever
        // the head-less layer sits; `add` reports the last layer's retention.
        let before = acc.simulate_trace(&model, &trace_of(vec![empty.clone(), full.clone()]));
        let after = acc.simulate_trace(&model, &trace_of(vec![full, empty]));
        assert_eq!(before.retention, 1.0);
        assert_eq!(after.retention, 0.0);
        for two in [before, after] {
            assert_eq!(two.cycles.linear, 2 * one.cycles.linear);
            assert_eq!(two.cycles.ffn, 2 * one.cycles.ffn);
            assert_eq!(two.cycles.attention_block(), one.cycles.attention_block());
            assert_eq!(two.key_loads, one.key_loads);
            assert!(two.energy.total_pj().is_finite());
            assert!(two.attention_energy_pj.is_finite());
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::synth::sample_selection;
    use dota_faults::{FaultPlan, FaultSite};
    use dota_tensor::Matrix;
    use dota_transformer::{HeadTrace, LayerTrace};

    fn lra() -> TransformerConfig {
        TransformerConfig::lra(2048, 2)
    }

    /// A trace of `model` at sequence length `n` in which every head keeps
    /// the same sampled selection, `retention` of each row.
    fn shape_trace(model: &TransformerConfig, n: usize, retention: f64) -> ForwardTrace {
        let k = ((retention * n as f64).round() as usize).clamp(1, n);
        let mut rng = SeededRng::new(0xacce1);
        let head = HeadTrace {
            selected: Some(sample_selection(
                n,
                k,
                &SelectionProfile::default(),
                &mut rng,
            )),
            q: Matrix::zeros(n, model.head_dim()),
            k: Matrix::zeros(n, model.head_dim()),
            v: Matrix::zeros(n, model.head_dim()),
        };
        let layer = LayerTrace {
            heads: vec![head; model.n_heads],
        };
        ForwardTrace {
            layers: vec![layer; model.n_layers],
            logits: Matrix::zeros(1, 1),
            fallback_dense: 0,
        }
    }

    #[test]
    fn try_simulate_matches_infallible_without_session() {
        let acc = Accelerator::new(AccelConfig::default());
        let trace = shape_trace(&lra(), 256, 0.1);
        let a = acc.simulate_trace(&lra(), &trace);
        let b = acc.try_simulate_trace(&lra(), &trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sram_bitflips_absorbed_with_extra_cycles() {
        let acc = Accelerator::new(AccelConfig::default());
        let trace = shape_trace(&lra(), 256, 0.1);
        let clean = acc.simulate_trace(&lra(), &trace);
        let guard = dota_faults::session(FaultPlan::new(3).with_rate(FaultSite::SramBitFlip, 1.0));
        let faulty = acc
            .try_simulate_trace(&lra(), &trace)
            .expect("bit flips are always absorbed");
        assert!(guard.counter("faults.sram.bitflips") > 0);
        assert!(
            faulty.cycles.total() >= clean.cycles.total(),
            "ECC replay cannot make the run faster"
        );
        // The infallible entry point stays fault-free even inside the session.
        let legacy = acc.simulate_trace(&lra(), &trace);
        assert_eq!(legacy, clean);
    }

    #[test]
    fn dram_read_faults_retry_then_fail() {
        let acc = Accelerator::new(AccelConfig::default());
        let trace = shape_trace(&lra(), 256, 0.1);
        // Rate 1.0: every retry also faults, so the read must fail.
        let guard = dota_faults::session(FaultPlan::new(4).with_rate(FaultSite::DramRead, 1.0));
        let err = acc.try_simulate_trace(&lra(), &trace).unwrap_err();
        assert!(matches!(err, SimFault::DramReadFailed { .. }), "{err}");
        assert!(guard.counter("faults.dram.retries") > 0);
        assert!(guard.counter("faults.dram.failed_reads") > 0);
        drop(guard);
        // A low rate is absorbed by the bounded retry.
        let guard = dota_faults::session(FaultPlan::new(4).with_rate(FaultSite::DramRead, 0.05));
        let clean = acc.simulate_trace(&lra(), &trace);
        let faulty = acc
            .try_simulate_trace(&lra(), &trace)
            .expect("rate 0.05 faults absorbed by retry");
        assert!(guard.counter("faults.dram.retries") > 0);
        assert!(faulty.cycles.total() >= clean.cycles.total());
    }

    #[test]
    fn all_lanes_stuck_is_typed_error() {
        let acc = Accelerator::new(AccelConfig::default());
        let trace = shape_trace(&lra(), 256, 0.1);
        let _guard = dota_faults::session(FaultPlan::new(5).with_rate(FaultSite::LaneStuck, 1.0));
        let err = acc.try_simulate_trace(&lra(), &trace).unwrap_err();
        assert_eq!(err, SimFault::AllLanesDown { lanes: 4 });
    }

    #[test]
    fn partial_lane_drop_degrades_throughput() {
        let acc = Accelerator::new(AccelConfig::default());
        let trace = shape_trace(&lra(), 512, 0.1);
        let clean = acc.simulate_trace(&lra(), &trace);
        // Find a seed where some but not all lanes survive (deterministic
        // per seed, so scan a few).
        for seed in 0..64u64 {
            let guard =
                dota_faults::session(FaultPlan::new(seed).with_rate(FaultSite::LaneStuck, 0.5));
            let result = acc.try_simulate_trace(&lra(), &trace);
            let dropped = guard.counter("faults.lane.dropped");
            drop(guard);
            if let Ok(report) = result {
                if dropped > 0 {
                    assert!(
                        report.cycles.total() > clean.cycles.total(),
                        "losing {dropped} lanes must slow the run"
                    );
                    return;
                }
            }
        }
        panic!("no seed in 0..64 dropped a strict subset of lanes");
    }
}
