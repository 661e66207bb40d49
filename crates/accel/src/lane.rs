//! Event-driven Lane pipeline model (paper §4.1, Figs. 5–6).
//!
//! The coarse simulator in [`Accelerator`](crate::Accelerator) charges each
//! stage `max(compute, memory)` and sums stages. This module refines that
//! with a list-scheduling engine over the Lane's four resources — the
//! RMMU, the MFU, the DRAM port and the SRAM ports — executing a
//! dependency DAG of *tiles*. It captures the two overlaps the coarse
//! model approximates:
//!
//! * **double buffering**: layer `l+1`'s weight stream overlaps layer
//!   `l`'s compute (distinct resources, no dependency);
//! * **detect/compute overlap**: the Detector's estimate for head `h+1`
//!   can run on low-precision rows while head `h`'s FX16 attention
//!   occupies the rest of the array (modeled as separate resources when
//!   the RMMU is split).
//!
//! The unit tests pin the expected behaviours: pipelining never loses to
//! serial execution, fully-dependent chains degenerate to the serial sum,
//! and resource busy-time is conserved.

use std::collections::BTreeMap;

/// A Lane resource that tiles occupy exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// The FX16 portion of the RMMU PE array.
    RmmuFx,
    /// The low-precision (detection) portion of the RMMU.
    RmmuDetect,
    /// The Multi-Function Unit (softmax, GELU, (de)quantize).
    Mfu,
    /// The off-chip DRAM port.
    DramPort,
    /// The banked SRAM ports.
    SramPort,
}

impl Resource {
    /// Stable display name (trace track and counter key component).
    pub fn name(self) -> &'static str {
        match self {
            Resource::RmmuFx => "RmmuFx",
            Resource::RmmuDetect => "RmmuDetect",
            Resource::Mfu => "Mfu",
            Resource::DramPort => "DramPort",
            Resource::SramPort => "SramPort",
        }
    }
}

/// One schedulable unit of work.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Display name (for traces and error messages).
    pub name: String,
    /// Resource the tile occupies.
    pub resource: Resource,
    /// Occupancy in cycles.
    pub cycles: u64,
    /// Indices of tiles that must complete first.
    pub deps: Vec<usize>,
}

/// Result of scheduling a tile DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// Total cycles until the last tile finishes.
    pub makespan: u64,
    /// Busy cycles per resource.
    pub busy: BTreeMap<Resource, u64>,
    /// Start time of every tile, in input order.
    pub start_times: Vec<u64>,
    /// Completion time of every tile, in input order.
    pub finish_times: Vec<u64>,
}

impl PipelineReport {
    /// Utilization of `resource` over the makespan, in `[0, 1]`.
    pub fn utilization(&self, resource: Resource) -> f64 {
        let busy = self.busy.get(&resource).copied().unwrap_or(0);
        busy as f64 / self.makespan.max(1) as f64
    }

    /// Sum of all tiles' cycles — the serial (no-overlap) execution time.
    #[cfg(test)]
    pub(crate) fn serial_cycles(&self) -> u64 {
        self.busy.values().sum()
    }
}

/// Schedules a tile DAG with list scheduling: a tile starts at the later of
/// its dependencies' completion and its resource's availability; ties
/// resolve in input order (the hardware's in-order issue within a queue).
///
/// # Panics
///
/// Panics if a dependency index is out of range or not topologically
/// ordered (deps must reference earlier tiles).
pub fn schedule(tiles: &[Tile]) -> PipelineReport {
    let mut resource_free: BTreeMap<Resource, u64> = BTreeMap::new();
    let mut starts: Vec<u64> = Vec::with_capacity(tiles.len());
    let mut finish: Vec<u64> = Vec::with_capacity(tiles.len());
    let mut busy: BTreeMap<Resource, u64> = BTreeMap::new();
    for (i, tile) in tiles.iter().enumerate() {
        let mut ready = 0u64;
        for &d in &tile.deps {
            assert!(d < i, "tile {i} ({}) depends on later tile {d}", tile.name);
            ready = ready.max(finish[d]);
        }
        let free = resource_free.get(&tile.resource).copied().unwrap_or(0);
        let start = ready.max(free);
        let end = start + tile.cycles;
        resource_free.insert(tile.resource, end);
        *busy.entry(tile.resource).or_insert(0) += tile.cycles;
        dota_trace::sim_event(tile.resource.name(), &tile.name, start, tile.cycles);
        starts.push(start);
        finish.push(end);
    }
    let report = PipelineReport {
        makespan: finish.iter().copied().max().unwrap_or(0),
        busy,
        start_times: starts,
        finish_times: finish,
    };
    if dota_trace::enabled() {
        dota_trace::count("lane.makespan_cycles", report.makespan);
        for (&res, &busy_cycles) in &report.busy {
            dota_trace::count(&format!("lane.{}.busy_cycles", res.name()), busy_cycles);
            dota_trace::count(
                &format!("lane.{}.idle_cycles", res.name()),
                report.makespan - busy_cycles,
            );
        }
    }
    report
}

/// Builds the tile DAG of an `n_layers`-deep encoder pass with
/// double-buffered weight prefetch: per layer, a weight stream
/// (`DramPort`), the linear GEMMs (`RmmuFx`, after the weights), the
/// detection estimate (`RmmuDetect`), the sparse attention (`RmmuFx`, after
/// detection), softmax (`Mfu`, pipelined with attention here as a
/// dependent stage), the K/V fetch (`SramPort`, parallel to attention
/// compute), and the FFN (`RmmuFx`).
#[allow(clippy::too_many_arguments)]
pub fn encoder_tiles(
    n_layers: usize,
    weight_stream_cycles: u64,
    linear_cycles: u64,
    detect_cycles: u64,
    attention_cycles: u64,
    softmax_cycles: u64,
    kv_fetch_cycles: u64,
    ffn_cycles: u64,
) -> Vec<Tile> {
    let mut tiles = Vec::new();
    let mut prev_ffn: Option<usize> = None;
    for l in 0..n_layers {
        let t = |name: String, resource, cycles, deps: Vec<usize>| Tile {
            name,
            resource,
            cycles,
            deps,
        };
        // Weight prefetch depends only on the previous layer's prefetch
        // (the DRAM port serializes), never on compute: double buffering.
        let w_dep: Vec<usize> = Vec::new();
        let w = tiles.len();
        tiles.push(t(
            format!("L{l}.weights"),
            Resource::DramPort,
            weight_stream_cycles,
            w_dep,
        ));
        // Linear needs this layer's weights and the previous layer's
        // output.
        let mut lin_deps = vec![w];
        if let Some(p) = prev_ffn {
            lin_deps.push(p);
        }
        let lin = tiles.len();
        tiles.push(t(
            format!("L{l}.linear"),
            Resource::RmmuFx,
            linear_cycles,
            lin_deps,
        ));
        // Detection runs on the low-precision rows right after QKV.
        let det = tiles.len();
        tiles.push(t(
            format!("L{l}.detect"),
            Resource::RmmuDetect,
            detect_cycles,
            vec![lin],
        ));
        // K/V fetch streams from SRAM once the schedule exists.
        let kv = tiles.len();
        tiles.push(t(
            format!("L{l}.kv"),
            Resource::SramPort,
            kv_fetch_cycles,
            vec![det],
        ));
        // Attention compute needs the detection result; it overlaps the
        // K/V stream (list scheduling lets both proceed; the dependency is
        // on detection only, matching the hardware's streaming design).
        let attn = tiles.len();
        tiles.push(t(
            format!("L{l}.attention"),
            Resource::RmmuFx,
            attention_cycles,
            vec![det],
        ));
        // Softmax consumes score tiles as they stream out of the RMMU; it
        // runs on the MFU concurrently with the attention tile (both
        // depend only on detection).
        let sm = tiles.len();
        tiles.push(t(
            format!("L{l}.softmax"),
            Resource::Mfu,
            softmax_cycles,
            vec![det],
        ));
        // FFN closes the layer (attention, softmax and the K/V stream must
        // all have drained).
        let ffn = tiles.len();
        tiles.push(t(
            format!("L{l}.ffn"),
            Resource::RmmuFx,
            ffn_cycles,
            vec![attn, sm, kv],
        ));
        prev_ffn = Some(ffn);
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_tiles_run_in_parallel() {
        let tiles = vec![
            Tile {
                name: "a".into(),
                resource: Resource::RmmuFx,
                cycles: 100,
                deps: vec![],
            },
            Tile {
                name: "b".into(),
                resource: Resource::DramPort,
                cycles: 80,
                deps: vec![],
            },
        ];
        let rep = schedule(&tiles);
        assert_eq!(rep.makespan, 100);
        assert_eq!(rep.serial_cycles(), 180);
    }

    #[test]
    fn dependent_chain_is_serial() {
        let tiles = vec![
            Tile {
                name: "a".into(),
                resource: Resource::RmmuFx,
                cycles: 10,
                deps: vec![],
            },
            Tile {
                name: "b".into(),
                resource: Resource::Mfu,
                cycles: 20,
                deps: vec![0],
            },
            Tile {
                name: "c".into(),
                resource: Resource::RmmuFx,
                cycles: 30,
                deps: vec![1],
            },
        ];
        let rep = schedule(&tiles);
        assert_eq!(rep.makespan, 60);
        assert_eq!(rep.finish_times, vec![10, 30, 60]);
    }

    #[test]
    fn same_resource_serializes() {
        let tiles = vec![
            Tile {
                name: "a".into(),
                resource: Resource::RmmuFx,
                cycles: 10,
                deps: vec![],
            },
            Tile {
                name: "b".into(),
                resource: Resource::RmmuFx,
                cycles: 10,
                deps: vec![],
            },
        ];
        let rep = schedule(&tiles);
        assert_eq!(rep.makespan, 20);
    }

    #[test]
    fn weight_prefetch_hides_behind_compute() {
        // 4 layers; weights stream (50) fully hidden behind compute (200+).
        let tiles = encoder_tiles(4, 50, 100, 10, 80, 20, 30, 100);
        let rep = schedule(&tiles);
        // Serial lower bound per layer on the RMMU: linear+attn+ffn = 280.
        let rmmu_busy = rep.busy[&Resource::RmmuFx];
        assert_eq!(rmmu_busy, 4 * 280);
        // Pipelined makespan must beat naive serial-everything...
        assert!(rep.makespan < rep.serial_cycles(), "no overlap achieved");
        // ...and all but the first weight load should hide completely:
        // makespan ≈ first weights + per-layer critical path.
        let serial_no_overlap: u64 = 4 * (50 + 100 + 10 + 80 + 20 + 100 + 30);
        assert!(rep.makespan < serial_no_overlap);
        assert!(rep.utilization(Resource::RmmuFx) > 0.8);
    }

    #[test]
    fn memory_bound_configuration_shifts_bottleneck() {
        // Giant weight streams: the DRAM port becomes the critical
        // resource and RMMU utilization collapses.
        let tiles = encoder_tiles(4, 1000, 100, 10, 80, 20, 30, 100);
        let rep = schedule(&tiles);
        assert!(rep.utilization(Resource::DramPort) > 0.9);
        assert!(rep.utilization(Resource::RmmuFx) < 0.5);
        // Makespan is pinned by the weight stream.
        assert!(rep.makespan >= 4 * 1000);
    }

    #[test]
    fn pipeline_never_worse_than_fully_serial() {
        for layers in [1usize, 2, 8] {
            let tiles = encoder_tiles(layers, 37, 91, 13, 61, 7, 29, 83);
            let rep = schedule(&tiles);
            let serial: u64 = tiles.iter().map(|t| t.cycles).sum();
            assert!(rep.makespan <= serial);
            assert_eq!(rep.serial_cycles(), serial);
        }
    }

    #[test]
    #[should_panic(expected = "depends on later tile")]
    fn rejects_forward_dependencies() {
        let tiles = vec![Tile {
            name: "bad".into(),
            resource: Resource::Mfu,
            cycles: 1,
            deps: vec![0],
        }];
        let _ = schedule(&tiles);
    }
}
