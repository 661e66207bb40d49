use crate::energy;
use crate::fault::{SimFault, DRAM_MAX_RETRIES};
use dota_faults::FaultSite;

/// Off-chip DRAM model: bandwidth-limited transfers with per-byte energy.
///
/// The simulator uses a bandwidth/latency roofline rather than a
/// transaction-level model: DOTA's stages stream large contiguous tensors,
/// so sustained bandwidth dominates (paper §4.4 notes embedding and decoder
/// layers are left memory-bound by design).
#[derive(Debug, Clone)]
pub(crate) struct DramModel {
    bandwidth_gbps: f64,
    bytes_read: u64,
}

impl DramModel {
    /// Creates a DRAM model with the given sustained bandwidth (GB/s).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive.
    pub(crate) fn new(bandwidth_gbps: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        Self {
            bandwidth_gbps,
            bytes_read: 0,
        }
    }

    /// Sustained bandwidth in bytes per cycle at the modeled frequency.
    pub(crate) fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_gbps / energy::FREQ_GHZ
    }

    /// Records a read and returns the cycles it occupies on the interface.
    pub(crate) fn read(&mut self, bytes: u64) -> u64 {
        self.bytes_read += bytes;
        dota_trace::count("dram.bytes_read", bytes);
        (bytes as f64 / self.bytes_per_cycle()).ceil() as u64
    }

    /// Fault-aware variant of [`read`](DramModel::read): transient read
    /// errors injected at site `dram.read` are retried (each retry
    /// re-occupies the interface for the full transfer) up to
    /// [`DRAM_MAX_RETRIES`] times; exhausting the retries surfaces a typed
    /// [`SimFault::DramReadFailed`]. `stage`/`layer` identify the read for
    /// the fault coordinates and the error message. Identical to `read`
    /// when no fault session is active.
    ///
    /// # Errors
    ///
    /// Returns [`SimFault::DramReadFailed`] when every retry also faults.
    pub(crate) fn read_checked(
        &mut self,
        bytes: u64,
        stage: &'static str,
        stage_id: u64,
        layer: u64,
    ) -> Result<u64, SimFault> {
        let mut cycles = self.read(bytes);
        if !dota_faults::enabled() {
            return Ok(cycles);
        }
        let mut attempt = 0u64;
        while dota_faults::should_inject(FaultSite::DramRead, &[layer, stage_id, attempt]) {
            attempt += 1;
            if attempt > DRAM_MAX_RETRIES {
                dota_faults::record("faults.dram.failed_reads", 1);
                dota_trace::count("faults.dram.failed_reads", 1);
                return Err(SimFault::DramReadFailed {
                    stage,
                    layer,
                    bytes,
                });
            }
            dota_faults::record("faults.dram.retries", 1);
            dota_trace::count("faults.dram.retries", 1);
            cycles += (bytes as f64 / self.bytes_per_cycle()).ceil() as u64;
        }
        Ok(cycles)
    }

    /// Energy consumed by all traffic so far, in pJ.
    pub(crate) fn energy_pj(&self) -> f64 {
        self.bytes_read as f64 * energy::DRAM_PJ_PER_BYTE
    }
}

/// Banked on-chip SRAM model (per Lane: 10 × 64 KB banks, Table 2 / §4.4).
///
/// Counts the bytes accessed (for energy) and charges access cycles as if
/// every access striped evenly across the banks. It models no capacity
/// (nothing is allocated, so nothing overflows) and no bank conflicts
/// (two accesses never contend for one bank).
#[derive(Debug, Clone)]
pub(crate) struct SramModel {
    banks: usize,
    bytes_accessed: u64,
}

impl SramModel {
    /// The per-Lane configuration from Table 2: 10 banks.
    pub(crate) fn lane_default() -> Self {
        Self {
            banks: 10,
            bytes_accessed: 0,
        }
    }

    /// Records an access of `bytes` and returns the cycles it takes,
    /// assuming each bank serves a 64-byte line per cycle and accesses
    /// stripe across banks (`ceil(bytes / (64 * banks))`).
    pub(crate) fn access(&mut self, bytes: u64) -> u64 {
        self.bytes_accessed += bytes;
        dota_trace::count("sram.bytes_accessed", bytes);
        let per_cycle = 64 * self.banks as u64;
        bytes.div_ceil(per_cycle)
    }

    /// Fault-aware variant of [`access`](SramModel::access): a bit flip
    /// injected at site `sram.bitflip` is caught by the banked array's ECC
    /// and the access is replayed from the clean line, so the fault is
    /// always absorbed — it costs a second full access and increments the
    /// `faults.sram.bitflips` counter. `stream`/`layer` are the stable
    /// fault coordinates. Identical to `access` when no fault session is
    /// active.
    pub(crate) fn access_checked(&mut self, bytes: u64, stream_id: u64, layer: u64) -> u64 {
        let cycles = self.access(bytes);
        if dota_faults::enabled()
            && dota_faults::should_inject(FaultSite::SramBitFlip, &[layer, stream_id])
        {
            dota_faults::record("faults.sram.bitflips", 1);
            dota_trace::count("faults.sram.bitflips", 1);
            // ECC replay: the line is re-read; charge the access again.
            return cycles + self.access(bytes);
        }
        cycles
    }

    /// Energy of all accesses so far, in pJ.
    pub(crate) fn energy_pj(&self) -> f64 {
        self.bytes_accessed as f64 * energy::SRAM_PJ_PER_BYTE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_cycles_scale_with_bytes() {
        let mut d = DramModel::new(64.0); // 64 GB/s at 1 GHz = 64 B/cycle
        assert_eq!(d.read(64), 1);
        assert_eq!(d.read(65), 2);
        assert_eq!(d.energy_pj(), (64 + 65) as f64 * energy::DRAM_PJ_PER_BYTE);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn dram_rejects_zero_bandwidth() {
        let _ = DramModel::new(0.0);
    }

    #[test]
    fn access_cycles_stripe_across_banks() {
        let mut s = SramModel::lane_default(); // 10 banks * 64 B/cycle
        assert_eq!(s.access(640), 1);
        assert_eq!(s.access(641), 2);
        assert_eq!(s.energy_pj(), 1281.0 * energy::SRAM_PJ_PER_BYTE);
    }

    #[test]
    fn energy_proportional_to_traffic() {
        let mut s = SramModel::lane_default();
        s.access(1000);
        let e1 = s.energy_pj();
        s.access(1000);
        assert!((s.energy_pj() - 2.0 * e1).abs() < 1e-9);
    }
}
