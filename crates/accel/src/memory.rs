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
pub struct DramModel {
    bandwidth_gbps: f64,
    bytes_read: u64,
    bytes_written: u64,
}

impl DramModel {
    /// Creates a DRAM model with the given sustained bandwidth (GB/s).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not positive.
    pub fn new(bandwidth_gbps: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        Self {
            bandwidth_gbps,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Sustained bandwidth in bytes per cycle at the modeled frequency.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_gbps / energy::FREQ_GHZ
    }

    /// Records a read and returns the cycles it occupies on the interface.
    pub fn read(&mut self, bytes: u64) -> u64 {
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

    /// Records a write and returns the cycles it occupies.
    pub fn write(&mut self, bytes: u64) -> u64 {
        self.bytes_written += bytes;
        dota_trace::count("dram.bytes_written", bytes);
        (bytes as f64 / self.bytes_per_cycle()).ceil() as u64
    }

    /// Total bytes moved so far.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Energy consumed by all traffic so far, in pJ.
    pub(crate) fn energy_pj(&self) -> f64 {
        self.total_bytes() as f64 * energy::DRAM_PJ_PER_BYTE
    }

    /// Resets the counters.
    pub fn reset(&mut self) {
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

/// Banked on-chip SRAM model (per Lane: 10 × 64 KB banks, Table 2 / §4.4).
///
/// Tracks access counts and detects capacity overflows; a batch of accesses
/// to the same bank in one cycle serializes (bank conflict), which the
/// access-cycles helper accounts for.
#[derive(Debug, Clone)]
pub struct SramModel {
    banks: usize,
    bank_bytes: u64,
    bytes_accessed: u64,
    allocated: u64,
}

impl SramModel {
    /// Creates an SRAM with `banks` banks of `bank_kb` KiB each.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `bank_kb == 0`.
    pub fn new(banks: usize, bank_kb: u64) -> Self {
        assert!(banks > 0 && bank_kb > 0, "SRAM must be non-empty");
        Self {
            banks,
            bank_bytes: bank_kb * 1024,
            bytes_accessed: 0,
            allocated: 0,
        }
    }

    /// The per-Lane configuration from Table 2: 10 × 64 KB = 640 KB.
    pub(crate) fn lane_default() -> Self {
        Self::new(10, 64)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.banks as u64 * self.bank_bytes
    }

    /// Reserves `bytes` of capacity for a tensor.
    ///
    /// # Errors
    ///
    /// Returns the shortfall in bytes if the allocation does not fit.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), u64> {
        if self.allocated + bytes > self.capacity() {
            return Err(self.allocated + bytes - self.capacity());
        }
        self.allocated += bytes;
        Ok(())
    }

    /// Releases `bytes` of capacity.
    pub fn free(&mut self, bytes: u64) {
        self.allocated = self.allocated.saturating_sub(bytes);
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Records an access of `bytes` and returns the cycles it takes,
    /// assuming each bank serves a 64-byte line per cycle and accesses
    /// stripe across banks (`ceil(bytes / (64 * banks))`).
    pub fn access(&mut self, bytes: u64) -> u64 {
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

    /// Total bytes accessed so far.
    pub fn bytes_accessed(&self) -> u64 {
        self.bytes_accessed
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
        assert_eq!(d.write(128), 2);
        assert_eq!(d.total_bytes(), 64 + 65 + 128);
        assert!(d.energy_pj() > 0.0);
        d.reset();
        assert_eq!(d.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn dram_rejects_zero_bandwidth() {
        let _ = DramModel::new(0.0);
    }

    #[test]
    fn lane_sram_is_640kb() {
        let s = SramModel::lane_default();
        assert_eq!(s.capacity(), 640 * 1024);
    }

    #[test]
    fn allocation_tracks_capacity() {
        let mut s = SramModel::new(2, 1); // 2 KB
        assert!(s.allocate(1024).is_ok());
        assert!(s.allocate(1024).is_ok());
        let err = s.allocate(1).unwrap_err();
        assert_eq!(err, 1);
        s.free(1024);
        assert!(s.allocate(512).is_ok());
        assert_eq!(s.allocated(), 1024 + 512);
    }

    #[test]
    fn access_cycles_stripe_across_banks() {
        let mut s = SramModel::new(4, 64); // 4 banks * 64 B/cycle = 256 B/cycle
        assert_eq!(s.access(256), 1);
        assert_eq!(s.access(257), 2);
        assert_eq!(s.bytes_accessed(), 513);
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
