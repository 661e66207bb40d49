//! Typed faults surfaced by the fault-aware simulator entry points.
//!
//! Injected hardware faults (see [`dota_faults`]) are absorbed where the
//! modeled machine has a recovery mechanism — ECC re-reads for SRAM bit
//! flips, bounded retries for transient DRAM errors, routing around stuck
//! lanes — and surface as a [`SimFault`] when recovery is exhausted. The
//! fault-aware path, [`Accelerator::try_simulate_trace`], never panics on
//! injected faults.
//!
//! [`Accelerator::try_simulate_trace`]: crate::Accelerator::try_simulate_trace

use std::fmt;

/// Maximum transient-read retries before a DRAM read is declared failed.
pub const DRAM_MAX_RETRIES: u64 = 3;

/// An injected hardware fault the simulator could not absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFault {
    /// A DRAM read kept failing after [`DRAM_MAX_RETRIES`] retries.
    DramReadFailed {
        /// Pipeline stage issuing the read (e.g. `"linear.weights"`).
        stage: &'static str,
        /// Encoder layer the read belonged to.
        layer: u64,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Every compute lane was injected as stuck; no work can issue.
    AllLanesDown {
        /// Configured lane count (all of them dropped).
        lanes: usize,
    },
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::DramReadFailed {
                stage,
                layer,
                bytes,
            } => write!(
                f,
                "dram read of {bytes} bytes failed after {DRAM_MAX_RETRIES} retries \
                 (layer {layer}, stage {stage})"
            ),
            SimFault::AllLanesDown { lanes } => {
                write!(
                    f,
                    "all {lanes} compute lanes are stuck; cannot schedule work"
                )
            }
        }
    }
}

impl std::error::Error for SimFault {}
