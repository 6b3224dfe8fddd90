//! Machine configuration.

use serde::{Deserialize, Serialize};

/// Parameters of the simulated Threadstorm machine.
///
/// Defaults model the PNNL Cray XMT used in the paper: 128 processors at
/// 500 MHz with 128 hardware streams each.  The memory latency is the
/// *effective* per-stream memory period — Threadstorm allows a handful of
/// outstanding references per stream, so the exposed latency is lower
/// than the raw DRAM round trip.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct MachineConfig {
    /// Number of Threadstorm processors.
    pub processors: usize,
    /// Hardware streams per processor (128 on Threadstorm).
    pub streams_per_proc: usize,
    /// Clock frequency in Hz (500 MHz on the XMT).
    pub clock_hz: f64,
    /// Cycles a stream is blocked by one memory reference.
    pub mem_latency: u64,
    /// Minimum cycles between two operations serviced at the *same*
    /// memory word (hotspot serialization interval).
    pub hotspot_interval: u64,
    /// Cycles between hardware retries of a full/empty-blocked reference.
    pub fe_retry_interval: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            processors: 128,
            streams_per_proc: 128,
            clock_hz: 500.0e6,
            mem_latency: 68,
            hotspot_interval: 4,
            fe_retry_interval: 16,
        }
    }
}

impl MachineConfig {
    /// A tiny machine for fast unit tests.
    pub fn tiny() -> Self {
        MachineConfig {
            processors: 2,
            streams_per_proc: 8,
            clock_hz: 500.0e6,
            mem_latency: 10,
            hotspot_interval: 4,
            fe_retry_interval: 8,
        }
    }

    /// Total hardware streams in the machine.
    pub fn total_streams(&self) -> usize {
        self.processors * self.streams_per_proc
    }

    /// Convert a cycle count to seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let c = MachineConfig::default();
        assert_eq!(c.processors, 128);
        assert_eq!(c.streams_per_proc, 128);
        assert_eq!(c.total_streams(), 16384);
        assert_eq!(c.clock_hz, 500.0e6);
    }

    #[test]
    fn cycle_conversion() {
        let c = MachineConfig::default();
        assert!((c.cycles_to_seconds(500_000_000) - 1.0).abs() < 1e-12);
    }
}
