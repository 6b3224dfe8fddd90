//! Run statistics reported by the simulator.

use serde::{Deserialize, Serialize};

use crate::MachineConfig;

/// Statistics from one [`Machine::run`](crate::Machine::run).
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct RunStats {
    /// Cycle at which the last stream finished.
    pub cycles: u64,
    /// Total instructions issued by all processors.
    pub instructions: u64,
    /// Memory operations serviced.
    pub memory_ops: u64,
    /// Full/empty retries observed at the memory.
    pub tag_retries: u64,
    /// Number of tasklets executed to completion.
    pub tasklets_completed: u64,
    /// `true` when the run hit its cycle budget before finishing.
    pub hit_cycle_limit: bool,
    /// Instructions issued by each processor (load-balance diagnostics).
    pub per_proc_instructions: Vec<u64>,
}

impl RunStats {
    /// Aggregate issue rate in instructions per cycle (all processors).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Wall-clock seconds at the configured clock rate.
    pub fn seconds(&self, config: &MachineConfig) -> f64 {
        config.cycles_to_seconds(self.cycles)
    }

    /// Load imbalance: max over mean of per-processor issue counts
    /// (1.0 = perfectly balanced; 0.0 when untracked or idle).
    pub fn imbalance(&self) -> f64 {
        let Some(&max) = self.per_proc_instructions.iter().max() else {
            return 0.0;
        };
        let mean = self.per_proc_instructions.iter().sum::<u64>() as f64
            / self.per_proc_instructions.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max as f64 / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_instructions_per_cycle() {
        let s = RunStats {
            cycles: 100,
            instructions: 150,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_ipc() {
        assert_eq!(RunStats::default().ipc(), 0.0);
    }
}
