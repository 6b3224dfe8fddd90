//! Per-phase operation counts and the time predictor.

use serde::{Deserialize, Serialize};

use crate::ModelParams;

/// Exact operation counts for one parallel phase of an algorithm.
///
/// Algorithms populate these with *accounting formulas* (they know
/// precisely what each loop body touches) plus measured quantities such
/// as message counts; nothing here is sampled or estimated from time.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Number of independent work items (the exploitable parallelism).
    pub items: u64,
    /// Non-memory (register/ALU/branch) operations.
    pub alu_ops: u64,
    /// Memory reads.
    pub reads: u64,
    /// Memory writes.
    pub writes: u64,
    /// Atomic read-modify-writes to *distinct, uncontended* words.
    pub atomics: u64,
    /// Operations aimed at the single most contended word (a shared
    /// fetch-and-add counter); these serialize at the memory.
    pub hotspot_ops: u64,
    /// Barriers executed in this phase.
    pub barriers: u64,
}

impl PhaseCounts {
    /// A phase over `items` work items with no operations yet.
    pub fn with_items(items: u64) -> Self {
        PhaseCounts {
            items,
            ..Default::default()
        }
    }

    /// Total memory references (reads + writes + atomics + hotspot ops).
    pub fn mem_ops(&self) -> u64 {
        self.reads + self.writes + self.atomics + self.hotspot_ops
    }

    /// Total instructions (ALU + memory).
    pub fn total_ops(&self) -> u64 {
        self.alu_ops + self.mem_ops()
    }

    /// Component-wise sum (items takes the max — phases merged this way
    /// represent the same parallel loop counted in pieces).
    pub fn merge(&self, other: &PhaseCounts) -> PhaseCounts {
        PhaseCounts {
            items: self.items.max(other.items),
            alu_ops: self.alu_ops + other.alu_ops,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            atomics: self.atomics + other.atomics,
            hotspot_ops: self.hotspot_ops + other.hotspot_ops,
            barriers: self.barriers + other.barriers,
        }
    }

    /// Charge the self-scheduling overhead of a dynamically chunked
    /// parallel loop over `items` items: the claim fetch-and-adds (one
    /// per chunk, on a shared cursor — a mild hotspot) and per-item loop
    /// control ALU.  Callers pass the one-worker chunk,
    /// `default_chunk(items, 1)`, so the charge does not depend on the
    /// host pool; the host loop keeps its own chunk.
    pub fn charge_loop_overhead(&mut self, chunk: u64) {
        let chunk = chunk.max(1);
        let claims = self.items.div_ceil(chunk);
        self.hotspot_ops += claims;
        self.alu_ops += 2 * self.items; // index increment + bounds test
    }

    /// Predicted execution cycles at `procs` processors.
    pub fn predict_cycles(&self, params: &ModelParams, procs: usize) -> f64 {
        let p = procs.max(1) as f64;
        let total = self.total_ops() as f64;
        let mut t_work = 0.0;
        if total > 0.0 {
            let k = (self.items.max(1) as f64).min(p * params.streams_per_proc as f64);
            let f_mem = self.mem_ops() as f64 / total;
            let rate_one = 1.0 / (1.0 + f_mem * (params.mem_period - 1.0));
            let rate_all = (p * params.alu_ipc).min(k * rate_one);
            t_work = total / rate_all;
        }
        let t_hot = self.hotspot_ops as f64 * params.hotspot_interval;
        let t_barrier = self.barriers as f64 * (params.barrier_base + params.barrier_per_proc * p);
        t_work.max(t_hot) + t_barrier
    }

    /// Predicted seconds at `procs` processors.
    pub fn predict_seconds(&self, params: &ModelParams, procs: usize) -> f64 {
        params.cycles_to_seconds(self.predict_cycles(params, procs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::default()
    }

    #[test]
    fn empty_phase_costs_nothing() {
        let c = PhaseCounts::default();
        assert_eq!(c.predict_cycles(&params(), 128), 0.0);
    }

    #[test]
    fn abundant_parallelism_scales_linearly() {
        let c = PhaseCounts {
            items: 100_000_000,
            reads: 200_000_000,
            alu_ops: 100_000_000,
            ..Default::default()
        };
        let p = params();
        let t8 = c.predict_cycles(&p, 8);
        let t128 = c.predict_cycles(&p, 128);
        let speedup = t8 / t128;
        assert!(
            (speedup - 16.0).abs() < 0.5,
            "expected ≈16x from 8→128, got {speedup}"
        );
    }

    #[test]
    fn scarce_parallelism_is_flat() {
        // 64 items can occupy half of ONE processor's streams: adding
        // processors cannot help.
        let c = PhaseCounts {
            items: 64,
            reads: 64_000,
            ..Default::default()
        };
        let p = params();
        let t1 = c.predict_cycles(&p, 1);
        let t128 = c.predict_cycles(&p, 128);
        assert!((t1 / t128 - 1.0).abs() < 1e-9, "flat scaling expected");
    }

    #[test]
    fn saturation_caps_at_issue_bandwidth() {
        let c = PhaseCounts {
            items: u64::MAX / 4,
            alu_ops: 1_000_000,
            ..Default::default()
        };
        let p = params();
        // Pure ALU at 1 IPC per processor.
        let t = c.predict_cycles(&p, 10);
        assert!((t - 100_000.0).abs() < 1.0, "t={t}");
    }

    #[test]
    fn hotspot_floor_dominates_when_serialized() {
        let c = PhaseCounts {
            items: 1_000_000,
            reads: 1_000_000,
            hotspot_ops: 10_000_000,
            ..Default::default()
        };
        let p = params();
        let t128 = c.predict_cycles(&p, 128);
        let floor = 10_000_000.0 * p.hotspot_interval;
        assert!(t128 >= floor, "hotspot floor must hold");
        // And it is flat in P.
        let t8 = c.predict_cycles(&p, 8);
        assert!((t8 - t128).abs() / t128 < 0.05);
    }

    #[test]
    fn barriers_grow_with_processors() {
        let c = PhaseCounts {
            barriers: 10,
            ..Default::default()
        };
        let p = params();
        assert!(c.predict_cycles(&p, 128) > c.predict_cycles(&p, 8));
    }

    #[test]
    fn memory_bound_work_needs_lambda_streams() {
        // With items exactly P*S*λ... the point: at items = P*S the
        // aggregate rate is P*S/λ per cycle, well below P.
        let p = params();
        let c = PhaseCounts {
            items: 128, // one processor's worth of streams
            reads: 1_280_000,
            ..Default::default()
        };
        let t1 = c.predict_cycles(&p, 1);
        // 128 streams * (1/69) ≈ 1.855 would exceed 1 IPC -> capped at 1.
        // reads per cycle = min(1, 128/69) = 1 -> t ≈ reads.
        assert!((t1 - 1_280_000.0).abs() / 1_280_000.0 < 0.1, "t1={t1}");
    }

    #[test]
    fn merge_sums_ops_and_maxes_items() {
        let a = PhaseCounts {
            items: 10,
            reads: 5,
            barriers: 1,
            ..Default::default()
        };
        let b = PhaseCounts {
            items: 20,
            writes: 7,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.items, 20);
        assert_eq!(m.reads, 5);
        assert_eq!(m.writes, 7);
        assert_eq!(m.barriers, 1);
    }

    #[test]
    fn loop_overhead_charges_claims_and_control() {
        let mut c = PhaseCounts::with_items(1000);
        c.charge_loop_overhead(100);
        assert_eq!(c.hotspot_ops, 10);
        assert_eq!(c.alu_ops, 2000);
    }

    #[test]
    fn monotone_in_processor_count() {
        let c = PhaseCounts {
            items: 1_000_000,
            reads: 3_000_000,
            alu_ops: 2_000_000,
            hotspot_ops: 100,
            ..Default::default()
        };
        let p = params();
        let mut prev = f64::INFINITY;
        for procs in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let t = c.predict_cycles(&p, procs);
            assert!(t <= prev * 1.0001, "time must not increase with P");
            prev = t;
        }
    }
}
