//! End-to-end validation of the accounting: execute a real graph kernel
//! *inside the discrete-event simulator* and compare the simulated time
//! with what the analytic model predicts from the instrumented counts.
//!
//! The kernel is the connected-components hook sweep (the body of
//! GraphCT's iteration), parallelized over *edges* exactly as the paper
//! describes ("considers all edges in all iterations") — a self-scheduled
//! loop over the arc array that reads both endpoint labels and performs
//! an atomic minimum on improvement.  Vertex-grained scheduling would
//! serialize on the hubs; edge grain is what the XMT compiler's dynamic
//! scheduling achieves.  Anything the accounting misses (claim
//! overheads, issue bandwidth, latency masking) shows up as disagreement
//! here.

use xmt_graph::Csr;
use xmt_model::{ModelParams, PhaseCounts};
use xmt_sim::op::{FnTasklet, Op};
use xmt_sim::{Machine, MachineConfig, RunStats};

/// Simulated-memory layout for graph data.
const CURSOR: u64 = 0x100;
const SRC_BASE: u64 = 0x1_0000_0000;
const ADJ_BASE: u64 = 0x2_0000_0000;
const LAB_BASE: u64 = 0x3_0000_0000;

/// Load a CSR graph into a machine's memory as parallel arc arrays
/// (`src[e] -> adj[e]`) plus the identity labeling.
pub fn load_graph(m: &mut Machine, g: &Csr) {
    let mut e = 0u64;
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v) {
            m.memory_mut().poke(SRC_BASE + 8 * e, v);
            m.memory_mut().poke(ADJ_BASE + 8 * e, u);
            e += 1;
        }
    }
    for v in 0..g.num_vertices() {
        m.memory_mut().poke(LAB_BASE + 8 * v, v);
    }
}

/// Run one edge-parallel CC hook sweep over `g` on a machine shaped by
/// `cfg`: streams claim chunks of arcs from a shared cursor; per arc
/// they load the two endpoints and their labels, and issue an atomic
/// min at the destination label on improvement.
pub fn simulate_cc_hook_sweep(cfg: &MachineConfig, g: &Csr, chunk: u64) -> RunStats {
    let arcs = g.num_arcs();
    let mut m = Machine::new(*cfg);
    load_graph(&mut m, g);

    let streams = cfg.total_streams();
    m.spawn_n(streams, |_| {
        #[derive(Clone, Copy)]
        enum Ph {
            Claim,
            GotClaim,
            LoadSrc,
            LoadDst,
            LoadLabelU { v: u64 },
            LoadLabelV { v: u64 },
            Decide { v: u64, lu: u64 },
        }
        let mut ph = Ph::Claim;
        let mut e = 0u64;
        let mut e_hi = 0u64;
        // Each `last.unwrap()` below is a tasklet-protocol invariant:
        // the simulator delivers the previous op's result before
        // re-entering the state machine, and every unwrapping state is
        // reachable only after an op was returned.
        #[expect(clippy::unwrap_used, reason = "tasklet protocol invariant")]
        Box::new(FnTasklet(move |last| loop {
            match ph {
                Ph::Claim => {
                    ph = Ph::GotClaim;
                    return Some(Op::FetchAdd(CURSOR, chunk as i64));
                }
                Ph::GotClaim => {
                    let lo = last.unwrap();
                    if lo >= arcs {
                        return None;
                    }
                    e = lo;
                    e_hi = (lo + chunk).min(arcs);
                    ph = Ph::LoadSrc;
                }
                Ph::LoadSrc => {
                    if e >= e_hi {
                        ph = Ph::Claim;
                        continue;
                    }
                    ph = Ph::LoadDst;
                    return Some(Op::Load(SRC_BASE + 8 * e));
                }
                Ph::LoadDst => {
                    let v = last.unwrap();
                    ph = Ph::LoadLabelU { v };
                    return Some(Op::Load(ADJ_BASE + 8 * e));
                }
                Ph::LoadLabelU { v } => {
                    let u = last.unwrap();
                    ph = Ph::LoadLabelV { v };
                    return Some(Op::Load(LAB_BASE + 8 * u));
                }
                Ph::LoadLabelV { v } => {
                    let lu = last.unwrap();
                    ph = Ph::Decide { v, lu };
                    return Some(Op::Load(LAB_BASE + 8 * v));
                }
                Ph::Decide { v, lu } => {
                    let lv = last.unwrap();
                    e += 1;
                    ph = Ph::LoadSrc;
                    if lu < lv {
                        // Atomic min at the destination label word,
                        // modeled as a fetch-add-class controller op.
                        return Some(Op::FetchAdd(LAB_BASE + 8 * v, 0));
                    }
                    return Some(Op::Alu(1));
                }
            }
        }))
    });

    m.run(400_000_000)
}

/// The accounting the instrumentation produces for the same edge-grained
/// sweep: four reads per arc (src, dst, two labels), an atomic per hook,
/// loop-control ALU, and one cursor claim per chunk.
pub fn cc_hook_counts(g: &Csr, hooks: u64, chunk: u64) -> PhaseCounts {
    let arcs = g.num_arcs();
    let mut c = PhaseCounts::with_items(arcs.max(1));
    c.reads = 4 * arcs;
    c.alu_ops = arcs; // the compare
    c.atomics = hooks;
    c.charge_loop_overhead(chunk);
    c
}

/// Count how many hook operations the sweep performs (`label[u] <
/// label[v]` under the identity labeling, i.e. arcs with u < v).
pub fn count_hooks(g: &Csr) -> u64 {
    let mut hooks = 0;
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v) {
            if u < v {
                hooks += 1;
            }
        }
    }
    hooks
}

/// Compare simulated vs model-predicted cycles; returns `(sim, predicted)`.
pub fn validate_cc_sweep(cfg: &MachineConfig, g: &Csr, model: &ModelParams) -> (u64, f64) {
    let chunk = (g.num_arcs() / (cfg.total_streams() as u64 * 4)).clamp(1, 256);
    let stats = simulate_cc_hook_sweep(cfg, g, chunk);
    assert!(!stats.hit_cycle_limit, "simulation exceeded cycle budget");
    let counts = cc_hook_counts(g, count_hooks(g), chunk);
    let model = ModelParams {
        streams_per_proc: cfg.streams_per_proc,
        ..*model
    };
    let predicted = counts.predict_cycles(&model, cfg.processors);
    (stats.cycles, predicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::rmat::{rmat_edges, RmatParams};

    #[test]
    fn simulated_sweep_touches_every_arc() {
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(6), 3));
        let cfg = MachineConfig {
            processors: 2,
            streams_per_proc: 16,
            ..MachineConfig::default()
        };
        let stats = simulate_cc_hook_sweep(&cfg, &g, 4);
        assert!(!stats.hit_cycle_limit);
        // At least four loads per arc.
        let floor = 4 * g.num_arcs();
        assert!(
            stats.memory_ops >= floor,
            "memory ops {} below floor {floor}",
            stats.memory_ops
        );
    }

    #[test]
    fn model_tracks_simulated_graph_kernel_when_saturated() {
        // With the real Threadstorm stream count (128/processor) the
        // edge-grained kernel saturates the issue bandwidth — the regime
        // the figures' heavy phases run in.
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(7), 9));
        let model = ModelParams::default();
        for procs in [1usize, 2, 4] {
            let cfg = MachineConfig {
                processors: procs,
                ..MachineConfig::default()
            };
            let (sim, predicted) = validate_cc_sweep(&cfg, &g, &model);
            let err = (predicted - sim as f64).abs() / sim as f64;
            assert!(
                err < 0.5,
                "P={procs}: sim {sim} vs predicted {predicted:.0} ({:.0}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn mid_concurrency_regime_is_within_3x() {
        // Between the latency-bound and issue-bound asymptotes (few
        // streams per processor) queueing delays push the machine past
        // the model; document the bound rather than hide it.
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(7), 9));
        let model = ModelParams::default();
        let cfg = MachineConfig {
            processors: 4,
            streams_per_proc: 16,
            ..MachineConfig::default()
        };
        let (sim, predicted) = validate_cc_sweep(&cfg, &g, &model);
        let ratio = sim as f64 / predicted;
        assert!(
            (0.33..3.0).contains(&ratio),
            "sim {sim} vs predicted {predicted:.0}"
        );
    }

    #[test]
    fn hook_count_matches_lower_neighbor_arcs() {
        let g = build_undirected(&xmt_graph::gen::structured::clique(6));
        // Every arc u->v with u<v hooks: exactly arcs/2.
        assert_eq!(count_hooks(&g), g.num_arcs() / 2);
    }
}
