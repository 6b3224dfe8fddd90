//! Superstep checkpointing, Pregel-style (§3.3 of the Pregel paper:
//! "fault tolerance is achieved through checkpointing" at superstep
//! boundaries): run connected components in bounded slices, "crash"
//! between slices, and resume from the checkpoint — the final answer is
//! bit-identical to an uninterrupted run.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use xmt_bsp_repro::bsp::algorithms::components::CcProgram;
use xmt_bsp_repro::bsp::runtime::{run, run_bsp, BspConfig, RunOptions};
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};

fn main() {
    let g = build_undirected(&rmat_edges(&RmatParams::graph500(13), 11));
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Reference: one uninterrupted run.
    let whole = run_bsp(&g, &CcProgram, BspConfig::default(), None);
    println!(
        "uninterrupted run: {} supersteps, {} components",
        whole.supersteps,
        whole
            .states
            .iter()
            .enumerate()
            .filter(|&(v, &l)| v as u64 == l)
            .count()
    );

    // The same computation, 2 supersteps at a time, checkpointing at
    // every boundary (a real deployment would serialize the ResumePoint
    // to stable storage here).
    // One entry point serves both the first slice (`from: None`) and
    // every resumed one.
    let mut limit = 0u64;
    let mut crashes = 0;
    let mut from = None;
    let done = loop {
        limit += 2;
        let config = BspConfig {
            max_supersteps: limit,
            ..Default::default()
        };
        let opts = RunOptions {
            config,
            from,
            ..Default::default()
        };
        let slice = run(&g, &CcProgram, opts).expect("valid checkpoint");
        let Some(ckpt) = slice.resume else {
            break slice.result;
        };
        crashes += 1;
        println!(
            "  crash #{crashes} after superstep {}: checkpoint holds {} pending messages, {} halted vertices",
            ckpt.superstep,
            ckpt.pending.len(),
            ckpt.halted.iter().filter(|&&h| h).count()
        );
        from = Some((slice.result.states, ckpt));
    };

    assert_eq!(done.states, whole.states, "recovery must be exact");
    assert_eq!(done.supersteps, whole.supersteps);
    println!(
        "recovered through {crashes} crashes; final labeling identical to the uninterrupted run ✓"
    );
}
