//! Quickstart: build a scale-free graph, run connected components in
//! both programming models, and predict Cray XMT execution times.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use xmt_bsp_repro::bsp::algorithms::components::bsp_connected_components;
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::graphct;
use xmt_bsp_repro::model::{predict_total_seconds, ModelParams, Recorder};

fn main() {
    // 1. Generate the paper's workload (small): an undirected RMAT graph.
    let params = RmatParams::graph500(14); // 2^14 vertices, ~16 edges each
    let edges = rmat_edges(&params, 1);
    let g = build_undirected(&edges);
    println!(
        "graph: {} vertices, {} edges, max degree {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    // 2. Shared-memory connected components (the GraphCT baseline).
    let mut ct_rec = Recorder::new();
    let labels = graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut ct_rec));
    let components = labels
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v as u64 == l)
        .count();
    println!(
        "shared memory: {} components in {} iterations",
        components,
        ct_rec.steps("iteration")
    );

    // 3. The same algorithm as a BSP vertex program (Pregel-style).
    let mut bsp_rec = Recorder::new();
    let bsp = bsp_connected_components(&g, Some(&mut bsp_rec));
    assert_eq!(bsp.states, labels, "both models must agree");
    println!(
        "BSP:           {} components in {} supersteps",
        components, bsp.supersteps
    );

    // 4. Map the recorded operation counts onto the simulated Cray XMT.
    let model = ModelParams::default();
    for procs in [8usize, 32, 128] {
        let t_ct = predict_total_seconds(&ct_rec, &model, procs);
        let t_bsp = predict_total_seconds(&bsp_rec, &model, procs);
        println!(
            "predicted XMT time at {procs:>3} processors: GraphCT {:>8.3} ms | BSP {:>8.3} ms ({:.1}x)",
            t_ct * 1e3,
            t_bsp * 1e3,
            t_bsp / t_ct
        );
    }
}
