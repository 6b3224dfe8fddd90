//! Streaming graph analytics, STINGER-style: ingest an RMAT edge stream
//! in batches while maintaining triangle counts and connected components
//! incrementally — the workload of the paper's streaming references
//! ([12] clustering coefficients, [13] component tracking), with churn
//! (deletions) in the second half of the stream.
//!
//! ```text
//! cargo run --release --example streaming_analytics
//! ```

use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::stinger::{EdgeOp, StreamingAnalytics};

fn main() {
    let params = RmatParams {
        edge_factor: 8,
        ..RmatParams::graph500(11)
    };
    let stream = rmat_edges(&params, 21);
    let n = stream.num_vertices;
    println!(
        "edge stream: {} updates over {} vertices (RMAT scale {})",
        stream.num_edges(),
        n,
        params.scale
    );

    let mut analytics = StreamingAnalytics::new(n);

    let batch_size = stream.num_edges() / 8;
    for (b, chunk) in stream.edges.chunks(batch_size).enumerate() {
        // Ingest the batch.
        let before = analytics.triangles();
        let inserts: Vec<EdgeOp> = chunk.iter().map(|&(u, v)| EdgeOp::Insert(u, v)).collect();
        let new_edges = analytics.apply_batch(&inserts).expect("in range").inserted;
        let new_triangles = analytics.triangles() - before;
        // Churn: in later batches, also delete a slice of the newest edges.
        let mut deleted = 0u64;
        if b >= 4 {
            let deletes: Vec<EdgeOp> = chunk
                .iter()
                .rev()
                .take(new_edges as usize / 4)
                .map(|&(u, v)| EdgeOp::Delete(u, v))
                .collect();
            deleted = analytics.apply_batch(&deletes).expect("in range").deleted;
        }
        println!(
            "batch {b}: +{new_edges} edges (-{deleted}), +{new_triangles} triangles | \
now {} edges, {} triangles, {} components, mean cc {:.4}",
            analytics.graph().num_edges(),
            analytics.triangles(),
            analytics.components(),
            analytics.mean_coefficient(),
        );
    }

    // Cross-check the incremental state against the static toolkit.
    let csr = analytics.graph().to_csr();
    let static_triangles = graphct::count_triangles(&csr);
    assert_eq!(analytics.triangles(), static_triangles);
    let static_labels = graphct::connected_components(&csr);
    assert_eq!(analytics.labels(), static_labels);
    println!(
        "\nfinal state cross-checked against the static toolkit: {} triangles, {} components ✓",
        static_triangles,
        analytics.components()
    );
}
