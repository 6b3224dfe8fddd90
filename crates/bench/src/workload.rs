//! Workload construction: the paper's RMAT graph.

use xmt_graph::builder::build_undirected;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::{Csr, VertexId};

use crate::HarnessConfig;

/// Build the paper's workload: an undirected, scale-free RMAT graph
/// (a/b/c/d = 0.57/0.19/0.19/0.05, duplicate edges and self loops
/// removed, sorted adjacency).  The paper uses scale 24 / edge factor
/// 16; the default harness scale is smaller so the host reproduction
/// finishes in seconds — pass `--scale 24` for the full-size graph.
pub fn build_paper_graph(cfg: &HarnessConfig) -> Csr {
    let params = RmatParams {
        edge_factor: cfg.edge_factor,
        ..RmatParams::graph500(cfg.scale)
    };
    let edges = rmat_edges(&params, cfg.seed);
    build_undirected(&edges)
}

/// The BFS source (the paper traverses "from the same vertex" in both
/// models): a *low-degree* vertex inside the largest component, so the
/// frontier starts small, grows to its apex mid-traversal and contracts
/// — the curve shape of Fig. 2.  Starting at the hub would collapse the
/// traversal to three levels.  Deterministic: minimum degree, ties to
/// the smallest id.
pub fn pick_bfs_source(g: &Csr) -> VertexId {
    let labels = graphct::connected_components(g);
    #[expect(
        clippy::expect_used,
        reason = "bench workloads are generated non-empty"
    )]
    let big =
        xmt_graph::validate::largest_component(&labels).expect("empty graph has no BFS source");
    (0..g.num_vertices())
        .filter(|&v| labels[v as usize] == big && g.degree(v) > 0)
        .min_by_key(|&v| (g.degree(v), v))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(scale: u32) -> HarnessConfig {
        HarnessConfig::parse(scale, std::iter::empty::<String>())
    }

    #[test]
    fn graph_matches_requested_size() {
        let g = build_paper_graph(&tiny_cfg(10));
        assert_eq!(g.num_vertices(), 1024);
        // Dedup/self-loop removal trims some of the 16x edges.
        assert!(g.num_edges() > 1024 * 8);
        assert!(g.num_edges() <= 1024 * 16);
    }

    #[test]
    fn source_is_a_low_degree_member_of_the_big_component() {
        let g = build_paper_graph(&tiny_cfg(10));
        let s = pick_bfs_source(&g);
        assert!(g.degree(s) >= 1);
        // It must reach a majority of the graph (RMAT's giant component).
        let r = graphct::bfs(&g, s);
        let reached = r.dist.iter().filter(|&&d| d != u64::MAX).count();
        assert!(reached as u64 > g.num_vertices() / 2);
        // And be a non-hub: well below the maximum degree.
        let dmax = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        assert!(g.degree(s) * 10 <= dmax);
    }

    #[test]
    fn workload_is_reproducible() {
        let a = build_paper_graph(&tiny_cfg(9));
        let b = build_paper_graph(&tiny_cfg(9));
        assert_eq!(a, b);
    }
}
