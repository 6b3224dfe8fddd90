//! The paper's core experimental control: the BSP and shared-memory
//! implementations must compute identical answers on the same graph —
//! only the programming model (and hence the execution profile) differs.

use xmt_bsp_repro::bsp::algorithms as bsp_alg;
use xmt_bsp_repro::bsp::runtime::BspConfig;
use xmt_bsp_repro::bsp::{ActiveSetStrategy, Delivery, Transport};
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::er::gnm;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::graph::gen::structured::*;
use xmt_bsp_repro::graph::validate::{
    reference_bfs, reference_components, reference_triangles, validate_bfs, validate_components,
};
use xmt_bsp_repro::graph::{Csr, EdgeList};
use xmt_bsp_repro::graphct;

fn graph_zoo() -> Vec<(&'static str, Csr)> {
    let mut zoo: Vec<(&'static str, Csr)> = vec![
        ("path", build_undirected(&path(64))),
        ("ring", build_undirected(&ring(51))),
        ("star", build_undirected(&star(80))),
        ("clique", build_undirected(&clique(24))),
        ("grid", build_undirected(&grid(9, 11))),
        ("btree", build_undirected(&binary_tree(127))),
        ("cliques", build_undirected(&disjoint_cliques(5, 7))),
        ("bridged", build_undirected(&bridged_cliques(9))),
    ];
    for seed in 0..3 {
        zoo.push(("gnm", build_undirected(&gnm(400, 1600, seed))));
    }
    zoo.push((
        "rmat",
        build_undirected(&rmat_edges(&RmatParams::graph500(10), 42)),
    ));
    zoo
}

#[test]
fn connected_components_agree_everywhere() {
    for (name, g) in graph_zoo() {
        let shared = graphct::connected_components(&g);
        let bsp = bsp_alg::components::bsp_connected_components(&g, None);
        let serial = reference_components(&g);
        assert_eq!(shared, serial, "{name}: shared vs serial");
        assert_eq!(bsp.states, serial, "{name}: bsp vs serial");
        validate_components(&g, &bsp.states).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn bfs_agrees_everywhere() {
    for (name, g) in graph_zoo() {
        if g.num_vertices() == 0 {
            continue;
        }
        let source = (g.num_vertices() / 3).min(g.num_vertices() - 1);
        let shared = graphct::bfs(&g, source);
        let bsp = bsp_alg::bfs::bsp_bfs(&g, source, None);
        let (serial_dist, _) = reference_bfs(&g, source);
        assert_eq!(shared.dist, serial_dist, "{name}: shared vs serial");
        assert_eq!(bsp.dist(), serial_dist, "{name}: bsp vs serial");
        validate_bfs(&g, source, &bsp.dist(), &bsp.parent())
            .unwrap_or_else(|e| panic!("{name} (bsp): {e}"));
        validate_bfs(&g, source, &shared.dist, &shared.parent)
            .unwrap_or_else(|e| panic!("{name} (shared): {e}"));
    }
}

#[test]
fn triangle_counts_agree_everywhere() {
    for (name, g) in graph_zoo() {
        let shared = graphct::count_triangles(&g);
        let bsp = bsp_alg::triangles::bsp_count_triangles(&g, None);
        let serial = reference_triangles(&g);
        assert_eq!(shared, serial, "{name}: shared vs serial");
        assert_eq!(bsp, serial, "{name}: bsp vs serial");
    }
}

/// Every runtime-mode configuration the engine supports.
fn mode_matrix() -> Vec<BspConfig> {
    let mut configs = Vec::new();
    for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
        for delivery in [Delivery::Push, Delivery::Pull, Delivery::Auto] {
            for active_set in [ActiveSetStrategy::DenseScan, ActiveSetStrategy::Worklist] {
                configs.push(BspConfig {
                    transport,
                    delivery,
                    active_set,
                    ..Default::default()
                });
            }
        }
    }
    configs
}

#[test]
fn every_transport_and_strategy_combination_agrees() {
    let g = build_undirected(&rmat_edges(&RmatParams::graph500(9), 7));
    let serial = reference_components(&g);
    for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
        for active_set in [ActiveSetStrategy::DenseScan, ActiveSetStrategy::Worklist] {
            let config = BspConfig {
                transport,
                active_set,
                ..Default::default()
            };
            let r = bsp_alg::components::bsp_connected_components_with_config(&g, config, None);
            assert_eq!(
                r.states, serial,
                "transport {transport:?}, strategy {active_set:?}"
            );
        }
    }
}

/// The full exchange-mode matrix: transport × delivery × active-set must
/// not change any algorithm's answer on random scale-free graphs.
/// CC and BFS states must be byte-identical (min folds are
/// order-independent, and pull-mode re-delivery of stale labels or
/// distances is a no-op); PageRank gets a tight tolerance instead,
/// because the f64 message-sum fold order is nondeterministic in every
/// mode (it already differs run-to-run in the seed's per-worker inboxes),
/// and pull gathers reorder it further.
#[test]
fn exchange_mode_matrix_agrees_on_random_rmat_graphs() {
    for seed in [7u64, 23, 71] {
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(8), seed));
        let n = g.num_vertices();
        let source = (n / 3).min(n - 1);

        let cc_ref = reference_components(&g);
        let (bfs_ref, _) = reference_bfs(&g, source);
        let pr_ref = bsp_alg::pagerank::bsp_pagerank(
            &g,
            bsp_alg::pagerank::PagerankProgram::default(),
            500,
            None,
        );

        for config in mode_matrix() {
            let tag = format!(
                "seed {seed}, {:?}/{:?}/{:?}",
                config.transport, config.delivery, config.active_set
            );

            let cc = bsp_alg::components::bsp_connected_components_with_config(&g, config, None);
            assert_eq!(cc.states, cc_ref, "CC: {tag}");

            let bfs = bsp_alg::bfs::bsp_bfs_with_config(&g, source, config, None);
            assert_eq!(bfs.dist(), bfs_ref, "BFS dist: {tag}");
            validate_bfs(&g, source, &bfs.dist(), &bfs.parent())
                .unwrap_or_else(|e| panic!("BFS parents: {tag}: {e}"));

            let pr = bsp_alg::pagerank::bsp_pagerank_with_config(
                &g,
                bsp_alg::pagerank::PagerankProgram::default(),
                500,
                config,
                None,
            );
            assert!(!pr.hit_superstep_limit, "PageRank diverged: {tag}");
            for (v, (a, b)) in pr_ref.states.iter().zip(&pr.states).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "PageRank vertex {v}: {a} vs {b} ({tag})"
                );
            }
        }
    }
}

#[test]
fn pagerank_agrees_between_models_on_dangling_free_graphs() {
    for el in [clique(12), ring(40), grid(6, 8)] {
        let g = build_undirected(&el);
        let shared = graphct::pagerank(&g, graphct::pagerank::PagerankOptions::default());
        let bsp = bsp_alg::pagerank::bsp_pagerank(
            &g,
            bsp_alg::pagerank::PagerankProgram::default(),
            500,
            None,
        );
        for (v, (a, b)) in shared.iter().zip(&bsp.states).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: {a} vs {b}");
        }
    }
}

#[test]
fn results_are_label_equivariant() {
    // Relabeling the graph must permute the results identically —
    // guards against any vertex-id-order dependence in either model.
    use xmt_bsp_repro::graph::gen::rmat::random_permutation;
    let el = gnm(200, 700, 3);
    let g = build_undirected(&el);
    let perm = random_permutation(200, 99);
    let h = build_undirected(&EdgeList {
        num_vertices: el.num_vertices,
        edges: (el.edges.iter())
            .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
            .collect(),
    });

    let tri_g = graphct::count_triangles(&g);
    let tri_h = graphct::count_triangles(&h);
    assert_eq!(tri_g, tri_h);

    // Component partition must map through the permutation.
    let lg = graphct::connected_components(&g);
    let lh = graphct::connected_components(&h);
    for u in 0..200usize {
        for v in 0..200usize {
            let same_g = lg[u] == lg[v];
            let same_h = lh[perm[u] as usize] == lh[perm[v] as usize];
            assert_eq!(same_g, same_h, "pair ({u},{v})");
        }
    }
}
