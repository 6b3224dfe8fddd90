//! Property-based tests (proptest) over the core data structures and the
//! algorithm invariants listed in DESIGN.md §8.

use proptest::prelude::*;

use xmt_bsp_repro::bsp::algorithms as bsp_alg;
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::validate::{
    reference_bfs, reference_components, reference_triangles, validate_bfs, validate_components,
};
use xmt_bsp_repro::graph::EdgeList;
use xmt_bsp_repro::graphct;
use xmt_bsp_repro::par;

/// Strategy: a random edge list over `1..=n` vertices.
fn arb_edge_list(max_n: u64, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |edges| EdgeList {
            num_vertices: n,
            edges,
        })
    })
}

/// Strategy: the fixed executor (what every model-charging run uses) or
/// the guided one (what the service's BSP engine uses), both on the
/// global pool.
fn arb_executor() -> impl Strategy<Value = par::Executor> {
    (0u8..2).prop_map(|guided| {
        if guided == 1 {
            par::Executor::guided()
        } else {
            par::Executor::fixed()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_preserves_degree_sums(el in arb_edge_list(64, 300)) {
        let g = build_undirected(&el);
        let pairs: std::collections::BTreeSet<_> = el
            .edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        prop_assert_eq!(g.num_edges() as usize, pairs.len());
        let degsum: u64 = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum as usize, 2 * pairs.len());
    }

    #[test]
    fn undirected_csr_is_symmetric_and_simple(el in arb_edge_list(48, 200)) {
        let g = build_undirected(&el);
        for v in 0..g.num_vertices() {
            let nbrs = g.neighbors(v);
            // Sorted, no self loops, no duplicates.
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "v={v} {nbrs:?}");
            prop_assert!(!nbrs.contains(&v));
            // Symmetry.
            for &u in nbrs {
                prop_assert!(g.has_arc(u, v), "missing reverse of {v}->{u}");
            }
        }
    }

    #[test]
    fn components_are_a_minimal_fixed_point(el in arb_edge_list(48, 200), exec in arb_executor()) {
        let g = build_undirected(&el);
        let labels = graphct::connected_components_with(&g, &mut graphct::Ctx::on(exec));
        prop_assert!(validate_components(&g, &labels).is_ok());
        prop_assert_eq!(&labels, &reference_components(&g));
        let bsp = bsp_alg::components::bsp_connected_components(&g, None);
        prop_assert_eq!(&bsp.states, &labels);
    }

    #[test]
    fn bfs_distance_recurrence_holds(
        el in arb_edge_list(48, 200),
        src_sel in 0u64..48,
        exec in arb_executor(),
    ) {
        let g = build_undirected(&el);
        let source = src_sel % g.num_vertices();
        let r = graphct::bfs_with(&g, source, &mut graphct::Ctx::on(exec));
        prop_assert!(validate_bfs(&g, source, &r.dist, &r.parent).is_ok());
        let (ref_dist, _) = reference_bfs(&g, source);
        prop_assert_eq!(&r.dist, &ref_dist);
        let b = bsp_alg::bfs::bsp_bfs(&g, source, None);
        prop_assert_eq!(&b.dist(), &ref_dist);
        // Frontier sizes sum to the number of reached vertices.
        let reached = r.dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
        prop_assert_eq!(r.frontier_sizes.iter().sum::<u64>(), reached);
    }

    #[test]
    fn beamer_auto_bfs_matches_reference_on_rmat(scale in 4u32..8, seed in 0u64..6, src_sel in 0u64..1_000_000) {
        use xmt_bsp_repro::bsp::runtime::{BspConfig, Delivery};
        use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(scale), seed));
        let source = src_sel % g.num_vertices();
        let (ref_dist, _) = reference_bfs(&g, source);
        // Beamer Auto flips the heavy supersteps bottom-up; the
        // distances must nevertheless equal the serial reference, and
        // so must graphct's direction-optimized shared-memory BFS.
        let config = BspConfig { delivery: Delivery::Auto, ..BspConfig::default() };
        let b = bsp_alg::bfs::bsp_bfs_with_config(&g, source, config, None);
        prop_assert_eq!(&b.dist(), &ref_dist);
        let ct = graphct::bfs(&g, source);
        prop_assert_eq!(&ct.dist, &ref_dist);
        prop_assert!(validate_bfs(&g, source, &ct.dist, &ct.parent).is_ok());
    }

    #[test]
    fn triangle_counts_match_brute_force(el in arb_edge_list(32, 160)) {
        let g = build_undirected(&el);
        let want = reference_triangles(&g);
        prop_assert_eq!(graphct::count_triangles(&g), want);
        prop_assert_eq!(bsp_alg::triangles::bsp_count_triangles(&g, None), want);
    }

    #[test]
    fn triangle_strategies_agree_on_rmat(scale in 4u32..8, seed in 0u64..6) {
        use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(scale), seed));
        let want = reference_triangles(&g);
        for exec in [par::Executor::fixed(), par::Executor::guided()] {
            // The id-order merge sweep (the paper's kernel) ...
            prop_assert_eq!(
                graphct::count_triangles_idorder(&g, &mut graphct::Ctx::on(exec.clone())),
                want,
                "idorder on {:?}", exec
            );
            // ... and every strategy of the degree-ordered DAG sweep
            // that replaced it as the default.
            for strategy in graphct::IntersectStrategy::ALL {
                prop_assert_eq!(
                    graphct::count_triangles_with(&g, strategy, &mut graphct::Ctx::on(exec.clone())),
                    want,
                    "dag strategy {} on {:?}", strategy.name(), exec
                );
            }
        }
    }

    #[test]
    fn triangle_strategies_agree_on_gnm(n in 8u64..64, m in 0u64..300, seed in 0u64..6) {
        use xmt_bsp_repro::graph::gen::er::gnm;
        let g = build_undirected(&gnm(n, m, seed));
        let want = reference_triangles(&g);
        for exec in [par::Executor::fixed(), par::Executor::guided()] {
            prop_assert_eq!(
                graphct::count_triangles_idorder(&g, &mut graphct::Ctx::on(exec.clone())),
                want,
                "idorder on {:?}", exec
            );
            for strategy in graphct::IntersectStrategy::ALL {
                prop_assert_eq!(
                    graphct::count_triangles_with(&g, strategy, &mut graphct::Ctx::on(exec.clone())),
                    want,
                    "dag strategy {} on {:?}", strategy.name(), exec
                );
            }
        }
    }

    #[test]
    fn clustering_coefficients_are_probabilities(el in arb_edge_list(32, 160)) {
        let g = build_undirected(&el);
        let (cc, _) = graphct::clustering_coefficients(&g);
        for (v, &c) in cc.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&c), "cc[{v}]={c}");
        }
    }

    #[test]
    fn prefix_sum_matches_sequential(values in proptest::collection::vec(0u64..1000, 0..2000)) {
        let mut par_v = values.clone();
        let mut seq_v = values;
        let tp = par::exclusive_prefix_sum(&mut par_v);
        let ts = par::exclusive_prefix_sum_seq(&mut seq_v);
        prop_assert_eq!(tp, ts);
        prop_assert_eq!(par_v, seq_v);
    }

    #[test]
    fn inbox_delivery_is_exactly_once(
        sends in proptest::collection::vec((0u64..200, 0u64..1000), 0..400),
        workers in 1usize..6,
        chunk in 1usize..40,
        pieces in 2usize..5,
    ) {
        use xmt_bsp_repro::bsp::transport::{MessageCollector, Transport};
        use xmt_bsp_repro::bsp::Inbox;
        // `sends` is what the sources produce, in source order.  Cut it
        // into compute chunks, let the workers claim them round-robin,
        // and have the last worker deposit first — arrival order is the
        // reverse of source order.  A chunk leaves in up to `pieces`
        // deposits at its one position, as a compute chunk that passes
        // the deposit high-water mark does.  Then regroup the
        // collector's view: the path the runtime's exchange takes.
        for transport in [Transport::PerThreadOutbox, Transport::SingleQueue] {
            let mut collector = MessageCollector::new(transport, workers, 200);
            let chunks: Vec<(usize, &[(u64, u64)])> =
                sends.chunks(chunk).enumerate().map(|(i, c)| (i * chunk, c)).collect();
            for w in (0..workers).rev() {
                for &(start, sent) in chunks.iter().skip(w).step_by(workers) {
                    for piece in sent.chunks(sent.len().div_ceil(pieces)) {
                        collector.deposit_from(w, start, &mut piece.to_vec());
                    }
                }
            }
            let exec = par::Executor::fixed();
            let mut ib = Inbox::new();
            ib.rebuild(
                &exec,
                &collector.collected(),
                None,
                &par::WorkerScratch::new(exec.workers()),
            );
            prop_assert_eq!(ib.total_messages() as usize, sends.len());
            // Every vertex receives exactly the payloads sent to it, in
            // the order its sources sent them.
            for v in 0..200u64 {
                let want: Vec<u64> = sends.iter().filter(|&&(d, _)| d == v).map(|&(_, m)| m).collect();
                prop_assert_eq!(ib.messages(v), &want[..], "{:?} vertex {}", transport, v);
            }
        }
    }

    #[test]
    fn rmat_is_scale_bounded(scale in 4u32..9, seed in 0u64..8) {
        use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
        let p = RmatParams::graph500(scale);
        let el = rmat_edges(&p, seed);
        prop_assert!(el.is_consistent());
        prop_assert_eq!(el.num_vertices, 1u64 << scale);
        prop_assert_eq!(el.num_edges() as u64, (1u64 << scale) * 16);
    }

    #[test]
    fn atomic_min_is_linearizable_to_global_min(values in proptest::collection::vec(0u64..u64::MAX - 1, 1..500)) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cell = AtomicU64::new(u64::MAX);
        let vref = &values;
        par::parallel_for(0, vref.len(), |i| {
            par::atomic::fetch_min(&cell, vref[i]);
        });
        prop_assert_eq!(cell.load(Ordering::Relaxed), *values.iter().min().unwrap());
    }
}
