//! Property tests for the STINGER-lite streaming structures: after any
//! sequence of insertions and deletions, the incremental state must
//! equal a from-scratch computation by the static toolkit.

use proptest::prelude::*;

use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::EdgeList;
use xmt_bsp_repro::graphct;
use xmt_bsp_repro::stinger::{DynGraph, EdgeOp, StreamingAnalytics};

/// An operation stream: insert (true) or delete (false) the i-th
/// candidate edge of a fixed pseudo-random pool.
fn arb_ops(n: u64, len: usize) -> impl Strategy<Value = Vec<(bool, u64, u64)>> {
    proptest::collection::vec((any::<bool>(), 0..n, 0..n), 1..len)
}

/// Replay `ops` one single-op batch at a time.
fn apply_each(s: &mut StreamingAnalytics, ops: Vec<(bool, u64, u64)>) {
    for (insert, u, v) in ops {
        let op = if insert {
            EdgeOp::Insert(u, v)
        } else {
            EdgeOp::Delete(u, v)
        };
        s.apply_batch(&[op]).expect("in-range op");
    }
}

/// A stream of batches, each a mix of inserts and deletes.
fn arb_batches(n: u64, batches: usize, ops: usize) -> impl Strategy<Value = Vec<Vec<EdgeOp>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (any::<bool>(), 0..n, 0..n).prop_map(|(ins, u, v)| {
                if ins {
                    EdgeOp::Insert(u, v)
                } else {
                    EdgeOp::Delete(u, v)
                }
            }),
            1..ops,
        ),
        1..batches,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_triangles_match_static_after_any_churn(ops in arb_ops(24, 300)) {
        let mut s = StreamingAnalytics::new(24);
        apply_each(&mut s, ops);
        prop_assert!(s.graph().check_consistency());
        let csr = s.graph().to_csr();
        prop_assert_eq!(s.triangles(), graphct::count_triangles(&csr));
        let (cc, _) = graphct::clustering_coefficients(&csr);
        for v in 0..24u64 {
            prop_assert!((s.coefficient(v) - cc[v as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_components_match_static_after_any_churn(ops in arb_ops(24, 300)) {
        let mut s = StreamingAnalytics::new(24);
        apply_each(&mut s, ops);
        let csr = s.graph().to_csr();
        let expected = xmt_bsp_repro::graph::validate::reference_components(&csr);
        prop_assert_eq!(s.labels(), expected);
    }

    #[test]
    fn dyngraph_batch_equals_serial(edges in proptest::collection::vec((0u64..32, 0u64..32), 0..200)) {
        let mut serial = DynGraph::new(32);
        for &(u, v) in &edges {
            serial.insert_edge(u, v);
        }
        let mut batched = DynGraph::new(32);
        batched.insert_batch(&edges);
        prop_assert_eq!(&batched, &serial);
        prop_assert!(batched.check_consistency());
    }

    /// The streaming subsystem's equivalence gate: after EVERY applied
    /// batch, the incrementally maintained CC labels and triangle count
    /// must equal a full recompute on the materialized CSR — and the
    /// dry-run `plan_batch` must predict exactly what `apply_batch`
    /// does, since the service admits batches against its budget on the
    /// strength of that prediction.  A second maintainer fed the same
    /// ops as single-op batches must land on the same state when the
    /// batch names no pair twice (within a batch the first op on a pair
    /// wins, so a repeated pair is the one case where the two differ).
    #[test]
    fn analytics_batches_match_full_recompute_after_every_batch(
        batches in arb_batches(20, 24, 40),
    ) {
        let mut s = StreamingAnalytics::new(20);
        let mut one_by_one = StreamingAnalytics::new(20);
        for batch in &batches {
            let planned = s.plan_batch(batch).expect("in-range ops");
            let applied = s.apply_batch(batch).expect("in-range ops");
            prop_assert_eq!(planned, applied, "plan/apply divergence");
            prop_assert!(s.graph().check_consistency());

            let csr = s.graph().to_csr();
            prop_assert_eq!(
                s.labels(),
                xmt_bsp_repro::graph::validate::reference_components(&csr)
            );
            prop_assert_eq!(s.triangles(), graphct::count_triangles(&csr));

            // Op-by-op: dedupe the batch by unordered pair first, as the
            // batch walk does, then feed each survivor on its own.
            let mut seen = std::collections::HashSet::new();
            for &op in batch {
                let (EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v)) = op;
                if seen.insert((u.min(v), u.max(v))) {
                    one_by_one.apply_batch(&[op]).expect("in-range op");
                }
            }
            prop_assert_eq!(one_by_one.labels(), s.labels());
            prop_assert_eq!(one_by_one.triangles(), s.triangles());
        }
    }

    #[test]
    fn dyngraph_csr_roundtrip(edges in proptest::collection::vec((0u64..32, 0u64..32), 0..150)) {
        let mut g = DynGraph::new(32);
        for &(u, v) in &edges {
            g.insert_edge(u, v);
        }
        let csr = g.to_csr();
        // The two `Csr` constructors agree on the same edge list.
        let built = build_undirected(&EdgeList { num_vertices: 32, edges });
        prop_assert_eq!(&csr, &built);
        let back = DynGraph::from_csr(&csr);
        prop_assert_eq!(back, g);
    }
}
