//! Degree-ordered DAG orientation for triangle counting.
//!
//! Orient each undirected edge `{v, u}` from its lower-ranked endpoint
//! to its higher-ranked endpoint under the total order
//! `rank(v) = (degree(v), v)` — the same order
//! [`degree_ascending_permutation`](crate::ops::degree_order) sorts by,
//! applied *in place* instead of through a relabeling pass.  The result
//! is a directed acyclic graph in which:
//!
//! * every triangle `{v, u, w}` appears exactly once, as the wedge
//!   `v → u`, `v → w`, `u → w` rooted at its lowest-ranked corner, so a
//!   single sweep over DAG edges intersecting out-neighborhoods counts
//!   each triangle once with no ordering floor inside the intersection;
//! * every out-degree is bounded by `O(√m)` (a vertex of out-degree `d⁺`
//!   has `d⁺` neighbors of degree ≥ its own, each contributing ≥ `d⁺`
//!   edge endpoints), which collapses the hub candidate blowup that a
//!   raw-id orientation suffers on RMAT graphs — the GBBS formulation
//!   (Dhulipala/Blelloch/Shun) and Chin et al.'s degree-aware ordering.
//!
//! The orientation preserves vertex ids (no relabeling), so per-vertex
//! results indexed by the view line up with the original graph.

use xmt_par::pfor::parallel_fill;
use xmt_par::{exclusive_prefix_sum, parallel_for};

use crate::{Csr, VertexId};

/// `true` iff `a` precedes `b` in the degree-order rank `(degree, id)` —
/// the orientation predicate of [`dag_view`].
#[inline]
pub fn degree_order_before(g: &Csr, a: VertexId, b: VertexId) -> bool {
    (g.degree(a), a) < (g.degree(b), b)
}

/// The degree-ordered DAG view of an undirected graph: a directed,
/// sorted CSR whose arcs are exactly the edges of `g` oriented
/// lower-rank → higher-rank under `(degree, id)`.
///
/// Invariants of the result (relied on by the triangle kernels):
/// * `num_arcs() == g.num_edges()` minus any self loops (a vertex never
///   precedes itself, so self loops drop out);
/// * adjacency stays id-sorted (filtering a sorted list preserves order);
/// * acyclic: arcs only increase the `(degree, id)` rank.
pub fn dag_view(g: &Csr) -> Csr {
    assert!(!g.is_directed(), "dag_view needs an undirected graph");
    assert!(g.is_sorted(), "dag_view needs sorted adjacency");
    let n = g.num_vertices() as usize;
    // The CSR builder's shape: out-degrees, a prefix sum into offsets,
    // then every vertex copies its out-arcs into its own slice.
    let mut offsets = vec![0u64; n + 1];
    parallel_fill(&mut offsets[..n], |v| {
        let v = v as VertexId;
        let keep = |&u: &VertexId| degree_order_before(g, v, u) as u64;
        g.neighbors(v).iter().map(keep).sum()
    });
    let total = exclusive_prefix_sum(&mut offsets);
    let mut adj: Vec<VertexId> = vec![0; total as usize];
    let base = adj.as_mut_ptr() as usize;
    let offsets_ref = &offsets;
    parallel_for(0, n, |v| {
        let (mut pos, end) = (offsets_ref[v] as usize, offsets_ref[v + 1] as usize);
        // Branch-free compaction: every neighbour is written at `pos`,
        // which moves on only past a kept one, so a dropped neighbour is
        // overwritten by the next kept one.  The predicate is close to a
        // coin flip; a branch on it would mispredict half the time.
        for &u in g.neighbors(v as VertexId) {
            if pos == end {
                break;
            }
            // SAFETY: `pos < end`, so vertex `v` writes only its own
            // slice `offsets[v]..offsets[v + 1]`; the slices are disjoint.
            unsafe { *(base as *mut VertexId).add(pos) = u };
            pos += degree_order_before(g, v as VertexId, u) as usize;
        }
    });
    Csr::from_parts(n as u64, offsets, adj, None, true, true)
}

/// How a triangle kernel intersects two adjacency lists.
///
/// The paper's §VI leaves the mechanism open ("the exact mechanisms of
/// performing the neighbor intersection can be varied"); Chin et al.
/// (*Scalable Triadic Analysis*) show the trade-offs.  The wire form is
/// the variant name (`"Merge"`, …); [`IntersectStrategy::parse`] also
/// accepts the lowercase CLI spellings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum IntersectStrategy {
    /// Sorted merge walk — the paper's shape: `O(d(v) + d(u))` per pair.
    Merge,
    /// Epoch-stamped mark array (the `tc.c` exemplar): mark one list
    /// once per vertex, probe the other in `O(1)` per element.
    #[default]
    Hash,
}

impl IntersectStrategy {
    /// Every strategy, in ablation order.
    pub const ALL: [IntersectStrategy; 2] = [IntersectStrategy::Merge, IntersectStrategy::Hash];

    /// Canonical lowercase name (CLI / results files).
    pub fn name(self) -> &'static str {
        match self {
            IntersectStrategy::Merge => "merge",
            IntersectStrategy::Hash => "hash",
        }
    }

    /// Parse a strategy name; accepts both the lowercase CLI spelling
    /// and the wire (variant) spelling.
    pub fn parse(s: &str) -> Option<IntersectStrategy> {
        match s {
            "merge" | "Merge" => Some(IntersectStrategy::Merge),
            "hash" | "Hash" => Some(IntersectStrategy::Hash),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_undirected;
    use crate::gen::structured::{clique, star};

    #[test]
    fn dag_arcs_are_edges_oriented_once() {
        for seed in 0..3u64 {
            let el = crate::gen::er::gnm(150, 1100, seed);
            let g = build_undirected(&el);
            let d = dag_view(&g);
            assert!(d.is_directed() && d.is_sorted());
            assert_eq!(d.num_arcs(), g.num_edges(), "seed {seed}");
            // Every arc respects the rank order and mirrors an edge of g.
            for v in 0..d.num_vertices() {
                for &u in d.neighbors(v) {
                    assert!(degree_order_before(&g, v, u));
                    assert!(g.has_arc(v, u));
                }
            }
        }
    }

    /// Reference: the orientation filter run serially, vertex by vertex.
    fn serial_dag(g: &Csr) -> (Vec<u64>, Vec<VertexId>) {
        let mut offsets = vec![0u64];
        let mut adj = Vec::new();
        for v in 0..g.num_vertices() {
            adj.extend(
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| degree_order_before(g, v, u)),
            );
            offsets.push(adj.len() as u64);
        }
        (offsets, adj)
    }

    #[test]
    fn parallel_view_matches_the_serial_filter() {
        let p = crate::gen::rmat::RmatParams::graph500(12);
        let mut graphs = vec![build_undirected(&crate::gen::rmat::rmat_edges(&p, 1))];
        graphs
            .extend((0..3).map(|seed| build_undirected(&crate::gen::er::gnm(2_000, 9_000, seed))));
        graphs.push(build_undirected(&crate::EdgeList::new(5)));
        for g in &graphs {
            let d = dag_view(g);
            let (offsets, adj) = serial_dag(g);
            assert_eq!(d.offsets(), &offsets[..]);
            assert_eq!(d.adjacency(), &adj[..]);
        }
    }

    #[test]
    fn star_hub_has_no_out_arcs() {
        let g = build_undirected(&star(50));
        let d = dag_view(&g);
        assert_eq!(d.degree(0), 0, "the hub is highest-ranked");
        for leaf in 1..50 {
            assert_eq!(d.neighbors(leaf), &[0]);
        }
    }

    #[test]
    fn clique_out_degrees_follow_id_tiebreak() {
        // Equal degrees everywhere: orientation falls back to id order.
        let g = build_undirected(&clique(6));
        let d = dag_view(&g);
        for v in 0..6u64 {
            assert_eq!(d.degree(v), 5 - v);
        }
    }

    #[test]
    fn out_degree_never_exceeds_undirected_degree_sqrt_bound() {
        let p = crate::gen::rmat::RmatParams::graph500(10);
        let g = build_undirected(&crate::gen::rmat::rmat_edges(&p, 7));
        let d = dag_view(&g);
        let bound = 2.0 * (g.num_edges() as f64).sqrt();
        let max_out = (0..d.num_vertices()).map(|v| d.degree(v)).max().unwrap();
        assert!(
            (max_out as f64) <= bound,
            "max out-degree {max_out} exceeds 2√m = {bound}"
        );
        // And the hub's out-degree is far below its undirected degree.
        let hub = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
        assert!(d.degree(hub) * 4 < g.degree(hub));
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in IntersectStrategy::ALL {
            assert_eq!(IntersectStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(
            IntersectStrategy::parse("Hash"),
            Some(IntersectStrategy::Hash)
        );
        // `auto` was a strategy until it was retired.
        for retired in ["quadratic", "auto", "Auto"] {
            assert_eq!(IntersectStrategy::parse(retired), None);
        }
        assert_eq!(IntersectStrategy::default(), IntersectStrategy::Hash);
    }

    #[test]
    fn strategy_serializes_as_variant_name() {
        let json = serde_json::to_string(&IntersectStrategy::Hash).unwrap();
        assert_eq!(json, "\"Hash\"");
        let back: IntersectStrategy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, IntersectStrategy::Hash);
    }
}
