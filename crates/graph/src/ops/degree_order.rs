//! Degree-based vertex reordering.
//!
//! Triangle counting with the `v < u < w` total order does work
//! proportional to the *higher-ordered* adjacency lists of each edge.
//! Relabeling vertices by ascending degree makes hubs the
//! highest-ordered vertices, so the doubly-nested loop always iterates
//! from the low-degree endpoint — the standard preprocessing for
//! skew-resistant triangle counting (and a free choice in the paper's
//! model: the total order on vertices is arbitrary).

use xmt_par::exclusive_prefix_sum_seq;

use crate::{Csr, VertexId};

/// A permutation (old id → new id) ordering vertices by ascending
/// degree; ties break on the original id.  A stable counting sort by
/// degree, `O(n + max degree)`: the rank every degree-ordered triangle
/// kernel shares (GraphCT's [`RankDag`](crate::ops::dag::RankDag) and
/// the BSP ranked-candidate test).
pub fn degree_ascending_permutation(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    // `first[d]`: the next rank free for a vertex of degree `d`.
    let mut first = vec![0u64; g.max_degree() as usize + 1];
    for v in 0..n {
        first[g.degree(v) as usize] += 1;
    }
    exclusive_prefix_sum_seq(&mut first);
    (0..n)
        .map(|v| {
            let slot = &mut first[g.degree(v) as usize];
            *slot += 1;
            *slot - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_undirected;
    use crate::gen::structured::star;
    use crate::EdgeList;

    #[test]
    fn ascending_puts_the_hub_last() {
        let g = build_undirected(&star(10));
        let perm = degree_ascending_permutation(&g);
        assert_eq!(perm[0], 9, "the hub gets the highest id");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let el = crate::gen::er::gnm(200, 900, 4);
        let g = build_undirected(&el);
        let mut seen = [false; 200];
        for &p in &degree_ascending_permutation(&g) {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    /// `el` with each endpoint renamed through `perm` (old id → new id).
    fn relabel(el: &EdgeList, perm: &[VertexId]) -> Csr {
        let renamed = el
            .edges
            .iter()
            .map(|&(u, v)| (perm[u as usize], perm[v as usize]));
        build_undirected(&EdgeList {
            num_vertices: el.num_vertices,
            edges: renamed.collect(),
        })
    }

    #[test]
    fn relabeled_graph_is_degree_sorted() {
        let el = crate::gen::er::gnm(100, 600, 9);
        let g = build_undirected(&el);
        let h = relabel(&el, &degree_ascending_permutation(&g));
        for v in 1..h.num_vertices() {
            assert!(h.degree(v - 1) <= h.degree(v));
        }
    }

    /// The comparison sort the counting sort replaced.
    fn sorted_by_key(g: &Csr) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..g.num_vertices()).collect();
        order.sort_by_key(|&v| (g.degree(v), v));
        let mut perm = vec![0; order.len()];
        for (rank, &old) in order.iter().enumerate() {
            perm[old as usize] = rank as VertexId;
        }
        perm
    }

    #[test]
    fn counting_sort_equals_the_comparison_sort() {
        let p = crate::gen::rmat::RmatParams::graph500(10);
        let rmat = build_undirected(&crate::gen::rmat::rmat_edges(&p, 3));
        // Many equal-degree ties: a grid, a ring beside it, and isolated
        // vertices past both.
        let mut ties = crate::gen::structured::grid(20, 30);
        ties.edges.extend(
            crate::gen::structured::ring(50)
                .edges
                .iter()
                .map(|&(a, b)| (a + 600, b + 600)),
        );
        ties.num_vertices = 700;
        for g in [rmat, build_undirected(&ties)] {
            assert_eq!(degree_ascending_permutation(&g), sorted_by_key(&g));
        }
    }
}
