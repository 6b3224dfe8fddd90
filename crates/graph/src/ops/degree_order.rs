//! Degree-based vertex reordering.
//!
//! Triangle counting with the `v < u < w` total order does work
//! proportional to the *higher-ordered* adjacency lists of each edge.
//! Relabeling vertices by ascending degree makes hubs the
//! highest-ordered vertices, so the doubly-nested loop always iterates
//! from the low-degree endpoint — the standard preprocessing for
//! skew-resistant triangle counting (and a free choice in the paper's
//! model: the total order on vertices is arbitrary).

use crate::{Csr, VertexId};

/// A permutation (old id → new id) ordering vertices by ascending
/// degree; ties break on the original id for determinism.
pub fn degree_ascending_permutation(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices() as usize;
    let mut order: Vec<VertexId> = (0..n as u64).collect();
    order.sort_by_key(|&v| (g.degree(v), v));
    // order[rank] = old id  =>  perm[old id] = rank.
    let mut perm = vec![0 as VertexId; n];
    for (rank, &old) in order.iter().enumerate() {
        perm[old as usize] = rank as VertexId;
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_undirected;
    use crate::gen::structured::star;
    use crate::ops::relabel::relabel;

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

    #[test]
    fn relabeled_graph_is_degree_sorted() {
        let el = crate::gen::er::gnm(100, 600, 9);
        let g = build_undirected(&el);
        let h = relabel(&g, &degree_ascending_permutation(&g));
        for v in 1..h.num_vertices() {
            assert!(h.degree(v - 1) <= h.degree(v));
        }
    }
}
