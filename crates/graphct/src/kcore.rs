//! k-core decomposition (one of the GraphCT toolkit kernels the paper
//! lists in §II).
//!
//! Parallel peeling: repeatedly remove all vertices whose residual degree
//! is below `k`, for increasing `k`; a vertex's core number is the last
//! `k` at which it survived.

use std::sync::atomic::{AtomicU64, Ordering};

use xmt_graph::Csr;
use xmt_par::parallel_for;

/// Core number of every vertex.
pub fn kcore_decomposition(g: &Csr) -> Vec<u64> {
    assert!(!g.is_directed(), "k-core requires an undirected graph");
    let n = g.num_vertices() as usize;
    let deg: Vec<AtomicU64> = (0..n).map(|v| AtomicU64::new(g.degree(v as u64))).collect();
    let core: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let alive: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(1)).collect();
    let mut remaining = n as u64;

    let mut k = 0u64;
    while remaining > 0 {
        k += 1;
        // Peel everything of degree < k, cascading within this k.
        loop {
            let removed = AtomicU64::new(0);
            parallel_for(0, n, |v| {
                // Relaxed (whole peel sweep): degrees only decrease and
                // the swap elects exactly one remover per vertex; a stale
                // degree read just defers the peel to the next cascade
                // round, which repeats until a sweep removes nothing.
                if alive[v].load(Ordering::Relaxed) == 1
                    // Relaxed: monotone degree, re-checked next round.
                    && deg[v].load(Ordering::Relaxed) < k
                    // Relaxed: RMW atomicity alone elects the remover.
                    && alive[v].swap(0, Ordering::Relaxed) == 1
                {
                    // Relaxed: sole writer (elected above); read post-join.
                    core[v].store(k - 1, Ordering::Relaxed);
                    removed.fetch_add(1, Ordering::Relaxed); // Relaxed: counter, read post-join
                    for &u in g.neighbors(v as u64) {
                        // Relaxed: monotone decrement, atomicity suffices.
                        deg[u as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
            // Relaxed: the sweep joined; all updates happen-before this.
            let r = removed.load(Ordering::Relaxed);
            if r == 0 {
                break;
            }
            remaining -= r;
        }
    }

    core.into_iter().map(AtomicU64::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{bridged_cliques, clique, path, ring, star};

    #[test]
    fn clique_core_is_n_minus_one() {
        let g = build_undirected(&clique(6));
        let core = kcore_decomposition(&g);
        assert!(core.iter().all(|&c| c == 5));
    }

    #[test]
    fn path_core_is_one() {
        let g = build_undirected(&path(10));
        let core = kcore_decomposition(&g);
        assert!(core.iter().all(|&c| c == 1));
    }

    #[test]
    fn ring_core_is_two() {
        let g = build_undirected(&ring(10));
        let core = kcore_decomposition(&g);
        assert!(core.iter().all(|&c| c == 2));
    }

    #[test]
    fn star_core_is_one_everywhere() {
        // Peeling the leaves leaves the center with degree 0.
        let g = build_undirected(&star(10));
        let core = kcore_decomposition(&g);
        assert!(core.iter().all(|&c| c == 1), "{core:?}");
    }

    #[test]
    fn bridged_cliques_keep_their_core() {
        let g = build_undirected(&bridged_cliques(5));
        let core = kcore_decomposition(&g);
        // All clique members have core 4; the bridge does not raise it.
        assert!(core.iter().all(|&c| c == 4), "{core:?}");
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let mut el = xmt_graph::EdgeList::new(5);
        el.push(0, 1);
        let g = build_undirected(&el);
        let core = kcore_decomposition(&g);
        assert_eq!(core[0], 1);
        assert_eq!(core[1], 1);
        assert_eq!(core[2], 0);
    }

    #[test]
    fn core_number_is_at_most_degree() {
        let el = xmt_graph::gen::er::gnm(300, 1500, 2);
        let g = build_undirected(&el);
        let core = kcore_decomposition(&g);
        for v in 0..g.num_vertices() {
            assert!(core[v as usize] <= g.degree(v));
        }
    }
}
