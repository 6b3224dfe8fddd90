//! Parallel CSR construction.
//!
//! Mirrors GraphCT's ingest path on the XMT: a fetch-and-add degree count,
//! a prefix sum for the offsets, and a fetch-and-add scatter — all
//! parallel.  Optional post-passes sort each adjacency list, remove self
//! loops, and coalesce duplicate edges (RMAT emits both).  Coalescing
//! compacts the arc array in place, so a build holds the edge list and
//! one arc array at its peak; most of its time is the two atomic passes
//! (degree count and scatter), not the sort or the dedup.

use std::sync::atomic::Ordering;

use xmt_par::atomic::{as_atomic_u64, fetch_add};
use xmt_par::{exclusive_prefix_sum, parallel_for};

use crate::{Csr, EdgeList, VertexId};

/// Options controlling CSR construction.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Store both directions of every edge (undirected graph).
    pub symmetrize: bool,
    /// Drop `v → v` loops.
    pub remove_self_loops: bool,
    /// Coalesce duplicate arcs (implies sorting).
    pub dedup: bool,
    /// Sort each adjacency list ascending.
    pub sort: bool,
}

impl BuildOptions {
    /// The configuration used for the paper's workloads: undirected,
    /// simple (no loops or duplicates), sorted adjacency.
    pub fn undirected_simple() -> Self {
        BuildOptions {
            symmetrize: true,
            remove_self_loops: true,
            dedup: true,
            sort: true,
        }
    }

    /// A directed multigraph, adjacency in arrival order.
    pub fn directed_raw() -> Self {
        BuildOptions {
            symmetrize: false,
            remove_self_loops: false,
            dedup: false,
            sort: false,
        }
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self::undirected_simple()
    }
}

/// Builds [`Csr`] graphs from [`EdgeList`]s.
pub struct CsrBuilder {
    opts: BuildOptions,
}

impl CsrBuilder {
    /// A builder with the given options.
    pub fn new(opts: BuildOptions) -> Self {
        CsrBuilder { opts }
    }

    /// Build a CSR from `edges` (which must be consistent).
    pub fn build(&self, edges: &EdgeList) -> Csr {
        assert!(edges.is_consistent(), "inconsistent edge list");
        let opts = self.opts;
        // A documented precondition on BuildOptions: there is no
        // meaningful weight to keep when coalescing duplicates.
        assert!(
            !(opts.dedup && edges.weights.is_some()),
            "dedup is not supported for weighted graphs"
        );
        let n = edges.num_vertices as usize;
        let keep = |u: VertexId, v: VertexId| !(opts.remove_self_loops && u == v);

        // Pass 1: degrees via fetch-and-add.
        let mut counts = vec![0u64; n + 1];
        {
            let ecounts = as_atomic_u64(&mut counts);
            let list = &edges.edges;
            parallel_for(0, list.len(), |i| {
                let (u, v) = list[i];
                if keep(u, v) {
                    fetch_add(&ecounts[u as usize], 1);
                    if opts.symmetrize {
                        fetch_add(&ecounts[v as usize], 1);
                    }
                }
            });
        }

        // Pass 2: offsets.
        let total = exclusive_prefix_sum(&mut counts);
        let offsets = counts;

        // Pass 3: scatter with per-vertex cursors.
        let mut adj = vec![0 as VertexId; total as usize];
        let mut weights = edges.weights.as_ref().map(|_| vec![0; total as usize]);
        {
            let mut cursors = offsets.clone();
            let acursors = as_atomic_u64(&mut cursors);
            let adj_base = adj.as_mut_ptr() as usize;
            let w_base = weights.as_mut().map(|w| w.as_mut_ptr() as usize);
            let list = &edges.edges;
            let wlist = edges.weights.as_deref();
            parallel_for(0, list.len(), |i| {
                let (u, v) = list[i];
                if !keep(u, v) {
                    return;
                }
                let w = wlist.map(|ws| ws[i]);
                // SAFETY: each slot index is claimed exactly once by the
                // fetch-and-add cursor, so writes are disjoint.
                unsafe {
                    // Relaxed: the cursor RMW only reserves a unique slot;
                    // the scattered arrays are published by the pool join.
                    let slot = acursors[u as usize].fetch_add(1, Ordering::Relaxed) as usize;
                    *(adj_base as *mut VertexId).add(slot) = v;
                    if let (Some(base), Some(w)) = (w_base, w) {
                        *(base as *mut i64).add(slot) = w;
                    }
                    if opts.symmetrize {
                        // Relaxed: same slot-reservation argument.
                        let slot = acursors[v as usize].fetch_add(1, Ordering::Relaxed) as usize;
                        *(adj_base as *mut VertexId).add(slot) = u;
                        if let (Some(base), Some(w)) = (w_base, w) {
                            *(base as *mut i64).add(slot) = w;
                        }
                    }
                }
            });
        }

        let sort = opts.sort || opts.dedup;
        if sort {
            sort_adjacency(n, &offsets, &mut adj, weights.as_deref_mut());
        }
        let (offsets, adj) = if opts.dedup {
            dedup_sorted(n, offsets, adj)
        } else {
            (offsets, adj)
        };

        Csr::from_parts(n as u64, offsets, adj, weights, !opts.symmetrize, sort)
    }
}

/// Sort each vertex's adjacency slice (weights, if present, follow).
fn sort_adjacency(n: usize, offsets: &[u64], adj: &mut [VertexId], weights: Option<&mut [i64]>) {
    let adj_base = adj.as_mut_ptr() as usize;
    let w_base = weights.map(|w| w.as_mut_ptr() as usize);
    parallel_for(0, n, |v| {
        let lo = offsets[v] as usize;
        let hi = offsets[v + 1] as usize;
        // SAFETY: per-vertex slices are disjoint.
        unsafe {
            let slice =
                std::slice::from_raw_parts_mut((adj_base as *mut VertexId).add(lo), hi - lo);
            match w_base {
                None => slice.sort_unstable(),
                Some(base) => {
                    let ws = std::slice::from_raw_parts_mut((base as *mut i64).add(lo), hi - lo);
                    // Co-sort adjacency and weights by neighbor id.
                    let mut perm: Vec<usize> = (0..slice.len()).collect();
                    perm.sort_unstable_by_key(|&i| slice[i]);
                    let sorted_adj: Vec<VertexId> = perm.iter().map(|&i| slice[i]).collect();
                    let sorted_w: Vec<i64> = perm.iter().map(|&i| ws[i]).collect();
                    slice.copy_from_slice(&sorted_adj);
                    ws.copy_from_slice(&sorted_w);
                }
            }
        }
    });
}

/// Compact away duplicate neighbors in place (input adjacency must be
/// sorted).  Each vertex first moves its distinct neighbors to the front
/// of its own slice, in parallel; a prefix sum of the distinct counts
/// gives the new offsets; one left-to-right pass then closes the gaps.
/// That pass is sequential because a destination can overlap an earlier
/// vertex's source, but it moves each kept arc once, and no second
/// adjacency array is ever allocated.
fn dedup_sorted(n: usize, offsets: Vec<u64>, mut adj: Vec<VertexId>) -> (Vec<u64>, Vec<VertexId>) {
    let mut uniq = vec![0u64; n + 1];
    {
        let adj_base = adj.as_mut_ptr() as usize;
        let uniq_base = uniq.as_mut_ptr() as usize;
        let offsets = &offsets;
        parallel_for(0, n, |v| {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            // SAFETY: per-vertex slices of `adj` are disjoint, and index
            // `v` of `uniq` has one writer.
            unsafe {
                let run =
                    std::slice::from_raw_parts_mut((adj_base as *mut VertexId).add(lo), hi - lo);
                *(uniq_base as *mut u64).add(v) = compact_run(run) as u64;
            }
        });
    }
    let total = exclusive_prefix_sum(&mut uniq);
    for v in 0..n {
        let len = (uniq[v + 1] - uniq[v]) as usize;
        let src = offsets[v] as usize;
        // The destination never lies right of the source.
        adj.copy_within(src..src + len, uniq[v] as usize);
    }
    adj.truncate(total as usize);
    adj.shrink_to_fit();
    (uniq, adj)
}

/// Move the distinct values of a sorted run to its front; their count.
fn compact_run(run: &mut [VertexId]) -> usize {
    let mut kept = 0;
    for i in 0..run.len() {
        if kept == 0 || run[i] != run[kept - 1] {
            run[kept] = run[i];
            kept += 1;
        }
    }
    kept
}

/// Convenience: build an undirected simple graph (the paper's default).
pub fn build_undirected(edges: &EdgeList) -> Csr {
    CsrBuilder::new(BuildOptions::undirected_simple()).build(edges)
}

/// Convenience: build a directed graph preserving multiplicity.
pub fn build_directed(edges: &EdgeList) -> Csr {
    CsrBuilder::new(BuildOptions::directed_raw()).build(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::{gnm, gnm_weighted};
    use crate::gen::rmat::{rmat_edges, RmatParams};

    /// Serial reference: append each kept arc to its source's list, then
    /// sort each list by (neighbor, weight) and drop repeats if `dedup`.
    fn reference(el: &EdgeList, opts: BuildOptions) -> Vec<Vec<(VertexId, i64)>> {
        let mut lists = vec![Vec::new(); el.num_vertices as usize];
        for (i, &(u, v)) in el.edges.iter().enumerate() {
            if opts.remove_self_loops && u == v {
                continue;
            }
            let w = el.weights.as_ref().map_or(0, |ws| ws[i]);
            lists[u as usize].push((v, w));
            if opts.symmetrize {
                lists[v as usize].push((u, w));
            }
        }
        for list in &mut lists {
            list.sort_unstable();
            if opts.dedup {
                list.dedup();
            }
        }
        lists
    }

    /// `g` as per-vertex (neighbor, weight) lists, each sorted, after
    /// checking that the neighbor ids themselves come out sorted.
    fn lists_of(g: &Csr) -> Vec<Vec<(VertexId, i64)>> {
        (0..g.num_vertices())
            .map(|v| {
                let nbrs = g.neighbors(v);
                assert!(nbrs.is_sorted(), "vertex {v} unsorted");
                let mut list: Vec<_> = match g.is_weighted() {
                    true => nbrs
                        .iter()
                        .copied()
                        .zip(g.weights_of(v).iter().copied())
                        .collect(),
                    false => nbrs.iter().map(|&x| (x, 0)).collect(),
                };
                list.sort_unstable();
                list
            })
            .collect()
    }

    #[test]
    fn csr_bytes_are_pinned() {
        // Measured on the builder that deduplicated into a second array.
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(10), 1));
        assert_eq!(g.num_arcs(), 21_216);
        let hash = crate::fnv1a(g.offsets().iter().chain(g.adjacency()).copied());
        assert_eq!(hash, 0x5389_23cb_5ffe_79d1);
    }

    #[test]
    fn builder_equals_the_serial_reference() {
        // Duplicates and self loops: 3 000 edges on 200 vertices.
        let multi = gnm(200, 3_000, 5);
        assert!(multi.edges.iter().any(|&(u, v)| u == v));
        let simple = BuildOptions::undirected_simple();
        let g = CsrBuilder::new(simple).build(&multi);
        assert_eq!(lists_of(&g), reference(&multi, simple));
        // The compacted array ends where the offsets do.
        assert_eq!(Some(&(g.adjacency().len() as u64)), g.offsets().last());

        let empty = EdgeList::new(7);
        let g = build_undirected(&empty);
        assert_eq!(lists_of(&g), reference(&empty, simple));
        assert_eq!(g.offsets(), &[0; 8]);

        let weighted = gnm_weighted(100, 1_000, 50, 3);
        let sym = BuildOptions {
            dedup: false,
            ..simple
        };
        let g = CsrBuilder::new(sym).build(&weighted);
        assert_eq!(lists_of(&g), reference(&weighted, sym));
    }

    #[test]
    fn undirected_simple_graph() {
        let el = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let g = build_undirected(&el);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert!(g.is_sorted());
        assert!(!g.is_directed());
    }

    #[test]
    fn self_loops_and_duplicates_are_removed() {
        let el = EdgeList::from_pairs([(0, 1), (1, 0), (0, 0), (0, 1), (1, 1)]);
        let g = build_undirected(&el);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn directed_raw_preserves_multiplicity_and_loops() {
        let el = EdgeList::from_pairs([(0, 1), (0, 1), (1, 1)]);
        let g = build_directed(&el);
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn weighted_directed_graph_cosorts_weights() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 2, 20);
        el.push_weighted(0, 1, 10);
        let g = CsrBuilder::new(BuildOptions {
            symmetrize: false,
            remove_self_loops: false,
            dedup: false,
            sort: true,
        })
        .build(&el);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights_of(0), &[10, 20]);
    }

    #[test]
    fn weighted_symmetrize_mirrors_weights() {
        let mut el = EdgeList::new(2);
        el.push_weighted(0, 1, 7);
        let g = CsrBuilder::new(BuildOptions {
            symmetrize: true,
            remove_self_loops: true,
            dedup: false,
            sort: true,
        })
        .build(&el);
        assert_eq!(g.weights_of(0), &[7]);
        assert_eq!(g.weights_of(1), &[7]);
    }

    #[test]
    #[should_panic(expected = "dedup is not supported")]
    fn weighted_dedup_panics() {
        let mut el = EdgeList::new(2);
        el.push_weighted(0, 1, 7);
        build_undirected(&el);
    }

    #[test]
    fn larger_random_graph_degree_sum_matches() {
        // Deterministic pseudo-random pairs.
        let n = 500u64;
        let pairs: Vec<_> = (0..5000u64)
            .map(|i| ((i * 48271) % n, (i * 69621 + 3) % n))
            .collect();
        let el = EdgeList {
            num_vertices: n,
            edges: pairs.clone(),
            weights: None,
        };
        let g = build_directed(&el);
        assert_eq!(g.num_arcs() as usize, pairs.len());
        // Each vertex's neighbors in arrival order must be some permutation
        // of the scattered edges; degree sums must match the input count.
        let degsum: u64 = (0..n).map(|v| g.degree(v)).sum();
        assert_eq!(degsum as usize, pairs.len());
    }

    #[test]
    fn empty_edge_list_builds_isolated_vertices() {
        let el = EdgeList::new(5);
        let g = build_undirected(&el);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.degree(4), 0);
    }
}
