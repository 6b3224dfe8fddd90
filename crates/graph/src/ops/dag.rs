//! Degree-ordered DAG orientation for triangle counting, in rank space.
//!
//! Orient each undirected edge `{v, u}` from its lower-ranked endpoint
//! to its higher-ranked endpoint under the total order `(degree, id)` —
//! the order [`degree_ascending_permutation`] ranks by.  The result is a
//! directed acyclic graph in which
//!
//! * every triangle appears exactly once, as ranks `v < u < w` with arcs
//!   `v → u`, `v → w`, `u → w`;
//! * every out-degree is bounded by `O(√m)` (a vertex of out-degree `d⁺`
//!   has `d⁺` neighbours of degree at least its own), which collapses
//!   the hub blowup of a raw-id orientation on RMAT graphs — the GBBS
//!   formulation (Dhulipala/Blelloch/Shun) and Chin et al.'s
//!   degree-aware ordering.
//!
//! [`RankDag`] stores the DAG with every vertex *renamed to its rank*,
//! in `u32`s: out-lists of ranks sorted ascending, and for each vertex
//! `u` its in-arcs `(v, s)`, where `s` is the position just past `u`
//! inside `N⁺(v)`.  `N⁺(v)[s..]` is then exactly the part of `v`'s list
//! ranked above `u`, so a sweep grouping wedges by their middle vertex
//! `u` probes each wedge `v → u, v → w` once: `Σ C(d⁺(v), 2)` probes in
//! all, where rooting wedges at `v` and probing every `N⁺(u)` costs
//! `Σ_{v→u} d⁺(u)`.  `s` is relative to `v`'s list, so the view needs
//! only `n ≤ 2^32`, not an arc count below `2^32`.
//!
//! The build is a counted scatter with no sort and no atomics (see
//! [`RankDag::new`]); the view does not depend on the pool's size.

use xmt_par::{exclusive_prefix_sum, num_threads, parallel_for_chunked};

use crate::ops::degree_order::degree_ascending_permutation;
use crate::{Csr, VertexId};

/// The degree-ordered DAG of an undirected graph in rank space (see the
/// module docs).  Ranks are `u32`; [`order`](Self::order) maps a rank
/// back to its vertex id.
#[derive(Debug, PartialEq, Eq)]
pub struct RankDag {
    order: Vec<VertexId>,
    out_offsets: Vec<u64>,
    out: Vec<u32>,
    in_offsets: Vec<u64>,
    ins: Vec<(u32, u32)>,
}

impl RankDag {
    /// Orient `g` (undirected, at most `2^32` vertices) on the global
    /// pool.  Self loops drop out: a vertex never precedes itself.
    ///
    /// Ranks are cut into one part per worker by degree sum.  Each part
    /// counts its in-arcs per tail rank in a histogram row of its own; a
    /// column prefix turns the rows into per-part cursors inside every
    /// out-list; then each part walks its ranks upwards, appending each
    /// rank to the out-lists of its lower neighbours (which so come out
    /// sorted) and writing its own in-arcs.
    pub fn new(g: &Csr) -> RankDag {
        RankDag::build(g, num_threads())
    }

    fn build(g: &Csr, workers: usize) -> RankDag {
        assert!(!g.is_directed(), "the rank DAG needs an undirected graph");
        let n = g.num_vertices() as usize;
        assert!(n as u64 <= 1 << 32, "ranks are u32: at most 2^32 vertices");
        let rank: Vec<u32> = degree_ascending_permutation(g)
            .into_iter()
            .map(|r| r as u32)
            .collect();
        let mut order = vec![0; n];
        for (v, &r) in rank.iter().enumerate() {
            order[r as usize] = v as VertexId;
        }
        let bounds = part_bounds(g, &order, workers);
        let parts = bounds.len() - 1;
        let (order_of, rank, bounds) = (&order[..], &rank[..], &bounds[..]);
        // The in-arcs of rank `w`: its neighbours ranked below it.
        let lower = move |w: usize| {
            let below = move |&y: &VertexId| Some(rank[y as usize]).filter(|&r| r < w as u32);
            g.neighbors(order_of[w]).iter().filter_map(below)
        };

        // Pass 1: each part's row counts its in-arcs by tail rank, and
        // every rank's in-degree lands at its own slot.
        let mut rows = vec![0u32; parts * n];
        let mut in_offsets = vec![0u64; n + 1];
        let (rows_at, in_at) = (rows.as_mut_ptr() as usize, in_offsets.as_mut_ptr() as usize);
        parallel_for_chunked(0, parts, 1, |_, range| {
            for part in range {
                // SAFETY: part `part` alone touches row `part` of `rows`
                // and the slots of its own ranks `bounds[part]..
                // bounds[part + 1]` in `in_offsets`; both are disjoint
                // across parts and outlive the loop.
                let row = unsafe {
                    std::slice::from_raw_parts_mut((rows_at as *mut u32).add(part * n), n)
                };
                for w in bounds[part]..bounds[part + 1] {
                    let mut d = 0u64;
                    for r in lower(w) {
                        row[r as usize] += 1;
                        d += 1;
                    }
                    // SAFETY: as above; `w < n`.
                    unsafe { *(in_at as *mut u64).add(w) = d };
                }
            }
        });
        // Column prefix: row `p` of rank `r` becomes the offset inside
        // `N⁺(r)` where part `p`'s arcs into it start.
        let mut out_offsets = vec![0u64; n + 1];
        for (r, slot) in out_offsets[..n].iter_mut().enumerate() {
            let mut at = 0u32;
            for part in 0..parts {
                let count = std::mem::replace(&mut rows[part * n + r], at);
                at += count;
            }
            *slot = u64::from(at);
        }
        let arcs = exclusive_prefix_sum(&mut out_offsets) as usize;
        exclusive_prefix_sum(&mut in_offsets);

        // Pass 2: the scatter.  Each part walks its ranks upwards, so
        // the ranks it appends to any one out-list arrive ascending.
        let mut out = vec![0u32; arcs];
        let mut ins = vec![(0u32, 0u32); arcs];
        let (out_at, ins_at) = (out.as_mut_ptr() as usize, ins.as_mut_ptr() as usize);
        let rows_at = rows.as_mut_ptr() as usize;
        parallel_for_chunked(0, parts, 1, |_, range| {
            for part in range {
                // SAFETY: row `part` is this part's alone (as in pass 1).
                let cursor = unsafe {
                    std::slice::from_raw_parts_mut((rows_at as *mut u32).add(part * n), n)
                };
                let span = bounds[part]..bounds[part + 1];
                for (w, &first) in span.clone().zip(&in_offsets[span]) {
                    for (at, r) in (first as usize..).zip(lower(w)) {
                        let pos = cursor[r as usize];
                        cursor[r as usize] = pos + 1;
                        // SAFETY: `pos` walks this part's private range
                        // of `N⁺(r)` (the column prefix gave each part
                        // its own), and `at` the in-arcs of its own rank
                        // `w`; no other part writes either slot.
                        unsafe {
                            *(out_at as *mut u32)
                                .add(out_offsets[r as usize] as usize + pos as usize) = w as u32;
                            *(ins_at as *mut (u32, u32)).add(at) = (r, pos + 1);
                        }
                    }
                }
            }
        });
        RankDag {
            order,
            out_offsets,
            out,
            in_offsets,
            ins,
        }
    }

    /// Number of vertices (= ranks).
    pub fn num_vertices(&self) -> usize {
        self.order.len()
    }

    /// Number of arcs: the edges of the graph minus its self loops.
    pub fn num_arcs(&self) -> u64 {
        self.out.len() as u64
    }

    /// `order()[r]` is the vertex id of rank `r`.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// `N⁺(r)`: the ranks above `r` adjacent to it, ascending.
    #[inline]
    pub fn out(&self, r: usize) -> &[u32] {
        &self.out[self.out_offsets[r] as usize..self.out_offsets[r + 1] as usize]
    }

    /// The in-arcs of rank `u`: one `(v, s)` per `v → u`, with
    /// `out(v)[s - 1] == u`.
    #[inline]
    pub fn ins(&self, u: usize) -> &[(u32, u32)] {
        &self.ins[self.in_offsets[u] as usize..self.in_offsets[u + 1] as usize]
    }
}

/// Cut ranks `0..n` into at most `workers` contiguous parts of about
/// equal degree sum; returns the part bounds.
fn part_bounds(g: &Csr, order: &[VertexId], workers: usize) -> Vec<usize> {
    let parts = workers.clamp(1, order.len().max(1)) as u64;
    let total = g.num_arcs().max(1);
    let mut bounds = vec![0];
    let mut seen = 0u64;
    for (r, &v) in order.iter().enumerate() {
        seen += g.degree(v);
        if seen * parts >= total * bounds.len() as u64 && bounds.len() < parts as usize {
            bounds.push(r + 1);
        }
    }
    bounds.push(order.len());
    bounds
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

    /// `(degree, id)`: the order the view ranks by.
    fn key(g: &Csr, v: VertexId) -> (u64, VertexId) {
        (g.degree(v), v)
    }

    /// Every arc is an edge of `g` oriented up the `(degree, id)` order,
    /// every edge but a self loop is one arc, out-lists ascend, and each
    /// in-arc `(v, s)` of `u` names `u` at `out(v)[s - 1]`.
    fn check_view(g: &Csr, d: &RankDag) {
        let order = d.order();
        assert_eq!(d.num_vertices() as u64, g.num_vertices());
        let loops = (0..g.num_vertices()).filter(|&v| g.has_arc(v, v)).count() as u64;
        assert_eq!(d.num_arcs(), (g.num_arcs() - loops) / 2);
        for r in 0..d.num_vertices() {
            let out = d.out(r);
            assert!(out.windows(2).all(|p| p[0] < p[1]), "rank {r}");
            for &w in out {
                let (v, u) = (order[r], order[w as usize]);
                assert!(key(g, v) < key(g, u) && g.has_arc(v, u));
            }
            for &(v, s) in d.ins(r) {
                assert_eq!(d.out(v as usize)[s as usize - 1] as usize, r);
            }
            let up = g
                .neighbors(order[r])
                .iter()
                .filter(|&&u| key(g, order[r]) < key(g, u));
            assert_eq!(up.count(), out.len());
        }
        let ins: usize = (0..d.num_vertices()).map(|r| d.ins(r).len()).sum();
        assert_eq!(ins as u64, d.num_arcs());
    }

    fn graphs() -> Vec<Csr> {
        let p = crate::gen::rmat::RmatParams::graph500(12);
        let mut graphs = vec![build_undirected(&crate::gen::rmat::rmat_edges(&p, 1))];
        graphs
            .extend((0..3).map(|seed| build_undirected(&crate::gen::er::gnm(2_000, 9_000, seed))));
        graphs.push(build_undirected(&crate::EdgeList::new(5)));
        graphs.push(build_undirected(&clique(9)));
        graphs
    }

    #[test]
    fn dag_arcs_are_edges_oriented_once() {
        for g in &graphs() {
            check_view(g, &RankDag::new(g));
        }
    }

    #[test]
    fn self_loops_drop_out() {
        let mut el = clique(5);
        el.edges.extend([(0, 0), (3, 3)]);
        let opts = crate::BuildOptions {
            remove_self_loops: false,
            ..crate::BuildOptions::undirected_simple()
        };
        let g = crate::CsrBuilder::new(opts).build(&el);
        assert!(g.has_arc(3, 3));
        check_view(&g, &RankDag::new(&g));
    }

    #[test]
    fn the_view_does_not_depend_on_the_part_count() {
        for g in &graphs() {
            let one = RankDag::build(g, 1);
            for parts in 2..=5 {
                assert_eq!(RankDag::build(g, parts), one, "{parts} parts");
            }
        }
    }

    #[test]
    fn star_hub_has_no_out_arcs() {
        let g = build_undirected(&star(50));
        let d = RankDag::new(&g);
        let hub = d.num_vertices() - 1;
        assert_eq!(d.order()[hub], 0, "the hub is highest-ranked");
        assert!(d.out(hub).is_empty());
        assert_eq!(d.ins(hub).len(), 49);
        for leaf in 0..hub {
            assert_eq!(d.out(leaf), &[hub as u32]);
        }
    }

    #[test]
    fn clique_out_degrees_follow_id_tiebreak() {
        // Equal degrees everywhere: ranks fall back to id order.
        let g = build_undirected(&clique(6));
        let d = RankDag::new(&g);
        assert_eq!(d.order(), &[0, 1, 2, 3, 4, 5]);
        for r in 0..6 {
            assert_eq!(d.out(r).len(), 5 - r);
            assert_eq!(d.ins(r).len(), r);
        }
    }

    #[test]
    fn out_degree_never_exceeds_undirected_degree_sqrt_bound() {
        let p = crate::gen::rmat::RmatParams::graph500(10);
        let g = build_undirected(&crate::gen::rmat::rmat_edges(&p, 7));
        let d = RankDag::new(&g);
        let bound = 2.0 * (g.num_edges() as f64).sqrt();
        let max_out = (0..d.num_vertices()).map(|r| d.out(r).len()).max().unwrap();
        assert!(
            (max_out as f64) <= bound,
            "max out-degree {max_out} exceeds 2√m = {bound}"
        );
        // And the hub's out-degree is far below its undirected degree.
        let hub = d.num_vertices() - 1;
        assert!(d.out(hub).len() as u64 * 4 < g.degree(d.order()[hub]));
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
