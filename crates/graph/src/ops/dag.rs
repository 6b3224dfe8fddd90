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

use std::ops::Range;

use xmt_par::pfor::parallel_fill;
use xmt_par::{exclusive_prefix_sum, num_threads, parallel_for_chunked, DisjointSlice};

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
    /// Orient `g` (at most `2^32` vertices) on the global pool.
    ///
    /// A branch-free count walk places every rank's in-list.  Ranks are
    /// cut into one part per worker by degree sum; each part's compaction
    /// walk stores every neighbour's rank at the next in-arc slot and
    /// advances only past a lower one, then counts its arcs per tail rank
    /// in a histogram row of its own.  A column prefix turns the rows into
    /// cursors inside every out-list, and the part's scatter walks its
    /// in-arcs once to take their cursors (`s`) and once to append each
    /// rank to its tails' out-lists, which so come out sorted.
    pub fn new(g: &Csr) -> RankDag {
        RankDag::build(g, num_threads())
    }

    fn build(g: &Csr, workers: usize) -> RankDag {
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
        let around = move |w: usize| g.neighbors(order_of[w]).iter().map(|&y| rank[y as usize]);
        let each_part = |f: &(dyn Fn(usize) + Sync)| {
            parallel_for_chunked(0, parts, 1, |_, range| range.for_each(f));
        };

        // Count walk: each rank's neighbours ranked below it.
        let mut in_offsets = vec![0u64; n + 1];
        parallel_fill(&mut in_offsets[..n], |w| {
            around(w).map(|r| u64::from(r < w as u32)).sum()
        });
        let arcs = exclusive_prefix_sum(&mut in_offsets) as usize;

        // Compaction walk, then the part's histogram row of tail ranks.
        let mut ins = vec![(0u32, 0u32); arcs];
        let mut rows = vec![0u32; parts * n];
        let (all_ins, all_rows) = (DisjointSlice::new(&mut ins), DisjointSlice::new(&mut rows));
        // Part `part` alone touches its in-arcs and row `part` of `rows`,
        // and nothing else touches them until a walk joins.
        let part_of = |part: usize| {
            let (ranks, at) = (bounds[part]..bounds[part + 1], &in_offsets[..]);
            let (first, last) = (at[ranks.start] as usize, at[ranks.end] as usize);
            // SAFETY: as above.
            let (ins, row) = unsafe {
                let ins = all_ins.range(first..last);
                (ins, all_rows.range(part * n..(part + 1) * n))
            };
            // Each rank of the part with its in-arcs' span in `ins`.
            let spans = at[ranks.start..=ranks.end].windows(2);
            let spans = spans.map(move |w| w[0] as usize - first..w[1] as usize - first);
            (ranks.zip(spans), ins, row)
        };
        each_part(&|part| {
            let (spans, ins, row) = part_of(part);
            for (w, span) in spans {
                let mut at = span.start;
                for r in around(w) {
                    if let Some(slot) = ins.get_mut(at) {
                        slot.0 = r;
                    }
                    at += usize::from(r < w as u32);
                }
            }
            for &(r, _) in &*ins {
                row[r as usize] += 1;
            }
        });
        // Column prefix: row `p` of rank `r` becomes the offset inside
        // `N⁺(r)` where part `p`'s arcs into it start.
        // SAFETY: no part runs between the walks.
        let rows = unsafe { all_rows.range(0..parts * n) };
        let mut out_offsets = vec![0u64; n + 1];
        for (r, slot) in out_offsets[..n].iter_mut().enumerate() {
            let mut at = 0u32;
            for part in 0..parts {
                let count = std::mem::replace(&mut rows[part * n + r], at);
                at += count;
            }
            *slot = u64::from(at);
        }
        exclusive_prefix_sum(&mut out_offsets);

        // Scatter: the part's cursor walk gives each in-arc its `s`, then
        // its out-list walk appends each rank to its tails' out-lists.
        let mut out = vec![0u32; arcs];
        let all_out = DisjointSlice::new(&mut out);
        each_part(&|part| {
            let (spans, ins, cursor) = part_of(part);
            for (r, s) in ins.iter_mut() {
                cursor[*r as usize] += 1;
                *s = cursor[*r as usize];
            }
            for (w, span) in spans {
                for &(r, s) in &ins[span] {
                    let at = out_offsets[r as usize] as usize + s as usize - 1;
                    // SAFETY: the column prefix gave each part a range of
                    // its own in `N⁺(r)`, which `s` walks.
                    unsafe { all_out.write(at, w as u32) };
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

    /// The exact bytes of the DAG of a graph of `n` vertices and `m`
    /// edges: three arrays of `n` words or so, `m` arcs out and `m` in.
    pub fn footprint_bytes(n: u64, m: u64) -> usize {
        (3 * n as usize + 2) * 8 + m as usize * 12
    }

    /// Number of vertices (= ranks).
    pub fn num_vertices(&self) -> usize {
        self.order.len()
    }

    /// Number of arcs: the edges of the graph.
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
        self.ins_of(u..u + 1)
    }

    /// The in-arcs of the ranks `ranks`, one rank's [`ins`](Self::ins)
    /// after the other, as one slice.
    #[inline]
    pub fn ins_of(&self, ranks: Range<usize>) -> &[(u32, u32)] {
        &self.ins[self.in_offsets[ranks.start] as usize..self.in_offsets[ranks.end] as usize]
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
    /// Mark array of one byte per vertex (the `tc.c` exemplar): mark
    /// one list once per vertex, probe the other in `O(1)` per element,
    /// unmark the first list.
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
    /// every edge is one arc, out-lists ascend, and each in-arc `(v, s)`
    /// of `u` names `u` at `out(v)[s - 1]`.
    fn check_view(g: &Csr, d: &RankDag) {
        let order = d.order();
        assert_eq!(d.num_vertices() as u64, g.num_vertices());
        assert_eq!(d.num_arcs(), g.num_edges());
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
    fn the_view_does_not_depend_on_the_part_count() {
        // Beside `graphs()`, shapes whose parts own no in-arcs, so the
        // compaction walk's last store of a part finds no slot: a star
        // (only the hub has in-arcs), isolated vertices below a clique,
        // fewer ranks than parts, and no vertices at all.
        let mut isolated = clique(4);
        isolated.num_vertices = 30;
        let mut shapes = graphs();
        shapes.extend(
            [star(40), isolated, clique(3), crate::EdgeList::new(0)]
                .map(|el| build_undirected(&el)),
        );
        for (i, g) in shapes.iter().enumerate() {
            let one = RankDag::build(g, 1);
            check_view(g, &one);
            for parts in 2..=8 {
                assert_eq!(RankDag::build(g, parts), one, "graph {i}, {parts} parts");
            }
        }
    }

    #[test]
    fn the_footprint_is_the_bytes_of_a_built_dag() {
        let p = crate::gen::rmat::RmatParams::graph500(10);
        let rmat = build_undirected(&crate::gen::rmat::rmat_edges(&p, 1));
        let shapes = [
            rmat,
            build_undirected(&star(40)),
            build_undirected(&crate::EdgeList::new(0)),
        ];
        for g in &shapes {
            let d = RankDag::new(g);
            let words = d.order.capacity() + d.out_offsets.capacity() + d.in_offsets.capacity();
            let arcs = d.out.capacity() * 4 + d.ins.capacity() * 8;
            let footprint = RankDag::footprint_bytes(g.num_vertices(), g.num_edges());
            assert_eq!(footprint, words * 8 + arcs, "{} vertices", g.num_vertices());
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
