//! Compressed sparse row graph storage.
//!
//! The single read-only in-memory representation served to every analysis
//! kernel, as in GraphCT, and of one shape: undirected and simple.  Each
//! edge `{u,v}` is stored twice (`u→v` and `v→u`), so `num_arcs() == 2 *
//! num_edges()`; no row holds its own vertex, and every row ascends
//! strictly, which the triangle kernels' intersections rely on.
//!
//! A graph keeps its degree-ordered [`RankDag`] from the first
//! [`Csr::rank_dag`] call on, for as long as it lives; equality and
//! `Debug` ignore it, and a clone starts without one.

use crate::ops::dag::RankDag;
use crate::VertexId;

/// A read-only undirected simple graph with strictly ascending rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    n: u64,
    /// `offsets[v]..offsets[v+1]` indexes `adj` for vertex `v`; length `n+1`.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    adj: Vec<VertexId>,
    dag: DagMemo,
}

/// The graph's [`RankDag`] once built: cloned empty, always equal.
#[derive(Default)]
struct DagMemo(std::sync::OnceLock<RankDag>);

impl Clone for DagMemo {
    fn clone(&self) -> Self {
        DagMemo::default()
    }
}

impl PartialEq for DagMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DagMemo {}

impl std::fmt::Debug for DagMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("_")
    }
}

impl Csr {
    /// Assemble a CSR from raw parts, validating the invariants.  The
    /// caller promises the shape: symmetric, loop-free rows that ascend
    /// strictly.  Debug builds check every row for the last two.
    ///
    /// # Panics
    /// If offsets are not monotone from 0 to `adj.len()`, or an adjacency
    /// entry is out of range; in debug builds also if a row holds its own
    /// vertex or does not ascend strictly.
    pub fn from_parts(n: u64, offsets: Vec<u64>, adj: Vec<VertexId>) -> Self {
        assert_eq!(offsets.len() as u64, n + 1, "offsets must have n+1 entries");
        assert_eq!(offsets.first().copied(), Some(0));
        assert_eq!(offsets.last().copied(), Some(adj.len() as u64));
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert!(adj.iter().all(|&v| v < n), "adjacency entry out of range");
        if cfg!(debug_assertions) {
            for (v, w) in offsets.windows(2).enumerate() {
                let row = &adj[w[0] as usize..w[1] as usize];
                assert!(
                    row.windows(2).all(|p| p[0] < p[1]),
                    "adjacency of {v} not strictly ascending"
                );
                assert!(!row.contains(&(v as VertexId)), "self loop at {v}");
            }
        }
        Csr {
            n,
            offsets,
            adj,
            dag: DagMemo::default(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Number of stored arcs: twice the number of edges, and the sum of
    /// all degrees.
    #[inline]
    pub fn num_arcs(&self) -> u64 {
        self.adj.len() as u64
    }

    /// Number of undirected edges (arcs / 2).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_arcs() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The raw offsets array (length `n+1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw adjacency array.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// Whether the arc `u -> v` exists, in O(log d(u)).
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate `(vertex, neighbor_slice)` pairs.
    pub fn iter_vertices(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.n).map(move |v| (v, self.neighbors(v)))
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> u64 {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Approximate resident bytes of the structure, its rank DAG aside.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.adj.len() * 8
    }

    /// The degree-ordered DAG (at most `2^32` vertices): built on the
    /// global pool by the first call, which racers wait for; kept after.
    pub fn rank_dag(&self) -> &RankDag {
        self.dag.0.get_or_init(|| RankDag::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        // 0-1, 1-2, 0-2 undirected
        Csr::from_parts(3, vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_arc_finds_each_arc() {
        let g = triangle();
        assert!(g.has_arc(0, 1));
        assert!(g.has_arc(2, 0));
        assert!(!g.has_arc(0, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn unsorted_or_looped_lists_panic_in_debug() {
        let build = |adj: Vec<VertexId>| {
            std::panic::catch_unwind(|| Csr::from_parts(3, vec![0, 2, 4, 6], adj))
                .err()
                .and_then(|e| e.downcast::<String>().ok())
                .map(|msg| *msg)
        };
        let unsorted = build(vec![2, 1, 0, 2, 0, 1]);
        assert_eq!(
            unsorted.as_deref(),
            Some("adjacency of 0 not strictly ascending")
        );
        let repeated = build(vec![1, 2, 0, 0, 0, 1]);
        assert_eq!(
            repeated.as_deref(),
            Some("adjacency of 1 not strictly ascending")
        );
        let looped = build(vec![1, 2, 0, 1, 0, 1]);
        assert_eq!(looped.as_deref(), Some("self loop at 1"));
    }

    #[test]
    #[should_panic(expected = "offsets must have n+1 entries")]
    fn bad_offsets_len_panics() {
        Csr::from_parts(3, vec![0, 1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "adjacency entry out of range")]
    fn out_of_range_neighbor_panics() {
        Csr::from_parts(2, vec![0, 1, 1], vec![7]);
    }

    #[test]
    fn the_rank_dag_is_built_once_and_a_clone_starts_without_it() {
        let g = triangle();
        assert!(g.dag.0.get().is_none());
        let dag = g.rank_dag();
        assert!(
            std::ptr::eq(dag, g.rank_dag()),
            "a second call rebuilt the DAG"
        );
        assert_eq!(*dag, RankDag::new(&g));
        let h = g.clone();
        assert!(h.dag.0.get().is_none(), "a clone shares no DAG");
        assert_eq!(h, g);
        assert_eq!(format!("{h:?}"), format!("{g:?}"));
        assert!(!std::ptr::eq(h.rank_dag(), dag));
    }

    #[test]
    fn threads_racing_the_first_call_share_one_dag() {
        let p = crate::gen::rmat::RmatParams::graph500(10);
        let g = crate::builder::build_undirected(&crate::gen::rmat::rmat_edges(&p, 3));
        // The barrier releases all four at once into the first call.
        let start = std::sync::Barrier::new(4);
        let dags: Vec<&RankDag> = std::thread::scope(|s| {
            let race = || {
                start.wait();
                g.rank_dag()
            };
            let racers: Vec<_> = (0..4).map(|_| s.spawn(race)).collect();
            racers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(dags.iter().all(|&d| std::ptr::eq(d, g.rank_dag())));
        assert_eq!(*g.rank_dag(), RankDag::new(&g));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Csr::from_parts(0, vec![0], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.iter_vertices().count(), 0);
    }
}
