//! Compressed sparse row graph storage.
//!
//! The single read-only in-memory representation served to every analysis
//! kernel, as in GraphCT.  For undirected graphs each edge `{u,v}` is
//! stored twice (`u→v` and `v→u`), so `num_arcs() == 2 * edge count`.

use crate::VertexId;

/// A read-only CSR graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    n: u64,
    /// `offsets[v]..offsets[v+1]` indexes `adj` for vertex `v`; length `n+1`.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    adj: Vec<VertexId>,
    directed: bool,
    /// Whether every adjacency list is sorted ascending (required by the
    /// triangle-counting intersection kernels).
    sorted: bool,
}

impl Csr {
    /// Assemble a CSR from raw parts, validating the invariants.
    ///
    /// # Panics
    /// If offsets are not monotone from 0 to `adj.len()`, an adjacency
    /// entry is out of range.
    pub fn from_parts(
        n: u64,
        offsets: Vec<u64>,
        adj: Vec<VertexId>,
        directed: bool,
        sorted: bool,
    ) -> Self {
        assert_eq!(offsets.len() as u64, n + 1, "offsets must have n+1 entries");
        assert_eq!(offsets.first().copied(), Some(0));
        assert_eq!(offsets.last().copied(), Some(adj.len() as u64));
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert!(adj.iter().all(|&v| v < n), "adjacency entry out of range");
        if sorted {
            for v in 0..n as usize {
                let lo = offsets[v] as usize;
                let hi = offsets[v + 1] as usize;
                debug_assert!(
                    adj[lo..hi].windows(2).all(|w| w[0] <= w[1]),
                    "adjacency of {v} not sorted"
                );
            }
        }
        Csr {
            n,
            offsets,
            adj,
            directed,
            sorted,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Number of stored arcs (directed edges). For an undirected graph
    /// this is twice the number of edges.
    #[inline]
    pub fn num_arcs(&self) -> u64 {
        self.adj.len() as u64
    }

    /// Number of undirected edges (arcs/2) or directed edges (arcs).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        if self.directed {
            self.num_arcs()
        } else {
            self.num_arcs() / 2
        }
    }

    /// Is this a directed graph?
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Are all adjacency lists sorted ascending?
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Out-degree of `v`.
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

    /// Whether the arc `u -> v` exists. O(log d(u)) if sorted, O(d(u))
    /// otherwise.
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        let nbrs = self.neighbors(u);
        if self.sorted {
            nbrs.binary_search(&v).is_ok()
        } else {
            nbrs.contains(&v)
        }
    }

    /// Iterate `(vertex, neighbor_slice)` pairs.
    pub fn iter_vertices(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.n).map(move |v| (v, self.neighbors(v)))
    }

    /// Sum of all degrees; equals `num_arcs`.
    pub fn degree_sum(&self) -> u64 {
        self.num_arcs()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> u64 {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Approximate resident bytes of the structure.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.adj.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        // 0-1, 1-2, 0-2 undirected
        Csr::from_parts(3, vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1], false, true)
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_directed());
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn has_arc_sorted_and_unsorted() {
        let g = triangle();
        assert!(g.has_arc(0, 1));
        assert!(g.has_arc(2, 0));
        assert!(!g.has_arc(0, 0));

        let g2 = Csr::from_parts(3, vec![0, 2, 2, 2], vec![2, 1], true, false);
        assert!(g2.has_arc(0, 2));
        assert!(g2.has_arc(0, 1));
        assert!(!g2.has_arc(1, 0));
    }

    #[test]
    fn directed_edge_count_is_arc_count() {
        let g = Csr::from_parts(2, vec![0, 1, 1], vec![1], true, true);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    #[should_panic(expected = "offsets must have n+1 entries")]
    fn bad_offsets_len_panics() {
        Csr::from_parts(3, vec![0, 1], vec![1], true, false);
    }

    #[test]
    #[should_panic(expected = "adjacency entry out of range")]
    fn out_of_range_neighbor_panics() {
        Csr::from_parts(2, vec![0, 1, 1], vec![7], true, false);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Csr::from_parts(0, vec![0], vec![], false, true);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.iter_vertices().count(), 0);
    }
}
