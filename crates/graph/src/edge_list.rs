//! Unordered edge lists — the interchange format between generators and
//! the CSR builder.

use crate::VertexId;

/// A list of (source, destination) pairs over vertices `0..num_vertices`.
///
/// Each undirected edge appears once here (loops and repeats allowed);
/// the CSR builder drops loops and repeats and inserts both directions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices (ids run `0..num_vertices`).
    pub num_vertices: u64,
    /// The edges, in no particular order.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// An empty edge list over `n` vertices.
    pub fn new(n: u64) -> Self {
        EdgeList {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Build from raw pairs, sizing the vertex set to the largest endpoint.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let edges: Vec<_> = pairs.into_iter().collect();
        let n = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
        EdgeList {
            num_vertices: n,
            edges,
        }
    }

    /// Number of edges in the list.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append an edge.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(u < self.num_vertices && v < self.num_vertices);
        self.edges.push((u, v));
    }

    /// `true` when every endpoint is a valid vertex id.
    pub fn is_consistent(&self) -> bool {
        self.edges
            .iter()
            .all(|&(u, v)| u < self.num_vertices && v < self.num_vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sizes_vertex_set() {
        let el = EdgeList::from_pairs([(0, 1), (2, 5)]);
        assert_eq!(el.num_vertices, 6);
        assert_eq!(el.num_edges(), 2);
        assert!(el.is_consistent());
    }

    #[test]
    fn empty_pairs_yield_empty_graph() {
        let el = EdgeList::from_pairs(std::iter::empty());
        assert_eq!(el.num_vertices, 0);
        assert_eq!(el.num_edges(), 0);
    }

    #[test]
    fn inconsistency_is_detected() {
        let el = EdgeList {
            num_vertices: 2,
            edges: vec![(0, 5)],
        };
        assert!(!el.is_consistent());
    }
}
