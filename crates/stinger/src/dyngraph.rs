//! The dynamic graph structure.
//!
//! STINGER stores adjacency as blocked linked lists so insertions never
//! move other edges; on commodity hardware a per-vertex sorted vector
//! gives the same API with better constants at this scale.  Batch
//! updates group edges by endpoint and apply per-vertex slices in
//! parallel (disjoint writes), mirroring STINGER's batch ingest.

use xmt_graph::{Csr, VertexId};

/// An undirected dynamic graph over a fixed vertex set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynGraph {
    adj: Vec<Vec<VertexId>>,
    num_edges: u64,
}

impl DynGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: u64) -> Self {
        DynGraph {
            adj: vec![Vec::new(); n as usize],
            num_edges: 0,
        }
    }

    /// Import a static CSR graph: its rows are this graph's rows.
    pub fn from_csr(g: &Csr) -> Self {
        DynGraph {
            adj: (0..g.num_vertices())
                .map(|v| g.neighbors(v).to_vec())
                .collect(),
            num_edges: g.num_edges(),
        }
    }

    /// Export to a static CSR.
    pub fn to_csr(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        // Every undirected edge is stored at both endpoints.
        let mut adj = Vec::with_capacity(2 * self.num_edges as usize);
        offsets.push(0u64);
        for v in 0..n as usize {
            adj.extend_from_slice(&self.adj[v]);
            offsets.push(adj.len() as u64);
        }
        Csr::from_parts(n, offsets, adj)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.adj.len() as u64
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.adj[v as usize].len() as u64
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Does the edge `{u, v}` exist?
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Insert the undirected edge `{u, v}`; returns `false` (and changes
    /// nothing) if it already exists or is a self loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!(u < self.num_vertices() && v < self.num_vertices());
        if u == v {
            return false;
        }
        let (Err(pu), Err(pv)) = (
            self.adj[u as usize].binary_search(&v),
            self.adj[v as usize].binary_search(&u),
        ) else {
            return false;
        };
        self.adj[u as usize].insert(pu, v);
        self.adj[v as usize].insert(pv, u);
        self.num_edges += 1;
        true
    }

    /// Remove the undirected edge `{u, v}`; returns `false` if absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let Ok(pu) = self.adj[u as usize].binary_search(&v) else {
            return false;
        };
        self.adj[u as usize].remove(pu);
        #[expect(clippy::expect_used, reason = "both directions are inserted together")]
        let pv = self.adj[v as usize]
            .binary_search(&u)
            .expect("asymmetric adjacency");
        self.adj[v as usize].remove(pv);
        self.num_edges -= 1;
        true
    }

    /// Sorted, deduplicated intersection size of two neighborhoods —
    /// the number of triangles through the edge `{u, v}`.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Apply a batch of insertions in parallel (STINGER-style ingest):
    /// edges are grouped by endpoint and each vertex's adjacency is
    /// rebuilt by one worker (disjoint writes).  Self loops and
    /// duplicates (within the batch or with existing edges) are ignored.
    /// Returns the number of edges actually added.
    pub fn insert_batch(&mut self, edges: &[(VertexId, VertexId)]) -> u64 {
        let n = self.num_vertices() as usize;
        // Deduplicate the batch against itself and the graph, serially
        // (cheap), so the parallel phase sees a clean per-vertex plan.
        let mut accepted: Vec<(VertexId, VertexId)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in edges {
            assert!(u < n as u64 && v < n as u64, "endpoint out of range");
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if seen.insert(key) && !self.has_edge(u, v) {
                accepted.push(key);
            }
        }
        // Group additions per vertex.
        let mut per_vertex: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for &(u, v) in &accepted {
            per_vertex[u as usize].push(v);
            per_vertex[v as usize].push(u);
        }
        // Parallel merge into each adjacency list.
        {
            let adj_base = self.adj.as_mut_ptr() as usize;
            let per_vertex = &per_vertex;
            xmt_par::parallel_for(0, n, |v| {
                if per_vertex[v].is_empty() {
                    return;
                }
                // SAFETY: one worker per vertex index.
                let list = unsafe { &mut *(adj_base as *mut Vec<VertexId>).add(v) };
                list.extend_from_slice(&per_vertex[v]);
                list.sort_unstable();
            });
        }
        self.num_edges += accepted.len() as u64;
        accepted.len() as u64
    }

    /// Approximate resident bytes of the adjacency structure: one Vec
    /// header per vertex plus two 8-byte arcs per undirected edge.
    /// Deliberately length-based (not capacity-based) so the same
    /// topology always costs the same — byte-budget re-accounting in a
    /// registry must be deterministic across insert orders.
    pub fn memory_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<Vec<VertexId>>()
            + 2 * self.num_edges as usize * std::mem::size_of::<VertexId>()
    }

    /// Check internal invariants (sortedness, symmetry, edge count).
    pub fn check_consistency(&self) -> bool {
        let mut arcs = 0u64;
        for v in 0..self.num_vertices() {
            let nbrs = self.neighbors(v);
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            if nbrs.contains(&v) {
                return false;
            }
            for &u in nbrs {
                if !self.has_edge(u, v) {
                    return false;
                }
            }
            arcs += nbrs.len() as u64;
        }
        arcs == 2 * self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::clique;

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut g = DynGraph::new(5);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(0, 1), "duplicate rejected");
        assert!(!g.insert_edge(2, 2), "self loop rejected");
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1), "already gone");
        assert_eq!(g.num_edges(), 1);
        assert!(g.check_consistency());
    }

    #[test]
    fn csr_roundtrip() {
        let csr = build_undirected(&clique(6));
        let dyn_g = DynGraph::from_csr(&csr);
        assert_eq!(dyn_g.num_edges(), 15);
        assert_eq!(dyn_g.to_csr(), csr);
    }

    #[test]
    fn common_neighbors_matches_definition() {
        let mut g = DynGraph::new(5);
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)] {
            g.insert_edge(u, v);
        }
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
        assert_eq!(g.common_neighbors(2, 3), vec![0]);
        assert_eq!(g.common_neighbors(3, 4), Vec::<u64>::new());
    }

    #[test]
    fn batch_insert_matches_serial_inserts() {
        let edges: Vec<(u64, u64)> = (0..200)
            .map(|i| ((i * 7) % 40, (i * 13 + 1) % 40))
            .collect();
        let mut serial = DynGraph::new(40);
        for &(u, v) in &edges {
            serial.insert_edge(u, v);
        }
        let mut batched = DynGraph::new(40);
        let added = batched.insert_batch(&edges);
        assert_eq!(batched, serial);
        assert_eq!(added, serial.num_edges());
        assert!(batched.check_consistency());
    }

    #[test]
    fn batch_insert_skips_existing_edges() {
        let mut g = DynGraph::new(4);
        g.insert_edge(0, 1);
        let added = g.insert_batch(&[(1, 0), (2, 3), (3, 2), (1, 1)]);
        assert_eq!(added, 1);
        assert_eq!(g.num_edges(), 2);
    }
}
