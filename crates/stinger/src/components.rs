//! Streaming connected components (the paper's reference \[13\],
//! "Tracking structure of streaming social networks": insertions are
//! cheap to absorb; deletions may split components and are handled by a
//! fallback recomputation, since most deletions in social streams do
//! not actually disconnect anything).
//!
//! [`ComponentTracker`] holds no graph: its owner
//! ([`StreamingAnalytics`](crate::StreamingAnalytics)) tells it which
//! edges were accepted and hands it exact labels when the deletion
//! fallback runs.

use xmt_graph::VertexId;

/// Min-id union-find over a fixed vertex set, plus the count of
/// deletions it could not reflect.
pub struct ComponentTracker {
    /// Union-find parent array (path halving, union by smaller root id,
    /// so every root is the minimum vertex id of its component — the
    /// same label convention as the static algorithms).
    parent: Vec<VertexId>,
    /// Deletions since the last [`reset`](Self::reset) whose endpoints
    /// shared a component (the only ones that can split it).
    pending_deletions: u64,
}

impl ComponentTracker {
    /// Every vertex its own component.
    pub fn new(n: u64) -> Self {
        ComponentTracker::from_labels((0..n).collect())
    }

    /// Start from exact min-id labels (a valid depth-1 forest under the
    /// min-root convention).
    pub fn from_labels(labels: Vec<VertexId>) -> Self {
        ComponentTracker {
            parent: labels,
            pending_deletions: 0,
        }
    }

    /// Component label of `v` (minimum vertex id in its component,
    /// exact only while no deletions are pending).
    #[inline]
    pub fn find(&mut self, mut v: VertexId) -> VertexId {
        while self.parent[v as usize] != v {
            let grand = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grand; // path halving
            v = grand;
        }
        v
    }

    /// The new edge `{u, v}` entered the graph: O(α) union.
    #[inline]
    pub fn edge_inserted(&mut self, u: VertexId, v: VertexId) {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru != rv {
            self.parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }

    /// The existing edge `{u, v}` left the graph.  Union-find cannot
    /// un-merge; if the endpoints share a component the (rare) split
    /// question is deferred to the owner's recompute.
    #[inline]
    pub fn edge_removed(&mut self, u: VertexId, v: VertexId) {
        if self.find(u) == self.find(v) {
            self.pending_deletions += 1;
        }
    }

    /// Deletions awaiting a [`reset`](Self::reset) to be reflected
    /// exactly.
    pub fn pending_deletions(&self) -> u64 {
        self.pending_deletions
    }

    /// Replace the forest with exact labels recomputed from the graph
    /// (the deletion fallback); clears the pending counter.
    pub fn reset(&mut self, labels: Vec<VertexId>) {
        *self = ComponentTracker::from_labels(labels);
    }

    /// Label of every vertex (exact only while no deletions are
    /// pending).
    pub fn labels(&mut self) -> Vec<VertexId> {
        (0..self.parent.len() as u64)
            .map(|v| self.find(v))
            .collect()
    }

    /// Resident bytes of the parent array (length-based).
    pub fn memory_bytes(&self) -> usize {
        self.parent.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertions_merge_components() {
        let mut s = ComponentTracker::new(5);
        s.edge_inserted(0, 1);
        s.edge_inserted(2, 3);
        assert_eq!(s.labels(), vec![0, 0, 2, 2, 4]);
        s.edge_inserted(1, 2);
        assert_eq!(s.find(3), 0);
        assert_eq!(s.find(4), 4);
    }

    #[test]
    fn labels_keep_minimum_convention_on_insert_only_streams() {
        let mut s = ComponentTracker::new(6);
        s.edge_inserted(4, 5);
        s.edge_inserted(3, 4);
        s.edge_inserted(0, 5);
        assert_eq!(s.labels(), vec![0, 1, 2, 0, 0, 0]);
    }

    #[test]
    fn only_same_component_deletions_are_pending_until_reset() {
        let mut s = ComponentTracker::new(4);
        s.edge_inserted(0, 1);
        s.edge_inserted(1, 2);
        s.edge_removed(1, 2);
        assert_eq!(s.pending_deletions(), 1);
        assert_eq!(s.find(2), 0, "stale until the owner recomputes");
        s.reset(vec![0, 0, 2, 3]);
        assert_eq!(s.pending_deletions(), 0);
        assert_eq!(s.labels(), vec![0, 0, 2, 3]);
    }
}
