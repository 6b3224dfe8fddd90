//! Incremental analytics over one dynamic graph.
//!
//! A registered streaming graph has one topology and every maintained
//! quantity must move in lockstep with it, so [`StreamingAnalytics`]
//! owns the single [`DynGraph`] and feeds each accepted edge flip to
//! two graph-less trackers: connected-component labels
//! ([`ComponentTracker`]: union-find, recompute fallback for splitting
//! deletions — \[13\]) and per-vertex triangle counts
//! ([`TriangleTracker`]: the \[12\] delta rule, ±|N(u) ∩ N(v)| per edge
//! flip).
//!
//! Updates arrive as **batches** of [`EdgeOp`]s.  A batch is first
//! [planned](StreamingAnalytics::plan_batch) — endpoints validated,
//! duplicates resolved, exact accepted insert/delete counts computed
//! without mutating anything — and then
//! [applied](StreamingAnalytics::apply_batch).  Both run the same walk
//! (the first op naming an unordered pair wins; later ops on the same
//! pair in the batch are ignored), so a caller that plans, makes an
//! admission decision (e.g. a memory-budget check), and then applies
//! under one lock sees exactly the planned counts.

use std::collections::HashSet;
use std::fmt;

use xmt_graph::{Csr, VertexId};

use crate::{ComponentTracker, DynGraph, TriangleTracker};

/// One edge mutation in an update batch (unordered endpoints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `{u, v}`.
    Delete(VertexId, VertexId),
}

/// What a batch will do (from [`StreamingAnalytics::plan_batch`]) or did
/// (from [`StreamingAnalytics::apply_batch`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Edges actually inserted (self loops, duplicates within the batch,
    /// and edges already present don't count).
    pub inserted: u64,
    /// Edges actually deleted (absent edges and pairs already touched by
    /// an earlier op in the batch don't count).
    pub deleted: u64,
}

/// A batch named a vertex outside the graph's fixed vertex set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfRange {
    /// The offending endpoint.
    pub vertex: VertexId,
    /// The graph's vertex count.
    pub vertices: u64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vertex {} out of range (graph has {} vertices)",
            self.vertex, self.vertices
        )
    }
}

impl std::error::Error for OutOfRange {}

/// A dynamic graph with connected components and triangle counts
/// maintained incrementally under one update stream.
pub struct StreamingAnalytics {
    graph: DynGraph,
    components: ComponentTracker,
    triangles: TriangleTracker,
}

impl StreamingAnalytics {
    /// Start from an edgeless graph on `n` vertices.
    pub fn new(n: u64) -> Self {
        StreamingAnalytics {
            graph: DynGraph::new(n),
            components: ComponentTracker::new(n),
            triangles: TriangleTracker::new(n),
        }
    }

    /// Import a static CSR (must be undirected); labels and triangle
    /// counts are computed once, then maintained incrementally.
    pub fn from_csr(csr: &Csr) -> Self {
        StreamingAnalytics {
            graph: DynGraph::from_csr(csr),
            components: ComponentTracker::from_labels(xmt_graph::validate::reference_components(
                csr,
            )),
            triangles: TriangleTracker::from_csr(csr),
        }
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// Global triangle count (always exact — deletions maintain it
    /// incrementally too).
    pub fn triangles(&self) -> u64 {
        self.triangles.total()
    }

    /// Triangles through vertex `v`.
    pub fn triangles_of(&self, v: VertexId) -> u64 {
        self.triangles.of(v)
    }

    /// Local clustering coefficient of `v`.
    pub fn coefficient(&self, v: VertexId) -> f64 {
        self.triangles.coefficient(v, self.graph.degree(v))
    }

    /// Global (mean) clustering coefficient.
    pub fn mean_coefficient(&self) -> f64 {
        let n = self.graph.num_vertices();
        if n == 0 {
            return 0.0;
        }
        (0..n).map(|v| self.coefficient(v)).sum::<f64>() / n as f64
    }

    /// Deletions awaiting a component recompute to be reflected exactly.
    pub fn pending_deletions(&self) -> u64 {
        self.components.pending_deletions()
    }

    /// Approximate resident bytes of the maintained state: the dynamic
    /// adjacency plus the two per-vertex arrays.  Length-based (not
    /// capacity-based), so re-costing after a batch is deterministic.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.components.memory_bytes() + self.triangles.memory_bytes()
    }

    /// Dry-run a batch: validate endpoints and compute the exact
    /// accepted insert/delete counts without mutating anything.
    /// [`apply_batch`](Self::apply_batch) on the unchanged graph then
    /// performs exactly these counts.
    ///
    /// The service's registry holds its one lock across plan → re-cost
    /// → apply, and nothing may be locked under it, so this method must
    /// stay bounded CPU work and must never block or take locks.
    pub fn plan_batch(&self, ops: &[EdgeOp]) -> Result<BatchOutcome, OutOfRange> {
        walk_batch(self.graph.num_vertices(), ops, |op| match op {
            EdgeOp::Insert(u, v) => !self.graph.has_edge(u, v),
            EdgeOp::Delete(u, v) => self.graph.has_edge(u, v),
        })
    }

    /// Apply a batch, maintaining labels and triangle counts per
    /// accepted edge; returns what actually happened.  Ops before an
    /// out-of-range endpoint stay applied — callers gate on
    /// [`plan_batch`](Self::plan_batch).
    pub fn apply_batch(&mut self, ops: &[EdgeOp]) -> Result<BatchOutcome, OutOfRange> {
        walk_batch(self.graph.num_vertices(), ops, |op| match op {
            EdgeOp::Insert(u, v) => self.insert_edge(u, v),
            EdgeOp::Delete(u, v) => self.delete_edge(u, v),
        })
    }

    /// Insert `{u, v}` with incremental maintenance; `true` if the edge
    /// was new.
    fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.graph.insert_edge(u, v) {
            return false;
        }
        let common = self.graph.common_neighbors(u, v);
        self.triangles.edge_inserted(u, v, &common);
        self.components.edge_inserted(u, v);
        true
    }

    /// Delete `{u, v}` with incremental maintenance; `true` if the edge
    /// existed.  Triangle counts stay exact; component labels may go
    /// stale until the next [`labels`](Self::labels) call recomputes.
    fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.graph.remove_edge(u, v) {
            return false;
        }
        let common = self.graph.common_neighbors(u, v);
        self.triangles.edge_removed(u, v, &common);
        self.components.edge_removed(u, v);
        true
    }

    /// Component label of every vertex (minimum vertex id per
    /// component).  Runs the deletion-fallback recompute first if any
    /// potentially-splitting deletions are pending — the incremental
    /// fast path covers insert-only windows and deletions inside cycles.
    pub fn labels(&mut self) -> Vec<VertexId> {
        if self.components.pending_deletions() > 0 {
            self.recompute_components();
        }
        self.components.labels()
    }

    /// Number of connected components (exact; recomputes if needed).
    pub fn components(&mut self) -> u64 {
        self.labels()
            .iter()
            .enumerate()
            .filter(|&(v, &l)| v as u64 == l)
            .count() as u64
    }

    /// Recompute labels exactly from the current graph — the deletion
    /// fallback, O(V + E).
    pub fn recompute_components(&mut self) {
        let csr = self.graph.to_csr();
        self.components
            .reset(xmt_graph::validate::reference_components(&csr));
    }
}

/// The one batch-acceptance walk, shared by planning and applying:
/// range-check both endpoints against `n`, skip self loops, let the
/// first op naming an unordered pair own it, and ask `flip` whether
/// that op changes (plan) or changed (apply) the graph.
fn walk_batch(
    n: u64,
    ops: &[EdgeOp],
    mut flip: impl FnMut(EdgeOp) -> bool,
) -> Result<BatchOutcome, OutOfRange> {
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut outcome = BatchOutcome::default();
    for &op in ops {
        let (EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v)) = op;
        if u >= n || v >= n {
            return Err(OutOfRange {
                vertex: u.max(v),
                vertices: n,
            });
        }
        if u == v || !seen.insert((u.min(v), u.max(v))) {
            continue;
        }
        if flip(op) {
            match op {
                EdgeOp::Insert(..) => outcome.inserted += 1,
                EdgeOp::Delete(..) => outcome.deleted += 1,
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::clique;

    fn reference(analytics: &StreamingAnalytics) -> (Vec<VertexId>, u64) {
        let csr = analytics.graph().to_csr();
        let labels = xmt_graph::validate::reference_components(&csr);
        let triangles = graphct::count_triangles(&csr);
        (labels, triangles)
    }

    #[test]
    fn plan_matches_apply_on_messy_batches() {
        let mut s = StreamingAnalytics::new(6);
        s.apply_batch(&[EdgeOp::Insert(0, 1), EdgeOp::Insert(1, 2)])
            .unwrap();
        let batch = vec![
            EdgeOp::Insert(0, 1), // already present
            EdgeOp::Insert(2, 0), // new
            EdgeOp::Insert(0, 2), // dup within batch
            EdgeOp::Delete(1, 2), // present
            EdgeOp::Insert(1, 2), // pair already touched: ignored
            EdgeOp::Delete(4, 5), // absent
            EdgeOp::Insert(3, 3), // self loop
            EdgeOp::Insert(4, 5), // pair already touched by the delete: ignored
            EdgeOp::Insert(3, 4), // new
        ];
        let plan = s.plan_batch(&batch).unwrap();
        let applied = s.apply_batch(&batch).unwrap();
        assert_eq!(plan, applied);
        assert_eq!(
            applied,
            BatchOutcome {
                inserted: 2,
                deleted: 1
            }
        );
        assert_eq!(s.graph().num_edges(), 3);
        assert!(!s.graph().has_edge(4, 5), "first op on the pair wins");
    }

    #[test]
    fn out_of_range_is_a_typed_error_and_mutates_nothing() {
        let mut s = StreamingAnalytics::new(4);
        s.apply_batch(&[EdgeOp::Insert(0, 1)]).unwrap();
        let bad = vec![EdgeOp::Insert(1, 2), EdgeOp::Insert(2, 9)];
        let err = s.plan_batch(&bad).unwrap_err();
        assert_eq!(err.vertex, 9);
        assert_eq!(err.vertices, 4);
        // plan_batch never mutates; callers gate apply on the plan.
        assert_eq!(s.graph().num_edges(), 1);
    }

    #[test]
    fn triangle_lifecycle_through_batches() {
        let mut s = StreamingAnalytics::new(4);
        let r = s
            .apply_batch(&[
                EdgeOp::Insert(0, 1),
                EdgeOp::Insert(1, 2),
                EdgeOp::Insert(0, 2),
                EdgeOp::Insert(2, 3),
            ])
            .unwrap();
        assert_eq!(r.inserted, 4);
        assert_eq!(s.triangles(), 1);
        assert_eq!(s.triangles_of(0), 1);
        assert_eq!(s.triangles_of(3), 0);
        s.apply_batch(&[EdgeOp::Delete(0, 2)]).unwrap();
        assert_eq!(s.triangles(), 0);
    }

    #[test]
    fn harmless_deletion_keeps_labels_exact() {
        let mut s = StreamingAnalytics::new(4);
        // A cycle: deleting one edge cannot split it.
        s.apply_batch(&[
            EdgeOp::Insert(0, 1),
            EdgeOp::Insert(1, 2),
            EdgeOp::Insert(0, 2),
        ])
        .unwrap();
        s.apply_batch(&[EdgeOp::Delete(0, 1), EdgeOp::Delete(2, 3)])
            .unwrap();
        assert_eq!(s.pending_deletions(), 1, "the absent edge defers nothing");
        // labels() recomputes and confirms no split.
        assert_eq!(s.labels(), vec![0, 0, 0, 3]);
        assert_eq!(s.pending_deletions(), 0);
    }

    #[test]
    fn splitting_deletion_is_caught_by_recompute() {
        let mut s = StreamingAnalytics::new(4);
        s.apply_batch(&[EdgeOp::Insert(0, 1), EdgeOp::Insert(1, 2)])
            .unwrap();
        s.apply_batch(&[EdgeOp::Delete(1, 2)]).unwrap();
        assert_eq!(s.pending_deletions(), 1);
        assert_eq!(s.labels(), vec![0, 0, 2, 3]);
        assert_eq!(s.components(), 3);
    }

    #[test]
    fn from_csr_seeds_labels_and_triangles() {
        let csr = build_undirected(&clique(5));
        let mut s = StreamingAnalytics::from_csr(&csr);
        assert_eq!(s.triangles(), 10); // C(5,3)
        assert_eq!(s.labels(), vec![0; 5]);
        assert_eq!(s.components(), 1);
        // Incremental continues correctly from the imported state.
        s.apply_batch(&[EdgeOp::Delete(0, 1)]).unwrap();
        assert_eq!(s.triangles(), 7);
    }

    #[test]
    fn matches_reference_under_random_batch_churn() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 32u64;
        let mut s = StreamingAnalytics::new(n);
        let mut present: Vec<(u64, u64)> = Vec::new();
        for round in 0..40 {
            let mut batch = Vec::new();
            for _ in 0..20 {
                if present.is_empty() || rng.gen_bool(0.7) {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    batch.push(EdgeOp::Insert(u, v));
                } else {
                    let idx = rng.gen_range(0..present.len());
                    let (u, v) = present[idx];
                    batch.push(EdgeOp::Delete(u, v));
                }
            }
            let plan = s.plan_batch(&batch).unwrap();
            let applied = s.apply_batch(&batch).unwrap();
            assert_eq!(plan, applied, "round {round}");
            // Track what's actually present for future delete candidates.
            present.clear();
            for v in 0..n {
                for &u in s.graph().neighbors(v) {
                    if v < u {
                        present.push((v, u));
                    }
                }
            }
            let (labels, triangles) = reference(&s);
            assert_eq!(s.labels(), labels, "round {round}");
            assert_eq!(s.triangles(), triangles, "round {round}");
            assert!(s.graph().check_consistency(), "round {round}");
        }
    }

    #[test]
    fn memory_bytes_tracks_edge_count() {
        let mut s = StreamingAnalytics::new(10);
        let before = s.memory_bytes();
        s.apply_batch(&[EdgeOp::Insert(0, 1), EdgeOp::Insert(2, 3)])
            .unwrap();
        let grown = s.memory_bytes();
        assert_eq!(grown, before + 2 * 2 * 8, "two arcs per undirected edge");
        s.apply_batch(&[EdgeOp::Delete(0, 1)]).unwrap();
        assert_eq!(s.memory_bytes(), before + 2 * 8);
    }
}
