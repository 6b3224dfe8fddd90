//! Streaming (dynamic) graph entries: epochs, snapshots, and the
//! consistency model.
//!
//! A graph registered with `dynamic: true` is backed by a
//! [`StreamingAnalytics`] (per-vertex sorted adjacency plus incremental
//! CC labels and triangle counts) instead of a frozen CSR.  The
//! subsystem's consistency model is **snapshot isolation per job**:
//!
//! * Every admitted analytics job resolves the graph name to an
//!   immutable `Arc<Csr>` materialized from the *current epoch*.  The
//!   job (and any checkpoint/resume continuation, which travels the same
//!   handle) computes against that CSR for its whole life.
//! * An `update` batch mutates only the dynamic adjacency and bumps the
//!   epoch; the previous epoch's CSR is untouched — in-flight jobs never
//!   observe a torn graph, and two jobs admitted around a batch see two
//!   well-defined epochs.
//! * Snapshots are materialized lazily and cached per epoch: a burst of
//!   submits between batches shares one CSR; the first submit after a
//!   batch pays one `to_csr`.
//!
//! A dynamic graph's state is a value in the registry's table, so the
//! registry's one lock orders batches, snapshot builds and reads: a
//! snapshot is of exactly the epoch it is labelled with, and the live
//! snapshot-epoch count is taken at the call.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use stinger_lite::{BatchOutcome, EdgeOp, StreamingAnalytics};
use xmt_graph::ops::RankDag;
use xmt_graph::Csr;

use crate::error::ServiceError;
use crate::job::{Algorithm, JobOutput};

/// Applied-batch records kept per graph for the `trace` op; older
/// records roll off.
const UPDATE_TRACE_WINDOW: usize = 1024;

/// What an applied `update` batch reports back to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The epoch after the batch (unchanged if the batch was a no-op).
    pub epoch: u64,
    /// Edges actually inserted.
    pub inserted: u64,
    /// Edges actually deleted.
    pub deleted: u64,
    /// Undirected edge count after the batch.
    pub edges: u64,
    /// Registry bytes now charged for the graph.
    pub bytes: u64,
}

/// One dynamic registry entry: streaming analytics plus epoch
/// bookkeeping.  It lives inside the registry's table, so every method
/// runs under the registry's one lock.
pub(crate) struct DynState {
    pub(crate) analytics: StreamingAnalytics,
    /// Monotonic epoch counter; bumped by every batch that changes the
    /// graph.
    pub(crate) epoch: u64,
    /// The current epoch's materialized CSR, if any job has asked for it
    /// since the last mutating batch.
    snapshot: Option<Arc<Csr>>,
    /// Weak handles to the epoch snapshots handed out; pruned whenever
    /// a new one is issued.
    issued: Vec<Weak<Csr>>,
    /// Recent applied-batch records (bounded window, newest last).
    updates: VecDeque<xmt_trace::UpdateRecord>,
}

impl DynState {
    pub(crate) fn new(analytics: StreamingAnalytics) -> Self {
        DynState {
            analytics,
            epoch: 0,
            snapshot: None,
            issued: Vec::new(),
            updates: VecDeque::new(),
        }
    }

    /// Snapshot epochs still referenced by at least one holder (the
    /// cached current snapshot counts as one), counted now.
    pub(crate) fn live_epochs(&self) -> u64 {
        self.issued.iter().filter(|w| w.strong_count() > 0).count() as u64
    }

    /// The current epoch's CSR (materializing and caching it if needed)
    /// plus the epoch number.
    pub(crate) fn snapshot(&mut self) -> (Arc<Csr>, u64) {
        let csr = match &self.snapshot {
            Some(csr) => Arc::clone(csr),
            None => {
                // One `to_csr` per epoch, then cached.
                let csr = Arc::new(self.analytics.graph().to_csr());
                self.issued.retain(|w| w.strong_count() > 0);
                self.issued.push(Arc::downgrade(&csr));
                self.snapshot = Some(Arc::clone(&csr));
                csr
            }
        };
        (csr, self.epoch)
    }

    /// Capture the incremental answer for `algorithm` plus the vertex
    /// count and epoch it is consistent with.  No CSR is materialized:
    /// nothing reads one.
    pub(crate) fn incremental(
        &mut self,
        name: &str,
        algorithm: Algorithm,
    ) -> Result<(u64, u64, JobOutput), ServiceError> {
        let output = match algorithm {
            // Reading the incrementally maintained labels/counts is O(V)
            // copying, no graph work.
            Algorithm::Cc => JobOutput::Labels(self.analytics.labels()),
            Algorithm::Triangles => JobOutput::Triangles(self.analytics.triangles()),
            other => {
                return Err(ServiceError::BadRequest {
                    message: format!(
                        "the incremental engine maintains `cc` and `triangles` only; \
                         `{}` on graph `{name}` needs a bsp/graphct engine",
                        other.name()
                    ),
                })
            }
        };
        Ok((self.analytics.graph().num_vertices(), self.epoch, output))
    }

    /// Finish an applied batch: bump the epoch if the graph changed,
    /// invalidate the snapshot cache, and record the batch for the trace
    /// window.
    pub(crate) fn commit_batch(
        &mut self,
        applied: BatchOutcome,
        bytes_after: u64,
        apply_ns: u64,
    ) -> UpdateOutcome {
        if applied.inserted + applied.deleted > 0 {
            self.epoch += 1;
            // Drop our strong ref to the superseded epoch; holders keep
            // theirs, and the weak entry in `issued` tracks them.
            self.snapshot = None;
        }
        let outcome = UpdateOutcome {
            epoch: self.epoch,
            inserted: applied.inserted,
            deleted: applied.deleted,
            edges: self.analytics.graph().num_edges(),
            bytes: bytes_after,
        };
        if xmt_trace::ENABLED {
            if self.updates.len() == UPDATE_TRACE_WINDOW {
                self.updates.pop_front();
            }
            self.updates.push_back(xmt_trace::UpdateRecord {
                epoch: outcome.epoch,
                inserted: outcome.inserted,
                deleted: outcome.deleted,
                edges_after: outcome.edges,
                bytes_after,
                apply_ns,
            });
        }
        outcome
    }

    /// The recent applied-batch records (newest last).
    pub(crate) fn update_trace(&self, graph: &str) -> xmt_trace::UpdateTrace {
        xmt_trace::UpdateTrace {
            graph: graph.to_string(),
            updates: self.updates.iter().cloned().collect(),
        }
    }
}

/// The deterministic byte cost charged against the registry budget for a
/// dynamic graph with `n` vertices and `m` undirected edges: the
/// analytics state (adjacency vectors, union-find parents, triangle
/// tallies) plus one materialized CSR snapshot and the rank DAG a
/// triangle job on it builds.  Length-based on
/// purpose: the same topology always costs the same, so budget tests and
/// eviction decisions do not depend on allocator capacity growth or
/// whether a snapshot happens to be cached right now.
pub(crate) fn dynamic_cost_bytes(n: u64, m: u64) -> usize {
    let vec_header = std::mem::size_of::<Vec<u64>>();
    let analytics = n as usize * vec_header + 2 * m as usize * 8 + 2 * n as usize * 8;
    let csr = (n as usize + 1) * 8 + 2 * m as usize * 8;
    analytics + csr + RankDag::footprint_bytes(n, m)
}

/// Translate wire-level insert/delete pair lists into one ordered batch
/// (inserts first, then deletes; within the batch the first op naming an
/// unordered pair wins).  Also the typed way to compose an update batch
/// in code.
pub fn edge_ops(insert: &[(u64, u64)], delete: &[(u64, u64)]) -> Vec<EdgeOp> {
    insert
        .iter()
        .map(|&(u, v)| EdgeOp::Insert(u, v))
        .chain(delete.iter().map(|&(u, v)| EdgeOp::Delete(u, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_cached_per_epoch_and_invalidated_by_batches() {
        let mut d = DynState::new(StreamingAnalytics::new(8));
        let (a, e0) = d.snapshot();
        let (b, _) = d.snapshot();
        assert_eq!(e0, 0);
        assert!(Arc::ptr_eq(&a, &b), "same epoch shares one CSR");

        let applied = d.analytics.apply_batch(&edge_ops(&[(0, 1)], &[])).unwrap();
        let bytes = dynamic_cost_bytes(8, 1) as u64;
        let outcome = d.commit_batch(applied, bytes, 0);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.inserted, 1);

        let (c, e1) = d.snapshot();
        assert_eq!(e1, 1);
        assert!(!Arc::ptr_eq(&a, &c), "new epoch materializes a new CSR");
        assert_eq!(a.num_edges(), 0, "held snapshot still shows epoch 0");
        assert_eq!(c.num_edges(), 1);
    }

    #[test]
    fn live_epoch_count_tracks_holders() {
        let mut d = DynState::new(StreamingAnalytics::new(4));
        let (held, _) = d.snapshot();
        assert_eq!(d.live_epochs(), 1);

        // A no-change commit keeps the epoch and its cached snapshot.
        let outcome = d.commit_batch(BatchOutcome::default(), 0, 0);
        assert_eq!(outcome.epoch, 0);
        drop(held);
        assert_eq!(d.live_epochs(), 1, "the cache still holds epoch 0");

        let applied = d.analytics.apply_batch(&edge_ops(&[(0, 1)], &[])).unwrap();
        d.commit_batch(applied, 0, 0);
        assert_eq!(d.live_epochs(), 0, "nothing holds epoch 0 any more");
        let (_fresh, _) = d.snapshot();
        assert_eq!(d.live_epochs(), 1, "epoch 1 issued");
    }

    #[test]
    fn incremental_rejects_unsupported_algorithms() {
        let mut d = DynState::new(StreamingAnalytics::new(4));
        let err = d.incremental("g", Algorithm::Pagerank).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let (_, _, output) = d.incremental("g", Algorithm::Triangles).unwrap();
        assert_eq!(output, JobOutput::Triangles(0));
    }
}
