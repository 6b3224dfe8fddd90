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
//! Lock ordering (shared with the registry): the registry lock is never
//! held while taking a per-graph lock; a holder of the per-graph lock
//! *may* take the registry lock (that is how `update` re-costs the
//! entry's byte charge atomically with the batch).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, MutexGuard};

use stinger_lite::{BatchOutcome, EdgeOp, StreamingAnalytics};
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

/// The mutable state behind one dynamic registry entry, guarded by the
/// entry's own lock so updates never serialize against other graphs.
pub(crate) struct DynState {
    pub(crate) analytics: StreamingAnalytics,
    /// Monotonic epoch counter; bumped by every batch that changes the
    /// graph.
    pub(crate) epoch: u64,
    /// The current epoch's materialized CSR, if any job has asked for it
    /// since the last mutating batch.
    snapshot: Option<Arc<Csr>>,
    /// Weak handles to every epoch snapshot handed out; pruned as jobs
    /// drop their `Arc`s.
    issued: Vec<(u64, Weak<Csr>)>,
    /// Recent applied-batch records (bounded window, newest last).
    updates: VecDeque<xmt_trace::UpdateRecord>,
}

/// A dynamic graph: streaming analytics state plus epoch bookkeeping.
// A per-graph state holder may take the registry's inner lock (batch
// re-costing), never the reverse — the ordering described in the module
// docs, `rank::STATE < rank::INNER`.
pub(crate) struct DynamicGraph {
    state: Mutex<DynState>,
    /// Gauge of snapshot epochs still referenced by at least one holder,
    /// as of the last snapshot/update/trace on this graph.  Written
    /// under the state lock, read lock-free by `stats()` (which holds
    /// the registry lock and must not take per-graph locks — see the
    /// lock-ordering note above); it is a freshness-bounded gauge, not a
    /// torn read of multi-field state.
    live_epochs: AtomicU64,
}

impl DynamicGraph {
    pub(crate) fn new(analytics: StreamingAnalytics) -> Self {
        DynamicGraph {
            state: Mutex::ranked(
                crate::rank::STATE,
                DynState {
                    analytics,
                    epoch: 0,
                    snapshot: None,
                    issued: Vec::new(),
                    updates: VecDeque::new(),
                },
            ),
            live_epochs: AtomicU64::new(0),
        }
    }

    /// Lock the state for a compound operation (plan → re-cost → apply).
    pub(crate) fn lock(&self) -> MutexGuard<'_, DynState> {
        self.state.lock()
    }

    /// The snapshot-epochs-live gauge (see the field note for staleness
    /// semantics).
    pub(crate) fn live_epochs(&self) -> u64 {
        // Relaxed: single independent gauge, no other memory depends on
        // the read; staleness is bounded by the last refresh anyway.
        self.live_epochs.load(Ordering::Relaxed)
    }

    /// The current epoch's CSR (materializing and caching it if needed)
    /// plus the epoch number.
    pub(crate) fn snapshot(&self) -> (Arc<Csr>, u64) {
        let mut st = self.state.lock();
        let csr = match &st.snapshot {
            Some(csr) => Arc::clone(csr),
            None => {
                // The snapshot must be of exactly this epoch, so it is
                // built under the lock that orders batches; one `to_csr`
                // per epoch, then cached.
                let csr = Arc::new(st.analytics.graph().to_csr());
                let epoch = st.epoch;
                st.issued.push((epoch, Arc::downgrade(&csr)));
                st.snapshot = Some(Arc::clone(&csr));
                csr
            }
        };
        self.refresh_gauge(&mut st);
        (csr, st.epoch)
    }

    /// Capture the incremental answer for `algorithm` plus the vertex
    /// count and epoch it is consistent with, atomically under the graph
    /// lock.  No CSR is materialized: nothing reads one.
    pub(crate) fn incremental(
        &self,
        name: &str,
        algorithm: Algorithm,
    ) -> Result<(u64, u64, JobOutput), ServiceError> {
        let mut st = self.state.lock();
        let output = match algorithm {
            Algorithm::Cc => JobOutput::Labels(st.analytics.labels()),
            // Reading the incrementally maintained labels/counts is O(V)
            // copying, no graph work; the lock keeps the read consistent
            // with the epoch.
            Algorithm::Triangles => JobOutput::Triangles(st.analytics.triangles()),
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
        Ok((st.analytics.graph().num_vertices(), st.epoch, output))
    }

    /// Finish an applied batch under the held lock: bump the epoch if
    /// the graph changed, invalidate the snapshot cache, refresh the
    /// live-epoch gauge, and record the batch for the trace window.
    pub(crate) fn commit_batch(
        &self,
        st: &mut DynState,
        applied: BatchOutcome,
        bytes_after: u64,
        apply_ns: u64,
    ) -> UpdateOutcome {
        if applied.inserted + applied.deleted > 0 {
            st.epoch += 1;
            // Drop our strong ref to the superseded epoch; holders keep
            // theirs, and the weak entry in `issued` tracks them.
            st.snapshot = None;
        }
        self.refresh_gauge(st);
        let outcome = UpdateOutcome {
            epoch: st.epoch,
            inserted: applied.inserted,
            deleted: applied.deleted,
            edges: st.analytics.graph().num_edges(),
            bytes: bytes_after,
        };
        if xmt_trace::ENABLED {
            if st.updates.len() == UPDATE_TRACE_WINDOW {
                st.updates.pop_front();
            }
            st.updates.push_back(xmt_trace::UpdateRecord {
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
        let mut st = self.state.lock();
        self.refresh_gauge(&mut st);
        xmt_trace::UpdateTrace {
            graph: graph.to_string(),
            updates: st.updates.iter().cloned().collect(),
        }
    }

    /// Drop issued-epoch entries whose snapshots no longer have holders
    /// and publish the count.
    fn refresh_gauge(&self, st: &mut DynState) {
        st.issued.retain(|(_, weak)| weak.strong_count() > 0);
        let live = st.issued.len() as u64;
        // Relaxed: publishing a single gauge value; see field note.
        self.live_epochs.store(live, Ordering::Relaxed);
    }
}

/// The deterministic byte cost charged against the registry budget for a
/// dynamic graph with `n` vertices and `m` undirected edges: the
/// analytics state (adjacency vectors, union-find parents, triangle
/// tallies) plus one materialized CSR snapshot.  Length-based on
/// purpose: the same topology always costs the same, so budget tests and
/// eviction decisions do not depend on allocator capacity growth or
/// whether a snapshot happens to be cached right now.
pub(crate) fn dynamic_cost_bytes(n: u64, m: u64) -> usize {
    let vec_header = std::mem::size_of::<Vec<u64>>();
    let analytics = n as usize * vec_header + 2 * m as usize * 8 + 2 * n as usize * 8;
    let csr = (n as usize + 1) * 8 + 2 * m as usize * 8;
    analytics + csr
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
        let d = DynamicGraph::new(StreamingAnalytics::new(8));
        let (a, e0) = d.snapshot();
        let (b, _) = d.snapshot();
        assert_eq!(e0, 0);
        assert!(Arc::ptr_eq(&a, &b), "same epoch shares one CSR");

        let ops = edge_ops(&[(0, 1)], &[]);
        let (applied, bytes) = {
            let mut st = d.lock();
            let applied = st.analytics.apply_batch(&ops).unwrap();
            let n = st.analytics.graph().num_vertices();
            let m = st.analytics.graph().num_edges();
            (applied, dynamic_cost_bytes(n, m) as u64)
        };
        let outcome = {
            let mut st = d.lock();
            d.commit_batch(&mut st, applied, bytes, 0)
        };
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.inserted, 1);

        let (c, e1) = d.snapshot();
        assert_eq!(e1, 1);
        assert!(!Arc::ptr_eq(&a, &c), "new epoch materializes a new CSR");
        assert_eq!(a.num_edges(), 0, "held snapshot still shows epoch 0");
        assert_eq!(c.num_edges(), 1);
    }

    #[test]
    fn live_epoch_gauge_tracks_holders() {
        let d = DynamicGraph::new(StreamingAnalytics::new(4));
        let (held, _) = d.snapshot();
        assert_eq!(d.live_epochs(), 1);

        // A no-change commit keeps the epoch; the held snapshot stays
        // the only live one.
        let outcome = {
            let mut st = d.lock();
            d.commit_batch(&mut st, BatchOutcome::default(), 0, 0)
        };
        assert_eq!(outcome.epoch, 0);
        assert_eq!(d.live_epochs(), 1);

        drop(held);
        let (_fresh, _) = d.snapshot(); // refreshes the gauge
        assert_eq!(d.live_epochs(), 1, "old epoch dropped, new one issued");
    }

    #[test]
    fn incremental_rejects_unsupported_algorithms() {
        let d = DynamicGraph::new(StreamingAnalytics::new(4));
        let err = d.incremental("g", Algorithm::Pagerank).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let (_, _, output) = d.incremental("g", Algorithm::Triangles).unwrap();
        assert_eq!(output, JobOutput::Triangles(0));
    }
}
