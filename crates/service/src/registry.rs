//! The graph registry: load once, serve many queries — and, for dynamic
//! entries, absorb live updates.
//!
//! The surveyed distributed graph systems (Ammar & Özsu) are all
//! long-lived services precisely because graph ingest dwarfs most single
//! queries; the registry is the piece that amortizes it.  Entries come
//! in two kinds under one byte budget with LRU eviction:
//!
//! * **static** — a frozen [`Arc<Csr>`], the original shape;
//! * **dynamic** — a `DynState`: stinger-backed adjacency with
//!   incrementally maintained CC labels and triangle counts, mutated by
//!   `update` batches and served to jobs as immutable epoch snapshots.
//!
//! Registering past the budget evicts the least-recently-*used* entries
//! (a `get` is a use) until the newcomer fits; an update batch that
//! grows a dynamic graph **re-costs** it at its new size under the same
//! budget (evicting others if needed, rejecting the batch with a typed
//! [`ServiceError::BudgetExceeded`] if the grown graph alone cannot
//! fit).  Eviction only drops the registry's reference — jobs already
//! holding a CSR keep computing on it safely; the memory is reclaimed
//! when the last holder finishes.
//!
//! One lock guards the whole table, dynamic graphs' state included, and
//! nothing is locked under it: every public method is one critical
//! section, so `stats` and `list` are exact at the call.  The price is
//! that a snapshot build or a batch apply on one graph holds up every
//! other registry call, on any graph.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use stinger_lite::{EdgeOp, StreamingAnalytics};
use xmt_graph::ops::RankDag;
use xmt_graph::Csr;

use crate::error::ServiceError;
use crate::job::{Algorithm, Engine, JobGraph};
use crate::streaming::{dynamic_cost_bytes, edge_ops, DynState, UpdateOutcome};

/// A registry snapshot row (what `list_graphs` reports).
#[derive(Clone, Debug)]
pub struct GraphEntryInfo {
    /// Registry name.
    pub name: String,
    /// Vertex count.
    pub vertices: u64,
    /// Undirected edge count.
    pub edges: u64,
    /// Footprint in bytes (what the budget is charged).
    pub bytes: u64,
    /// Whether the entry accepts `update` batches.
    pub dynamic: bool,
    /// Current snapshot epoch (always 0 for static entries).
    pub epoch: u64,
}

/// A coherent registry-counter snapshot for the `stats` request.
///
/// Taken in one critical section: `used_bytes` can never exceed what
/// `graphs` entries account for, `evictions` can never lag an eviction
/// whose freed bytes are already reflected in `used_bytes`, and the
/// update counters can never show a batch whose bytes are not yet
/// charged — guarantees separate getter calls cannot make.
#[derive(Clone, Copy, Debug)]
pub struct RegistryStats {
    /// Registered graph count.
    pub graphs: usize,
    /// Dynamic (updatable) entries among them.
    pub dynamic_graphs: usize,
    /// Bytes currently charged against the budget.
    pub used_bytes: usize,
    /// Configured budget in bytes (0 = unbounded).
    pub budget_bytes: usize,
    /// Entries evicted by the budget since startup.
    pub evictions: u64,
    /// Update batches applied across all dynamic graphs since startup.
    pub batches_applied: u64,
    /// Edges inserted by those batches.
    pub edges_inserted: u64,
    /// Edges deleted by those batches.
    pub edges_deleted: u64,
    /// Snapshot epochs referenced by at least one holder (a job or the
    /// registry's own per-epoch cache), summed over dynamic graphs.
    pub snapshot_epochs_live: u64,
}

enum GraphKind {
    Static(Arc<Csr>),
    Dynamic(Box<DynState>),
}

struct Entry {
    kind: GraphKind,
    bytes: usize,
    /// Logical access clock value at the last `get`/registration;
    /// smallest value = least recently used.
    last_used: u64,
}

impl Entry {
    fn info(&self, name: &str) -> GraphEntryInfo {
        let (vertices, edges, epoch) = match &self.kind {
            GraphKind::Static(csr) => (csr.num_vertices(), csr.num_edges(), 0),
            GraphKind::Dynamic(st) => {
                let g = st.analytics.graph();
                (g.num_vertices(), g.num_edges(), st.epoch)
            }
        };
        GraphEntryInfo {
            name: name.to_string(),
            vertices,
            edges,
            bytes: self.bytes as u64,
            dynamic: matches!(self.kind, GraphKind::Dynamic(_)),
            epoch,
        }
    }
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    used: usize,
    clock: u64,
    evictions: u64,
    batches_applied: u64,
    edges_inserted: u64,
    edges_deleted: u64,
}

impl Inner {
    /// Evict LRU entries until `needed` extra bytes fit under `budget`
    /// (0 = unbounded).  Callers first check `needed <= budget` and take
    /// the entry being charged out of the table, so emptying the table
    /// always makes room.
    fn evict_to_fit(&mut self, budget: usize, needed: usize) {
        while budget > 0 && self.used + needed > budget {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some(evicted) = self.entries.remove(&victim) {
                self.used -= evicted.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Advance the access clock.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The entry under `name`, marked most-recently-used.
    fn touch(&mut self, name: &str) -> Result<&mut Entry, ServiceError> {
        let stamp = self.tick();
        let entry = self.entries.get_mut(name).ok_or_else(|| not_found(name))?;
        entry.last_used = stamp;
        Ok(entry)
    }
}

fn not_found(name: &str) -> ServiceError {
    ServiceError::GraphNotFound {
        name: name.to_string(),
    }
}

fn not_dynamic(name: &str) -> ServiceError {
    ServiceError::NotDynamic {
        name: name.to_string(),
    }
}

/// Named graph entries (static CSRs and dynamic streaming graphs) under
/// a memory budget with LRU eviction.
pub struct GraphRegistry {
    /// Budget in bytes; `0` means unbounded.
    budget: usize,
    inner: Mutex<Inner>,
}

impl GraphRegistry {
    /// A registry holding at most `budget_bytes` of graph data (0 =
    /// unbounded).
    pub fn new(budget_bytes: usize) -> Self {
        GraphRegistry {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured budget in bytes (0 = unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Register `graph` as a frozen (static) entry under `name`,
    /// evicting LRU entries as needed.  Re-registering a name replaces
    /// the old graph.  Fails with [`ServiceError::GraphTooLarge`] if the
    /// graph alone exceeds the budget.  The charge covers the graph's
    /// [`Csr::rank_dag`], which its first triangle job builds.
    pub fn register(&self, name: &str, graph: Csr) -> Result<GraphEntryInfo, ServiceError> {
        let bytes = static_cost_bytes(&graph);
        self.insert(name, GraphKind::Static(Arc::new(graph)), bytes)
    }

    /// Register `graph` as a dynamic (streaming) entry under `name`: the
    /// CSR seeds a stinger-backed adjacency whose CC labels and triangle
    /// counts are maintained incrementally by `update` batches.  The
    /// budget charge covers the analytics state plus one epoch snapshot,
    /// and is re-assessed by every batch.
    pub fn register_dynamic(&self, name: &str, graph: Csr) -> Result<GraphEntryInfo, ServiceError> {
        let bytes = dynamic_cost_bytes(graph.num_vertices(), graph.num_edges());
        let analytics = StreamingAnalytics::from_csr(&graph);
        self.insert(
            name,
            GraphKind::Dynamic(Box::new(DynState::new(analytics))),
            bytes,
        )
    }

    fn insert(
        &self,
        name: &str,
        kind: GraphKind,
        bytes: usize,
    ) -> Result<GraphEntryInfo, ServiceError> {
        if self.budget > 0 && bytes > self.budget {
            return Err(ServiceError::GraphTooLarge {
                name: name.to_string(),
                bytes,
                budget: self.budget,
            });
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.remove(name) {
            inner.used -= old.bytes;
        }
        inner.evict_to_fit(self.budget, bytes);
        inner.used += bytes;
        let entry = Entry {
            kind,
            bytes,
            last_used: inner.tick(),
        };
        let info = entry.info(name);
        inner.entries.insert(name.to_string(), entry);
        Ok(info)
    }

    /// Fetch a graph's current CSR by name, marking it most-recently-
    /// used.  For dynamic graphs this is the current epoch's snapshot.
    pub fn get(&self, name: &str) -> Result<Arc<Csr>, ServiceError> {
        let mut inner = self.inner.lock();
        Ok(match &mut inner.touch(name)?.kind {
            GraphKind::Static(csr) => Arc::clone(csr),
            GraphKind::Dynamic(st) => st.snapshot().0,
        })
    }

    /// Resolve a job's graph handle at admission: the CSR it will
    /// compute against and the epoch that CSR materializes, or — for the
    /// incremental engine, which needs no CSR — the answer captured
    /// atomically with the epoch.
    pub fn admit(
        &self,
        name: &str,
        algorithm: Algorithm,
        engine: Engine,
    ) -> Result<JobGraph, ServiceError> {
        let mut inner = self.inner.lock();
        match (&mut inner.touch(name)?.kind, engine) {
            (GraphKind::Static(_), Engine::Incremental) => Err(not_dynamic(name)),
            (GraphKind::Static(csr), _) => Ok(JobGraph::snapshot(Arc::clone(csr), 0)),
            (GraphKind::Dynamic(st), Engine::Incremental) => {
                let (num_vertices, epoch, output) = st.incremental(name, algorithm)?;
                Ok(JobGraph {
                    csr: None,
                    num_vertices,
                    epoch,
                    precomputed: Some(output),
                })
            }
            (GraphKind::Dynamic(st), _) => {
                let (csr, epoch) = st.snapshot();
                Ok(JobGraph::snapshot(csr, epoch))
            }
        }
    }

    /// Apply an edge insert/delete batch to a dynamic graph.
    ///
    /// The batch is planned first (endpoint validation, exact accepted
    /// counts) without mutating anything; the entry is then re-costed at
    /// its post-batch size under the budget — evicting *other* LRU
    /// entries if the growth needs room, rejecting with
    /// [`ServiceError::BudgetExceeded`] if the grown graph alone cannot
    /// fit — and only then is the batch applied.  A rejected batch
    /// leaves the graph, its analytics and its byte charge untouched.
    pub fn update(
        &self,
        name: &str,
        insert: &[(u64, u64)],
        delete: &[(u64, u64)],
    ) -> Result<UpdateOutcome, ServiceError> {
        let ops = edge_ops(insert, delete);
        let mut inner = self.inner.lock();
        let stamp = inner.tick();
        // Out of the table for the batch, so the re-cost's eviction
        // cannot pick the entry it is charging; back in on every path.
        let (key, mut entry) = inner
            .entries
            .remove_entry(name)
            .ok_or_else(|| not_found(name))?;
        entry.last_used = stamp;
        let outcome = self.apply_batch(&mut inner, name, &mut entry, &ops);
        inner.entries.insert(key, entry);
        outcome
    }

    /// Plan → re-cost → apply → commit one batch on `entry`, which is
    /// out of `inner`'s table.
    fn apply_batch(
        &self,
        inner: &mut Inner,
        name: &str,
        entry: &mut Entry,
        ops: &[EdgeOp],
    ) -> Result<UpdateOutcome, ServiceError> {
        let GraphKind::Dynamic(st) = &mut entry.kind else {
            return Err(not_dynamic(name));
        };
        let plan = st
            .analytics
            .plan_batch(ops)
            .map_err(|e| ServiceError::BadRequest {
                message: format!("update for graph `{name}`: {e}"),
            })?;
        let g = st.analytics.graph();
        let new_bytes = dynamic_cost_bytes(
            g.num_vertices(),
            g.num_edges() + plan.inserted - plan.deleted,
        );
        if self.budget > 0 && new_bytes > self.budget {
            return Err(ServiceError::BudgetExceeded {
                name: name.to_string(),
                bytes: new_bytes,
                budget: self.budget,
            });
        }
        inner.used -= entry.bytes;
        inner.evict_to_fit(self.budget, new_bytes);
        inner.used += new_bytes;
        entry.bytes = new_bytes;
        let sw = xmt_trace::Stopwatch::start();
        let applied = st
            .analytics
            .apply_batch(ops)
            .map_err(|e| ServiceError::Internal {
                message: format!("planned batch failed to apply on `{name}`: {e}"),
            })?;
        debug_assert_eq!(applied, plan, "plan/apply divergence on `{name}`");
        let apply_ns = sw.elapsed_ns();
        inner.batches_applied += 1;
        inner.edges_inserted += applied.inserted;
        inner.edges_deleted += applied.deleted;
        Ok(st.commit_batch(applied, new_bytes as u64, apply_ns))
    }

    /// A dynamic graph's recent applied-batch trace records.
    pub fn update_trace(&self, name: &str) -> Result<xmt_trace::UpdateTrace, ServiceError> {
        let mut inner = self.inner.lock();
        match &inner.touch(name)?.kind {
            GraphKind::Dynamic(st) => Ok(st.update_trace(name)),
            GraphKind::Static(_) => Err(not_dynamic(name)),
        }
    }

    /// Drop a graph from the registry (running jobs keep their `Arc`).
    /// Returns whether the name was present.
    pub fn unregister(&self, name: &str) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.remove(name) {
            Some(e) => {
                inner.used -= e.bytes;
                true
            }
            None => false,
        }
    }

    /// All registered graphs, sorted by name.
    pub fn list(&self) -> Vec<GraphEntryInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<GraphEntryInfo> =
            inner.entries.iter().map(|(name, e)| e.info(name)).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used
    }

    /// All counters in one critical section, so a stats reader racing a
    /// register/update/evict cannot observe a torn combination.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock();
        let mut dynamic_graphs = 0;
        let mut snapshot_epochs_live = 0;
        for e in inner.entries.values() {
            if let GraphKind::Dynamic(st) = &e.kind {
                dynamic_graphs += 1;
                snapshot_epochs_live += st.live_epochs();
            }
        }
        RegistryStats {
            graphs: inner.entries.len(),
            dynamic_graphs,
            used_bytes: inner.used,
            budget_bytes: self.budget,
            evictions: inner.evictions,
            batches_applied: inner.batches_applied,
            edges_inserted: inner.edges_inserted,
            edges_deleted: inner.edges_deleted,
            snapshot_epochs_live,
        }
    }
}

/// The bytes charged against the budget for a static entry: the CSR
/// and the rank DAG it can pin.
fn static_cost_bytes(graph: &Csr) -> usize {
    graph.memory_bytes() + RankDag::footprint_bytes(graph.num_vertices(), graph.num_edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use std::sync::atomic::{AtomicBool, Ordering};
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{path, ring};

    fn graph(n: u64) -> Csr {
        build_undirected(&path(n))
    }

    #[test]
    fn register_get_unregister_round_trip() {
        let reg = GraphRegistry::new(0);
        let info = reg.register("p", graph(10)).unwrap();
        assert_eq!(info.vertices, 10);
        assert_eq!(info.edges, 9);
        assert!(!info.dynamic);
        assert_eq!(reg.get("p").unwrap().num_vertices(), 10);
        assert_eq!(
            reg.get("q").unwrap_err(),
            ServiceError::GraphNotFound { name: "q".into() }
        );
        assert!(reg.unregister("p"));
        assert!(!reg.unregister("p"));
        assert_eq!(reg.used_bytes(), 0);
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let unit = static_cost_bytes(&graph(100));
        // Room for two graphs of 100 vertices, not three.
        let reg = GraphRegistry::new(2 * unit + unit / 2);
        reg.register("a", graph(100)).unwrap();
        reg.register("b", graph(100)).unwrap();
        // Touch `a` so `b` is the LRU entry.
        reg.get("a").unwrap();
        reg.register("c", graph(100)).unwrap();
        assert!(reg.get("a").is_ok());
        assert!(reg.get("c").is_ok());
        assert_eq!(
            reg.get("b").unwrap_err(),
            ServiceError::GraphNotFound { name: "b".into() }
        );
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.used_bytes() <= 2 * unit + unit / 2);
    }

    #[test]
    fn oversized_graph_is_rejected_outright() {
        let small = static_cost_bytes(&graph(4));
        let reg = GraphRegistry::new(small);
        let err = reg.register("big", graph(1000)).unwrap_err();
        assert_eq!(err.code(), "graph_too_large");
        assert_eq!(reg.used_bytes(), 0);
    }

    #[test]
    fn replacing_a_name_releases_the_old_bytes() {
        let reg = GraphRegistry::new(0);
        reg.register("g", graph(1000)).unwrap();
        let big = reg.used_bytes();
        reg.register("g", build_undirected(&ring(10))).unwrap();
        assert!(reg.used_bytes() < big);
        assert_eq!(reg.get("g").unwrap().num_vertices(), 10);
    }

    #[test]
    fn stats_snapshot_is_coherent_under_churn() {
        // Regression for the torn-stats shape: the server used to read
        // used/budget/evictions via three separate lock acquisitions, so
        // a register racing the reads could yield a combination that
        // never existed (e.g. used_bytes over budget with the eviction
        // that freed it not yet counted).  `stats()` takes everything
        // under one lock; hammer it against register churn and check the
        // single-lock invariants hold in every observed snapshot.
        //
        // The overlap is made certain, not left to the thread start-up
        // race: the writer starts on the reader's signal and churns (at
        // least 200 registrations, at most a bounded 200 000) until the
        // reader has seen a snapshot with entries.
        let unit = static_cost_bytes(&graph(100));
        let reg = GraphRegistry::new(2 * unit + unit / 2);
        let reading = AtomicBool::new(false);
        let seen = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                while !reading.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..200_000u64 {
                    if i >= 200 && seen.load(Ordering::Acquire) {
                        break;
                    }
                    reg.register(&format!("g{}", i % 4), graph(100)).unwrap();
                }
            });
            reading.store(true, Ordering::Release);
            let mut saw_entries = false;
            while !writer.is_finished() {
                let s = reg.stats();
                assert!(
                    s.used_bytes <= s.budget_bytes,
                    "snapshot shows {} used bytes over the {} budget",
                    s.used_bytes,
                    s.budget_bytes
                );
                assert!(s.graphs <= 2, "budget admits at most two graphs");
                assert_eq!(s.used_bytes, s.graphs * unit);
                saw_entries |= s.graphs > 0;
                seen.store(saw_entries, Ordering::Release);
            }
            writer.join().unwrap();
            assert!(saw_entries, "reader never overlapped the churn");
        });
        let s = reg.stats();
        assert_eq!(s.used_bytes, reg.used_bytes());
        assert!(s.evictions > 0, "churn never evicted");
    }

    #[test]
    fn eviction_does_not_invalidate_held_arcs() {
        let unit = static_cost_bytes(&graph(50));
        let reg = GraphRegistry::new(unit + unit / 2);
        reg.register("a", graph(50)).unwrap();
        let held = reg.get("a").unwrap();
        reg.register("b", graph(50)).unwrap(); // evicts `a`
        assert!(reg.get("a").is_err());
        // The held Arc still works.
        assert_eq!(held.num_vertices(), 50);
        assert_eq!(held.degree(0), 1);
    }

    #[test]
    fn updates_flow_through_a_dynamic_entry() {
        let reg = GraphRegistry::new(0);
        let info = reg.register_dynamic("d", graph(6)).unwrap();
        assert!(info.dynamic);
        assert_eq!(info.epoch, 0);
        assert_eq!(info.edges, 5);

        let out = reg.update("d", &[(0, 2), (0, 3)], &[(4, 5)]).unwrap();
        assert_eq!(out.inserted, 2);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.edges, 6);

        // list() reflects the applied batch and its re-costed charge.
        let row = &reg.list()[0];
        assert_eq!(row.edges, 6);
        assert_eq!(row.epoch, 1);
        assert_eq!(row.bytes, out.bytes);
        assert_eq!(reg.used_bytes() as u64, out.bytes);

        let s = reg.stats();
        assert_eq!(s.dynamic_graphs, 1);
        assert_eq!(s.batches_applied, 1);
        assert_eq!(s.edges_inserted, 2);
        assert_eq!(s.edges_deleted, 1);
    }

    #[test]
    fn update_on_static_entry_is_typed_not_dynamic() {
        let reg = GraphRegistry::new(0);
        reg.register("s", graph(4)).unwrap();
        let err = reg.update("s", &[(0, 2)], &[]).unwrap_err();
        assert_eq!(err.code(), "not_dynamic");
        assert!(matches!(
            reg.update_trace("s").unwrap_err(),
            ServiceError::NotDynamic { .. }
        ));
    }

    #[test]
    fn out_of_range_batch_is_bad_request_and_applies_nothing() {
        let reg = GraphRegistry::new(0);
        reg.register_dynamic("d", graph(4)).unwrap();
        let err = reg.update("d", &[(0, 2), (1, 99)], &[]).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let row = &reg.list()[0];
        assert_eq!(row.edges, 3, "rejected batch mutated the graph");
        assert_eq!(reg.stats().batches_applied, 0);
    }

    #[test]
    fn growth_past_budget_is_rejected_with_nothing_applied() {
        // Budget sized so the seed graph fits but a densifying batch
        // does not — even with nothing else to evict.
        let n = 32u64;
        let seed_bytes = dynamic_cost_bytes(n, n - 1);
        let reg = GraphRegistry::new(seed_bytes + 64);
        reg.register_dynamic("d", graph(n)).unwrap();

        let batch: Vec<(u64, u64)> = (0..n)
            .flat_map(|u| (u + 2..n).map(move |v| (u, v)))
            .collect();
        let err = reg.update("d", &batch, &[]).unwrap_err();
        let ServiceError::BudgetExceeded {
            name,
            bytes,
            budget,
        } = err
        else {
            panic!("expected budget_exceeded, got {err:?}");
        };
        assert_eq!(name, "d");
        assert!(bytes > budget);
        // Nothing applied, nothing re-charged.
        let row = &reg.list()[0];
        assert_eq!(row.edges, n - 1);
        assert_eq!(row.epoch, 0);
        assert_eq!(reg.used_bytes(), seed_bytes);
        assert_eq!(reg.stats().batches_applied, 0);

        // A batch that fits still goes through afterwards.
        let out = reg.update("d", &[(0, 2)], &[]).unwrap();
        assert_eq!(out.inserted, 1);
    }

    #[test]
    fn grown_graph_evicts_others_and_is_evictable_at_new_size() {
        let n = 64u64;
        let dyn_seed = dynamic_cost_bytes(n, n - 1);
        let unit = static_cost_bytes(&graph(100));
        // Room for the dynamic seed plus one static unit, with slack
        // smaller than the batch growth below.
        let reg = GraphRegistry::new(dyn_seed + unit + 8);
        reg.register_dynamic("d", graph(n)).unwrap();
        reg.register("s", graph(100)).unwrap();

        // Grow `d` by enough edges that `s` must be evicted to make
        // room (each new edge costs 44 bytes under the dynamic model).
        let batch: Vec<(u64, u64)> = (0..n - 2).map(|u| (u, u + 2)).collect();
        let out = reg.update("d", &batch, &[]).unwrap();
        assert_eq!(out.inserted, n - 2);
        assert!(
            reg.get("s").is_err(),
            "growth did not evict the LRU static entry"
        );
        assert_eq!(reg.stats().evictions, 1);
        assert_eq!(reg.used_bytes() as u64, out.bytes);

        // The grown entry is now LRU-evictable at its *new* size: a
        // static registration that needs the space pushes it out.
        reg.register("big", graph(100)).unwrap();
        assert!(
            reg.get("d").is_err(),
            "grown dynamic entry was not evictable at its new size"
        );
        assert_eq!(reg.used_bytes(), unit);
    }

    #[test]
    fn admit_serves_incremental_from_the_maintained_state() {
        let reg = GraphRegistry::new(0);
        reg.register_dynamic("d", graph(5)).unwrap();
        let jg = reg.admit("d", Algorithm::Cc, Engine::Incremental).unwrap();
        assert_eq!(jg.epoch, 0);
        assert_eq!(
            jg.precomputed,
            Some(JobOutput::Labels(vec![0; 5])),
            "path graph is one component"
        );

        // Disconnect vertex 4; the incremental answer tracks it.
        reg.update("d", &[], &[(3, 4)]).unwrap();
        let jg = reg.admit("d", Algorithm::Cc, Engine::Incremental).unwrap();
        assert_eq!(jg.epoch, 1);
        assert_eq!(jg.precomputed, Some(JobOutput::Labels(vec![0, 0, 0, 0, 4])));
        // An incremental read builds no snapshot: the vertex count rides
        // along instead, and no epoch is pinned.
        assert!(jg.csr.is_none());
        assert_eq!(jg.num_vertices, 5);
        assert_eq!(reg.stats().snapshot_epochs_live, 0);

        // Static entries refuse the incremental engine, typed.
        reg.register("s", graph(5)).unwrap();
        assert!(matches!(
            reg.admit("s", Algorithm::Cc, Engine::Incremental),
            Err(ServiceError::NotDynamic { .. })
        ));
        // Non-incremental engines on dynamic graphs get the snapshot.
        let jg = reg.admit("d", Algorithm::Cc, Engine::Bsp).unwrap();
        assert_eq!(jg.epoch, 1);
        assert!(jg.precomputed.is_none());
        assert_eq!(jg.csr.expect("snapshot").num_edges(), 3);
    }

    #[test]
    fn snapshots_isolate_jobs_from_later_batches() {
        let reg = GraphRegistry::new(0);
        reg.register_dynamic("d", graph(8)).unwrap();
        let before = reg.admit("d", Algorithm::Cc, Engine::Bsp).unwrap();
        reg.update("d", &[(0, 7)], &[]).unwrap();
        let after = reg.admit("d", Algorithm::Cc, Engine::Bsp).unwrap();
        assert_eq!(before.epoch, 0);
        assert_eq!(after.epoch, 1);
        let (old, new) = (before.csr.expect("snapshot"), after.csr.expect("snapshot"));
        assert_eq!(old.num_edges(), 7, "pre-batch snapshot mutated");
        assert_eq!(new.num_edges(), 8);
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(reg.stats().snapshot_epochs_live, 2);
        // Counted at the call: the dropped epoch is gone from the very
        // next `stats`, with no snapshot or batch in between.
        drop(old);
        assert_eq!(reg.stats().snapshot_epochs_live, 1);
    }

    #[test]
    fn update_trace_records_batches_in_order() {
        let reg = GraphRegistry::new(0);
        reg.register_dynamic("d", graph(6)).unwrap();
        reg.update("d", &[(0, 2)], &[]).unwrap();
        reg.update("d", &[], &[(0, 2)]).unwrap();
        let trace = reg.update_trace("d").unwrap();
        assert_eq!(trace.graph, "d");
        if xmt_trace::ENABLED {
            assert_eq!(trace.updates.len(), 2);
            assert_eq!(trace.updates[0].epoch, 1);
            assert_eq!(trace.updates[0].inserted, 1);
            assert_eq!(trace.updates[1].epoch, 2);
            assert_eq!(trace.updates[1].deleted, 1);
        } else {
            assert!(trace.updates.is_empty());
        }
    }
}
