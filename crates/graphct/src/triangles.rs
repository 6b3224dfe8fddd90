//! Shared-memory triangle counting and clustering coefficients.
//!
//! The paper (§V): "the algorithm is expressed as a triply-nested loop.
//! The outer loop iterates over all vertices.  The middle loop iterates
//! over all neighbors of a vertex.  The inner-most loop iterates over all
//! neighbors of the neighbors of a vertex."  With sorted adjacency the
//! innermost loop is a merge intersection.  The shared-memory version
//! "only produces a write when a triangle is detected" — the property
//! that makes it 181× lighter on writes than the BSP variant.
//!
//! Two composable optimizations sit on top of that baseline:
//!
//! * **Degree-ordered direction, in rank space**
//!   ([`xmt_graph::ops::dag::RankDag`]): the default entry points sweep
//!   the graph's [`Csr::rank_dag`], which orients every edge up the
//!   `(degree, id)` order and renames vertices to their `u32` ranks.
//!   The graph builds it on its first count and keeps it, so every
//!   later count over the graph pays for the sweep alone.  The sweep
//!   groups wedges by their middle vertex `u`: it marks `N⁺(u)` once,
//!   then for each in-arc `v → u` probes only the part of `N⁺(v)`
//!   ranked above `u` — one probe per wedge, `Σ C(d⁺(v), 2)` in all —
//!   and finds each triangle once.
//! * **Intersection strategies** ([`IntersectStrategy`]): merge walk
//!   (the paper's shape) or hash marking (the default: the `tc.c`
//!   exemplar's mark array of one byte per vertex, set and cleared with
//!   the middle vertex's out-list).  The sweep prefetches each suffix
//!   eight in-arcs before probing it: the XMT hid those misses
//!   behind its streams, a commodity core has to fetch ahead.
//!   Mark arrays live in a per-worker [`TcScratch`] pool, so the sweep
//!   itself performs **zero heap allocations** (the `zero_alloc` gate
//!   pins this for the hash strategy).
//!
//! Rank order puts the heavy vertices last, so the sweep claims a small
//! constant chunk of middle vertices under either schedule: the host's
//! worker count moves neither the load balance's grain nor the model's
//! loop-overhead charge.
//!
//! The same sweep with per-vertex credit, [`triangles_per_vertex`], is
//! the one static count behind the clustering coefficients here and the
//! streaming tallies of `stinger-lite`.  The paper-faithful `v < u < w`
//! id-order merge enumeration survives as [`count_triangles_idorder`];
//! the model-prediction figures keep using it so the reproduced numbers
//! stay byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};

use xmt_graph::ops::dag::RankDag;
use xmt_graph::{Csr, IntersectStrategy, VertexId};
use xmt_model::{PhaseCounts, Recorder};
use xmt_par::atomic::as_atomic_u64;
use xmt_par::pfor::default_chunk;
use xmt_par::{Executor, MarkScratch, WorkerScratch};

use crate::Ctx;

/// In-arcs ahead of the probing one whose suffix the sweep prefetches.
const LOOKAHEAD: usize = 8;

/// Middle vertices per claimed chunk of the DAG sweep.  The top ranks
/// hold the hubs, and a chunk of [`default_chunk`]'s up to 4096 vertices
/// would leave them all to one worker.
const SWEEP_CHUNK: usize = 256;

/// Reusable per-worker scratch for the hash-marking strategies.
///
/// Create once, [`prepare`](Self::prepare) outside the parallel region,
/// and hand to [`count_triangles_dag`] as many times as you like: after
/// the first call the sweep allocates nothing.
pub struct TcScratch {
    marks: WorkerScratch<MarkScratch>,
}

impl Default for TcScratch {
    fn default() -> Self {
        TcScratch::new()
    }
}

impl TcScratch {
    /// An empty pool (sized on first [`prepare`](Self::prepare)).
    pub fn new() -> Self {
        TcScratch {
            marks: WorkerScratch::new(1),
        }
    }

    /// Size the pool for `workers` workers and `n` vertices.  Must be
    /// called before the parallel region — growing a slot inside the
    /// sweep would put an allocation on the hot path.
    pub fn prepare(&mut self, workers: usize, n: usize) {
        if self.marks.len() < workers.max(1) {
            self.marks = WorkerScratch::new(workers);
        }
        for m in self.marks.iter_mut() {
            m.ensure(n);
        }
    }
}

/// Count each triangle of the undirected graph exactly once.
///
/// Default fast path: degree-ordered DAG sweep with
/// [`IntersectStrategy::Hash`] marking, on the fixed executor,
/// uninstrumented.
pub fn count_triangles(g: &Csr) -> u64 {
    count_triangles_with(g, IntersectStrategy::Hash, &mut Ctx::default())
}

/// Degree-ordered DAG triangle count with an explicit strategy, under
/// an explicit [`Ctx`].
///
/// * `ctx.exec` — fixed and guided chunking time level here at RMAT
///   scale 14 and 17 on two threads (EXPERIMENTS.md); the service's
///   GraphCT triangle job runs on `Ctx::default()`, which is fixed.  The
///   count is identical across executors.
/// * `ctx.rec` — a single `"count"` phase (observed = triangles found)
///   with strategy-aware operation charging.
/// * `ctx.sink` — unused: a one-shot kernel has no per-level structure
///   to trace.
///
/// Sweeps the graph's [`Csr::rank_dag`] with a fresh scratch pool; for
/// an allocation-free steady state keep a [`TcScratch`] and call
/// [`count_triangles_dag`] directly.
pub fn count_triangles_with(g: &Csr, strategy: IntersectStrategy, ctx: &mut Ctx<'_>) -> u64 {
    count_triangles_dag(g.rank_dag(), strategy, ctx, &mut TcScratch::new())
}

/// Sweep a prebuilt [`RankDag`].  With a [`prepare`](TcScratch::prepare)d
/// scratch this performs zero heap allocations — the steady-state entry
/// point for repeated counts over one graph.
pub fn count_triangles_dag(
    dag: &RankDag,
    strategy: IntersectStrategy,
    ctx: &mut Ctx<'_>,
    scratch: &mut TcScratch,
) -> u64 {
    let rec = ctx.rec.as_deref_mut();
    dag_sweep(dag, strategy, rec, None, &ctx.exec, scratch)
}

/// Triangles through each vertex of the undirected graph: the hash
/// sweep of [`count_triangles`] crediting every triangle at its three
/// corners (so the tallies sum to three times the count).  The sweep
/// credits ranks; the tallies come back by vertex id.  `ctx` as in
/// [`count_triangles_with`].
pub fn triangles_per_vertex(g: &Csr, ctx: &mut Ctx<'_>) -> Vec<u64> {
    let dag = g.rank_dag();
    let mut by_rank = vec![0u64; dag.num_vertices()];
    let (rec, hash) = (ctx.rec.as_deref_mut(), IntersectStrategy::Hash);
    let tallies = Some(as_atomic_u64(&mut by_rank));
    dag_sweep(dag, hash, rec, tallies, &ctx.exec, &mut TcScratch::new());
    let mut tri = vec![0u64; by_rank.len()];
    for (&v, &t) in dag.order().iter().zip(&by_rank) {
        tri[v as usize] = t;
    }
    tri
}

/// Per-vertex local clustering coefficients plus the global count: a
/// view over [`triangles_per_vertex`].
///
/// `cc[v] = 2·tri(v) / (d(v)·(d(v)−1))`, 0 for degree < 2.
pub fn clustering_coefficients(g: &Csr) -> (Vec<f64>, u64) {
    let tri = triangles_per_vertex(g, &mut Ctx::default());
    let cc = (0..g.num_vertices())
        .map(|v| {
            let d = g.degree(v);
            if d < 2 {
                0.0
            } else {
                2.0 * tri[v as usize] as f64 / (d * (d - 1)) as f64
            }
        })
        .collect();
    (cc, tri.iter().sum::<u64>() / 3)
}

/// The middle-vertex sweep: for each rank `u` and each in-arc `(v, s)`
/// of it, count `|N⁺(u) ∩ N⁺(v)[s..]|` with the chosen strategy.  Every
/// triangle `v < u < w` is found once, at its middle rank `u`, and is
/// credited at its three corners in `tri` (indexed by rank) when that is
/// given.
fn dag_sweep(
    dag: &RankDag,
    strategy: IntersectStrategy,
    rec: Option<&mut Recorder>,
    tri: Option<&[AtomicU64]>,
    exec: &Executor,
    scratch: &mut TcScratch,
) -> u64 {
    let n = dag.num_vertices();
    scratch.prepare(exec.workers(), n);

    let total = AtomicU64::new(0);
    // probes: strategy-dependent compare/probe count; mark_writes: mark
    // stores (hash only).  Both feed the model's PhaseCounts.
    let probes_total = AtomicU64::new(0);
    let marks_total = AtomicU64::new(0);

    let (marks, hash) = (&scratch.marks, strategy == IntersectStrategy::Hash);
    exec.pfor_chunked(0, n, SWEEP_CHUNK, |worker, range| {
        // SAFETY: the pool runs at most one thread per worker id within
        // this parallel region (WorkerScratch's contract).
        let ms = unsafe { marks.get(worker) };
        let mut local = 0u64;
        let mut probes = 0u64;
        let mut markw = 0u64;
        // The chunk's in-arcs as one slice, so the look-ahead runs on
        // across middle vertices.
        let arcs = dag.ins_of(range.clone());
        let mut end = 0;
        for u in range {
            let first = end;
            end += dag.ins(u).len();
            if first == end {
                continue; // `u` is the middle of no wedge
            }
            let nu = dag.out(u);
            // Hash marking pays d⁺(u) mark stores once per middle vertex
            // and then probes each wedge in O(1).
            let marked = if hash { nu } else { &[] };
            markw += marked.len() as u64;
            ms.mark(marked);
            let mut u_found = 0u64;
            for k in first..end {
                if let Some(&(v, s)) = arcs.get(k + LOOKAHEAD) {
                    prefetch(dag.out(v as usize)[s as usize..].as_ptr());
                }
                let (v, s) = arcs[k];
                let above = &dag.out(v as usize)[s as usize..];
                let found = match strategy {
                    IntersectStrategy::Merge => intersect_merge(nu, above, tri, &mut probes),
                    IntersectStrategy::Hash => intersect_hash(ms, above, tri, &mut probes),
                };
                if found > 0 {
                    u_found += found;
                    if let Some(tri) = tri {
                        // Relaxed (all tri[] adds): pure per-vertex
                        // tallies, read only after the sweep joins.
                        tri[v as usize].fetch_add(found, Ordering::Relaxed);
                    }
                }
            }
            ms.unmark(marked);
            if u_found > 0 {
                local += u_found;
                if let Some(tri) = tri {
                    // Relaxed: tally, read post-join (as above).
                    tri[u].fetch_add(u_found, Ordering::Relaxed);
                }
            }
        }
        if local > 0 {
            // Relaxed: tally accumulator, read only after the join.
            total.fetch_add(local, Ordering::Relaxed);
        }
        probes_total.fetch_add(probes, Ordering::Relaxed); // Relaxed: stats, post-join
        marks_total.fetch_add(markw, Ordering::Relaxed); // Relaxed: stats, post-join
    });

    // Relaxed: the parallel loop joined; adds happen-before these reads.
    let count = total.load(Ordering::Relaxed);
    if let Some(r) = rec {
        let probes = probes_total.load(Ordering::Relaxed); // Relaxed: stats, post-join
        let markw = marks_total.load(Ordering::Relaxed); // Relaxed: stats, post-join
        let mut c = PhaseCounts::with_items(dag.num_arcs());
        // Each probe reads one adjacency word or mark; the sweep also
        // streams every in-arc once.  Marks are plain stores (the host's
        // unmark pass is not the model's, DESIGN.md §16); each found
        // triangle costs one shared (atomic) tally write.
        c.reads = probes + dag.num_arcs();
        c.alu_ops = probes;
        c.writes = count + markw;
        c.atomics = count;
        c.charge_loop_overhead(SWEEP_CHUNK as u64);
        c.barriers = 1;
        r.push("count", 0, c, count);
    }
    count
}

/// Merge-walk `|a ∩ b|` (sorted lists), crediting third corners into
/// `tri`; `probes` accrues one compare per merge step plus setup.
fn intersect_merge(a: &[u32], b: &[u32], tri: Option<&[AtomicU64]>, probes: &mut u64) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    *probes += 2;
    while i < a.len() && j < b.len() {
        *probes += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                if let Some(tri) = tri {
                    // Relaxed: per-vertex tally, read after the join.
                    tri[a[i] as usize].fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Probe every element of `b` against the open window of marks (the
/// marked list was set by [`MarkScratch::mark`]); one byte read per
/// element.
fn intersect_hash(ms: &MarkScratch, b: &[u32], tri: Option<&[AtomicU64]>, probes: &mut u64) -> u64 {
    *probes += b.len() as u64;
    let Some(tri) = tri else {
        return b.iter().map(|&w| u64::from(ms.contains(w.into()))).sum();
    };
    let mut count = 0u64;
    for &w in b {
        if ms.contains(w.into()) {
            count += 1;
            // Relaxed: per-vertex tally, read after the join.
            tri[w as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
    count
}

/// Hint the cache to fetch the line holding `p` (a no-op off x86_64).
#[inline(always)]
fn prefetch<T>(p: *const T) {
    // SAFETY: a prefetch is a hint: it never faults, whatever the address.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The original §V kernel: `v < u < w` id-order enumeration over the
/// undirected graph with a merge intersection.  Kept byte-identical in
/// both walk and charging — the reproduced figures and the
/// instrumentation tests pin its exact operation counts — and used as
/// the reference the DAG strategies are agreement-tested against.
/// `ctx.exec` and `ctx.rec` as in [`count_triangles_with`].
pub fn count_triangles_idorder(g: &Csr, ctx: &mut Ctx<'_>) -> u64 {
    let (rec, exec) = (ctx.rec.as_deref_mut(), &ctx.exec);
    let n = g.num_vertices() as usize;
    let total = AtomicU64::new(0);
    let compares = AtomicU64::new(0);

    exec.pfor(0, n, |v| {
        let v = v as u64;
        let nv = g.neighbors(v);
        let mut local = 0u64;
        let mut local_cmp = 0u64;
        for &u in nv {
            if u <= v {
                continue;
            }
            // Intersect N(v) ∩ N(u), counting only w > u so each triangle
            // v < u < w is found exactly once.
            let nu = g.neighbors(u);
            let (found, cmp) = intersect_above(nv, nu, u);
            local += found;
            local_cmp += cmp;
        }
        if local > 0 {
            // Relaxed: tally accumulator, read only after the join.
            total.fetch_add(local, Ordering::Relaxed);
        }
        compares.fetch_add(local_cmp, Ordering::Relaxed); // Relaxed: stats, post-join
    });

    // Relaxed: the parallel loop joined; adds happen-before this read.
    let count = total.load(Ordering::Relaxed);
    if let Some(r) = rec {
        let cmp = compares.load(Ordering::Relaxed); // Relaxed: post-join read
        let mut c = PhaseCounts::with_items(g.num_arcs());
        // Each merge step reads one adjacency word and compares; each
        // found triangle costs one (local, then one shared) write.
        c.reads = cmp + g.num_arcs();
        c.alu_ops = cmp;
        c.writes = count;
        c.atomics = count;
        // One worker's chunk: the charge does not depend on the host.
        c.charge_loop_overhead(default_chunk(n, 1) as u64);
        c.barriers = 1;
        r.push("count", 0, c, count);
    }
    count
}

/// Merge-intersect two sorted lists counting common elements `> floor`;
/// returns `(count, comparisons)`.
fn intersect_above(a: &[VertexId], b: &[VertexId], floor: VertexId) -> (u64, u64) {
    let mut i = a.partition_point(|&x| x <= floor);
    let mut j = b.partition_point(|&x| x <= floor);
    let mut count = 0u64;
    let mut cmp = (a.len() - i + b.len() - j) as u64 / 8 + 2; // binary searches
    while i < a.len() && j < b.len() {
        cmp += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (count, cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{
        clique, clique_triangles, disjoint_cliques, grid, path, ring, star,
    };
    use xmt_graph::validate::reference_triangles;

    #[test]
    fn cliques_have_closed_form_counts() {
        for n in [3u64, 4, 5, 8, 12] {
            let g = build_undirected(&clique(n));
            assert_eq!(count_triangles(&g), clique_triangles(n), "K{n}");
        }
    }

    #[test]
    fn triangle_free_families_count_zero() {
        for el in [path(30), star(30), grid(5, 6), ring(8)] {
            let g = build_undirected(&el);
            assert_eq!(count_triangles(&g), 0);
        }
    }

    #[test]
    fn disjoint_cliques_sum() {
        let g = build_undirected(&disjoint_cliques(5, 6));
        assert_eq!(count_triangles(&g), 5 * clique_triangles(6));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4u64 {
            let el = xmt_graph::gen::er::gnm(120, 900, seed);
            let g = build_undirected(&el);
            assert_eq!(count_triangles(&g), reference_triangles(&g), "seed {seed}");
        }
    }

    #[test]
    fn every_strategy_counts_identically_dag_and_idorder() {
        let gnm = (0..3u64).map(|seed| build_undirected(&xmt_graph::gen::er::gnm(150, 1200, seed)));
        for (i, g) in gnm.chain(awkward_graphs()).enumerate() {
            let want = reference_triangles(&g);
            for exec in [Executor::fixed(), Executor::guided()] {
                assert_eq!(
                    count_triangles_idorder(&g, &mut Ctx::on(exec.clone())),
                    want,
                    "idorder graph {i}"
                );
                for s in IntersectStrategy::ALL {
                    assert_eq!(
                        count_triangles_with(&g, s, &mut Ctx::on(exec.clone())),
                        want,
                        "dag/{s:?} graph {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn counts_sweep_the_graphs_one_rank_dag() {
        let p = xmt_graph::gen::rmat::RmatParams::graph500(10);
        let g = build_undirected(&xmt_graph::gen::rmat::rmat_edges(&p, 5));
        let want = reference_triangles(&g);
        // Four threads, released at once, race the first call: one DAG,
        // the right count.
        let start = std::sync::Barrier::new(4);
        let dags: Vec<&RankDag> = std::thread::scope(|s| {
            let race = || {
                start.wait();
                (count_triangles(&g), g.rank_dag())
            };
            let racers: Vec<_> = (0..4).map(|_| s.spawn(race)).collect();
            racers
                .into_iter()
                .map(|t| t.join().unwrap())
                .map(|(count, dag)| {
                    assert_eq!(count, want);
                    dag
                })
                .collect()
        });
        let dag = g.rank_dag();
        assert!(dags.iter().all(|&d| std::ptr::eq(d, dag)));
        assert_eq!(
            triangles_per_vertex(&g, &mut Ctx::default())
                .iter()
                .sum::<u64>(),
            3 * want
        );
        assert!(std::ptr::eq(dag, g.rank_dag()), "a count rebuilt the DAG");
    }

    #[test]
    fn dag_entry_point_recycles_scratch() {
        let el = xmt_graph::gen::er::gnm(200, 1500, 11);
        let g = build_undirected(&el);
        let want = reference_triangles(&g);
        let dag = RankDag::new(&g);
        let exec = Executor::fixed();
        let mut scratch = TcScratch::new();
        for _ in 0..3 {
            for s in IntersectStrategy::ALL {
                assert_eq!(
                    count_triangles_dag(&dag, s, &mut Ctx::on(exec.clone()), &mut scratch),
                    want
                );
            }
        }
    }

    #[test]
    fn clustering_coefficient_of_clique_is_one() {
        let g = build_undirected(&clique(7));
        let (cc, count) = clustering_coefficients(&g);
        assert_eq!(count, clique_triangles(7));
        for &c in &cc {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clustering_coefficient_of_star_is_zero() {
        let g = build_undirected(&star(10));
        let (cc, count) = clustering_coefficients(&g);
        assert_eq!(count, 0);
        assert!(cc.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn per_vertex_counts_sum_to_three_times_total() {
        let el = xmt_graph::gen::er::gnm(80, 800, 3);
        let g = build_undirected(&el);
        let (cc, total) = clustering_coefficients(&g);
        // Reconstruct per-vertex triangle counts from cc.
        let mut sum = 0.0;
        for v in 0..g.num_vertices() {
            let d = g.degree(v);
            if d >= 2 {
                sum += cc[v as usize] * (d * (d - 1)) as f64 / 2.0;
            }
        }
        assert!((sum - 3.0 * total as f64).abs() < 1e-6);
    }

    #[test]
    fn per_vertex_tallies_agree_across_strategies_and_executors() {
        let el = xmt_graph::gen::er::gnm(120, 1000, 5);
        let g = build_undirected(&el);
        let want = triangles_per_vertex(&g, &mut Ctx::default());
        let dag = RankDag::new(&g);
        for s in IntersectStrategy::ALL {
            let mut by_rank = vec![0u64; want.len()];
            let tallies = Some(as_atomic_u64(&mut by_rank));
            let exec = Executor::guided();
            let n = dag_sweep(&dag, s, None, tallies, &exec, &mut TcScratch::new());
            for (r, &v) in dag.order().iter().enumerate() {
                assert_eq!(by_rank[r], want[v as usize], "{s:?} rank {r}");
            }
            assert_eq!(3 * n, want.iter().sum::<u64>(), "{s:?}");
        }
    }

    /// An edge list with self loops (dropped at build), isolated
    /// vertices, equal-degree ties, cliques, stars and RMAT scale 10.
    fn awkward_graphs() -> Vec<Csr> {
        let mut looped = clique(6);
        looped.edges.extend([(0, 0), (4, 4), (7, 7)]);
        looped.edges.push((6, 7));
        looped.num_vertices = 8;
        let mut isolated = disjoint_cliques(3, 5);
        isolated.num_vertices = 40;
        let p = xmt_graph::gen::rmat::RmatParams::graph500(10);
        vec![
            build_undirected(&looped),
            build_undirected(&isolated),
            build_undirected(&ring(12)),
            build_undirected(&grid(6, 7)),
            build_undirected(&clique(9)),
            build_undirected(&star(20)),
            build_undirected(&xmt_graph::gen::rmat::rmat_edges(&p, 2)),
        ]
    }

    #[test]
    fn per_vertex_tallies_match_a_brute_force_wedge_count() {
        for (i, g) in awkward_graphs().iter().enumerate() {
            // Closed wedges centred at each vertex: pairs of neighbours
            // that are themselves adjacent.
            let want: Vec<u64> = (0..g.num_vertices())
                .map(|x| {
                    let nx = g.neighbors(x);
                    let pairs = nx
                        .iter()
                        .enumerate()
                        .flat_map(|(j, &a)| nx[j + 1..].iter().map(move |&b| (a, b)));
                    pairs.filter(|&(a, b)| g.has_arc(a, b)).count() as u64
                })
                .collect();
            for exec in [Executor::fixed(), Executor::guided()] {
                assert_eq!(
                    triangles_per_vertex(g, &mut Ctx::on(exec)),
                    want,
                    "graph {i}"
                );
            }
        }
    }

    #[test]
    fn recorded_counts_are_one_probe_per_wedge() {
        // Serially from the graph: out- and in-degrees under the
        // `(degree, id)` order, and the wedges Σ C(d⁺, 2).
        let p = xmt_graph::gen::rmat::RmatParams::graph500(10);
        let g = build_undirected(&xmt_graph::gen::rmat::rmat_edges(&p, 4));
        let key = |v: VertexId| (g.degree(v), v);
        let (mut arcs, mut wedges, mut marks) = (0, 0, 0);
        for v in 0..g.num_vertices() {
            let up = g.neighbors(v).iter().filter(|&&u| key(v) < key(u)).count() as u64;
            let down = g.neighbors(v).iter().filter(|&&u| key(u) < key(v)).count();
            arcs += up;
            wedges += up * up.saturating_sub(1) / 2;
            if down > 0 {
                marks += up; // a middle vertex marks its out-list once
            }
        }
        let count = reference_triangles(&g);
        let want = PhaseCounts {
            items: arcs,
            alu_ops: wedges + 2 * arcs,
            reads: wedges + arcs,
            writes: count + marks,
            atomics: count,
            hotspot_ops: arcs.div_ceil(SWEEP_CHUNK as u64),
            barriers: 1,
        };
        for exec in [Executor::fixed(), Executor::guided()] {
            let mut rec = Recorder::new();
            let ctx = &mut Ctx {
                exec: exec.clone(),
                rec: Some(&mut rec),
                ..Ctx::default()
            };
            assert_eq!(
                count_triangles_with(&g, IntersectStrategy::Hash, ctx),
                count
            );
            let r = rec.with_label("count").next().unwrap();
            assert_eq!(r.counts, want, "{exec:?}");
            assert_eq!(r.observed, count);
        }
    }

    #[test]
    fn degree_ordering_reduces_intersection_work_on_rmat() {
        // The DAG view iterates every intersection from the low-degree
        // endpoint, so the default path reads far fewer adjacency words
        // than the raw id-order merge enumeration on a hub-heavy graph.
        let p = xmt_graph::gen::rmat::RmatParams::graph500(10);
        let g = build_undirected(&xmt_graph::gen::rmat::rmat_edges(&p, 4));

        let mut raw_rec = Recorder::new();
        let raw = count_triangles_idorder(&g, &mut Ctx::recording(&mut raw_rec));
        let mut dag_rec = Recorder::new();
        let dag = count_triangles_with(
            &g,
            IntersectStrategy::Hash,
            &mut Ctx::recording(&mut dag_rec),
        );
        assert_eq!(raw, dag, "count is order-invariant");

        let raw_reads = raw_rec.with_label("count").next().unwrap().counts.reads;
        let dag_reads = dag_rec.with_label("count").next().unwrap().counts.reads;
        assert!(
            dag_reads < raw_reads,
            "DAG ordering should cut reads: {dag_reads} vs {raw_reads}"
        );
    }

    #[test]
    fn hash_marks_charge_as_writes() {
        let g = build_undirected(&clique(10));
        let mut merge_rec = Recorder::new();
        count_triangles_with(
            &g,
            IntersectStrategy::Merge,
            &mut Ctx::recording(&mut merge_rec),
        );
        let mut hash_rec = Recorder::new();
        count_triangles_with(
            &g,
            IntersectStrategy::Hash,
            &mut Ctx::recording(&mut hash_rec),
        );
        let merge_writes = merge_rec.with_label("count").next().unwrap().counts.writes;
        let hash_writes = hash_rec.with_label("count").next().unwrap().counts.writes;
        assert!(
            hash_writes > merge_writes,
            "mark stores must be charged: {hash_writes} vs {merge_writes}"
        );
    }

    #[test]
    fn instrumented_records_single_phase_with_count() {
        let g = build_undirected(&clique(10));
        let mut rec = Recorder::new();
        let count =
            count_triangles_with(&g, IntersectStrategy::Hash, &mut Ctx::recording(&mut rec));
        assert_eq!(count, clique_triangles(10));
        let r = rec.with_label("count").next().unwrap();
        assert_eq!(r.observed, count);
        assert_eq!(r.counts.atomics, count);
        // Key asymmetry vs BSP: writes ≈ triangles (+ mark stores), not
        // candidate messages.
        assert!(r.counts.reads > r.counts.writes);
    }

    #[test]
    fn idorder_merge_charging_is_unchanged() {
        // The paper-faithful baseline: one shared write per triangle,
        // exactly — the instrumentation contract the figures pin.
        let g = build_undirected(&clique(10));
        let mut rec = Recorder::new();
        let count = count_triangles_idorder(&g, &mut Ctx::recording(&mut rec));
        let r = rec.with_label("count").next().unwrap();
        assert_eq!(count, clique_triangles(10));
        assert_eq!(r.counts.writes, count);
        assert_eq!(r.counts.atomics, count);
    }
}
