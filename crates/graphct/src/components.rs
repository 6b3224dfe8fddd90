//! Shared-memory connected components (Shiloach-Vishkin style).
//!
//! The paper (§III): "The shared memory algorithm in GraphCT, based on
//! Shiloach-Vishkin, considers all edges in all iterations.  When a new
//! component label is found, the label is updated and available to be
//! read by other threads.  In this way, new component labels can
//! propagate the graph within an iteration."
//!
//! Each iteration sweeps every arc, hooking the larger label onto the
//! smaller with an atomic min, then pointer-jumps every vertex's label to
//! its representative's label (compress).  Because updated labels are
//! immediately visible, convergence takes far fewer iterations than the
//! BSP variant — 6 vs 13 on the paper's RMAT graph.

use std::sync::atomic::{AtomicU64, Ordering};

use xmt_graph::{Csr, VertexId};
use xmt_model::{PhaseCounts, Recorder};
use xmt_par::atomic::fetch_min;
use xmt_par::parallel_for;
use xmt_par::pfor::default_chunk;

use crate::Ctx;

/// Compute component labels (each vertex gets the minimum vertex id of
/// its component) on the fixed executor, untraced and uninstrumented.
pub fn connected_components(g: &Csr) -> Vec<VertexId> {
    connected_components_with(g, &mut Ctx::default())
}

/// [`connected_components`] under an explicit [`Ctx`].
///
/// * `ctx.exec` — labels are identical across executors (the atomic-min
///   hook is order-independent); only the sweep count until fixpoint may
///   differ by a race.
/// * `ctx.rec` — one `"iteration"` phase per sweep (observed = number of
///   label updates in the sweep).
/// * `ctx.sink` — one wall-clock trace record per sweep (active =
///   vertices swept, messages = label updates), the same Fig. 1-shaped
///   series a BSP run yields.
pub fn connected_components_with(g: &Csr, ctx: &mut Ctx<'_>) -> Vec<VertexId> {
    let Ctx { exec, rec, sink } = ctx;
    let exec = &*exec;
    let workers = exec.workers();
    // Const-folds to `false` in feature-off builds: no clocks, no
    // records, hot sweeps unchanged.
    let tracing = xmt_trace::ENABLED && sink.is_some();
    let n = g.num_vertices() as usize;
    let labels: Vec<AtomicU64> = (0..n).map(|v| AtomicU64::new(v as u64)).collect();

    // Init phase: one write per vertex.
    if let Some(r) = rec.as_deref_mut() {
        let mut c = PhaseCounts::with_items(n as u64);
        c.writes = n as u64;
        c.charge_loop_overhead(default_chunk(n, 1) as u64);
        c.barriers = 1;
        r.push("init", 0, c, n as u64);
    }

    let mut iteration = 0u64;
    loop {
        let changed = AtomicU64::new(0);
        let mut sweep_watch = tracing.then(xmt_trace::Stopwatch::start);

        // Hook: for every arc (u, v) pull the smaller label across.
        // Updated labels are read by later arcs in the SAME sweep —
        // the label-propagation behaviour the paper highlights.
        // Both sweeps count per loop chunk and add once per chunk: a
        // counter line shared by every vertex costs more than the sweep.
        let sweep_chunk = default_chunk(n, workers);
        exec.pfor_chunked(0, n, sweep_chunk, |_, range| {
            let mut updates = 0u64;
            for v in range {
                // Relaxed (all label loads in this sweep): deliberately racy
                // reads of a monotonically decreasing label array — a stale
                // value can only delay convergence, never corrupt it, and
                // the fixpoint loop re-checks until no sweep changes a label.
                let lv = labels[v].load(Ordering::Relaxed);
                for &u in g.neighbors(v as u64) {
                    let lu = labels[u as usize].load(Ordering::Relaxed); // Relaxed: monotone label race, see above
                    if lu < lv {
                        updates += fetch_min(&labels[v], lu) as u64;
                    } else if lv < lu {
                        updates += fetch_min(&labels[u as usize], lv) as u64;
                    }
                }
            }
            // Relaxed: convergence counter, read post-join.
            changed.fetch_add(updates, Ordering::Relaxed);
        });

        let hook_ns = sweep_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);

        // Compress: pointer-jump labels to their representative.
        let jumps = AtomicU64::new(0);
        exec.pfor_chunked(0, n, sweep_chunk, |_, range| {
            let mut chunk_hops = 0u64;
            for v in range {
                // Relaxed: same monotone-label argument as the hook sweep —
                // stale reads chase a shorter chain, the next sweep retries.
                let mut l = labels[v].load(Ordering::Relaxed);
                let mut hops = 0u64;
                loop {
                    let ll = labels[l as usize].load(Ordering::Relaxed); // Relaxed: monotone label race
                    if ll == l {
                        break;
                    }
                    l = ll;
                    hops += 1;
                }
                if hops > 0 {
                    // Relaxed: only ever lowers the label; read post-join.
                    labels[v].store(l, Ordering::Relaxed);
                    chunk_hops += hops;
                }
            }
            jumps.fetch_add(chunk_hops, Ordering::Relaxed); // Relaxed: stats, read post-join
        });

        // Relaxed: both sweeps joined above; all counter updates
        // happen-before these reads.
        let changed = changed.load(Ordering::Relaxed);
        if let Some(r) = rec.as_deref_mut() {
            let arcs = g.num_arcs();
            let mut c = PhaseCounts::with_items(arcs.max(n as u64));
            // Hook sweep: read L[v] once per vertex, L[u] per arc,
            // a compare per arc, an atomic min per improvement.
            c.reads = n as u64 + arcs;
            c.alu_ops = arcs;
            c.atomics = changed;
            // Compress: each vertex reads its own label and its
            // representative's label at least once; extra reads per hop.
            c.reads += 2 * n as u64 + jumps.load(Ordering::Relaxed); // Relaxed: post-join read
            c.writes += jumps.load(Ordering::Relaxed).min(n as u64); // Relaxed: post-join read
            c.charge_loop_overhead(default_chunk(n, 1) as u64);
            c.barriers = 2; // hook and compress are separate sweeps
            r.push("iteration", iteration, c, changed);
        }
        if tracing {
            if let Some(sk) = sink.as_deref_mut() {
                // Hook is the compute phase, compress the exchange-like
                // cleanup; every sweep touches all n vertices (the
                // "considers all edges in all iterations" shape the
                // per-iteration figure exists to show).
                let compress_ns = sweep_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);
                sk.record(xmt_trace::SuperstepTrace {
                    superstep: iteration,
                    active: n as u64,
                    messages_sent: changed,
                    messages_generated: g.num_arcs(),
                    messages_delivered: changed,
                    compute_ns: hook_ns,
                    exchange_ns: compress_ns,
                    total_ns: hook_ns + compress_ns,
                    ..xmt_trace::SuperstepTrace::default()
                });
            }
        }
        iteration += 1;
        if changed == 0 {
            break;
        }
    }

    labels.into_iter().map(AtomicU64::into_inner).collect()
}

/// Double-buffered ("Jacobi") label propagation: every sweep reads the
/// *previous* sweep's labels only, exactly like a BSP superstep.
///
/// This isolates the paper's §VI mechanism: "once a vertex discovers its
/// label has changed, that new information is available to all of its
/// neighbors immediately" in the shared-memory (Gauss-Seidel-style)
/// algorithm, but not in BSP.  With the propagation disabled, the
/// iteration count roughly doubles — compare via `ablation_labelprop`.
pub fn connected_components_jacobi(g: &Csr, mut rec: Option<&mut Recorder>) -> Vec<VertexId> {
    let n = g.num_vertices() as usize;
    let mut current: Vec<VertexId> = (0..n as u64).collect();
    let mut next: Vec<VertexId> = current.clone();

    if let Some(r) = rec.as_deref_mut() {
        let mut c = PhaseCounts::with_items(n as u64);
        c.writes = 2 * n as u64;
        c.charge_loop_overhead(default_chunk(n, 1) as u64);
        c.barriers = 1;
        r.push("init", 0, c, n as u64);
    }

    let mut iteration = 0u64;
    loop {
        let changed = AtomicU64::new(0);
        {
            let current_ref = &current;
            let next_base = next.as_mut_ptr() as usize;
            parallel_for(0, n, |v| {
                let mut best = current_ref[v];
                for &u in g.neighbors(v as u64) {
                    best = best.min(current_ref[u as usize]);
                }
                // Pointer-jump through the *old* labels (still stale data).
                let mut l = best;
                loop {
                    let ll = current_ref[l as usize];
                    if ll >= l {
                        break;
                    }
                    l = ll;
                }
                if l != current_ref[v] {
                    // Relaxed: convergence counter, read post-join.
                    changed.fetch_add(1, Ordering::Relaxed);
                }
                // SAFETY: one writer per index.
                unsafe { *(next_base as *mut VertexId).add(v) = l };
            });
        }
        // Relaxed: the sweep joined above; updates happen-before this.
        let changed = changed.load(Ordering::Relaxed);
        if let Some(r) = rec.as_deref_mut() {
            let arcs = g.num_arcs();
            let mut c = PhaseCounts::with_items(arcs.max(n as u64));
            c.reads = n as u64 + arcs + 2 * n as u64;
            c.alu_ops = arcs;
            c.writes = n as u64;
            c.charge_loop_overhead(default_chunk(n, 1) as u64);
            c.barriers = 1;
            r.push("iteration", iteration, c, changed);
        }
        std::mem::swap(&mut current, &mut next);
        iteration += 1;
        if changed == 0 {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{bridged_cliques, disjoint_cliques, path, ring, star};
    use xmt_graph::validate::validate_components;

    /// Components in a min-id labeling: the vertices that are their own label.
    fn roots(labels: &[VertexId]) -> usize {
        (0..labels.len())
            .filter(|&v| labels[v] == v as VertexId)
            .count()
    }

    #[test]
    fn single_component_families() {
        for el in [path(50), ring(33), star(40)] {
            let g = build_undirected(&el);
            let labels = connected_components(&g);
            validate_components(&g, &labels).unwrap();
            assert_eq!(roots(&labels), 1);
        }
    }

    #[test]
    fn disjoint_cliques_have_k_components() {
        let g = build_undirected(&disjoint_cliques(7, 5));
        let labels = connected_components(&g);
        validate_components(&g, &labels).unwrap();
        assert_eq!(roots(&labels), 7);
    }

    #[test]
    fn bridge_merges_components() {
        let g = build_undirected(&bridged_cliques(6));
        let labels = connected_components(&g);
        assert_eq!(roots(&labels), 1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let mut el = xmt_graph::EdgeList::new(10);
        el.push(2, 3);
        let g = build_undirected(&el);
        let labels = connected_components(&g);
        validate_components(&g, &labels).unwrap();
        assert_eq!(roots(&labels), 9);
    }

    #[test]
    fn matches_serial_reference_on_random_graph() {
        let el = xmt_graph::gen::er::gnm(2000, 3000, 11);
        let g = build_undirected(&el);
        let labels = connected_components(&g);
        let reference = xmt_graph::validate::reference_components(&g);
        assert_eq!(labels, reference);
    }

    #[test]
    fn instrumented_run_records_iterations() {
        let g = build_undirected(&path(1000));
        let mut rec = Recorder::new();
        let labels = connected_components_with(&g, &mut Ctx::recording(&mut rec));
        validate_components(&g, &labels).unwrap();
        let iters = rec.steps("iteration");
        assert!(iters >= 2, "a path needs multiple sweeps");
        // Last iteration observed 0 changes (the convergence check).
        let last = rec.with_label("iteration").last().unwrap();
        assert_eq!(last.observed, 0);
        // Work per iteration is roughly constant (the paper's point about
        // the shared-memory algorithm's execution profile).
        let reads: Vec<u64> = rec
            .with_label("iteration")
            .map(|r| r.counts.reads)
            .collect();
        let min = *reads.iter().min().unwrap() as f64;
        let max = *reads.iter().max().unwrap() as f64;
        assert!(max / min < 3.0, "per-iteration work should be flat");
    }

    #[test]
    fn jacobi_variant_matches_but_needs_more_iterations() {
        let g = build_undirected(&path(128));
        let mut gs_rec = Recorder::new();
        let gauss_seidel = connected_components_with(&g, &mut Ctx::recording(&mut gs_rec));
        let mut j_rec = Recorder::new();
        let jacobi = connected_components_jacobi(&g, Some(&mut j_rec));
        assert_eq!(gauss_seidel, jacobi);
        validate_components(&g, &jacobi).unwrap();
        assert!(
            j_rec.steps("iteration") > gs_rec.steps("iteration"),
            "jacobi {} vs gauss-seidel {}",
            j_rec.steps("iteration"),
            gs_rec.steps("iteration")
        );
    }

    #[test]
    fn jacobi_variant_validates_on_random_graphs() {
        for seed in 0..3 {
            let el = xmt_graph::gen::er::gnm(800, 1600, seed);
            let g = build_undirected(&el);
            let labels = connected_components_jacobi(&g, None);
            validate_components(&g, &labels).unwrap();
            assert_eq!(labels, connected_components(&g));
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_run_yields_one_record_per_iteration() {
        let g = build_undirected(&path(1000));
        let mut rec = Recorder::new();
        let reference = connected_components_with(&g, &mut Ctx::recording(&mut rec));
        let mut sink = xmt_trace::TraceSink::new();
        let labels = connected_components_with(&g, &mut Ctx::tracing(&mut sink));
        assert_eq!(labels, reference);
        let trace = sink.finish();
        assert_eq!(trace.len() as u64, rec.steps("iteration"));
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(t.superstep, i as u64);
            assert_eq!(t.active, 1000);
            assert_eq!(t.total_ns, t.compute_ns + t.exchange_ns);
        }
        // The convergence sweep changes nothing.
        assert_eq!(trace.last().unwrap().messages_sent, 0);
    }

    #[test]
    fn label_propagation_converges_quickly_on_small_world() {
        // RMAT graphs converge in a handful of iterations.
        let p = xmt_graph::gen::rmat::RmatParams::graph500(12);
        let el = xmt_graph::gen::rmat::rmat_edges(&p, 3);
        let g = build_undirected(&el);
        let mut rec = Recorder::new();
        let labels = connected_components_with(&g, &mut Ctx::recording(&mut rec));
        validate_components(&g, &labels).unwrap();
        assert!(
            rec.steps("iteration") <= 8,
            "took {} iterations",
            rec.steps("iteration")
        );
    }
}
