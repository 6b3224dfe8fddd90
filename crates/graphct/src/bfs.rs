//! Level-synchronous shared-memory breadth-first search.
//!
//! The paper (§IV): the shared-memory algorithm "enqueues only those
//! vertices that are definitively unmarked and on the frontier" and
//! "only places one copy of each vertex" — discovery is decided by an
//! atomic claim on the distance word, and winners are appended to the
//! next-frontier queue through a shared fetch-and-add cursor (the mild
//! hotspot responsible for the reduced scalability at 128 processors in
//! Fig. 3).  The cost model charges that cursor once per discovery, as
//! the XMT pays it; on the host each loop chunk collects its winners in a
//! small local buffer and reserves queue slots one flush at a time, and
//! sums its edge probes locally — a cache line shared by every item
//! costs a multicore more than the work it counts.
//!
//! Levels are direction-optimized (Beamer): when the frontier's edges
//! outgrow the unexplored edges by `BEAMER_ALPHA`, the level flips to a
//! bottom-up expansion — every *unvisited* vertex probes its neighbors
//! against a dense frontier bitmap and stops at the first hit — and
//! flips back once the frontier thins below `1 / BEAMER_BETA` of the
//! vertices.  Distances and frontier sizes are identical to pure
//! top-down; only the parents (any valid BFS tree) and the edge-probe
//! counts differ.  The same alpha/beta hysteresis drives the BSP
//! engine's `Delivery::Auto`.

use std::sync::atomic::{AtomicU64, Ordering};

use xmt_graph::{Csr, VertexId, BEAMER_ALPHA, BEAMER_BETA, NO_VERTEX};
use xmt_model::PhaseCounts;
use xmt_par::atomic::claim;
use xmt_par::pfor::default_chunk;

use crate::Ctx;

/// Distances and BFS-tree parents from a source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// `dist[v]` is the hop count from the source (`u64::MAX` if
    /// unreachable).
    pub dist: Vec<u64>,
    /// `parent[v]` is the BFS-tree parent (`NO_VERTEX` if unreachable;
    /// the source is its own parent).
    pub parent: Vec<VertexId>,
    /// Frontier size at each level, starting with level 0 (the source).
    pub frontier_sizes: Vec<u64>,
}

/// Level-synchronous BFS from `source` on the fixed executor, untraced
/// and uninstrumented.
pub fn bfs(g: &Csr, source: VertexId) -> BfsResult {
    bfs_with(g, source, &mut Ctx::default())
}

/// Discoveries a loop chunk buffers before reserving queue slots.
const FLUSH: usize = 64;

/// One loop chunk's discoveries on their way to the next-frontier queue.
struct Discovered<'a> {
    buf: [VertexId; FLUSH],
    len: usize,
    cursor: &'a AtomicU64,
    next: &'a [AtomicU64],
}

impl<'a> Discovered<'a> {
    fn new(cursor: &'a AtomicU64, next: &'a [AtomicU64]) -> Self {
        Discovered {
            buf: [0; FLUSH],
            len: 0,
            cursor,
            next,
        }
    }

    fn push(&mut self, v: VertexId) {
        if self.len == FLUSH {
            self.flush();
        }
        self.buf[self.len] = v;
        self.len += 1;
    }

    /// Append the buffered vertices to the queue, in order; a chunk ends
    /// with one call.
    fn flush(&mut self) {
        // Relaxed: slot reservation only — the slots are disjoint and
        // the level-ending join publishes cursor and queue together.
        let base = self.cursor.fetch_add(self.len as u64, Ordering::Relaxed) as usize;
        for (slot, &v) in self.next[base..].iter().zip(&self.buf[..self.len]) {
            slot.store(v, Ordering::Relaxed); // Relaxed: read post-join
        }
        self.len = 0;
    }
}

/// [`bfs`] under an explicit [`Ctx`].
///
/// * `ctx.exec` — distances are identical across executors; parents and
///   frontier order may differ where several discoverers race (any valid
///   BFS tree).
/// * `ctx.rec` — one `"level"` phase per frontier expansion (observed =
///   frontier size entering the level).
/// * `ctx.sink` — one wall-clock trace record per level (active =
///   frontier size, messages = discoveries), the same Fig. 2-shaped
///   series a BSP run yields.
pub fn bfs_with(g: &Csr, source: VertexId, ctx: &mut Ctx<'_>) -> BfsResult {
    let Ctx { exec, rec, sink } = ctx;
    let exec = &*exec;
    let workers = exec.workers();
    // Const-folds to `false` in feature-off builds: no clocks, no
    // records, hot loop unchanged.
    let tracing = xmt_trace::ENABLED && sink.is_some();
    let n = g.num_vertices() as usize;
    assert!((source as usize) < n, "source out of range");

    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let parent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NO_VERTEX)).collect();

    if let Some(r) = rec.as_deref_mut() {
        let mut c = PhaseCounts::with_items(n as u64);
        c.writes = 2 * n as u64; // dist + parent initialization
        c.charge_loop_overhead(default_chunk(n, 1) as u64);
        c.barriers = 1;
        r.push("init", 0, c, 0);
    }

    // Relaxed: sequential code — no loop has been handed these arrays
    // yet; the fork that starts the level publishes them.
    dist[source as usize].store(0, Ordering::Relaxed);
    parent[source as usize].store(source, Ordering::Relaxed); // Relaxed: pre-fork

    // Frontier buffer sized for the worst case (every vertex discovered
    // in one level) so the per-level refill below never reallocates —
    // each level reuses this one vector plus the `next` queue.
    let mut frontier: Vec<VertexId> = Vec::with_capacity(n);
    frontier.push(source);
    let mut frontier_sizes = vec![1u64];
    let mut level = 0u64;
    // Next-frontier queue, reused across levels; appended through a
    // shared fetch-and-add cursor.  Zeroed allocation, viewed as atomics.
    let mut next_storage = vec![0u64; n];
    let next: &[AtomicU64] = xmt_par::atomic::as_atomic_u64(&mut next_storage);
    // Frontier-membership bitmap for bottom-up levels (one bit per
    // vertex), allocated once and rebuilt per bottom-up level.
    let mut bits_storage = vec![0u64; n.div_ceil(64)];
    let frontier_bits: &[AtomicU64] = xmt_par::atomic::as_atomic_u64(&mut bits_storage);
    let total_arcs = g.num_arcs();
    // Edges incident on every frontier so far (each vertex enters the
    // frontier at most once, so this never exceeds `total_arcs`).
    let mut explored: u64 = 0;
    let mut bottom_up = false;

    while !frontier.is_empty() {
        // Direction decision with Beamer hysteresis: flip to bottom-up
        // when the frontier's edges outweigh the unexplored edges by
        // alpha, flip back when the frontier thins below n / beta.
        let frontier_deg: u64 = frontier.iter().map(|&v| g.degree(v)).sum();
        explored += frontier_deg;
        bottom_up = if bottom_up {
            frontier.len() as f64 * BEAMER_BETA >= n as f64
        } else {
            let unexplored = total_arcs.saturating_sub(explored);
            frontier_deg as f64 * BEAMER_ALPHA > unexplored as f64
        };

        let cursor = AtomicU64::new(0);
        let edges_scanned = AtomicU64::new(0);
        let mut level_watch = tracing.then(xmt_trace::Stopwatch::start);

        if bottom_up {
            // Rebuild the frontier bitmap (zero the words, then set one
            // bit per frontier vertex).
            exec.pfor(0, frontier_bits.len(), |w| {
                // Relaxed: each word rewritten before the build join that
                // publishes the bitmap to the probe loop.
                frontier_bits[w].store(0, Ordering::Relaxed);
            });
            {
                let frontier_ref = &frontier;
                exec.pfor(0, frontier_ref.len(), |i| {
                    let v = frontier_ref[i];
                    // Relaxed: bit sets commute; the pfor join publishes.
                    frontier_bits[(v >> 6) as usize].fetch_or(1 << (v & 63), Ordering::Relaxed);
                });
            }
            // Bottom-up expansion: every unvisited vertex probes its
            // neighbors against the bitmap and claims itself at the
            // first hit — no dist race (each vertex is written only by
            // its own iteration) and one queue append per discovery.
            exec.pfor_chunked(0, n, default_chunk(n, workers), |_, range| {
                let mut found = Discovered::new(&cursor, next);
                let mut probes = 0u64;
                for vi in range {
                    // Relaxed: dist writes preceded the previous level's
                    // join; this level writes vi's slot only from here.
                    if dist[vi].load(Ordering::Relaxed) != u64::MAX {
                        continue;
                    }
                    for &u in g.neighbors(vi as u64) {
                        probes += 1;
                        let word = u as usize >> 6;
                        // Relaxed: the bitmap was published by the build join.
                        let hit = frontier_bits[word].load(Ordering::Relaxed) >> (u & 63) & 1;
                        if hit == 1 {
                            // This iteration is the sole writer of vi's
                            // dist/parent; the level-ending join publishes.
                            dist[vi].store(level + 1, Ordering::Relaxed); // Relaxed: sole writer
                            parent[vi].store(u, Ordering::Relaxed); // Relaxed: sole writer
                            found.push(vi as u64);
                            break;
                        }
                    }
                }
                found.flush();
                // Relaxed: statistics counter, read after the join.
                edges_scanned.fetch_add(probes, Ordering::Relaxed);
            });
        } else {
            let frontier_ref = &frontier;
            let chunk = default_chunk(frontier_ref.len(), workers);
            exec.pfor_chunked(0, frontier_ref.len(), chunk, |_, range| {
                let mut found = Discovered::new(&cursor, next);
                let mut scanned = 0u64;
                let d = level + 1;
                for &v in &frontier_ref[range] {
                    let nbrs = g.neighbors(v);
                    scanned += nbrs.len() as u64;
                    for &u in nbrs {
                        // Claim the distance word: exactly one discoverer wins.
                        if claim(&dist[u as usize], u64::MAX, d) {
                            // Relaxed: the claim above made this thread the
                            // sole writer of u's parent; the level-ending
                            // join publishes it.
                            parent[u as usize].store(v, Ordering::Relaxed);
                            found.push(u);
                        }
                    }
                }
                found.flush();
                // Relaxed: statistics counter, read after the join.
                edges_scanned.fetch_add(scanned, Ordering::Relaxed);
            });
        }

        // Relaxed: the level's parallel_for joined; every fetch_add
        // happens-before this read.
        let next_len = cursor.load(Ordering::Relaxed) as usize;
        let discovered = next_len as u64;
        if let Some(r) = rec.as_deref_mut() {
            let scanned = edges_scanned.load(Ordering::Relaxed); // Relaxed: post-join read
            let mut c = if bottom_up {
                // Bottom-up: one dist probe per vertex, neighbor id +
                // frontier bit per edge probed; per discovery a plain
                // dist/parent/queue write (the claim is implicit — each
                // vertex writes only itself) with the queue cursor as
                // the hotspot; the bitmap build pays one atomic OR per
                // frontier vertex and a word-zeroing sweep.
                let mut c = PhaseCounts::with_items(scanned.max(n as u64));
                c.reads = n as u64 + 2 * scanned;
                c.alu_ops = scanned;
                c.atomics = discovered + frontier.len() as u64;
                c.writes = 3 * discovered + frontier_bits.len() as u64;
                c.hotspot_ops = discovered;
                c.charge_loop_overhead(default_chunk(n, 1) as u64);
                c
            } else {
                // Per frontier vertex: offsets read; per edge: neighbor
                // id + dist probe; per discovery: dist claim + parent
                // write + queue write, with the queue cursor as the
                // hotspot.
                let mut c = PhaseCounts::with_items(scanned.max(frontier.len() as u64));
                c.reads = frontier.len() as u64 + 2 * scanned;
                c.alu_ops = scanned;
                c.atomics = discovered;
                c.writes = 2 * discovered;
                c.hotspot_ops = discovered;
                c.charge_loop_overhead(default_chunk(frontier.len(), 1) as u64);
                c
            };
            c.barriers = 1;
            r.push("level", level, c, frontier.len() as u64);
        }

        let compute_ns = level_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);
        let parallel_frontier = frontier.len() as u64;
        // Refill the retained frontier buffer in place (no per-level
        // allocation: capacity is n, and next_len <= n).
        frontier.clear();
        frontier.extend(
            next[..next_len]
                .iter()
                // Relaxed: queue writes preceded the level-ending join.
                .map(|a| a.load(Ordering::Relaxed)),
        );
        if !frontier.is_empty() {
            frontier_sizes.push(frontier.len() as u64);
        }
        if tracing {
            if let Some(sk) = sink.as_deref_mut() {
                let exchange_ns = level_watch.as_mut().map_or(0, xmt_trace::Stopwatch::lap_ns);
                sk.record(xmt_trace::SuperstepTrace {
                    superstep: level,
                    active: parallel_frontier,
                    messages_sent: discovered,
                    // Relaxed: post-join read of a stats counter.
                    messages_generated: edges_scanned.load(Ordering::Relaxed),
                    messages_delivered: discovered,
                    pulled: bottom_up,
                    pull_probes: if bottom_up {
                        // Relaxed: post-join read of a stats counter.
                        edges_scanned.load(Ordering::Relaxed)
                    } else {
                        0
                    },
                    compute_ns,
                    exchange_ns,
                    total_ns: compute_ns + exchange_ns,
                    ..xmt_trace::SuperstepTrace::default()
                });
            }
        }
        level += 1;
    }

    BfsResult {
        dist: dist.into_iter().map(AtomicU64::into_inner).collect(),
        parent: parent.into_iter().map(AtomicU64::into_inner).collect(),
        frontier_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{binary_tree, disjoint_cliques, grid, path, ring, star};
    use xmt_graph::validate::{reference_bfs, validate_bfs};
    use xmt_model::Recorder;

    #[test]
    fn path_distances_are_indices() {
        let g = build_undirected(&path(20));
        let r = bfs(&g, 0);
        validate_bfs(&g, 0, &r.dist, &r.parent).unwrap();
        for v in 0..20 {
            assert_eq!(r.dist[v], v as u64);
        }
        assert_eq!(r.frontier_sizes, vec![1; 20]);
    }

    #[test]
    fn star_has_two_levels() {
        let g = build_undirected(&star(100));
        let r = bfs(&g, 0);
        validate_bfs(&g, 0, &r.dist, &r.parent).unwrap();
        assert_eq!(r.frontier_sizes, vec![1, 99]);
    }

    #[test]
    fn ring_wraps_both_ways() {
        let g = build_undirected(&ring(10));
        let r = bfs(&g, 0);
        validate_bfs(&g, 0, &r.dist, &r.parent).unwrap();
        assert_eq!(r.dist[5], 5);
        assert_eq!(r.dist[9], 1);
        assert_eq!(r.frontier_sizes, vec![1, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn unreachable_vertices_stay_unmarked() {
        let g = build_undirected(&disjoint_cliques(2, 4));
        let r = bfs(&g, 0);
        validate_bfs(&g, 0, &r.dist, &r.parent).unwrap();
        for v in 4..8 {
            assert_eq!(r.dist[v], u64::MAX);
            assert_eq!(r.parent[v], NO_VERTEX);
        }
    }

    #[test]
    fn grid_distance_is_manhattan() {
        let g = build_undirected(&grid(8, 8));
        let r = bfs(&g, 0);
        validate_bfs(&g, 0, &r.dist, &r.parent).unwrap();
        for row in 0..8u64 {
            for col in 0..8u64 {
                assert_eq!(r.dist[(row * 8 + col) as usize], row + col);
            }
        }
    }

    #[test]
    fn matches_serial_reference_distances() {
        let el = xmt_graph::gen::er::gnm(3000, 9000, 5);
        let g = build_undirected(&el);
        let r = bfs(&g, 7);
        let (ref_dist, _) = reference_bfs(&g, 7);
        assert_eq!(r.dist, ref_dist);
        validate_bfs(&g, 7, &r.dist, &r.parent).unwrap();
    }

    #[test]
    fn instrumented_levels_track_frontier() {
        let g = build_undirected(&binary_tree(255));
        let mut rec = Recorder::new();
        let r = bfs_with(&g, 0, &mut Ctx::recording(&mut rec));
        // Tree of depth 7: levels 0..7.
        assert_eq!(rec.steps("level"), 8);
        let observed: Vec<u64> = rec.with_label("level").map(|x| x.observed).collect();
        assert_eq!(observed, r.frontier_sizes);
        assert_eq!(observed, vec![1, 2, 4, 8, 16, 32, 64, 128]);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_levels_mirror_frontier_sizes() {
        let g = build_undirected(&binary_tree(255));
        let reference = bfs(&g, 0);
        let mut sink = xmt_trace::TraceSink::new();
        let r = bfs_with(&g, 0, &mut Ctx::tracing(&mut sink));
        assert_eq!(r, reference);
        let trace = sink.finish();
        // One record per expanded level (the last level discovers
        // nothing and ends the loop).
        assert_eq!(trace.len(), r.frontier_sizes.len());
        for (t, &size) in trace.iter().zip(&r.frontier_sizes) {
            assert_eq!(t.active, size);
        }
        // Discoveries at level L are the frontier entering level L+1.
        for (t, &next_size) in trace.iter().zip(r.frontier_sizes.iter().skip(1)) {
            assert_eq!(t.messages_sent, next_size);
        }
        assert_eq!(trace.last().unwrap().messages_sent, 0);
    }

    #[test]
    fn source_out_of_range_panics() {
        let g = build_undirected(&path(3));
        assert!(std::panic::catch_unwind(|| bfs(&g, 99)).is_err());
    }
}
