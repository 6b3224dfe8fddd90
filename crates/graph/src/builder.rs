//! Parallel CSR construction by a counted radix partition, no atomics.
//! (1) Each fixed chunk of the edge list checks its endpoints and counts
//! its arcs per *bucket* (at most 2^16 rows) in its own histogram row.
//! (2) Bucket-major prefix sums give each chunk private cursors into the
//! buckets' slices of one arc array: it writes its arcs there in order,
//! one word each (row in bucket above neighbour).  (3) A task per bucket
//! counting-sorts it by row through its worker's scratch, sorts and
//! coalesces rows if asked, and packs them; a last pass closes the gaps.
//! Rows keep edge-list order on any pool; the peak is the edge list, the
//! arc array and a bucket (about 32 k arcs) per worker.  The host build
//! does not mirror GraphCT's fetch-and-add ingest, and no model charges it.

use xmt_par::pfor::parallel_fill;
use xmt_par::{
    exclusive_prefix_sum_seq, global, parallel_for, parallel_for_chunked, WorkerScratch,
};

use crate::{Csr, EdgeList, VertexId};

/// Options controlling CSR construction.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Store both directions of every edge (undirected graph).
    pub symmetrize: bool,
    /// Drop `v → v` loops.
    pub remove_self_loops: bool,
    /// Coalesce duplicate arcs (implies sorting).
    pub dedup: bool,
    /// Sort each adjacency list ascending.
    pub sort: bool,
}

impl BuildOptions {
    /// The configuration used for the paper's workloads: undirected,
    /// simple (no loops or duplicates), sorted adjacency.
    pub fn undirected_simple() -> Self {
        BuildOptions {
            symmetrize: true,
            remove_self_loops: true,
            dedup: true,
            sort: true,
        }
    }

    /// A directed multigraph, adjacency in edge-list order.
    pub fn directed_raw() -> Self {
        BuildOptions {
            symmetrize: false,
            remove_self_loops: false,
            dedup: false,
            sort: false,
        }
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self::undirected_simple()
    }
}

/// Builds [`Csr`] graphs from [`EdgeList`]s.
pub struct CsrBuilder {
    opts: BuildOptions,
}

impl CsrBuilder {
    /// A builder with the given options.
    pub fn new(opts: BuildOptions) -> Self {
        CsrBuilder { opts }
    }

    /// Build a CSR from `edges`, which must be consistent (every endpoint
    /// below `num_vertices`).
    pub fn build(&self, edges: &EdgeList) -> Csr {
        let opts = self.opts;
        let (list, n, m) = (&edges.edges, edges.num_vertices as usize, edges.edges.len());
        assert!((n as u64) < 1 << NBR_BITS, "at most 2^48 vertices");
        let keep = |u: VertexId, v: VertexId| !(opts.remove_self_loops && u == v);
        // Buckets of about BUCKET_ARCS arcs, a few per worker, 1024 at most.
        let workers = global().num_workers();
        let wanted = (m << opts.symmetrize as u32) / BUCKET_ARCS;
        let width = n.div_ceil(wanted.max(4 * workers).min(1024));
        let shift = width.next_power_of_two().ilog2().min(16);
        let buckets = n.div_ceil(1 << shift);
        let chunk = CHUNK.max(m.div_ceil(512));
        let chunks = m.div_ceil(chunk);
        let chunk_of = |c: usize| c * chunk..((c + 1) * chunk).min(m);

        // 1. Count: row `c` of `hist` is chunk `c`'s arcs per bucket.
        let mut hist = vec![0u64; chunks * buckets];
        let mut valid = vec![false; chunks];
        let hist_base = hist.as_mut_ptr() as usize;
        parallel_fill(&mut valid, |c| {
            // SAFETY: row `c` of `hist` belongs to chunk `c` alone, and
            // `hist` is not otherwise touched until the loop has joined.
            let row = unsafe { slice_at::<u64>(hist_base, c * buckets, buckets) };
            for &(u, v) in &list[chunk_of(c)] {
                if u.max(v) >= n as u64 {
                    return false;
                }
                if keep(u, v) {
                    row[(u >> shift) as usize] += 1;
                    if opts.symmetrize {
                        row[(v >> shift) as usize] += 1;
                    }
                }
            }
            true
        });
        assert!(valid.iter().all(|&ok| ok), "inconsistent edge list");

        // 2. Partition: a bucket-major prefix sum makes counts cursors.
        let mut starts = vec![0usize; buckets + 1];
        for b in 0..buckets {
            starts[b + 1] = starts[b];
            for c in 0..chunks {
                let count = std::mem::replace(&mut hist[c * buckets + b], starts[b + 1] as u64);
                starts[b + 1] += count as usize;
            }
        }
        let total = starts[buckets];
        let mut arcs = vec![0u64; total];
        let arc_base = arcs.as_mut_ptr() as usize;
        let local = (1 << shift) - 1;
        parallel_for(0, chunks, |c| {
            // SAFETY: as in the count pass, row `c` is chunk `c`'s own.
            let cursor = unsafe { slice_at::<u64>(hist_base, c * buckets, buckets) };
            let mut put = |row: VertexId, nbr: VertexId| {
                let slot = &mut cursor[(row >> shift) as usize];
                // SAFETY: the cursor walks this chunk's own range of the
                // bucket's slice; the array is untouched until the join.
                unsafe {
                    *(arc_base as *mut u64).add(*slot as usize) = (row & local) << NBR_BITS | nbr
                };
                *slot += 1;
            };
            for &(u, v) in &list[chunk_of(c)] {
                if keep(u, v) {
                    put(u, v);
                    if opts.symmetrize {
                        put(v, u);
                    }
                }
            }
        });

        // 3. Finish: offsets and kept counts come back bucket-relative.
        let mut offsets = vec![0u64; n + 1];
        let mut kept = vec![0u64; buckets + 1];
        let (o_base, k_base) = (offsets.as_mut_ptr() as usize, kept.as_mut_ptr() as usize);
        // Reserved up front: no bucket grows a worker's scratch.
        let largest = starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let scratch = WorkerScratch::with(workers, || Vec::with_capacity(largest));
        parallel_for_chunked(0, buckets, 1, |worker, range| {
            for b in range {
                let (lo, span) = (b << shift, starts[b]..starts[b + 1]);
                // SAFETY: bucket `b` alone touches its rows, its span and
                // `kept[b]` until the join; one thread runs per worker id.
                unsafe {
                    let offsets = slice_at(o_base, lo, (n - lo).min(1 << shift));
                    let arcs = slice_at(arc_base, span.start, span.len());
                    let k = finish_bucket(offsets, arcs, scratch.get(worker), opts);
                    *(k_base as *mut u64).add(b) = k as u64;
                }
            }
        });

        // Close the gaps.
        let total = exclusive_prefix_sum_seq(&mut kept) as usize;
        for b in (0..buckets).filter(|&b| starts[b] != kept[b] as usize) {
            let len = (kept[b + 1] - kept[b]) as usize;
            arcs.copy_within(starts[b]..starts[b] + len, kept[b] as usize);
        }
        for (v, offset) in offsets[..n].iter_mut().enumerate() {
            *offset += kept[v >> shift];
        }
        offsets[n] = total as u64;
        arcs.truncate(total);
        arcs.shrink_to_fit();

        let sorted = opts.sort || opts.dedup;
        Csr::from_parts(n as u64, offsets, arcs, !opts.symmetrize, sorted)
    }
}

/// Edges per chunk: 2^16, or more where that keeps the chunks to 512.
const CHUNK: usize = 1 << 16;

/// Arcs a bucket holds on average: a worker's scratch is about 256 kB.
const BUCKET_ARCS: usize = 1 << 15;

/// Low bits of a partitioned arc word: the neighbour; the row sits above.
const NBR_BITS: u32 = 48;

/// `len` elements of the `T` array at address `base`, from `start`.
/// # Safety
/// The array must be live and hold `start + len` elements, and no other
/// reference to them may exist while the result does.
pub(crate) unsafe fn slice_at<'a, T>(base: usize, start: usize, len: usize) -> &'a mut [T] {
    std::slice::from_raw_parts_mut((base as *mut T).add(start), len)
}

/// Order one bucket's partitioned `arcs` by row, stably, through
/// `scratch`; sort and coalesce each row if asked; write the rows back
/// to the front of `arcs`.  `rows` (zeroed) gets each row's first arc;
/// returns the arcs kept.
fn finish_bucket(
    rows: &mut [u64],
    arcs: &mut [u64],
    scratch: &mut Vec<u64>,
    opts: BuildOptions,
) -> usize {
    // A stable counting sort by row; each cursor ends at its row's end.
    for &arc in arcs.iter() {
        rows[(arc >> NBR_BITS) as usize] += 1;
    }
    exclusive_prefix_sum_seq(rows);
    scratch.clear();
    scratch.resize(arcs.len(), 0);
    for &arc in arcs.iter() {
        let cursor = &mut rows[(arc >> NBR_BITS) as usize];
        scratch[*cursor as usize] = arc & ((1 << NBR_BITS) - 1);
        *cursor += 1;
    }
    let (mut start, mut kept) = (0, 0);
    for end in rows.iter_mut() {
        let row = &mut scratch[start..*end as usize];
        start = *end as usize;
        if opts.sort || opts.dedup {
            row.sort_unstable();
        }
        *end = kept as u64;
        for i in 0..row.len() {
            if !opts.dedup || i == 0 || row[i] != row[i - 1] {
                arcs[kept] = row[i];
                kept += 1;
            }
        }
    }
    kept
}

/// Convenience: build an undirected simple graph (the paper's default).
pub fn build_undirected(edges: &EdgeList) -> Csr {
    CsrBuilder::new(BuildOptions::undirected_simple()).build(edges)
}

/// Convenience: build a directed graph preserving multiplicity.
pub fn build_directed(edges: &EdgeList) -> Csr {
    CsrBuilder::new(BuildOptions::directed_raw()).build(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::gnm;
    use crate::gen::rmat::{rmat_edges, RmatParams};

    /// Serial arrival order: each kept arc appended to its row's list,
    /// edge by edge (`u → v` before its mirror `v → u`).
    fn arrival(el: &EdgeList, opts: BuildOptions) -> Vec<Vec<VertexId>> {
        let mut lists = vec![Vec::new(); el.num_vertices as usize];
        for &(u, v) in &el.edges {
            if opts.remove_self_loops && u == v {
                continue;
            }
            lists[u as usize].push(v);
            if opts.symmetrize {
                lists[v as usize].push(u);
            }
        }
        lists
    }

    /// Serial reference: [`arrival`], each list sorted and with repeats
    /// dropped if `dedup`.
    fn reference(el: &EdgeList, opts: BuildOptions) -> Vec<Vec<VertexId>> {
        let mut lists = arrival(el, opts);
        for list in &mut lists {
            list.sort_unstable();
            if opts.dedup {
                list.dedup();
            }
        }
        lists
    }

    /// `g`'s rows in CSR order.
    fn rows_of(g: &Csr) -> Vec<Vec<VertexId>> {
        (0..g.num_vertices())
            .map(|v| g.neighbors(v).to_vec())
            .collect()
    }

    /// `g`'s rows, after checking that each comes out sorted.
    fn lists_of(g: &Csr) -> Vec<Vec<VertexId>> {
        let lists = rows_of(g);
        for (v, list) in lists.iter().enumerate() {
            assert!(list.is_sorted(), "vertex {v} unsorted");
        }
        lists
    }

    #[test]
    fn csr_bytes_are_pinned() {
        // Measured on the builder that deduplicated into a second array.
        let g = build_undirected(&rmat_edges(&RmatParams::graph500(10), 1));
        assert_eq!(g.num_arcs(), 21_216);
        let hash = crate::fnv1a(g.offsets().iter().chain(g.adjacency()).copied());
        assert_eq!(hash, 0x5389_23cb_5ffe_79d1);
    }

    #[test]
    fn builder_equals_the_serial_reference() {
        // Duplicates and self loops: 3 000 edges on 200 vertices.
        let multi = gnm(200, 3_000, 5);
        assert!(multi.edges.iter().any(|&(u, v)| u == v));
        let simple = BuildOptions::undirected_simple();
        let g = CsrBuilder::new(simple).build(&multi);
        assert_eq!(lists_of(&g), reference(&multi, simple));
        // The compacted array ends where the offsets do.
        assert_eq!(Some(&(g.adjacency().len() as u64)), g.offsets().last());

        let empty = EdgeList::new(7);
        let g = build_undirected(&empty);
        assert_eq!(lists_of(&g), reference(&empty, simple));
        assert_eq!(g.offsets(), &[0; 8]);

        // Sorted rows that keep their repeats.
        let sym = BuildOptions {
            dedup: false,
            ..simple
        };
        let g = CsrBuilder::new(sym).build(&multi);
        assert_eq!(lists_of(&g), reference(&multi, sym));
    }

    #[test]
    fn unsorted_builds_keep_edge_list_order() {
        // Multigraphs with self loops, one chunk and several.
        let small = EdgeList::from_pairs([(0, 1), (2, 0), (0, 1), (1, 0), (0, 0), (0, 1), (3, 0)]);
        let lists = [gnm(200, 3_000, 5), gnm(3_000, 150_000, 6), small];
        let raw = BuildOptions::directed_raw();
        let symmetric = BuildOptions {
            symmetrize: true,
            ..raw
        };
        let loopless = BuildOptions {
            remove_self_loops: true,
            ..symmetric
        };
        for el in &lists {
            assert!(el.edges.iter().any(|&(u, v)| u == v));
            for opts in [raw, symmetric, loopless] {
                let g = CsrBuilder::new(opts).build(el);
                assert_eq!(
                    rows_of(&g),
                    arrival(el, opts),
                    "{opts:?}, n {}",
                    el.num_vertices
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent edge list")]
    fn an_endpoint_past_the_vertex_count_panics() {
        let mut el = gnm(100, 1_000, 1);
        el.edges[700].1 = 100;
        build_directed(&el);
    }

    #[test]
    fn undirected_simple_graph() {
        let el = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let g = build_undirected(&el);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert!(g.is_sorted());
        assert!(!g.is_directed());
    }

    #[test]
    fn self_loops_and_duplicates_are_removed() {
        let el = EdgeList::from_pairs([(0, 1), (1, 0), (0, 0), (0, 1), (1, 1)]);
        let g = build_undirected(&el);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn directed_raw_preserves_multiplicity_and_loops() {
        let el = EdgeList::from_pairs([(0, 1), (0, 1), (1, 1)]);
        let g = build_directed(&el);
        assert_eq!(g.num_arcs(), 3);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn directed_sorted_graph_sorts_rows() {
        let el = EdgeList::from_pairs([(0, 2), (0, 1)]);
        let g = CsrBuilder::new(BuildOptions {
            symmetrize: false,
            remove_self_loops: false,
            dedup: false,
            sort: true,
        })
        .build(&el);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.is_directed() && g.is_sorted());
    }

    #[test]
    fn larger_random_graph_degree_sum_matches() {
        // Deterministic pseudo-random pairs.
        let n = 500u64;
        let pairs: Vec<_> = (0..5000u64)
            .map(|i| ((i * 48271) % n, (i * 69621 + 3) % n))
            .collect();
        let el = EdgeList {
            num_vertices: n,
            edges: pairs.clone(),
        };
        let g = build_directed(&el);
        assert_eq!(g.num_arcs() as usize, pairs.len());
        // Each vertex's neighbors in arrival order must be some permutation
        // of the scattered edges; degree sums must match the input count.
        let degsum: u64 = (0..n).map(|v| g.degree(v)).sum();
        assert_eq!(degsum as usize, pairs.len());
    }

    #[test]
    fn empty_edge_list_builds_isolated_vertices() {
        let el = EdgeList::new(5);
        let g = build_undirected(&el);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.degree(4), 0);
    }
}
