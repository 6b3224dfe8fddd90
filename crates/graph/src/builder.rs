//! Parallel CSR construction by a counted radix partition, no atomics.
//! (1) Each fixed chunk of the edge list checks its endpoints and counts
//! its arcs per *bucket* (at most 2^16 rows) in its own histogram row.
//! (2) Bucket-major prefix sums give each chunk private cursors into the
//! buckets' slices of one arc array: it writes its arcs there in order,
//! one word each (row in bucket above neighbour).  (3) A task per bucket
//! counting-sorts it by row through its worker's scratch, sorts and
//! coalesces each row, and packs them; a last pass closes the gaps.
//! Self loops drop in (1) and (2), and every other edge is written in
//! both directions, so the result has the one shape [`Csr`] holds.  The
//! peak is the edge list, the arc array and a bucket (about 32 k arcs)
//! per worker.  The host build does not mirror GraphCT's fetch-and-add
//! ingest, and no model charges it.

use xmt_par::pfor::parallel_fill;
use xmt_par::{
    exclusive_prefix_sum_seq, global, parallel_for, parallel_for_chunked, DisjointSlice,
    WorkerScratch,
};

use crate::{Csr, EdgeList, VertexId};

/// Build the undirected simple graph of `edges` (see [`Csr`]), which
/// must be consistent (every endpoint below `num_vertices`): self loops
/// drop, every other edge is stored in both directions, and each row is
/// sorted with its repeats coalesced.
pub fn build_undirected(edges: &EdgeList) -> Csr {
    let (list, n, m) = (&edges.edges, edges.num_vertices as usize, edges.edges.len());
    assert!((n as u64) < 1 << NBR_BITS, "at most 2^48 vertices");
    // Buckets of about BUCKET_ARCS arcs, a few per worker, 1024 at most.
    let workers = global().num_workers();
    let wanted = 2 * m / BUCKET_ARCS;
    let width = n.div_ceil(wanted.max(4 * workers).min(1024));
    let shift = width.next_power_of_two().ilog2().min(16);
    let buckets = n.div_ceil(1 << shift);
    let chunk = CHUNK.max(m.div_ceil(512));
    let chunks = m.div_ceil(chunk);
    let chunk_of = |c: usize| c * chunk..((c + 1) * chunk).min(m);
    let row_of = |c: usize| c * buckets..(c + 1) * buckets;

    // 1. Count: row `c` of `hist` is chunk `c`'s arcs per bucket.
    let mut hist = vec![0u64; chunks * buckets];
    let mut valid = vec![false; chunks];
    let rows = DisjointSlice::new(&mut hist);
    parallel_fill(&mut valid, |c| {
        // SAFETY: row `c` of `hist` belongs to chunk `c` alone.
        let row = unsafe { rows.range(row_of(c)) };
        for &(u, v) in &list[chunk_of(c)] {
            if u.max(v) >= n as u64 {
                return false;
            }
            if u != v {
                row[(u >> shift) as usize] += 1;
                row[(v >> shift) as usize] += 1;
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
    let (rows, out) = (DisjointSlice::new(&mut hist), DisjointSlice::new(&mut arcs));
    let local = (1 << shift) - 1;
    parallel_for(0, chunks, |c| {
        // SAFETY: as in the count pass, row `c` is chunk `c`'s own.
        let cursor = unsafe { rows.range(row_of(c)) };
        let mut put = |row: VertexId, nbr: VertexId| {
            let slot = &mut cursor[(row >> shift) as usize];
            // SAFETY: the cursor walks this chunk's own range of the
            // bucket's slice, inside the `total` arcs counted above.
            unsafe { out.write(*slot as usize, (row & local) << NBR_BITS | nbr) };
            *slot += 1;
        };
        for &(u, v) in &list[chunk_of(c)] {
            if u != v {
                put(u, v);
                put(v, u);
            }
        }
    });

    // 3. Finish: offsets and kept counts come back bucket-relative.
    let mut offsets = vec![0u64; n + 1];
    let mut kept = vec![0u64; buckets + 1];
    // Reserved up front: no bucket grows a worker's scratch.
    let largest = starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let scratch = WorkerScratch::with(workers, || Vec::with_capacity(largest));
    let (firsts, packed) = (
        DisjointSlice::new(&mut offsets),
        DisjointSlice::new(&mut arcs),
    );
    let counts = DisjointSlice::new(&mut kept);
    parallel_for_chunked(0, buckets, 1, |worker, range| {
        for b in range {
            let lo = b << shift;
            // SAFETY: bucket `b` alone touches its rows, its span and
            // `kept[b]`; one thread runs per worker id.
            unsafe {
                let rows = firsts.range(lo..n.min(lo + (1 << shift)));
                let k = finish_bucket(
                    rows,
                    packed.range(starts[b]..starts[b + 1]),
                    scratch.get(worker),
                );
                counts.write(b, k as u64);
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
    Csr::from_parts(n as u64, offsets, arcs)
}

/// Edges per chunk: 2^16, or more where that keeps the chunks to 512.
const CHUNK: usize = 1 << 16;

/// Arcs a bucket holds on average: a worker's scratch is about 256 kB.
const BUCKET_ARCS: usize = 1 << 15;

/// Low bits of a partitioned arc word: the neighbour; the row sits above.
const NBR_BITS: u32 = 48;

/// Order one bucket's partitioned `arcs` by row through `scratch`, sort
/// and coalesce each row, and write the rows back to the front of
/// `arcs`.  `rows` (zeroed) gets each row's first arc; returns the arcs
/// kept.
fn finish_bucket(rows: &mut [u64], arcs: &mut [u64], scratch: &mut Vec<u64>) -> usize {
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
        row.sort_unstable();
        *end = kept as u64;
        for i in 0..row.len() {
            if i == 0 || row[i] != row[i - 1] {
                arcs[kept] = row[i];
                kept += 1;
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::gnm;
    use crate::gen::rmat::{rmat_edges, RmatParams};

    /// Serial reference: each edge but a loop appended to both its
    /// endpoints' lists, each list then sorted with its repeats dropped.
    fn reference(el: &EdgeList) -> Vec<Vec<VertexId>> {
        let mut lists = vec![Vec::new(); el.num_vertices as usize];
        for &(u, v) in el.edges.iter().filter(|(u, v)| u != v) {
            lists[u as usize].push(v);
            lists[v as usize].push(u);
        }
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
        }
        lists
    }

    /// `g`'s rows in CSR order.
    fn rows_of(g: &Csr) -> Vec<Vec<VertexId>> {
        (0..g.num_vertices())
            .map(|v| g.neighbors(v).to_vec())
            .collect()
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
        // Multigraphs with self loops: one chunk, several chunks, and a
        // handful of edges.
        let small = EdgeList::from_pairs([(0, 1), (2, 0), (0, 1), (1, 0), (0, 0), (0, 1), (3, 0)]);
        for el in [gnm(200, 3_000, 5), gnm(3_000, 150_000, 6), small] {
            assert!(el.edges.iter().any(|&(u, v)| u == v));
            let g = build_undirected(&el);
            assert_eq!(rows_of(&g), reference(&el), "n {}", el.num_vertices);
            // The compacted array ends where the offsets do.
            assert_eq!(Some(&(g.adjacency().len() as u64)), g.offsets().last());
        }

        let empty = EdgeList::new(7);
        let g = build_undirected(&empty);
        assert_eq!(rows_of(&g), reference(&empty));
        assert_eq!(g.offsets(), &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "inconsistent edge list")]
    fn an_endpoint_past_the_vertex_count_panics() {
        let mut el = gnm(100, 1_000, 1);
        el.edges[700].1 = 100;
        build_undirected(&el);
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
    fn empty_edge_list_builds_isolated_vertices() {
        let el = EdgeList::new(5);
        let g = build_undirected(&el);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.degree(4), 0);
    }
}
