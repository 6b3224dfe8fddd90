//! Betweenness centrality (Brandes' algorithm), exact or sampled.
//!
//! GraphCT's flagship kernel (paper refs \[7\], \[10\], \[11\]).  Sources are
//! processed in parallel across workers, each with a private accumulator
//! that is merged at the end — the standard coarse-grained
//! parallelization for multi-source centrality.

use parking_lot::Mutex;

use xmt_graph::{Csr, VertexId};
use xmt_par::pfor::parallel_for_chunked;

/// Betweenness centrality.
///
/// `sources = None` computes exact centrality (every vertex as a source);
/// `Some(k)` approximates using the first `k` vertices of a fixed
/// pseudo-random sequence, scaled by `n/k`.  Undirected graphs halve the
/// pair contributions, as usual.
pub fn betweenness_centrality(g: &Csr, sources: Option<usize>) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let source_list: Vec<VertexId> = match sources {
        None => (0..n as u64).collect(),
        Some(k) => pseudo_random_sources(n as u64, k.min(n)),
    };
    let scale = n as f64 / source_list.len() as f64;

    let partials: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    let src_ref = &source_list;
    parallel_for_chunked(0, src_ref.len(), 4, |_, range| {
        // One private accumulator per chunk is this kernel's merge
        // strategy, not a per-superstep leak — brandes_from allocates
        // its BFS scratch per source anyway.
        let mut acc = vec![0.0f64; n];
        for i in range {
            brandes_from(g, src_ref[i], &mut acc);
        }
        partials.lock().push(acc);
    });

    let mut bc = vec![0.0f64; n];
    for part in partials.into_inner() {
        for (b, p) in bc.iter_mut().zip(part) {
            *b += p;
        }
    }
    let pair_scale = if g.is_directed() { 1.0 } else { 0.5 };
    for b in &mut bc {
        *b *= scale * pair_scale;
    }
    bc
}

/// One Brandes source: BFS with shortest-path counting, then backward
/// dependency accumulation.
fn brandes_from(g: &Csr, s: VertexId, acc: &mut [f64]) {
    let n = g.num_vertices() as usize;
    let mut dist = vec![i64::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();

    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            let u = u as usize;
            if dist[u] == i64::MAX {
                dist[u] = dv + 1;
                queue.push_back(u as VertexId);
            }
            if dist[u] == dv + 1 {
                sigma[u] += sigma[v as usize];
            }
        }
    }

    for &v in order.iter().rev() {
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            let u = u as usize;
            if dist[u] == dv + 1 && sigma[u] > 0.0 {
                delta[v as usize] += sigma[v as usize] / sigma[u] * (1.0 + delta[u]);
            }
        }
        if v != s {
            acc[v as usize] += delta[v as usize];
        }
    }
}

/// Deterministic pseudo-random source selection (distinct vertices).
fn pseudo_random_sources(n: u64, k: usize) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(k);
    let mut seen = std::collections::HashSet::new();
    let mut x = 0x2545f491_4f6cdd1du64;
    while out.len() < k {
        // xorshift*
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let v = (x.wrapping_mul(0x2545f4914f6cdd1d)) % n;
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{clique, path, star};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn path_centrality_closed_form() {
        // For a path of n vertices, bc(v_i) = i*(n-1-i) (undirected).
        let n = 7usize;
        let g = build_undirected(&path(n as u64));
        let bc = betweenness_centrality(&g, None);
        for (i, &b) in bc.iter().enumerate() {
            assert_close(b, (i * (n - 1 - i)) as f64);
        }
    }

    #[test]
    fn star_center_carries_all_pairs() {
        let n = 9u64;
        let g = build_undirected(&star(n));
        let bc = betweenness_centrality(&g, None);
        // Center lies on all C(n-1, 2) leaf pairs.
        let leaves = (n - 1) as f64;
        assert_close(bc[0], leaves * (leaves - 1.0) / 2.0);
        for &b in &bc[1..] {
            assert_close(b, 0.0);
        }
    }

    #[test]
    fn clique_has_zero_betweenness() {
        let g = build_undirected(&clique(6));
        let bc = betweenness_centrality(&g, None);
        for &b in &bc {
            assert_close(b, 0.0);
        }
    }

    #[test]
    fn sampled_with_all_sources_equals_exact() {
        let g = build_undirected(&path(6));
        let exact = betweenness_centrality(&g, None);
        let sampled = betweenness_centrality(&g, Some(6));
        for (a, b) in exact.iter().zip(&sampled) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn sampled_is_unbiased_in_expectation_shape() {
        // On a star, any sample that excludes only leaves still ranks the
        // center far above the leaves.
        let g = build_undirected(&star(50));
        let bc = betweenness_centrality(&g, Some(10));
        let max_leaf = bc[1..].iter().cloned().fold(0.0, f64::max);
        assert!(bc[0] > 10.0 * (max_leaf + 1.0));
    }

    #[test]
    fn empty_graph_is_empty() {
        let g = build_undirected(&xmt_graph::EdgeList::new(0));
        assert!(betweenness_centrality(&g, None).is_empty());
    }
}
