//! PageRank by parallel power iteration: the `graphct` engine's answer
//! to a served `pagerank` job.

use xmt_graph::Csr;
use xmt_par::pfor::parallel_fill;

/// PageRank options.
#[derive(Clone, Copy, Debug)]
pub struct PagerankOptions {
    /// Damping factor (0.85 conventionally).
    pub damping: f64,
    /// Stop when the L1 change drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PagerankOptions {
    fn default() -> Self {
        PagerankOptions {
            damping: 0.85,
            tolerance: 1e-9,
            max_iterations: 200,
        }
    }
}

/// Vertices per block: the unit of parallel work and of every partial
/// sum.  A constant, so the fold order does not depend on the pool.
const BLOCK: usize = 512;

/// Compute PageRank scores (they sum to 1).
///
/// Pull-based: `pr'[v] = (1−d)/n + d·Σ_{u→v} pr[u]/outdeg(u)`, with the
/// dangling mass redistributed uniformly.  The stored reverse arcs let
/// the pull iterate directly over `neighbors`.
/// Each sweep first writes `contrib[u] = pr[u]/outdeg(u)`, one division
/// per vertex, so the pull reads one value per arc.  Both sums (dangling
/// mass, L1 change) add in vertex order within fixed blocks and in block
/// order across them, so the ranks have the same bits on any pool.
pub fn pagerank(g: &Csr, opts: PagerankOptions) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let nf = n as f64;
    let mut pr = vec![1.0 / nf; n];
    let mut next = vec![0.0f64; n];
    let mut contrib = vec![0.0f64; n];
    let mut partial = vec![0.0f64; n.div_ceil(BLOCK)];

    for _ in 0..opts.max_iterations {
        // Dangling vertices donate their mass uniformly.
        let pr_ref = &pr;
        let dangling = sweep(&mut contrib, &mut partial, |u| match g.degree(u as u64) {
            0 => (0.0, pr_ref[u]),
            d => (pr_ref[u] / d as f64, 0.0),
        });
        let base = (1.0 - opts.damping) / nf + opts.damping * dangling / nf;

        let contrib_ref = &contrib;
        let l1 = sweep(&mut next, &mut partial, |v| {
            let mut sum = 0.0;
            for &u in g.neighbors(v as u64) {
                sum += contrib_ref[u as usize];
            }
            let rank = base + opts.damping * sum;
            (rank, (rank - pr_ref[v]).abs())
        });
        std::mem::swap(&mut pr, &mut next);
        if l1 < opts.tolerance {
            break;
        }
    }
    pr
}

/// Set `out[v]` to the first half of `step(v)` for every vertex and
/// return the sum of the second halves, added in vertex order within each
/// [`BLOCK`] (kept in `partial`) and then in block order.
fn sweep<F>(out: &mut [f64], partial: &mut [f64], step: F) -> f64
where
    F: Fn(usize) -> (f64, f64) + Sync,
{
    let n = out.len();
    let base = out.as_mut_ptr() as usize;
    parallel_fill(partial, |b| {
        let mut acc = 0.0;
        for v in b * BLOCK..((b + 1) * BLOCK).min(n) {
            let (value, share) = step(v);
            // SAFETY: blocks are disjoint, so each index has one writer,
            // and `out` is exclusively borrowed for the call.
            unsafe { *(base as *mut f64).add(v) = value };
            acc += share;
        }
        acc
    });
    partial.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{clique, path, star};

    fn total(pr: &[f64]) -> f64 {
        pr.iter().sum()
    }

    #[test]
    fn scores_sum_to_one() {
        let g = build_undirected(&clique(10));
        let pr = pagerank(&g, PagerankOptions::default());
        assert!((total(&pr) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn symmetry_gives_equal_scores_on_clique() {
        let g = build_undirected(&clique(8));
        let pr = pagerank(&g, PagerankOptions::default());
        for &p in &pr {
            assert!((p - 1.0 / 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn star_center_outranks_leaves() {
        let g = build_undirected(&star(20));
        let pr = pagerank(&g, PagerankOptions::default());
        for &leaf in &pr[1..] {
            assert!(pr[0] > 3.0 * leaf);
        }
        assert!((total(&pr) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn path_ends_rank_lowest() {
        let g = build_undirected(&path(9));
        let pr = pagerank(&g, PagerankOptions::default());
        let min = pr.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((pr[0] - min).abs() < 1e-9 || (pr[8] - min).abs() < 1e-9);
        assert!(pr[4] > pr[0]);
    }

    #[test]
    fn isolated_vertices_get_teleport_mass() {
        let mut el = xmt_graph::EdgeList::new(4);
        el.push(0, 1);
        let g = build_undirected(&el);
        let pr = pagerank(&g, PagerankOptions::default());
        assert!((total(&pr) - 1.0).abs() < 1e-6);
        assert!(pr[2] > 0.0 && pr[3] > 0.0);
    }

    /// The recurrence run one vertex at a time, summing in vertex order;
    /// returns the ranks and the number of sweeps.
    fn sequential(g: &Csr, opts: PagerankOptions) -> (Vec<f64>, usize) {
        let n = g.num_vertices() as usize;
        let nf = n as f64;
        let mut pr = vec![1.0 / nf; n];
        let mut next = vec![0.0; n];
        for done in 1..=opts.max_iterations {
            let dangling: f64 = (0..n)
                .filter(|&v| g.degree(v as u64) == 0)
                .map(|v| pr[v])
                .sum();
            let base = (1.0 - opts.damping) / nf + opts.damping * dangling / nf;
            let mut l1 = 0.0;
            for v in 0..n {
                let sum: f64 = g
                    .neighbors(v as u64)
                    .iter()
                    .map(|&u| pr[u as usize] / g.degree(u) as f64)
                    .sum();
                next[v] = base + opts.damping * sum;
                l1 += (next[v] - pr[v]).abs();
            }
            std::mem::swap(&mut pr, &mut next);
            if l1 < opts.tolerance {
                return (pr, done);
            }
        }
        (pr, opts.max_iterations)
    }

    fn bits_hash(pr: &[f64]) -> u64 {
        pr.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn rmat12() -> Csr {
        let p = xmt_graph::gen::rmat::RmatParams::graph500(12);
        build_undirected(&xmt_graph::gen::rmat::rmat_edges(&p, 1))
    }

    #[test]
    fn rmat_ranks_have_the_same_bits_on_every_run() {
        let g = rmat12();
        let first = pagerank(&g, PagerankOptions::default());
        for _ in 1..20 {
            let again = pagerank(&g, PagerankOptions::default());
            assert_eq!(bits_hash(&again), bits_hash(&first));
        }
        // Pinned, so every worker count must reproduce these bits.
        assert_eq!(bits_hash(&first), 0xf5cd_4da8_7b55_95b3);
    }

    #[test]
    fn matches_the_sequential_recurrence_sweep_for_sweep() {
        let mut isolated = xmt_graph::EdgeList::new(50);
        for v in 0..30 {
            isolated.push(v, (v * 7 + 3) % 30);
        }
        for g in [rmat12(), build_undirected(&isolated)] {
            let opts = PagerankOptions::default();
            let (want, sweeps) = sequential(&g, opts);
            let got = pagerank(&g, opts);
            let linf = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(linf < 1e-12, "L-inf {linf:e}");
            // Same sweep count: capped at `sweeps` nothing changes, one
            // sweep fewer stops short.
            let capped = |max_iterations| {
                pagerank(
                    &g,
                    PagerankOptions {
                        max_iterations,
                        ..opts
                    },
                )
            };
            assert_eq!(bits_hash(&capped(sweeps)), bits_hash(&got));
            assert_ne!(bits_hash(&capped(sweeps - 1)), bits_hash(&got));
        }
    }

    #[test]
    fn empty_graph_has_no_ranks() {
        let g = build_undirected(&xmt_graph::EdgeList::new(0));
        assert!(pagerank(&g, PagerankOptions::default()).is_empty());
    }

    #[test]
    fn respects_iteration_cap() {
        let g = build_undirected(&path(50));
        let one = pagerank(
            &g,
            PagerankOptions {
                max_iterations: 1,
                tolerance: 0.0,
                ..Default::default()
            },
        );
        let many = pagerank(&g, PagerankOptions::default());
        // One iteration is not converged.
        let diff: f64 = one.iter().zip(&many).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6);
    }
}
