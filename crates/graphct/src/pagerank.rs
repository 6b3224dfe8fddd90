//! PageRank by parallel power iteration: the `graphct` engine's answer
//! to a served `pagerank` job.

use xmt_graph::Csr;
use xmt_par::pfor::parallel_fill;
use xmt_par::reduce;

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

/// Compute PageRank scores (they sum to 1).
///
/// Pull-based: `pr'[v] = (1−d)/n + d·Σ_{u→v} pr[u]/outdeg(u)`, with the
/// dangling mass redistributed uniformly.  For undirected graphs the
/// stored reverse arcs let the pull iterate directly over `neighbors`.
pub fn pagerank(g: &Csr, opts: PagerankOptions) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    assert!(
        !g.is_directed(),
        "this kernel pulls over stored arcs; pass an undirected (symmetrized) graph"
    );
    let nf = n as f64;
    let mut pr = vec![1.0 / nf; n];
    let mut next = vec![0.0f64; n];

    for _ in 0..opts.max_iterations {
        // Dangling vertices donate their mass uniformly.
        let dangling: f64 = reduce::reduce_commutative(
            0,
            n,
            || 0.0f64,
            |acc, v| {
                if g.degree(v as u64) == 0 {
                    acc + pr[v]
                } else {
                    acc
                }
            },
            |a, b| a + b,
        );
        let base = (1.0 - opts.damping) / nf + opts.damping * dangling / nf;

        {
            let pr_ref = &pr;
            parallel_fill(&mut next, |v| {
                let mut sum = 0.0;
                for &u in g.neighbors(v as u64) {
                    sum += pr_ref[u as usize] / g.degree(u) as f64;
                }
                base + opts.damping * sum
            });
        }

        let next_ref = &next;
        let pr_ref = &pr;
        let l1: f64 = reduce::reduce_commutative(
            0,
            n,
            || 0.0f64,
            |acc, v| acc + (next_ref[v] - pr_ref[v]).abs(),
            |a, b| a + b,
        );
        std::mem::swap(&mut pr, &mut next);
        if l1 < opts.tolerance {
            break;
        }
    }
    pr
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
