//! Output checks.  Every workload verifies what the program returned;
//! a mismatch is counted as a failed operation and fails the run.

use xmt_graph::validate::{reference_bfs, validate_bfs, validate_components};
use xmt_graph::Csr;
use xmt_service::JobOutput;

/// PageRank results may differ from the reference by this much per
/// vertex (L∞).  Not bit-equality: the parallel `f64` fold order varies
/// with worker count (ROADMAP item 1).
pub const PAGERANK_LINF: f64 = 1e-9;

/// Wire defaults of `submit` (protocol.rs): what a job that names no
/// damping or tolerance runs with.
pub const DAMPING: f64 = 0.85;
pub const TOLERANCE: f64 = 1e-7;

/// Sequential reference of the BSP PageRank recurrence
/// (`xmt_bsp::algorithms::pagerank`): superstep 0 sets `1/n`; superstep
/// `s ≥ 1` sets `(1−d)/n + d·Σ rank[u]/deg(u)` on every vertex that
/// received a message; sending stops at the first superstep `s ≥ 2`
/// that sees the previous superstep's L1 change below the tolerance.
/// Dangling mass is not redistributed, and a vertex without neighbours
/// never computes again, so it keeps `1/n`.  Returns the ranks and the
/// superstep count.
pub fn pagerank_bsp_reference(g: &Csr, damping: f64, tolerance: f64) -> (Vec<f64>, u64) {
    let n = g.num_vertices() as usize;
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = rank.clone();
    let mut prev_l1 = f64::INFINITY;
    let mut superstep = 1u64;
    loop {
        let mut l1 = 0.0;
        for v in 0..n {
            let neighbors = g.neighbors(v as u64);
            if neighbors.is_empty() {
                continue;
            }
            let sum: f64 = neighbors
                .iter()
                .map(|&u| rank[u as usize] / g.degree(u) as f64)
                .sum();
            next[v] = (1.0 - damping) / nf + damping * sum;
            l1 += (next[v] - rank[v]).abs();
        }
        std::mem::swap(&mut rank, &mut next);
        if superstep >= 2 && prev_l1 < tolerance {
            return (rank, superstep + 1);
        }
        prev_l1 = l1;
        superstep += 1;
    }
}

/// Sequential reference of the GraphCT PageRank recurrence
/// (`graphct::pagerank`): pull over stored arcs with the dangling mass
/// redistributed uniformly, until the L1 change drops below the
/// tolerance.  Returns the ranks and the iteration count.
pub fn pagerank_graphct_reference(g: &Csr, damping: f64, tolerance: f64) -> (Vec<f64>, u64) {
    let n = g.num_vertices() as usize;
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = vec![0.0; n];
    let mut iterations = 0u64;
    loop {
        let dangling: f64 = (0..n)
            .filter(|&v| g.degree(v as u64) == 0)
            .map(|v| rank[v])
            .sum();
        let base = (1.0 - damping) / nf + damping * dangling / nf;
        let mut l1 = 0.0;
        for v in 0..n {
            let sum: f64 = g
                .neighbors(v as u64)
                .iter()
                .map(|&u| rank[u as usize] / g.degree(u) as f64)
                .sum();
            next[v] = base + damping * sum;
            l1 += (next[v] - rank[v]).abs();
        }
        std::mem::swap(&mut rank, &mut next);
        iterations += 1;
        if l1 < tolerance {
            return (rank, iterations);
        }
    }
}

pub fn linf(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The answers a job on `g` must give, computed without the engine
/// under test: sequential references for BFS and PageRank, a structural
/// validator for CC, and a triangle count the caller obtained from the
/// other programming model.
pub struct Expected {
    pub pagerank_bsp: Vec<f64>,
    pub pagerank_graphct: Vec<f64>,
    pub triangles: u64,
}

impl Expected {
    pub fn new(g: &Csr, triangles: u64) -> Self {
        Expected {
            pagerank_bsp: pagerank_bsp_reference(g, DAMPING, TOLERANCE).0,
            pagerank_graphct: pagerank_graphct_reference(g, DAMPING, TOLERANCE).0,
            triangles,
        }
    }

    /// Check one job output.  `engine` picks the PageRank recurrence;
    /// BFS distances must equal the sequential reference (hence agree
    /// across engines) and the parent tree must validate.
    pub fn check(
        &self,
        g: &Csr,
        engine: &str,
        source: u64,
        output: &JobOutput,
    ) -> Result<(), String> {
        match output {
            JobOutput::Labels(labels) => {
                validate_components(g, labels).map_err(|e| format!("cc on {engine}: {e}"))
            }
            JobOutput::Bfs { dist, parent } => {
                validate_bfs(g, source, dist, parent)
                    .map_err(|e| format!("bfs from {source} on {engine}: {e}"))?;
                if *dist != reference_bfs(g, source).0 {
                    return Err(format!(
                        "bfs from {source} on {engine}: distances differ from the reference"
                    ));
                }
                Ok(())
            }
            JobOutput::Ranks(ranks) => {
                let want = if engine == "graphct" {
                    &self.pagerank_graphct
                } else {
                    &self.pagerank_bsp
                };
                let d = linf(ranks, want);
                if d <= PAGERANK_LINF {
                    Ok(())
                } else {
                    Err(format!(
                        "pagerank on {engine}: L-inf {d:e} from the reference"
                    ))
                }
            }
            JobOutput::Triangles(count) => {
                if *count == self.triangles {
                    Ok(())
                } else {
                    Err(format!(
                        "triangles on {engine}: {count}, expected {}",
                        self.triangles
                    ))
                }
            }
        }
    }
}

/// Whether two outputs of the same job agree: exactly, except PageRank
/// (within [`PAGERANK_LINF`]) and BFS parents (any valid tree will do,
/// so only distances are compared).
pub fn same_answer(a: &JobOutput, b: &JobOutput) -> bool {
    match (a, b) {
        (JobOutput::Ranks(x), JobOutput::Ranks(y)) => linf(x, y) <= PAGERANK_LINF,
        (JobOutput::Bfs { dist: x, .. }, JobOutput::Bfs { dist: y, .. }) => x == y,
        _ => a == b,
    }
}

/// Counts attempted and failed operations and keeps the first few
/// failure messages for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            eprintln!("spine: FAILED: {message}");
            self.messages.push(message);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::{clique, star};
    use xmt_graph::EdgeList;

    #[test]
    fn clique_ranks_are_uniform_under_both_recurrences() {
        let g = build_undirected(&clique(8));
        for ranks in [
            pagerank_bsp_reference(&g, DAMPING, TOLERANCE).0,
            pagerank_graphct_reference(&g, DAMPING, TOLERANCE).0,
        ] {
            assert!(ranks.iter().all(|r| (r - 0.125).abs() < 1e-12));
        }
    }

    #[test]
    fn recurrences_differ_only_in_dangling_mass() {
        // 0-1 joined, 2 and 3 isolated.
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        let g = build_undirected(&el);
        let (bsp, _) = pagerank_bsp_reference(&g, DAMPING, TOLERANCE);
        // Isolated vertices never compute after superstep 0.
        assert_eq!(bsp[2], 0.25);
        let (ct, _) = pagerank_graphct_reference(&g, DAMPING, TOLERANCE);
        assert!((ct.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(ct[2] > 0.0 && ct[2] < 0.25);
    }

    #[test]
    fn star_centre_dominates() {
        let g = build_undirected(&star(20));
        let (ranks, supersteps) = pagerank_bsp_reference(&g, DAMPING, TOLERANCE);
        assert!(supersteps > 3);
        assert!(ranks[1..].iter().all(|&leaf| ranks[0] > 3.0 * leaf));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("boom".to_string()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.messages, vec!["boom".to_string()]);
    }

    #[test]
    fn same_answer_tolerates_rank_ulps_and_parent_choice() {
        let a = JobOutput::Ranks(vec![0.5, 0.5]);
        let b = JobOutput::Ranks(vec![0.5 + 1e-12, 0.5]);
        assert!(same_answer(&a, &b));
        assert!(!same_answer(&a, &JobOutput::Ranks(vec![0.6, 0.4])));
        let x = JobOutput::Bfs {
            dist: vec![0, 1, 1],
            parent: vec![0, 0, 0],
        };
        let y = JobOutput::Bfs {
            dist: vec![0, 1, 1],
            parent: vec![0, 0, 1],
        };
        assert!(same_answer(&x, &y));
        assert!(!same_answer(&x, &JobOutput::Triangles(3)));
    }
}
