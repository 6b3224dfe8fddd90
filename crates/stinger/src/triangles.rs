//! Incremental clustering coefficients (Ediger et al., "Massive
//! streaming data analytics: a case study with clustering coefficients",
//! MTAAP 2010 — the paper's reference \[12\]).
//!
//! The insight: inserting edge `{u, v}` creates exactly
//! `|N(u) ∩ N(v)|` new triangles — one per common neighbor — so the
//! per-vertex triangle counts can be maintained in O(d_u + d_v) per
//! update instead of recounting.  Deletion is symmetric (intersect
//! *after* removal).
//!
//! [`TriangleTracker`] holds no graph: its owner
//! ([`StreamingAnalytics`](crate::StreamingAnalytics)) flips the edge
//! and passes the endpoints' common neighbors.

use xmt_graph::{Csr, VertexId};

/// Per-vertex and global triangle tallies.
#[derive(Debug, PartialEq, Eq)]
pub struct TriangleTracker {
    tri: Vec<u64>,
    total: u64,
}

impl TriangleTracker {
    /// No triangles on `n` vertices.
    pub fn new(n: u64) -> Self {
        TriangleTracker {
            tri: vec![0; n as usize],
            total: 0,
        }
    }

    /// Static recount over an undirected CSR: GraphCT's per-vertex
    /// DAG sweep on the global pool, each triangle credited at all
    /// three corners.
    pub fn from_csr(g: &Csr) -> Self {
        let tri = graphct::triangles_per_vertex(g, &mut graphct::Ctx::default());
        let total = tri.iter().sum::<u64>() / 3;
        TriangleTracker { tri, total }
    }

    /// Global triangle count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Triangles through vertex `v`.
    pub fn of(&self, v: VertexId) -> u64 {
        self.tri[v as usize]
    }

    /// The new edge `{u, v}` closed one triangle per common neighbor.
    /// (`common` taken after the insert equals the pre-insert
    /// intersection, since u ∉ N(u) and v ∉ N(v).)
    #[inline]
    pub fn edge_inserted(&mut self, u: VertexId, v: VertexId, common: &[VertexId]) {
        let delta = common.len() as u64;
        self.tri[u as usize] += delta;
        self.tri[v as usize] += delta;
        for &w in common {
            self.tri[w as usize] += 1;
        }
        self.total += delta;
    }

    /// The removed edge `{u, v}` opened one triangle per common
    /// neighbor.
    #[inline]
    pub fn edge_removed(&mut self, u: VertexId, v: VertexId, common: &[VertexId]) {
        let delta = common.len() as u64;
        self.tri[u as usize] -= delta;
        self.tri[v as usize] -= delta;
        for &w in common {
            self.tri[w as usize] -= 1;
        }
        self.total -= delta;
    }

    /// Local clustering coefficient of a vertex `v` of degree `degree`.
    pub fn coefficient(&self, v: VertexId, degree: u64) -> f64 {
        if degree < 2 {
            0.0
        } else {
            2.0 * self.tri[v as usize] as f64 / (degree * (degree - 1)) as f64
        }
    }

    /// Resident bytes of the per-vertex array (length-based).
    pub fn memory_bytes(&self) -> usize {
        self.tri.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeOp, StreamingAnalytics};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn triangle_appears_and_disappears() {
        let mut t = TriangleTracker::new(3);
        t.edge_inserted(0, 1, &[]);
        t.edge_inserted(1, 2, &[]);
        t.edge_inserted(0, 2, &[1]);
        assert_eq!(t.total(), 1, "closing the triangle");
        assert_eq!(t.of(0), 1);
        assert!((t.coefficient(0, 2) - 1.0).abs() < 1e-12);
        t.edge_removed(1, 2, &[0]);
        assert_eq!(t, TriangleTracker::new(3));
    }

    #[test]
    fn incremental_counts_match_recount_under_random_churn() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 30u64;
        let mut s = StreamingAnalytics::new(n);
        let mut present: Vec<(u64, u64)> = Vec::new();
        for step in 0..2000 {
            let insert = present.is_empty() || rng.gen_bool(0.7);
            if insert {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if s.apply_batch(&[EdgeOp::Insert(u, v)]).unwrap().inserted == 1 {
                    present.push((u.min(v), u.max(v)));
                }
            } else {
                let idx = rng.gen_range(0..present.len());
                let (u, v) = present.swap_remove(idx);
                assert_eq!(s.apply_batch(&[EdgeOp::Delete(u, v)]).unwrap().deleted, 1);
            }
            if step % 250 == 0 {
                let check = TriangleTracker::from_csr(&s.graph().to_csr());
                assert_eq!(s.triangles(), check.total(), "step {step}");
                for v in 0..n {
                    assert_eq!(s.triangles_of(v), check.of(v), "step {step}");
                }
            }
        }
        assert!(s.graph().check_consistency());
    }

    #[test]
    fn matches_static_graphct_counts() {
        let el = xmt_graph::gen::er::gnm(60, 400, 3);
        let mut s = StreamingAnalytics::new(60);
        for &(u, v) in &el.edges {
            s.apply_batch(&[EdgeOp::Insert(u, v)]).unwrap();
        }
        let csr = s.graph().to_csr();
        assert_eq!(s.triangles(), graphct::count_triangles(&csr));
        let (cc, _) = graphct::clustering_coefficients(&csr);
        for v in 0..60u64 {
            assert!(
                (s.coefficient(v) - cc[v as usize]).abs() < 1e-12,
                "vertex {v}"
            );
        }
    }

    /// Serial brute force: every wedge `v < u < w` centred on `v`
    /// whose closing edge `{u, w}` exists, credited at its three corners.
    fn brute_force_tallies(g: &Csr) -> Vec<u64> {
        let mut tri = vec![0u64; g.num_vertices() as usize];
        for v in 0..g.num_vertices() {
            let nv = g.neighbors(v);
            for (i, &u) in nv.iter().enumerate().filter(|&(_, &u)| u > v) {
                for &w in &nv[i + 1..] {
                    if g.has_arc(u, w) {
                        for x in [v, u, w] {
                            tri[x as usize] += 1;
                        }
                    }
                }
            }
        }
        tri
    }

    #[test]
    fn from_csr_counts_each_triangle_at_its_three_corners() {
        let csr = xmt_graph::builder::build_undirected(&xmt_graph::EdgeList::from_pairs([
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
        ]));
        let t = TriangleTracker::from_csr(&csr);
        assert_eq!(t.total(), 1);
        assert_eq!((t.of(0), t.of(1), t.of(2), t.of(3)), (1, 1, 1, 0));

        // A skewed graph: every per-vertex tally against the brute force.
        let p = xmt_graph::gen::rmat::RmatParams::graph500(10);
        let csr = xmt_graph::builder::build_undirected(&xmt_graph::gen::rmat::rmat_edges(&p, 3));
        let t = TriangleTracker::from_csr(&csr);
        let want = brute_force_tallies(&csr);
        assert!(t.total() > 0);
        assert_eq!(3 * t.total(), want.iter().sum::<u64>());
        for v in 0..csr.num_vertices() {
            assert_eq!(t.of(v), want[v as usize], "vertex {v}");
        }
    }
}
