//! Erdős–Rényi G(n, m) generator.
//!
//! Used as the non-skewed contrast workload (RMAT's scalability story in
//! the paper hinges on skew; ER gives the control case) and as a source
//! of random graphs for property tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use xmt_par::pfor::parallel_fill;

use crate::{EdgeList, VertexId};

/// Generate `m` uniformly random edges over `n` vertices (duplicates and
/// self loops possible, as with RMAT; the CSR builder cleans them up).
///
/// Deterministic in `(n, m, seed)` and independent of thread count.
pub fn gnm(n: u64, m: u64, seed: u64) -> EdgeList {
    assert!(n >= 1, "need at least one vertex");
    let mut edges = vec![(0 as VertexId, 0 as VertexId); m as usize];
    parallel_fill(&mut edges, |k| {
        let mut rng = edge_rng(seed, k as u64);
        (rng.gen_range(0..n), rng.gen_range(0..n))
    });
    EdgeList {
        num_vertices: n,
        edges,
    }
}

fn edge_rng(seed: u64, k: u64) -> ChaCha8Rng {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..16].copy_from_slice(&k.to_le_bytes());
    key[16..24].copy_from_slice(&0x47_4e4du64.to_le_bytes()); // "GNM"
    ChaCha8Rng::from_seed(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_determinism() {
        let a = gnm(100, 500, 9);
        let b = gnm(100, 500, 9);
        assert_eq!(a, b);
        assert_eq!(a.num_edges(), 500);
        assert_eq!(a.num_vertices, 100);
        assert!(a.is_consistent());
    }

    #[test]
    fn endpoints_are_roughly_uniform() {
        let el = gnm(16, 16_000, 3);
        let mut counts = vec![0u64; 16];
        for &(u, v) in &el.edges {
            counts[u as usize] += 1;
            counts[v as usize] += 1;
        }
        let mean = 2.0 * el.num_edges() as f64 / 16.0;
        for &c in &counts {
            assert!(
                (c as f64) > mean * 0.7 && (c as f64) < mean * 1.3,
                "count {c} far from mean {mean}"
            );
        }
    }
}
