//! RMAT recursive-matrix graph generator (Chakrabarti, Zhan & Faloutsos).
//!
//! Each edge independently descends `scale` levels of a recursively
//! partitioned adjacency matrix, choosing quadrant (a, b, c, d) at every
//! level.  With the Graph500 parameters (0.57/0.19/0.19/0.05) this yields
//! the skewed, small-world degree distribution the paper studies.
//!
//! Generation is deterministic and embarrassingly parallel: edge `k` is
//! produced by its own ChaCha8 stream, keyed by `(seed, k, "RMAT")` and
//! read from block 0, so the same `(params, seed)` produce the same graph
//! regardless of thread count.  Almost all of the cost is those random
//! bits (`5 × scale` doubles an edge with noise), so edges are made `N`
//! at a time: one `N`-lane ChaCha8 pass yields the next block of `N`
//! edges' streams, and the `N` descents run side by side without a branch
//! on the quadrant, in one body generic over `N`, compiled for 16 lanes
//! on AVX-512F ([`chacha8_block16`]), 8 on AVX2 ([`chacha8_block8`]) and 8
//! on the baseline target; [`rmat_edges`] runs the widest the CPU has.
//! Every edge reads the same words in the same order and every float
//! operation keeps its association (Rust never contracts to fused
//! multiply-add), so on each instance the edge list is the one a scalar
//! per-edge `ChaCha8Rng` descent produces, bit for bit (the tests keep
//! that reference and pin the bytes with hashes).

use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::{chacha8_block16, chacha8_block8, Avx2, Avx512, ChaCha8Rng};

use xmt_par::parallel_for;

use crate::{EdgeList, VertexId};

/// RMAT generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Edges per vertex; the paper uses 16 (2^24 · 16 ≈ 268 M edges).
    pub edge_factor: u64,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Per-level multiplicative noise applied to (a,b,c,d), as in the
    /// Graph500 reference generator, to avoid exact self-similarity.
    pub noise: f64,
    /// Randomly permute vertex labels (Graph500 does; breaks the
    /// id-correlated locality of raw RMAT).
    pub permute: bool,
}

impl RmatParams {
    /// Graph500 / paper parameters at the given scale and edge factor 16.
    pub fn graph500(scale: u32) -> Self {
        RmatParams {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
            permute: true,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of generated edges (before any dedup).
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * self.edge_factor
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generate the RMAT edge list for `params` with the given seed.
pub fn rmat_edges(params: &RmatParams, seed: u64) -> EdgeList {
    rmat_edges_on(params, seed, Avx512::detect(), Avx2::detect())
}

/// The descent instance [`rmat_edges`] runs on this CPU.
pub fn simd_instance() -> &'static str {
    match (Avx512::detect(), Avx2::detect()) {
        (Some(_), _) => "avx512",
        (None, Some(_)) => "avx2",
        (None, None) => "baseline",
    }
}

/// [`rmat_edges`] on the widest descent instance the tokens allow (`wide`
/// proves AVX-512F).
fn rmat_edges_on(p: &RmatParams, seed: u64, wide: Option<Avx512>, avx2: Option<Avx2>) -> EdgeList {
    let base = |key: &_, c| chacha8_block8(None, key, c);
    match (wide, avx2) {
        // SAFETY: an `Avx512` token exists only where the CPU has AVX-512F.
        (Some(t), _) => edges_by(p, seed, |k| unsafe { gen_avx512(t, p, seed, k) }),
        // SAFETY: an `Avx2` token exists only where the CPU has AVX2.
        (None, Some(t)) => edges_by(p, seed, |k| unsafe { gen_avx2(t, p, seed, k) }),
        (None, None) => edges_by(p, seed, |k| gen_edges(base, p, seed, k)),
    }
}

/// [`rmat_edges`], where `gen(first)` makes edges `first..first + N`.
fn edges_by<const N: usize>(
    params: &RmatParams,
    seed: u64,
    gen: impl Fn(u64) -> [Edge; N] + Sync,
) -> EdgeList {
    assert!((1..=40).contains(&params.scale), "scale out of range");
    let d = params.d();
    assert!(
        params.a > 0.0 && params.b >= 0.0 && params.c >= 0.0 && d >= 0.0,
        "invalid quadrant probabilities"
    );
    let n = params.num_vertices();
    let m = params.num_edges() as usize;

    let mut edges: Vec<Edge> = vec![(0, 0); m];
    let perm = params
        .permute
        .then(|| random_permutation(n, seed ^ 0x9e37_79b9_7f4a_7c15));
    let perm = perm.as_deref();
    let out = edges.as_mut_ptr() as usize;
    parallel_for(0, m.div_ceil(N), |group| {
        let first = group * N;
        // The last group's lanes past `m` are generated and dropped.
        for (i, &(u, v)) in gen(first as u64).iter().enumerate().take(m - first) {
            let edge = match perm {
                Some(p) => (p[u as usize], p[v as usize]),
                None => (u, v),
            };
            // SAFETY: this group alone writes `first..first + N`, and the
            // `take` keeps those indices below `m`; `edges` is exclusively
            // borrowed until the loop has joined.
            unsafe { *(out as *mut Edge).add(first + i) = edge };
        }
    });

    EdgeList {
        num_vertices: n,
        edges,
    }
}

type Edge = (VertexId, VertexId);

/// `N` edges' keyed ChaCha8 streams read side by side, their blocks from
/// `chacha`: each read is the next `f64` of every lane, drawn as `rand`'s
/// `gen::<f64>()` draws it from `ChaCha8Rng::next_u64` (two words, never
/// across blocks).
struct Streams<F, const N: usize> {
    chacha: F,
    key: [[u32; N]; 8],
    counter: u64,
    block: [[u32; N]; 16],
    word: usize,
}

impl<F: Fn(&[[u32; N]; 8], [u64; N]) -> [[u32; N]; 16], const N: usize> Streams<F, N> {
    /// The streams of edges `first..first + N`: key `(seed, k, "RMAT")`.
    fn new(chacha: F, seed: u64, first: u64) -> Self {
        let k: [u64; N] = std::array::from_fn(|l| first + l as u64);
        let mut key = [[0; N]; 8];
        key[0] = [seed as u32; N];
        key[1] = [(seed >> 32) as u32; N];
        key[2] = k.map(|k| k as u32);
        key[3] = k.map(|k| (k >> 32) as u32);
        key[4] = [0x524d_4154; N]; // "RMAT"
        Streams {
            chacha,
            key,
            counter: 0,
            block: [[0; N]; 16],
            word: 16,
        }
    }

    #[inline(always)]
    fn next_f64(&mut self) -> [f64; N] {
        if self.word == 16 {
            self.block = (self.chacha)(&self.key, [self.counter; N]);
            self.counter += 1;
            self.word = 0;
        }
        let (lo, hi) = (self.block[self.word], self.block[self.word + 1]);
        self.word += 2;
        std::array::from_fn(|l| {
            // The top 53 bits `hi << 21 | lo >> 11`, as a sum of two
            // exact halves: the total is an integer below 2^53, so exact.
            let top = hi[l] as f64 * (1u64 << 21) as f64 + (lo[l] >> 11) as f64;
            top * (1.0 / (1u64 << 53) as f64)
        })
    }
}

/// [`gen_edges`] on AVX-512F lanes; only for a CPU that has it (`t` proves it).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx512f"))]
unsafe fn gen_avx512(t: Avx512, p: &RmatParams, seed: u64, first: u64) -> [Edge; 16] {
    gen_edges(|key, c| chacha8_block16(Some(t), key, c), p, seed, first)
}

/// [`gen_edges`] on AVX2 lanes; only for a CPU that has it (`t` proves it).
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn gen_avx2(t: Avx2, p: &RmatParams, seed: u64, first: u64) -> [Edge; 8] {
    gen_edges(|key, c| chacha8_block8(Some(t), key, c), p, seed, first)
}

/// Edges `first..first + N`, one per lane, on [`Streams`] from `chacha`.
#[inline(always)]
fn gen_edges<const N: usize>(
    chacha: impl Fn(&[[u32; N]; 8], [u64; N]) -> [[u32; N]; 16],
    params: &RmatParams,
    seed: u64,
    first: u64,
) -> [Edge; N] {
    let mut rng = Streams::new(chacha, seed, first);
    let mut a = [params.a; N];
    let mut b = [params.b; N];
    let mut c = [params.c; N];
    let mut d = [params.d(); N];
    let mut u = [0u64; N];
    let mut v = [0u64; N];
    for _ in 0..params.scale {
        let r = rng.next_f64();
        for l in 0..N {
            let r = r[l] * (a[l] + b[l] + c[l] + d[l]);
            let ab = a[l] + b[l];
            // Quadrant without a branch: (0,0) below a, (0,1) below
            // a + b, (1,0) below a + b + c, (1,1) above.
            let hi = r >= ab;
            let right = (a[l] <= r) & (r < ab) | (r >= ab + c[l]);
            u[l] = u[l] << 1 | hi as u64;
            v[l] = v[l] << 1 | right as u64;
        }
        if params.noise > 0.0 {
            // Multiplicative noise, renormalized next level via the total.
            for x in [&mut a, &mut b, &mut c, &mut d] {
                let f = rng.next_f64();
                for l in 0..N {
                    x[l] *= 1.0 - params.noise + 2.0 * params.noise * f[l];
                }
            }
        }
    }
    std::array::from_fn(|l| (u[l], v[l]))
}

/// Fisher-Yates permutation of `0..n`, seeded.
pub fn random_permutation(n: u64, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..n as usize).rev() {
        let j = Uniform::new_inclusive(0, i).sample(&mut rng);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Edge `k` of the stream on a scalar `ChaCha8Rng`: the reference
    /// every instance of the descent must equal.
    fn gen_edge(params: &RmatParams, seed: u64, k: u64) -> (VertexId, VertexId) {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(&k.to_le_bytes());
        key[16..24].copy_from_slice(&0x524d_4154u64.to_le_bytes()); // "RMAT"
        let mut rng = ChaCha8Rng::from_seed(key);

        let (mut a, mut b, mut c, mut d) = (params.a, params.b, params.c, params.d());
        let mut u: u64 = 0;
        let mut v: u64 = 0;
        for _ in 0..params.scale {
            u <<= 1;
            v <<= 1;
            let total = a + b + c + d;
            let r: f64 = rng.gen::<f64>() * total;
            if r < a {
                // upper-left: no bits set
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
            if params.noise > 0.0 {
                let jitter = |x: f64, rng: &mut ChaCha8Rng| {
                    x * (1.0 - params.noise + 2.0 * params.noise * rng.gen::<f64>())
                };
                a = jitter(a, &mut rng);
                b = jitter(b, &mut rng);
                c = jitter(c, &mut rng);
                d = jitter(d, &mut rng);
            }
        }
        (u, v)
    }

    fn edge_hash(el: &EdgeList) -> u64 {
        crate::fnv1a(el.edges.iter().flat_map(|&(u, v)| [u, v]))
    }

    /// A descent instance: the tokens `rmat_edges_on` is given.
    type Simd = (Option<Avx512>, Option<Avx2>);

    /// The baseline descent, and the AVX2 and AVX-512 ones where the CPU
    /// has them.
    fn instances() -> Vec<Simd> {
        let (avx512, avx2) = (Avx512::detect(), Avx2::detect());
        if avx2.is_none() {
            eprintln!("no AVX2 on this CPU: the AVX2 descent is not checked");
        }
        if avx512.is_none() {
            eprintln!("no AVX-512F on this CPU: the AVX-512 descent is not checked");
        }
        let wide = [
            avx2.map(|t| (None, Some(t))),
            avx512.map(|t| (Some(t), None)),
        ];
        [(None, None)]
            .into_iter()
            .chain(wide.into_iter().flatten())
            .collect()
    }

    fn name((avx512, avx2): Simd) -> &'static str {
        match (avx512, avx2) {
            (Some(_), _) => "avx512",
            (None, Some(_)) => "avx2",
            (None, None) => "baseline",
        }
    }

    #[test]
    fn edge_list_bytes_are_pinned() {
        // Measured on the scalar per-edge generator this one replaced.
        for simd in instances() {
            for (scale, want) in [(10, 0xfb9f_be0f_748f_7c37), (12, 0xfc0c_4f13_960f_c413)] {
                let el = rmat_edges_on(&RmatParams::graph500(scale), 1, simd.0, simd.1);
                assert_eq!(edge_hash(&el), want, "scale {scale}, {}", name(simd));
            }
        }
    }

    /// `rmat_edges_on(.., simd)` against [`gen_edge`] edge by edge.
    fn assert_matches_reference(params: &RmatParams, seed: u64, simd: Simd) {
        let perm = params
            .permute
            .then(|| random_permutation(params.num_vertices(), seed ^ 0x9e37_79b9_7f4a_7c15));
        let want: Vec<_> = (0..params.num_edges())
            .map(|k| {
                let (u, v) = gen_edge(params, seed, k);
                perm.as_ref()
                    .map_or((u, v), |p| (p[u as usize], p[v as usize]))
            })
            .collect();
        assert_eq!(
            rmat_edges_on(params, seed, simd.0, simd.1).edges,
            want,
            "{params:?}, seed {seed}, {}",
            name(simd)
        );
    }

    #[test]
    fn both_descent_instances_equal_the_scalar_reference() {
        for simd in instances() {
            for scale in 1..=12 {
                // A few thousand edges a case keep the reference fast in debug.
                let paper = RmatParams {
                    edge_factor: (1024 >> scale).clamp(1, 16),
                    ..RmatParams::graph500(scale)
                };
                let raw = RmatParams {
                    permute: false,
                    ..paper
                };
                assert_matches_reference(&paper, 1, simd);
                assert_matches_reference(&raw, 1, simd);
                assert_matches_reference(&RmatParams { noise: 0.0, ..raw }, 1, simd);
                assert_matches_reference(&raw, 0xdead_beef_0123_4567, simd);
            }
            // `m` is `2^scale × edge_factor`, so only scales 1 to 3 have
            // counts that are not a multiple of sixteen: the last group's
            // spare lanes (at scale 3 an odd factor leaves half of a
            // 16-lane group empty).
            for scale in 1..=3 {
                for edge_factor in 1..=7 {
                    let params = RmatParams {
                        edge_factor,
                        ..RmatParams::graph500(scale)
                    };
                    assert_matches_reference(&params, 9, simd);
                }
            }
        }
    }

    #[test]
    fn sizes_match_parameters() {
        let p = RmatParams::graph500(10);
        let el = rmat_edges(&p, 1);
        assert_eq!(el.num_vertices, 1024);
        assert_eq!(el.num_edges(), 1024 * 16);
        assert!(el.is_consistent());
    }

    #[test]
    fn generation_is_deterministic() {
        let p = RmatParams::graph500(8);
        let a = rmat_edges(&p, 42);
        let b = rmat_edges(&p, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = RmatParams::graph500(8);
        let a = rmat_edges(&p, 1);
        let b = rmat_edges(&p, 2);
        assert_ne!(a.edges, b.edges);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // With a=0.57 the max degree should far exceed the mean degree.
        let p = RmatParams {
            permute: false,
            ..RmatParams::graph500(12)
        };
        let el = rmat_edges(&p, 7);
        let mut deg = vec![0u64; el.num_vertices as usize];
        for &(u, v) in &el.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mean = deg.iter().sum::<u64>() as f64 / deg.len() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 10.0 * mean, "expected skew: max {max} vs mean {mean}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = random_permutation(1000, 5);
        let mut seen = vec![false; 1000];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn permuted_graph_has_same_size() {
        let raw = RmatParams {
            permute: false,
            ..RmatParams::graph500(8)
        };
        let perm = RmatParams {
            permute: true,
            ..RmatParams::graph500(8)
        };
        let a = rmat_edges(&raw, 3);
        let b = rmat_edges(&perm, 3);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.num_vertices, b.num_vertices);
        // Degree *multiset* is preserved by relabeling.
        let degs = |el: &EdgeList| {
            let mut d = vec![0u64; el.num_vertices as usize];
            for &(u, v) in &el.edges {
                d[u as usize] += 1;
                d[v as usize] += 1;
            }
            d.sort_unstable();
            d
        };
        assert_eq!(degs(&a), degs(&b));
    }
}
