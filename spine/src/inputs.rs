//! Seed-driven inputs: graphs, BFS sources, the service job mix and the
//! streaming update ring.  The program under test receives only what
//! these functions generate.
//!
//! The RMAT generator seed is pinned ([`GRAPH_SEED`]) and `--seed`
//! drives everything a client chooses: BFS sources, the order of the
//! job mix, and the update stream.  Measured on the scale-15 graph, the
//! native CC call time alone moved 106 → 158 ms across twelve generator
//! seeds (6, 7 or 8 supersteps; PageRank 21 → 34 sweeps at scale 17) —
//! an inter-quartile spread near 20 % of the median, above any bound a
//! regression gate could use — while a pinned graph repeats within a
//! few percent.  Graph500 and GAP pin their generator seeds and draw
//! the sources for the same reason.

use std::collections::HashSet;
use std::time::Instant;

use xmt_graph::builder::build_undirected;
use xmt_graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_graph::validate::{largest_component, reference_components};
use xmt_graph::Csr;

/// Generator seed of every benchmark graph (Graph500 RMAT, edge factor
/// 16).  The same value goes over the wire in `register_graph`, so the
/// server builds the graph the benchmark checks against.
pub const GRAPH_SEED: u64 = 1;
pub const EDGE_FACTOR: u64 = 16;

/// splitmix64: small, seedable, and good enough to shuffle a job mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below what a job mix
    /// can show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A generated graph with the two set-up timings the `graph` layer
/// reports.
pub struct Built {
    pub csr: Csr,
    pub gen_s: f64,
    pub build_s: f64,
}

/// Generate and build the pinned RMAT graph of `scale`, timing the two
/// calls apart.
pub fn build_graph(scale: u32) -> Built {
    let params = RmatParams {
        edge_factor: EDGE_FACTOR,
        ..RmatParams::graph500(scale)
    };
    let t = Instant::now();
    let edges = rmat_edges(&params, GRAPH_SEED);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let csr = build_undirected(&edges);
    let build_s = t.elapsed().as_secs_f64();
    Built {
        csr,
        gen_s,
        build_s,
    }
}

/// The `register_graph` line that makes the server build the same graph.
pub fn register_line(name: &str, scale: u32, dynamic: bool) -> String {
    format!(
        r#"{{"op":"register_graph","name":"{name}","kind":"rmat","scale":{scale},"edge_factor":{EDGE_FACTOR},"seed":{GRAPH_SEED},"dynamic":{dynamic}}}"#
    )
}

/// `k` distinct seeded BFS sources inside the giant component.
pub fn giant_sources(g: &Csr, seed: u64, k: usize) -> Vec<u64> {
    let labels = reference_components(g);
    let big = largest_component(&labels).expect("generated graphs are non-empty");
    let mut members: Vec<u64> = (0..g.num_vertices())
        .filter(|&v| labels[v as usize] == big && g.degree(v) > 0)
        .collect();
    assert!(members.len() >= k, "giant component smaller than {k}");
    let mut rng = Rng::new(seed ^ 0x5EED_B0F5);
    // Partial Fisher-Yates: the first k slots are a uniform sample.
    for i in 0..k {
        let j = i + rng.below(members.len() - i);
        members.swap(i, j);
    }
    members.truncate(k);
    members
}

/// One job of a mix, as the client words it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixJob {
    pub algorithm: &'static str,
    /// `None` leaves the field off the wire (the server defaults to
    /// `bsp`).
    pub engine: Option<&'static str>,
    pub source: u64,
}

/// A `submit` line as a client words it; `engine` `None` leaves the
/// field off the wire (the server defaults to `bsp`).
pub fn submit_line(graph: &str, algorithm: &str, engine: Option<&str>, source: u64) -> String {
    let engine = engine.map_or(String::new(), |e| format!(r#""engine":"{e}","#));
    format!(
        r#"{{"op":"submit","algorithm":"{algorithm}",{engine}"graph":"{graph}","source":{source}}}"#
    )
}

/// Position of a kernel's wire name in [`ALGORITHMS`].
pub fn kernel_index(algorithm: &str) -> usize {
    ALGORITHMS
        .iter()
        .position(|a| *a == algorithm)
        .expect("a kernel the benchmark named itself")
}

impl MixJob {
    pub fn submit_line(&self, graph: &str) -> String {
        submit_line(graph, self.algorithm, self.engine, self.source)
    }

    /// The engine that serves the job.
    pub fn engine_name(&self) -> &'static str {
        self.engine.unwrap_or("bsp")
    }
}

pub const ALGORITHMS: [&str; 4] = ["cc", "bfs", "pagerank", "triangles"];
const MIX_ENGINES: [Option<&str>; 3] = [None, Some("native"), Some("graphct")];
/// Jobs per kernel in one block of the service mix: cc 40 %, bfs 30 %,
/// triangles 20 %, pagerank 10 %; the first two a multiple of the three
/// engines.
const MIX_BLOCK: [(&str, usize); 4] = [("cc", 12), ("bfs", 9), ("triangles", 6), ("pagerank", 3)];
pub const MIX_BLOCK_LEN: usize = 30;

/// The engine of the `i`-th job of a kernel in a block.  CC and BFS
/// rotate over the three engines (field omitted → `bsp`, `native`,
/// `graphct`).  Triangles and PageRank go to `graphct` only: on the
/// BSP engines they take 150 ms and 85 ms at scale 12 against 1–16 ms
/// for everything else, and with them a job's latency was 70 % queue
/// wait behind those two and under 1 % protocol — the workload would
/// not have shown a change to the layers it exists to watch.  The BSP
/// side of both kernels is `bsp-batch`'s.
fn mix_engine(algorithm: &str, i: usize) -> Option<&'static str> {
    match algorithm {
        "triangles" | "pagerank" => Some("graphct"),
        _ => MIX_ENGINES[i % 3],
    }
}

/// The service job mix: `blocks` blocks of [`MIX_BLOCK_LEN`] jobs.
/// Every block holds the exact kernel shares and the exact engine
/// split, so the cost of a block does not depend on the seed; the seed
/// shuffles the order inside each block and draws the BFS sources.
pub fn job_mix(seed: u64, sources: &[u64], blocks: usize) -> Vec<MixJob> {
    let mut rng = Rng::new(seed ^ 0x4D49_5845);
    let mut out = Vec::with_capacity(blocks * MIX_BLOCK_LEN);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(MIX_BLOCK_LEN);
        for (algorithm, count) in MIX_BLOCK {
            for i in 0..count {
                block.push(MixJob {
                    algorithm,
                    engine: mix_engine(algorithm, i),
                    source: if algorithm == "bfs" {
                        sources[rng.below(sources.len())]
                    } else {
                        0
                    },
                });
            }
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// Slices of the update ring and edges per slice: a batch inserts one
/// slice and deletes the slice inserted two batches earlier, 256 edge
/// operations in all.
pub const RING_SLICES: usize = 64;
/// Undirected edges as the wire carries them: `[u, v]` pairs.
pub type Edges = [(u64, u64)];
pub const SLICE_EDGES: usize = 128;

/// The streaming update ring: [`RING_SLICES`] slices of [`SLICE_EDGES`]
/// edges from a second, seeded RMAT stream over the same vertex set (so
/// inserts follow the base graph's degree skew).  Every edge is absent
/// from `base`, not a self loop, and distinct as an unordered pair, so
/// every planned insert and delete is accepted and the end state is
/// known exactly.
pub fn update_ring(base: &Csr, scale: u32, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let needed = RING_SLICES * SLICE_EDGES;
    let n = base.num_vertices();
    // Eight times the need absorbs the duplicates, self loops and edges
    // already in the base graph that the filter drops.
    let pool = rmat_edges(
        &RmatParams {
            edge_factor: (needed as u64 * 8).div_ceil(n).max(1),
            ..RmatParams::graph500(scale)
        },
        seed.wrapping_add(17),
    );
    let mut seen = HashSet::new();
    let fresh: Vec<(u64, u64)> = pool
        .edges
        .iter()
        .copied()
        .filter(|&(u, v)| {
            u != v && u < n && v < n && !base.has_arc(u, v) && seen.insert((u.min(v), u.max(v)))
        })
        .take(needed)
        .collect();
    assert_eq!(fresh.len(), needed, "update pool came up short");
    fresh.chunks(SLICE_EDGES).map(<[_]>::to_vec).collect()
}

fn pairs(edges: &[(u64, u64)]) -> String {
    edges
        .iter()
        .map(|(u, v)| format!("[{u},{v}]"))
        .collect::<Vec<_>>()
        .join(",")
}

/// What batch number `batch` (counted from the first batch the graph
/// ever saw) inserts and deletes: slice `batch mod RING_SLICES`, and
/// the slice of two batches earlier (nothing for the first two).
pub fn batch_slices(ring: &[Vec<(u64, u64)>], batch: u64) -> (&Edges, &Edges) {
    let slice = |b: u64| &ring[(b % ring.len() as u64) as usize][..];
    (
        slice(batch),
        if batch >= 2 { slice(batch - 2) } else { &[] },
    )
}

/// The `update` line of batch number `batch`.
pub fn update_line(graph: &str, ring: &[Vec<(u64, u64)>], batch: u64) -> String {
    let (insert, delete) = batch_slices(ring, batch);
    format!(
        r#"{{"op":"update","graph":"{graph}","insert":[{}],"delete":[{}]}}"#,
        pairs(insert),
        pairs(delete)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_deterministic_and_seed_dependent() {
        let sources = [3, 5, 8, 13];
        let a = job_mix(1, &sources, 4);
        assert_eq!(a, job_mix(1, &sources, 4));
        assert_ne!(a, job_mix(2, &sources, 4));
        assert_eq!(a.len(), 4 * MIX_BLOCK_LEN);
    }

    #[test]
    fn every_block_has_the_exact_shares() {
        let mix = job_mix(7, &[1, 2], 3);
        for block in mix.chunks(MIX_BLOCK_LEN) {
            for (algorithm, count) in MIX_BLOCK {
                let of_kind: Vec<_> = block.iter().filter(|j| j.algorithm == algorithm).collect();
                assert_eq!(of_kind.len(), count);
                for engine in MIX_ENGINES {
                    let n = of_kind.iter().filter(|j| j.engine == engine).count();
                    let want = match (algorithm, engine) {
                        ("cc" | "bfs", _) => count / 3,
                        (_, Some("graphct")) => count,
                        _ => 0,
                    };
                    assert_eq!(n, want, "{algorithm} on {engine:?}");
                }
            }
        }
    }

    #[test]
    fn submit_line_omits_the_default_engine() {
        let job = MixJob {
            algorithm: "bfs",
            engine: None,
            source: 9,
        };
        assert_eq!(
            job.submit_line("g"),
            r#"{"op":"submit","algorithm":"bfs","graph":"g","source":9}"#
        );
        let job = MixJob {
            engine: Some("graphct"),
            ..job
        };
        assert!(job.submit_line("g").contains(r#""engine":"graphct","#));
    }

    #[test]
    fn update_ring_is_deterministic_fresh_and_distinct() {
        let base = build_graph(11).csr;
        let a = update_ring(&base, 11, 1);
        assert_eq!(a, update_ring(&base, 11, 1));
        assert_ne!(a, update_ring(&base, 11, 2));
        assert_eq!(a.len(), RING_SLICES);
        let mut seen = HashSet::new();
        for &(u, v) in a.iter().flatten() {
            assert!(u != v && !base.has_arc(u, v));
            assert!(seen.insert((u.min(v), u.max(v))), "duplicate pair");
        }
        assert_eq!(seen.len(), RING_SLICES * SLICE_EDGES);
    }

    #[test]
    fn update_lines_follow_the_ring() {
        let ring = vec![vec![(0, 1)], vec![(2, 3)], vec![(4, 5)]];
        assert_eq!(
            update_line("d", &ring, 0),
            r#"{"op":"update","graph":"d","insert":[[0,1]],"delete":[]}"#
        );
        assert_eq!(
            update_line("d", &ring, 2),
            r#"{"op":"update","graph":"d","insert":[[4,5]],"delete":[[0,1]]}"#
        );
        // Wraps: batch 3 re-inserts slice 0, which batch 2 deleted.
        assert_eq!(
            update_line("d", &ring, 3),
            r#"{"op":"update","graph":"d","insert":[[0,1]],"delete":[[2,3]]}"#
        );
        assert!(batch_slices(&ring, 1).1.is_empty());
    }

    #[test]
    fn sources_are_seeded_distinct_and_in_the_giant_component() {
        let g = build_graph(9).csr;
        let a = giant_sources(&g, 1, 8);
        assert_eq!(a, giant_sources(&g, 1, 8));
        assert_ne!(a, giant_sources(&g, 2, 8));
        let labels = reference_components(&g);
        let big = largest_component(&labels).unwrap();
        let distinct: HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 8);
        assert!(a.iter().all(|&v| labels[v as usize] == big));
    }
}
