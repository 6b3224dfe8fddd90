//! Graph set-up cost: RMAT generation and the undirected CSR build of
//! the benchmark's graph (Graph500 parameters, edge factor 16, seed 1),
//! timed apart, with the process's peak resident set and FNV-1a hashes
//! of the edge list and of the CSR, so two builds can be compared for
//! byte identity as well as time.
//!
//! ```text
//! cargo run --release --example graph_setup -- [SCALE] [REPEATS]
//! ```
//!
//! Prints one row: scale, edges, arcs, the descent instance the CPU ran
//! (`simd avx512`, `avx2` or `baseline`), median generation and build
//! seconds (with min and max), peak RSS in MB (Linux `VmHWM`; 0 where
//! `/proc` is absent), and the two hashes.  Run one scale per process:
//! the peak is the process's, not the last repeat's.

use std::time::Instant;

use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, simd_instance, RmatParams};

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0], xs[xs.len() - 1])
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().map_or(17, |s| s.parse().expect("SCALE"));
    let repeats: usize = args.next().map_or(5, |s| s.parse().expect("REPEATS"));
    let params = RmatParams {
        edge_factor: 16,
        ..RmatParams::graph500(scale)
    };
    let (mut gen_s, mut build_s) = (Vec::new(), Vec::new());
    let mut hashes = (0, 0, 0);
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let edges = rmat_edges(&params, 1);
        gen_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let g = build_undirected(&edges);
        build_s.push(t.elapsed().as_secs_f64());
        let edge_hash = fnv(edges.edges.iter().flat_map(|&(u, v)| [u, v]));
        let csr_hash = fnv(g.offsets().iter().chain(g.adjacency()).copied());
        hashes = (edge_hash, csr_hash, g.num_arcs());
    }
    let (g_med, g_min, g_max) = median(gen_s);
    let (b_med, b_min, b_max) = median(build_s);
    println!(
        "scale {scale}  edges {}  arcs {}  simd {}  gen_s {g_med:.3} [{g_min:.3} .. {g_max:.3}]  \
         build_s {b_med:.3} [{b_min:.3} .. {b_max:.3}]  peak_rss_mb {:.1}  \
         edge_fnv {:016x}  csr_fnv {:016x}",
        params.num_edges(),
        hashes.2,
        simd_instance(),
        peak_rss_mb(),
        hashes.0,
        hashes.1,
    );
}
