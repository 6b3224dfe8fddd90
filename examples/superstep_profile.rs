//! Per-superstep host profile of the BSP kernels on the benchmark's graph
//! (Graph500 RMAT, edge factor 16, seed 1), run the way a service job
//! runs them: the default configuration on the guided executor, a
//! throwaway frame per call.
//!
//! ```text
//! cargo run --release --example superstep_profile -- [pagerank|cc|bfs] [SCALE] [CALLS]
//! cargo run --release --example superstep_profile -- round [SCALE] [CALLS] [TC_SCALE]
//! ```
//!
//! A kernel prints one row per superstep: messages sent, the lane bytes
//! its sends stand for, the neighbor ids the exchange's gather read (0
//! where the messages went through the lanes), and the median compute and exchange milliseconds
//! and minor page faults over `CALLS` calls (defaults: scale 15, 9
//! calls).  `round` makes the calls of one round of the benchmark's
//! in-process batch in its order — CC twice, BFS from eight sources,
//! PageRank, triangle counting on a graph of `TC_SCALE` (default 13) —
//! and prints each kernel's median milliseconds and minor faults per
//! call: how one call's allocations leave the heap for the next.

use std::time::Instant;

use xmt_bsp_repro::bsp::algorithms::bfs::BfsProgram;
use xmt_bsp_repro::bsp::algorithms::components::CcProgram;
use xmt_bsp_repro::bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp_repro::bsp::algorithms::triangles::TcProgram;
use xmt_bsp_repro::bsp::program::VertexProgram;
use xmt_bsp_repro::bsp::{run, RunOptions, TraceSink};
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::graph::Csr;
use xmt_bsp_repro::par::Executor;

/// The benchmark's graph at `scale`.
fn graph(scale: u32) -> Csr {
    let params = RmatParams {
        edge_factor: 16,
        ..RmatParams::graph500(scale)
    };
    build_undirected(&rmat_edges(&params, 1))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The BFS source: the highest-degree vertex, as the benchmark picks it.
fn source(g: &Csr) -> u64 {
    (0..g.num_vertices())
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0)
}

/// One traced call of `program` on a throwaway frame: `(ms, trace)`.
fn call<P: VertexProgram>(g: &Csr, program: &P) -> (f64, Vec<xmt_bsp_repro::bsp::SuperstepTrace>) {
    let mut sink = TraceSink::new();
    let t = Instant::now();
    let opts = RunOptions {
        sink: Some(&mut sink),
        exec: Executor::guided(),
        ..RunOptions::default()
    };
    let r = run(g, program, opts).expect("a fresh run");
    std::hint::black_box(&r.result.states);
    drop(r);
    (t.elapsed().as_secs_f64() * 1e3, sink.finish())
}

fn profile<P: VertexProgram>(g: &Csr, program: &P, calls: usize) {
    let traces: Vec<_> = (0..calls.max(1)).map(|_| call(g, program).1).collect();
    println!(
        "superstep  messages_sent  bytes_deposited  gather_probes  compute_ms  exchange_ms  minor_faults"
    );
    for (s, t) in traces[0].iter().enumerate() {
        let col = |f: fn(&xmt_bsp_repro::bsp::SuperstepTrace) -> u64| {
            median(traces.iter().map(|tr| f(&tr[s]) as f64).collect())
        };
        println!(
            "{s:>9}  {:>13}  {:>15}  {:>13}  {:>10.3}  {:>11.3}  {:>12.0}",
            t.messages_sent,
            t.bytes_deposited,
            t.gather_probes,
            col(|t| t.compute_ns) / 1e6,
            col(|t| t.exchange_ns) / 1e6,
            col(|t| t.minor_faults),
        );
    }
    let total = |f: fn(&xmt_bsp_repro::bsp::SuperstepTrace) -> u64| {
        median(
            traces
                .iter()
                .map(|tr| tr.iter().map(f).sum::<u64>() as f64)
                .collect(),
        )
    };
    println!(
        "    total  compute {:.2} ms  exchange {:.2} ms  minor faults {:.0}",
        total(|t| t.compute_ns) / 1e6,
        total(|t| t.exchange_ns) / 1e6,
        total(|t| t.minor_faults)
    );
}

fn faults() -> f64 {
    xmt_trace::minor_faults() as f64
}

fn round(scale: u32, calls: usize, tc_scale: u32) {
    let (g, tc_g) = (graph(scale), graph(tc_scale));
    // Eight BFS sources spread over the vertex range, as the batch's
    // eight seeded sources are.
    let n = g.num_vertices();
    let sources: Vec<u64> = (0..8)
        .filter_map(|i| (i * n / 8..n).find(|&v| g.degree(v) > 0))
        .collect();
    let pagerank = PagerankProgram::default();
    let names = ["cc", "bfs", "pagerank", "tc"];
    let (mut ms, mut fl) = (vec![Vec::new(); 4], vec![Vec::new(); 4]);
    let mut tc_steps: Vec<Vec<f64>> = Vec::new();
    let mut time = |k: usize, f: &mut dyn FnMut() -> f64| {
        let before = faults();
        ms[k].push(f());
        fl[k].push(faults() - before);
    };
    for _ in 0..calls.max(1) {
        for _ in 0..2 {
            time(0, &mut || call(&g, &CcProgram).0);
        }
        for &source in &sources {
            time(1, &mut || call(&g, &BfsProgram { source }).0);
        }
        time(2, &mut || call(&g, &pagerank).0);
        time(3, &mut || {
            let (took, trace) = call(&tc_g, &TcProgram);
            tc_steps.push(trace.iter().map(|t| t.minor_faults as f64).collect());
            took
        });
    }
    println!("kernel        ms  minor_faults  (medians per call over {calls} rounds)");
    for (k, name) in names.iter().enumerate() {
        println!(
            "{name:<8} {:>7.1}  {:>12.0}",
            median(ms[k].clone()),
            median(fl[k].clone())
        );
    }
    let steps = (0..tc_steps[0].len()).map(|s| median(tc_steps.iter().map(|t| t[s]).collect()));
    println!(
        "tc minor faults by superstep: {:?}",
        steps.collect::<Vec<_>>()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let kernel = args.next().unwrap_or_else(|| "pagerank".to_string());
    let scale: u32 = args.next().map_or(15, |s| s.parse().expect("SCALE"));
    let calls: usize = args.next().map_or(9, |s| s.parse().expect("CALLS"));
    if kernel == "round" {
        let tc_scale: u32 = args.next().map_or(13, |s| s.parse().expect("TC_SCALE"));
        return round(scale, calls, tc_scale);
    }
    let g = graph(scale);
    println!("{kernel}, scale {scale}, {calls} calls");
    match kernel.as_str() {
        "pagerank" => profile(&g, &PagerankProgram::default(), calls),
        "cc" => profile(&g, &CcProgram, calls),
        "bfs" => profile(&g, &BfsProgram { source: source(&g) }, calls),
        other => panic!("unknown kernel {other}: pagerank, cc, bfs or round"),
    }
}
