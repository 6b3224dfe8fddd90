//! What a fresh superstep frame costs against a reused one: the same BSP
//! kernel called on the benchmark's graph (Graph500 RMAT, edge factor 16,
//! seed 1) on the guided executor, alternating a throwaway frame and one
//! frame held across calls, timing each call and counting the minor page
//! faults it took (`getrusage` on 64-bit Linux; 0 elsewhere).
//!
//! ```text
//! cargo run --release --example frame_faults -- [tc|cc|pagerank] [SCALE] [CALLS]
//! ```
//!
//! Prints one row per frame kind: median and range of milliseconds and of
//! faults per call, over `CALLS` calls each (default 21, scale 13, `tc`).

use std::time::Instant;

use xmt_bsp_repro::bsp::algorithms::components::CcProgram;
use xmt_bsp_repro::bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp_repro::bsp::algorithms::triangles::TcProgram;
use xmt_bsp_repro::bsp::program::VertexProgram;
use xmt_bsp_repro::bsp::{run, RunOptions, SuperstepFrame};
use xmt_bsp_repro::graph::builder::build_undirected;
use xmt_bsp_repro::graph::gen::rmat::{rmat_edges, RmatParams};
use xmt_bsp_repro::graph::Csr;
use xmt_bsp_repro::par::Executor;

/// The process's minor page faults so far.
fn minor_faults() -> u64 {
    xmt_trace::minor_faults()
}

/// Median, min and max.
fn summary(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0], xs[xs.len() - 1])
}

/// One call of `program` on `g`, on `frame` if given and on a fresh
/// frame (not the runtime's spare one) otherwise; `(ms, faults)`.
fn call<P: VertexProgram>(
    g: &Csr,
    program: &P,
    frame: Option<&mut SuperstepFrame<P::State, P::Message>>,
) -> (f64, f64) {
    let faults = minor_faults();
    let t = Instant::now();
    let mut fresh = None;
    let opts = RunOptions {
        frame: Some(frame.unwrap_or_else(|| fresh.insert(SuperstepFrame::new()))),
        exec: Executor::guided(),
        ..RunOptions::default()
    };
    let r = run(g, program, opts).expect("a fresh run");
    std::hint::black_box(&r.result.states);
    drop(r);
    drop(fresh);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, (minor_faults() - faults) as f64)
}

fn probe<P: VertexProgram>(g: &Csr, program: &P, calls: usize) {
    let mut frame = SuperstepFrame::new();
    call(g, program, Some(&mut frame));
    let (mut fresh, mut warmed) = ((vec![], vec![]), (vec![], vec![]));
    for _ in 0..calls.max(1) {
        let (ms, faults) = call(g, program, None);
        fresh.0.push(ms);
        fresh.1.push(faults);
        let (ms, faults) = call(g, program, Some(&mut frame));
        warmed.0.push(ms);
        warmed.1.push(faults);
    }
    for (name, (ms, faults)) in [("fresh", fresh), ("warmed", warmed)] {
        let (ms, faults) = (summary(ms), summary(faults));
        println!(
            "{name:<7} ms {:.1} ({:.1}-{:.1})  faults {:.0} ({:.0}-{:.0})",
            ms.0, ms.1, ms.2, faults.0, faults.1, faults.2
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let kernel = args.next().unwrap_or_else(|| "tc".to_string());
    let scale: u32 = args.next().map_or(13, |s| s.parse().expect("SCALE"));
    let calls: usize = args.next().map_or(21, |s| s.parse().expect("CALLS"));
    let params = RmatParams {
        edge_factor: 16,
        ..RmatParams::graph500(scale)
    };
    let g = build_undirected(&rmat_edges(&params, 1));
    println!("{kernel}, scale {scale}, {calls} calls of each frame kind");
    match kernel.as_str() {
        "tc" => probe(&g, &TcProgram, calls),
        "cc" => probe(&g, &CcProgram, calls),
        "pagerank" => probe(&g, &PagerankProgram::default(), calls),
        other => panic!("unknown kernel {other}: tc, cc or pagerank"),
    }
}
