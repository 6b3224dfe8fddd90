//! Ablation of the paper's §VI convergence argument: "Since messages in
//! the BSP model cannot arrive until the next superstep, vertices ...
//! are processing on stale data.  Because data cannot move forward in
//! the computation, the number of iterations required until convergence
//! is at least a factor of two larger than in the shared memory model."
//!
//! Three connected-components variants on the same graph:
//!
//! * **Gauss-Seidel** — GraphCT's algorithm: in-place labels, updates
//!   visible within the sweep (label propagation);
//! * **Jacobi** — the same sweep double-buffered: reads only the
//!   previous sweep's labels (shared-memory code, BSP-style staleness);
//! * **BSP** — Algorithm 1.
//!
//! ```text
//! cargo run --release -p xmt-bench --bin ablation_labelprop [-- --scale N]
//! ```

use serde::Serialize;

use xmt_bench::output::fmt_secs;
use xmt_bench::run::total_seconds;
use xmt_bench::{build_paper_graph, write_json, HarnessConfig, Table};
use xmt_bsp::algorithms::components::bsp_connected_components;
use xmt_model::Recorder;

#[derive(Serialize)]
struct LabelPropRow {
    variant: String,
    iterations: u64,
    seconds_at_max_procs: f64,
}

fn main() {
    let cfg = HarnessConfig::from_args(16);
    let model = cfg.model();
    let pmax = cfg.max_procs();

    eprintln!("ablation_labelprop: building RMAT scale {} ...", cfg.scale);
    let g = build_paper_graph(&cfg);

    eprintln!("running the three variants ...");
    let mut gs_rec = Recorder::new();
    let gs = graphct::connected_components_with(&g, &mut graphct::Ctx::recording(&mut gs_rec));

    let mut j_rec = Recorder::new();
    let jacobi = graphct::connected_components_jacobi(&g, Some(&mut j_rec));
    assert_eq!(gs, jacobi, "variants must agree");

    let mut bsp_rec = Recorder::new();
    let bsp = bsp_connected_components(&g, Some(&mut bsp_rec));
    assert_eq!(gs, bsp.states, "variants must agree");

    let rows = vec![
        LabelPropRow {
            variant: "Gauss-Seidel (GraphCT)".into(),
            iterations: gs_rec.steps("iteration"),
            seconds_at_max_procs: total_seconds(&gs_rec, &model, pmax),
        },
        LabelPropRow {
            variant: "Jacobi (stale reads)".into(),
            iterations: j_rec.steps("iteration"),
            seconds_at_max_procs: total_seconds(&j_rec, &model, pmax),
        },
        LabelPropRow {
            variant: "BSP (Algorithm 1)".into(),
            iterations: bsp.supersteps,
            seconds_at_max_procs: total_seconds(&bsp_rec, &model, pmax),
        },
    ];

    println!();
    println!(
        "ABLATION — in-iteration label propagation (§VI), RMAT scale {}",
        cfg.scale
    );
    let mut t = Table::new(&["variant", "iterations", &format!("time @ P={pmax}")]);
    for r in &rows {
        t.row(&[
            r.variant.clone(),
            r.iterations.to_string(),
            fmt_secs(r.seconds_at_max_procs),
        ]);
    }
    t.print();
    println!();
    println!(
        "staleness factor: Jacobi needs {:.1}x the sweeps of Gauss-Seidel; BSP needs {:.1}x (paper: >= 2x)",
        rows[1].iterations as f64 / rows[0].iterations as f64,
        rows[2].iterations as f64 / rows[0].iterations as f64,
    );

    if let Some(dir) = &cfg.out_dir {
        write_json(dir, "ablation_labelprop", &rows).expect("write results");
    }
}
