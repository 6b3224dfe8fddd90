//! Shared experiment execution: run an algorithm in both programming
//! models, cross-check the results, and expose the recorders.

use std::time::Instant;

use xmt_bsp::algorithms as bsp_alg;
use xmt_bsp::runtime::{BspConfig, BspResult};
use xmt_graph::{Csr, VertexId};
use xmt_model::{ModelParams, Recorder};

/// A connected-components run in both models.
pub struct CcRun {
    /// BSP recorder (labels: init/scan/superstep).
    pub bsp_rec: Recorder,
    /// GraphCT recorder (labels: init/iteration).
    pub ct_rec: Recorder,
    /// The BSP run (per-superstep stats, supersteps).
    pub bsp: BspResult<VertexId>,
    /// Host wall-clock seconds (BSP, GraphCT).
    pub host_secs: (f64, f64),
}

/// Run connected components in both models and verify identical labels.
pub fn run_cc(g: &Csr, config: BspConfig) -> CcRun {
    let mut bsp_rec = Recorder::new();
    let t = Instant::now();
    let bsp =
        bsp_alg::components::bsp_connected_components_with_config(g, config, Some(&mut bsp_rec));
    let bsp_host = t.elapsed().as_secs_f64();
    assert!(!bsp.hit_superstep_limit, "BSP CC did not converge");

    let mut ct_rec = Recorder::new();
    let t = Instant::now();
    let labels = graphct::connected_components_with(g, &mut graphct::Ctx::recording(&mut ct_rec));
    let ct_host = t.elapsed().as_secs_f64();

    assert_eq!(bsp.states, labels, "BSP and GraphCT labels disagree");
    CcRun {
        bsp_rec,
        ct_rec,
        bsp,
        host_secs: (bsp_host, ct_host),
    }
}

/// A BFS run in both models.
pub struct BfsRun {
    /// BSP recorder.
    pub bsp_rec: Recorder,
    /// GraphCT recorder (labels: init/level).
    pub ct_rec: Recorder,
    /// The BSP run.
    pub bsp: BspResult<bsp_alg::bfs::BfsState>,
    /// GraphCT result (distances, parents, frontier sizes).
    pub ct: graphct::BfsResult,
    /// Host wall-clock seconds (BSP, GraphCT).
    pub host_secs: (f64, f64),
}

/// Run BFS in both models from `source` and verify identical distances.
pub fn run_bfs(g: &Csr, source: VertexId, config: BspConfig) -> BfsRun {
    let mut bsp_rec = Recorder::new();
    let t = Instant::now();
    let out = bsp_alg::bfs::bsp_bfs_with_config(g, source, config, Some(&mut bsp_rec));
    let bsp_host = t.elapsed().as_secs_f64();
    assert!(!out.result.hit_superstep_limit, "BSP BFS did not converge");

    let mut ct_rec = Recorder::new();
    let t = Instant::now();
    let ct = graphct::bfs_with(g, source, &mut graphct::Ctx::recording(&mut ct_rec));
    let ct_host = t.elapsed().as_secs_f64();

    let bsp_dist: Vec<u64> = out.result.states.iter().map(|s| s.dist).collect();
    assert_eq!(bsp_dist, ct.dist, "BSP and GraphCT distances disagree");
    BfsRun {
        bsp_rec,
        ct_rec,
        bsp: out.result,
        ct,
        host_secs: (bsp_host, ct_host),
    }
}

/// A triangle-counting run in both models.
pub struct TcRun {
    /// BSP recorder.
    pub bsp_rec: Recorder,
    /// GraphCT recorder (labels: count) — the paper-faithful id-order
    /// merge kernel, so the reproduced Fig. 4 / Table 1 numbers keep
    /// their meaning.
    pub ct_rec: Recorder,
    /// Recorder for the optimized GraphCT kernel (degree-ordered DAG +
    /// adaptive intersection) — the extra Fig. 4 series.
    pub fast_rec: Recorder,
    /// The BSP run (per-superstep stats hold the candidate volume).
    pub bsp: BspResult<u64>,
    /// The agreed triangle count.
    pub triangles: u64,
    /// Host wall-clock seconds (BSP, GraphCT).
    pub host_secs: (f64, f64),
    /// Host wall-clock seconds for the optimized GraphCT kernel.
    pub fast_host_secs: f64,
}

/// Run triangle counting in both models and verify identical counts.
pub fn run_tc(g: &Csr, config: BspConfig) -> TcRun {
    let mut bsp_rec = Recorder::new();
    let t = Instant::now();
    let bsp = bsp_alg::triangles::bsp_count_triangles_with_config(g, config, Some(&mut bsp_rec));
    let bsp_host = t.elapsed().as_secs_f64();
    let bsp_count = bsp_alg::triangles::total_triangles(&bsp);

    let mut ct_rec = Recorder::new();
    let t = Instant::now();
    let ct_count = graphct::count_triangles_idorder(g, &mut graphct::Ctx::recording(&mut ct_rec));
    let ct_host = t.elapsed().as_secs_f64();

    let mut fast_rec = Recorder::new();
    let t = Instant::now();
    let fast_count = graphct::count_triangles_with(
        g,
        graphct::IntersectStrategy::Auto,
        &mut graphct::Ctx::recording(&mut fast_rec),
    );
    let fast_host = t.elapsed().as_secs_f64();

    assert_eq!(
        bsp_count, ct_count,
        "BSP and GraphCT triangle counts disagree"
    );
    assert_eq!(
        ct_count, fast_count,
        "optimized and baseline GraphCT counts disagree"
    );
    TcRun {
        bsp_rec,
        ct_rec,
        fast_rec,
        bsp,
        triangles: ct_count,
        host_secs: (bsp_host, ct_host),
        fast_host_secs: fast_host,
    }
}

/// Per-superstep predicted seconds for a BSP recorder at `procs`
/// (the scan and compute/exchange records of a superstep are summed).
pub fn bsp_step_seconds(rec: &Recorder, model: &ModelParams, procs: usize) -> Vec<(u64, f64)> {
    let mut steps = std::collections::BTreeMap::new();
    for r in rec
        .records
        .iter()
        .filter(|r| ["scan", "superstep", "exchange"].contains(&r.label.as_str()))
    {
        *steps.entry(r.step).or_insert(0.0) += r.counts.predict_seconds(model, procs);
    }
    steps.into_iter().collect()
}

/// Per-iteration predicted seconds for a GraphCT recorder under `label`.
pub fn ct_step_seconds(
    rec: &Recorder,
    model: &ModelParams,
    label: &str,
    procs: usize,
) -> Vec<(u64, f64)> {
    rec.with_label(label)
        .map(|r| (r.step, r.counts.predict_seconds(model, procs)))
        .collect()
}

/// Whole-run predicted seconds (all recorded phases).
pub fn total_seconds(rec: &Recorder, model: &ModelParams, procs: usize) -> f64 {
    xmt_model::predict_total_seconds(rec, model, procs)
}
