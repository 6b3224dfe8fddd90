//! Allocation-regression gate: steady-state supersteps perform **zero**
//! heap allocations.
//!
//! A counting `#[global_allocator]` (behind `--features alloc-count`)
//! snapshots the process allocation total at every stop-hook poll — the
//! engine polls the hook on each superstep boundary — so the difference
//! between consecutive snapshots counts every allocation anywhere in
//! between.  On a frame warmed by one full run, the window from the
//! first steady-state boundary (superstep ≥ 2) to the last must be
//! exactly zero for:
//!
//! - connected components, push delivery — the lanes, deposit tables and
//!   slot arrays every job without a transport override runs on;
//! - BFS, push delivery;
//! - connected components, **pull** delivery (the retained snapshot
//!   buffer replaces the old `states.clone()`);
//! - the same CC and BFS push configurations on the **guided**
//!   executor: the guided claim loop must be as allocation-free as the
//!   fixed one;
//! - BFS under Beamer `Delivery::Auto` on both executors: the direction
//!   decision (claim pass, frontier-edge estimate, dense visited
//!   bitmap) must ride the frame's retained buffers;
//! - triangle counting, both executors: its
//!   run has three cuttable boundaries, and the window between them
//!   holds the candidate superstep (a chunk's sends leave in several
//!   deposits, each a row of the lane's deposit table) and the
//!   wedge-closing one (the frame's per-worker mark arrays);
//! - a CC job through `xmt_service::execute` on a scheduler worker's
//!   frame slot that the previous same-shape job warmed, from its first
//!   boundary on — trace-stripped builds only, since a live `TraceSink`
//!   grows its record vector every superstep by design.
//!
//! Built `harness = false` (plain `main`): libtest allocates between
//! callbacks, which would pollute the measurement windows.  Without
//! `alloc-count` the counter never moves and the gate reports itself
//! skipped rather than vacuously green.

use std::sync::{Arc, Mutex};

use xmt_bench::alloc_count;
use xmt_bench::{build_paper_graph, pick_bfs_source, HarnessConfig};
use xmt_bsp::algorithms::bfs::BfsProgram;
use xmt_bsp::algorithms::components::CcProgram;
use xmt_bsp::algorithms::pagerank::PagerankProgram;
use xmt_bsp::algorithms::triangles::TcProgram;
use xmt_bsp::program::VertexProgram;
use xmt_bsp::{run, BspConfig, Delivery, RunOptions, SuperstepFrame};
use xmt_par::Executor;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Push supersteps poll the stop hook at most twice (the boundary cut
/// check and the pull/push decision), so skipping four snapshots is
/// guaranteed to land inside superstep >= 2.  Pull supersteps skip the
/// cut check (a pull boundary is not checkpointable) and poll exactly
/// once, so there two snapshots suffice.
const SKIP_PUSH: usize = 4;
const SKIP_PULL: usize = 2;
/// Beamer Auto: superstep 0 always pushes (the estimator needs a shipped
/// superstep), so boundary 0 polls twice; boundary 1 polls once or
/// twice.  Skipping three snapshots therefore starts the window at
/// boundary 1's last poll at the earliest, covering superstep >= 2 only.
const SKIP_AUTO: usize = 3;
/// Triangle counting quiesces after four supersteps and polls once at
/// each of boundaries 1, 2 and 3: the window is all three snapshots, the
/// whole of supersteps 1 and 2.
const SKIP_TC: usize = 0;

fn main() {
    // Pin the pool to one worker (unless the caller overrides) before
    // anything touches it: chunk claiming is dynamically self-scheduled,
    // so with several workers the per-worker scratch high-water depends
    // on which worker happened to claim the biggest chunk — a warmed
    // frame can then still see one growth realloc when the measured
    // run's schedule differs.  One worker claims every chunk in order,
    // making the exact-zero assertion deterministic; the superstep
    // reuse paths under test are identical at any worker count.
    if std::env::var_os("XMT_PAR_THREADS").is_none() {
        std::env::set_var("XMT_PAR_THREADS", "1");
    }
    alloc_count::register();

    if !cfg!(feature = "alloc-count") {
        eprintln!(
            "zero_alloc: SKIPPED — the counting allocator is not installed; \
             re-run with `--features alloc-count` to enforce the gate."
        );
        return;
    }

    let cfg = HarnessConfig::from_args(12);
    let g = Arc::new(build_paper_graph(&cfg));
    assert!(
        alloc_count::total() > 0,
        "counting allocator installed but the counter never moved"
    );
    let source = pick_bfs_source(&g);

    let push = BspConfig::default();
    let pull = BspConfig {
        delivery: Delivery::Pull,
        ..push
    };

    let sim = Executor::fixed();
    let native = Executor::guided();

    gate(&g, &CcProgram, push, SKIP_PUSH, "cc/outbox/push", &sim);
    gate(
        &g,
        &BfsProgram { source },
        push,
        SKIP_PUSH,
        "bfs/outbox/push",
        &sim,
    );
    gate(&g, &CcProgram, pull, SKIP_PULL, "cc/outbox/pull", &sim);
    // The guided schedule reuses the same frame paths, so its steady
    // state must be equally allocation-free.
    gate(
        &g,
        &CcProgram,
        push,
        SKIP_PUSH,
        "cc/outbox/push/native",
        &native,
    );
    gate(
        &g,
        &BfsProgram { source },
        push,
        SKIP_PUSH,
        "bfs/outbox/push/native",
        &native,
    );
    // PageRank broadcasts over every arc each superstep, so under the
    // default configuration every one of its supersteps (and CC's dense
    // ones, gated above) records its broadcasts once per sender and
    // gathers them at the receivers: the record, its filling and the
    // gather must ride the frame's retained buffers too.
    let pagerank = PagerankProgram::default();
    gate(
        &g,
        &pagerank,
        push,
        SKIP_PUSH,
        "pagerank/outbox/gathered",
        &sim,
    );
    gate(
        &g,
        &pagerank,
        push,
        SKIP_PUSH,
        "pagerank/outbox/gathered/native",
        &native,
    );
    // Beamer Auto mixes push supersteps (two polls) with pull
    // supersteps (one poll).
    let auto = BspConfig {
        delivery: Delivery::Auto,
        ..push
    };
    gate(
        &g,
        &BfsProgram { source },
        auto,
        SKIP_AUTO,
        "bfs/outbox/beamer-auto",
        &sim,
    );
    gate(
        &g,
        &BfsProgram { source },
        auto,
        SKIP_AUTO,
        "bfs/outbox/beamer-auto/native",
        &native,
    );

    // The BSP triangle program: no combiner, so every candidate is
    // grouped into the inbox, and the one program that uses the frame's
    // mark arrays.
    gate(&g, &TcProgram, push, SKIP_TC, "tc/outbox/push", &sim);
    gate(
        &g,
        &TcProgram,
        push,
        SKIP_TC,
        "tc/outbox/push/native",
        &native,
    );

    // GraphCT triangle counting: on a prebuilt DAG view with a warmed
    // scratch pool, a hash-marking sweep is a single parallel region with
    // no boundaries to snapshot — gate the whole call instead.
    gate_tc(&g, &sim, "tc/dag+hash");
    gate_tc(&g, &native, "tc/dag+hash/native");

    if cfg!(feature = "trace") {
        println!("zero_alloc: service/cc/worker-slot: not run with tracing on");
    } else {
        gate_worker_slot(&g);
    }

    println!("zero_alloc: all steady-state windows allocation-free");
}

/// Warm the per-worker mark pool with one sweep, then require a second
/// sweep over the same DAG view to perform zero heap allocations.
fn gate_tc(g: &xmt_graph::Csr, exec: &Executor, label: &str) {
    use graphct::{IntersectStrategy, TcScratch};

    let dag = xmt_graph::ops::dag::RankDag::new(g);
    let mut scratch = TcScratch::new();
    let warm = graphct::count_triangles_dag(
        &dag,
        IntersectStrategy::Hash,
        &mut graphct::Ctx::on(exec.clone()),
        &mut scratch,
    );

    let before = alloc_count::total();
    let count = graphct::count_triangles_dag(
        &dag,
        IntersectStrategy::Hash,
        &mut graphct::Ctx::on(exec.clone()),
        &mut scratch,
    );
    let allocs = alloc_count::total() - before;
    assert_eq!(count, warm, "{label}: warmed sweep changed the count");
    assert!(
        allocs == 0,
        "{label}: {allocs} heap allocation(s) in a warmed hash-marking sweep"
    );
    println!("zero_alloc: {label}: 0 allocations in a warmed sweep ({count} triangles)");
}

/// Warm a worker's frame slot with one CC job, then require a second job
/// through the same slot to allocate nothing from its first superstep
/// boundary to its last.
fn gate_worker_slot(g: &Arc<xmt_graph::Csr>) {
    use xmt_service::{execute, Algorithm, Engine, ExecVerdict, FrameSlot, JobSpec};
    let label = "service/cc/worker-slot";
    let spec = JobSpec {
        algorithm: Algorithm::Cc,
        engine: Engine::Bsp,
        graph: "g".to_string(),
        source: 0,
        damping: 0.85,
        tolerance: 1e-7,
        intersect: xmt_graph::IntersectStrategy::Hash,
        config: BspConfig::default(),
        priority: 0,
        deadline_ms: None,
    };
    let mut slot: FrameSlot = None;
    let mut sink = xmt_trace::TraceSink::new();
    execute(&spec, g, None, Some(&mut slot), &|| false, &mut sink)
        .unwrap_or_else(|e| panic!("{label}: warm-up job failed: {e}"));

    let snaps: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(4096));
    let hook = || {
        snaps
            .lock()
            .expect("snapshot lock")
            .push(alloc_count::total());
        false
    };
    let supersteps = match execute(&spec, g, None, Some(&mut slot), &hook, &mut sink) {
        Ok(ExecVerdict::Completed { supersteps, .. }) => supersteps,
        other => panic!("{label}: measured job did not complete: {other:?}"),
    };
    check_window(
        &snaps.into_inner().expect("snapshot lock"),
        0,
        label,
        supersteps,
    );
}

/// Warm the frame with one full run, then re-run with a snapshotting
/// stop hook and require the steady-state window to be allocation-free.
fn gate<P: VertexProgram>(
    g: &xmt_graph::Csr,
    program: &P,
    config: BspConfig,
    skip: usize,
    label: &str,
    exec: &Executor,
) {
    let mut frame = SuperstepFrame::new();
    run(
        g,
        program,
        RunOptions {
            config,
            frame: Some(&mut frame),
            exec: exec.clone(),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{label}: warm-up run failed: {e:?}"));

    // Pre-sized so recording a snapshot never allocates (a growing
    // vector inside the hook would count itself).
    let snaps: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(4096));
    let hook = || {
        snaps
            .lock()
            .expect("snapshot lock")
            .push(alloc_count::total());
        false
    };
    let run = run(
        g,
        program,
        RunOptions {
            config,
            stop: Some(&hook),
            frame: Some(&mut frame),
            exec: exec.clone(),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{label}: measured run failed: {e:?}"));
    assert!(
        !run.result.stopped_early && !run.result.hit_superstep_limit,
        "{label}: measured run did not converge"
    );

    let snaps = snaps.into_inner().expect("snapshot lock");
    check_window(&snaps, skip, label, run.result.supersteps);
}

/// Require the allocation total to stay put across `snaps[skip..]`.
fn check_window(snaps: &[u64], skip: usize, label: &str, supersteps: u64) {
    // At least three snapshots past the skip point, so the window spans
    // real intervals rather than being vacuously empty.
    let min_snapshots = skip + 3;
    assert!(
        snaps.len() >= min_snapshots,
        "{label}: only {} boundary snapshots — graph too small to exercise \
         steady state (need >= {min_snapshots})",
        snaps.len()
    );
    let window = &snaps[skip..];
    let diffs: Vec<u64> = window.windows(2).map(|w| w[1] - w[0]).collect();
    let total: u64 = diffs.iter().sum();
    assert!(
        total == 0,
        "{label}: {total} heap allocation(s) in the steady-state window \
         ({supersteps} supersteps converged; per-interval counts {diffs:?})"
    );
    println!(
        "zero_alloc: {label}: 0 allocations across {} boundary intervals \
         ({supersteps} supersteps)",
        diffs.len()
    );
}
