//! Host wall-clock benchmarks of the three paper kernels in both
//! programming models (the host-side complement to the simulated-XMT
//! numbers the figure binaries report).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Routine};

use xmt_bench::HarnessConfig;
use xmt_bsp::algorithms as bsp_alg;
use xmt_bsp::program::VertexProgram;
use xmt_bsp::{ActiveSetStrategy, BspConfig, Delivery, RunOptions, SuperstepFrame, Transport};
use xmt_graph::Csr;
use xmt_par::Executor;

fn graph(scale: u32) -> Csr {
    let cfg = HarnessConfig::parse(scale, std::iter::empty::<String>());
    xmt_bench::build_paper_graph(&cfg)
}

fn bench_connected_components(c: &mut Criterion) {
    let g = graph(12);
    let mut group = c.benchmark_group("connected_components");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("graphct", 12), |b| {
        b.iter(|| graphct::connected_components(&g))
    });
    group.bench_function(BenchmarkId::new("bsp", 12), |b| {
        b.iter(|| bsp_alg::components::bsp_connected_components(&g, None))
    });
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let g = graph(12);
    let source = xmt_bench::pick_bfs_source(&g);
    let mut group = c.benchmark_group("bfs");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("graphct", 12), |b| {
        b.iter(|| graphct::bfs(&g, source))
    });
    group.bench_function(BenchmarkId::new("bsp", 12), |b| {
        b.iter(|| bsp_alg::bfs::bsp_bfs(&g, source, None))
    });
    group.finish();
}

fn bench_triangles(c: &mut Criterion) {
    let g = graph(11);
    let mut group = c.benchmark_group("triangles");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("graphct", 11), |b| {
        b.iter(|| graphct::count_triangles(&g))
    });
    group.bench_function(BenchmarkId::new("bsp", 11), |b| {
        b.iter(|| bsp_alg::triangles::bsp_count_triangles(&g, None))
    });
    group.finish();
}

fn bench_toolkit_extras(c: &mut Criterion) {
    let g = graph(11);
    let mut group = c.benchmark_group("toolkit");
    group.sample_size(10);
    group.bench_function("pagerank", |b| {
        b.iter(|| graphct::pagerank(&g, graphct::pagerank::PagerankOptions::default()))
    });
    group.finish();
}

/// One call of the BSP runtime the way a service job makes it: no
/// recorder, no sink, and a fresh frame unless `frame` lends a warm one
/// (fresh, not the runtime's spare frame of an earlier row).
fn bsp_call<P: VertexProgram>(
    g: &Csr,
    program: &P,
    config: BspConfig,
    exec: &Executor,
    frame: Option<&mut SuperstepFrame<P::State, P::Message>>,
) {
    let mut fresh = None;
    let opts = RunOptions {
        config,
        exec: exec.clone(),
        frame: Some(frame.unwrap_or_else(|| fresh.insert(SuperstepFrame::new()))),
        ..RunOptions::default()
    };
    let run = xmt_bsp::run(g, program, opts).expect("a fresh run has no checkpoint to reject");
    std::hint::black_box(run.result.supersteps);
}

/// Host-time ablation of every BSP knob a caller can still set, one knob
/// off the wire default at a time: the table EXPERIMENTS.md carries as
/// "Host-time knob ablation" (`cargo bench -p xmt-bench --bench kernels
/// -- knobs`).  The host's speed drifts over the minutes a group takes,
/// so the rows are timed in alternating rounds, not one after the other.
/// The `warm` rows run the default config on one frame held across
/// calls, so they time the supersteps without a fresh frame's page
/// faults.
fn bench_knobs(c: &mut Criterion) {
    use bsp_alg::bfs::BfsProgram;
    use bsp_alg::components::CcProgram;
    use bsp_alg::pagerank::PagerankProgram;
    use bsp_alg::triangles::TcProgram;

    let wire = BspConfig::default();
    let knobs = [
        ("default", wire, Executor::guided()),
        ("fixed_schedule", wire, Executor::fixed()),
        (
            "single_queue",
            BspConfig {
                transport: Transport::SingleQueue,
                ..wire
            },
            Executor::guided(),
        ),
        (
            "worklist",
            BspConfig {
                active_set: ActiveSetStrategy::Worklist,
                ..wire
            },
            Executor::guided(),
        ),
        (
            "pull",
            BspConfig {
                delivery: Delivery::Pull,
                ..wire
            },
            Executor::guided(),
        ),
        (
            "auto",
            BspConfig {
                delivery: Delivery::Auto,
                ..wire
            },
            Executor::guided(),
        ),
    ];
    let g = graph(15);
    let tc_graph = graph(13);
    let source = xmt_bench::pick_bfs_source(&g);
    let pagerank = PagerankProgram {
        damping: 0.85,
        tolerance: 1e-7,
    };
    // A path's BFS runs one superstep per vertex: the input the worklist
    // exists for.
    let long_path = xmt_graph::builder::build_undirected(&xmt_graph::gen::structured::path(16_384));
    let uncapped = |config| BspConfig {
        max_supersteps: 1_000_000,
        ..config
    };

    let (bfs, path_bfs) = (BfsProgram { source }, BfsProgram { source: 0 });
    let guided = Executor::guided();
    let (mut cc_frame, mut pagerank_frame) = (SuperstepFrame::new(), SuperstepFrame::new());
    let mut routines = Vec::new();
    for (knob, config, exec) in &knobs {
        routines.extend([
            Routine::new(format!("cc15/{knob}"), || {
                bsp_call(&g, &CcProgram, *config, exec, None)
            }),
            Routine::new(format!("bfs15/{knob}"), || {
                bsp_call(&g, &bfs, *config, exec, None)
            }),
            Routine::new(format!("pagerank15/{knob}"), || {
                bsp_call(&g, &pagerank, *config, exec, None)
            }),
            Routine::new(format!("tc13/{knob}"), || {
                bsp_call(&tc_graph, &TcProgram, *config, exec, None)
            }),
        ]);
        if ["default", "worklist"].contains(knob) {
            routines.push(Routine::new(format!("bfs_path16384/{knob}"), || {
                bsp_call(&long_path, &path_bfs, uncapped(*config), exec, None)
            }));
        }
    }
    routines.extend([
        Routine::new("cc15/warm", || {
            bsp_call(&g, &CcProgram, wire, &guided, Some(&mut cc_frame))
        }),
        Routine::new("pagerank15/warm", || {
            bsp_call(&g, &pagerank, wire, &guided, Some(&mut pagerank_frame))
        }),
    ]);

    println!(
        "knobs: {} pool workers on {} hardware threads",
        xmt_par::num_threads(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut group = c.benchmark_group("knobs");
    group.sample_size(30);
    group.bench_alternating(&mut routines);
    group.finish();
}

criterion_group!(
    benches,
    bench_connected_components,
    bench_bfs,
    bench_triangles,
    bench_toolkit_extras,
    bench_knobs
);
criterion_main!(benches);
