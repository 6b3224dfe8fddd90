//! Substrate micro-benchmarks: the parallel runtime, CSR construction,
//! message exchange and the intersection kernel.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use xmt_bsp::program::MinCombiner;
use xmt_bsp::Inbox;
use xmt_graph::builder::build_undirected;
use xmt_graph::gen::er::gnm;

fn bench_parallel_for(c: &mut Criterion) {
    let mut group = c.benchmark_group("par");
    let n = 1_000_000usize;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("parallel_for_1M_noop", |b| {
        b.iter(|| {
            let sink = std::sync::atomic::AtomicU64::new(0);
            xmt_par::parallel_for(0, n, |i| {
                if i == n - 1 {
                    sink.store(i as u64, std::sync::atomic::Ordering::Relaxed);
                }
            });
        })
    });
    group.bench_function("prefix_sum_1M", |b| {
        let data = vec![3u64; n];
        b.iter(|| {
            let mut v = data.clone();
            xmt_par::exclusive_prefix_sum(&mut v)
        })
    });
    group.bench_function("reduce_sum_1M", |b| {
        b.iter(|| xmt_par::reduce::sum_u64(0, n, |i| i as u64))
    });
    group.finish();
}

fn bench_csr_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    group.sample_size(20);
    let el = gnm(100_000, 1_600_000, 5);
    group.throughput(Throughput::Elements(el.num_edges() as u64));
    group.bench_function("csr_build_undirected_1.6M", |b| {
        b.iter(|| build_undirected(&el))
    });
    group.finish();
}

/// The other half of graph set-up: RMAT generation at scale 15.
fn bench_rmat_edges(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmat_edges");
    group.sample_size(20);
    let rp = xmt_graph::gen::rmat::RmatParams::graph500(15);
    group.throughput(Throughput::Elements(rp.num_edges()));
    group.bench_function("scale15", |b| {
        b.iter(|| xmt_graph::gen::rmat::rmat_edges(&rp, 9))
    });
    group.finish();
}

fn bench_exchange(c: &mut Criterion) {
    use xmt_bsp::transport::{MessageCollector, Transport};

    let mut group = c.benchmark_group("exchange");
    group.sample_size(20);
    let n = 100_000usize;
    let workers = 8usize;
    let per = 200_000usize;
    let exec = xmt_par::Executor::fixed();
    let scratch = xmt_par::WorkerScratch::new(exec.workers());
    let mut collector = MessageCollector::new(Transport::PerThreadOutbox, workers, n);
    for w in 0..workers {
        let mut batch: Vec<(u64, u64)> = (0..per)
            .map(|i| ((i * 7 + w) as u64 % n as u64, i as u64))
            .collect();
        collector.deposit_from(w, w * per, &mut batch);
    }
    let collected = collector.collected();
    let mut inbox = Inbox::new();
    group.throughput(Throughput::Elements((workers * per) as u64));
    group.bench_function("inbox_rebuild_1.6M_msgs", |b| {
        b.iter(|| inbox.rebuild(&exec, &collected, None, &scratch))
    });
    group.bench_function("inbox_rebuild_combined", |b| {
        b.iter(|| inbox.rebuild(&exec, &collected, Some(&MinCombiner), &scratch))
    });
    group.finish();
}

fn bench_exchange_transports(c: &mut Criterion) {
    // The full superstep-boundary path — concurrent deposits through the
    // collector (the destination partition), then the inbox rebuild —
    // for each transport, at 1, 4 and 8 depositing workers.  The single
    // queue pays one lock per deposit and has one receiving task (the
    // paper's §VII hotspot).
    use xmt_bsp::transport::{MessageCollector, Transport};

    let mut group = c.benchmark_group("exchange_transport");
    group.sample_size(20);
    let n = 100_000usize;
    let total = 800_000usize;
    let exec = xmt_par::Executor::fixed();
    let scratch = xmt_par::WorkerScratch::new(exec.workers());
    for workers in [1usize, 4, 8] {
        let per = total / workers;
        let batches: Vec<Vec<(u64, u64)>> = (0..workers)
            .map(|w| {
                (0..per)
                    .map(|i| ((i * 13 + w * 5) as u64 % n as u64, i as u64))
                    .collect()
            })
            .collect();
        group.throughput(Throughput::Elements((workers * per) as u64));
        for (name, transport) in [
            ("mutex_outbox", Transport::PerThreadOutbox),
            ("single_queue", Transport::SingleQueue),
        ] {
            group.bench_function(format!("{name}/w{workers}"), |b| {
                b.iter(|| {
                    let mut collector = MessageCollector::new(transport, workers, n);
                    std::thread::scope(|scope| {
                        for (w, batch) in batches.iter().enumerate() {
                            let collector = &collector;
                            let mut batch = batch.clone();
                            scope.spawn(move || collector.deposit_from(w, w * per, &mut batch));
                        }
                    });
                    let mut inbox = Inbox::new();
                    inbox.rebuild(&exec, &collector.collected(), None, &scratch);
                    inbox
                })
            });
        }
    }
    group.finish();
}

fn bench_intersection(c: &mut Criterion) {
    // The triangle inner loop: counting via sorted adjacency on a graph
    // with hubs (skewed list lengths).
    let g = build_undirected(&xmt_graph::gen::rmat::rmat_edges(
        &xmt_graph::gen::rmat::RmatParams::graph500(12),
        4,
    ));
    let mut group = c.benchmark_group("intersection");
    group.sample_size(10);
    // The sweep on the graph's kept rank DAG, and the DAG's build apart.
    group.bench_function("count_triangles_scale12", |b| {
        let (dag, mut scratch) = (g.rank_dag(), graphct::TcScratch::new());
        let hash = graphct::IntersectStrategy::Hash;
        b.iter(|| {
            graphct::count_triangles_dag(dag, hash, &mut graphct::Ctx::default(), &mut scratch)
        })
    });
    group.bench_function("rank_dag_scale12", |b| {
        b.iter(|| xmt_graph::ops::RankDag::new(&g))
    });
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    use stinger_lite::{DynGraph, EdgeOp, StreamingAnalytics};
    let mut group = c.benchmark_group("streaming");
    group.sample_size(20);
    let updates: Vec<(u64, u64)> = {
        let el = xmt_graph::gen::er::gnm(10_000, 50_000, 8);
        el.edges
    };
    let inserts: Vec<EdgeOp> = updates.iter().map(|&(u, v)| EdgeOp::Insert(u, v)).collect();
    group.throughput(Throughput::Elements(updates.len() as u64));
    group.bench_function("incremental_analytics_50k_updates", |b| {
        b.iter(|| {
            let mut s = StreamingAnalytics::new(10_000);
            s.apply_batch(&inserts).expect("in range");
            s.triangles()
        })
    });
    group.bench_function("dyngraph_batch_insert_50k", |b| {
        b.iter(|| {
            let mut g = DynGraph::new(10_000);
            g.insert_batch(&updates)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_for,
    bench_csr_build,
    bench_rmat_edges,
    bench_exchange,
    bench_exchange_transports,
    bench_intersection,
    bench_streaming
);
criterion_main!(benches);
