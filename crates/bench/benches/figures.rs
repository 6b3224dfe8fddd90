//! One Criterion benchmark per paper artifact: each runs the entry of
//! `xmt_bench::artifacts::ARTIFACTS` behind the corresponding table or
//! figure at scale 11, so performance regressions in the harness itself
//! are caught by `cargo bench`.  The graph is built once, before the
//! first sample (artifacts share it per scale, edge factor and seed).

use criterion::{criterion_group, criterion_main, Criterion};

use xmt_bench::artifacts::find;
use xmt_bench::HarnessConfig;

fn bench_artifacts(c: &mut Criterion) {
    let cfg = HarnessConfig::parse(11, std::iter::empty::<String>());
    let mut group = c.benchmark_group("artifacts");
    group.sample_size(10);
    for name in ["table1", "fig1", "fig2", "fig3", "fig4"] {
        let artifact = find(name).expect("every figure is an artifact");
        group.bench_function(name, |b| b.iter(|| (artifact.run)(&cfg)));
    }
    group.finish();
}

criterion_group!(benches, bench_artifacts);
criterion_main!(benches);
