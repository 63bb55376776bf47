//! Criterion benchmark backing Table 3: the probabilistic nucleus versus
//! the probabilistic core and truss baselines on the same dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use nd_datasets::{PaperDataset, Scale};
use nucleus::{ApproxThresholds, DecompConfig, Decomposition, ScoreMethod};

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let graph = PaperDataset::Dblp.generate(Scale::Tiny, 42);
    let theta = 0.3;
    group.bench_function("eta_core/dblp", |b| {
        b.iter(|| Decomposition::compute(&graph, &DecompConfig::core(theta)).unwrap())
    });
    group.bench_function("gamma_truss/dblp", |b| {
        b.iter(|| Decomposition::compute(&graph, &DecompConfig::truss(theta)).unwrap())
    });
    let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
    group.bench_function("local_nucleus_ap/dblp", |b| {
        b.iter(|| {
            Decomposition::compute(&graph, &DecompConfig::nucleus(theta).with_method(hybrid))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
