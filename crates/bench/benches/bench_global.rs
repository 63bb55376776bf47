//! Criterion benchmark backing Figure 5: the fully-global (Algorithm 2)
//! versus weakly-global (Algorithm 3) decompositions.

use criterion::{criterion_group, criterion_main, Criterion};
use nd_datasets::{PaperDataset, Scale};
use nucleus::global::global_nuclei_with_local;
use nucleus::weakly_global::weakly_global_nuclei_with_local;
use nucleus::{
    ApproxThresholds, DecompConfig, Decomposition, GlobalConfig, SamplingConfig, ScoreMethod,
};

fn bench_global(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_decomposition");
    group.sample_size(10);
    let graph = PaperDataset::Krogan.generate(Scale::Tiny, 42);
    let theta = 0.001;
    let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
    let local =
        Decomposition::compute(&graph, &DecompConfig::nucleus(theta).with_method(hybrid)).unwrap();
    let config = GlobalConfig::new(theta)
        .with_sampling(SamplingConfig::default().with_num_samples(100).with_seed(1));
    group.bench_function("FG/krogan/k=2", |b| {
        b.iter(|| global_nuclei_with_local(&graph, 2, &config, &local).unwrap())
    });
    group.bench_function("WG/krogan/k=2", |b| {
        b.iter(|| weakly_global_nuclei_with_local(&graph, 2, &config, &local).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_global);
criterion_main!(benches);
