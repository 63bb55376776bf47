//! Criterion benchmark backing Figure 4: the local nucleus decomposition
//! with exact DP scoring versus the hybrid approximation (AP), plus the
//! peeling-update ablation (DP re-scoring vs approximate re-scoring).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nd_datasets::{PaperDataset, Scale};
use nucleus::{
    ApproxThresholds, DecompConfig, DecompHandle, RankSupport, ScoreMethod, SupportStructure,
};

fn bench_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_decomposition");
    group.sample_size(10);
    for dataset in [
        PaperDataset::Krogan,
        PaperDataset::Dblp,
        PaperDataset::Flickr,
    ] {
        let graph = dataset.generate(Scale::Tiny, 42);
        let support = SupportStructure::build(&graph);
        // A fresh handle per iteration: each run pays its own tail table.
        let run = |config: DecompConfig| {
            let handle =
                DecompHandle::from_support(Arc::new(RankSupport::Nucleus(support.clone())));
            handle.compute_at(&config).unwrap()
        };
        for theta in [0.1, 0.3] {
            group.bench_with_input(
                BenchmarkId::new(format!("DP/{}", dataset.name()), theta),
                &theta,
                |b, &theta| b.iter(|| run(DecompConfig::nucleus(theta))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("AP/{}", dataset.name()), theta),
                &theta,
                |b, &theta| {
                    b.iter(|| {
                        run(DecompConfig::nucleus(theta)
                            .with_method(ScoreMethod::Hybrid(ApproxThresholds::default())))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_local);
criterion_main!(benches);
