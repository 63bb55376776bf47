//! End-to-end smoke test of the `prob_nucleus_repro` facade re-exports:
//! builds a small probabilistic graph through `ugraph`, runs decompositions
//! from `nucleus` against the definitional oracle of `nucleus::exact`, and
//! touches a synthetic dataset from `nd_datasets` — all through the
//! umbrella crate's paths.

use prob_nucleus_repro::nd_datasets::{PaperDataset, Scale};
use prob_nucleus_repro::nucleus::exact::definitional_scores;
use prob_nucleus_repro::nucleus::{NucleusError, SweepConfig, ThetaGridError};
use prob_nucleus_repro::ugraph::{GraphBuilder, PossibleWorld, Triangle};
use prob_nucleus_repro::{DecompConfig, DecompSweep, Decomposition, Rank};

/// A probabilistic K5 with p = 0.9 on every edge.
fn k5(p: f64) -> prob_nucleus_repro::ugraph::UncertainGraph {
    let mut b = GraphBuilder::new();
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build()
}

#[test]
fn facade_local_decomposition_known_score() {
    let graph = k5(0.9);
    assert_eq!(graph.num_vertices(), 5);
    assert_eq!(graph.num_edges(), 10);

    // Every triangle of K5 is in two 4-cliques; with p = 0.9 each clique
    // completes with probability 0.9³ = 0.729 and the triangle exists with
    // probability 0.9³, so Pr[ζ ≥ 2] · Pr(△) = 0.729³ ≈ 0.387 ≥ 0.2:
    // all ten triangles reach the deterministic maximum score of 2.
    let local = Decomposition::compute(&graph, &DecompConfig::nucleus(0.2)).unwrap();
    assert_eq!(local.num_elements(), 10);
    assert_eq!(local.max_score(), 2);
    assert!(local.scores().iter().all(|&s| s == 2));
    let index = local.nucleus_support().unwrap().triangle_index();
    assert_eq!(
        index.id_of(&Triangle::new(0, 1, 2)).map(|t| local.score(t)),
        Some(2)
    );

    // The probabilistic scores coincide with the deterministic nucleusness
    // (the definition at threshold 1.0 on the certain view) here, and the
    // single extracted 2-nucleus is the whole K5.
    let certain = PossibleWorld::full(&graph).materialize(&graph);
    assert_eq!(
        local.scores(),
        definitional_scores(&certain, Rank::Nucleus, 1.0)
    );
    let nuclei = local.k_nuclei(&graph, 2).unwrap();
    assert_eq!(nuclei.len(), 1);
    assert_eq!(nuclei[0].num_vertices(), 5);
    assert_eq!(nuclei[0].cliques.len(), 5);

    // At a threshold above any attainable probability nothing survives.
    let strict = Decomposition::compute(&graph, &DecompConfig::nucleus(0.999)).unwrap();
    assert_eq!(strict.max_score(), 0);
}

#[test]
fn facade_theta_sweep_index() {
    let graph = k5(0.9);

    // The θ-sweep re-exports: one support build answering a grid of
    // thresholds, bit-identical to independent runs at each grid point.
    let sweep = DecompSweep::compute(&graph, &SweepConfig::exact(vec![0.2, 0.999])).unwrap();
    assert_eq!(sweep.support_builds(), 1);
    assert_eq!(sweep.at(0.2).unwrap().max_score(), 2);
    assert_eq!(sweep.at(0.999).unwrap().max_score(), 0);
    assert!(sweep.is_monotone_in_threshold());
    let solo = Decomposition::compute(&graph, &DecompConfig::nucleus(0.2)).unwrap();
    assert_eq!(sweep.at(0.2).unwrap().scores(), solo.scores());
    assert_eq!(sweep.at(0.2).unwrap().k_nuclei(&graph, 2).unwrap().len(), 1);

    // Typed grid validation surfaces through the facade too.
    assert_eq!(
        DecompSweep::compute(&graph, &SweepConfig::exact(vec![0.9, 0.2])).unwrap_err(),
        NucleusError::InvalidThetaGrid(ThetaGridError::NotSorted { index: 1 })
    );
}

#[test]
fn facade_baselines_and_datasets() {
    let graph = k5(0.9);

    // (k,η)-core baseline via the facade: every vertex of K5 has 4
    // neighbours, each present with probability 0.9, so the 3-core at
    // η = 0.5 contains all vertices.
    let core = Decomposition::compute(&graph, &DecompConfig::core(0.5)).unwrap();
    assert!(core.scores().iter().all(|&c| c >= 3));

    // Synthetic dataset generation is seeded and reproducible.
    let a = PaperDataset::Krogan.generate(Scale::Tiny, 42);
    let b = PaperDataset::Krogan.generate(Scale::Tiny, 42);
    assert!(a.num_edges() > 0);
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.num_vertices(), b.num_vertices());
    let row = prob_nucleus_repro::nd_datasets::table1_row(PaperDataset::Krogan, &a);
    assert_eq!(row.name, "krogan");
}
