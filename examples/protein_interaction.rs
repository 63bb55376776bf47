//! Protein-interaction analysis: find reliable protein complexes in a
//! krogan-like probabilistic PPI network using all three nucleus
//! semantics, and compare their cohesiveness.
//!
//! Run with: `cargo run --release --example protein_interaction`

use prob_nucleus_repro::nd_datasets::{PaperDataset, Scale};
use prob_nucleus_repro::nucleus::{
    global_nuclei, weakly_global_nuclei, ApproxThresholds, DecompConfig, Decomposition,
    GlobalConfig, SamplingConfig, ScoreMethod,
};
use prob_nucleus_repro::ugraph::metrics::{
    probabilistic_clustering_coefficient, probabilistic_density,
};

fn main() {
    // A synthetic stand-in for the krogan yeast PPI network: interaction
    // probabilities are experimental confidence scores.
    let graph = PaperDataset::Krogan.generate(Scale::Tiny, 7);
    println!(
        "krogan-like PPI network: {} proteins, {} interactions, avg confidence {:.2}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_probability()
    );

    // 1. Local decomposition: complexes where each triangle of proteins is
    //    jointly reinforced by 4-cliques with probability >= theta.
    let theta = 0.1;
    let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
    let local = Decomposition::compute(&graph, &DecompConfig::nucleus(theta).with_method(hybrid))
        .expect("valid configuration");
    let k = local.max_score().max(1);
    println!("\nlocal decomposition: k_max = {}", local.max_score());
    for nucleus in local.k_nuclei(&graph, k).expect("nucleus rank") {
        let sub = nucleus.subgraph.graph();
        println!(
            "  complex with {} proteins: PD = {:.3}, PCC = {:.3}",
            sub.num_vertices(),
            probabilistic_density(sub),
            probabilistic_clustering_coefficient(sub)
        );
    }

    // 2. Global / weakly-global decompositions: complexes that materialize
    //    as deterministic nuclei across sampled interactomes.
    let config = GlobalConfig::new(0.001).with_sampling(
        SamplingConfig::new(0.1, 0.1)
            .with_num_samples(200)
            .with_seed(7),
    );
    let global = global_nuclei(&graph, k, &config).expect("valid configuration");
    let weak = weakly_global_nuclei(&graph, k, &config).expect("valid configuration");
    println!("\nglobal complexes at k = {k}: {}", global.len());
    for n in &global {
        println!(
            "  {} proteins, min world-probability {:.3}",
            n.num_vertices(),
            n.min_probability
        );
    }
    println!("weakly-global complexes at k = {k}: {}", weak.len());
    for n in &weak {
        println!(
            "  {} proteins, min world-probability {:.3}",
            n.num_vertices(),
            n.min_probability
        );
    }
}
