//! Community detection in a social network: compare the probabilistic
//! nucleus against the probabilistic truss and core baselines — the
//! Table 3 scenario of the paper — on a pokec-like graph.
//!
//! Run with: `cargo run --release --example social_communities`

use prob_nucleus_repro::nd_datasets::{PaperDataset, Scale};
use prob_nucleus_repro::nucleus::{ApproxThresholds, ScoreMethod};
use prob_nucleus_repro::ugraph::metrics::{
    probabilistic_clustering_coefficient, probabilistic_density,
};
use prob_nucleus_repro::ugraph::UncertainGraph;
use prob_nucleus_repro::{DecompConfig, Decomposition};

/// Decomposes `graph` under `config` and summarizes its maximum-score
/// components.
fn describe(name: &str, graph: &UncertainGraph, config: &DecompConfig) {
    let decomp = Decomposition::compute(graph, config).expect("valid configuration");
    let k = decomp.max_score();
    let components = decomp.k_subgraphs(graph, k.max(1));
    let subgraphs: Vec<&UncertainGraph> = components.iter().map(|s| s.graph()).collect();
    if subgraphs.is_empty() {
        println!("{name:>8}: no subgraphs found");
        return;
    }
    let n = subgraphs.len() as f64;
    let pd = subgraphs
        .iter()
        .map(|g| probabilistic_density(g))
        .sum::<f64>()
        / n;
    let pcc = subgraphs
        .iter()
        .map(|g| probabilistic_clustering_coefficient(g))
        .sum::<f64>()
        / n;
    let avg_v = subgraphs
        .iter()
        .map(|g| g.num_vertices() as f64)
        .sum::<f64>()
        / n;
    println!(
        "{name:>8}: k_max = {k:>2}  {} component(s), avg {avg_v:.1} vertices, PD = {pd:.3}, PCC = {pcc:.3}",
        subgraphs.len()
    );
}

fn main() {
    let graph = PaperDataset::Pokec.generate(Scale::Tiny, 11);
    let theta = 0.3;
    println!(
        "pokec-like social network: {} users, {} links (theta = {theta})\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Probabilistic nucleus (this paper), with the hybrid scorer.
    let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
    describe(
        "nucleus",
        &graph,
        &DecompConfig::nucleus(theta).with_method(hybrid),
    );
    // Probabilistic (k,gamma)-truss (Huang et al. 2016).
    describe("truss", &graph, &DecompConfig::truss(theta));
    // Probabilistic (k,eta)-core (Bonchi et al. 2014).
    describe("core", &graph, &DecompConfig::core(theta));

    println!(
        "\nThe nucleus communities are the smallest and densest — the paper's\n\
         headline observation (Table 3): higher-order structure (triangles in\n\
         4-cliques) isolates the strongly-connected groups that degree- and\n\
         triangle-based notions blur together."
    );
}
