//! Quickstart: build a small probabilistic graph, run the local nucleus
//! decomposition, and inspect the resulting ℓ-(k,θ)-nuclei.
//!
//! Run with: `cargo run --example quickstart`

use prob_nucleus_repro::ugraph::GraphBuilder;
use prob_nucleus_repro::{DecompConfig, Decomposition};

fn main() {
    // A small collaboration network: two tight groups (probable cliques)
    // bridged by a weaker connection.
    let mut builder = GraphBuilder::new();
    // Group A: vertices 0..5, strong ties.
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            builder.add_edge(u, v, 0.9).unwrap();
        }
    }
    // Group B: vertices 5..10, medium ties.
    for u in 5..10u32 {
        for v in (u + 1)..10u32 {
            builder.add_edge(u, v, 0.6).unwrap();
        }
    }
    // A weak bridge.
    builder.add_edge(4, 5, 0.2).unwrap();
    let graph = builder.build();

    println!(
        "graph: {} vertices, {} edges, {} triangles",
        graph.num_vertices(),
        graph.num_edges(),
        graph.count_triangles()
    );

    // Local nucleus decomposition with the exact DP at θ = 0.2.
    let theta = 0.2;
    let local =
        Decomposition::compute(&graph, &DecompConfig::nucleus(theta)).expect("valid configuration");
    println!(
        "maximum l-nucleusness at theta={theta}: {}",
        local.max_score()
    );

    // Per-triangle scores.
    let support = local.nucleus_support().expect("nucleus rank");
    for (id, triangle) in support.triangle_index().iter() {
        println!("  triangle {triangle}: nucleusness {}", local.score(id));
    }

    // Extract the maximal nuclei for every k.
    for k in 1..=local.max_score() {
        let nuclei = local.k_nuclei(&graph, k).expect("nucleus rank");
        println!("l-({k},{theta})-nuclei: {}", nuclei.len());
        for nucleus in nuclei {
            println!(
                "  vertices {:?} ({} edges, {} 4-cliques)",
                nucleus.subgraph.original_vertices(),
                nucleus.num_edges(),
                nucleus.cliques.len()
            );
        }
    }
}
