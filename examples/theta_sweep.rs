//! θ sweep: answer (θ, k)-nucleus queries for a whole grid of
//! thresholds from one support-structure build.
//!
//! The support structure (triangles, 4-cliques, completion
//! probabilities) does not depend on θ, so sweeping thresholds through
//! `DecompSweep` pays that dominant cost once, while every per-θ result
//! stays bit-identical to an independent decomposition at that θ.
//!
//! Run with: `cargo run --example theta_sweep`

use prob_nucleus_repro::nucleus::SweepConfig;
use prob_nucleus_repro::ugraph::GraphBuilder;
use prob_nucleus_repro::{DecompConfig, DecompSweep, Decomposition};

fn main() {
    // Two probable 5-cliques sharing a bridge — communities whose
    // cohesion degrades differently as the threshold tightens.
    let mut builder = GraphBuilder::new();
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            builder.add_edge(u, v, 0.9).unwrap();
        }
    }
    for u in 5..10u32 {
        for v in (u + 1)..10u32 {
            builder.add_edge(u, v, 0.6).unwrap();
        }
    }
    builder.add_edge(4, 5, 0.3).unwrap();
    let graph = builder.build();

    // One build, five thresholds.  The grid must be sorted, distinct and
    // inside (0, 1] — malformed grids fail with a typed error.
    let grid = vec![0.02, 0.1, 0.3, 0.5, 0.8];
    let sweep = DecompSweep::compute(&graph, &SweepConfig::exact(grid.clone()))
        .expect("valid sweep configuration");
    println!(
        "sweep over {} grid points, {} triangles, support built {} time(s)",
        sweep.points().len(),
        sweep.support().num_elements(),
        sweep.support_builds()
    );

    // Any (θ, k) on the grid is now an O(log grid) lookup plus a pure
    // extraction — no enumeration, no rescoring.
    for &theta in &grid {
        let point = sweep.at(theta).expect("grid point");
        let kmax = point.max_score();
        let nuclei = point.k_nuclei(&graph, 1).expect("nucleus rank");
        println!(
            "theta {theta:.2}: max nucleusness {kmax}, {} l-(1,theta)-nuclei",
            nuclei.len()
        );
    }

    // Scores are monotone: tightening θ can only lower a triangle's
    // nucleusness, so each row of the sweep is sorted non-increasing.
    let support = sweep.support().as_nucleus().expect("nucleus rank");
    let tri = support.triangle(0);
    let row: Vec<u32> = sweep.points().iter().map(|point| point.score(0)).collect();
    println!("scores of triangle {tri} across the grid: {row:?}");
    assert!(sweep.is_monotone_in_threshold());

    // The sweep is bit-identical to an independent run at any grid θ.
    let solo =
        Decomposition::compute(&graph, &DecompConfig::nucleus(0.3)).expect("valid configuration");
    assert_eq!(sweep.at(0.3).unwrap().scores(), solo.scores());
    println!("verified: sweep scores at theta 0.3 == independent decomposition");
}
