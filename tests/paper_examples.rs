//! End-to-end reproduction of the worked examples of Section 3 of the
//! paper (Figures 1-3, Examples 1-2), exercising the public API across
//! crates.

use prob_nucleus_repro::nucleus::exact::{
    exact_global_tail, exact_local_tail, exact_weakly_global_tail,
};
use prob_nucleus_repro::nucleus::{
    global_nuclei, weakly_global_nuclei, DecompConfig, Decomposition, GlobalConfig, SamplingConfig,
};
use prob_nucleus_repro::ugraph::{GraphBuilder, Triangle, UncertainGraph};

/// The subgraph of Figure 2a (the ℓ-(1,0.42)-nucleus of Figure 1a).
fn figure2a() -> UncertainGraph {
    let mut b = GraphBuilder::new();
    b.add_edge(1, 2, 1.0).unwrap();
    b.add_edge(1, 3, 1.0).unwrap();
    b.add_edge(2, 3, 1.0).unwrap();
    b.add_edge(1, 5, 1.0).unwrap();
    b.add_edge(3, 5, 1.0).unwrap();
    b.add_edge(2, 5, 0.5).unwrap();
    b.add_edge(1, 4, 0.6).unwrap();
    b.add_edge(2, 4, 0.7).unwrap();
    b.add_edge(3, 4, 1.0).unwrap();
    b.build()
}

#[test]
fn example1_local_nucleus_at_042() {
    // Each triangle of the Figure 2a subgraph is in one 4-clique with
    // probability at least 0.42.
    let g = figure2a();
    let local = Decomposition::compute(&g, &DecompConfig::nucleus(0.42)).unwrap();
    assert_eq!(local.max_score(), 1);
    assert!(local.scores().iter().all(|&s| s == 1));
    // Pr(X >= 1) for triangle (1,3,5) is exactly 0.5 (the 4-clique
    // {1,2,3,5} exists with probability 0.5).
    let p = exact_local_tail(&g, &Triangle::new(1, 3, 5), 1).unwrap();
    assert!((p - 0.5).abs() < 1e-9);
}

#[test]
fn example1_not_a_global_nucleus_but_weakly_global() {
    let g = figure2a();
    let tri = Triangle::new(1, 3, 5);
    // Pr(X_g >= 1) = 0.27 < 0.42 (Figure 2b/2c worlds).
    let pg = exact_global_tail(&g, &tri, 1).unwrap();
    assert!((pg - 0.27).abs() < 1e-9);
    // The same subgraph is a w-(1, 0.42)-nucleus.
    let pw = exact_weakly_global_tail(&g, &tri, 1).unwrap();
    assert!(pw >= 0.42);

    // The Monte-Carlo algorithms reach the same conclusions.  The
    // threshold is lowered to 0.35 for the sampled run so that triangles
    // whose true probability is exactly 0.42 are not lost to estimation
    // noise at the boundary.
    let config = GlobalConfig::new(0.35).with_sampling(
        SamplingConfig::new(0.1, 0.1)
            .with_num_samples(800)
            .with_seed(3),
    );
    let weak = weakly_global_nuclei(&g, 1, &config).unwrap();
    assert_eq!(weak.len(), 1);
    assert_eq!(weak[0].num_vertices(), 5);
    let global = global_nuclei(&g, 1, &config).unwrap();
    // Only the K4s of Figure 3 qualify as fully-global nuclei; the
    // 5-vertex candidate is rejected.
    assert!(global.iter().all(|n| n.num_vertices() == 4));
}

#[test]
fn figure3_global_nuclei_probabilities() {
    // Figure 3a: K4 {1,2,3,5} is a g-(1,0.42)-nucleus with probability 0.5.
    let mut b = GraphBuilder::new();
    b.add_edge(1, 2, 1.0).unwrap();
    b.add_edge(1, 3, 1.0).unwrap();
    b.add_edge(1, 5, 1.0).unwrap();
    b.add_edge(2, 3, 1.0).unwrap();
    b.add_edge(3, 5, 1.0).unwrap();
    b.add_edge(2, 5, 0.5).unwrap();
    let g = b.build();
    for tri in prob_nucleus_repro::ugraph::triangles::enumerate_triangles(&g) {
        let p = exact_global_tail(&g, &tri, 1).unwrap();
        assert!((p - 0.5).abs() < 1e-9, "triangle {tri}");
    }

    // Figure 3b: K4 {1,2,3,4} with two uncertain edges 0.6 and 0.7 is a
    // g-(1,0.42)-nucleus with probability exactly 0.42.
    let mut b = GraphBuilder::new();
    b.add_edge(1, 2, 1.0).unwrap();
    b.add_edge(1, 3, 1.0).unwrap();
    b.add_edge(2, 3, 1.0).unwrap();
    b.add_edge(3, 4, 1.0).unwrap();
    b.add_edge(1, 4, 0.6).unwrap();
    b.add_edge(2, 4, 0.7).unwrap();
    let g = b.build();
    for tri in prob_nucleus_repro::ugraph::triangles::enumerate_triangles(&g) {
        let p = exact_global_tail(&g, &tri, 1).unwrap();
        assert!((p - 0.42).abs() < 1e-9, "triangle {tri}");
    }
}

#[test]
fn example2_k5_is_local_but_not_weakly_global() {
    // Figure 3c: K5 with all edges 0.6: an ℓ-(2,0.01)-nucleus whose
    // weakly-global probability is 0.6^10 ≈ 0.006 < 0.01.
    let mut b = GraphBuilder::new();
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            b.add_edge(u, v, 0.6).unwrap();
        }
    }
    let g = b.build();
    let local = Decomposition::compute(&g, &DecompConfig::nucleus(0.01)).unwrap();
    assert!(local.scores().iter().all(|&s| s == 2));
    let pw = exact_weakly_global_tail(&g, &Triangle::new(0, 1, 2), 2).unwrap();
    assert!((pw - 0.6f64.powi(10)).abs() < 1e-9);
    assert!(pw < 0.01);
}

#[test]
fn possible_world_probability_of_figure1() {
    // Section 2's example: the world of Figure 1b (edges (1,7) and (2,4)
    // missing) has probability 0.01152 in the graph of Figure 1a.
    let mut b = GraphBuilder::new();
    b.add_edge(1, 2, 1.0).unwrap();
    b.add_edge(1, 3, 1.0).unwrap();
    b.add_edge(2, 3, 1.0).unwrap();
    b.add_edge(1, 5, 1.0).unwrap();
    b.add_edge(3, 5, 1.0).unwrap();
    b.add_edge(2, 5, 0.5).unwrap();
    b.add_edge(1, 4, 0.6).unwrap();
    b.add_edge(2, 4, 0.7).unwrap();
    b.add_edge(3, 4, 1.0).unwrap();
    b.add_edge(1, 7, 0.8).unwrap();
    b.add_edge(6, 7, 0.8).unwrap();
    b.add_edge(1, 6, 0.8).unwrap();
    let g = b.build();
    let mut mask = vec![true; g.num_edges()];
    mask[g.edge_id(1, 7).unwrap() as usize] = false;
    mask[g.edge_id(2, 4).unwrap() as usize] = false;
    let world = prob_nucleus_repro::ugraph::PossibleWorld::from_mask(mask);
    // Present uncertain edges contribute 0.5 * 0.6 * 0.8 * 0.8 and the two
    // absent edges contribute (1-0.8) * (1-0.7), giving 0.01152.
    let p = world.probability(&g);
    assert!((p - 0.01152).abs() < 1e-9, "world probability {p}");
}
