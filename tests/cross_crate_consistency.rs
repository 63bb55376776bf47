//! Cross-crate integration tests: the probabilistic decompositions must be
//! consistent with the deterministic ones and with each other.

use prob_nucleus_repro::nucleus::exact::definitional_scores;
use prob_nucleus_repro::ugraph::generators::{
    assign_probabilities, planted_clique_edges, PlantedCliqueConfig, ProbabilityModel,
};
use prob_nucleus_repro::ugraph::rs::dp;
use prob_nucleus_repro::ugraph::{EdgeId, PossibleWorld, UncertainGraph, VertexId};
use prob_nucleus_repro::{DecompConfig, Decomposition, Rank};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn clique_rich_graph(seed: u64, p: ProbabilityModel) -> UncertainGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cfg = PlantedCliqueConfig {
        num_vertices: 60,
        background_edges: 80,
        num_communities: 6,
        community_size: (5, 7),
        overlap: 2,
    };
    let edges = planted_clique_edges(&cfg, &mut rng);
    assign_probabilities(&edges, 60, &p, &mut rng)
}

fn decompose(g: &UncertainGraph, config: DecompConfig) -> Decomposition {
    Decomposition::compute(g, &config).unwrap()
}

/// With all edge probabilities equal to 1, every probabilistic
/// decomposition must coincide with its deterministic counterpart (the
/// definitional filter at threshold 1.0).
#[test]
fn certain_graph_probabilistic_equals_deterministic() {
    let g = clique_rich_graph(1, ProbabilityModel::Constant(1.0));
    let deterministic = |rank| definitional_scores(&g, rank, 1.0);

    let prob_core = decompose(&g, DecompConfig::core(0.9));
    assert_eq!(deterministic(Rank::Core), prob_core.scores());

    let prob_truss = decompose(&g, DecompConfig::truss(0.9));
    assert_eq!(deterministic(Rank::Truss), prob_truss.scores());

    let prob_nucleus = decompose(&g, DecompConfig::nucleus(0.9));
    assert_eq!(deterministic(Rank::Nucleus), prob_nucleus.scores());
}

/// The probabilistic scores are upper-bounded by the deterministic ones
/// and are monotone in θ on probabilistic graphs.
#[test]
fn probabilistic_scores_bounded_by_deterministic() {
    let g = clique_rich_graph(
        2,
        ProbabilityModel::Uniform {
            low: 0.3,
            high: 1.0,
        },
    );
    let certain = PossibleWorld::full(&g).materialize(&g);
    let det = definitional_scores(&certain, Rank::Nucleus, 1.0);
    let loose = decompose(&g, DecompConfig::nucleus(0.05));
    let tight = decompose(&g, DecompConfig::nucleus(0.6));
    assert_eq!(loose.num_elements(), det.len());
    for (id, &d) in det.iter().enumerate() {
        assert!(loose.scores()[id] <= d);
        assert!(tight.scores()[id] <= loose.scores()[id]);
    }
}

/// The nucleus hierarchy is consistent with the truss and core hierarchies:
/// every edge of an ℓ-(k,θ)-nucleus belongs to the (k,γ)-truss with k ≥ 1
/// at the same threshold, which in turn lives inside the (k,η)-core.
/// (This is the probabilistic analogue of nucleus ⊆ truss ⊆ core.)
#[test]
fn nucleus_subgraphs_are_inside_truss_and_core() {
    let theta = 0.2;
    let g = clique_rich_graph(
        3,
        ProbabilityModel::Uniform {
            low: 0.5,
            high: 1.0,
        },
    );
    let local = decompose(&g, DecompConfig::nucleus(theta));
    if local.max_score() == 0 {
        return; // nothing to check on this draw
    }
    let truss = decompose(&g, DecompConfig::truss(theta));
    let core = decompose(&g, DecompConfig::core(theta));
    for nucleus in local.k_nuclei(&g, 1).unwrap() {
        for &v in nucleus.subgraph.original_vertices() {
            assert!(core.score(v) >= 1, "vertex {v} outside the 1-core");
        }
        for tri in &nucleus.triangles {
            for (u, v) in tri.edges() {
                let e = g.edge_id(u, v).unwrap();
                assert!(
                    truss.score(e) >= 1,
                    "edge ({u},{v}) outside the (1,gamma)-truss"
                );
            }
        }
    }
}

/// k-(1,2)-nucleus = k-core and k-(2,3)-nucleus = k-truss: the generalized
/// definition collapses to the classical ones on deterministic graphs.
/// Here verified through the support-based definitions: a vertex of core
/// number k has at least k neighbours in its core, and an edge of truss
/// number k has at least k triangles in its truss.
#[test]
fn deterministic_hierarchy_sanity() {
    let g = clique_rich_graph(4, ProbabilityModel::Constant(1.0));
    let certain = PossibleWorld::full(&g).materialize(&g);
    let core = decompose(&certain, DecompConfig::core(1.0));
    let kmax = core.max_score();
    let members: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| core.score(v) >= kmax)
        .collect();
    for &v in &members {
        let degree_in_core = g
            .neighbors(v)
            .iter()
            .filter(|&&u| members.contains(&u))
            .count() as u32;
        assert!(degree_in_core >= kmax);
    }

    let truss = decompose(&certain, DecompConfig::truss(1.0));
    let tmax = truss.max_score();
    let edges: Vec<EdgeId> = (0..g.num_edges() as EdgeId)
        .filter(|&e| truss.score(e) >= tmax)
        .collect();
    for &e in &edges {
        let edge = g.edge(e);
        let support_in_truss = g
            .common_neighbors(edge.u, edge.v)
            .iter()
            .filter(|&&w| {
                edges.contains(&g.edge_id(edge.u, w).unwrap())
                    && edges.contains(&g.edge_id(edge.v, w).unwrap())
            })
            .count() as u32;
        assert!(support_in_truss >= tmax);
    }
}

/// Every triangle of an extracted ℓ-(k,θ)-nucleus really does satisfy the
/// definition: its probability of being in ≥ k 4-cliques of the nucleus is
/// at least θ (checked with the exact DP over the nucleus's own cliques).
///
/// Like the deterministic nucleus decomposition, a nucleus is a union of
/// qualifying 4-cliques; the definitional bound quantifies over the
/// triangles *of those cliques*, not over stray triangles that the union
/// of clique edges happens to form on the side.
#[test]
fn extracted_nuclei_satisfy_definition() {
    let theta = 0.15;
    let g = clique_rich_graph(
        5,
        ProbabilityModel::Uniform {
            low: 0.4,
            high: 1.0,
        },
    );
    let local = decompose(&g, DecompConfig::nucleus(theta));
    for k in 1..=local.max_score() {
        for nucleus in local.k_nuclei(&g, k).unwrap() {
            for tri in &nucleus.triangles {
                // Completion probabilities of the nucleus's 4-cliques that
                // contain this triangle: for the clique's fourth vertex z,
                // Pr(E) is the product of the three edge probabilities
                // linking z to the triangle.
                let probs: Vec<f64> = nucleus
                    .cliques
                    .iter()
                    .filter(|c| c.contains_triangle(tri))
                    .map(|c| {
                        let z = c
                            .vertices()
                            .into_iter()
                            .find(|&v| !tri.contains(v))
                            .expect("clique has a vertex outside the triangle");
                        tri.vertices()
                            .into_iter()
                            .map(|v| g.edge_probability(v, z).expect("clique edge exists"))
                            .product()
                    })
                    .collect();
                assert!(
                    !probs.is_empty(),
                    "k={k}: triangle {tri} is in no clique of its nucleus"
                );
                let tri_prob = tri.probability(&g).expect("triangle edges exist");
                let tail = dp::local_tail_probability(tri_prob, &probs, k as usize);
                assert!(
                    tail >= theta - 1e-9,
                    "k={k}: triangle {tri} tail {tail} below theta {theta}"
                );
            }
        }
    }
}
