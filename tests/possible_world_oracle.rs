//! Exhaustive possible-world oracle.
//!
//! For graphs with at most 12 edges, all `2^m` possible worlds can be
//! enumerated and every probabilistic quantity the decomposition stack
//! computes analytically can be cross-checked against the brute-force
//! distribution (Equation 1 of the paper):
//!
//! * the triangle-support pmf/tails of `ugraph::rs::dp`
//!   (`support_pmf`, `local_tail_probability`, Proposition 5.1),
//! * expected triangle and 4-clique counts,
//! * the initial local nucleus scores (the largest `k` with
//!   `Pr[△ ∧ ζ ≥ k] ≥ θ`), and the invariant that peeling only lowers
//!   scores.
//!
//! Hand-built fixtures pin the small worked examples; proptest sweeps
//! random tiny graphs (scale the case count with `PROPTEST_CASES`).
//!
//! The same oracle also pins the incremental-update path: a sweep built
//! on one tiny graph, repaired through
//! [`DecompSweep::apply_updates`](prob_nucleus_repro::nucleus::DecompSweep::apply_updates),
//! must report exactly the scores the exhaustive distribution of the
//! *updated* graph demands — the repair is checked against ground truth,
//! not just against a from-scratch run of the same code.

use std::sync::Arc;

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::{
    DecompConfig, DecompHandle, DecompSweep, Decomposition, Rank, RankSupport, SupportStructure,
    SweepConfig,
};
use prob_nucleus_repro::ugraph::rs::dp;
use prob_nucleus_repro::ugraph::{EdgeId, EdgeUpdate, GraphBuilder, TriangleId, UncertainGraph};

const TOL: f64 = 1e-9;

/// Brute-force distribution over all `2^m` possible worlds.
struct WorldOracle {
    support: SupportStructure,
    /// `tail[t][k] = Pr[△_t exists ∧ ζ_t ≥ k]`, `k = 0..=support(t)`.
    tail: Vec<Vec<f64>>,
    /// `pmf[t][k] = Pr[△_t exists ∧ ζ_t = k]`.
    pmf: Vec<Vec<f64>>,
    /// `Σ_w Pr(w) · #triangles(w)`.
    expected_triangles: f64,
    /// `Σ_w Pr(w) · #4-cliques(w)`.
    expected_four_cliques: f64,
    /// `Σ_w Pr(w)` — must be 1.
    total_probability: f64,
}

fn edge_mask(graph: &UncertainGraph, pairs: &[(u32, u32)]) -> u32 {
    pairs.iter().fold(0u32, |mask, &(u, v)| {
        mask | (1 << graph.edge_id(u, v).expect("edge of enumerated structure"))
    })
}

fn brute_force(graph: &UncertainGraph) -> WorldOracle {
    let m = graph.num_edges();
    assert!(m <= 12, "oracle is exhaustive; keep graphs tiny");
    let support = SupportStructure::build(graph);
    let nt = support.num_triangles();

    // Bitmask of each triangle's three edges and of each 4-clique's six.
    let tri_masks: Vec<u32> = (0..nt as TriangleId)
        .map(|t| edge_mask(graph, &support.triangle(t).edges()))
        .collect();
    let clique_masks: Vec<u32> = support
        .cliques()
        .iter()
        .map(|c| edge_mask(graph, &c.clique.edges()))
        .collect();

    let mut tail = vec![Vec::new(); nt];
    let mut pmf = vec![Vec::new(); nt];
    for t in 0..nt {
        let c = support.support(t as TriangleId);
        tail[t] = vec![0.0; c + 1];
        pmf[t] = vec![0.0; c + 1];
    }
    let mut expected_triangles = 0.0;
    let mut expected_four_cliques = 0.0;
    let mut total_probability = 0.0;

    let probs: Vec<f64> = graph.edges().iter().map(|e| e.p).collect();
    for world in 0u32..(1u32 << m) {
        let mut pw = 1.0;
        for (e, &pe) in probs.iter().enumerate() {
            pw *= if world & (1 << e) != 0 { pe } else { 1.0 - pe };
        }
        total_probability += pw;

        for &mask in &clique_masks {
            if world & mask == mask {
                expected_four_cliques += pw;
            }
        }
        for t in 0..nt {
            let t_mask = tri_masks[t];
            if world & t_mask != t_mask {
                continue;
            }
            expected_triangles += pw;
            // ζ_t: materialized 4-cliques containing the triangle.
            let zeta = support
                .cliques_of(t as TriangleId)
                .iter()
                .filter(|&&c| {
                    let mask = clique_masks[c as usize];
                    world & mask == mask
                })
                .count();
            pmf[t][zeta] += pw;
            for entry in &mut tail[t][..=zeta] {
                *entry += pw;
            }
        }
    }

    WorldOracle {
        support,
        tail,
        pmf,
        expected_triangles,
        expected_four_cliques,
        total_probability,
    }
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() < TOL, "{what}: {a} vs {b}");
}

/// Runs every analytic-vs-brute-force cross-check on one graph.
fn check_graph(graph: &UncertainGraph, thetas: &[f64]) {
    let oracle = brute_force(graph);
    let support = &oracle.support;
    assert_close(oracle.total_probability, 1.0, "world probabilities");

    // Expected subgraph counts: Σ_△ Pr(△) and Σ_C Pr(C).
    let analytic_triangles: f64 = (0..support.num_triangles() as TriangleId)
        .map(|t| support.triangle_prob(t))
        .sum();
    assert_close(
        oracle.expected_triangles,
        analytic_triangles,
        "expected triangle count",
    );
    let analytic_cliques: f64 = support
        .cliques()
        .iter()
        .map(|c| c.clique.probability(graph).expect("clique edges exist"))
        .sum();
    assert_close(
        oracle.expected_four_cliques,
        analytic_cliques,
        "expected 4-clique count",
    );

    // DP pmf and tails against the brute-force distribution
    // (Proposition 5.1: Pr[△ ∧ ζ ≥ k] = Pr(△) · Pr[ζ ≥ k]).
    for t in 0..support.num_triangles() as TriangleId {
        let completion = support.completion_probs(t);
        let tri_prob = support.triangle_prob(t);
        let dp_pmf = dp::support_pmf(&completion);
        assert_eq!(dp_pmf.len(), support.support(t) + 1);
        for (k, &dp_mass) in dp_pmf.iter().enumerate() {
            assert_close(
                oracle.pmf[t as usize][k],
                tri_prob * dp_mass,
                &format!("pmf of triangle {t} at k={k}"),
            );
            assert_close(
                oracle.tail[t as usize][k],
                dp::local_tail_probability(tri_prob, &completion, k),
                &format!("tail of triangle {t} at k={k}"),
            );
        }
        // Beyond the support the tail is exactly zero.
        assert_eq!(
            dp::local_tail_probability(tri_prob, &completion, support.support(t) + 1),
            0.0
        );
    }

    // Local nucleus scores: the initial score is the largest k whose
    // brute-force tail clears θ; peeling can only lower scores.
    let handle = DecompHandle::from_support(Arc::new(RankSupport::Nucleus(support.clone())));
    for &theta in thetas {
        let local = handle
            .compute_at(&DecompConfig::nucleus(theta))
            .expect("valid config");
        assert_eq!(local.num_elements(), support.num_triangles());
        for t in 0..support.num_triangles() {
            let brute_initial = (0..oracle.tail[t].len())
                .rev()
                .find(|&k| oracle.tail[t][k] >= theta)
                .unwrap_or(0) as u32;
            assert_eq!(
                local.initial_scores()[t],
                brute_initial,
                "initial score of triangle {t} at theta {theta}"
            );
            assert!(
                local.scores()[t] <= local.initial_scores()[t],
                "peeling must not raise scores"
            );
        }
    }

    // θ sweep: one support build answering every grid point must
    // agree with the exhaustive distribution at each θ — same
    // brute-force initial scores, same per-θ scores as the independent
    // decomposition, and rows non-increasing in θ.
    let mut grid = thetas.to_vec();
    grid.sort_by(|a, b| a.partial_cmp(b).expect("thetas are finite"));
    grid.dedup();
    let sweep = handle
        .sweep(&SweepConfig::exact(grid.clone()))
        .expect("valid sweep");
    assert!(
        sweep.is_monotone_in_threshold(),
        "sweep rows must be sorted"
    );
    for &theta in &grid {
        let point = sweep.at(theta).expect("grid point");
        let initial = point.initial_scores();
        let solo = handle
            .compute_at(&DecompConfig::nucleus(theta))
            .expect("valid config");
        assert_eq!(point.scores(), solo.scores());
        for (t, &sweep_initial) in initial.iter().enumerate() {
            let brute_initial = (0..oracle.tail[t].len())
                .rev()
                .find(|&k| oracle.tail[t][k] >= theta)
                .unwrap_or(0) as u32;
            assert_eq!(
                sweep_initial, brute_initial,
                "sweep initial score of triangle {t} at theta {theta}"
            );
        }
    }
}

/// Rank-(2,3) oracle: `tail[e][k] = Pr[e exists ∧ X_e ≥ k]`, with `X_e`
/// the number of triangles through `e` in the sampled world, from the
/// exhaustive `2^m` enumeration.
fn truss_world_tails(graph: &UncertainGraph) -> Vec<Vec<f64>> {
    let m = graph.num_edges();
    assert!(m <= 12, "oracle is exhaustive; keep graphs tiny");
    // For every edge, the masks of the two other edges of each potential
    // triangle through it.
    let wedge_masks: Vec<Vec<u32>> = (0..m as EdgeId)
        .map(|e| {
            let edge = graph.edge(e);
            graph
                .common_neighbors(edge.u, edge.v)
                .iter()
                .map(|&w| {
                    let euw = graph.edge_id(edge.u, w).expect("wedge edge");
                    let evw = graph.edge_id(edge.v, w).expect("wedge edge");
                    (1u32 << euw) | (1u32 << evw)
                })
                .collect()
        })
        .collect();

    let probs: Vec<f64> = graph.edges().iter().map(|e| e.p).collect();
    let mut tail: Vec<Vec<f64>> = wedge_masks
        .iter()
        .map(|wedges| vec![0.0; wedges.len() + 1])
        .collect();
    for world in 0u32..(1u32 << m) {
        let mut pw = 1.0;
        for (e, &pe) in probs.iter().enumerate() {
            pw *= if world & (1 << e) != 0 { pe } else { 1.0 - pe };
        }
        for e in 0..m {
            if world & (1 << e) == 0 {
                continue;
            }
            let x = wedge_masks[e]
                .iter()
                .filter(|&&mask| world & mask == mask)
                .count();
            for entry in &mut tail[e][..=x] {
                *entry += pw;
            }
        }
    }
    tail
}

/// Cross-checks the generic engine's (2,3) instance against the
/// brute-force distribution: the initial γ-support of every edge is the
/// largest `k` whose exhaustive tail clears γ, and peeling only lowers
/// scores.
fn check_truss_rank(graph: &UncertainGraph, gammas: &[f64]) {
    let tail = truss_world_tails(graph);
    for &gamma in gammas {
        let decomp =
            Decomposition::compute(graph, &DecompConfig::truss(gamma)).expect("valid gamma");
        for (e, edge_tail) in tail.iter().enumerate() {
            let brute_initial = (0..edge_tail.len())
                .rev()
                .find(|&k| edge_tail[k] >= gamma)
                .unwrap_or(0) as u32;
            assert_eq!(
                decomp.initial_scores()[e],
                brute_initial,
                "initial gamma-support of edge {e} at gamma {gamma}"
            );
            assert!(
                decomp.scores()[e] <= decomp.initial_scores()[e],
                "peeling must not raise scores"
            );
        }
    }
}

#[test]
fn truss_rank_fixtures_match_brute_force() {
    // K4 with mixed probabilities: every edge sits in two potential
    // triangles.
    let mut b = GraphBuilder::new();
    let mut p = 0.45;
    for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
        b.add_edge(u, v, p).unwrap();
        p = (p + 0.07).min(0.95);
    }
    check_truss_rank(&b.build(), &[0.01, 0.1, 0.3, 0.7]);

    // Bowtie: two triangles sharing edge (1,2) — the shared edge has two
    // wedges, the outer edges one each.
    let mut b = GraphBuilder::new();
    for &(u, v, p) in &[
        (0u32, 1u32, 0.9),
        (0, 2, 0.8),
        (1, 2, 0.7),
        (1, 3, 0.6),
        (2, 3, 0.5),
    ] {
        b.add_edge(u, v, p).unwrap();
    }
    check_truss_rank(&b.build(), &[0.05, 0.25, 0.5]);

    // Triangle-free path: all supports are zero at every gamma.
    let mut b = GraphBuilder::new();
    for i in 0..4u32 {
        b.add_edge(i, i + 1, 0.6).unwrap();
    }
    check_truss_rank(&b.build(), &[0.1, 0.5]);
}

#[test]
fn k4_fixture_matches_brute_force() {
    let mut b = GraphBuilder::new();
    for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
        b.add_edge(u, v, 0.5).unwrap();
    }
    let g = b.build();
    check_graph(&g, &[0.01, 0.1, 0.3]);

    // Worked example: every triangle of K4(p=0.5) has Pr(△) = 1/8 and one
    // completion event with Pr(E) = 1/8, so Pr[△ ∧ ζ ≥ 1] = 1/64.
    let oracle = brute_force(&g);
    for t in 0..4 {
        assert_close(oracle.tail[t][0], 0.125, "K4 triangle probability");
        assert_close(oracle.tail[t][1], 1.0 / 64.0, "K4 joint clique probability");
    }
    // θ between 1/64 and 1/8 separates initial scores 0 and 1.
    let sep = Decomposition::compute(&g, &DecompConfig::nucleus(0.05)).unwrap();
    assert!(sep.initial_scores().iter().all(|&s| s == 0));
    let loose = Decomposition::compute(&g, &DecompConfig::nucleus(0.01)).unwrap();
    assert!(loose.initial_scores().iter().all(|&s| s == 1));
}

#[test]
fn k5_with_distinct_probabilities_matches_brute_force() {
    let mut b = GraphBuilder::new();
    let mut p = 0.35;
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            b.add_edge(u, v, p).unwrap();
            p = (p + 0.061).min(0.99);
        }
    }
    let g = b.build();
    assert_eq!(g.num_edges(), 10);
    check_graph(&g, &[0.005, 0.05, 0.2, 0.6]);
}

#[test]
fn sparse_fixtures_match_brute_force() {
    // A lone triangle: ζ is identically zero.
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1, 0.9).unwrap();
    b.add_edge(1, 2, 0.8).unwrap();
    b.add_edge(0, 2, 0.7).unwrap();
    let tri = b.build();
    check_graph(&tri, &[0.1, 0.5, 0.9]);
    let oracle = brute_force(&tri);
    assert_close(oracle.tail[0][0], 0.9 * 0.8 * 0.7, "lone triangle");
    assert_eq!(oracle.tail[0].len(), 1, "no completion events");

    // A triangle-free path: no triangles at all, expectations still hold.
    let mut b = GraphBuilder::new();
    for i in 0..5u32 {
        b.add_edge(i, i + 1, 0.3 + 0.1 * i as f64).unwrap();
    }
    let path = b.build();
    check_graph(&path, &[0.2]);
    assert_eq!(brute_force(&path).expected_triangles, 0.0);
}

#[test]
fn two_cliques_sharing_a_triangle_match_brute_force() {
    // K4 on {0,1,2,3} ∪ K4 on {0,1,2,4}: the shared triangle (0,1,2) has
    // support 2, every other triangle support 1 — exercises pmf entries
    // beyond k = 1.
    let mut b = GraphBuilder::new();
    let mut p = 0.4;
    for &(u, v) in &[
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 3),
        (1, 3),
        (2, 3),
        (0, 4),
        (1, 4),
        (2, 4),
    ] {
        b.add_edge(u, v, p).unwrap();
        p = (p + 0.055).min(0.95);
    }
    let g = b.build();
    let support = SupportStructure::build(&g);
    let shared = support
        .triangle_index()
        .id_of_vertices(0, 1, 2)
        .expect("shared triangle");
    assert_eq!(support.support(shared), 2);
    check_graph(&g, &[0.001, 0.01, 0.1, 0.4]);
}

/// Applies `batch` through the incremental path at the nucleus and truss
/// ranks and verifies the *repaired* sweeps against the exhaustive
/// possible-world distribution of the updated graph — brute-force ground
/// truth, independent of every analytic code path the repair shares with
/// a fresh compute.
fn check_updated_sweep(graph: &UncertainGraph, batch: &[EdgeUpdate], thetas: &[f64]) {
    // Nucleus rank: repaired initial scores are the largest k whose
    // exhaustive tail Pr[△ ∧ ζ ≥ k] clears θ.
    let config = SweepConfig::exact(thetas.to_vec()).with_rank(Rank::Nucleus);
    let mut sweep = DecompSweep::compute(graph, &config).expect("valid sweep config");
    let outcome = sweep
        .apply_updates(graph, batch)
        .expect("fixture batches are valid");
    let updated = outcome.graph;
    assert!(updated.num_edges() <= 12, "keep updated graphs exhaustible");
    let oracle = brute_force(&updated);
    assert_eq!(sweep.support().num_elements(), oracle.tail.len());
    for (point, &theta) in sweep.points().iter().zip(thetas) {
        let (initial, scores) = (point.initial_scores(), point.scores());
        for (t, tail) in oracle.tail.iter().enumerate() {
            let brute_initial = (0..tail.len())
                .rev()
                .find(|&k| tail[k] >= theta)
                .unwrap_or(0) as u32;
            assert_eq!(
                initial[t], brute_initial,
                "repaired initial score of triangle {t} at theta {theta}"
            );
            assert!(
                scores[t] <= initial[t],
                "peeling must not raise repaired scores"
            );
        }
    }

    // Truss rank: repaired initial scores against the exhaustive
    // triangle-count tails of the updated graph's edges.
    let config = SweepConfig::exact(thetas.to_vec()).with_rank(Rank::Truss);
    let mut sweep = DecompSweep::compute(graph, &config).expect("valid sweep config");
    let outcome = sweep
        .apply_updates(graph, batch)
        .expect("fixture batches are valid");
    let tail = truss_world_tails(&outcome.graph);
    assert_eq!(sweep.support().num_elements(), tail.len());
    for (point, &gamma) in sweep.points().iter().zip(thetas) {
        let (initial, scores) = (point.initial_scores(), point.scores());
        for (e, edge_tail) in tail.iter().enumerate() {
            let brute_initial = (0..edge_tail.len())
                .rev()
                .find(|&k| edge_tail[k] >= gamma)
                .unwrap_or(0) as u32;
            assert_eq!(
                initial[e], brute_initial,
                "repaired gamma-support of edge {e} at gamma {gamma}"
            );
            assert!(
                scores[e] <= initial[e],
                "peeling must not raise repaired scores"
            );
        }
    }
}

#[test]
fn updated_fixtures_match_brute_force() {
    // K4(0.5) plus a pendant at vertex 4, reshaped around that vertex:
    // one chord deleted, one edge reweighted, three inserts forming
    // fresh triangles — the updated graph (9 edges) has a different
    // clique structure than the fixture.  Inserts may only touch
    // existing vertices, hence the pendant.
    let mut b = GraphBuilder::new();
    for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)] {
        b.add_edge(u, v, 0.5).unwrap();
    }
    let batch = vec![
        EdgeUpdate::Delete { u: 2, v: 3 },
        EdgeUpdate::Reweight { u: 0, v: 1, p: 0.9 },
        EdgeUpdate::Insert { u: 0, v: 4, p: 0.8 },
        EdgeUpdate::Insert { u: 1, v: 4, p: 0.7 },
        EdgeUpdate::Insert { u: 2, v: 4, p: 0.6 },
    ];
    check_updated_sweep(&b.build(), &batch, &[0.01, 0.05, 0.3]);

    // Bowtie: reweights only — same structure, different distribution.
    let mut b = GraphBuilder::new();
    for &(u, v, p) in &[
        (0u32, 1u32, 0.9),
        (0, 2, 0.8),
        (1, 2, 0.7),
        (1, 3, 0.6),
        (2, 3, 0.5),
    ] {
        b.add_edge(u, v, p).unwrap();
    }
    let batch = vec![
        EdgeUpdate::Reweight {
            u: 1,
            v: 2,
            p: 0.35,
        },
        EdgeUpdate::Reweight {
            u: 2,
            v: 3,
            p: 0.95,
        },
    ];
    check_updated_sweep(&b.build(), &batch, &[0.05, 0.25, 0.5]);

    // Triangle-free path closed into a fan: inserts create the first
    // triangles the sweep has ever seen.
    let mut b = GraphBuilder::new();
    for i in 0..4u32 {
        b.add_edge(i, i + 1, 0.6).unwrap();
    }
    let batch = vec![
        EdgeUpdate::Insert { u: 0, v: 2, p: 0.8 },
        EdgeUpdate::Insert { u: 1, v: 3, p: 0.7 },
        EdgeUpdate::Insert { u: 2, v: 4, p: 0.9 },
    ];
    check_updated_sweep(&b.build(), &batch, &[0.1, 0.5]);

    // Deleting down to triangle-free: the repaired nucleus sweep must
    // agree with an oracle that has no triangles left.
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1, 0.9).unwrap();
    b.add_edge(1, 2, 0.8).unwrap();
    b.add_edge(0, 2, 0.7).unwrap();
    b.add_edge(2, 3, 0.6).unwrap();
    let batch = vec![EdgeUpdate::Delete { u: 0, v: 1 }];
    check_updated_sweep(&b.build(), &batch, &[0.1, 0.5]);
}

/// Strategy: a tiny graph plus a random valid batch whose application
/// keeps the updated graph within the exhaustive-enumeration budget.
fn arb_tiny_graph_and_batch() -> impl Strategy<Value = (UncertainGraph, Vec<EdgeUpdate>)> {
    arb_tiny_graph(6, 0.6).prop_flat_map(|g| {
        let n = g.num_vertices() as u32;
        let present: std::collections::HashSet<(u32, u32)> =
            g.edges().iter().map(|e| (e.u, e.v)).collect();
        let absent: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|p| !present.contains(p))
            .collect();
        let m = g.num_edges();
        let k = absent.len();
        // Nested pairs of triples: the vendored proptest implements
        // Strategy for tuples only up to arity 5.
        (
            (
                Just(g),
                Just(absent),
                proptest::collection::vec(0.0f64..1.0, m.max(1)),
            ),
            (
                proptest::collection::vec(0.01f64..=1.0, m.max(1)),
                proptest::collection::vec(0.0f64..1.0, k.max(1)),
                proptest::collection::vec(0.01f64..=1.0, k.max(1)),
            ),
        )
            .prop_map(|((g, absent, action), (new_p, ins_coin, ins_p))| {
                let mut batch = Vec::new();
                let mut deletes = 0usize;
                for (i, e) in g.edges().iter().enumerate() {
                    if action[i] < 0.25 {
                        batch.push(EdgeUpdate::Delete { u: e.u, v: e.v });
                        deletes += 1;
                    } else if action[i] < 0.5 {
                        batch.push(EdgeUpdate::Reweight {
                            u: e.u,
                            v: e.v,
                            p: new_p[i],
                        });
                    }
                }
                // Inserts fill up to the 12-edge budget of the oracle.
                let mut budget = 12usize.saturating_sub(g.num_edges() - deletes);
                for (j, &(u, v)) in absent.iter().enumerate() {
                    if budget == 0 {
                        break;
                    }
                    if ins_coin[j] < 0.3 {
                        batch.push(EdgeUpdate::Insert { u, v, p: ins_p[j] });
                        budget -= 1;
                    }
                }
                (g, batch)
            })
    })
}

/// Strategy: a random probabilistic graph on up to `max_v` vertices whose
/// edge count stays within the exhaustive-enumeration budget.
fn arb_tiny_graph(max_v: u32, density: f64) -> impl Strategy<Value = UncertainGraph> {
    (4..=max_v)
        .prop_flat_map(move |n| {
            let pairs: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .collect();
            let m = pairs.len();
            (
                Just(pairs),
                proptest::collection::vec(0.0f64..1.0, m),
                proptest::collection::vec(0.01f64..=1.0, m),
            )
        })
        .prop_map(move |(pairs, coin, probs)| {
            let mut b = GraphBuilder::new();
            let mut added = 0;
            for (i, (u, v)) in pairs.into_iter().enumerate() {
                if coin[i] < density && added < 12 {
                    b.add_edge(u, v, probs[i]).unwrap();
                    added += 1;
                }
            }
            b.build()
        })
}

proptest! {
    // Case count scales with PROPTEST_CASES (64 by default, 1024 in the
    // thorough CI job).
    #![proptest_config(ProptestConfig::default())]

    /// Every analytic quantity matches the brute-force possible-world
    /// distribution on random tiny graphs.
    #[test]
    fn random_tiny_graphs_match_brute_force(
        g in arb_tiny_graph(6, 0.75),
        theta in 0.02f64..0.8,
    ) {
        prop_assume!(g.num_edges() <= 12);
        check_graph(&g, &[theta]);
    }

    /// The (2,3) instance of the generic engine matches the brute-force
    /// triangle-count distribution on random tiny graphs.
    #[test]
    fn random_tiny_graphs_match_truss_oracle(
        g in arb_tiny_graph(6, 0.75),
        gamma in 0.02f64..0.8,
    ) {
        prop_assume!(g.num_edges() <= 12);
        check_truss_rank(&g, &[gamma]);
    }

    /// Repaired sweeps after a random update batch match the exhaustive
    /// possible-world distribution of the *updated* graph — the
    /// incremental path is pinned to ground truth, not merely to a
    /// from-scratch run of the same analytic code.
    #[test]
    fn random_update_batches_match_brute_force(
        case in arb_tiny_graph_and_batch(),
        theta in 0.02f64..0.8,
    ) {
        let (g, batch) = case;
        prop_assume!(g.num_edges() <= 12);
        check_updated_sweep(&g, &batch, &[0.01, theta]);
    }
}
