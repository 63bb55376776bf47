//! Exact oracles: the definitions, computed slowly.
//!
//! * [`definitional_scores`] computes the scores of every monotone peel
//!   from their definition, by a level-k filter.
//! * The tails compute the probabilities of Definition 4 *exactly* by
//!   enumerating all `2^m` possible worlds, and are therefore usable only
//!   for tiny graphs (at most
//!   [`ugraph::possible_world::MAX_EXHAUSTIVE_EDGES`] edges).  They serve
//!   as ground truth for the Monte-Carlo estimators of Algorithms 2 and 3
//!   (whose per-world checks are [`is_k_nucleus_lenient`] and
//!   [`triangle_in_k_nucleus`]), and make the hardness reductions of
//!   Section 4 executable on small instances.

use ugraph::cliques::four_clique_extensions;
use ugraph::possible_world::{enumerate_all_worlds, MAX_EXHAUSTIVE_EDGES};
use ugraph::rs::{dp, RsSupport};
use ugraph::triangles::TriangleTable;
use ugraph::{
    ConnectedComponents, Parallelism, PossibleWorld, Triangle, TriangleId, UncertainGraph,
    UnionFind,
};

use crate::decomp::{DecompConfig, Decomposition, Rank, RankSupport};
use crate::error::{NucleusError, Result};

/// The scores of `rank` at `threshold`, from their definition
/// (Definitions 3 and 5 at rank (3,4), and the (k,η)-core and
/// (k,γ)-truss at ranks (1,2) and (2,3)): an element scores the largest
/// `k` for which it lies in the maximal set of elements each of which
/// has `Pr(e) · Pr[ζ ≥ k] ≥ threshold`, with `ζ` counting the cells
/// whose members all lie in the set.
///
/// A level-k filter computes it.  For k = 1, 2, … it repeatedly drops
/// every surviving element scoring below k ([`dp::max_k`] over the
/// completion probabilities of its cells whose members all survive),
/// until no element drops, and stops when nothing survives; an element's
/// score is the last k it survived.  Every round rescores every
/// survivor: slow, and plainly the definition.
///
/// It is the oracle of every exact-DP [`Decomposition`], whose peel is a
/// fast way to the same numbers.  At threshold 1.0 on the certain view
/// of a graph (`PossibleWorld::full(&g).materialize(&g)`, every edge at
/// p = 1) it returns the deterministic core, truss and nucleus numbers.
/// It scores with the exact DP only: the Hybrid scorer is not monotone
/// under cell removal, so no filter defines its peel.
pub fn definitional_scores(graph: &UncertainGraph, rank: Rank, threshold: f64) -> Vec<u32> {
    match RankSupport::build(graph, rank, Parallelism::Sequential) {
        RankSupport::Core(s) => level_filter(&s, threshold),
        RankSupport::Truss(s) => level_filter(&s, threshold),
        RankSupport::Nucleus(s) => level_filter(&s, threshold),
    }
}

/// The level-k filter of [`definitional_scores`] over any support.
fn level_filter<S: RsSupport>(support: &S, threshold: f64) -> Vec<u32> {
    let n = support.num_elements();
    let mut alive = vec![true; n];
    let mut scores = vec![0u32; n];
    let mut probs = Vec::new();
    let mut k = 0;
    while alive.contains(&true) {
        k += 1;
        let mut dropped = true;
        while dropped {
            dropped = false;
            for t in 0..n as u32 {
                if !alive[t as usize] {
                    continue;
                }
                let cell_alive = |c: u32| {
                    let members = support.cell_elements(c);
                    members.iter().all(|&m| alive[m as usize])
                };
                support.completion_probs_into(t, cell_alive, &mut probs);
                if dp::max_k(support.element_prob(t), &probs, threshold) < k {
                    alive[t as usize] = false;
                    dropped = true;
                }
            }
        }
        for (score, _) in scores.iter_mut().zip(&alive).filter(|(_, &a)| a) {
            *score = k;
        }
    }
    scores
}

fn check_size(graph: &UncertainGraph) -> Result<()> {
    if graph.num_edges() > MAX_EXHAUSTIVE_EDGES {
        return Err(NucleusError::GraphTooLargeForExact {
            num_edges: graph.num_edges(),
            max_edges: MAX_EXHAUSTIVE_EDGES,
        });
    }
    Ok(())
}

fn check_triangle(graph: &UncertainGraph, triangle: &Triangle) -> Result<()> {
    let [a, b, c] = triangle.vertices();
    if graph.has_edge(a, b) && graph.has_edge(b, c) && graph.has_edge(a, c) {
        Ok(())
    } else {
        Err(NucleusError::UnknownTriangle {
            vertices: triangle.vertices(),
        })
    }
}

/// Exact `Pr(X_{𝒢,△,ℓ} ≥ k)`: the probability that `△` exists and is
/// contained in at least `k` 4-cliques of the sampled world.
pub fn exact_local_tail(graph: &UncertainGraph, triangle: &Triangle, k: u32) -> Result<f64> {
    check_size(graph)?;
    check_triangle(graph, triangle)?;
    let [a, b, c] = triangle.vertices();
    let mut total = 0.0;
    for world in enumerate_all_worlds(graph) {
        if !world.contains_triangle(graph, a, b, c) {
            continue;
        }
        let det = world.materialize(graph);
        let support = det.common_neighbors3(a, b, c).len() as u32;
        if support >= k {
            total += world.probability(graph);
        }
    }
    Ok(total)
}

/// Exact `Pr(X_{𝒢,△,g} ≥ k)`: the probability that `△` exists and the
/// sampled world itself is a deterministic k-nucleus (Definition 4, μ = g).
///
/// Worlds are judged with [`is_k_nucleus_lenient`]: every
/// triangle of the world needs 4-clique support ≥ k and all triangles must
/// be 4-clique-connected, while stray edges outside every 4-clique are
/// ignored — the interpretation under which the paper's worked example
/// (Figure 2, `Pr = 0.06 + 0.21 = 0.27`) comes out exactly.
pub fn exact_global_tail(graph: &UncertainGraph, triangle: &Triangle, k: u32) -> Result<f64> {
    check_size(graph)?;
    check_triangle(graph, triangle)?;
    let [a, b, c] = triangle.vertices();
    let mut total = 0.0;
    for world in enumerate_all_worlds(graph) {
        if !world.contains_triangle(graph, a, b, c) {
            continue;
        }
        let det = world.materialize(graph);
        if is_k_nucleus_lenient(&det, k) {
            total += world.probability(graph);
        }
    }
    Ok(total)
}

/// Whether `graph` itself is a k-(3,4)-nucleus in the sense of the
/// *global* indicator `1_g(G, △, k)` on possible worlds (Definition 4):
/// every triangle of `graph` has 4-clique support ≥ k and all triangles
/// are 4-clique-connected.  Edges outside every 4-clique are ignored,
/// unlike in Definition 3's union-of-cliques condition: a sampled world
/// routinely contains a few stray certain edges, and the paper's worked
/// example (Figure 2) counts such worlds.  Edge probabilities are
/// ignored too.
///
/// Returns `false` for graphs without any triangle.  [`exact_global_tail`]
/// evaluates it on every world, and the compiled Monte-Carlo checks of
/// [`crate::sampling`] are tested against it.
pub fn is_k_nucleus_lenient(graph: &UncertainGraph, k: u32) -> bool {
    // The 4-cliques are extensions of the edge-ordered triangle table, so
    // no triangle id is looked up.
    let table = TriangleTable::build(graph, Parallelism::Sequential);
    if table.is_empty() {
        return false;
    }
    let mut support = vec![0u32; table.len()];
    let mut uf = UnionFind::new(table.len());
    for t in 0..table.len() as TriangleId {
        four_clique_extensions(&table, t, |_, [abd, acd, bcd]| {
            let ids = [t, abd, acd, bcd];
            for &x in &ids {
                support[x as usize] += 1;
            }
            for w in ids.windows(2) {
                uf.union(w[0], w[1]);
            }
        });
    }
    if support.iter().any(|&s| s < k) {
        return false;
    }
    let mut roots: Vec<u32> = (0..table.len() as u32).map(|t| uf.find(t)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len() <= 1
}

/// Exact `Pr(X_{𝒢,△,w} ≥ k)`: the probability that `△` exists and the
/// sampled world contains a deterministic k-nucleus containing `△`
/// (Definition 4, μ = w).
pub fn exact_weakly_global_tail(
    graph: &UncertainGraph,
    triangle: &Triangle,
    k: u32,
) -> Result<f64> {
    check_size(graph)?;
    check_triangle(graph, triangle)?;
    let [a, b, c] = triangle.vertices();
    let mut total = 0.0;
    for world in enumerate_all_worlds(graph) {
        if !world.contains_triangle(graph, a, b, c) {
            continue;
        }
        let det = world.materialize(graph);
        if triangle_in_k_nucleus(&det, triangle, k) {
            total += world.probability(graph);
        }
    }
    Ok(total)
}

/// The triangles of the maximal k-(3,4)-nuclei of `graph`
/// (deterministic structure: edge probabilities are ignored), sorted and
/// deduplicated: the triangles of every 4-clique whose four triangles
/// all have deterministic nucleusness ≥ k.  Nucleusness is the
/// ℓ-NuDecomp at θ = 1.0 of the certain view of `graph` (every edge at
/// p = 1).  A triangle in no 4-clique is in no nucleus, not even at
/// k = 0.  One call answers [`triangle_in_k_nucleus`] for every triangle.
pub fn k_nucleus_triangles(graph: &UncertainGraph, k: u32) -> Vec<Triangle> {
    let certain = PossibleWorld::full(graph).materialize(graph);
    let config = DecompConfig::nucleus(1.0).with_parallelism(Parallelism::Sequential);
    let decomp = Decomposition::compute(&certain, &config).expect("θ = 1.0 is valid");
    let nuclei = decomp.k_nuclei(&certain, k).expect("nucleus rank");
    let mut triangles: Vec<Triangle> = nuclei.into_iter().flat_map(|n| n.triangles).collect();
    triangles.sort_unstable();
    triangles.dedup();
    triangles
}

/// `true` when `graph` (deterministic structure: edge probabilities are
/// ignored) contains a k-(3,4)-nucleus that includes `triangle`: a
/// lookup in [`k_nucleus_triangles`].
pub fn triangle_in_k_nucleus(graph: &UncertainGraph, triangle: &Triangle, k: u32) -> bool {
    k_nucleus_triangles(graph, k)
        .binary_search(triangle)
        .is_ok()
}

/// Exact network reliability (Definition 6): the probability that a
/// sampled world is connected over *all* vertices of the graph.
pub fn network_reliability(graph: &UncertainGraph) -> Result<f64> {
    check_size(graph)?;
    if graph.num_vertices() == 0 {
        return Ok(0.0);
    }
    let mut total = 0.0;
    for world in enumerate_all_worlds(graph) {
        let det = world.materialize(graph);
        if ConnectedComponents::new(&det).is_connected() {
            total += world.probability(graph);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn k4(p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, p).unwrap();
        }
        b.build()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn local_tail_matches_dp_on_k4() {
        let g = k4(0.7);
        let t = Triangle::new(0, 1, 2);
        // DP: Pr(△)·Pr[ζ ≥ k] with one completion event of prob 0.7³.
        let tri_prob = 0.7f64.powi(3);
        let e = 0.7f64.powi(3);
        assert_close(exact_local_tail(&g, &t, 0).unwrap(), tri_prob);
        assert_close(exact_local_tail(&g, &t, 1).unwrap(), tri_prob * e);
        assert_close(exact_local_tail(&g, &t, 2).unwrap(), 0.0);
    }

    #[test]
    fn local_tail_matches_dp_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let edges = ugraph::generators::gnm_edges(8, 16, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            8,
            &ugraph::generators::ProbabilityModel::Uniform {
                low: 0.2,
                high: 1.0,
            },
            &mut rng,
        );
        let support = crate::SupportStructure::build(&g);
        for (id, tri) in support.triangle_index().iter() {
            let probs = support.completion_probs(id);
            let tri_prob = support.triangle_prob(id);
            for k in 0..=probs.len() as u32 {
                let dp = ugraph::rs::dp::local_tail_probability(tri_prob, &probs, k as usize);
                let exact = exact_local_tail(&g, &tri, k).unwrap();
                assert!(
                    (dp - exact).abs() < 1e-9,
                    "triangle {tri} k={k}: dp {dp} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn global_tail_on_paper_figure3a() {
        // Figure 3a: K4 on {1,2,3,5} with five certain edges and edge
        // (2,5) = 0.5.  The only world that is a 1-nucleus keeps all
        // edges, so Pr(X ≥ 1) = 0.5 for every triangle.
        let mut b = GraphBuilder::new();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(1, 5, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(3, 5, 1.0).unwrap();
        b.add_edge(2, 5, 0.5).unwrap();
        let g = b.build();
        let t = Triangle::new(1, 3, 5);
        assert_close(exact_global_tail(&g, &t, 1).unwrap(), 0.5);
    }

    #[test]
    fn global_tail_on_paper_figure2a() {
        // The ℓ-(1,0.42)-nucleus of Figure 2a is NOT a g-(1,0.42)-nucleus:
        // for triangle (1,3,5), Pr(X_g ≥ 1) = 0.06 + 0.21 = 0.27.
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
        let g = b.build();
        let t = Triangle::new(1, 3, 5);
        assert_close(exact_global_tail(&g, &t, 1).unwrap(), 0.27);
    }

    #[test]
    fn weakly_global_on_paper_figure2a() {
        // The same subgraph IS a w-(1, 0.42)-nucleus: the 4-cliques
        // containing each triangle are 1-nuclei appearing with probability
        // at least 0.42.
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
        let g = b.build();
        for tri in [
            Triangle::new(1, 3, 5),
            Triangle::new(1, 2, 3),
            Triangle::new(1, 2, 4),
        ] {
            let p = exact_weakly_global_tail(&g, &tri, 1).unwrap();
            assert!(p >= 0.42, "triangle {tri}: {p}");
        }
    }

    #[test]
    fn weakly_global_example2_figure3c() {
        // Figure 3c / Example 2: K5 with all edges 0.6 is an
        // ℓ-(2, 0.01)-nucleus but not a w-(2, 0.01)-nucleus:
        // Pr(X_w ≥ 2) = 0.6^10 ≈ 0.006 < 0.01.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, 0.6).unwrap();
            }
        }
        let g = b.build();
        let t = Triangle::new(0, 1, 2);
        let p = exact_weakly_global_tail(&g, &t, 2).unwrap();
        assert_close(p, 0.6f64.powi(10));
        assert!(p < 0.01);
    }

    #[test]
    fn ordering_of_the_three_semantics() {
        // For every triangle and every k: g ≤ w ≤ ℓ.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let edges = ugraph::generators::gnm_edges(7, 14, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            7,
            &ugraph::generators::ProbabilityModel::Uniform {
                low: 0.3,
                high: 1.0,
            },
            &mut rng,
        );
        let triangles = ugraph::triangles::enumerate_triangles(&g);
        for tri in triangles {
            for k in 1..3u32 {
                let l = exact_local_tail(&g, &tri, k).unwrap();
                let w = exact_weakly_global_tail(&g, &tri, k).unwrap();
                let gg = exact_global_tail(&g, &tri, k).unwrap();
                assert!(gg <= w + 1e-12, "triangle {tri} k={k}: g {gg} > w {w}");
                assert!(w <= l + 1e-12, "triangle {tri} k={k}: w {w} > l {l}");
            }
        }
    }

    #[test]
    fn reliability_of_simple_graphs() {
        // Single edge: reliability = p.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.7).unwrap();
        let g = b.build();
        assert_close(network_reliability(&g).unwrap(), 0.7);

        // Triangle with p everywhere: connected iff at least 2 edges
        // present: 3p²(1−p) + p³.
        let g = k4(1.0);
        assert_close(network_reliability(&g).unwrap(), 1.0);
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let tri = b.build();
        assert_close(network_reliability(&tri).unwrap(), 3.0 * 0.25 * 0.5 + 0.125);
    }

    #[test]
    fn errors_for_bad_inputs() {
        let g = k4(0.5);
        let missing = Triangle::new(0, 1, 7);
        assert!(matches!(
            exact_local_tail(&g, &missing, 1),
            Err(NucleusError::UnknownTriangle { .. })
        ));
        // Too many edges for exhaustive enumeration.
        let mut b = GraphBuilder::new();
        for i in 0..30u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let big = b.build();
        assert!(matches!(
            network_reliability(&big),
            Err(NucleusError::GraphTooLargeForExact { .. })
        ));
    }

    #[test]
    fn triangle_in_k_nucleus_checks() {
        let g = k4(1.0);
        let t = Triangle::new(0, 1, 2);
        assert!(triangle_in_k_nucleus(&g, &t, 1));
        assert!(!triangle_in_k_nucleus(&g, &t, 2));
        // Edge probabilities are ignored.
        assert!(triangle_in_k_nucleus(&k4(0.3), &t, 1));
        assert!(!triangle_in_k_nucleus(&g, &Triangle::new(0, 1, 9), 1));
        // Plain triangle: no 4-clique, so not even in a 0-nucleus.
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let tri_graph = b.build();
        assert!(!triangle_in_k_nucleus(&tri_graph, &t, 0));
        // The set form: K4's four triangles up to k = 1, none beyond, and
        // none in a graph without 4-cliques.
        let k4_triangles = ugraph::triangles::enumerate_triangles(&g);
        assert_eq!(k4_triangles.len(), 4);
        assert_eq!(k_nucleus_triangles(&g, 0), k4_triangles);
        assert_eq!(k_nucleus_triangles(&k4(0.3), 1), k4_triangles);
        assert!(k_nucleus_triangles(&g, 2).is_empty());
        assert!(k_nucleus_triangles(&tri_graph, 0).is_empty());
    }

    #[test]
    fn definitional_scores_on_complete_graphs() {
        // A certain K_n: core n − 1, truss n − 2 and nucleusness n − 3
        // everywhere, at any threshold.
        use crate::decomp::tests::complete;
        for (n, threshold) in [(5u32, 0.5), (6, 1.0)] {
            let g = complete(n, 1.0);
            let scores = |rank| definitional_scores(&g, rank, threshold);
            assert_eq!(scores(Rank::Core), vec![n - 1; n as usize]);
            assert_eq!(scores(Rank::Truss), vec![n - 2; g.num_edges()]);
            let triangles = ugraph::triangles::enumerate_triangles(&g).len();
            assert_eq!(scores(Rank::Nucleus), vec![n - 3; triangles]);
        }
        // Isolated vertices score 0; an edgeless graph has no triangle.
        let empty = UncertainGraph::empty(3);
        assert_eq!(definitional_scores(&empty, Rank::Core, 0.5), vec![0; 3]);
        assert!(definitional_scores(&empty, Rank::Nucleus, 0.5).is_empty());
        // K4 at p = 0.7: a triangle exists with 0.7³ and its one 4-clique
        // completes with 0.7³, so it scores 1 up to θ = 0.7⁶ ≈ 0.118.
        let g = k4(0.7);
        assert_eq!(definitional_scores(&g, Rank::Nucleus, 0.1), vec![1; 4]);
        assert_eq!(definitional_scores(&g, Rank::Nucleus, 0.2), vec![0; 4]);
    }
}
