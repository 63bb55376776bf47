//! Extraction of maximal ℓ-(k,θ)-nuclei from per-triangle scores.
//!
//! Once the peeling has assigned every triangle its ℓ-nucleusness ν(△),
//! the ℓ-(k,θ)-nuclei for a given `k` are built exactly as in the
//! deterministic case: take every 4-clique whose four triangles all have
//! ν ≥ k, group those cliques by shared-triangle connectivity, and each
//! group's union of edges is one maximal nucleus (it is a union of
//! 4-cliques and its triangles are s-connected by construction, matching
//! the preconditions of Definition 5).

use detdecomp::NucleusSubgraph;
use ugraph::UncertainGraph;

use crate::support::SupportStructure;

/// Extracts the maximal ℓ-(k,θ)-nuclei for `k ≥ 1` given the per-triangle
/// scores produced by the peeling — the deterministic extraction,
/// [`detdecomp::nucleus::extract_k_nuclei`], over the support's cliques.
pub fn extract_k_nuclei(
    graph: &UncertainGraph,
    support: &SupportStructure,
    scores: &[u32],
    k: u32,
) -> Vec<NucleusSubgraph> {
    let clique = |c: usize| {
        let record = support.clique(c as u32);
        (record.clique, record.triangles)
    };
    detdecomp::nucleus::extract_k_nuclei(graph, support.num_cliques(), clique, scores, k)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::{DecompConfig, Decomposition};
    use ugraph::GraphBuilder;

    fn exact(g: &UncertainGraph, theta: f64) -> Decomposition {
        Decomposition::compute(g, &DecompConfig::nucleus(theta)).unwrap()
    }

    fn two_k5s_with_bridge(p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5u32] {
            for i in 0..5u32 {
                for j in (i + 1)..5u32 {
                    b.add_edge(base + i, base + j, p).unwrap();
                }
            }
        }
        b.add_edge(4, 5, p).unwrap();
        b.build()
    }

    #[test]
    fn extracts_two_separate_nuclei() {
        let g = two_k5s_with_bridge(0.9);
        let local = exact(&g, 0.1);
        assert_eq!(local.max_score(), 2);
        let nuclei = local.k_nuclei(&g, 2).unwrap();
        assert_eq!(nuclei.len(), 2);
        for n in &nuclei {
            assert_eq!(n.num_vertices(), 5);
            assert_eq!(n.num_edges(), 10);
            assert_eq!(n.cliques.len(), 5);
            assert_eq!(n.triangles.len(), 10);
            assert_eq!(n.k, 2);
        }
    }

    #[test]
    fn no_nuclei_above_max_score() {
        let g = two_k5s_with_bridge(0.5);
        let local = exact(&g, 0.2);
        let kmax = local.max_score();
        assert!(local.k_nuclei(&g, kmax + 1).unwrap().is_empty());
        if kmax >= 1 {
            assert!(!local.k_nuclei(&g, kmax).unwrap().is_empty());
        }
    }

    #[test]
    fn nuclei_triangles_all_meet_threshold() {
        let g = two_k5s_with_bridge(0.8);
        let theta = 0.3;
        let local = exact(&g, theta);
        let index = local.nucleus_support().unwrap().triangle_index();
        for k in 1..=local.max_score() {
            for nucleus in local.k_nuclei(&g, k).unwrap() {
                for tri in &nucleus.triangles {
                    let score = local.score(index.id_of(tri).unwrap());
                    assert!(score >= k, "triangle {tri} has score {score} < {k}");
                }
            }
        }
    }

    #[test]
    fn nested_nuclei_hierarchy() {
        // Higher-k nuclei must be contained (edge-wise) in the union of
        // lower-k nuclei.
        let g = two_k5s_with_bridge(0.95);
        let local = exact(&g, 0.05);
        let mut previous: Option<BTreeSet<(u32, u32)>> = None;
        for k in (1..=local.max_score()).rev() {
            let union: BTreeSet<(u32, u32)> = local
                .k_nuclei(&g, k)
                .unwrap()
                .iter()
                .flat_map(|n| n.cliques.iter().flat_map(|c| c.edges()))
                .collect();
            if let Some(higher) = previous {
                for e in &higher {
                    assert!(
                        union.contains(e),
                        "edge {e:?} of (k+1)-nucleus missing at k"
                    );
                }
            }
            previous = Some(union);
        }
    }
}
