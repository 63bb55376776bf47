//! Extraction of maximal ℓ-(k,θ)-nuclei from per-triangle scores.
//!
//! Once the peeling has assigned every triangle its ℓ-nucleusness ν(△),
//! the ℓ-(k,θ)-nuclei for a given `k` are built exactly as in the
//! deterministic case (Sarıyüce et al., WWW 2015): take every 4-clique
//! whose four triangles all have ν ≥ k, group those cliques by
//! shared-triangle connectivity, and each group's union of edges is one
//! maximal nucleus (it is a union of 4-cliques and its triangles are
//! s-connected by construction, matching the preconditions of
//! Definitions 3 and 5).  On the certain view of a graph at θ = 1.0 the
//! scores are the deterministic nucleusness, and the nuclei the
//! deterministic k-(3,4)-nuclei.

use std::collections::HashMap;

use ugraph::{EdgeId, EdgeSubgraph, FourClique, Triangle, UncertainGraph, UnionFind};

use crate::support::SupportStructure;

/// One maximal k-(3,4)-nucleus: a materialized subgraph plus the triangles
/// and 4-cliques it is made of (in original vertex ids).
#[derive(Debug, Clone)]
pub struct NucleusSubgraph {
    /// The `k` this nucleus was extracted for.
    pub k: u32,
    /// The materialized subgraph (dense local vertex ids, with the mapping
    /// back to original ids).
    pub subgraph: EdgeSubgraph,
    /// Triangles of the nucleus, in original vertex ids.
    pub triangles: Vec<Triangle>,
    /// 4-cliques of the nucleus, in original vertex ids.
    pub cliques: Vec<FourClique>,
}

impl NucleusSubgraph {
    /// Number of vertices of the nucleus.
    pub fn num_vertices(&self) -> usize {
        self.subgraph.num_vertices()
    }

    /// Number of edges of the nucleus.
    pub fn num_edges(&self) -> usize {
        self.subgraph.num_edges()
    }

    /// `true` when the triangle `t` (original vertex ids) belongs to this
    /// nucleus.
    pub fn contains_triangle(&self, t: &Triangle) -> bool {
        self.triangles.binary_search(t).is_ok()
    }
}

/// Extracts the maximal ℓ-(k,θ)-nuclei for `k ≥ 1` from the per-triangle
/// scores produced by the peeling: the support's 4-cliques all of whose
/// triangles score ≥ k, grouped into the connected components of
/// shared-triangle connectivity, one [`NucleusSubgraph`] per component,
/// ordered by first clique.
pub fn extract_k_nuclei(
    graph: &UncertainGraph,
    support: &SupportStructure,
    scores: &[u32],
    k: u32,
) -> Vec<NucleusSubgraph> {
    let qualifying: Vec<u32> = (0..support.num_cliques() as u32)
        .filter(|&c| {
            let triangles = support.clique(c).triangles;
            triangles.iter().all(|&t| scores[t as usize] >= k)
        })
        .collect();
    if qualifying.is_empty() {
        return Vec::new();
    }

    // Union triangles that co-occur in a qualifying 4-clique.
    let mut uf = UnionFind::new(scores.len());
    for &c in &qualifying {
        for w in support.clique(c).triangles.windows(2) {
            uf.union(w[0], w[1]);
        }
    }

    // Group qualifying cliques by the component of their first triangle.
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for &c in &qualifying {
        groups
            .entry(uf.find(support.clique(c).triangles[0]))
            .or_default()
            .push(c);
    }

    let mut nuclei: Vec<NucleusSubgraph> = groups
        .into_values()
        .map(|clique_ids| {
            let mut cliques: Vec<FourClique> = clique_ids
                .iter()
                .map(|&c| support.clique(c).clique)
                .collect();
            let mut triangles: Vec<Triangle> = cliques.iter().flat_map(|q| q.triangles()).collect();
            let mut edge_ids: Vec<EdgeId> = cliques
                .iter()
                .flat_map(|q| q.edges())
                .map(|(u, v)| graph.edge_id(u, v).expect("clique edge exists"))
                .collect();
            triangles.sort_unstable();
            triangles.dedup();
            edge_ids.sort_unstable();
            edge_ids.dedup();
            cliques.sort_unstable();
            NucleusSubgraph {
                k,
                subgraph: EdgeSubgraph::induced_by_edges(graph, &edge_ids),
                triangles,
                cliques,
            }
        })
        .collect();
    nuclei.sort_by_key(|n| n.cliques.first().copied());
    nuclei
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
