//! Deterministic k-(3,4)-nuclei (Sarıyüce et al., WWW 2015).
//!
//! The *support* of a triangle is the number of 4-cliques containing it.
//! A k-(3,4)-nucleus is a maximal subgraph that is a union of 4-cliques,
//! in which every triangle has support ≥ k and every pair of triangles is
//! connected through a chain of 4-cliques (Definition 3 of the paper).
//! A triangle's *nucleusness* κ(△) is the largest `k` such that △ belongs
//! to a k-(3,4)-nucleus: the p = 1 case of ℓ-nucleusness, which
//! `nucleus::Decomposition` at θ = 1.0 computes on the certain view of a
//! graph (every edge at p = 1), and which [`crate::reference::nucleusness`]
//! freezes as an oracle.
//!
//! This module turns per-triangle scores into the maximal k-nuclei
//! ([`extract_k_nuclei`]) and checks whether a whole graph is a k-nucleus
//! ([`is_k_nucleus`], [`is_k_nucleus_lenient`]).

use ugraph::cliques::four_clique_extensions;
use ugraph::triangles::TriangleTable;
use ugraph::{
    EdgeId, EdgeSubgraph, FourClique, Parallelism, Triangle, TriangleId, TriangleIndex,
    UncertainGraph, UnionFind,
};

/// The triangle index of `graph` plus its 4-cliques, each with the ids of
/// its four triangles (aligned with [`FourClique::triangles`]), from one
/// edge-ordered triangle pass: the cliques are extensions of the
/// triangle table, so no triangle id is looked up.
fn triangles_and_cliques(
    graph: &UncertainGraph,
) -> (TriangleIndex, Vec<FourClique>, Vec<[TriangleId; 4]>) {
    let table = TriangleTable::build(graph, Parallelism::Sequential);
    let (mut vertices, mut ids) = (Vec::new(), Vec::new());
    for t in 0..table.len() as TriangleId {
        let [a, b, c] = table.triangle(t).vertices();
        four_clique_extensions(&table, t, |d, [abd, acd, bcd]| {
            vertices.push(FourClique::new(a, b, c, d));
            ids.push([t, abd, acd, bcd]);
        });
    }
    (table.into_parts().0, vertices, ids)
}

/// Extracts the maximal k-(3,4)-nuclei, `k ≥ 1`, from per-triangle
/// scores: the 4-cliques all of whose triangles score ≥ k, grouped into
/// the connected components of shared-triangle connectivity, one
/// [`NucleusSubgraph`] per component, ordered by first clique.
///
/// `clique(c)` returns 4-clique `c` of `num_cliques`, in vertices, and the
/// dense ids of its four triangles; `scores` holds every triangle's score
/// (nucleusness, or ℓ-nucleusness for `nucleus::local::nuclei`).
pub fn extract_k_nuclei<C>(
    graph: &UncertainGraph,
    num_cliques: usize,
    clique: C,
    scores: &[u32],
    k: u32,
) -> Vec<NucleusSubgraph>
where
    C: Fn(usize) -> (FourClique, [TriangleId; 4]),
{
    let qualifying: Vec<usize> = (0..num_cliques)
        .filter(|&c| clique(c).1.iter().all(|&t| scores[t as usize] >= k))
        .collect();
    if qualifying.is_empty() {
        return Vec::new();
    }

    // Union triangles that co-occur in a qualifying 4-clique.
    let mut uf = UnionFind::new(scores.len());
    for &c in &qualifying {
        for w in clique(c).1.windows(2) {
            uf.union(w[0], w[1]);
        }
    }

    // Group qualifying cliques by the component of their first triangle.
    let mut groups: std::collections::HashMap<u32, Vec<usize>> = std::collections::HashMap::new();
    for &c in &qualifying {
        groups.entry(uf.find(clique(c).1[0])).or_default().push(c);
    }

    let mut nuclei: Vec<NucleusSubgraph> = groups
        .into_values()
        .map(|clique_ids| {
            let mut cliques: Vec<FourClique> = clique_ids.iter().map(|&c| clique(c).0).collect();
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

/// Checks whether `graph` itself is a deterministic k-nucleus
/// (Definition 3): it is a union of 4-cliques, every triangle has support
/// ≥ k, and every pair of triangles is connected through 4-cliques.
///
/// The global algorithm (Algorithm 2) judges its sampled worlds by the
/// relaxed [`is_k_nucleus_lenient`] instead.  An edgeless graph is not a
/// nucleus; for `k = 0` the support condition is vacuous but the
/// union-of-cliques and connectivity conditions still apply.
pub fn is_k_nucleus(graph: &UncertainGraph, k: u32) -> bool {
    if graph.num_edges() == 0 {
        return false;
    }
    let (index, cliques, clique_ids) = triangles_and_cliques(graph);
    if cliques.is_empty() {
        return false;
    }

    // (1) Union of 4-cliques: every edge is covered by some 4-clique.
    let mut edge_covered = vec![false; graph.num_edges()];
    let mut support = vec![0u32; index.len()];
    let mut uf = UnionFind::new(index.len());
    for (clique, ids) in cliques.iter().zip(&clique_ids) {
        for (u, v) in clique.edges() {
            let e = graph.edge_id(u, v).expect("clique edge exists");
            edge_covered[e as usize] = true;
        }
        for &t in ids {
            support[t as usize] += 1;
        }
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    if !edge_covered.into_iter().all(|c| c) {
        return false;
    }

    // (2) Every triangle has support >= k.
    if support.iter().any(|&s| s < k) {
        return false;
    }

    // (3) All triangles are 4-clique connected.  Triangles not in any
    // 4-clique would have support 0; they are only admissible when k = 0,
    // but then they violate connectivity unless there are no other
    // triangles — which cannot happen since cliques is non-empty.
    let mut roots: Vec<u32> = (0..index.len() as u32).map(|t| uf.find(t)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len() <= 1
}

/// A relaxed form of [`is_k_nucleus`] that defines the *global*
/// indicator `1_g(G, △, k)` on possible worlds (Definition 4): every
/// triangle of `graph` must have 4-clique support ≥ k and all triangles
/// must be 4-clique-connected, but edges that lie outside every 4-clique
/// are ignored (a sampled world routinely contains a few stray certain
/// edges that Definition 3's union-of-cliques condition would reject,
/// and the paper's worked example — Figure 2 — counts such worlds).
///
/// Returns `false` for worlds without any triangle.  The exact oracle
/// `nucleus::exact::exact_global_tail` evaluates it on every world, and
/// the Monte-Carlo path of the `nucleus` crate is tested against it.
pub fn is_k_nucleus_lenient(graph: &UncertainGraph, k: u32) -> bool {
    let (index, _, clique_ids) = triangles_and_cliques(graph);
    if index.is_empty() {
        return false;
    }
    let mut support = vec![0u32; index.len()];
    let mut uf = UnionFind::new(index.len());
    for ids in &clique_ids {
        for &t in ids {
            support[t as usize] += 1;
        }
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    if support.iter().any(|&s| s < k) {
        return false;
    }
    let mut roots: Vec<u32> = (0..index.len() as u32).map(|t| uf.find(t)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn complete(n: u32) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
        b.build()
    }

    /// The maximal k-nuclei of `graph` under its deterministic
    /// nucleusness, read off the frozen reference peel.
    fn k_nuclei(graph: &UncertainGraph, k: u32) -> Vec<NucleusSubgraph> {
        let (_, cliques, ids) = triangles_and_cliques(graph);
        let scores = crate::reference::nucleusness(graph);
        extract_k_nuclei(graph, cliques.len(), |c| (cliques[c], ids[c]), &scores, k)
    }

    #[test]
    fn two_overlapping_k4s() {
        // K4 on {0,1,2,3} and K4 on {2,3,4,5} sharing edge (2,3).
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        for &(u, v) in &[(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        // Every triangle lies in exactly one K4, so nucleusness is 1.
        assert!(crate::reference::nucleusness(&g).iter().all(|&x| x == 1));
        let nuclei = k_nuclei(&g, 1);
        // The two K4s only share an edge (no shared triangle), so they are
        // two distinct 1-nuclei.
        assert_eq!(nuclei.len(), 2);
        for n in &nuclei {
            assert_eq!(n.num_vertices(), 4);
            assert_eq!(n.num_edges(), 6);
            assert_eq!(n.cliques.len(), 1);
            assert_eq!(n.triangles.len(), 4);
        }
    }

    #[test]
    fn nuclei_extraction_respects_k() {
        let g = complete(6);
        let n3 = k_nuclei(&g, 3);
        assert_eq!(n3.len(), 1);
        assert_eq!(n3[0].num_vertices(), 6);
        assert_eq!(n3[0].num_edges(), 15);
        assert!(k_nuclei(&g, 4).is_empty());
        let n1 = k_nuclei(&g, 1);
        assert_eq!(n1.len(), 1);
        assert!(n1[0].contains_triangle(&Triangle::new(0, 1, 2)));
        assert!(!n1[0].contains_triangle(&Triangle::new(0, 1, 7)));
    }

    #[test]
    fn k5_is_one_2_nucleus() {
        let nuclei = k_nuclei(&complete(5), 2);
        assert_eq!(nuclei.len(), 1);
        assert_eq!(nuclei[0].k, 2);
    }

    #[test]
    fn is_k_nucleus_on_cliques() {
        // A (k+3)-clique is a k-nucleus (Lemma 3 direction).  The k = 0
        // case is excluded: Definition 3 requires the subgraph to be a
        // union of 4-cliques, which K3 is not.
        for k in 1..5u32 {
            let g = complete(k + 3);
            assert!(is_k_nucleus(&g, k), "K{} should be a {}-nucleus", k + 3, k);
            assert!(!is_k_nucleus(&g, k + 1));
        }
        // A K4 is also a 0-nucleus under the strict definition.
        assert!(is_k_nucleus(&complete(4), 0));
    }

    #[test]
    fn is_k_nucleus_rejects_non_nuclei() {
        // Triangle has no 4-clique.
        let g = complete(3);
        assert!(!is_k_nucleus(&g, 0));
        assert!(!is_k_nucleus(&g, 1));
        // Empty graph.
        assert!(!is_k_nucleus(&UncertainGraph::empty(5), 0));
        // K4 plus a pendant edge: edge (3,4) is not covered by a 4-clique.
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        assert!(!is_k_nucleus(&g, 1));
    }

    #[test]
    fn is_k_nucleus_requires_connectivity() {
        // Two disjoint K4s: both satisfy support but are not 4-clique
        // connected, hence not a single nucleus.
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        for &(u, v) in &[(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        assert!(!is_k_nucleus(&g, 1));
    }

    #[test]
    fn lemma3_only_k_plus_3_clique_is_k_nucleus_on_k_plus_3_vertices() {
        // Operational check of Lemma 3 for k = 1: on 4 vertices, only K4 is
        // a 1-nucleus.  Enumerate all graphs on 4 labelled vertices.
        let pairs = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut nucleus_count = 0;
        for mask in 0u32..(1 << 6) {
            let mut b = GraphBuilder::with_vertices(4);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
            let g = b.build();
            if is_k_nucleus(&g, 1) {
                nucleus_count += 1;
                assert_eq!(g.num_edges(), 6, "only K4 qualifies");
            }
        }
        assert_eq!(nucleus_count, 1);
    }
}
