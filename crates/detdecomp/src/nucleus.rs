//! Deterministic k-(3,4)-nucleus decomposition (Sarıyüce et al., WWW 2015).
//!
//! The *support* of a triangle is the number of 4-cliques containing it.
//! A k-(3,4)-nucleus is a maximal subgraph that is a union of 4-cliques,
//! in which every triangle has support ≥ k and every pair of triangles is
//! connected through a chain of 4-cliques (Definition 3 of the paper).
//!
//! The decomposition assigns every triangle its *nucleusness* κ(△): the
//! largest `k` such that △ belongs to a k-(3,4)-nucleus.  It is computed
//! by support peeling over triangles; since the (r,s)-nucleus API
//! redesign the peel runs on the generic deferred bucket-queue engine of
//! `ugraph::rs` at rank (3,4), with a cell-counting rescore.  The
//! pre-redesign eager heap loop is frozen in
//! [`crate::reference::nucleusness`] and the two are pinned identical by
//! the differential test suite (nucleusness values are canonical, so any
//! correct peel order yields the same output).

use ugraph::cliques::four_clique_extensions;
use ugraph::rs::{peel_deferred, Incidence, RsSupport};
use ugraph::triangles::TriangleTable;
use ugraph::{
    EdgeSubgraph, FourClique, Parallelism, Triangle, TriangleId, TriangleIndex, UncertainGraph,
    UnionFind,
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

/// Rank-(3,4) deterministic support structure: triangles are the
/// elements, enumerated 4-cliques the cells.  All probabilities are 1;
/// only the incidence accessors are exercised by the counting rescore.
struct DetNucleusSupport {
    cliques: Vec<[TriangleId; 4]>,
    cliques_of: Incidence,
}

impl RsSupport for DetNucleusSupport {
    fn num_elements(&self) -> usize {
        self.cliques_of.len()
    }

    fn num_cells(&self) -> usize {
        self.cliques.len()
    }

    fn element_prob(&self, _t: u32) -> f64 {
        1.0
    }

    fn cells_of(&self, t: u32) -> &[u32] {
        self.cliques_of.list(t)
    }

    fn cell_elements(&self, c: u32) -> &[u32] {
        &self.cliques[c as usize]
    }

    fn completion_prob(&self, _c: u32, _t: u32) -> f64 {
        1.0
    }
}

/// Result of the deterministic (3,4)-nucleus decomposition.
#[derive(Debug, Clone)]
pub struct NucleusDecomposition {
    index: TriangleIndex,
    cliques: Vec<[TriangleId; 4]>,
    clique_vertices: Vec<FourClique>,
    nucleusness: Vec<u32>,
}

impl NucleusDecomposition {
    /// Runs the decomposition on the structure of `graph`.
    pub fn compute(graph: &UncertainGraph) -> Self {
        let (index, clique_vertices, cliques) = triangles_and_cliques(graph);
        // The reverse triangle → cliques adjacency, ascending clique ids.
        let cliques_of =
            Incidence::transpose(index.len(), cliques.len(), "4-clique", |c| cliques[c]);

        // Support peeling over triangles via the generic engine.
        let support = DetNucleusSupport {
            cliques,
            cliques_of,
        };
        let kappa: Vec<u32> = (0..support.num_elements())
            .map(|t| support.support(t as u32) as u32)
            .collect();
        let (nucleusness, _stats) = peel_deferred(&support, kappa, |t, clique_dead| {
            support
                .cells_of(t)
                .iter()
                .filter(|&&c| !clique_dead[c as usize])
                .count() as u32
        });

        NucleusDecomposition {
            index,
            cliques: support.cliques,
            clique_vertices,
            nucleusness,
        }
    }

    /// The triangle index the decomposition is expressed over.
    pub fn triangle_index(&self) -> &TriangleIndex {
        &self.index
    }

    /// Nucleusness κ(△) of triangle id `t`.
    pub fn nucleusness(&self, t: TriangleId) -> u32 {
        self.nucleusness[t as usize]
    }

    /// Nucleusness of the triangle with the given vertices, or `None` if
    /// the triangle does not exist in the graph.
    pub fn nucleusness_of(&self, triangle: &Triangle) -> Option<u32> {
        self.index.id_of(triangle).map(|id| self.nucleusness(id))
    }

    /// Nucleusness of every triangle, indexed by triangle id.
    pub fn nucleusness_values(&self) -> &[u32] {
        &self.nucleusness
    }

    /// Largest nucleusness in the graph; `0` when there are no 4-cliques.
    pub fn max_nucleusness(&self) -> u32 {
        self.nucleusness.iter().copied().max().unwrap_or(0)
    }

    /// Number of triangles.
    pub fn num_triangles(&self) -> usize {
        self.index.len()
    }

    /// Number of 4-cliques.
    pub fn num_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Extracts the maximal k-(3,4)-nuclei for the given `k ≥ 1`.
    ///
    /// A nucleus is formed by the 4-cliques all of whose triangles have
    /// nucleusness ≥ k; nuclei are the connected components of those
    /// cliques under shared-triangle connectivity.
    pub fn k_nuclei(&self, graph: &UncertainGraph, k: u32) -> Vec<NucleusSubgraph> {
        let qualifying: Vec<usize> = self
            .cliques
            .iter()
            .enumerate()
            .filter_map(|(ci, tris)| tris.iter().all(|&t| self.nucleusness(t) >= k).then_some(ci))
            .collect();
        if qualifying.is_empty() {
            return Vec::new();
        }

        // Union triangles that co-occur in a qualifying 4-clique.
        let mut uf = UnionFind::new(self.index.len());
        let mut in_some_clique = vec![false; self.index.len()];
        for &ci in &qualifying {
            let tris = self.cliques[ci];
            for &t in &tris {
                in_some_clique[t as usize] = true;
            }
            for w in tris.windows(2) {
                uf.union(w[0], w[1]);
            }
        }

        // Group qualifying cliques by the component of their first triangle.
        let mut groups: std::collections::HashMap<u32, Vec<usize>> =
            std::collections::HashMap::new();
        for &ci in &qualifying {
            let root = uf.find(self.cliques[ci][0]);
            groups.entry(root).or_default().push(ci);
        }

        let mut nuclei: Vec<NucleusSubgraph> = groups
            .into_values()
            .map(|clique_ids| {
                let mut triangles: Vec<Triangle> = Vec::new();
                let mut edge_ids: Vec<ugraph::EdgeId> = Vec::new();
                let mut cliques: Vec<FourClique> = Vec::with_capacity(clique_ids.len());
                for &ci in &clique_ids {
                    let cv = self.clique_vertices[ci];
                    cliques.push(cv);
                    for t in cv.triangles() {
                        triangles.push(t);
                    }
                    for (u, v) in cv.edges() {
                        edge_ids.push(graph.edge_id(u, v).expect("clique edge exists"));
                    }
                }
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
    use ugraph::{FourCliqueEnumerator, GraphBuilder};

    fn complete(n: u32) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
        b.build()
    }

    /// Brute-force nucleusness by iterative filtering for each k.
    fn naive_nucleusness(graph: &UncertainGraph) -> Vec<u32> {
        let index = TriangleIndex::build(graph);
        let cliques = FourCliqueEnumerator::new(graph).into_cliques();
        let clique_tris: Vec<Vec<TriangleId>> = cliques
            .iter()
            .map(|c| {
                c.triangles()
                    .iter()
                    .map(|t| index.id_of(t).unwrap())
                    .collect()
            })
            .collect();
        let nt = index.len();
        let mut result = vec![0u32; nt];
        let max_k = cliques.len() as u32;
        for k in 1..=max_k {
            let mut alive = vec![true; nt];
            loop {
                let mut changed = false;
                for t in 0..nt {
                    if !alive[t] {
                        continue;
                    }
                    let sup = clique_tris
                        .iter()
                        .filter(|tris| {
                            tris.iter().all(|&x| alive[x as usize])
                                && tris.contains(&(t as TriangleId))
                        })
                        .count() as u32;
                    if sup < k {
                        alive[t] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for t in 0..nt {
                if alive[t] {
                    result[t] = k;
                }
            }
        }
        result
    }

    #[test]
    fn k4_nucleusness_is_one() {
        let g = complete(4);
        let d = NucleusDecomposition::compute(&g);
        assert_eq!(d.num_triangles(), 4);
        assert_eq!(d.num_cliques(), 1);
        assert!(d.nucleusness_values().iter().all(|&x| x == 1));
        assert_eq!(d.max_nucleusness(), 1);
    }

    #[test]
    fn k6_nucleusness_is_three() {
        // In K6 every triangle is in C(3,1)=3 4-cliques.
        let g = complete(6);
        let d = NucleusDecomposition::compute(&g);
        assert!(d.nucleusness_values().iter().all(|&x| x == 3));
    }

    #[test]
    fn triangle_without_clique_has_zero_nucleusness() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (0, 2)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        let d = NucleusDecomposition::compute(&g);
        assert_eq!(d.num_triangles(), 1);
        assert_eq!(d.max_nucleusness(), 0);
        assert_eq!(d.nucleusness_of(&Triangle::new(0, 1, 2)), Some(0));
        assert_eq!(d.nucleusness_of(&Triangle::new(0, 1, 3)), None);
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
        let d = NucleusDecomposition::compute(&g);
        // Every triangle lies in exactly one K4, so nucleusness is 1.
        assert!(d.nucleusness_values().iter().all(|&x| x == 1));
        let nuclei = d.k_nuclei(&g, 1);
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
    fn k5_minus_edge_nuclei() {
        // K5 missing edge (3,4): triangles containing both 3 and 4 vanish.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                if (u, v) != (3, 4) {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
        }
        let g = b.build();
        let d = NucleusDecomposition::compute(&g);
        let naive = naive_nucleusness(&g);
        assert_eq!(d.nucleusness_values(), naive.as_slice());
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        use rand::SeedableRng;
        for seed in [3u64, 5, 11] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let edges = ugraph::generators::gnm_edges(18, 70, &mut rng);
            let g = ugraph::generators::assign_probabilities(
                &edges,
                18,
                &ugraph::generators::ProbabilityModel::Constant(1.0),
                &mut rng,
            );
            let fast = NucleusDecomposition::compute(&g);
            let naive = naive_nucleusness(&g);
            assert_eq!(fast.nucleusness_values(), naive.as_slice(), "seed {seed}");
            assert_eq!(
                fast.nucleusness_values(),
                crate::reference::nucleusness(&g).as_slice(),
                "generic engine must match the frozen eager heap peel (seed {seed})"
            );
        }
    }

    #[test]
    fn nuclei_extraction_respects_k() {
        let g = complete(6);
        let d = NucleusDecomposition::compute(&g);
        let n3 = d.k_nuclei(&g, 3);
        assert_eq!(n3.len(), 1);
        assert_eq!(n3[0].num_vertices(), 6);
        assert_eq!(n3[0].num_edges(), 15);
        assert!(d.k_nuclei(&g, 4).is_empty());
        let n1 = d.k_nuclei(&g, 1);
        assert_eq!(n1.len(), 1);
        assert!(n1[0].contains_triangle(&Triangle::new(0, 1, 2)));
        assert!(!n1[0].contains_triangle(&Triangle::new(0, 1, 7)));
    }

    #[test]
    fn convenience_wrappers() {
        let g = complete(5);
        let d = NucleusDecomposition::compute(&g);
        assert_eq!(d.max_nucleusness(), 2);
        let nuclei = d.k_nuclei(&g, 2);
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
