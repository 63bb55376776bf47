//! 4-clique (and general k-clique) enumeration.
//!
//! 4-cliques are the `s = 4` cliques of the (3,4)-nucleus: the support of a
//! triangle is the number of 4-cliques containing it, and each 4-clique
//! contains exactly four triangles.
//!
//! 4-cliques are enumerated as **extensions of the triangle table**
//! ([`TriangleTable`]) rather than from the graph.  The 4-clique
//! `(a, b, c, z)` with `a < b < c < z` is reported once, from its smallest
//! triangle `(a, b, c)`: `z` completes it iff the three triangles
//! `(a, b, z)`, `(a, c, z)` and `(b, c, z)` exist, i.e. iff `z` is the
//! third vertex in each of three runs of the table — the run of edge
//! `(a, b)` after the triangle itself, the run of `(a, c)` and the run of
//! `(b, c)`.  All three runs ascend in their third vertex, so one
//! three-way merge ([`four_clique_extensions`]) yields every `z`,
//! ascending, together with the ids of the three other triangles; their
//! table rows carry the remaining three edge probabilities.  Visiting
//! triangles in id order therefore emits cliques in lexicographic order
//! with no sort, and a support build fills its clique records without a
//! single id or probability lookup.
//!
//! General k-clique enumeration ([`enumerate_k_cliques`]) is a slow
//! recursive reference kept for validation and small graphs.

use crate::graph::{UncertainGraph, VertexId};
use crate::par::{self, Parallelism};
use crate::triangles::{Triangle, TriangleId, TriangleTable};

/// A 4-clique, stored with its vertices sorted increasingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourClique {
    vertices: [VertexId; 4],
}

impl FourClique {
    /// Creates a 4-clique from four distinct vertices (any order).
    ///
    /// # Panics
    ///
    /// Panics when the vertices are not pairwise distinct.
    pub fn new(a: VertexId, b: VertexId, c: VertexId, d: VertexId) -> Self {
        let mut vertices = [a, b, c, d];
        vertices.sort_unstable();
        assert!(
            vertices.windows(2).all(|w| w[0] != w[1]),
            "4-clique vertices must be distinct"
        );
        FourClique { vertices }
    }

    /// The sorted vertex quadruple.
    pub fn vertices(&self) -> [VertexId; 4] {
        self.vertices
    }

    /// `true` when `v` is a vertex of this clique.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// `true` when the triangle `t` is one of the four triangles of this
    /// clique.
    pub fn contains_triangle(&self, t: &Triangle) -> bool {
        t.vertices().iter().all(|v| self.contains(*v))
    }

    /// The six edges of the clique as canonical pairs.
    pub fn edges(&self) -> [(VertexId, VertexId); 6] {
        let [a, b, c, d] = self.vertices;
        [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    }

    /// The four triangles of the clique.
    pub fn triangles(&self) -> [Triangle; 4] {
        let [a, b, c, d] = self.vertices;
        [
            Triangle::new(a, b, c),
            Triangle::new(a, b, d),
            Triangle::new(a, c, d),
            Triangle::new(b, c, d),
        ]
    }

    /// Existence probability of the clique in a sampled possible world
    /// (product of its six edge probabilities); `None` when an edge is
    /// missing from `graph`.
    pub fn probability(&self, graph: &UncertainGraph) -> Option<f64> {
        let mut p = 1.0;
        for (u, v) in self.edges() {
            p *= graph.edge_probability(u, v)?;
        }
        Some(p)
    }
}

impl std::fmt::Display for FourClique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.vertices;
        write!(f, "({a}, {b}, {c}, {d})")
    }
}

/// Calls `emit(z, [abz, acz, bcz])` for every vertex `z > c` completing
/// triangle `t = (a, b, c)` of `table` to the 4-clique `(a, b, c, z)`,
/// ascending in `z`, where `abz`, `acz` and `bcz` are the ids of the
/// triangles `(a, b, z)`, `(a, c, z)` and `(b, c, z)`.
///
/// The three-way merge of the runs described in the module docs; it
/// allocates nothing.
pub fn four_clique_extensions<F>(table: &TriangleTable, t: TriangleId, mut emit: F)
where
    F: FnMut(VertexId, [TriangleId; 3]),
{
    let [eab, eac, ebc] = table.edge_ids(t);
    let triangles = table.triangles();
    let third = |x: usize| triangles[x].vertices()[2];
    let (mut i, ab_end) = (t as usize + 1, table.run(eab).end);
    let (ac, bc) = (table.run(eac), table.run(ebc));
    let (mut j, mut k) = (ac.start, bc.start);
    while i < ab_end && j < ac.end && k < bc.end {
        let (x, y, z) = (third(i), third(j), third(k));
        if x == y && y == z {
            emit(x, [i as TriangleId, j as TriangleId, k as TriangleId]);
            i += 1;
            j += 1;
            k += 1;
        } else {
            let top = x.max(y).max(z);
            i += usize::from(x < top);
            j += usize::from(y < top);
            k += usize::from(z < top);
        }
    }
}

/// Enumerator of all 4-cliques of a graph.
///
/// Cliques are the extensions of the graph's [`TriangleTable`]
/// (see the module docs): each 4-clique is reported exactly once, from
/// its lexicographically smallest triangle, and the list comes out sorted.
#[derive(Debug, Clone)]
pub struct FourCliqueEnumerator {
    cliques: Vec<FourClique>,
}

impl FourCliqueEnumerator {
    /// Enumerates all 4-cliques of `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        Self::with_parallelism(graph, Parallelism::Sequential)
    }

    /// [`FourCliqueEnumerator::new`] with an explicit [`Parallelism`]
    /// setting.  The triangle pass scans edges and the extension pass
    /// scans triangles in parallel chunks merged in order, so the clique
    /// list is identical to the sequential one for every thread count.
    pub fn with_parallelism(graph: &UncertainGraph, parallelism: Parallelism) -> Self {
        let table = TriangleTable::build(graph, parallelism);
        let cliques = par::par_extend(parallelism, table.len(), |range, out| {
            for t in range {
                let [a, b, c] = table.triangles()[t].vertices();
                four_clique_extensions(&table, t as TriangleId, |z, _| {
                    out.push(FourClique {
                        vertices: [a, b, c, z],
                    });
                });
            }
        });
        FourCliqueEnumerator { cliques }
    }

    /// Number of 4-cliques found.
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// `true` when the graph has no 4-cliques.
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// All 4-cliques, sorted lexicographically.
    pub fn cliques(&self) -> &[FourClique] {
        &self.cliques
    }

    /// Consumes the enumerator, returning the clique list.
    pub fn into_cliques(self) -> Vec<FourClique> {
        self.cliques
    }
}

/// Counts all 4-cliques of `graph` without materializing them (same
/// extension traversal as [`FourCliqueEnumerator`]).
pub fn count_four_cliques(graph: &UncertainGraph) -> usize {
    count_four_cliques_with(graph, Parallelism::Sequential)
}

/// [`count_four_cliques`] with an explicit [`Parallelism`] setting.
pub fn count_four_cliques_with(graph: &UncertainGraph, parallelism: Parallelism) -> usize {
    let table = TriangleTable::build(graph, parallelism);
    par::par_count(parallelism, table.len(), |range| {
        let mut count = 0usize;
        for t in range {
            four_clique_extensions(&table, t as TriangleId, |_, _| count += 1);
        }
        count
    })
}

/// Enumerates the k-cliques of `graph` for `k ≥ 1` by recursive pivot-free
/// expansion over sorted candidate sets.  Intended for validation and small
/// graphs only; the production paths use the specialized triangle and
/// 4-clique enumerators.
pub fn enumerate_k_cliques(graph: &UncertainGraph, k: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    if k == 0 {
        return out;
    }
    let mut current = Vec::with_capacity(k);
    let all: Vec<VertexId> = graph.vertices().collect();
    extend_clique(graph, k, &all, &mut current, &mut out);
    out
}

fn extend_clique(
    graph: &UncertainGraph,
    k: usize,
    candidates: &[VertexId],
    current: &mut Vec<VertexId>,
    out: &mut Vec<Vec<VertexId>>,
) {
    if current.len() == k {
        out.push(current.clone());
        return;
    }
    for (i, &v) in candidates.iter().enumerate() {
        // Prune when not enough candidates remain.
        if candidates.len() - i < k - current.len() {
            break;
        }
        let next: Vec<VertexId> = candidates[i + 1..]
            .iter()
            .copied()
            .filter(|&w| graph.has_edge(v, w))
            .collect();
        current.push(v);
        extend_clique(graph, k, &next, current, out);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn complete_graph(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let mut r = 1usize;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn four_clique_requires_distinct_vertices() {
        let _ = FourClique::new(0, 1, 2, 2);
    }

    #[test]
    fn four_clique_accessors() {
        let c = FourClique::new(7, 2, 5, 3);
        assert_eq!(c.vertices(), [2, 3, 5, 7]);
        assert!(c.contains(5));
        assert!(!c.contains(4));
        assert_eq!(c.edges().len(), 6);
        assert_eq!(c.triangles().len(), 4);
        assert!(c.contains_triangle(&Triangle::new(2, 3, 5)));
        assert!(!c.contains_triangle(&Triangle::new(2, 3, 9)));
        assert_eq!(c.to_string(), "(2, 3, 5, 7)");
    }

    #[test]
    fn clique_probability() {
        let g = complete_graph(4, 0.5);
        let c = FourClique::new(0, 1, 2, 3);
        assert!((c.probability(&g).unwrap() - 0.5f64.powi(6)).abs() < 1e-12);
        let g2 = complete_graph(3, 0.5);
        assert_eq!(c.probability(&g2), None);
    }

    #[test]
    fn enumerate_counts_match_binomial_on_complete_graphs() {
        for n in 4..8u32 {
            let g = complete_graph(n, 0.9);
            let enumerator = FourCliqueEnumerator::new(&g);
            assert_eq!(enumerator.len(), binomial(n as usize, 4));
            assert_eq!(count_four_cliques(&g), binomial(n as usize, 4));
        }
    }

    #[test]
    fn enumerate_matches_naive_k_clique_enumeration() {
        // Small random-ish sparse graph built by hand.
        let mut b = GraphBuilder::new();
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (4, 5),
            (1, 4),
            (0, 5),
            (2, 5),
        ];
        for &(u, v) in &edges {
            b.add_edge(u, v, 0.8).unwrap();
        }
        let g = b.build();
        let fast: Vec<Vec<VertexId>> = FourCliqueEnumerator::new(&g)
            .cliques()
            .iter()
            .map(|c| c.vertices().to_vec())
            .collect();
        let mut naive = enumerate_k_cliques(&g, 4);
        naive.sort();
        assert_eq!(fast, naive);
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        let g = complete_graph(9, 0.8);
        let sequential = FourCliqueEnumerator::new(&g);
        for threads in [1, 2, 8] {
            let par = FourCliqueEnumerator::with_parallelism(&g, Parallelism::fixed(threads));
            assert_eq!(par.cliques(), sequential.cliques(), "threads = {threads}");
            assert_eq!(
                count_four_cliques_with(&g, Parallelism::fixed(threads)),
                sequential.len()
            );
        }
    }

    #[test]
    fn extensions_name_the_three_other_triangles() {
        let g = complete_graph(6, 0.8);
        let table = TriangleTable::build(&g, Parallelism::Sequential);
        let mut seen = Vec::new();
        for t in 0..table.len() as TriangleId {
            let [a, b, c] = table.triangle(t).vertices();
            four_clique_extensions(&table, t, |z, [abz, acz, bcz]| {
                assert_eq!(table.triangle(abz), Triangle::new(a, b, z));
                assert_eq!(table.triangle(acz), Triangle::new(a, c, z));
                assert_eq!(table.triangle(bcz), Triangle::new(b, c, z));
                seen.push(FourClique::new(a, b, c, z));
            });
        }
        assert_eq!(seen, FourCliqueEnumerator::new(&g).into_cliques());
        assert_eq!(seen.len(), binomial(6, 4));
    }

    #[test]
    fn no_four_cliques_in_sparse_graph() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (2, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let g = b.build();
        let e = FourCliqueEnumerator::new(&g);
        assert!(e.is_empty());
        assert_eq!(count_four_cliques(&g), 0);
    }

    #[test]
    fn k_clique_enumeration_edge_cases() {
        let g = complete_graph(5, 1.0);
        assert_eq!(enumerate_k_cliques(&g, 0).len(), 0);
        assert_eq!(enumerate_k_cliques(&g, 1).len(), 5);
        assert_eq!(enumerate_k_cliques(&g, 2).len(), 10);
        assert_eq!(enumerate_k_cliques(&g, 5).len(), 1);
        assert_eq!(enumerate_k_cliques(&g, 6).len(), 0);
    }

    #[test]
    fn into_cliques_returns_all() {
        let g = complete_graph(5, 1.0);
        let e = FourCliqueEnumerator::new(&g);
        let n = e.len();
        let cliques = e.into_cliques();
        assert_eq!(cliques.len(), n);
        assert_eq!(n, 5);
    }
}
