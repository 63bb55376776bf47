//! Per-triangle 4-clique support structure.
//!
//! Section 5.1 of the paper expresses the probabilistic support of a
//! triangle `△ = (u, v, w)` through the independent Bernoulli variables
//! `E_i`: for every common neighbour `z_i` of the triangle's vertices,
//! `E_i = 1` when the three edges `(u, z_i)`, `(v, z_i)`, `(w, z_i)` all
//! exist, which happens with probability
//! `Pr(E_i) = p(u, z_i) · p(v, z_i) · p(w, z_i)`.  The `E_i` of one
//! triangle are mutually independent because the edge sets are disjoint.
//!
//! [`SupportStructure`] precomputes, for every triangle, the list of
//! 4-cliques containing it together with the corresponding `Pr(E_i)`, plus
//! the triangle's own existence probability `Pr(△)` — everything the DP,
//! the statistical approximations and the peeling loop need.
//!
//! # Build
//!
//! Everything comes out of one edge-ordered triangle pass
//! ([`TriangleTable`]), which lists every triangle in id order with its
//! three edge ids and edge probabilities and gives each edge its run of
//! triangle ids.  The 4-cliques are the extensions of that table
//! ([`four_clique_extensions`]): triangle `(a, b, c)` extends to
//! `(a, b, c, d)` for every `d > c` found by a three-way merge of three
//! runs, which also names the triangles `(a, b, d)`, `(a, c, d)` and
//! `(b, c, d)`.  The six edge probabilities of the clique sit in the
//! table rows of `(a, b, c)`, `(a, b, d)` and `(a, c, d)`, so each
//! [`CliqueRecord`] is filled with no lookup and cliques come out in
//! lexicographic order with no sort.  With `p(x, y)` the value
//! [`UncertainGraph::edge_probability`] returns, the products are:
//!
//! * `Pr(△(a,b,c)) = p(a,b) · p(b,c) · p(a,c)`;
//! * the completion probabilities of `(a, b, c, d)`, in slot order
//!   `[abc, abd, acd, bcd]`: `p(a,d)·p(b,d)·p(c,d)`,
//!   `p(a,c)·p(b,c)·p(c,d)`, `p(a,b)·p(b,c)·p(b,d)` and
//!   `p(a,b)·p(a,c)·p(a,d)` — each the triangle's three vertices joined
//!   to the completing vertex, multiplied left to right.
//!
//! The triangle → cliques incidence ([`SupportStructure::cliques_of`])
//! is stored in CSR form ([`Incidence`]), ascending clique ids per
//! triangle.  The per-triangle edge ids and probabilities are dropped
//! before the build returns.
//!
//! # Repair
//!
//! [`SupportStructure::repair`] patches the old structure around the
//! touched edges of an update batch instead of re-enumerating the graph:
//!
//! * the old triangles on a removed edge die, and those on a re-weighted
//!   edge keep their place but not their probability — both found
//!   through the old common neighbours of the touched edge;
//! * the survivors are merged with the triangles around the inserted
//!   edges, in lexicographic order; the merge yields the new → old
//!   triangle map;
//! * every 4-clique whose four triangles survive is kept, with its
//!   triangle ids remapped and its completion probabilities recomputed
//!   only when it holds a re-weighted triangle;
//! * the cliques around the inserted edges (an inserted edge plus two
//!   adjacent common neighbours of it) are merged in, in clique order;
//! * the incidence is transposed again.
//!
//! Every recomputed probability is the product a build forms (the ones
//! listed under *Build*), through the same helpers and in the same
//! order, so the result is bit-identical to a fresh build.

use ugraph::cliques::four_clique_extensions;
use ugraph::par::{self, Parallelism};
use ugraph::rs::{Incidence, RsSupport, SupportPatch};
use ugraph::triangles::TriangleTable;
use ugraph::update::{GraphDelta, TouchedEdges};
use ugraph::{Edge, EdgeId, FourClique, Triangle, TriangleId, TriangleIndex, UncertainGraph};

/// One 4-clique, expressed through the dense ids of its four triangles and
/// the completion probability `Pr(E_i)` associated with each of them.
#[derive(Debug, Clone)]
pub struct CliqueRecord {
    /// The 4-clique in original vertex ids.
    pub clique: FourClique,
    /// Dense ids of the clique's four triangles (aligned with
    /// [`FourClique::triangles`]).
    pub triangles: [TriangleId; 4],
    /// `completion_probs[i]` is `Pr(E)` for `triangles[i]`: the probability
    /// that the three edges connecting the remaining vertex to that
    /// triangle all exist.
    pub completion_probs: [f64; 4],
}

impl CliqueRecord {
    /// Position of triangle `t` inside this clique (0..4).
    pub fn slot_of(&self, t: TriangleId) -> Option<usize> {
        self.triangles.iter().position(|&x| x == t)
    }

    /// `Pr(E_i)` for triangle `t`, or `None` when `t` is not a triangle of
    /// this clique.
    pub fn completion_prob(&self, t: TriangleId) -> Option<f64> {
        self.slot_of(t).map(|i| self.completion_probs[i])
    }
}

/// The support structure of a probabilistic graph: triangles, 4-cliques,
/// and the per-triangle completion probabilities.
#[derive(Debug, Clone)]
pub struct SupportStructure {
    index: TriangleIndex,
    triangle_probs: Vec<f64>,
    cliques: Vec<CliqueRecord>,
    cliques_of: Incidence,
}

impl SupportStructure {
    /// Builds the support structure of `graph`.
    pub fn build(graph: &UncertainGraph) -> Self {
        Self::build_with(graph, Parallelism::Sequential)
    }

    /// [`SupportStructure::build`] with an explicit [`Parallelism`]
    /// setting.
    ///
    /// The triangle pass (over edges), the triangle probabilities and the
    /// 4-clique extension (over triangles) all run as chunked parallel
    /// scans; chunk results are merged in index order, so the structure
    /// is bit-identical to the sequential build for every thread count.
    pub fn build_with(graph: &UncertainGraph, parallelism: Parallelism) -> Self {
        Self::assemble(TriangleTable::build(graph, parallelism), parallelism)
    }

    /// Repairs the structure after an edge-update batch by patching it
    /// (see the module docs): `old_graph` is the graph this structure was
    /// built from and `delta` the batch's [`GraphDelta`] against it.
    ///
    /// The result is bit-identical to `SupportStructure::build(&delta.graph)`.
    /// Its element map comes out of the triangle merge, and its
    /// candidates are the added and re-weighted triangles plus the
    /// surviving triangles of every dead, added or re-weighted 4-clique.
    pub fn repair(&self, old_graph: &UncertainGraph, delta: &GraphDelta) -> SupportPatch<Self> {
        let graph = &delta.graph;
        let touched = delta.touched_edges(old_graph);
        let fate = self.fates(old_graph, &touched);
        let (added_triangles, added_cliques) = around_inserted(graph, &touched.inserted);

        // Survivors and added triangles are disjoint sorted runs: the merge
        // is the new id order.
        let mut candidates: Vec<u32> = Vec::new();
        let capacity = self.num_triangles() + added_triangles.len();
        let (mut triangles, mut triangle_probs) =
            (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        let mut new_to_old = Vec::with_capacity(capacity);
        let mut old_to_new: Vec<Option<TriangleId>> = vec![None; self.num_triangles()];
        // Appends a triangle; one with no kept probability is a candidate.
        let mut push = |t: Triangle, old: Option<TriangleId>, kept: Option<f64>| {
            let id = triangles.len() as TriangleId;
            triangle_probs.push(kept.unwrap_or_else(|| {
                candidates.push(id);
                let [a, b, c] = t.vertices();
                let p = |x, y| probability(graph, x, y);
                triangle_prob(p(a, b), p(a, c), p(b, c))
            }));
            triangles.push(t);
            new_to_old.push(old);
            id
        };
        let mut added = added_triangles.into_iter().peekable();
        for (t, &old) in self.index.triangles().iter().enumerate() {
            if fate[t] == Fate::Dead {
                continue;
            }
            while let Some(fresh) = added.next_if(|fresh| *fresh < old) {
                push(fresh, None, None);
            }
            let kept = (fate[t] == Fate::Kept).then(|| self.triangle_probs[t]);
            old_to_new[t] = Some(push(old, Some(t as TriangleId), kept));
        }
        for fresh in added {
            push(fresh, None, None);
        }
        let index =
            TriangleIndex::from_sorted(triangles).expect("triangle count exceeds the u32 id space");

        // The same merge over 4-cliques, in clique order.  A clique dies
        // with any of its triangles.
        let record = |clique: FourClique| CliqueRecord {
            clique,
            triangles: clique
                .triangles()
                .map(|t| index.id_of(&t).expect("a 4-clique's triangles exist")),
            completion_probs: clique_completion(graph, clique),
        };
        let mut cliques = Vec::with_capacity(self.num_cliques() + added_cliques.len());
        let mut added = added_cliques.into_iter().map(record).peekable();
        for old in &self.cliques {
            let mapped = old.triangles.map(|t| old_to_new[t as usize]);
            if mapped.contains(&None) {
                candidates.extend(mapped.into_iter().flatten());
                continue;
            }
            while let Some(fresh) = added.next_if(|fresh| fresh.clique < old.clique) {
                candidates.extend(fresh.triangles);
                cliques.push(fresh);
            }
            let triangles = mapped.map(|t| t.expect("checked above"));
            let reweighted = old
                .triangles
                .iter()
                .any(|&t| fate[t as usize] == Fate::Reweighted);
            let completion_probs = if reweighted {
                candidates.extend(triangles);
                clique_completion(graph, old.clique)
            } else {
                old.completion_probs
            };
            cliques.push(CliqueRecord {
                clique: old.clique,
                triangles,
                completion_probs,
            });
        }
        for fresh in added {
            candidates.extend(fresh.triangles);
            cliques.push(fresh);
        }
        candidates.sort_unstable();
        candidates.dedup();

        let cliques_of = Incidence::transpose(index.len(), cliques.len(), "4-clique", |c| {
            cliques[c].triangles
        });
        SupportPatch {
            support: SupportStructure {
                index,
                triangle_probs,
                cliques,
                cliques_of,
            },
            new_to_old,
            candidates,
        }
    }

    /// What the batch did to every old triangle, found through the old
    /// common neighbours of each removed or re-weighted edge: a triangle
    /// on a removed edge dies, one on a re-weighted edge only keeps its
    /// place.
    fn fates(&self, old_graph: &UncertainGraph, touched: &TouchedEdges) -> Vec<Fate> {
        let mut fate = vec![Fate::Kept; self.num_triangles()];
        // Removed edges last: death overrides a re-weight.
        for (edges, mark) in [
            (&touched.reweighted, Fate::Reweighted),
            (&touched.removed, Fate::Dead),
        ] {
            for &e in edges {
                let Edge { u, v, .. } = *old_graph.edge(e);
                for w in old_graph.common_neighbors(u, v) {
                    let t = self
                        .index
                        .id_of(&Triangle::new(u, v, w))
                        .expect("every old triangle is indexed");
                    fate[t as usize] = mark;
                }
            }
        }
        fate
    }

    /// Triangle probabilities, clique records and the CSR incidence, all
    /// read off the table.
    fn assemble(table: TriangleTable, parallelism: Parallelism) -> Self {
        let nt = table.len();
        let triangle_probs: Vec<f64> = par::par_map(parallelism, nt, |t| {
            let [pab, pac, pbc] = table.probs(t as TriangleId);
            triangle_prob(pab, pac, pbc)
        });

        let cliques: Vec<CliqueRecord> = par::par_extend(parallelism, nt, |range, out| {
            for t in range {
                let t = t as TriangleId;
                let [a, b, c] = table.triangle(t).vertices();
                let [pab, pac, pbc] = table.probs(t);
                four_clique_extensions(&table, t, |d, [abd, acd, bcd]| {
                    let [_, pad, pbd] = table.probs(abd);
                    let pcd = table.probs(acd)[2];
                    out.push(CliqueRecord {
                        clique: FourClique::new(a, b, c, d),
                        triangles: [t, abd, acd, bcd],
                        completion_probs: completion_probs([pab, pac, pad, pbc, pbd, pcd]),
                    });
                });
            }
        });

        // Ascending clique ids per triangle, exactly the clique-id order
        // the records were emitted in.
        let cliques_of =
            Incidence::transpose(nt, cliques.len(), "4-clique", |c| cliques[c].triangles);
        let (index, _, _) = table.into_parts();

        SupportStructure {
            index,
            triangle_probs,
            cliques,
            cliques_of,
        }
    }

    /// The triangle index the structure is expressed over.
    pub fn triangle_index(&self) -> &TriangleIndex {
        &self.index
    }

    /// Number of triangles.
    pub fn num_triangles(&self) -> usize {
        self.index.len()
    }

    /// Number of 4-cliques.
    pub fn num_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// The triangle with dense id `t`.
    pub fn triangle(&self, t: TriangleId) -> Triangle {
        self.index.triangle(t)
    }

    /// Existence probability `Pr(△)` of triangle `t`.
    pub fn triangle_prob(&self, t: TriangleId) -> f64 {
        self.triangle_probs[t as usize]
    }

    /// The clique record with index `c`.
    pub fn clique(&self, c: u32) -> &CliqueRecord {
        &self.cliques[c as usize]
    }

    /// All clique records.
    pub fn cliques(&self) -> &[CliqueRecord] {
        &self.cliques
    }

    /// Indices of the cliques containing triangle `t` (the deterministic
    /// support of `t` is the length of this slice).
    pub fn cliques_of(&self, t: TriangleId) -> &[u32] {
        self.cliques_of.list(t)
    }

    /// Deterministic support `c_△` of triangle `t` (number of 4-cliques
    /// containing it).
    pub fn support(&self, t: TriangleId) -> usize {
        self.cliques_of(t).len()
    }

    /// The completion probabilities `Pr(E_i)` of triangle `t` over the
    /// cliques accepted by `filter` (which receives the clique index), in
    /// clique-id order: an allocating
    /// [`RsSupport::completion_probs_into`].
    pub fn completion_probs_filtered<F>(&self, t: TriangleId, filter: F) -> Vec<f64>
    where
        F: FnMut(u32) -> bool,
    {
        let mut out = Vec::new();
        self.completion_probs_into(t, filter, &mut out);
        out
    }

    /// The completion probabilities `Pr(E_i)` of triangle `t` over all its
    /// cliques.
    pub fn completion_probs(&self, t: TriangleId) -> Vec<f64> {
        self.completion_probs_filtered(t, |_| true)
    }
}

/// What a batch did to an old triangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// All three edges survive with their probabilities.
    Kept,
    /// All three edges survive, one with a new probability.
    Reweighted,
    /// An edge was removed.
    Dead,
}

/// The triangles and 4-cliques of `graph` that hold one of the
/// `inserted` edges, each sorted and distinct: an inserted edge `(u, v)`
/// closes a triangle with every common neighbour of `u` and `v`, and a
/// 4-clique with every adjacent pair of them.  A triangle or clique that
/// holds two inserted edges is found twice.
fn around_inserted(
    graph: &UncertainGraph,
    inserted: &[EdgeId],
) -> (Vec<Triangle>, Vec<FourClique>) {
    let (mut triangles, mut cliques) = (Vec::new(), Vec::new());
    for &e in inserted {
        let Edge { u, v, .. } = *graph.edge(e);
        let common = graph.common_neighbors(u, v);
        for (i, &w) in common.iter().enumerate() {
            triangles.push(Triangle::new(u, v, w));
            for &x in &common[i + 1..] {
                if graph.has_edge(w, x) {
                    cliques.push(FourClique::new(u, v, w, x));
                }
            }
        }
    }
    triangles.sort_unstable();
    triangles.dedup();
    cliques.sort_unstable();
    cliques.dedup();
    (triangles, cliques)
}

/// `Pr(△(a,b,c))` from `p(a,b)`, `p(a,c)` and `p(b,c)`.
fn triangle_prob(pab: f64, pac: f64, pbc: f64) -> f64 {
    pab * pbc * pac
}

/// The completion probabilities of the 4-clique `(a, b, c, d)` from its
/// six edge probabilities `[p(a,b), p(a,c), p(a,d), p(b,c), p(b,d),
/// p(c,d)]`, in slot order `[abc, abd, acd, bcd]`: each triangle's three
/// vertices joined to the completing vertex, multiplied left to right.
fn completion_probs([pab, pac, pad, pbc, pbd, pcd]: [f64; 6]) -> [f64; 4] {
    [
        pad * pbd * pcd,
        pac * pbc * pcd,
        pab * pbc * pbd,
        pab * pac * pad,
    ]
}

/// The probability of the edge `{x, y}` of `graph`, which must exist.
fn probability(graph: &UncertainGraph, x: u32, y: u32) -> f64 {
    graph
        .edge_probability(x, y)
        .expect("a triangle's edges exist")
}

/// [`completion_probs`] of `clique` with its edge probabilities looked
/// up in `graph`.
fn clique_completion(graph: &UncertainGraph, clique: FourClique) -> [f64; 4] {
    completion_probs(clique.edges().map(|(x, y)| probability(graph, x, y)))
}

/// The (3,4) instance of the generic engine: elements are triangles,
/// cells are 4-cliques.
///
/// The inherent accessors stay the primary API within this crate; the
/// trait view is what lets the shared `ugraph::rs` peeling engine drive a
/// nucleus decomposition.  Both go through the same fields, so scores are
/// identical whichever path gathers them.
impl RsSupport for SupportStructure {
    fn num_elements(&self) -> usize {
        self.num_triangles()
    }

    fn num_cells(&self) -> usize {
        self.num_cliques()
    }

    fn element_prob(&self, t: u32) -> f64 {
        self.triangle_prob(t)
    }

    fn cells_of(&self, t: u32) -> &[u32] {
        self.cliques_of(t)
    }

    fn cell_elements(&self, c: u32) -> &[u32] {
        &self.cliques[c as usize].triangles
    }

    fn completion_prob(&self, c: u32, t: u32) -> f64 {
        self.cliques[c as usize]
            .completion_prob(t)
            .expect("clique listed for t contains t")
    }
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

    fn k5(p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn k4_support_structure() {
        let g = k4(0.5);
        let s = SupportStructure::build(&g);
        assert_eq!(s.num_triangles(), 4);
        assert_eq!(s.num_cliques(), 1);
        for t in 0..4u32 {
            assert_eq!(s.support(t), 1);
            assert!((s.triangle_prob(t) - 0.125).abs() < 1e-12);
            let probs = s.completion_probs(t);
            assert_eq!(probs.len(), 1);
            assert!((probs[0] - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn k5_support_counts() {
        let g = k5(0.9);
        let s = SupportStructure::build(&g);
        assert_eq!(s.num_triangles(), 10);
        assert_eq!(s.num_cliques(), 5);
        for t in 0..10u32 {
            // In K5, each triangle is in 2 of the 5 4-cliques.
            assert_eq!(s.support(t), 2);
            assert_eq!(s.completion_probs(t).len(), 2);
        }
    }

    #[test]
    fn completion_probability_values() {
        // K4 with distinct edge probabilities; verify Pr(E_i) of triangle
        // (0,1,2) with completing vertex 3 is p03*p13*p23.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(1, 2, 0.7).unwrap();
        b.add_edge(0, 3, 0.6).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(2, 3, 0.4).unwrap();
        let g = b.build();
        let s = SupportStructure::build(&g);
        let t = s.triangle_index().id_of(&Triangle::new(0, 1, 2)).unwrap();
        let probs = s.completion_probs(t);
        assert_eq!(probs.len(), 1);
        assert!((probs[0] - 0.6 * 0.5 * 0.4).abs() < 1e-12);
        assert!((s.triangle_prob(t) - 0.9 * 0.8 * 0.7).abs() < 1e-12);

        // For the triangle (0,1,3) the completing vertex is 2.
        let t2 = s.triangle_index().id_of(&Triangle::new(0, 1, 3)).unwrap();
        let probs2 = s.completion_probs(t2);
        assert!((probs2[0] - 0.8 * 0.7 * 0.4).abs() < 1e-12);
    }

    #[test]
    fn clique_record_slots() {
        let g = k4(0.5);
        let s = SupportStructure::build(&g);
        let record = s.clique(0);
        for &t in &record.triangles {
            assert!(record.slot_of(t).is_some());
            assert!(record.completion_prob(t).is_some());
        }
        assert_eq!(record.slot_of(99), None);
        assert_eq!(record.completion_prob(99), None);
    }

    #[test]
    fn filtered_completion_probs() {
        let g = k5(0.5);
        let s = SupportStructure::build(&g);
        let t = 0u32;
        let all = s.completion_probs(t);
        assert_eq!(all.len(), 2);
        let first_clique = s.cliques_of(t)[0];
        let filtered = s.completion_probs_filtered(t, |c| c != first_clique);
        assert_eq!(filtered.len(), 1);
        let none = s.completion_probs_filtered(t, |_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn probs_into_matches_allocating_variant_and_clears_buffer() {
        let g = k5(0.7);
        let s = SupportStructure::build(&g);
        let mut buf = vec![99.0; 8]; // stale contents must be discarded
        for t in 0..s.num_triangles() as TriangleId {
            let first = s.cliques_of(t)[0];
            for keep_first in [true, false] {
                let expected = s.completion_probs_filtered(t, |c| keep_first || c != first);
                s.completion_probs_into(t, |c| keep_first || c != first, &mut buf);
                assert_eq!(buf.len(), expected.len());
                for (a, b) in buf.iter().zip(&expected) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let g = k5(0.7);
        let sequential = SupportStructure::build(&g);
        for threads in [1, 2, 8] {
            let par = SupportStructure::build_with(&g, Parallelism::fixed(threads));
            assert_eq!(par.num_triangles(), sequential.num_triangles());
            assert_eq!(par.num_cliques(), sequential.num_cliques());
            for t in 0..sequential.num_triangles() as TriangleId {
                assert_eq!(par.triangle(t), sequential.triangle(t));
                assert_eq!(
                    par.triangle_prob(t).to_bits(),
                    sequential.triangle_prob(t).to_bits()
                );
                assert_eq!(par.cliques_of(t), sequential.cliques_of(t));
            }
            for c in 0..sequential.num_cliques() as u32 {
                let (a, b) = (par.clique(c), sequential.clique(c));
                assert_eq!(a.clique, b.clique);
                assert_eq!(a.triangles, b.triangles);
                for slot in 0..4 {
                    assert_eq!(
                        a.completion_probs[slot].to_bits(),
                        b.completion_probs[slot].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn trait_view_matches_inherent_accessors_bitwise() {
        let g = k5(0.7);
        let s = SupportStructure::build(&g);
        assert_eq!(RsSupport::num_elements(&s), s.num_triangles());
        assert_eq!(RsSupport::num_cells(&s), s.num_cliques());
        for t in 0..s.num_triangles() as TriangleId {
            assert_eq!(
                RsSupport::element_prob(&s, t).to_bits(),
                s.triangle_prob(t).to_bits()
            );
            assert_eq!(RsSupport::cells_of(&s, t), s.cliques_of(t));
            assert_eq!(RsSupport::support(&s, t), s.support(t));
        }
        for c in 0..s.num_cliques() as u32 {
            assert_eq!(RsSupport::cell_elements(&s, c), &s.clique(c).triangles);
        }
    }

    #[test]
    fn repair_is_bit_identical_to_a_fresh_build() {
        use ugraph::{apply_edge_updates, EdgeUpdate};
        // Two K4s sharing vertex 3, plus a pendant edge.
        let mut b = GraphBuilder::new();
        for &(u, v, p) in &[
            (0, 1, 0.9),
            (0, 2, 0.8),
            (0, 3, 0.7),
            (1, 2, 0.6),
            (1, 3, 0.5),
            (2, 3, 0.4),
            (3, 4, 0.9),
            (3, 5, 0.8),
            (4, 5, 0.7),
            (4, 6, 0.6),
            (5, 6, 0.5),
            (0, 7, 0.9),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build();
        let s = SupportStructure::build(&g);

        let batches: Vec<Vec<EdgeUpdate>> = vec![
            // Inserts completing a new 4-clique (3,4,5,6) and a clique on
            // the first K4's fringe.
            vec![
                EdgeUpdate::Insert {
                    u: 3,
                    v: 6,
                    p: 0.45,
                },
                EdgeUpdate::Insert {
                    u: 1,
                    v: 7,
                    p: 0.35,
                },
                EdgeUpdate::Insert {
                    u: 0,
                    v: 4,
                    p: 0.25,
                },
            ],
            // Deletes destroying cliques/triangles.
            vec![
                EdgeUpdate::Delete { u: 2, v: 3 },
                EdgeUpdate::Delete { u: 4, v: 5 },
            ],
            // Mixed batch with netting (insert then delete the same edge).
            vec![
                EdgeUpdate::Insert {
                    u: 2,
                    v: 4,
                    p: 0.55,
                },
                EdgeUpdate::Reweight {
                    u: 0,
                    v: 1,
                    p: 0.15,
                },
                EdgeUpdate::Insert {
                    u: 6,
                    v: 7,
                    p: 0.65,
                },
                EdgeUpdate::Delete { u: 6, v: 7 },
            ],
        ];

        for batch in batches {
            let delta = apply_edge_updates(&g, &batch).unwrap();
            let fresh = SupportStructure::build(&delta.graph);
            let patch = s.repair(&g, &delta);
            let repaired = &patch.support;
            assert_eq!(repaired.num_triangles(), fresh.num_triangles());
            assert_eq!(repaired.num_cliques(), fresh.num_cliques());
            for t in 0..fresh.num_triangles() as TriangleId {
                assert_eq!(repaired.triangle(t), fresh.triangle(t));
                assert_eq!(
                    repaired.triangle_prob(t).to_bits(),
                    fresh.triangle_prob(t).to_bits()
                );
                assert_eq!(repaired.cliques_of(t), fresh.cliques_of(t));
                // The element map follows the vertex triples.
                let old = patch.new_to_old[t as usize];
                assert_eq!(old, s.triangle_index().id_of(&fresh.triangle(t)));
            }
            for c in 0..fresh.num_cliques() as u32 {
                let (a, b) = (repaired.clique(c), fresh.clique(c));
                assert_eq!(a.clique, b.clique);
                assert_eq!(a.triangles, b.triangles);
                for slot in 0..4 {
                    assert_eq!(
                        a.completion_probs[slot].to_bits(),
                        b.completion_probs[slot].to_bits()
                    );
                }
            }
            assert!(patch.candidates.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn triangle_without_cliques() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        let g = b.build();
        let s = SupportStructure::build(&g);
        assert_eq!(s.num_triangles(), 1);
        assert_eq!(s.num_cliques(), 0);
        assert_eq!(s.support(0), 0);
        assert!(s.completion_probs(0).is_empty());
        assert_eq!(s.triangle(0), Triangle::new(0, 1, 2));
    }
}
