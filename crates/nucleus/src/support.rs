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
//! [`SupportStructure::repair`] repairs the triangle table around the
//! net-inserted edges of an update batch ([`TriangleTable::repair`]) and
//! runs the same assembly; the 4-cliques of the updated graph are the
//! extensions of the repaired table, so no clique is carried over or
//! looked up.

use ugraph::cliques::four_clique_extensions;
use ugraph::par::{self, Parallelism};
use ugraph::rs::{Incidence, RsSupport};
use ugraph::triangles::TriangleTable;
use ugraph::{FourClique, Triangle, TriangleId, TriangleIndex, UncertainGraph};

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

    /// Repairs the structure after an edge-update batch instead of
    /// re-enumerating the whole graph.
    ///
    /// `new_graph` is the post-update graph and `inserted` the canonical
    /// `(u, v)` pairs of the net-inserted edges (as reported by
    /// [`ugraph::update::GraphDelta::inserted`]).  The surviving
    /// triangles are those whose edges all still exist; new ones contain
    /// an inserted edge, so a local enumeration around `inserted`
    /// completes the set ([`TriangleTable::repair`]).  The repaired table
    /// goes through the same assembly as a fresh build, so the result is
    /// bit-identical to `SupportStructure::build_with(new_graph, _)`.
    pub fn repair(
        &self,
        new_graph: &UncertainGraph,
        inserted: &[(u32, u32)],
        parallelism: Parallelism,
    ) -> Self {
        let table = TriangleTable::repair(self.index.triangles(), new_graph, inserted, parallelism);
        Self::assemble(table, parallelism)
    }

    /// Shared tail of [`SupportStructure::build_with`] and
    /// [`SupportStructure::repair`]: triangle probabilities, clique
    /// records and the CSR incidence, all read off the table.
    fn assemble(table: TriangleTable, parallelism: Parallelism) -> Self {
        let nt = table.len();
        let triangle_probs: Vec<f64> = par::par_map(parallelism, nt, |t| {
            let [pab, pac, pbc] = table.probs(t as TriangleId);
            pab * pbc * pac
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
                        completion_probs: [
                            pad * pbd * pcd,
                            pac * pbc * pcd,
                            pab * pbc * pbd,
                            pab * pac * pad,
                        ],
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
    /// cliques accepted by `filter` (which receives the clique index).
    pub fn completion_probs_filtered<F>(&self, t: TriangleId, filter: F) -> Vec<f64>
    where
        F: FnMut(u32) -> bool,
    {
        let mut out = Vec::new();
        self.completion_probs_into(t, filter, &mut out);
        out
    }

    /// Allocation-free variant of
    /// [`SupportStructure::completion_probs_filtered`]: clears `out` and
    /// fills it with the accepted `Pr(E_i)` in clique-id order (the same
    /// order the allocating variant returns).  The peeling engine's score
    /// recomputations run through this with a reused buffer.
    pub fn completion_probs_into<F>(&self, t: TriangleId, mut filter: F, out: &mut Vec<f64>)
    where
        F: FnMut(u32) -> bool,
    {
        out.clear();
        for &c in self.cliques_of(t) {
            if filter(c) {
                out.push(
                    self.cliques[c as usize]
                        .completion_prob(t)
                        .expect("clique listed for t contains t"),
                );
            }
        }
    }

    /// The completion probabilities `Pr(E_i)` of triangle `t` over all its
    /// cliques.
    pub fn completion_probs(&self, t: TriangleId) -> Vec<f64> {
        self.completion_probs_filtered(t, |_| true)
    }

    /// The triangles that share a 4-clique with `t` (its peeling
    /// neighbours), without duplicates.
    pub fn neighbor_triangles(&self, t: TriangleId) -> Vec<TriangleId> {
        let mut out = Vec::new();
        for &c in self.cliques_of(t) {
            for &other in &self.cliques[c as usize].triangles {
                if other != t {
                    out.push(other);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
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
            // Each neighbour list: triangles sharing a clique with t.
            // Each of the two cliques contributes 3 other triangles, and
            // the two sets are disjoint (they share only t).
            assert_eq!(s.neighbor_triangles(t).len(), 6);
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
        let mut via_trait = Vec::new();
        for t in 0..s.num_triangles() as TriangleId {
            assert_eq!(
                RsSupport::element_prob(&s, t).to_bits(),
                s.triangle_prob(t).to_bits()
            );
            assert_eq!(RsSupport::cells_of(&s, t), s.cliques_of(t));
            assert_eq!(RsSupport::support(&s, t), s.support(t));
            let first = s.cliques_of(t)[0];
            RsSupport::completion_probs_into(&s, t, |c| c != first, &mut via_trait);
            let inherent = s.completion_probs_filtered(t, |c| c != first);
            assert_eq!(via_trait.len(), inherent.len());
            for (a, b) in via_trait.iter().zip(&inherent) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
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
            for threads in [1, 2, 8] {
                let repaired = s.repair(&delta.graph, &delta.inserted, Parallelism::fixed(threads));
                assert_eq!(repaired.num_triangles(), fresh.num_triangles());
                assert_eq!(repaired.num_cliques(), fresh.num_cliques());
                for t in 0..fresh.num_triangles() as TriangleId {
                    assert_eq!(repaired.triangle(t), fresh.triangle(t));
                    assert_eq!(
                        repaired.triangle_prob(t).to_bits(),
                        fresh.triangle_prob(t).to_bits()
                    );
                    assert_eq!(repaired.cliques_of(t), fresh.cliques_of(t));
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
            }
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
        assert!(s.neighbor_triangles(0).is_empty());
        assert_eq!(s.triangle(0), Triangle::new(0, 1, 2));
    }
}
