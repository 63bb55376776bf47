//! The (2,3) support structure: edges scored by their triangles.
//!
//! This is the substrate of the local probabilistic (k,γ)-truss (Huang,
//! Lu, Lakshmanan, "Truss decomposition of probabilistic graphs"); on a
//! graph whose edges all have p = 1 its scores are the deterministic
//! truss numbers.  An edge's completion events are the wedge closures of
//! its triangles: given edge `{u, v}`, triangle `{u, v, w}` materializes
//! with probability `p(u,w) · p(v,w)`, and the γ-support is the largest
//! `k` with `p(u,v) · Pr[at least k triangles close] ≥ γ`.
//!
//! The structure is assembled from the edge-ordered
//! [`TriangleTable`]: a triangle's cell members are
//! the table's three edge ids, its wedge-closure probabilities are
//! products of the table's three edge probabilities, and the per-edge
//! cell lists are the CSR transpose ([`Incidence`]) of the member
//! arrays.  Nothing is looked up in the graph.
//!
//! A repair ([`TrussSupport::repair`]) patches the old structure around
//! the touched edges of an update batch instead: the triangles on a
//! removed edge are dropped, every survivor keeps its row with its edge
//! ids remapped (and its products recomputed only when it holds a
//! re-weighted edge), the triangles around the inserted edges are merged
//! in, and the cell lists are transposed again.

use crate::graph::{Edge, UncertainGraph};
use crate::par::Parallelism;
use crate::triangles::{Triangle, TriangleTable};
use crate::update::GraphDelta;

use super::{Incidence, RsSupport, SupportPatch};

/// Support structure of the (2,3) rank: elements are edges, cells are
/// triangles.
///
/// Cell ids are the [`crate::triangles::TriangleIndex`] ids, which are
/// lexicographic on the sorted vertex triple — so for a fixed edge
/// `{u, v}` the cell list is ordered by ascending third vertex `w`,
/// exactly the `common_neighbors(u, v)` order.  DP scores are therefore
/// bit-identical to the γ-support gathered from the graph in that order.
#[derive(Debug, Clone)]
pub struct TrussSupport {
    /// Existence probability of every edge.
    element_probs: Vec<f64>,
    /// Triangle ids of every edge, in ascending id (= ascending third
    /// vertex) order.
    cells_of: Incidence,
    /// Member edge ids of every triangle `{a, b, c}` (`a < b < c`), as
    /// `[{a,b}, {a,c}, {b,c}]`.
    cell_elements: Vec<[u32; 3]>,
    /// Wedge-closure probability per triangle slot: entry `i` is the
    /// probability that the two *other* edges of the triangle exist,
    /// conditioning on member edge `i`.
    completion: Vec<[f64; 3]>,
}

/// The wedge-closure products of a triangle with edge probabilities
/// `[p(a,b), p(a,c), p(b,c)]`: slot `i` conditions on member edge `i`,
/// the two other edges close the wedge.
fn wedge_closures([pab, pac, pbc]: [f64; 3]) -> [f64; 3] {
    [pac * pbc, pab * pbc, pab * pac]
}

impl TrussSupport {
    /// Builds the (2,3) support of `graph` with the graph's edge
    /// probabilities.  The triangle pass and the per-triangle
    /// probability work run under `parallelism`.
    pub fn build(graph: &UncertainGraph, parallelism: Parallelism) -> Self {
        let (_, cell_elements, probs) = TriangleTable::build(graph, parallelism).into_parts();
        let completion =
            crate::par::par_map(parallelism, probs.len(), |t| wedge_closures(probs[t]));
        drop(probs);
        Self::from_cells(graph, cell_elements, completion)
    }

    /// Repairs the support after an edge-update batch: `old_graph` is the
    /// graph this support was built from and `delta` the batch's
    /// [`GraphDelta`] against it.  The old structure is patched around
    /// the touched edges ([`GraphDelta::touched_edges`]):
    ///
    /// * the triangles on a removed edge (its old cell list) are dropped;
    /// * every surviving triangle keeps its row, its member edge ids
    ///   mapped through `delta.old_to_new`, and its wedge-closure
    ///   products — recomputed, as a build computes them, when it holds
    ///   a re-weighted edge;
    /// * the triangles around the inserted edges are merged in.  Triangle
    ///   order is the lexicographic order of the member edge ids, which
    ///   both kinds of row carry, so the merge needs no vertex triple;
    /// * the per-edge cell lists are transposed again.
    ///
    /// The result is bit-identical to a [`TrussSupport::build`] on
    /// `delta.graph`.  Its element map is `delta.new_to_old`, and its
    /// candidates are the inserted and re-weighted edges plus the
    /// surviving members of every dropped, added or re-weighted triangle.
    pub fn repair(&self, old_graph: &UncertainGraph, delta: &GraphDelta) -> SupportPatch<Self> {
        let graph = &delta.graph;
        let touched = delta.touched_edges(old_graph);
        let new_id = |e: u32| delta.old_to_new[e as usize];

        // Old triangles on a removed edge die; the others on a
        // re-weighted edge keep their row but not their products.
        let (mut dead, mut reweighted) =
            (vec![false; self.num_cells()], vec![false; self.num_cells()]);
        for &e in &touched.removed {
            for &c in self.cells_of.list(e) {
                dead[c as usize] = true;
            }
        }
        for &e in &touched.reweighted {
            for &c in self.cells_of.list(e) {
                reweighted[c as usize] = true;
            }
        }

        // Every new triangle holds an inserted edge; one holding two is
        // found twice.
        let probability = |e: u32| graph.edge(e).p;
        let id = |x, y| graph.edge_id(x, y).expect("a triangle's edges exist");
        let mut added: Vec<[u32; 3]> = Vec::new();
        for &e in &touched.inserted {
            let Edge { u, v, .. } = *graph.edge(e);
            for w in graph.common_neighbors(u, v) {
                let [a, b, c] = Triangle::new(u, v, w).vertices();
                added.push([id(a, b), id(a, c), id(b, c)]);
            }
        }
        added.sort_unstable();
        added.dedup();

        let mut candidates: Vec<u32> = touched.inserted.clone();
        candidates.extend(touched.reweighted.iter().filter_map(|&e| new_id(e)));
        let capacity = self.num_cells() + added.len();
        let mut cell_elements = Vec::with_capacity(capacity);
        let mut completion = Vec::with_capacity(capacity);
        let mut added = added.into_iter().peekable();
        for (c, old_members) in self.cell_elements.iter().enumerate() {
            if dead[c] {
                candidates.extend(old_members.iter().filter_map(|&e| new_id(e)));
                continue;
            }
            let members = old_members.map(|e| new_id(e).expect("a live triangle's edges survive"));
            while let Some(fresh) = added.next_if(|fresh| *fresh < members) {
                candidates.extend(fresh);
                cell_elements.push(fresh);
                completion.push(wedge_closures(fresh.map(probability)));
            }
            cell_elements.push(members);
            completion.push(if reweighted[c] {
                candidates.extend(members);
                wedge_closures(members.map(probability))
            } else {
                self.completion[c]
            });
        }
        for fresh in added {
            candidates.extend(fresh);
            cell_elements.push(fresh);
            completion.push(wedge_closures(fresh.map(probability)));
        }
        candidates.sort_unstable();
        candidates.dedup();

        SupportPatch {
            support: Self::from_cells(graph, cell_elements, completion),
            new_to_old: delta.new_to_old.clone(),
            candidates,
        }
    }

    /// The structure over `graph` from its triangle rows in id order —
    /// shared by the fresh build and the repair.  Ascending triangle id
    /// per edge is ascending third vertex, because triangle ids are
    /// lexicographic on the triple.
    fn from_cells(
        graph: &UncertainGraph,
        cell_elements: Vec<[u32; 3]>,
        completion: Vec<[f64; 3]>,
    ) -> Self {
        let cells_of =
            Incidence::transpose(graph.num_edges(), cell_elements.len(), "triangle", |t| {
                cell_elements[t]
            });
        let element_probs = graph.edges().iter().map(|e| e.p).collect();
        TrussSupport {
            element_probs,
            cells_of,
            cell_elements,
            completion,
        }
    }

    /// Index of member edge `t` within cell `c`, or `None` when `t` is
    /// not an edge of the triangle.
    fn slot_of(&self, c: u32, t: u32) -> Option<usize> {
        self.cell_elements[c as usize].iter().position(|&e| e == t)
    }
}

impl RsSupport for TrussSupport {
    fn num_elements(&self) -> usize {
        self.element_probs.len()
    }

    fn num_cells(&self) -> usize {
        self.cell_elements.len()
    }

    fn element_prob(&self, t: u32) -> f64 {
        self.element_probs[t as usize]
    }

    fn cells_of(&self, t: u32) -> &[u32] {
        self.cells_of.list(t)
    }

    fn cell_elements(&self, c: u32) -> &[u32] {
        &self.cell_elements[c as usize]
    }

    fn completion_prob(&self, c: u32, t: u32) -> f64 {
        let slot = self
            .slot_of(c, t)
            .expect("completion_prob: edge is not a member of the triangle");
        self.completion[c as usize][slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Two triangles sharing the edge {1, 2}: {0,1,2} and {1,2,3}.
    fn bowtie() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(1, 2, 0.7).unwrap();
        b.add_edge(1, 3, 0.6).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn shared_edge_sees_both_triangles_in_ascending_w_order() {
        let g = bowtie();
        let s = TrussSupport::build(&g, Parallelism::Sequential);
        assert_eq!(s.num_elements(), 5);
        assert_eq!(s.num_cells(), 2);
        let e12 = g.edge_id(1, 2).unwrap();
        let cells = s.cells_of(e12);
        assert_eq!(cells.len(), 2);
        // Reference gather order for edge {1,2}: common neighbours
        // ascending, w = 0 then w = 3.
        let mut probs = Vec::new();
        s.completion_probs_into(e12, |_| true, &mut probs);
        assert_eq!(probs, vec![0.9 * 0.8, 0.6 * 0.5]);
        assert_eq!(s.element_prob(e12), 0.7);
    }

    #[test]
    fn completion_matches_wedge_products_for_every_member() {
        let g = bowtie();
        let s = TrussSupport::build(&g, Parallelism::Sequential);
        // Triangle {0,1,2}: conditioning on {0,1} leaves {0,2},{1,2}.
        let e01 = g.edge_id(0, 1).unwrap();
        let e02 = g.edge_id(0, 2).unwrap();
        let e12 = g.edge_id(1, 2).unwrap();
        let t = s.cells_of(e01)[0];
        assert_eq!(s.cell_elements(t), &[e01, e02, e12]);
        assert_eq!(s.completion_prob(t, e01), 0.8 * 0.7);
        assert_eq!(s.completion_prob(t, e02), 0.9 * 0.7);
        assert_eq!(s.completion_prob(t, e12), 0.9 * 0.8);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = bowtie();
        let seq = TrussSupport::build(&g, Parallelism::Sequential);
        let par = TrussSupport::build(&g, Parallelism::fixed(4));
        assert_eq!(seq.element_probs, par.element_probs);
        assert_eq!(seq.cells_of, par.cells_of);
        assert_eq!(seq.cell_elements, par.cell_elements);
        assert_eq!(seq.completion, par.completion);
    }

    #[test]
    fn repair_is_bit_identical_to_a_fresh_build() {
        use crate::update::{apply_edge_updates, EdgeUpdate};
        let g = bowtie();
        let s = TrussSupport::build(&g, Parallelism::Sequential);
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            vec![EdgeUpdate::Insert { u: 0, v: 3, p: 0.4 }],
            vec![EdgeUpdate::Delete { u: 1, v: 2 }],
            vec![
                EdgeUpdate::Reweight { u: 0, v: 1, p: 0.2 },
                EdgeUpdate::Insert { u: 0, v: 3, p: 0.4 },
                EdgeUpdate::Delete { u: 2, v: 3 },
            ],
        ];
        for (i, batch) in batches.iter().enumerate() {
            let delta = apply_edge_updates(&g, batch).unwrap();
            let patch = s.repair(&g, &delta);
            assert_eq!(patch.new_to_old, delta.new_to_old);
            if i == 0 {
                // {0,3} closes (0,1,3) and (0,2,3): every edge but {1,2}
                // is a member of an added triangle.
                let id = |u, v| delta.graph.edge_id(u, v).unwrap();
                let mut expected = vec![id(0, 1), id(0, 2), id(0, 3), id(1, 3), id(2, 3)];
                expected.sort_unstable();
                assert_eq!(patch.candidates, expected);
            }
            let repaired = patch.support;
            let fresh = TrussSupport::build(&delta.graph, Parallelism::Sequential);
            assert_eq!(repaired.cells_of, fresh.cells_of);
            assert_eq!(repaired.cell_elements, fresh.cell_elements);
            let bits = |v: &Vec<f64>| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&repaired.element_probs), bits(&fresh.element_probs));
            for (a, b) in repaired.completion.iter().zip(&fresh.completion) {
                for i in 0..3 {
                    assert_eq!(a[i].to_bits(), b[i].to_bits());
                }
            }
        }
    }
}
