//! The (1,2) support structure: vertices scored by their incident edges.
//!
//! This is the substrate of the probabilistic (k,η)-core (Bonchi et al.,
//! "Core decomposition of uncertain graphs"); on a graph whose edges all
//! have p = 1 its scores are the deterministic core numbers.  A vertex's
//! completion events are its incident edges, the vertex itself always
//! exists (`element_prob = 1`), and the η-degree is the largest `k` with
//! `Pr[at least k incident edges exist] ≥ η`.

use crate::graph::UncertainGraph;
use crate::update::GraphDelta;

use super::{RsSupport, SupportPatch};

/// Support structure of the (1,2) rank: elements are vertices, cells are
/// edges.
///
/// The per-vertex cell lists follow adjacency order (sorted by neighbour
/// id) and the per-cell probability is the canonical edge-table
/// probability — the same float, in the same order, as a
/// `neighbor_entries` gather of the vertex's incident edges, so DP scores
/// are bit-identical to the η-degree computed from the graph.
#[derive(Debug, Clone)]
pub struct CoreSupport {
    /// Incident edge ids of every vertex, flattened; slice `v` is
    /// `cells[offsets[v]..offsets[v + 1]]`, in adjacency order.
    cells: Vec<u32>,
    offsets: Vec<usize>,
    /// Endpoints of every edge (canonical `u < v`).
    cell_elements: Vec<[u32; 2]>,
    /// Existence probability of every edge.
    cell_probs: Vec<f64>,
}

impl CoreSupport {
    /// Builds the (1,2) support of `graph` with the graph's edge
    /// probabilities.
    pub fn build(graph: &UncertainGraph) -> Self {
        let nv = graph.num_vertices();
        let mut cells = Vec::with_capacity(2 * graph.num_edges());
        let mut offsets = Vec::with_capacity(nv + 1);
        offsets.push(0);
        for v in graph.vertices() {
            for (_, _, e) in graph.neighbor_entries(v) {
                cells.push(e);
            }
            offsets.push(cells.len());
        }
        let cell_elements = graph.edges().iter().map(|e| [e.u, e.v]).collect();
        let cell_probs = graph.edges().iter().map(|e| e.p).collect();
        CoreSupport {
            cells,
            offsets,
            cell_elements,
            cell_probs,
        }
    }

    /// The support of `delta.graph`, the graph `old_graph` became under an
    /// update batch.  The support is a plain scan of the edge table, so
    /// it is rebuilt.  Elements are vertices and the vertex set is fixed,
    /// so the element map is the identity; a vertex's gather can change
    /// only when one of its edges was touched, so the candidates are the
    /// endpoints of the touched edges.
    pub fn repair(old_graph: &UncertainGraph, delta: &GraphDelta) -> SupportPatch<Self> {
        let touched = delta.touched_edges(old_graph);
        let old_edges = touched
            .removed
            .iter()
            .chain(&touched.reweighted)
            .map(|&e| old_graph.edge(e));
        let new_edges = touched.inserted.iter().map(|&e| delta.graph.edge(e));
        let mut candidates: Vec<u32> = old_edges
            .chain(new_edges)
            .flat_map(|e| [e.u, e.v])
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let support = CoreSupport::build(&delta.graph);
        let new_to_old = (0..support.num_elements() as u32).map(Some).collect();
        SupportPatch {
            support,
            new_to_old,
            candidates,
        }
    }
}

impl RsSupport for CoreSupport {
    fn num_elements(&self) -> usize {
        self.offsets.len() - 1
    }

    fn num_cells(&self) -> usize {
        self.cell_elements.len()
    }

    fn element_prob(&self, _t: u32) -> f64 {
        // A vertex exists unconditionally; only its edges are uncertain.
        1.0
    }

    fn cells_of(&self, t: u32) -> &[u32] {
        let t = t as usize;
        &self.cells[self.offsets[t]..self.offsets[t + 1]]
    }

    fn cell_elements(&self, c: u32) -> &[u32] {
        &self.cell_elements[c as usize]
    }

    fn completion_prob(&self, c: u32, _t: u32) -> f64 {
        // Given the vertex, the cell materializes iff the edge exists.
        self.cell_probs[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.25).unwrap();
        b.build()
    }

    #[test]
    fn cells_follow_adjacency_order_with_edge_probs() {
        let g = path_graph();
        let s = CoreSupport::build(&g);
        assert_eq!(s.num_elements(), 4);
        assert_eq!(s.num_cells(), 3);
        // Vertex 1's incident edges in adjacency (neighbour-sorted)
        // order: {0,1} then {1,2}.
        let cells = s.cells_of(1);
        assert_eq!(cells.len(), 2);
        assert_eq!(s.cell_elements(cells[0]), &[0, 1]);
        assert_eq!(s.cell_elements(cells[1]), &[1, 2]);
        let mut probs = Vec::new();
        s.completion_probs_into(1, |_| true, &mut probs);
        assert_eq!(probs, vec![0.9, 0.5]);
        assert_eq!(s.element_prob(1), 1.0);
        assert_eq!(s.support(1), 2);
        assert_eq!(s.support(3), 1);
    }

    #[test]
    fn gather_matches_neighbor_entries_bitwise() {
        let g = path_graph();
        let s = CoreSupport::build(&g);
        let mut probs = Vec::new();
        for v in g.vertices() {
            s.completion_probs_into(v, |_| true, &mut probs);
            let reference: Vec<f64> = g.neighbor_entries(v).map(|(_, p, _)| p).collect();
            assert_eq!(probs, reference, "vertex {v}");
        }
    }

    #[test]
    fn filter_drops_dead_cells_in_order() {
        let g = path_graph();
        let s = CoreSupport::build(&g);
        let dead = s.cells_of(1)[0];
        let mut probs = Vec::new();
        s.completion_probs_into(1, |c| c != dead, &mut probs);
        assert_eq!(probs, vec![0.5]);
    }
}
