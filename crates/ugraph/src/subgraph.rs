//! Induced subgraphs with vertex-id remapping.
//!
//! Decompositions report maximal subgraphs (nuclei, trusses, cores) as sets
//! of vertices or edges of the original graph.  [`EdgeSubgraph`]
//! materializes such a set as a standalone [`UncertainGraph`] with densely
//! renumbered vertices while remembering the mapping back to the original
//! ids, so that quality metrics can run on the compact graph and results
//! can still be reported in the original id space.

use crate::graph::{Edge, EdgeId, UncertainGraph, VertexId};

/// A materialized subgraph of a parent [`UncertainGraph`] together with
/// the mapping from its dense vertex ids back to the parent's ids.
///
/// Dense ids follow the parent's order, so the parent's canonical edge
/// order carries over and both constructors hand their edges, already
/// sorted, straight to the CSR constructor.
#[derive(Debug, Clone)]
pub struct EdgeSubgraph {
    graph: UncertainGraph,
    /// `original_ids[new]` is the parent-graph id of subgraph vertex `new`.
    original_ids: Vec<VertexId>,
}

/// Dense id of parent vertex `old` within the sorted `vertices`.
fn dense(vertices: &[VertexId], old: VertexId) -> Option<VertexId> {
    vertices.binary_search(&old).ok().map(|i| i as VertexId)
}

impl EdgeSubgraph {
    /// Subgraph induced by a set of *vertices* of `parent`: all parent
    /// edges with both endpoints in `vertices` are kept.
    pub fn induced_by_vertices(parent: &UncertainGraph, vertices: &[VertexId]) -> Self {
        let mut sorted: Vec<VertexId> = vertices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut edges = Vec::new();
        for (new_u, &old_u) in sorted.iter().enumerate() {
            for (old_v, p, _) in parent.neighbor_entries(old_u) {
                if old_u < old_v {
                    if let Some(new_v) = dense(&sorted, old_v) {
                        edges.push(Edge {
                            u: new_u as VertexId,
                            v: new_v,
                            p,
                        });
                    }
                }
            }
        }
        EdgeSubgraph {
            graph: UncertainGraph::from_sorted_edges(sorted.len(), edges),
            original_ids: sorted,
        }
    }

    /// Subgraph induced by a set of *edges* of `parent`: exactly the given
    /// edges are kept, and the vertex set is the set of their endpoints.
    pub fn induced_by_edges(parent: &UncertainGraph, edges: &[EdgeId]) -> Self {
        let mut unique_edges: Vec<EdgeId> = edges.to_vec();
        unique_edges.sort_unstable();
        unique_edges.dedup();
        let mut vertex_set: Vec<VertexId> = Vec::with_capacity(2 * unique_edges.len());
        for &e in &unique_edges {
            let edge = parent.edge(e);
            vertex_set.push(edge.u);
            vertex_set.push(edge.v);
        }
        vertex_set.sort_unstable();
        vertex_set.dedup();
        let table = unique_edges
            .iter()
            .map(|&e| {
                let edge = parent.edge(e);
                let id = |old| dense(&vertex_set, old).expect("endpoint of a kept edge");
                Edge {
                    u: id(edge.u),
                    v: id(edge.v),
                    p: edge.p,
                }
            })
            .collect();
        EdgeSubgraph {
            graph: UncertainGraph::from_sorted_edges(vertex_set.len(), table),
            original_ids: vertex_set,
        }
    }

    /// The materialized subgraph (dense vertex ids `0..len`).
    pub fn graph(&self) -> &UncertainGraph {
        &self.graph
    }

    /// Consumes the view, returning the materialized subgraph.
    pub fn into_graph(self) -> UncertainGraph {
        self.graph
    }

    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges in the subgraph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Parent-graph id of subgraph vertex `new`.
    pub fn original_vertex(&self, new: VertexId) -> VertexId {
        self.original_ids[new as usize]
    }

    /// Parent-graph ids of all subgraph vertices, in dense-id order.
    pub fn original_vertices(&self) -> &[VertexId] {
        &self.original_ids
    }

    /// Subgraph id of parent vertex `old`, if present.
    pub fn local_vertex(&self, old: VertexId) -> Option<VertexId> {
        dense(&self.original_ids, old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_graph() -> UncertainGraph {
        // Two triangles sharing vertex 2, plus a pendant edge.
        let mut b = GraphBuilder::new();
        for &(u, v, p) in &[
            (0u32, 1u32, 0.9),
            (1, 2, 0.8),
            (0, 2, 0.7),
            (2, 3, 0.6),
            (3, 4, 0.5),
            (2, 4, 0.4),
            (4, 5, 0.3),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        b.build()
    }

    #[test]
    fn induced_by_vertices_keeps_internal_edges() {
        let g = sample_graph();
        let sub = EdgeSubgraph::induced_by_vertices(&g, &[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.original_vertices(), &[0, 1, 2]);
        // Probabilities carried over.
        let a = sub.local_vertex(0).unwrap();
        let b_ = sub.local_vertex(1).unwrap();
        assert_eq!(sub.graph().edge_probability(a, b_), Some(0.9));
    }

    #[test]
    fn induced_by_vertices_handles_duplicates_and_order() {
        let g = sample_graph();
        let sub = EdgeSubgraph::induced_by_vertices(&g, &[4, 2, 3, 2, 4]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.original_vertices(), &[2, 3, 4]);
    }

    #[test]
    fn induced_by_vertices_excludes_external_edges() {
        let g = sample_graph();
        let sub = EdgeSubgraph::induced_by_vertices(&g, &[0, 1, 5]);
        assert_eq!(sub.num_edges(), 1); // only (0,1); 5 connects outside the set
        assert_eq!(sub.original_vertex(2), 5);
        assert_eq!(sub.graph().degree(sub.local_vertex(5).unwrap()), 0);
    }

    #[test]
    fn induced_by_edges_keeps_exactly_those_edges() {
        let g = sample_graph();
        let e01 = g.edge_id(0, 1).unwrap();
        let e23 = g.edge_id(2, 3).unwrap();
        let sub = EdgeSubgraph::induced_by_edges(&g, &[e01, e23, e01]);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.original_vertices(), &[0, 1, 2, 3]);
        // Edge (0,2) exists in the parent between included vertices but was
        // not part of the edge set, so it must be absent.
        let l0 = sub.local_vertex(0).unwrap();
        let l2 = sub.local_vertex(2).unwrap();
        assert!(!sub.graph().has_edge(l0, l2));
    }

    #[test]
    fn local_vertex_lookup() {
        let g = sample_graph();
        let sub = EdgeSubgraph::induced_by_vertices(&g, &[1, 3, 5]);
        assert_eq!(sub.local_vertex(3), Some(1));
        assert_eq!(sub.local_vertex(0), None);
        assert_eq!(sub.original_vertex(2), 5);
    }

    #[test]
    fn empty_inductions() {
        let g = sample_graph();
        let sub = EdgeSubgraph::induced_by_vertices(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.num_edges(), 0);
        let sub2 = EdgeSubgraph::induced_by_edges(&g, &[]);
        assert_eq!(sub2.num_vertices(), 0);
        let g2 = sub2.into_graph();
        assert_eq!(g2.num_edges(), 0);
    }
}
