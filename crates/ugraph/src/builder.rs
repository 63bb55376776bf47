//! Incremental construction of [`UncertainGraph`]s.

use crate::error::GraphError;
use crate::graph::{Edge, UncertainGraph, VertexId};
use crate::Result;

/// Builds an [`UncertainGraph`] from a stream of probabilistic edges.
///
/// The builder
/// * rejects self-loops and probabilities outside `(0, 1]`,
/// * holds one entry per accepted call until [`GraphBuilder::build`],
///   which sorts them and keeps the *last* entry for each undirected
///   edge (mirroring how dataset loaders typically treat repeated
///   lines), and
/// * produces a graph whose adjacency lists are sorted and whose canonical
///   edge table is ordered lexicographically by `(min(u,v), max(u,v))`.
///
/// # Example
///
/// ```
/// use ugraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(2, 0, 0.4).unwrap();
/// b.add_edge(0, 2, 0.8).unwrap(); // duplicate: overrides the 0.4
/// b.add_edge(1, 2, 1.0).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_probability(0, 2), Some(0.8));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    /// Canonical (`u < v`) entries in call order, repeats included.
    edges: Vec<Edge>,
    /// When set, the built graph has at least this many vertices even if
    /// the trailing ones are isolated.
    min_num_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Creates a builder that will produce a graph with at least `n`
    /// vertices (vertices `0..n` exist even when isolated).
    pub fn with_vertices(n: usize) -> Self {
        GraphBuilder {
            min_num_vertices: n,
            ..GraphBuilder::default()
        }
    }

    /// Adds (or overrides) the undirected edge `{u, v}` with probability `p`.
    ///
    /// Returns an error for self-loops and for probabilities outside
    /// `(0, 1]`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if !(p > 0.0 && p <= 1.0) || p.is_nan() {
            return Err(GraphError::InvalidProbability {
                edge: (u, v),
                probability: p,
            });
        }
        self.edges.push(Edge {
            u: u.min(v),
            v: u.max(v),
            p,
        });
        Ok(())
    }

    /// Adds a deterministic edge (probability `1.0`).
    pub fn add_certain_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.add_edge(u, v, 1.0)
    }

    /// Adds every edge of an iterator, stopping at the first error.
    pub fn extend_edges<I>(&mut self, iter: I) -> Result<()>
    where
        I: IntoIterator<Item = (VertexId, VertexId, f64)>,
    {
        for (u, v, p) in iter {
            self.add_edge(u, v, p)?;
        }
        Ok(())
    }

    /// Finalizes the builder into a CSR [`UncertainGraph`].
    pub fn build(self) -> UncertainGraph {
        let mut edges = self.edges;
        // Stable, so each run of equal keys stays in call order and the
        // last entry of the run is the last call.
        edges.sort_by_key(|e| (e.u, e.v));
        edges.dedup_by(|later, kept| {
            let same = (later.u, later.v) == (kept.u, kept.v);
            if same {
                kept.p = later.p;
            }
            same
        });
        let n = edges
            .iter()
            .map(|e| e.v as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_num_vertices);
        UncertainGraph::from_sorted_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let err = b.add_edge(3, 3, 0.5).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { vertex: 3 }));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut b = GraphBuilder::new();
        assert!(b.add_edge(0, 1, 0.0).is_err());
        assert!(b.add_edge(0, 1, -0.2).is_err());
        assert!(b.add_edge(0, 1, 1.2).is_err());
        assert!(b.add_edge(0, 1, f64::NAN).is_err());
        assert!(b.add_edge(0, 1, 1.0).is_ok());
    }

    #[test]
    fn duplicate_edge_keeps_last_probability() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.3).unwrap();
        b.add_edge(1, 0, 0.9).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_probability(0, 1), Some(0.9));
    }

    #[test]
    fn interleaved_repeats_keep_the_last_call_per_edge() {
        let mut b = GraphBuilder::new();
        b.extend_edges([
            (0, 1, 0.1),
            (3, 2, 0.2),
            (1, 0, 0.3),
            (2, 3, 0.4),
            (0, 1, 0.5),
            (1, 2, 0.6),
        ])
        .unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_probability(0, 1), Some(0.5));
        assert_eq!(g.edge_probability(2, 3), Some(0.4));
        assert_eq!(g.edge_probability(1, 2), Some(0.6));
        assert_eq!(g.edges().len(), g.num_edges());
    }

    #[test]
    fn with_vertices_keeps_isolated_vertices() {
        let mut b = GraphBuilder::with_vertices(10);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = GraphBuilder::new();
        b.extend_edges([
            (5, 1, 0.5),
            (5, 4, 0.5),
            (5, 0, 0.5),
            (5, 3, 0.5),
            (5, 2, 0.5),
        ])
        .unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(5), &[0, 1, 2, 3, 4]);
        for w in 0..5u32 {
            assert_eq!(g.neighbors(w), &[5]);
        }
    }

    #[test]
    fn certain_edge_has_probability_one() {
        let mut b = GraphBuilder::new();
        b.add_certain_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.edge_probability(0, 1), Some(1.0));
    }

    #[test]
    fn edge_ids_are_dense_and_consistent() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(2, 3, 0.1), (0, 1, 0.2), (1, 2, 0.3)])
            .unwrap();
        let g = b.build();
        let mut seen = vec![false; g.num_edges()];
        for v in g.vertices() {
            for (w, p, eid) in g.neighbor_entries(v) {
                let e = g.edge(eid);
                assert_eq!((e.u, e.v), (v.min(w), v.max(w)));
                assert_eq!(e.p, p);
                seen[eid as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }
}
