//! Deterministic truss numbers: the truss-rank scores at threshold 1.0 of
//! the certain view of a graph, on hand-built graphs and against their
//! definition.

#[cfg(test)]
mod tests {
    use crate::decomp::tests::{certain, complete, deterministic, k4_plus, random_graph, uniform};
    use crate::Rank;
    use ugraph::{GraphBuilder, UncertainGraph};

    #[test]
    fn complete_graph_truss() {
        // In K5 every edge is in 3 triangles.
        let d = certain(&complete(5, 1.0), Rank::Truss);
        assert!(d.scores().iter().all(|&t| t == 3));
        assert_eq!(d.max_score(), 3);
    }

    #[test]
    fn triangle_free_graph_has_zero_truss() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        let d = certain(&b.build(), Rank::Truss);
        assert_eq!(d.scores(), &[0; 4]);
    }

    #[test]
    fn empty_graph() {
        let d = certain(&UncertainGraph::empty(4), Rank::Truss);
        assert_eq!(d.max_score(), 0);
        assert!(d.scores().is_empty());
    }

    #[test]
    fn clique_with_pendant_triangle() {
        // K4 {0,1,2,3} plus triangle {3,4,5}.
        let g = k4_plus(&[(3, 4), (4, 5), (3, 5)]);
        let d = certain(&g, Rank::Truss);
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert_eq!(d.score(g.edge_id(u, v).unwrap()), 2, "edge ({u},{v})");
        }
        for &(u, v) in &[(3, 4), (4, 5), (3, 5)] {
            assert_eq!(d.score(g.edge_id(u, v).unwrap()), 1, "edge ({u},{v})");
        }
        assert_eq!(d.k_subgraphs(&g, 2)[0].num_edges(), 6);
        assert_eq!(d.k_subgraphs(&g, 1)[0].num_edges(), 9);
    }

    #[test]
    fn matches_naive_on_random_graph() {
        // The certain view ignores the edge probabilities.
        let g = random_graph(23, 30, 120, uniform(0.2));
        let d = certain(&g, Rank::Truss);
        assert_eq!(d.scores(), deterministic(&g, Rank::Truss).as_slice());
    }
}
