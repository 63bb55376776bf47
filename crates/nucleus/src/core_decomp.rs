//! Deterministic core numbers: the core-rank scores at threshold 1.0 of
//! the certain view of a graph, on hand-built graphs and against their
//! definition.

#[cfg(test)]
mod tests {
    use crate::decomp::tests::{certain, complete, deterministic, k4_plus, random_graph, uniform};
    use crate::Rank;
    use ugraph::{GraphBuilder, UncertainGraph};

    #[test]
    fn empty_graph() {
        let d = certain(&UncertainGraph::empty(0), Rank::Core);
        assert_eq!(d.max_score(), 0);
        assert!(d.scores().is_empty());
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let d = certain(&UncertainGraph::empty(3), Rank::Core);
        assert_eq!(d.scores(), &[0, 0, 0]);
    }

    #[test]
    fn complete_graph_core_numbers() {
        let d = certain(&complete(5, 1.0), Rank::Core);
        assert!(d.scores().iter().all(|&c| c == 4));
        assert_eq!(d.max_score(), 4);
    }

    #[test]
    fn path_graph_core_numbers() {
        let mut b = GraphBuilder::new();
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let d = certain(&b.build(), Rank::Core);
        assert_eq!(d.scores(), &[1; 5]);
    }

    #[test]
    fn clique_with_tail() {
        // K4 on {0,1,2,3} plus path 3-4-5.
        let g = k4_plus(&[(3, 4), (4, 5)]);
        let d = certain(&g, Rank::Core);
        assert_eq!(d.scores(), &[3, 3, 3, 3, 1, 1]);
        let three_core = d.k_subgraphs(&g, 3);
        assert_eq!(three_core.len(), 1);
        assert_eq!(three_core[0].original_vertices(), &[0, 1, 2, 3]);
        assert_eq!(d.k_subgraphs(&g, 1)[0].num_vertices(), 6);
    }

    #[test]
    fn matches_naive_on_random_graph() {
        // The certain view ignores the edge probabilities.
        let g = random_graph(17, 40, 150, uniform(0.2));
        let d = certain(&g, Rank::Core);
        assert_eq!(d.scores(), deterministic(&g, Rank::Core).as_slice());
    }
}
