//! Deterministic (3,4)-nucleusness: the nucleus-rank scores at threshold
//! 1.0 of the certain view of a graph, on hand-built graphs and against
//! brute force and the frozen eager heap peel.

#[cfg(test)]
mod tests {
    use crate::decomp::tests::{certain, complete, naive_nucleusness, random_graph, uniform};
    use crate::Rank;
    use ugraph::{GraphBuilder, Triangle};

    #[test]
    fn k4_nucleusness_is_one() {
        let d = certain(&complete(4, 1.0), Rank::Nucleus);
        assert_eq!(d.num_elements(), 4);
        assert_eq!(d.nucleus_support().unwrap().num_cliques(), 1);
        assert!(d.scores().iter().all(|&x| x == 1));
        assert_eq!(d.max_score(), 1);
    }

    #[test]
    fn k6_nucleusness_is_three() {
        // In K6 every triangle is in C(3,1)=3 4-cliques.
        let d = certain(&complete(6, 1.0), Rank::Nucleus);
        assert!(d.scores().iter().all(|&x| x == 3));
    }

    #[test]
    fn triangle_without_clique_has_zero_nucleusness() {
        let d = certain(&complete(3, 1.0), Rank::Nucleus);
        assert_eq!(d.num_elements(), 1);
        assert_eq!(d.max_score(), 0);
        let index = d.nucleus_support().unwrap().triangle_index();
        let nucleusness_of = |t: &Triangle| index.id_of(t).map(|id| d.score(id));
        assert_eq!(nucleusness_of(&Triangle::new(0, 1, 2)), Some(0));
        assert_eq!(nucleusness_of(&Triangle::new(0, 1, 3)), None);
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
        let d = certain(&g, Rank::Nucleus);
        assert_eq!(d.scores(), naive_nucleusness(&g).as_slice());
        // The two K4s share the triangle {0,1,2}: one 1-nucleus.
        assert_eq!(d.scores(), &[1; 7]);
        let nuclei = d.k_nuclei(&g, 1).unwrap();
        assert_eq!(nuclei.len(), 1);
        assert_eq!(nuclei[0].num_vertices(), 5);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        // The certain view ignores the edge probabilities.
        for seed in [3u64, 5, 11] {
            let g = random_graph(seed, 18, 70, uniform(0.2));
            let d = certain(&g, Rank::Nucleus);
            assert_eq!(d.scores(), naive_nucleusness(&g).as_slice(), "seed {seed}");
            assert_eq!(
                d.scores(),
                detdecomp::reference::nucleusness(&g).as_slice(),
                "the certain view must match the frozen eager heap peel (seed {seed})"
            );
        }
    }
}
