//! Deterministic k-(3,4)-nuclei: nucleusness as the nucleus-rank scores
//! at threshold 1.0 of the certain view of a graph, on hand-built graphs
//! and against its definition; the k-nuclei extracted from it; and the
//! whole-graph check [`crate::exact::is_k_nucleus_lenient`].

#[cfg(test)]
mod tests {
    use crate::decomp::tests::{certain, complete, deterministic, random_graph, uniform};
    use crate::exact::is_k_nucleus_lenient;
    use crate::{NucleusSubgraph, Rank};
    use ugraph::{GraphBuilder, Triangle, UncertainGraph};

    /// The maximal k-nuclei of a certain graph `g` under its deterministic
    /// nucleusness.
    fn k_nuclei(g: &UncertainGraph, k: u32) -> Vec<NucleusSubgraph> {
        certain(g, Rank::Nucleus).k_nuclei(g, k).unwrap()
    }

    /// Every edge of every K4 on the vertices `base..base + 4`, at p = 1.
    fn add_k4(b: &mut GraphBuilder, base: u32) {
        for u in base..base + 4 {
            for v in (u + 1)..base + 4 {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
    }

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
        assert_eq!(d.scores(), deterministic(&g, Rank::Nucleus).as_slice());
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
            assert_eq!(
                d.scores(),
                deterministic(&g, Rank::Nucleus).as_slice(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn two_overlapping_k4s() {
        // K4 on {0,1,2,3} and K4 on {2,3,4,5} sharing edge (2,3).
        let mut b = GraphBuilder::new();
        add_k4(&mut b, 0);
        add_k4(&mut b, 2);
        let g = b.build();
        // Every triangle lies in exactly one K4, so nucleusness is 1.
        assert!(certain(&g, Rank::Nucleus).scores().iter().all(|&x| x == 1));
        let nuclei = k_nuclei(&g, 1);
        // The two K4s only share an edge (no shared triangle), so they are
        // two distinct 1-nuclei.
        assert_eq!(nuclei.len(), 2);
        for n in &nuclei {
            assert_eq!(n.num_vertices(), 4);
            assert_eq!(n.num_edges(), 6);
            assert_eq!(n.cliques.len(), 1);
            assert_eq!(n.triangles.len(), 4);
        }
    }

    #[test]
    fn nuclei_extraction_respects_k() {
        let g = complete(6, 1.0);
        let n3 = k_nuclei(&g, 3);
        assert_eq!(n3.len(), 1);
        assert_eq!(n3[0].num_vertices(), 6);
        assert_eq!(n3[0].num_edges(), 15);
        assert!(k_nuclei(&g, 4).is_empty());
        let n1 = k_nuclei(&g, 1);
        assert_eq!(n1.len(), 1);
        assert!(n1[0].contains_triangle(&Triangle::new(0, 1, 2)));
        assert!(!n1[0].contains_triangle(&Triangle::new(0, 1, 7)));
    }

    #[test]
    fn k5_is_one_2_nucleus() {
        let nuclei = k_nuclei(&complete(5, 1.0), 2);
        assert_eq!(nuclei.len(), 1);
        assert_eq!(nuclei[0].k, 2);
    }

    #[test]
    fn is_k_nucleus_on_cliques() {
        // A (k+3)-clique is a k-nucleus but not a (k+1)-nucleus (Lemma 3
        // direction), and a K4 is a 0-nucleus.
        for k in 1..5u32 {
            let g = complete(k + 3, 1.0);
            assert!(
                is_k_nucleus_lenient(&g, k),
                "K{} should be a {}-nucleus",
                k + 3,
                k
            );
            assert!(!is_k_nucleus_lenient(&g, k + 1));
        }
        assert!(is_k_nucleus_lenient(&complete(4, 1.0), 0));
    }

    #[test]
    fn is_k_nucleus_rejects_non_nuclei() {
        // A triangle lies in no 4-clique, and the empty graph has no
        // triangle.
        assert!(!is_k_nucleus_lenient(&complete(3, 1.0), 1));
        assert!(!is_k_nucleus_lenient(&UncertainGraph::empty(5), 0));
    }

    #[test]
    fn is_k_nucleus_requires_connectivity() {
        // Two disjoint K4s: both satisfy support but are not 4-clique
        // connected, hence not a single nucleus.
        let mut b = GraphBuilder::new();
        add_k4(&mut b, 0);
        add_k4(&mut b, 4);
        assert!(!is_k_nucleus_lenient(&b.build(), 1));
    }

    #[test]
    fn lemma3_only_k_plus_3_clique_is_k_nucleus_on_k_plus_3_vertices() {
        // Operational check of Lemma 3 for k = 1: on 4 vertices, only K4 is
        // a 1-nucleus.  Enumerate all graphs on 4 labelled vertices.
        let pairs = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut nucleus_count = 0;
        for mask in 0u32..(1 << 6) {
            let mut b = GraphBuilder::with_vertices(4);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
            let g = b.build();
            if is_k_nucleus_lenient(&g, 1) {
                nucleus_count += 1;
                assert_eq!(g.num_edges(), 6, "only K4 qualifies");
            }
        }
        assert_eq!(nucleus_count, 1);
    }
}
