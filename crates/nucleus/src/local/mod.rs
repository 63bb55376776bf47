//! Local probabilistic nucleus decomposition (ℓ-NuDecomp, Section 5).
//!
//! Algorithm 1 of the paper: compute an initial nucleus score `κ(△)` for
//! every triangle — the largest `k` with `Pr(X_{𝒢,△,ℓ} ≥ k) ≥ θ` — then
//! peel triangles in non-decreasing score order.  Removing a triangle
//! kills every 4-clique through it, so the scores of the surviving
//! triangles of those cliques are recomputed over their remaining cliques.
//! The score at removal time is the triangle's ℓ-nucleusness ν(△).
//!
//! ℓ-NuDecomp is the [`Rank::Nucleus`](crate::Rank::Nucleus) instance of
//! [`Decomposition`](crate::Decomposition), and it runs the engines every
//! rank runs.  Scores are computed either exactly (the Poisson-binomial
//! DP of [`ugraph::rs::dp`]) or by the hybrid statistical approximation
//! framework ([`crate::approx`]), selected through
//! [`ScoreMethod`](crate::ScoreMethod).  The exact DP reads its initial κ
//! off the support's [`TailTable`](ugraph::rs::TailTable) and peels on
//! [`ugraph::rs::peel_deferred`]; the Hybrid scorer, which is not
//! monotone under clique removal, scores every triangle at θ and peels
//! on [`ugraph::rs::peel_eager`].  Both emit deterministic
//! [`PeelStats`](crate::PeelStats) perf counters, and both are
//! property-tested bit-identical to the frozen engine of
//! [`crate::reference`].  [`nuclei`] extracts the maximal
//! ℓ-(k,θ)-nuclei of one `k` from the scores; [`forest`] builds the
//! hierarchy of the nuclei of every `k` at once.

pub mod forest;
pub mod nuclei;

#[cfg(test)]
mod tests {
    use crate::approx::ApproxMethod;
    use crate::config::{ApproxThresholds, ScoreMethod};
    use crate::decomp::tests::{naive_nucleusness, random_graph};
    use crate::{DecompConfig, Decomposition};
    use ugraph::generators::ProbabilityModel;
    use ugraph::{GraphBuilder, Triangle, UncertainGraph};

    fn exact(g: &UncertainGraph, theta: f64) -> Decomposition {
        Decomposition::compute(g, &DecompConfig::nucleus(theta)).unwrap()
    }

    fn hybrid(theta: f64) -> DecompConfig {
        DecompConfig::nucleus(theta).with_method(ScoreMethod::Hybrid(ApproxThresholds::default()))
    }

    /// ℓ-nucleusness of `triangle`, or `None` when it is not in the graph.
    fn score_of(d: &Decomposition, triangle: &Triangle) -> Option<u32> {
        let index = d.nucleus_support().unwrap().triangle_index();
        index.id_of(triangle).map(|t| d.score(t))
    }

    fn complete(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    /// The probabilistic graph of Figure 1a of the paper.
    fn paper_figure1_graph() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        // Vertices: 1..7 as in the figure (0 unused).
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(1, 5, 1.0).unwrap();
        b.add_edge(3, 5, 1.0).unwrap();
        b.add_edge(2, 5, 0.5).unwrap();
        b.add_edge(1, 4, 0.6).unwrap();
        b.add_edge(2, 4, 0.7).unwrap();
        b.add_edge(3, 4, 1.0).unwrap();
        b.add_edge(1, 7, 0.8).unwrap();
        b.add_edge(6, 7, 0.8).unwrap();
        b.add_edge(1, 6, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn certain_graph_matches_deterministic_nucleusness() {
        // With all probabilities 1 and θ ≤ 1, ℓ-nucleusness equals the
        // deterministic nucleusness.
        let g = random_graph(71, 20, 80, ProbabilityModel::Constant(1.0));
        assert_eq!(exact(&g, 0.8).scores(), naive_nucleusness(&g).as_slice());
    }

    #[test]
    fn paper_example_figure2a() {
        // The ℓ-(1, 0.42)-nucleus of Figure 2a: triangles of the subgraph
        // on {1,2,3,4,5} have nucleusness ≥ 1 at θ = 0.42.
        let g = paper_figure1_graph();
        let local = exact(&g, 0.42);
        // Triangle (1,3,5) is in the 4-clique {1,2,3,5} whose completion
        // probability is 0.5 ≥ 0.42, so its score is 1.
        assert_eq!(score_of(&local, &Triangle::new(1, 3, 5)), Some(1));
        // Triangle (1,2,3) is in two 4-cliques ({1,2,3,5} with 0.5 and
        // {1,2,3,4} with 0.42): Pr[ζ ≥ 1] = 1-(0.5·0.58) = 0.71 ≥ 0.42 but
        // Pr[ζ ≥ 2] = 0.21 < 0.42, so score 1.
        assert_eq!(score_of(&local, &Triangle::new(1, 2, 3)), Some(1));
        let nuclei = local.k_nuclei(&g, 1).unwrap();
        assert_eq!(nuclei.len(), 1);
        let verts: Vec<u32> = nuclei[0].subgraph.original_vertices().to_vec();
        assert_eq!(verts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn paper_example_figure3c_low_theta() {
        // Figure 3c: K5 with every edge 0.6 is an ℓ-(2, 0.01)-nucleus.
        let g = complete(5, 0.6);
        let local = exact(&g, 0.01);
        assert!(local.scores().iter().all(|&s| s == 2));
        // At a high threshold the same graph only reaches nucleusness 0 or 1.
        let strict = exact(&g, 0.5);
        assert!(strict.max_score() < 2);
    }

    #[test]
    fn scores_monotone_in_theta() {
        let g = complete(6, 0.7);
        let mut last_scores: Option<Vec<u32>> = None;
        for theta in [0.05, 0.2, 0.4, 0.6, 0.9] {
            let local = exact(&g, theta);
            if let Some(prev) = &last_scores {
                for (a, b) in prev.iter().zip(local.scores()) {
                    assert!(b <= a, "scores must not increase as theta grows");
                }
            }
            last_scores = Some(local.scores().to_vec());
        }
    }

    #[test]
    fn local_scores_never_exceed_deterministic() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let cfg = ugraph::generators::PlantedCliqueConfig {
            num_vertices: 40,
            background_edges: 60,
            num_communities: 4,
            community_size: (5, 7),
            overlap: 2,
        };
        let edges = ugraph::generators::planted_clique_edges(&cfg, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            40,
            &ugraph::generators::ProbabilityModel::Uniform {
                low: 0.3,
                high: 1.0,
            },
            &mut rng,
        );
        let local = exact(&g, 0.2);
        // Deterministic nucleusness, indexed by the same triangle ids.
        let det = detdecomp::reference::nucleusness(&g);
        assert_eq!(local.num_elements(), det.len());
        for (t, &d) in det.iter().enumerate() {
            assert!(local.scores()[t] <= d, "triangle {t}");
        }
    }

    #[test]
    fn hybrid_scores_match_dp_scores() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(19);
        let cfg = ugraph::generators::PlantedCliqueConfig {
            num_vertices: 60,
            background_edges: 100,
            num_communities: 6,
            community_size: (5, 8),
            overlap: 2,
        };
        let edges = ugraph::generators::planted_clique_edges(&cfg, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            60,
            &ugraph::generators::ProbabilityModel::Uniform {
                low: 0.2,
                high: 1.0,
            },
            &mut rng,
        );
        let dp = exact(&g, 0.2);
        let approx = Decomposition::compute(&g, &hybrid(0.2)).unwrap();
        let mut diff = 0usize;
        for t in 0..dp.num_elements() {
            if dp.scores()[t] != approx.scores()[t] {
                diff += 1;
            }
        }
        let frac = diff as f64 / dp.num_elements().max(1) as f64;
        assert!(frac < 0.05, "AP disagrees with DP on {frac} of triangles");
    }

    #[test]
    fn method_counts_are_tracked() {
        let g = complete(7, 0.4);
        let dp = exact(&g, 0.1);
        assert!(dp.method_counts()[&ApproxMethod::DynamicProgramming] > 0);
        let approx = Decomposition::compute(&g, &hybrid(0.1)).unwrap();
        let total: usize = approx.method_counts().values().sum();
        assert!(total >= approx.num_elements());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = complete(4, 0.5);
        assert!(Decomposition::compute(&g, &DecompConfig::nucleus(0.0)).is_err());
    }

    #[test]
    fn empty_and_clique_free_graphs() {
        let empty = UncertainGraph::empty(5);
        let d = exact(&empty, 0.5);
        assert_eq!(d.num_elements(), 0);
        assert_eq!(d.max_score(), 0);

        let triangle = complete(3, 0.9);
        let d = exact(&triangle, 0.5);
        assert_eq!(d.num_elements(), 1);
        assert_eq!(d.max_score(), 0);
        assert!(d.k_nuclei(&triangle, 1).unwrap().is_empty());
    }

    #[test]
    fn initial_scores_upper_bound_final_scores_for_dp() {
        let g = complete(6, 0.65);
        let d = exact(&g, 0.1);
        for t in 0..d.num_elements() {
            assert!(d.scores()[t] <= d.initial_scores()[t]);
        }
    }
}
