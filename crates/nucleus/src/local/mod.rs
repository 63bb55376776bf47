//! Local probabilistic nucleus decomposition (ℓ-NuDecomp, Section 5).
//!
//! Algorithm 1 of the paper: compute an initial nucleus score `κ(△)` for
//! every triangle — the largest `k` with `Pr(X_{𝒢,△,ℓ} ≥ k) ≥ θ` — then
//! peel triangles in non-decreasing score order.  Removing a triangle
//! kills every 4-clique through it, so the scores of the surviving
//! triangles of those cliques are recomputed over their remaining cliques.
//! The score at removal time is the triangle's ℓ-nucleusness ν(△).
//!
//! Scores are computed either exactly (dynamic programming, [`dp`]) or by
//! the hybrid statistical approximation framework ([`crate::approx`]),
//! selected through [`ScoreMethod`].
//!
//! The exact DP runs the same path as every other rank of
//! [`crate::decomp`]: initial κ read off the support's [`TailTable`],
//! then the generic deferred bucket-queue peel of [`ugraph::rs`] with
//! batched DP recomputation and reusable scratch buffers.  The Hybrid
//! scorer runs the eager engine of [`peel`].  Both emit deterministic
//! [`PeelStats`] perf counters.  The original eager heap engine survives
//! as [`mod@reference`] (tests and the `reference-peel` feature) and both
//! scorers are property-tested to produce bit-identical results to it.
//!
//! To decompose at many thresholds, [`sweep`] amortizes the support
//! structure across a whole θ grid: one build, one [`NucleusIndex`]
//! answering any (θ, k) query, bit-identical to per-θ runs.

pub mod dp;
pub mod nuclei;
pub mod peel;
#[cfg(any(test, feature = "reference-peel"))]
pub mod reference;
pub mod sweep;

use std::collections::HashMap;

use ugraph::rs::TailTable;
use ugraph::{Triangle, TriangleId, TriangleIndex, UncertainGraph};

use crate::approx::ApproxMethod;
use crate::config::{LocalConfig, ScoreMethod};
use crate::decomp;
use crate::error::Result;
use crate::support::SupportStructure;

pub use peel::PeelStats;
pub use sweep::{NucleusIndex, ThetaSweep};

/// Result of the local nucleus decomposition: the ℓ-nucleusness of every
/// triangle, plus the support structure it was computed over.
#[derive(Debug, Clone)]
pub struct LocalNucleusDecomposition {
    support: SupportStructure,
    config: LocalConfig,
    initial_scores: Vec<u32>,
    scores: Vec<u32>,
    method_counts: HashMap<ApproxMethod, usize>,
    stats: PeelStats,
}

impl LocalNucleusDecomposition {
    /// Runs ℓ-NuDecomp on `graph` with the given configuration.  The
    /// support structure is built with `config.parallelism`; scores are
    /// identical for every parallelism setting.
    pub fn compute(graph: &UncertainGraph, config: &LocalConfig) -> Result<Self> {
        // Fail fast: with_support validates too, but only after the
        // expensive support-structure build.
        config.validate()?;
        let support = SupportStructure::build_with(graph, config.parallelism);
        Self::with_support(support, config)
    }

    /// Runs ℓ-NuDecomp over a prebuilt [`SupportStructure`] (lets callers
    /// amortize clique enumeration across several θ values).
    ///
    /// The exact DP builds the support's tail table under
    /// `config.parallelism` (ordered parallel chunks) and peels on the
    /// generic engine of [`ugraph::rs`], exactly as
    /// [`Decomposition::compute`](crate::Decomposition::compute) does;
    /// the Hybrid scorer runs the engine of [`peel`].  Results are
    /// bit-identical for every parallelism setting and to the
    /// [`mod@reference`] engine.
    pub fn with_support(support: SupportStructure, config: &LocalConfig) -> Result<Self> {
        config.validate()?;
        let point = match config.method {
            ScoreMethod::DynamicProgramming => {
                let tails = TailTable::build(&support, config.parallelism);
                decomp::generic_point(&support, &tails, config.theta)
            }
            ScoreMethod::Hybrid(_) => peel::hybrid_point(&support, config),
        };

        Ok(LocalNucleusDecomposition {
            support,
            config: *config,
            initial_scores: point.initial_scores,
            scores: point.scores,
            method_counts: point.method_counts,
            stats: point.stats,
        })
    }

    /// The configuration the decomposition was computed with.
    pub fn config(&self) -> &LocalConfig {
        &self.config
    }

    /// The support structure (triangles, cliques, completion
    /// probabilities).
    pub fn support(&self) -> &SupportStructure {
        &self.support
    }

    /// The triangle index.
    pub fn triangle_index(&self) -> &TriangleIndex {
        self.support.triangle_index()
    }

    /// ℓ-nucleusness ν(△) of triangle id `t`.
    pub fn score(&self, t: TriangleId) -> u32 {
        self.scores[t as usize]
    }

    /// ℓ-nucleusness of the given triangle, or `None` if it is not in the
    /// graph.
    pub fn score_of(&self, triangle: &Triangle) -> Option<u32> {
        self.support
            .triangle_index()
            .id_of(triangle)
            .map(|id| self.score(id))
    }

    /// ℓ-nucleusness of every triangle, indexed by triangle id.
    pub fn scores(&self) -> &[u32] {
        &self.scores
    }

    /// The initial κ scores (before peeling), indexed by triangle id.
    pub fn initial_scores(&self) -> &[u32] {
        &self.initial_scores
    }

    /// The largest ℓ-nucleusness in the graph.
    pub fn max_score(&self) -> u32 {
        self.scores.iter().copied().max().unwrap_or(0)
    }

    /// Number of triangles.
    pub fn num_triangles(&self) -> usize {
        self.scores.len()
    }

    /// The evaluation method of each triangle's *initial* κ computation
    /// (exactly one entry per triangle; DP runs count every triangle as
    /// `DynamicProgramming`).  Peeling-time recomputations are not
    /// included — they are engine work, reported as
    /// [`PeelStats::dp_calls`] via [`peel_stats`](Self::peel_stats).
    pub fn method_counts(&self) -> &HashMap<ApproxMethod, usize> {
        &self.method_counts
    }

    /// Deterministic perf counters of the peeling engine (DP
    /// recomputations, cheap-bound skips, bucket usage, scratch
    /// high-water mark).
    pub fn peel_stats(&self) -> &PeelStats {
        &self.stats
    }

    /// Extracts the maximal ℓ-(k,θ)-nuclei for the given `k ≥ 1`.
    pub fn k_nuclei(&self, graph: &UncertainGraph, k: u32) -> Vec<detdecomp::NucleusSubgraph> {
        nuclei::extract_k_nuclei(graph, &self.support, &self.scores, k)
    }

    /// Extracts the union of all ℓ-(k,θ)-nuclei as one edge set (the
    /// candidate space `C` used by the global algorithm).
    pub fn k_nuclei_union_edges(&self, graph: &UncertainGraph, k: u32) -> Vec<ugraph::EdgeId> {
        nuclei::k_nuclei_union_edges(graph, &self.support, &self.scores, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApproxThresholds, ScoreMethod};
    use ugraph::GraphBuilder;

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
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(71);
        let edges = ugraph::generators::gnm_edges(20, 80, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            20,
            &ugraph::generators::ProbabilityModel::Constant(1.0),
            &mut rng,
        );
        let local = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.8)).unwrap();
        let det = detdecomp::NucleusDecomposition::compute(&g);
        for t in 0..local.num_triangles() as TriangleId {
            let tri = local.triangle_index().triangle(t);
            assert_eq!(
                local.score(t),
                det.nucleusness_of(&tri).unwrap(),
                "triangle {tri}"
            );
        }
    }

    #[test]
    fn paper_example_figure2a() {
        // The ℓ-(1, 0.42)-nucleus of Figure 2a: triangles of the subgraph
        // on {1,2,3,4,5} have nucleusness ≥ 1 at θ = 0.42.
        let g = paper_figure1_graph();
        let local = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.42)).unwrap();
        // Triangle (1,3,5) is in the 4-clique {1,2,3,5} whose completion
        // probability is 0.5 ≥ 0.42, so its score is 1.
        assert_eq!(local.score_of(&Triangle::new(1, 3, 5)), Some(1));
        // Triangle (1,2,3) is in two 4-cliques ({1,2,3,5} with 0.5 and
        // {1,2,3,4} with 0.42): Pr[ζ ≥ 1] = 1-(0.5·0.58) = 0.71 ≥ 0.42 but
        // Pr[ζ ≥ 2] = 0.21 < 0.42, so score 1.
        assert_eq!(local.score_of(&Triangle::new(1, 2, 3)), Some(1));
        let nuclei = local.k_nuclei(&g, 1);
        assert_eq!(nuclei.len(), 1);
        let verts: Vec<u32> = nuclei[0].subgraph.original_vertices().to_vec();
        assert_eq!(verts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn paper_example_figure3c_low_theta() {
        // Figure 3c: K5 with every edge 0.6 is an ℓ-(2, 0.01)-nucleus.
        let g = complete(5, 0.6);
        let local = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.01)).unwrap();
        assert!(local.scores().iter().all(|&s| s == 2));
        // At a high threshold the same graph only reaches nucleusness 0 or 1.
        let strict = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.5)).unwrap();
        assert!(strict.max_score() < 2);
    }

    #[test]
    fn scores_monotone_in_theta() {
        let g = complete(6, 0.7);
        let mut last_scores: Option<Vec<u32>> = None;
        for theta in [0.05, 0.2, 0.4, 0.6, 0.9] {
            let local = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(theta)).unwrap();
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
        let local = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.2)).unwrap();
        let det = detdecomp::NucleusDecomposition::compute(&g);
        for t in 0..local.num_triangles() as TriangleId {
            let tri = local.triangle_index().triangle(t);
            assert!(local.score(t) <= det.nucleusness_of(&tri).unwrap());
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
        let exact = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.2)).unwrap();
        let approx =
            LocalNucleusDecomposition::compute(&g, &LocalConfig::approximate(0.2)).unwrap();
        let mut diff = 0usize;
        for t in 0..exact.num_triangles() {
            if exact.scores()[t] != approx.scores()[t] {
                diff += 1;
            }
        }
        let frac = diff as f64 / exact.num_triangles().max(1) as f64;
        assert!(frac < 0.05, "AP disagrees with DP on {frac} of triangles");
    }

    #[test]
    fn method_counts_are_tracked() {
        let g = complete(7, 0.4);
        let exact = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.1)).unwrap();
        assert!(exact.method_counts()[&ApproxMethod::DynamicProgramming] > 0);
        let approx = LocalNucleusDecomposition::compute(
            &g,
            &LocalConfig {
                theta: 0.1,
                method: ScoreMethod::Hybrid(ApproxThresholds::default()),
                parallelism: ugraph::Parallelism::Auto,
            },
        )
        .unwrap();
        let total: usize = approx.method_counts().values().sum();
        assert!(total >= approx.num_triangles());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = complete(4, 0.5);
        assert!(LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.0)).is_err());
    }

    #[test]
    fn empty_and_clique_free_graphs() {
        let empty = UncertainGraph::empty(5);
        let d = LocalNucleusDecomposition::compute(&empty, &LocalConfig::exact(0.5)).unwrap();
        assert_eq!(d.num_triangles(), 0);
        assert_eq!(d.max_score(), 0);

        let triangle = complete(3, 0.9);
        let d = LocalNucleusDecomposition::compute(&triangle, &LocalConfig::exact(0.5)).unwrap();
        assert_eq!(d.num_triangles(), 1);
        assert_eq!(d.max_score(), 0);
        assert!(d.k_nuclei(&triangle, 1).is_empty());
    }

    #[test]
    fn initial_scores_upper_bound_final_scores_for_dp() {
        let g = complete(6, 0.65);
        let d = LocalNucleusDecomposition::compute(&g, &LocalConfig::exact(0.1)).unwrap();
        for t in 0..d.num_triangles() {
            assert!(d.scores()[t] <= d.initial_scores()[t]);
        }
    }
}
