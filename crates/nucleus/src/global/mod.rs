//! Global probabilistic nucleus decomposition (g-NuDecomp, Algorithm 2).
//!
//! Computing `Pr(X_{H,△,g} ≥ k)` exactly requires all `2^{|E(H)|}`
//! possible worlds of the candidate subgraph and is #P-hard (Theorem 4.1),
//! so the algorithm combines two ideas:
//!
//! 1. **Search-space pruning**: every g-(k,θ)-nucleus is contained in an
//!    ℓ-(k,θ)-nucleus, so candidates are assembled only from the 4-cliques
//!    whose four triangles all have ℓ-nucleusness ≥ k.  From each seed
//!    triangle, in ascending id order, a candidate `H` grows by 4-clique
//!    closure: every triangle of `H` in fewer than `k` of its cliques
//!    pulls in its other candidate cliques.  `H` is the edge-induced
//!    subgraph of the chosen cliques; candidates are de-duplicated by
//!    their clique set.
//! 2. **Monte-Carlo estimation**: for each candidate `H`, `n` possible
//!    worlds of `H` are sampled (Lemma 4 fixes `n` from ε, δ) and the
//!    indicator `1_g` — the sampled world is a deterministic k-nucleus
//!    containing the triangle — is averaged per triangle.  `H` is
//!    compiled once into flat triangle and 4-clique arrays, each world
//!    is drawn as a kept-edge mask from one RNG stream shared by all
//!    candidates, and the indicator is evaluated on that mask (see
//!    [`crate::sampling`]).  No world is materialized as a graph.
//!
//! `H` is accepted, once per edge set, when the estimate of every
//! triangle it reports reaches θ.

use std::collections::{HashMap, HashSet};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::{EdgeId, EdgeSubgraph, Parallelism, Triangle, TriangleId, UncertainGraph};

use crate::config::SamplingConfig;
use crate::decomp::{DecompConfig, Decomposition};
use crate::error::{NucleusError, Result};
use crate::sampling::CompiledCandidate;
use crate::support::SupportStructure;

/// Configuration of the global (and weakly-global) decompositions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalConfig {
    /// Probability threshold θ of Definition 5.
    pub theta: f64,
    /// Monte-Carlo sampling parameters.
    pub sampling: SamplingConfig,
    /// Parallelism of the local pruning step's support construction.
    pub parallelism: Parallelism,
}

impl GlobalConfig {
    /// Creates a configuration with the given θ and default sampling.
    pub fn new(theta: f64) -> Self {
        GlobalConfig {
            theta,
            sampling: SamplingConfig::default(),
            parallelism: Parallelism::Auto,
        }
    }

    /// Sets the sampling configuration.
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// Sets the parallelism of the local pruning step.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The ℓ-NuDecomp configuration of the local pruning step: the
    /// exact DP at θ.
    pub(crate) fn local_config(&self) -> DecompConfig {
        DecompConfig::nucleus(self.theta).with_parallelism(self.parallelism)
    }

    /// Checks the sampling parameters and that `local` is a nucleus-rank
    /// decomposition ([`NucleusError::RankMismatch`] otherwise) computed
    /// at this configuration's θ: a local decomposition at another θ
    /// prunes to a different candidate space.  Its score method may
    /// differ.  Returns the local decomposition's support.
    pub(crate) fn validate_with_local<'a>(
        &self,
        local: &'a Decomposition,
    ) -> Result<&'a SupportStructure> {
        self.sampling.validate()?;
        let support = local.require_nucleus()?;
        let got = local.config().threshold;
        if got != self.theta {
            return Err(NucleusError::LocalThetaMismatch {
                expected: self.theta,
                got,
            });
        }
        Ok(support)
    }
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig::new(0.001)
    }
}

/// One g-(k,θ)-nucleus found by Algorithm 2.
#[derive(Debug, Clone)]
pub struct GlobalNucleus {
    /// The `k` this nucleus was extracted for.
    pub k: u32,
    /// The nucleus as a materialized subgraph of the input graph.
    pub subgraph: EdgeSubgraph,
    /// The triangles of the 4-cliques chosen for this nucleus, sorted, in
    /// original vertex ids.  These are the triangles whose probabilities
    /// were estimated and tested against θ.  They need not be every
    /// triangle of [`subgraph`](Self::subgraph): edges of different
    /// cliques can close a triangle that lies in no chosen clique.
    /// Whether the test should range over all triangles of `H` is open
    /// (ROADMAP item 2, step B).
    pub triangles: Vec<Triangle>,
    /// The smallest estimated `P̂r(X_{H,△,g} ≥ k)` over the triangles.
    pub min_probability: f64,
}

impl GlobalNucleus {
    /// Number of vertices of the nucleus.
    pub fn num_vertices(&self) -> usize {
        self.subgraph.num_vertices()
    }

    /// Number of edges of the nucleus.
    pub fn num_edges(&self) -> usize {
        self.subgraph.num_edges()
    }
}

/// Computes all g-(k,θ)-nuclei of `graph` for the given `k` (Algorithm 2).
pub fn global_nuclei(
    graph: &UncertainGraph,
    k: u32,
    config: &GlobalConfig,
) -> Result<Vec<GlobalNucleus>> {
    config.sampling.validate()?;
    let local = Decomposition::compute(graph, &config.local_config())?;
    global_nuclei_with_local(graph, k, config, &local)
}

/// Same as [`global_nuclei`] but reuses a precomputed local decomposition
/// of `graph`.
///
/// `local` must be a nucleus-rank [`Decomposition`], or
/// [`NucleusError::RankMismatch`] is returned, computed at
/// `config.theta`, or [`NucleusError::LocalThetaMismatch`] is returned;
/// it may use any score method.
pub fn global_nuclei_with_local(
    graph: &UncertainGraph,
    k: u32,
    config: &GlobalConfig,
    local: &Decomposition,
) -> Result<Vec<GlobalNucleus>> {
    let support = config.validate_with_local(local)?;
    let scores = local.scores();

    // Candidate space C: the 4-cliques whose four triangles all reach
    // ℓ-nucleusness ≥ k (the union of the ℓ-(k,θ)-nuclei).
    let candidate_cliques: Vec<u32> = (0..support.num_cliques() as u32)
        .filter(|&c| {
            support
                .clique(c)
                .triangles
                .iter()
                .all(|&t| scores[t as usize] >= k)
        })
        .collect();
    if candidate_cliques.is_empty() {
        return Ok(Vec::new());
    }
    let candidate_set: HashSet<u32> = candidate_cliques.iter().copied().collect();

    // cliques-of-triangle restricted to the candidate space.
    let mut candidate_cliques_of: HashMap<TriangleId, Vec<u32>> = HashMap::new();
    for &c in &candidate_cliques {
        for &t in &support.clique(c).triangles {
            candidate_cliques_of.entry(t).or_default().push(c);
        }
    }

    let n_samples = config.sampling.num_samples();
    let mut rng = ChaCha8Rng::seed_from_u64(config.sampling.seed);
    let mut tested: HashSet<Vec<u32>> = HashSet::new();
    let mut accepted: HashSet<Vec<EdgeId>> = HashSet::new();
    let mut solution = Vec::new();

    // Seed triangles in ascending id order — never in `HashMap` hash
    // order, which varies per process.  Each *new* candidate H consumes a
    // slice of the shared RNG stream, so the iteration order decides
    // which worlds each candidate is tested against; a stable order is
    // what makes the Monte-Carlo results reproducible run to run.
    let mut seed_triangles: Vec<TriangleId> = candidate_cliques_of.keys().copied().collect();
    seed_triangles.sort_unstable();

    for seed_triangle in seed_triangles {
        // Build the candidate H by 4-clique closure (lines 5-7).
        let mut h_cliques: HashSet<u32> = candidate_cliques_of[&seed_triangle]
            .iter()
            .copied()
            .collect();
        loop {
            // Triangles currently in H and their clique counts within H.
            let mut tri_count: HashMap<TriangleId, usize> = HashMap::new();
            for &c in &h_cliques {
                for &t in &support.clique(c).triangles {
                    *tri_count.entry(t).or_insert(0) += 1;
                }
            }
            let mut added = false;
            for (&t, &count) in &tri_count {
                if count < k as usize {
                    if let Some(extra) = candidate_cliques_of.get(&t) {
                        for &c in extra {
                            if candidate_set.contains(&c) && h_cliques.insert(c) {
                                added = true;
                            }
                        }
                    }
                }
            }
            if !added {
                break;
            }
        }

        let mut clique_key: Vec<u32> = h_cliques.iter().copied().collect();
        clique_key.sort_unstable();
        if !tested.insert(clique_key.clone()) {
            continue; // identical candidate already evaluated
        }

        // Materialize H.
        let mut edge_ids: Vec<EdgeId> = Vec::new();
        let mut triangles: Vec<Triangle> = Vec::new();
        for &c in &clique_key {
            let record = support.clique(c);
            for (u, v) in record.clique.edges() {
                edge_ids.push(graph.edge_id(u, v).expect("clique edge"));
            }
            for t in record.clique.triangles() {
                triangles.push(t);
            }
        }
        edge_ids.sort_unstable();
        edge_ids.dedup();
        triangles.sort_unstable();
        triangles.dedup();
        let sub = EdgeSubgraph::induced_by_edges(graph, &edge_ids);

        // Monte-Carlo estimation of Pr(X_{H,△,g} ≥ k) per triangle.
        let mut compiled = CompiledCandidate::compile(&sub, &triangles);
        let mut hits = vec![0usize; triangles.len()];
        let mut kept = Vec::new();
        for _ in 0..n_samples {
            compiled.draw(&mut rng, &mut kept);
            if compiled.is_k_nucleus(&kept, k) {
                compiled.count_present(&kept, &mut hits);
            }
        }
        let estimates: Vec<f64> = hits.iter().map(|&h| h as f64 / n_samples as f64).collect();
        let min_probability = estimates.iter().copied().fold(f64::INFINITY, f64::min);
        if estimates.iter().all(|&p| p >= config.theta) && accepted.insert(edge_ids.clone()) {
            solution.push(GlobalNucleus {
                k,
                subgraph: sub,
                triangles,
                min_probability,
            });
        }
    }

    solution.sort_by_key(|n| n.subgraph.original_vertices().to_vec());
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn figure3a_graph() -> UncertainGraph {
        // K4 on {1,2,3,5}: five certain edges plus (2,5) = 0.5.
        let mut b = GraphBuilder::new();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(1, 5, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(3, 5, 1.0).unwrap();
        b.add_edge(2, 5, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn finds_the_paper_figure3a_nucleus() {
        let g = figure3a_graph();
        let config = GlobalConfig::new(0.42)
            .with_sampling(SamplingConfig::default().with_num_samples(400).with_seed(3));
        let nuclei = global_nuclei(&g, 1, &config).unwrap();
        assert_eq!(nuclei.len(), 1);
        let n = &nuclei[0];
        assert_eq!(n.num_vertices(), 4);
        assert_eq!(n.num_edges(), 6);
        assert_eq!(n.triangles.len(), 4);
        // The true probability is 0.5; the estimate must be within the
        // Hoeffding bound of it.
        assert!((n.min_probability - 0.5).abs() < 0.1);
    }

    #[test]
    fn rejects_when_threshold_is_too_high() {
        let g = figure3a_graph();
        let config = GlobalConfig::new(0.8)
            .with_sampling(SamplingConfig::default().with_num_samples(400).with_seed(3));
        let nuclei = global_nuclei(&g, 1, &config).unwrap();
        assert!(nuclei.is_empty());
    }

    #[test]
    fn estimates_agree_with_exact_oracle() {
        // On a tiny graph, the accepted nuclei must be exactly those whose
        // exact global tail clears θ.
        let g = figure3a_graph();
        let theta = 0.42;
        let config = GlobalConfig::new(theta).with_sampling(
            SamplingConfig::default()
                .with_num_samples(800)
                .with_seed(11),
        );
        let nuclei = global_nuclei(&g, 1, &config).unwrap();
        assert_eq!(nuclei.len(), 1);
        for tri in &nuclei[0].triangles {
            let exact = crate::exact::exact_global_tail(&g, tri, 1).unwrap();
            assert!(exact >= theta - 0.1, "triangle {tri}: exact {exact}");
        }
    }

    #[test]
    fn figure2a_subgraph_is_not_a_global_nucleus_at_042() {
        // The full 5-vertex subgraph of Figure 2a has Pr(X_g ≥ 1) = 0.27
        // for its triangles, so at θ = 0.42 the only g-(1,θ)-nuclei are the
        // two K4s of Figure 3 (their candidates are generated from their
        // seed triangles).
        let mut b = GraphBuilder::new();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(1, 5, 1.0).unwrap();
        b.add_edge(3, 5, 1.0).unwrap();
        b.add_edge(2, 5, 0.5).unwrap();
        b.add_edge(1, 4, 0.6).unwrap();
        b.add_edge(2, 4, 0.7).unwrap();
        b.add_edge(3, 4, 1.0).unwrap();
        let g = b.build();
        let config = GlobalConfig::new(0.42)
            .with_sampling(SamplingConfig::default().with_num_samples(600).with_seed(5));
        let nuclei = global_nuclei(&g, 1, &config).unwrap();
        // Candidate construction starts from each triangle and pulls in
        // every candidate clique containing it; triangles shared by both
        // K4s pull in both cliques, producing the 5-vertex candidate with
        // probability 0.27 < θ which is rejected.  Triangles unique to one
        // K4 still yield candidates == that K4... except triangle (1,2,3)
        // belongs to both.  Triangles like (1,3,5) only belong to the K4
        // {1,2,3,5}, giving exactly the Figure 3a nucleus.
        assert!(!nuclei.is_empty());
        for n in &nuclei {
            assert_eq!(n.num_vertices(), 4);
            assert!(n.min_probability >= 0.3);
        }
    }

    #[test]
    fn empty_result_when_no_local_nuclei() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        let g = b.build();
        let nuclei = global_nuclei(&g, 1, &GlobalConfig::new(0.1)).unwrap();
        assert!(nuclei.is_empty());
    }

    #[test]
    fn a_local_decomposition_at_another_theta_is_rejected() {
        let g = figure3a_graph();
        let config = GlobalConfig::new(0.42);
        let other = Decomposition::compute(&g, &DecompConfig::nucleus(0.2)).unwrap();
        assert_eq!(
            global_nuclei_with_local(&g, 1, &config, &other).unwrap_err(),
            NucleusError::LocalThetaMismatch {
                expected: 0.42,
                got: 0.2
            }
        );
        // The same θ under another score method is accepted.
        let hybrid = crate::ScoreMethod::Hybrid(crate::ApproxThresholds::default());
        let approx =
            Decomposition::compute(&g, &DecompConfig::nucleus(0.42).with_method(hybrid)).unwrap();
        assert!(global_nuclei_with_local(&g, 1, &config, &approx).is_ok());
    }

    #[test]
    fn a_core_rank_decomposition_is_rejected() {
        let g = figure3a_graph();
        let core = Decomposition::compute(&g, &DecompConfig::core(0.42)).unwrap();
        assert_eq!(
            global_nuclei_with_local(&g, 1, &GlobalConfig::new(0.42), &core).unwrap_err(),
            NucleusError::RankMismatch {
                expected: "nucleus",
                got: "core"
            }
        );
    }

    #[test]
    fn invalid_sampling_config_is_rejected() {
        let g = figure3a_graph();
        let config = GlobalConfig::new(0.1).with_sampling(SamplingConfig::new(0.0, 0.1));
        assert!(global_nuclei(&g, 1, &config).is_err());
    }
}
