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
//!    compiled once into flat triangle and 4-clique arrays, the worlds
//!    are drawn from one RNG stream shared by all candidates in
//!    ⌈n/64⌉ batches, world `w` of a batch as bit `w` of a lane mask per
//!    edge, and the indicator is evaluated on 64 worlds at once with word
//!    operations on those masks (see [`crate::sampling`]).  No world is
//!    materialized as a graph.  `H`'s edge set, the key of its test, is
//!    formed by marking the edge ids of its cliques, looked up once per
//!    candidate clique.  A candidate whose edge set was already accepted
//!    is not sampled: its verdict cannot change the output, so the
//!    shared stream jumps past the `n · |E(H)|` draws its test would have
//!    made ([`ChaCha8Rng::set_word_pos`], a counter-mode seek), and every
//!    later candidate is tested against the worlds it would have drawn
//!    had that one been sampled.
//!
//! `H` is accepted, once per edge set, when the estimate of every
//! triangle it reports reaches θ.

use std::collections::HashSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::rs::Incidence;
use ugraph::{EdgeId, EdgeSubgraph, Parallelism, Triangle, TriangleId, UncertainGraph};

use crate::config::SamplingConfig;
use crate::decomp::{DecompConfig, Decomposition};
use crate::error::{NucleusError, Result};
use crate::sampling::{skip_draws, CompiledCandidate};
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
    /// (ROADMAP item 1).
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
    let mut closure = Closure::new(support, &candidate_cliques);
    let mut clique_edges = CliqueEdges::new(graph, support, &candidate_cliques);
    let clique = |i: u32| support.clique(candidate_cliques[i as usize]).clique;

    let n_samples = config.sampling.num_samples();
    let mut rng = ChaCha8Rng::seed_from_u64(config.sampling.seed);
    let mut tested: HashSet<Vec<u32>> = HashSet::new();
    let mut accepted: HashSet<Vec<EdgeId>> = HashSet::new();
    let mut solution = Vec::new();
    let mut h = Vec::new();
    let mut edge_ids = Vec::new();

    // Seed triangles in ascending id order, those in a candidate clique.
    // Each *new* candidate H consumes a slice of the shared RNG stream,
    // so the iteration order decides which worlds each candidate is
    // tested against; a stable order is what makes the Monte-Carlo
    // results reproducible run to run.
    for seed_triangle in 0..support.num_triangles() as TriangleId {
        if !closure.grow(seed_triangle, k, &mut h) {
            continue;
        }
        if !tested.insert(h.clone()) {
            continue; // identical candidate already evaluated
        }

        clique_edges.of(&h, &mut edge_ids);
        if accepted.contains(&edge_ids) {
            // Its verdict cannot add a nucleus: move the stream past the
            // draws of its test instead of making them.
            skip_draws(&mut rng, n_samples, edge_ids.len());
            continue;
        }

        // Materialize H.
        let mut triangles: Vec<Triangle> = h.iter().flat_map(|&i| clique(i).triangles()).collect();
        triangles.sort_unstable();
        triangles.dedup();
        let sub = EdgeSubgraph::induced_by_edges(graph, &edge_ids);

        // Monte-Carlo estimation of Pr(X_{H,△,g} ≥ k) per triangle.
        let estimates =
            CompiledCandidate::compile(&sub, &triangles).global_estimates(&mut rng, n_samples, k);
        let min_probability = estimates.iter().copied().fold(f64::INFINITY, f64::min);
        if estimates.iter().all(|&p| p >= config.theta) {
            accepted.insert(edge_ids.clone());
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

/// The 4-clique closure of Algorithm 2 (lines 5–7) on flat arrays.  A
/// candidate clique is named by its position in the ascending candidate
/// list, so ascending positions are ascending clique ids.
struct Closure<'a> {
    support: &'a SupportStructure,
    /// The candidate cliques' ids, ascending.
    cliques: &'a [u32],
    /// Triangle → the positions of the candidate cliques containing it,
    /// ascending.
    cliques_of: Incidence,
    /// Per position: the clique is in the H being grown.
    in_h: Vec<bool>,
    /// Per triangle: its cliques in H, counted by the running pass.
    count: Vec<u32>,
    /// The triangles the running pass counted.
    touched: Vec<TriangleId>,
}

impl<'a> Closure<'a> {
    fn new(support: &'a SupportStructure, cliques: &'a [u32]) -> Self {
        let cliques_of =
            Incidence::transpose(support.num_triangles(), cliques.len(), "4-clique", |i| {
                support.clique(cliques[i]).triangles
            });
        Closure {
            support,
            cliques,
            cliques_of,
            in_h: vec![false; cliques.len()],
            count: vec![0; support.num_triangles()],
            touched: Vec::new(),
        }
    }

    /// Grows H from the candidate cliques of `seed` into `h`, as sorted
    /// positions, and returns `false` when `seed` is in no candidate
    /// clique.  Each pass counts every triangle's cliques in H as H stood
    /// at the pass's start, then adds every candidate clique of each
    /// triangle in fewer than `k` of them; H is complete when a pass adds
    /// nothing.
    fn grow(&mut self, seed: TriangleId, k: u32, h: &mut Vec<u32>) -> bool {
        h.clear();
        h.extend_from_slice(self.cliques_of.list(seed));
        if h.is_empty() {
            return false;
        }
        for &i in h.iter() {
            self.in_h[i as usize] = true;
        }
        loop {
            for &i in h.iter() {
                for &t in &self.support.clique(self.cliques[i as usize]).triangles {
                    let count = &mut self.count[t as usize];
                    if *count == 0 {
                        self.touched.push(t);
                    }
                    *count += 1;
                }
            }
            let before = h.len();
            for &t in &self.touched {
                if self.count[t as usize] < k {
                    for &i in self.cliques_of.list(t) {
                        if !std::mem::replace(&mut self.in_h[i as usize], true) {
                            h.push(i);
                        }
                    }
                }
                self.count[t as usize] = 0;
            }
            self.touched.clear();
            if h.len() == before {
                break;
            }
        }
        for &i in h.iter() {
            self.in_h[i as usize] = false;
        }
        h.sort_unstable();
        true
    }
}

/// The edge ids of the candidate cliques, looked up once, so that H's
/// edge set is formed by marking instead of by sorting vertex pairs and
/// searching each one's id.
struct CliqueEdges {
    /// Per candidate position: the clique's six edge ids.
    of_clique: Vec<[EdgeId; 6]>,
    /// Per graph edge: in the edge set being formed.
    marked: Vec<bool>,
}

impl CliqueEdges {
    fn new(graph: &UncertainGraph, support: &SupportStructure, cliques: &[u32]) -> Self {
        let of_clique = cliques
            .iter()
            .map(|&c| {
                support
                    .clique(c)
                    .clique
                    .edges()
                    .map(|(u, v)| graph.edge_id(u, v).expect("clique edge"))
            })
            .collect();
        CliqueEdges {
            of_clique,
            marked: vec![false; graph.num_edges()],
        }
    }

    /// Writes the sorted, distinct edge ids of the cliques at positions
    /// `h` into `edge_ids`, leaving every mark cleared.
    fn of(&mut self, h: &[u32], edge_ids: &mut Vec<EdgeId>) {
        edge_ids.clear();
        for &i in h {
            for e in self.of_clique[i as usize] {
                if !std::mem::replace(&mut self.marked[e as usize], true) {
                    edge_ids.push(e);
                }
            }
        }
        for &e in edge_ids.iter() {
            self.marked[e as usize] = false;
        }
        edge_ids.sort_unstable();
    }
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

    #[test]
    fn zero_samples_are_rejected_not_answered_empty() {
        // One world of a certain K5 shows its g-(1, 0.1)-nuclei; with none,
        // every estimate would be 0 / 0 and fail the θ test.
        let mut b = GraphBuilder::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
        let g = b.build();
        let config =
            |n| GlobalConfig::new(0.1).with_sampling(SamplingConfig::default().with_num_samples(n));
        assert!(!global_nuclei(&g, 1, &config(1)).unwrap().is_empty());
        let zero = NucleusError::InvalidThreshold {
            name: "num_samples",
            value: 0.0,
        };
        assert_eq!(global_nuclei(&g, 1, &config(0)).unwrap_err(), zero);
        let local = Decomposition::compute(&g, &config(0).local_config()).unwrap();
        assert_eq!(
            global_nuclei_with_local(&g, 1, &config(0), &local).unwrap_err(),
            zero
        );
    }
}

/// The candidate loop against the loop that samples every candidate: on
/// random graphs of overlapping planted cliques, [`global_nuclei`] must
/// return exactly the nuclei, triangles and `min_probability` bits of a
/// reference that compiles and samples every new clique set, retests of
/// accepted edge sets included.  The reference defines the stream
/// discipline a skipped retest must keep, and it looks up every edge id
/// of H by its vertex pair, so it also checks the edge sets the loop
/// forms by marking.  Scales with `PROPTEST_CASES` (64 by default).
#[cfg(test)]
mod retest_checks {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use ugraph::{EdgeSubgraph, GraphBuilder, TriangleId, UncertainGraph};

    use super::{global_nuclei, GlobalConfig, GlobalNucleus};
    use crate::config::SamplingConfig;
    use crate::decomp::Decomposition;
    use crate::sampling::CompiledCandidate;

    const THETAS: [f64; 3] = [0.001, 0.3, 0.7];

    /// How many candidates the reference sampled again for an edge set
    /// it had accepted, and for one it had tested and not accepted.
    #[derive(Debug, Default, Clone, Copy)]
    struct Retests {
        accepted: usize,
        rejected: usize,
    }

    /// Algorithm 2's candidate loop sampling every new clique set, with
    /// ordered sets in place of the closure's flat arrays.
    fn reference(
        graph: &UncertainGraph,
        k: u32,
        config: &GlobalConfig,
    ) -> (Vec<GlobalNucleus>, Retests) {
        let local = Decomposition::compute(graph, &config.local_config()).unwrap();
        let support = local.require_nucleus().unwrap();
        let scores = local.scores();
        let mut cliques_of: BTreeMap<TriangleId, Vec<u32>> = BTreeMap::new();
        for c in 0..support.num_cliques() as u32 {
            let triangles = support.clique(c).triangles;
            if triangles.iter().all(|&t| scores[t as usize] >= k) {
                for t in triangles {
                    cliques_of.entry(t).or_default().push(c);
                }
            }
        }
        let n_samples = config.sampling.num_samples();
        let mut rng = ChaCha8Rng::seed_from_u64(config.sampling.seed);
        let (mut tested, mut seen, mut accepted) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        let mut retests = Retests::default();
        let mut solution = Vec::new();
        for seed_cliques in cliques_of.values() {
            let mut h: BTreeSet<u32> = seed_cliques.iter().copied().collect();
            loop {
                let mut count: BTreeMap<TriangleId, u32> = BTreeMap::new();
                for &c in &h {
                    for t in support.clique(c).triangles {
                        *count.entry(t).or_default() += 1;
                    }
                }
                let before = h.len();
                for (t, n) in count {
                    if n < k {
                        h.extend(&cliques_of[&t]);
                    }
                }
                if h.len() == before {
                    break;
                }
            }
            if !tested.insert(h.clone()) {
                continue;
            }
            let mut edge_ids = Vec::new();
            let mut triangles = Vec::new();
            for &c in &h {
                let clique = support.clique(c).clique;
                for (u, v) in clique.edges() {
                    edge_ids.push(graph.edge_id(u, v).unwrap());
                }
                triangles.extend(clique.triangles());
            }
            edge_ids.sort_unstable();
            edge_ids.dedup();
            triangles.sort_unstable();
            triangles.dedup();
            if accepted.contains(&edge_ids) {
                retests.accepted += 1;
            } else if seen.contains(&edge_ids) {
                retests.rejected += 1;
            }
            seen.insert(edge_ids.clone());

            let sub = EdgeSubgraph::induced_by_edges(graph, &edge_ids);
            let estimates = CompiledCandidate::compile(&sub, &triangles)
                .global_estimates(&mut rng, n_samples, k);
            let min_probability = estimates.iter().copied().fold(f64::INFINITY, f64::min);
            if estimates.iter().all(|&p| p >= config.theta) && accepted.insert(edge_ids) {
                solution.push(GlobalNucleus {
                    k,
                    subgraph: sub,
                    triangles,
                    min_probability,
                });
            }
        }
        solution.sort_by_key(|n| n.subgraph.original_vertices().to_vec());
        (solution, retests)
    }

    /// 2–3 planted cliques of 5–7 vertices, each starting 1–3 vertices
    /// before the previous one ends, on a random spanning tree of 2–6
    /// more vertices plus a few chords, under a random relabelling.  Each
    /// clique's edges are certain or, by a fair coin, drawn from
    /// U[0.3, 1], as are the other edges; an edge of two cliques keeps the
    /// first one's.  Certain cliques are accepted at every θ and retested
    /// most, uncertain ones are sampled after those retests.
    fn planted_graph(planted: usize, seed: u64) -> UncertainGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut start = 0;
        let mut end = 0;
        for _ in 0..planted {
            let size = rng.gen_range(5usize..=7);
            if end > 0 {
                start = end - rng.gen_range(1usize..=3);
            }
            end = start + size;
            let certain = rng.gen_bool(0.5);
            for u in start..end {
                for v in u + 1..end {
                    let p = if certain {
                        1.0
                    } else {
                        rng.gen_range(0.3..=1.0)
                    };
                    edges.entry((u, v)).or_insert(p);
                }
            }
        }
        let n = end + rng.gen_range(2usize..=6);
        let mut backbone: Vec<(usize, usize)> = (1..n).map(|v| (rng.gen_range(0..v), v)).collect();
        for _ in 0..n / 4 {
            let (u, v): (usize, usize) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                backbone.push((u.min(v), u.max(v)));
            }
        }
        for pair in backbone {
            let p = rng.gen_range(0.3..=1.0);
            edges.entry(pair).or_insert(p);
        }
        let mut label: Vec<u32> = (0..n as u32).collect();
        label.shuffle(&mut rng);
        let mut b = GraphBuilder::new();
        for ((u, v), p) in edges {
            b.add_edge(label[u], label[v], p).unwrap();
        }
        b.build()
    }

    /// Runs both loops and checks them field by field; returns the
    /// reference's retest counts.
    fn assert_matches_reference(g: &UncertainGraph, k: u32, config: &GlobalConfig) -> Retests {
        let got = global_nuclei(g, k, config).unwrap();
        let (want, retests) = reference(g, k, config);
        assert_eq!(got.len(), want.len(), "nuclei at k = {k}, {config:?}");
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            let edges = |n: &GlobalNucleus| -> Vec<(u32, u32, u64)> {
                let ids = n.subgraph.original_vertices();
                let h = n.subgraph.graph();
                h.edges()
                    .iter()
                    .map(|e| (ids[e.u as usize], ids[e.v as usize], e.p.to_bits()))
                    .collect()
            };
            assert_eq!(a.k, b.k, "nucleus {i}");
            assert_eq!(
                a.subgraph.original_vertices(),
                b.subgraph.original_vertices(),
                "nucleus {i}"
            );
            assert_eq!(edges(a), edges(b), "nucleus {i}");
            assert_eq!(a.triangles, b.triangles, "nucleus {i}");
            assert_eq!(
                a.min_probability.to_bits(),
                b.min_probability.to_bits(),
                "nucleus {i}: {} vs {}",
                a.min_probability,
                b.min_probability
            );
        }
        retests
    }

    fn config(theta: f64, samples: usize, seed: u64) -> GlobalConfig {
        GlobalConfig::new(theta).with_sampling(
            SamplingConfig::default()
                .with_num_samples(samples)
                .with_seed(seed),
        )
    }

    #[test]
    fn fixtures_retest_both_kinds_and_match_the_reference() {
        let mut total = Retests::default();
        for (planted, seed) in [(2, 1), (3, 2), (3, 3), (2, 4)] {
            let g = planted_graph(planted, seed);
            for k in 1..=3 {
                for theta in THETAS {
                    let r = assert_matches_reference(&g, k, &config(theta, 40, seed));
                    total.accepted += r.accepted;
                    total.rejected += r.rejected;
                }
            }
        }
        assert!(total.accepted > 0, "{total:?}");
        assert!(total.rejected > 0, "{total:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn random_planted_graphs_match_the_reference(
            planted in 2usize..=3,
            graph_seed in 0u64..1 << 32,
            k in 1u32..=3,
            sampling in (0usize..3, 20usize..=60, 0u64..1 << 32),
        ) {
            let (theta, samples, seed) = sampling;
            let g = planted_graph(planted, graph_seed);
            assert_matches_reference(&g, k, &config(THETAS[theta], samples, seed));
        }
    }
}
