//! Weakly-global probabilistic nucleus decomposition (w-NuDecomp,
//! Algorithm 3).
//!
//! The weakly-global indicator `1_w(G, △, k)` asks that the sampled world
//! *contain* a deterministic k-nucleus that includes the triangle — a
//! relaxation of the global semantics, but still NP-hard to decide
//! (Theorem 4.2).  The algorithm prunes with the local decomposition
//! (every w-(k,θ)-nucleus is an ℓ-(k,θ)-nucleus) and samples `n` possible
//! worlds of each ℓ-(k,θ)-nucleus.  Each candidate is compiled once into
//! flat triangle and 4-clique arrays, and its worlds are judged 64 at a
//! time: world `w` of a batch is bit `w` of a lane mask per edge,
//! triangle and 4-clique (see [`crate::sampling`]).  A triangle lies in a
//! k-nucleus of the world when it lies in a present 4-clique that
//! survives the level-k filter: present triangles in fewer than `k` live
//! 4-cliques are dropped, with their 4-cliques, until none is left; the
//! filter drops a triangle from all the lanes it is short in at once.
//! The triangles whose estimated probability of lying in a k-nucleus
//! reaches θ are kept and grouped into edge-connected w-(k,θ)-nuclei.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ugraph::{EdgeId, EdgeSubgraph, Triangle, UncertainGraph, UnionFind};

use crate::decomp::Decomposition;
use crate::error::Result;
use crate::global::GlobalConfig;
use crate::sampling::CompiledCandidate;

/// One w-(k,θ)-nucleus found by Algorithm 3.
#[derive(Debug, Clone)]
pub struct WeaklyGlobalNucleus {
    /// The `k` this nucleus was extracted for.
    pub k: u32,
    /// The nucleus as a materialized subgraph of the input graph.
    pub subgraph: EdgeSubgraph,
    /// The triangles of the nucleus, in original vertex ids.
    pub triangles: Vec<Triangle>,
    /// The smallest estimated `P̂r(X_{H,△,w} ≥ k)` over the triangles.
    pub min_probability: f64,
}

impl WeaklyGlobalNucleus {
    /// Number of vertices of the nucleus.
    pub fn num_vertices(&self) -> usize {
        self.subgraph.num_vertices()
    }

    /// Number of edges of the nucleus.
    pub fn num_edges(&self) -> usize {
        self.subgraph.num_edges()
    }
}

/// Computes all w-(k,θ)-nuclei of `graph` for the given `k` (Algorithm 3).
pub fn weakly_global_nuclei(
    graph: &UncertainGraph,
    k: u32,
    config: &GlobalConfig,
) -> Result<Vec<WeaklyGlobalNucleus>> {
    config.sampling.validate()?;
    let local = Decomposition::compute(graph, &config.local_config())?;
    weakly_global_nuclei_with_local(graph, k, config, &local)
}

/// Same as [`weakly_global_nuclei`] but reuses a precomputed local
/// decomposition of `graph`.
///
/// `local` must be a nucleus-rank [`Decomposition`], or
/// [`NucleusError::RankMismatch`](crate::NucleusError::RankMismatch) is
/// returned, computed at `config.theta`, or
/// [`NucleusError::LocalThetaMismatch`](crate::NucleusError::LocalThetaMismatch)
/// is returned; it may use any score method.
pub fn weakly_global_nuclei_with_local(
    graph: &UncertainGraph,
    k: u32,
    config: &GlobalConfig,
    local: &Decomposition,
) -> Result<Vec<WeaklyGlobalNucleus>> {
    config.validate_with_local(local)?;
    let n_samples = config.sampling.num_samples();
    let mut rng = ChaCha8Rng::seed_from_u64(config.sampling.seed);
    let mut solution = Vec::new();

    for candidate in local.k_nuclei(graph, k)? {
        // Monte-Carlo: count, per triangle, the worlds in which it belongs
        // to a deterministic k-nucleus of the world.
        let estimates = CompiledCandidate::compile(&candidate.subgraph, &candidate.triangles)
            .weakly_global_estimates(&mut rng, n_samples, k);

        // Qualifying triangles, grouped into connected unions (triangles
        // sharing an edge), each forming one w-(k,θ)-nucleus.
        let qualifying: Vec<usize> = estimates
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| (p >= config.theta).then_some(i))
            .collect();
        if qualifying.is_empty() {
            continue;
        }
        let mut uf = UnionFind::new(candidate.triangles.len());
        for (a_pos, &a) in qualifying.iter().enumerate() {
            for &b in &qualifying[a_pos + 1..] {
                let ta = candidate.triangles[a];
                let tb = candidate.triangles[b];
                let shared = ta
                    .vertices()
                    .iter()
                    .filter(|v| tb.vertices().contains(v))
                    .count();
                if shared >= 2 {
                    uf.union(a as u32, b as u32);
                }
            }
        }
        // BTreeMap, not HashMap: groups come out ordered by root id, so
        // the solution order is reproducible run to run.
        let mut groups: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &i in &qualifying {
            groups.entry(uf.find(i as u32)).or_default().push(i);
        }
        for group in groups.into_values() {
            let triangles: Vec<Triangle> = group.iter().map(|&i| candidate.triangles[i]).collect();
            let min_probability = group
                .iter()
                .map(|&i| estimates[i])
                .fold(f64::INFINITY, f64::min);
            let mut edge_ids: Vec<EdgeId> = Vec::new();
            for t in &triangles {
                for (u, v) in t.edges() {
                    edge_ids.push(graph.edge_id(u, v).expect("triangle edge"));
                }
            }
            edge_ids.sort_unstable();
            edge_ids.dedup();
            solution.push(WeaklyGlobalNucleus {
                k,
                subgraph: EdgeSubgraph::induced_by_edges(graph, &edge_ids),
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
    use crate::config::SamplingConfig;
    use ugraph::GraphBuilder;

    fn figure2a_graph() -> UncertainGraph {
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
        b.build()
    }

    #[test]
    fn figure2a_is_a_weakly_global_nucleus() {
        // Example 1 of the paper: the subgraph of Figure 2a is a
        // w-(1, 0.42)-nucleus.
        let g = figure2a_graph();
        let config = GlobalConfig::new(0.42)
            .with_sampling(SamplingConfig::default().with_num_samples(600).with_seed(2));
        let nuclei = weakly_global_nuclei(&g, 1, &config).unwrap();
        assert_eq!(nuclei.len(), 1);
        let n = &nuclei[0];
        assert_eq!(n.num_vertices(), 5);
        assert_eq!(n.k, 1);
        assert!(n.min_probability >= 0.42);
    }

    #[test]
    fn example2_k5_is_not_weakly_global_at_2() {
        // Example 2: K5 with all edges 0.6 is an ℓ-(2, 0.01)-nucleus but
        // not a w-(2, 0.01)-nucleus.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, 0.6).unwrap();
            }
        }
        let g = b.build();
        let config = GlobalConfig::new(0.01).with_sampling(
            SamplingConfig::default()
                .with_num_samples(1000)
                .with_seed(4),
        );
        // Local nuclei exist at k = 2...
        let local = Decomposition::compute(&g, &crate::DecompConfig::nucleus(0.01)).unwrap();
        assert_eq!(local.max_score(), 2);
        // ...but the weakly-global decomposition rejects them (the true
        // probability is 0.006 < 0.01; with 1000 samples the estimate is
        // almost surely below the threshold).
        let nuclei = weakly_global_nuclei(&g, 2, &config).unwrap();
        assert!(nuclei.is_empty());
    }

    #[test]
    fn estimates_agree_with_exact_oracle() {
        let g = figure2a_graph();
        let config = GlobalConfig::new(0.42)
            .with_sampling(SamplingConfig::default().with_num_samples(800).with_seed(9));
        let nuclei = weakly_global_nuclei(&g, 1, &config).unwrap();
        for n in &nuclei {
            for tri in &n.triangles {
                let exact = crate::exact::exact_weakly_global_tail(&g, tri, 1).unwrap();
                assert!(exact >= 0.42 - 0.1, "triangle {tri}: exact {exact}");
            }
        }
    }

    #[test]
    fn a_local_decomposition_at_another_theta_is_rejected() {
        let g = figure2a_graph();
        let config = GlobalConfig::new(0.42);
        let other = Decomposition::compute(&g, &crate::DecompConfig::nucleus(0.3)).unwrap();
        assert_eq!(
            weakly_global_nuclei_with_local(&g, 1, &config, &other).unwrap_err(),
            crate::NucleusError::LocalThetaMismatch {
                expected: 0.42,
                got: 0.3
            }
        );
    }

    #[test]
    fn zero_samples_are_rejected_not_answered_empty() {
        // One world of a certain K5 shows its w-(1, 0.1)-nucleus; with
        // none, every estimate would be 0 / 0 and fail the θ test.
        let mut b = GraphBuilder::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                b.add_edge(u, v, 1.0).unwrap();
            }
        }
        let g = b.build();
        let config =
            |n| GlobalConfig::new(0.1).with_sampling(SamplingConfig::default().with_num_samples(n));
        assert_eq!(weakly_global_nuclei(&g, 1, &config(1)).unwrap().len(), 1);
        let zero = crate::NucleusError::InvalidThreshold {
            name: "num_samples",
            value: 0.0,
        };
        assert_eq!(weakly_global_nuclei(&g, 1, &config(0)).unwrap_err(), zero);
        let local = Decomposition::compute(&g, &config(0).local_config()).unwrap();
        assert_eq!(
            weakly_global_nuclei_with_local(&g, 1, &config(0), &local).unwrap_err(),
            zero
        );
    }

    #[test]
    fn no_candidates_no_nuclei() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.9).unwrap();
        b.add_edge(0, 2, 0.9).unwrap();
        let g = b.build();
        let nuclei = weakly_global_nuclei(&g, 1, &GlobalConfig::new(0.1)).unwrap();
        assert!(nuclei.is_empty());
    }

    #[test]
    fn weakly_global_contains_global() {
        // Every g-(k,θ)-nucleus triangle set should also appear inside a
        // w-(k,θ)-nucleus (the containment chain of Section 3).  θ = 0.3
        // keeps the true probabilities (0.42 and 0.5) comfortably above
        // the threshold so Monte-Carlo noise cannot flip the comparison.
        let g = figure2a_graph();
        let config = GlobalConfig::new(0.3)
            .with_sampling(SamplingConfig::default().with_num_samples(600).with_seed(6));
        let global = crate::global::global_nuclei(&g, 1, &config).unwrap();
        let weak = weakly_global_nuclei(&g, 1, &config).unwrap();
        for gn in &global {
            for tri in &gn.triangles {
                assert!(
                    weak.iter().any(|wn| wn.triangles.contains(tri)),
                    "global triangle {tri} missing from every weakly-global nucleus"
                );
            }
        }
    }
}
