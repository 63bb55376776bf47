//! Possible worlds of an uncertain graph.
//!
//! A possible world `G ⊑ 𝒢` is a deterministic graph obtained by keeping
//! each edge of `𝒢` independently with its probability.  Its existence
//! probability is
//! `Pr(G) = Π_{e ∈ G} p_e · Π_{e ∉ G} (1 − p_e)` (Equation 1 of the paper).
//!
//! [`PossibleWorld`] stores the kept-edge bitmask next to a reference
//! graph, so that downstream algorithms (deterministic nucleus
//! decomposition on sampled worlds, exact enumeration on tiny graphs) can
//! interpret the world either as a mask or as a materialized
//! [`UncertainGraph`] with all probabilities equal to one.

use rand::Rng;

use crate::graph::{Edge, EdgeId, UncertainGraph, VertexId};

/// One deterministic instantiation of an uncertain graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PossibleWorld {
    /// `kept[e]` is `true` when edge `e` of the reference graph exists in
    /// this world.
    kept: Vec<bool>,
}

impl PossibleWorld {
    /// Creates a world from an explicit kept-edge mask.
    pub fn from_mask(kept: Vec<bool>) -> Self {
        PossibleWorld { kept }
    }

    /// A world keeping every edge of `graph`.
    pub fn full(graph: &UncertainGraph) -> Self {
        PossibleWorld {
            kept: vec![true; graph.num_edges()],
        }
    }

    /// Number of edges of the reference graph (kept or not).
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// `true` when the reference graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// `true` when edge `e` exists in this world.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.kept[e as usize]
    }

    /// Number of edges present in this world.
    pub fn num_kept_edges(&self) -> usize {
        self.kept.iter().filter(|&&k| k).count()
    }

    /// The kept-edge mask.
    pub fn mask(&self) -> &[bool] {
        &self.kept
    }

    /// Existence probability of this world under `graph` (Equation 1).
    pub fn probability(&self, graph: &UncertainGraph) -> f64 {
        debug_assert_eq!(self.kept.len(), graph.num_edges());
        let mut p = 1.0;
        for (e, kept) in self.kept.iter().enumerate() {
            let pe = graph.edge(e as EdgeId).p;
            p *= if *kept { pe } else { 1.0 - pe };
        }
        p
    }

    /// `true` when the triangle `(u, v, w)` of `graph` has all three edges
    /// present in this world.
    pub fn contains_triangle(
        &self,
        graph: &UncertainGraph,
        u: VertexId,
        v: VertexId,
        w: VertexId,
    ) -> bool {
        [(u, v), (v, w), (u, w)].iter().all(|&(a, b)| {
            graph
                .edge_id(a, b)
                .map(|e| self.contains_edge(e))
                .unwrap_or(false)
        })
    }

    /// Materializes this world as a deterministic graph (every kept edge
    /// has probability `1.0`); vertex count is preserved.
    pub fn materialize(&self, graph: &UncertainGraph) -> UncertainGraph {
        debug_assert_eq!(self.kept.len(), graph.num_edges());
        // The kept edges, in the reference table's (sorted) order.
        let mut edges = Vec::with_capacity(self.num_kept_edges());
        edges.extend(
            graph
                .edges()
                .iter()
                .zip(&self.kept)
                .filter(|&(_, &kept)| kept)
                .map(|(e, _)| Edge { p: 1.0, ..*e }),
        );
        UncertainGraph::from_sorted_edges(graph.num_vertices(), edges)
    }
}

/// Samples possible worlds of an uncertain graph with independent edge
/// coin flips.
#[derive(Debug, Clone)]
pub struct WorldSampler<'g> {
    graph: &'g UncertainGraph,
}

impl<'g> WorldSampler<'g> {
    /// Creates a sampler over `graph`.
    pub fn new(graph: &'g UncertainGraph) -> Self {
        WorldSampler { graph }
    }

    /// Samples one possible world.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> PossibleWorld {
        let kept = self
            .graph
            .edges()
            .iter()
            .map(|e| rng.gen::<f64>() < e.p)
            .collect();
        PossibleWorld::from_mask(kept)
    }

    /// Samples `n` independent possible worlds.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<PossibleWorld> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Iterates over *all* `2^m` possible worlds of `graph`.
///
/// Only usable for graphs with at most `MAX_EXHAUSTIVE_EDGES` edges; the
/// exact oracles in the `nucleus` crate use this to validate Monte-Carlo
/// estimates and the hardness-reduction gadgets on tiny instances.
pub fn enumerate_all_worlds(graph: &UncertainGraph) -> impl Iterator<Item = PossibleWorld> + '_ {
    let m = graph.num_edges();
    assert!(
        m <= MAX_EXHAUSTIVE_EDGES,
        "exhaustive world enumeration requires at most {MAX_EXHAUSTIVE_EDGES} edges, got {m}"
    );
    (0u64..(1u64 << m)).map(move |mask| {
        let kept = (0..m).map(|e| mask & (1 << e) != 0).collect();
        PossibleWorld::from_mask(kept)
    })
}

/// Maximum number of edges for which exhaustive world enumeration is
/// permitted (2^24 worlds ≈ 16.7M).
pub const MAX_EXHAUSTIVE_EDGES: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path_graph() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let g = path_graph();
        let total: f64 = enumerate_all_worlds(&g).map(|w| w.probability(&g)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_world_probability() {
        let g = path_graph();
        let w = PossibleWorld::full(&g);
        assert!((w.probability(&g) - 0.4).abs() < 1e-12);
        assert_eq!(w.num_kept_edges(), 2);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn empty_world_probability() {
        let g = path_graph();
        let w = PossibleWorld::from_mask(vec![false, false]);
        assert!((w.probability(&g) - 0.2 * 0.5).abs() < 1e-12);
        assert_eq!(w.num_kept_edges(), 0);
    }

    #[test]
    fn triangle_membership_in_world() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.9).unwrap();
        b.add_edge(0, 2, 0.9).unwrap();
        let g = b.build();
        let full = PossibleWorld::full(&g);
        assert!(full.contains_triangle(&g, 0, 1, 2));
        let mut mask = vec![true; 3];
        mask[g.edge_id(0, 2).unwrap() as usize] = false;
        let partial = PossibleWorld::from_mask(mask);
        assert!(!partial.contains_triangle(&g, 0, 1, 2));
        // Missing edge in the reference graph.
        assert!(!full.contains_triangle(&g, 0, 1, 5));
    }

    #[test]
    fn materialize_preserves_structure() {
        let g = path_graph();
        let w = PossibleWorld::from_mask(vec![true, false]);
        let det = w.materialize(&g);
        assert_eq!(det.num_vertices(), 3);
        assert_eq!(det.num_edges(), 1);
        assert_eq!(det.edge_probability(0, 1), Some(1.0));
        assert!(!det.has_edge(1, 2));
    }

    #[test]
    fn sampler_respects_extreme_probabilities() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1e-12).unwrap();
        let g = b.build();
        let sampler = WorldSampler::new(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for w in sampler.sample_many(&mut rng, 200) {
            assert!(w.contains_edge(g.edge_id(0, 1).unwrap()));
            assert!(!w.contains_edge(g.edge_id(1, 2).unwrap()));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        let g = b.build();
        let sampler = WorldSampler::new(&g);
        let sample = |seed| sampler.sample_many(&mut ChaCha8Rng::seed_from_u64(seed), 50);
        assert_eq!(sample(9), sample(9));
        assert_ne!(sample(9), sample(10));
    }

    #[test]
    fn sampler_frequency_approximates_probability() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.3).unwrap();
        let g = b.build();
        let sampler = WorldSampler::new(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let hits = sampler
            .sample_many(&mut rng, n)
            .iter()
            .filter(|w| w.contains_edge(0))
            .count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - 0.3).abs() < 0.02,
            "frequency {freq} too far from 0.3"
        );
    }

    #[test]
    fn exhaustive_enumeration_counts() {
        let g = path_graph();
        assert_eq!(enumerate_all_worlds(&g).count(), 4);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn exhaustive_enumeration_rejects_large_graphs() {
        let mut b = GraphBuilder::new();
        for i in 0..30u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let g = b.build();
        let _ = enumerate_all_worlds(&g).count();
    }
}
