//! Monte-Carlo sampling utilities for the global and weakly-global
//! algorithms.
//!
//! Lemma 4 of the paper (a special case of Hoeffding's inequality) gives
//! the number of independent possible-world samples needed to estimate a
//! probability within additive error ε with confidence 1 − δ:
//! `n ≥ ⌈ln(2/δ) / (2ε²)⌉`.
//!
//! Algorithms 2 and 3 judge `n` sampled worlds of every candidate
//! subgraph `H`.  The crate-private `CompiledCandidate` compiles `H` once
//! into flat triangle and 4-clique arrays, so a world is a kept-edge
//! mask and both indicators are array passes over it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ugraph::cliques::four_clique_extensions;
use ugraph::rs::Incidence;
use ugraph::triangles::TriangleTable;
use ugraph::{
    EdgeId, EdgeSubgraph, Parallelism, PossibleWorld, Triangle, TriangleId, UncertainGraph,
    WorldSampler,
};

/// The Hoeffding sample size `⌈ln(2/δ) / (2ε²)⌉` (Lemma 4).
pub fn hoeffding_sample_size(epsilon: f64, delta: f64) -> usize {
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
}

/// Samples `n` possible worlds of `graph` with a deterministic seed.
pub fn sample_worlds(graph: &UncertainGraph, n: usize, seed: u64) -> Vec<PossibleWorld> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    WorldSampler::new(graph).sample_many(&mut rng, n)
}

/// Estimates `Pr[predicate(world)]` over `n` sampled worlds of `graph`.
pub fn estimate_probability<F>(graph: &UncertainGraph, n: usize, seed: u64, mut predicate: F) -> f64
where
    F: FnMut(&PossibleWorld) -> bool,
{
    if n == 0 {
        return 0.0;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sampler = WorldSampler::new(graph);
    let mut hits = 0usize;
    for _ in 0..n {
        if predicate(&sampler.sample(&mut rng)) {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

/// A candidate subgraph `H` of Algorithms 2 and 3, compiled once so that
/// every sampled world of it is judged on a kept-edge mask rather than on
/// a materialized graph.
///
/// It holds H's edge probabilities in edge-id order, every triangle of H
/// as its three edge ids, every 4-clique of H as its four triangle ids
/// with the triangle → 4-cliques incidence, and the H-triangle id of each
/// triangle the candidate reports.  A triangle is in a world iff its
/// three edges are kept, and a 4-clique iff its four triangles are, since
/// they cover its six edges.
///
/// The per-world buffers are sized here and rewritten by every check, so
/// judging a world allocates nothing.
pub(crate) struct CompiledCandidate {
    /// Edge probabilities of H in edge-id order: the draw order.
    probs: Vec<f64>,
    /// The edge ids of every triangle of H.
    triangle_edges: Vec<[EdgeId; 3]>,
    /// The triangle ids of every 4-clique of H.
    cliques: Vec<[TriangleId; 4]>,
    /// Triangle → the 4-cliques containing it.
    cliques_of: Incidence,
    /// H-triangle id of each reported triangle, in report order.
    reported: Vec<TriangleId>,
    /// Per triangle: present in the world and not yet reached (g) or
    /// dropped (w) by the running check.
    present: Vec<bool>,
    /// Per triangle: the live 4-cliques containing it.
    live_cliques: Vec<u32>,
    /// Per 4-clique: its four triangles are present and none was dropped.
    clique_live: Vec<bool>,
    /// Work list of the connectivity search and of the k-filter.
    stack: Vec<TriangleId>,
}

impl CompiledCandidate {
    /// Compiles the candidate `sub` from one triangle pass over its graph;
    /// its 4-cliques are the triangle table's extensions, so no triangle
    /// id is looked up except those of `reported`, the triangles the
    /// candidate reports (in the parent graph's vertex ids).
    ///
    /// # Panics
    ///
    /// Panics when a reported triangle is not a triangle of `sub`.
    pub(crate) fn compile(sub: &EdgeSubgraph, reported: &[Triangle]) -> Self {
        let h = sub.graph();
        let table = TriangleTable::build(h, Parallelism::Sequential);
        let mut cliques = Vec::new();
        for t in 0..table.len() as TriangleId {
            four_clique_extensions(&table, t, |_, [abz, acz, bcz]| {
                cliques.push([t, abz, acz, bcz]);
            });
        }
        let n = table.len();
        let cliques_of = Incidence::transpose(n, cliques.len(), "4-clique", |c| cliques[c]);
        let (index, triangle_edges, _) = table.into_parts();
        let local = |v| sub.local_vertex(v).expect("reported triangle lies in H");
        let reported = reported
            .iter()
            .map(|t| {
                let [a, b, c] = t.vertices();
                index
                    .id_of(&Triangle::new(local(a), local(b), local(c)))
                    .expect("reported triangle lies in H")
            })
            .collect();
        CompiledCandidate {
            probs: h.edges().iter().map(|e| e.p).collect(),
            triangle_edges,
            clique_live: vec![false; cliques.len()],
            cliques,
            cliques_of,
            reported,
            present: vec![false; n],
            live_cliques: vec![0; n],
            stack: Vec::with_capacity(n),
        }
    }

    /// Draws one world of H into `kept` with exactly the calls
    /// [`WorldSampler::sample`] makes — one `rng.gen::<f64>() < p` per
    /// edge, in edge-id order — so the mask and the stream position after
    /// the draw are the sampler's, bit for bit.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R, kept: &mut Vec<bool>) {
        kept.clear();
        kept.extend(self.probs.iter().map(|&p| rng.gen::<f64>() < p));
    }

    /// Marks the triangles and 4-cliques of the world `kept`, counts the
    /// live 4-cliques of every triangle and returns how many triangles
    /// are present.
    fn load(&mut self, kept: &[bool]) -> usize {
        debug_assert_eq!(kept.len(), self.probs.len());
        let mut num_present = 0;
        for (t, edges) in self.triangle_edges.iter().enumerate() {
            let present = edges.iter().all(|&e| kept[e as usize]);
            self.present[t] = present;
            self.live_cliques[t] = 0;
            num_present += usize::from(present);
        }
        for (c, triangles) in self.cliques.iter().enumerate() {
            let live = triangles.iter().all(|&t| self.present[t as usize]);
            self.clique_live[c] = live;
            if live {
                for &t in triangles {
                    self.live_cliques[t as usize] += 1;
                }
            }
        }
        num_present
    }

    /// The world condition of the g-indicator `1_g(G, △, k)`: the world
    /// `kept` has a triangle, every present triangle lies in at least `k`
    /// present 4-cliques, and the present triangles form one component
    /// under present 4-cliques.  Edges outside every 4-clique are
    /// ignored, as `detdecomp::is_k_nucleus_lenient` ignores them on the
    /// materialized world.
    pub(crate) fn is_k_nucleus(&mut self, kept: &[bool], k: u32) -> bool {
        let num_present = self.load(kept);
        let Some(start) = self.present.iter().position(|&p| p) else {
            return false;
        };
        if (0..self.present.len()).any(|t| self.present[t] && self.live_cliques[t] < k) {
            return false;
        }
        // Search from one present triangle, clearing `present` as
        // triangles are reached.
        self.present[start] = false;
        self.stack.clear();
        self.stack.push(start as TriangleId);
        let mut reached = 1;
        while let Some(t) = self.stack.pop() {
            for &c in self.cliques_of.list(t) {
                if !self.clique_live[c as usize] {
                    continue;
                }
                for &u in &self.cliques[c as usize] {
                    if self.present[u as usize] {
                        self.present[u as usize] = false;
                        reached += 1;
                        self.stack.push(u);
                    }
                }
            }
        }
        reached == num_present
    }

    /// Adds one to `hits[i]` for every reported triangle `i` present in
    /// the world `kept`.
    pub(crate) fn count_present(&self, kept: &[bool], hits: &mut [usize]) {
        for (hit, &t) in hits.iter_mut().zip(&self.reported) {
            let edges = self.triangle_edges[t as usize];
            *hit += usize::from(edges.iter().all(|&e| kept[e as usize]));
        }
    }

    /// The w-indicator `1_w(G, △, k)`: adds one to `hits[i]` for every
    /// reported triangle `i` that lies in a deterministic k-nucleus of the
    /// world `kept`, that is in a present 4-clique surviving the level-k
    /// filter.  The filter drops every present triangle in fewer than `k`
    /// live 4-cliques, and a dropped triangle kills its 4-cliques, until
    /// no triangle is short; the survivors are exactly the triangles of
    /// nucleusness κ(△) ≥ k (Sarıyüce et al., WWW 2015).
    pub(crate) fn count_in_k_nucleus(&mut self, kept: &[bool], k: u32, hits: &mut [usize]) {
        self.load(kept);
        self.stack.clear();
        for t in 0..self.present.len() {
            if self.present[t] && self.live_cliques[t] < k {
                self.present[t] = false;
                self.stack.push(t as TriangleId);
            }
        }
        while let Some(t) = self.stack.pop() {
            for &c in self.cliques_of.list(t) {
                if !std::mem::take(&mut self.clique_live[c as usize]) {
                    continue;
                }
                for &u in &self.cliques[c as usize] {
                    let ui = u as usize;
                    self.live_cliques[ui] -= 1;
                    if self.present[ui] && self.live_cliques[ui] < k {
                        self.present[ui] = false;
                        self.stack.push(u);
                    }
                }
            }
        }
        for (hit, &t) in hits.iter_mut().zip(&self.reported) {
            let t = t as usize;
            *hit += usize::from(self.present[t] && self.live_cliques[t] > 0);
        }
    }
}

/// Moves `rng` to where `worlds` calls of [`CompiledCandidate::draw`] over
/// a candidate of `edges` edges leave it, without making them: a draw is
/// one `rng.gen::<f64>()` per edge, which reads one `next_u64`, two
/// stream words.  The seek costs at most one block refill.
pub(crate) fn skip_draws(rng: &mut ChaCha8Rng, worlds: usize, edges: usize) {
    // The stream cycles every 2^68 words, so wrapping is exact.
    let words = (2 * worlds as u128).wrapping_mul(edges as u128);
    rng.set_word_pos(rng.get_word_pos().wrapping_add(words));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    #[test]
    fn hoeffding_sample_sizes() {
        // ln(20)/(2·0.01) ≈ 149.8 → 150 (the paper rounds to 200).
        assert_eq!(hoeffding_sample_size(0.1, 0.1), 150);
        assert_eq!(hoeffding_sample_size(0.05, 0.1), 600);
        assert!(hoeffding_sample_size(0.01, 0.01) >= 26_000);
        // Larger tolerance needs fewer samples.
        assert!(hoeffding_sample_size(0.2, 0.1) < hoeffding_sample_size(0.1, 0.1));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        let g = b.build();
        let a = sample_worlds(&g, 50, 9);
        let b2 = sample_worlds(&g, 50, 9);
        assert_eq!(a, b2);
        let c = sample_worlds(&g, 50, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn estimate_probability_of_edge_presence() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.25).unwrap();
        let g = b.build();
        let est = estimate_probability(&g, 20_000, 3, |w| w.contains_edge(0));
        assert!((est - 0.25).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn estimate_probability_zero_samples() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.9).unwrap();
        let g = b.build();
        assert_eq!(estimate_probability(&g, 0, 1, |_| true), 0.0);
    }

    #[test]
    fn estimate_within_hoeffding_bound() {
        // With n from Lemma 4 at ε = δ = 0.1, the estimate of a fixed
        // event's probability should be within 0.1 with high probability.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 0.7).unwrap();
        b.add_edge(1, 2, 0.7).unwrap();
        let g = b.build();
        let n = hoeffding_sample_size(0.1, 0.1);
        // Event: both edges exist (true probability 0.49).
        let est = estimate_probability(&g, n, 42, |w| w.contains_edge(0) && w.contains_edge(1));
        assert!((est - 0.49).abs() <= 0.1, "estimate {est}");
    }
}

/// Definitional suite for [`CompiledCandidate`]: on every possible world
/// of tiny graphs and every `k ∈ 0..=3`, the compiled g-check must equal
/// `detdecomp::is_k_nucleus_lenient` on the materialized world and each
/// triangle's compiled w-membership must equal
/// [`crate::exact::triangle_in_k_nucleus`] there; compiled draws must
/// consume the RNG stream exactly as [`WorldSampler::sample`] does, and
/// [`skip_draws`] must leave it where the draws it replaces do.
/// Scales with `PROPTEST_CASES` (64 by default).
#[cfg(test)]
mod compiled_world_checks {
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use ugraph::possible_world::enumerate_all_worlds;
    use ugraph::rs::Incidence;
    use ugraph::triangles::enumerate_triangles;
    use ugraph::{EdgeId, EdgeSubgraph, GraphBuilder, Triangle, UncertainGraph, WorldSampler};

    use super::{skip_draws, CompiledCandidate};
    use crate::exact::triangle_in_k_nucleus;

    fn graph(edges: &[(u32, u32, f64)]) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for &(u, v, p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        b.build()
    }

    fn complete(n: u32) -> UncertainGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v, 0.3 + 0.05 * f64::from(u + v)));
            }
        }
        graph(&edges)
    }

    /// The fixtures: K4, K5, K6, the paper's Figure 2a, two K4s sharing
    /// the triangle (0, 1, 2), and a triangle-free graph.
    fn fixtures() -> Vec<UncertainGraph> {
        vec![
            complete(4),
            complete(5),
            complete(6),
            graph(&[
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (1, 5, 1.0),
                (3, 5, 1.0),
                (2, 5, 0.5),
                (1, 4, 0.6),
                (2, 4, 0.7),
                (3, 4, 1.0),
            ]),
            graph(&[
                (0, 1, 0.9),
                (0, 2, 0.8),
                (1, 2, 0.7),
                (0, 3, 0.6),
                (1, 3, 0.5),
                (2, 3, 0.4),
                (0, 4, 0.3),
                (1, 4, 0.2),
                (2, 4, 0.1),
            ]),
            graph(&[
                (0, 1, 0.5),
                (1, 2, 0.6),
                (2, 3, 0.7),
                (3, 4, 0.8),
                (4, 0, 0.9),
                (0, 5, 0.4),
            ]),
        ]
    }

    /// A random graph on at most 7 vertices and at most 12 edges.
    fn arb_graph() -> impl Strategy<Value = UncertainGraph> {
        (4u32..=7, 0usize..=12)
            .prop_flat_map(|(n, max_edges)| {
                let pairs: Vec<(u32, u32)> = (0..n)
                    .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                    .collect();
                let m = pairs.len();
                (
                    Just(pairs),
                    Just(max_edges),
                    proptest::collection::vec(0.0f64..1.0, m),
                    proptest::collection::vec(0.05f64..=1.0, m),
                )
            })
            .prop_map(|(pairs, max_edges, coin, probs)| {
                let edges: Vec<(u32, u32, f64)> = (0..pairs.len())
                    .filter(|&i| coin[i] < 0.75)
                    .take(max_edges)
                    .map(|i| (pairs[i].0, pairs[i].1, probs[i]))
                    .collect();
                graph(&edges)
            })
    }

    /// All of `g` as one candidate reporting every triangle.
    fn compile_whole(g: &UncertainGraph) -> (EdgeSubgraph, CompiledCandidate) {
        let all: Vec<EdgeId> = (0..g.num_edges() as EdgeId).collect();
        let sub = EdgeSubgraph::induced_by_edges(g, &all);
        let compiled = CompiledCandidate::compile(&sub, &enumerate_triangles(g));
        (sub, compiled)
    }

    fn assert_checks_match_definitions(g: &UncertainGraph) {
        let (sub, mut compiled) = compile_whole(g);
        let h = sub.graph();
        // The reported triangles in H's vertex ids, in report order.
        let triangles: Vec<Triangle> = enumerate_triangles(g)
            .iter()
            .map(|t| {
                let [a, b, c] = t.vertices().map(|v| sub.local_vertex(v).unwrap());
                Triangle::new(a, b, c)
            })
            .collect();
        let mut hits = vec![0usize; triangles.len()];
        for world in enumerate_all_worlds(h) {
            let kept = world.mask();
            let det = world.materialize(h);
            for k in 0..=3 {
                assert_eq!(
                    compiled.is_k_nucleus(kept, k),
                    detdecomp::is_k_nucleus_lenient(&det, k),
                    "g-check, k = {k}, world {kept:?} of {h:?}"
                );
                hits.fill(0);
                compiled.count_in_k_nucleus(kept, k, &mut hits);
                for (t, &hit) in triangles.iter().zip(&hits) {
                    let [a, b, c] = t.vertices();
                    // A triangle missing from the world is in none of
                    // its nuclei; only present ones need the oracle.
                    let expected =
                        world.contains_triangle(h, a, b, c) && triangle_in_k_nucleus(&det, t, k);
                    assert_eq!(
                        hit == 1,
                        expected,
                        "w-check of {t}, k = {k}, world {kept:?} of {h:?}"
                    );
                }
            }
        }
    }

    fn assert_draws_match_sampler(g: &UncertainGraph, seed: u64) {
        let (sub, compiled) = compile_whole(g);
        let sampler = WorldSampler::new(sub.graph());
        let mut compiled_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sampler_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut kept = Vec::new();
        for _ in 0..16 {
            compiled.draw(&mut compiled_rng, &mut kept);
            assert_eq!(kept, sampler.sample(&mut sampler_rng).mask());
        }
        assert_eq!(compiled_rng.next_u64(), sampler_rng.next_u64());
    }

    /// A candidate that only draws, over edges of probabilities `probs`;
    /// unlike a graph's, they may be 0.
    fn drawing_only(probs: Vec<f64>) -> CompiledCandidate {
        CompiledCandidate {
            probs,
            triangle_edges: Vec::new(),
            cliques: Vec::new(),
            cliques_of: Incidence::transpose(0, 0, "4-clique", |_| [0; 4]),
            reported: Vec::new(),
            present: Vec::new(),
            live_cliques: Vec::new(),
            clique_live: Vec::new(),
            stack: Vec::new(),
        }
    }

    #[test]
    fn skipped_draws_leave_the_stream_where_the_draws_do() {
        let mut kept = Vec::new();
        for edges in 0..=20 {
            // Certain and impossible edges still draw.
            let probs = (0..edges).map(|e| [1.0, 0.0, 0.5][e % 3]).collect();
            let candidate = drawing_only(probs);
            for worlds in 0..=5 {
                for consumed in [0, 1, 7] {
                    let mut drawn = ChaCha8Rng::seed_from_u64(edges as u64);
                    for _ in 0..consumed {
                        drawn.next_u32();
                    }
                    let mut skipped = drawn.clone();
                    for _ in 0..worlds {
                        candidate.draw(&mut drawn, &mut kept);
                    }
                    skip_draws(&mut skipped, worlds, edges);
                    for _ in 0..64 {
                        assert_eq!(
                            skipped.next_u32(),
                            drawn.next_u32(),
                            "{worlds} worlds of {edges} edges after {consumed} words"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixtures_match_the_definitions() {
        for (i, g) in fixtures().iter().enumerate() {
            assert_checks_match_definitions(g);
            assert_draws_match_sampler(g, i as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn random_graphs_match_the_definitions(g in arb_graph(), seed in 0u64..1 << 32) {
            assert_checks_match_definitions(&g);
            assert_draws_match_sampler(&g, seed);
        }
    }
}
