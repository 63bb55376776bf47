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
//! into flat triangle and 4-clique arrays and judges the worlds in
//! batches of up to 64, bit-sliced (Biham, "A fast new DES implementation
//! in software", FSE 1997): world `w` of a batch is bit `w` of one `u64`
//! lane mask per edge, triangle and 4-clique.  Both indicators are word
//! operations on those masks, "in at least k live 4-cliques" is a
//! bit-sliced binary counter, the g-check's connectivity is a
//! lane-parallel multi-source search (Then et al., "The More the Merrier:
//! Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014), and a
//! batch's hits are population counts.  The draws are the per-world
//! draws, so every verdict is that of its world.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ugraph::cliques::four_clique_extensions;
use ugraph::rs::Incidence;
use ugraph::triangles::TriangleTable;
use ugraph::{
    EdgeId, EdgeSubgraph, Parallelism, PossibleWorld, Triangle, TriangleId, UncertainGraph,
    WorldSampler,
};

/// Worlds per batch: one lane per bit of a `u64`.
const LANES: usize = u64::BITS as usize;

/// The Hoeffding sample size `⌈ln(2/δ) / (2ε²)⌉` (Lemma 4).
pub fn hoeffding_sample_size(epsilon: f64, delta: f64) -> usize {
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
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

/// The sizes of the batches `n` worlds are judged in: full batches of
/// [`LANES`] worlds, then the rest.
fn lane_batches(n: usize) -> impl Iterator<Item = usize> {
    (0..n)
        .step_by(LANES)
        .map(move |start| (n - start).min(LANES))
}

/// The mask of the first `worlds ≤ 64` lanes.
fn lanes(worlds: usize) -> u64 {
    u64::MAX.checked_shr((LANES - worlds) as u32).unwrap_or(0)
}

/// A candidate subgraph `H` of Algorithms 2 and 3, compiled once so that
/// its sampled worlds are judged 64 at a time on lane masks rather than
/// on materialized graphs.
///
/// It holds H's edge probabilities in edge-id order, every triangle of H
/// as its three edge ids, every 4-clique of H as its four triangle ids
/// with the triangle → 4-cliques incidence, and the H-triangle id of each
/// triangle the candidate reports.  A triangle is in a world iff its
/// three edges are kept, and a 4-clique iff its four triangles are, since
/// they cover its six edges.
///
/// The lane masks are sized here and rewritten by every batch, so
/// judging a batch allocates nothing.  Bit `w` of a mask is world `w` of
/// the batch; lanes outside the batch's `valid` mask are zero in every
/// triangle and 4-clique mask.
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
    /// Per edge: the worlds that keep it.
    kept: Vec<u64>,
    /// Per triangle: the worlds it is present in and, in the level-k
    /// filter, not yet dropped from.
    present: Vec<u64>,
    /// Per 4-clique: the worlds its four triangles are present in and,
    /// in the level-k filter, none was dropped from.
    live: Vec<u64>,
    /// Per triangle: the worlds the connectivity search reached it in.
    reach: Vec<u64>,
    /// Per triangle: the worlds it still has to be propagated in (search)
    /// or re-checked in (filter); nonzero exactly while it is on `stack`.
    pending: Vec<u64>,
    /// Work list of the connectivity search and of the level-k filter.
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
            kept: vec![0; h.num_edges()],
            triangle_edges,
            live: vec![0; cliques.len()],
            cliques,
            cliques_of,
            reported,
            present: vec![0; n],
            reach: vec![0; n],
            pending: vec![0; n],
            stack: Vec::with_capacity(n),
        }
    }

    /// Per reported triangle, the fraction of `n` worlds drawn from `rng`
    /// in which it satisfies the g-indicator `1_g(H, △, k)`: it is present
    /// and the world is a k-nucleus ([`Self::k_nucleus_lanes`]).
    pub(crate) fn global_estimates<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: usize,
        k: u32,
    ) -> Vec<f64> {
        let mut hits = vec![0usize; self.reported.len()];
        for worlds in lane_batches(n) {
            let valid = self.draw_lanes(rng, worlds);
            let ok = self.k_nucleus_lanes(valid, k);
            self.count_present_lanes(ok, &mut hits);
        }
        hits.iter().map(|&hit| hit as f64 / n as f64).collect()
    }

    /// Per reported triangle, the fraction of `n` worlds drawn from `rng`
    /// in which it satisfies the w-indicator `1_w(H, △, k)`: it lies in a
    /// deterministic k-nucleus of the world
    /// ([`Self::count_in_k_nucleus_lanes`]).
    pub(crate) fn weakly_global_estimates<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: usize,
        k: u32,
    ) -> Vec<f64> {
        let mut hits = vec![0usize; self.reported.len()];
        for worlds in lane_batches(n) {
            let valid = self.draw_lanes(rng, worlds);
            self.count_in_k_nucleus_lanes(valid, k, &mut hits);
        }
        hits.iter().map(|&hit| hit as f64 / n as f64).collect()
    }

    /// Draws `worlds ≤ 64` worlds of H into the edge masks, world `w`
    /// into lane `w`, and returns the mask of those lanes.  It makes
    /// exactly the calls `worlds` calls of [`WorldSampler::sample`] make —
    /// one `rng.gen::<f64>() < p` per edge, in edge-id order, world after
    /// world — so every lane and the stream position after the draws are
    /// the sampler's, bit for bit.  Lanes `≥ worlds` stay zero.
    fn draw_lanes<R: Rng + ?Sized>(&mut self, rng: &mut R, worlds: usize) -> u64 {
        assert!(worlds <= LANES, "{worlds} worlds exceed one batch");
        self.kept.fill(0);
        for w in 0..worlds {
            for (mask, &p) in self.kept.iter_mut().zip(&self.probs) {
                // Branch-free: the coin is unpredictable.
                *mask |= u64::from(rng.gen::<f64>() < p) << w;
            }
        }
        lanes(worlds)
    }

    /// Builds the triangle and 4-clique masks of the `valid` lanes from
    /// the edge masks and returns the lanes with a present triangle.
    fn load_lanes(&mut self, valid: u64) -> u64 {
        let kept = &self.kept;
        let mut any = 0;
        for (present, edges) in self.present.iter_mut().zip(&self.triangle_edges) {
            *present = edges.iter().fold(valid, |m, &e| m & kept[e as usize]);
            any |= *present;
        }
        let present = &self.present;
        for (live, triangles) in self.live.iter_mut().zip(&self.cliques) {
            *live = triangles.iter().fold(!0, |m, &t| m & present[t as usize]);
        }
        any
    }

    /// The lanes in which triangle `t` lies in at least `k` live
    /// 4-cliques.  A bit-sliced binary counter sums its cliques' live
    /// masks — plane `j` holds bit `j` of every lane's count, carries
    /// ripple up — and the count is compared with `k` from the top plane
    /// down: O(d log d) word operations for a triangle in `d` cliques,
    /// whatever `k` is.
    fn at_least_k_live(&self, t: TriangleId, k: u32) -> u64 {
        let cliques = self.cliques_of.list(t);
        if k == 0 {
            return !0;
        }
        if k as usize > cliques.len() {
            return 0;
        }
        // ⌈log₂(d + 1)⌉ planes hold counts up to d; d < 2^32.
        let bits = (usize::BITS - cliques.len().leading_zeros()) as usize;
        let mut planes = [0u64; 32];
        for &c in cliques {
            let mut carry = self.live[c as usize];
            for plane in &mut planes[..bits] {
                if carry == 0 {
                    break;
                }
                (*plane, carry) = (*plane ^ carry, *plane & carry);
            }
        }
        let (mut greater, mut equal) = (0, !0);
        for (j, &plane) in planes[..bits].iter().enumerate().rev() {
            if k >> j & 1 == 1 {
                equal &= plane;
            } else {
                greater |= equal & plane;
                equal &= !plane;
            }
        }
        greater | equal
    }

    /// The world condition of the g-indicator `1_g(G, △, k)` on the
    /// `valid` lanes of the drawn batch: the lanes whose world has a
    /// triangle, in which every present triangle lies in at least `k`
    /// present 4-cliques, and in which the present triangles form one
    /// component under present 4-cliques.  Edges outside every 4-clique
    /// are ignored, as [`crate::exact::is_k_nucleus_lenient`] ignores
    /// them on the materialized world.
    fn k_nucleus_lanes(&mut self, valid: u64, k: u32) -> u64 {
        let mut ok = self.load_lanes(valid);
        for t in 0..self.present.len() {
            let present = self.present[t] & ok;
            if present != 0 {
                ok &= !present | self.at_least_k_live(t as TriangleId, k);
            }
        }
        if ok == 0 {
            return 0;
        }
        // Search every remaining lane at once from its first present
        // triangle, by ascending id; a triangle is propagated again
        // through its live cliques whenever it gains lanes.
        let mut unseen = ok;
        self.stack.clear();
        for t in 0..self.present.len() {
            let first = self.present[t] & unseen;
            unseen &= !first;
            self.reach[t] = first;
            self.pending[t] = first;
            if first != 0 {
                self.stack.push(t as TriangleId);
            }
        }
        while let Some(t) = self.stack.pop() {
            let lanes = std::mem::take(&mut self.pending[t as usize]);
            for &c in self.cliques_of.list(t) {
                let spread = lanes & self.live[c as usize];
                if spread == 0 {
                    continue;
                }
                for &u in &self.cliques[c as usize] {
                    let u = u as usize;
                    let gained = spread & !self.reach[u];
                    if gained != 0 {
                        self.reach[u] |= gained;
                        if self.pending[u] == 0 {
                            self.stack.push(u as TriangleId);
                        }
                        self.pending[u] |= gained;
                    }
                }
            }
        }
        for (&present, &reach) in self.present.iter().zip(&self.reach) {
            ok &= !present | reach;
        }
        ok
    }

    /// Adds to `hits[i]` the lanes of `ok` in which reported triangle `i`
    /// is present, after [`Self::k_nucleus_lanes`] loaded the batch.
    fn count_present_lanes(&self, ok: u64, hits: &mut [usize]) {
        for (hit, &t) in hits.iter_mut().zip(&self.reported) {
            *hit += (self.present[t as usize] & ok).count_ones() as usize;
        }
    }

    /// The w-indicator `1_w(G, △, k)` on the `valid` lanes of the drawn
    /// batch: adds to `hits[i]` the lanes in which reported triangle `i`
    /// lies in a deterministic k-nucleus of the world, that is in a
    /// present 4-clique surviving the level-k filter.  The filter drops
    /// every present triangle in fewer than `k` live 4-cliques, and a
    /// dropped triangle kills its 4-cliques, until no triangle is short;
    /// the survivors are exactly the triangles of nucleusness κ(△) ≥ k
    /// (Sarıyüce et al., WWW 2015).  Lane by lane: a pop drops the
    /// triangle from the lanes where it is short, kills its cliques
    /// there, and queues the clique-mates in those lanes.
    fn count_in_k_nucleus_lanes(&mut self, valid: u64, k: u32, hits: &mut [usize]) {
        self.load_lanes(valid);
        self.stack.clear();
        for t in 0..self.present.len() {
            self.pending[t] = self.present[t];
            if self.present[t] != 0 {
                self.stack.push(t as TriangleId);
            }
        }
        while let Some(t) = self.stack.pop() {
            let lanes = std::mem::take(&mut self.pending[t as usize]);
            let short = lanes & self.present[t as usize] & !self.at_least_k_live(t, k);
            if short == 0 {
                continue;
            }
            self.present[t as usize] &= !short;
            for &c in self.cliques_of.list(t) {
                let killed = self.live[c as usize] & short;
                if killed == 0 {
                    continue;
                }
                self.live[c as usize] &= !killed;
                for &u in &self.cliques[c as usize] {
                    let u = u as usize;
                    let lost = killed & self.present[u];
                    if lost != 0 {
                        if self.pending[u] == 0 {
                            self.stack.push(u as TriangleId);
                        }
                        self.pending[u] |= lost;
                    }
                }
            }
        }
        for (hit, &t) in hits.iter_mut().zip(&self.reported) {
            *hit += self.in_k_nucleus_lanes(t).count_ones() as usize;
        }
    }

    /// The lanes in which triangle `t` is present in a live 4-clique;
    /// after the level-k filter, those in which it lies in a k-nucleus.
    fn in_k_nucleus_lanes(&self, t: TriangleId) -> u64 {
        let live = self
            .cliques_of
            .list(t)
            .iter()
            .fold(0, |m, &c| m | self.live[c as usize]);
        self.present[t as usize] & live
    }
}

/// Moves `rng` to where drawing `worlds` worlds of a candidate of `edges`
/// edges ([`CompiledCandidate::draw_lanes`], in any batches) leaves it,
/// without drawing them: a world is one `rng.gen::<f64>()` per edge,
/// which reads one `next_u64`, two stream words.  The seek costs at most
/// one block refill.
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
    fn lane_batches_are_full_words_then_the_rest() {
        let batches = |n| lane_batches(n).collect::<Vec<_>>();
        assert_eq!(batches(0), []);
        assert_eq!(batches(1), [1]);
        assert_eq!(batches(64), [64]);
        assert_eq!(batches(129), [64, 64, 1]);
        assert_eq!(batches(200), [64, 64, 64, 8]);
        assert_eq!([lanes(0), lanes(1), lanes(37)], [0, 1, (1 << 37) - 1]);
        assert_eq!(lanes(64), u64::MAX);
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

/// Definitional suite for the lane kernel of [`CompiledCandidate`]: every
/// possible world of tiny graphs is packed into lanes, 64 and again 37 to
/// a word, and for every `k ∈ 0..=5` and `u32::MAX` each lane's g-verdict
/// must equal [`crate::exact::is_k_nucleus_lenient`] on the materialized
/// world and each lane's w-membership of each triangle must equal
/// membership in [`crate::exact::k_nucleus_triangles`] there, asked once
/// per world and k.  Lane draws must consume the RNG stream exactly as
/// [`WorldSampler::sample`] does, batch boundaries included, and
/// [`skip_draws`] must leave it where the draws it replaces do.  Scales
/// with `PROPTEST_CASES` (64 by default).
#[cfg(test)]
mod compiled_world_checks {
    use proptest::prelude::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use ugraph::possible_world::enumerate_all_worlds;
    use ugraph::rs::Incidence;
    use ugraph::triangles::enumerate_triangles;
    use ugraph::{EdgeId, EdgeSubgraph, GraphBuilder, Triangle, UncertainGraph, WorldSampler};

    use super::{lane_batches, lanes, skip_draws, CompiledCandidate, LANES};
    use crate::exact::{is_k_nucleus_lenient, k_nucleus_triangles};

    /// Every k the checks are compared at: `u32::MAX` exceeds every
    /// triangle's clique count.
    const KS: [u32; 7] = [0, 1, 2, 3, 4, 5, u32::MAX];

    /// World counts around the batch boundaries, and the paper's n.
    const WORLD_COUNTS: [usize; 8] = [0, 1, 63, 64, 65, 128, 129, 200];

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
    /// the triangle (0, 1, 2), a triangle-free graph, and a four-page
    /// book: the triangle (0, 1, 2) with apexes 3–6, each joined to all
    /// three of its vertices.  The book has 15 edges, like K6, and its
    /// spine lies in four 4-cliques, so its live-clique counter takes
    /// three bit planes.
    fn fixtures() -> Vec<UncertainGraph> {
        let mut book = vec![(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.7)];
        for apex in 3..=6 {
            for v in 0..3 {
                book.push((v, apex, 0.4 + 0.1 * f64::from(v)));
            }
        }
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
            graph(&book),
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

    /// What the definitions say of one world: which reported triangles
    /// are present and, per k of [`KS`], whether the world is a k-nucleus
    /// and which reported triangles lie in one of its k-nuclei.
    struct Verdicts {
        present: Vec<bool>,
        g: [bool; KS.len()],
        w: [Vec<bool>; KS.len()],
    }

    /// Bit `w` of the result is `bit(w)`, for the lanes of `valid`.
    fn pack(valid: u64, bit: impl Fn(usize) -> bool) -> u64 {
        (0..LANES)
            .filter(|&w| valid >> w & 1 == 1 && bit(w))
            .fold(0, |m, w| m | 1 << w)
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
        let worlds: Vec<_> = enumerate_all_worlds(h).collect();
        let verdicts: Vec<Verdicts> = worlds
            .iter()
            .map(|world| {
                let det = world.materialize(h);
                let present: Vec<bool> = triangles
                    .iter()
                    .map(|t| {
                        let [a, b, c] = t.vertices();
                        world.contains_triangle(h, a, b, c)
                    })
                    .collect();
                // A triangle missing from the world is in none of its
                // nuclei.
                let w = KS.map(|k| {
                    let nuclei = k_nucleus_triangles(&det, k);
                    triangles
                        .iter()
                        .zip(&present)
                        .map(|(t, &p)| p && nuclei.binary_search(t).is_ok())
                        .collect()
                });
                let g = KS.map(|k| is_k_nucleus_lenient(&det, k));
                Verdicts { present, g, w }
            })
            .collect();

        let judged: Vec<_> = worlds.iter().zip(&verdicts).collect();
        let mut hits = vec![0usize; triangles.len()];
        for per_word in [LANES, 37] {
            for chunk in judged.chunks(per_word) {
                let valid = lanes(chunk.len());
                // Every lane outside the batch keeps every edge, so only
                // `valid` keeps those lanes out of the verdicts.
                for (e, mask) in compiled.kept.iter_mut().enumerate() {
                    *mask = !valid | pack(valid, |w| chunk[w].0.contains_edge(e as EdgeId));
                }
                let at = |w: usize| match chunk.get(w) {
                    Some((world, _)) => format!("world {:?} of {h:?}", world.mask()),
                    None => format!("lane {w}, outside a batch of {}", chunk.len()),
                };
                for (i, &k) in KS.iter().enumerate() {
                    let ok = compiled.k_nucleus_lanes(valid, k);
                    let want = pack(valid, |w| chunk[w].1.g[i]);
                    if ok != want {
                        let w = (ok ^ want).trailing_zeros() as usize;
                        panic!("g-check, k = {k}, {}", at(w));
                    }
                    hits.fill(0);
                    compiled.count_present_lanes(ok, &mut hits);
                    for (t, &hit) in hits.iter().enumerate() {
                        let want = pack(ok, |w| chunk[w].1.present[t]);
                        assert_eq!(hit, want.count_ones() as usize, "g-hits of {t}, k = {k}");
                    }

                    hits.fill(0);
                    compiled.count_in_k_nucleus_lanes(valid, k, &mut hits);
                    for (t, &hit) in hits.iter().enumerate() {
                        let got = compiled.in_k_nucleus_lanes(compiled.reported[t]);
                        let want = pack(valid, |w| chunk[w].1.w[i][t]);
                        if got != want {
                            let w = (got ^ want).trailing_zeros() as usize;
                            panic!("w-check of {}, k = {k}, {}", triangles[t], at(w));
                        }
                        assert_eq!(hit, want.count_ones() as usize, "w-hits of {t}, k = {k}");
                    }
                }
            }
        }
    }

    /// Lane `w` of every edge mask.
    fn lane(compiled: &CompiledCandidate, w: usize) -> Vec<bool> {
        compiled.kept.iter().map(|m| m >> w & 1 == 1).collect()
    }

    fn assert_draws_match_sampler(g: &UncertainGraph, seed: u64) {
        let (sub, mut compiled) = compile_whole(g);
        let sampler = WorldSampler::new(sub.graph());
        let m = g.num_edges();
        for worlds in WORLD_COUNTS {
            let mut drawn = ChaCha8Rng::seed_from_u64(seed);
            let mut sampled = drawn.clone();
            let mut skipped = drawn.clone();
            for batch in lane_batches(worlds) {
                assert_eq!(compiled.draw_lanes(&mut drawn, batch), lanes(batch));
                for w in 0..LANES {
                    let want = if w < batch {
                        sampler.sample(&mut sampled).mask().to_vec()
                    } else {
                        vec![false; m]
                    };
                    assert_eq!(lane(&compiled, w), want, "lane {w} of {worlds} worlds");
                }
            }
            skip_draws(&mut skipped, worlds, m);
            for _ in 0..64 {
                let word = drawn.next_u32();
                assert_eq!(word, sampled.next_u32(), "after {worlds} worlds");
                assert_eq!(word, skipped.next_u32(), "after {worlds} worlds");
            }
        }
    }

    /// A candidate that only draws, over edges of probabilities `probs`;
    /// unlike a graph's, they may be 0.
    fn drawing_only(probs: Vec<f64>) -> CompiledCandidate {
        CompiledCandidate {
            kept: vec![0; probs.len()],
            probs,
            triangle_edges: Vec::new(),
            cliques: Vec::new(),
            cliques_of: Incidence::transpose(0, 0, "4-clique", |_| [0; 4]),
            reported: Vec::new(),
            present: Vec::new(),
            live: Vec::new(),
            reach: Vec::new(),
            pending: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Lane draws over certain and impossible edges, across batch
    /// boundaries: each lane is the world the sampler's calls draw (one
    /// `gen::<f64>() < p` per edge, which no graph can make at p = 0),
    /// and the stream stands where those calls and [`skip_draws`] leave
    /// it.
    #[test]
    fn skipped_draws_leave_the_stream_where_the_draws_do() {
        for edges in 0..=20 {
            let probs: Vec<f64> = (0..edges).map(|e| [1.0, 0.0, 0.5][e % 3]).collect();
            let mut candidate = drawing_only(probs.clone());
            for worlds in WORLD_COUNTS {
                for consumed in [0, 1, 7] {
                    let mut drawn = ChaCha8Rng::seed_from_u64(edges as u64);
                    for _ in 0..consumed {
                        drawn.next_u32();
                    }
                    let mut sampled = drawn.clone();
                    let mut skipped = drawn.clone();
                    for batch in lane_batches(worlds) {
                        candidate.draw_lanes(&mut drawn, batch);
                        for w in 0..LANES {
                            let want: Vec<bool> = if w < batch {
                                probs.iter().map(|&p| sampled.gen::<f64>() < p).collect()
                            } else {
                                vec![false; edges]
                            };
                            assert_eq!(lane(&candidate, w), want, "lane {w} of {worlds} worlds");
                        }
                    }
                    skip_draws(&mut skipped, worlds, edges);
                    for _ in 0..64 {
                        let word = drawn.next_u32();
                        let at = format!("{worlds} worlds of {edges} edges after {consumed} words");
                        assert_eq!(word, sampled.next_u32(), "{at}");
                        assert_eq!(word, skipped.next_u32(), "{at}");
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
