//! The Hybrid scorer's ℓ-NuDecomp engine.
//!
//! Algorithm 1 peels triangles in non-decreasing order of their current
//! nucleus score κ.  Exact-DP points do not run here: at every rank,
//! this one included, they read their initial κ from the support's
//! [`TailTable`](ugraph::rs::TailTable) and peel on the generic deferred
//! bucket-queue engine of [`ugraph::rs`]
//! ([`crate::decomp`]'s `generic_point`) — [`SupportStructure`]
//! implements [`RsSupport`](ugraph::rs::RsSupport), so the probabilistic
//! core and truss decompositions drive the very same loop at ranks (1,2)
//! and (2,3).  The frozen heap-based original survives as
//! [`super::reference`].
//!
//! What stays here is the engine of [`ScoreMethod::Hybrid`].  Deferral
//! needs a *monotone* scorer (removing a clique never raises κ); the
//! statistical approximations of the hybrid scorer do not share that
//! guarantee (e.g. dropping a low-probability event can *raise* a
//! Binomial tail estimate), and each triangle's method depends on its
//! completion probabilities, so neither the deferred schedule nor a
//! threshold-independent table applies.  The Hybrid scorer therefore
//! runs:
//!
//! * an initial κ pass that scores every triangle at the point's θ, in
//!   parallel chunks with one scratch arena (`ScoreScratch`) per chunk,
//!   tallying the method each triangle was scored by;
//! * the eager heap loop of the reference — recompute on every clique
//!   death, `BinaryHeap` with lazy deletion — still through the scratch
//!   arena, so it stays bit-identical to the reference by construction.
//!
//! The engine reports its work through [`PeelStats`]: deterministic
//! counters (never wall-clock) that CI diffs against a committed baseline
//! via `experiments bench-compare`, so an algorithmic-work regression
//! fails the build even though wall time is too noisy to gate on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ugraph::par;
use ugraph::TriangleId;

use crate::approx::{self, ApproxMethod};
use crate::config::{LocalConfig, ScoreMethod};
use crate::decomp::Point;
use crate::local::dp::{self, DpScratch};
use crate::support::SupportStructure;

/// Deterministic perf counters — the generic engine's, re-exported under
/// the historical path.  In this crate `dp_calls` counts peel-phase DP
/// (or hybrid) evaluations; the initial κ pass is reported through
/// [`method_counts`](super::LocalNucleusDecomposition::method_counts)
/// instead.
pub use ugraph::rs::PeelStats;

/// Every scoring method, in declaration (discriminant) order: slot `i`
/// of the initial pass's tally counts `METHODS[i]`.
const METHODS: [ApproxMethod; 5] = [
    ApproxMethod::Poisson,
    ApproxMethod::TranslatedPoisson,
    ApproxMethod::Binomial,
    ApproxMethod::Clt,
    ApproxMethod::DynamicProgramming,
];

/// Reusable scoring arena: one per worker thread (initial pass) or per
/// engine (peeling), so the steady state allocates nothing.  Scores with
/// either scorer, so the eager engine can also be checked against the
/// deferred one on the exact DP.
struct ScoreScratch {
    config: LocalConfig,
    probs: Vec<f64>,
    dp: DpScratch,
    /// Running maximum of the per-evaluation logical scratch requirement.
    peak_bytes: usize,
}

impl ScoreScratch {
    fn new(config: &LocalConfig) -> Self {
        ScoreScratch {
            config: *config,
            probs: Vec::new(),
            dp: DpScratch::new(),
            peak_bytes: 0,
        }
    }

    /// Scores triangle `t` over the cliques accepted by `filter`,
    /// returning the score and the evaluation method.  Bit-identical to
    /// scoring `support.completion_probs_filtered(t, filter)` through the
    /// allocating entry points.
    fn score<F>(
        &mut self,
        support: &SupportStructure,
        t: TriangleId,
        filter: F,
    ) -> (u32, ApproxMethod)
    where
        F: FnMut(u32) -> bool,
    {
        support.completion_probs_into(t, filter, &mut self.probs);
        let tri_prob = support.triangle_prob(t);
        let theta = self.config.theta;
        let (k, method) = match self.config.method {
            ScoreMethod::DynamicProgramming => (
                dp::max_k_with_scratch(&mut self.dp, tri_prob, &self.probs, theta),
                ApproxMethod::DynamicProgramming,
            ),
            ScoreMethod::Hybrid(thresholds) => approx::hybrid_max_k_with_scratch(
                &mut self.dp,
                tri_prob,
                &self.probs,
                theta,
                &thresholds,
            ),
        };
        // The DP tables are only materialized when the DP actually ran
        // (`max_k` returns early for sub-θ triangles without touching
        // them).
        let c = self.probs.len();
        let dp_tables = method == ApproxMethod::DynamicProgramming && tri_prob >= theta;
        let needed =
            c * std::mem::size_of::<f64>() + if dp_tables { dp::table_bytes(c) } else { 0 };
        self.peak_bytes = self.peak_bytes.max(needed);
        (k, method)
    }
}

/// Result of the initial κ pass.
struct InitialScores {
    /// κ(△) over all cliques, indexed by triangle id.
    pub kappa: Vec<u32>,
    /// Evaluation method per triangle, accumulated in triangle-id order.
    pub method_counts: HashMap<ApproxMethod, usize>,
    /// Peak logical scratch bytes of the pass.
    pub peak_scratch_bytes: usize,
}

/// Computes the initial κ score of every triangle, in parallel chunks
/// with one [`ScoreScratch`] per chunk.  The per-chunk results are merged
/// in triangle-id order ([`par::par_map_init`]'s ordered-merge contract),
/// so scores, method counts and the scratch peak are identical for every
/// [`Parallelism`](ugraph::Parallelism) setting.
fn initial_scores(support: &SupportStructure, config: &LocalConfig) -> InitialScores {
    let nt = support.num_triangles();
    let scored: Vec<(u32, ApproxMethod, usize)> = par::par_map_init(
        config.parallelism,
        nt,
        || ScoreScratch::new(config),
        |scratch, t| {
            let (k, method) = scratch.score(support, t as TriangleId, |_| true);
            (k, method, scratch.peak_bytes)
        },
    );
    let mut kappa = Vec::with_capacity(nt);
    let mut tally = [0usize; METHODS.len()];
    let mut peak_scratch_bytes = 0usize;
    for (k, method, peak) in scored {
        kappa.push(k);
        tally[method as usize] += 1;
        // Per-item values are running per-chunk maxima; the overall
        // maximum equals the maximum over individual evaluations, which
        // is independent of the chunk partition.
        peak_scratch_bytes = peak_scratch_bytes.max(peak);
    }
    // One entry per method that scored at least one triangle.
    let method_counts = METHODS
        .into_iter()
        .zip(tally)
        .filter(|&(_, n)| n > 0)
        .collect();
    InitialScores {
        kappa,
        method_counts,
        peak_scratch_bytes,
    }
}

/// One Hybrid-scorer threshold: the initial κ pass, then the eager
/// engine, with the pass's scratch peak folded into the stats.
pub(crate) fn hybrid_point(support: &SupportStructure, config: &LocalConfig) -> Point {
    debug_assert!(matches!(config.method, ScoreMethod::Hybrid(_)));
    let init = initial_scores(support, config);
    let initial_scores = init.kappa.clone();
    let (scores, mut stats) = peel_eager(support, config, init.kappa);
    stats.peak_scratch_bytes = stats.peak_scratch_bytes.max(init.peak_scratch_bytes);
    Point {
        scores,
        initial_scores,
        method_counts: init.method_counts,
        stats,
    }
}

/// The eager heap engine: the reference algorithm (recompute on every
/// clique death, `BinaryHeap` with lazy deletion) driven through the
/// scratch arena.  Used for the hybrid scorer, whose approximations are
/// not monotone under clique removal — evaluating them over different
/// alive sets than the reference could flip a borderline score, so the
/// evaluation schedule is kept identical.
fn peel_eager(
    support: &SupportStructure,
    config: &LocalConfig,
    mut kappa: Vec<u32>,
) -> (Vec<u32>, PeelStats) {
    let nt = kappa.len();
    let nc = support.num_cliques();
    let mut stats = PeelStats::default();
    let mut scratch = ScoreScratch::new(config);

    let mut scores = vec![0u32; nt];
    let mut processed = vec![false; nt];
    let mut clique_dead = vec![false; nc];
    let mut heap: BinaryHeap<Reverse<(u32, TriangleId)>> = (0..nt)
        .map(|t| Reverse((kappa[t], t as TriangleId)))
        .collect();
    let mut level = 0u32;

    while let Some(Reverse((s, t))) = heap.pop() {
        let ti = t as usize;
        if processed[ti] || s != kappa[ti] {
            continue;
        }
        processed[ti] = true;
        level = level.max(s);
        scores[ti] = level;

        for &c in support.cliques_of(t) {
            if clique_dead[c as usize] {
                continue;
            }
            clique_dead[c as usize] = true;
            for &other in &support.clique(c).triangles {
                let oi = other as usize;
                if other == t || processed[oi] {
                    continue;
                }
                if kappa[oi] <= level {
                    stats.recompute_skips += 1;
                    continue;
                }
                let (fresh, _) = scratch.score(support, other, |cc| !clique_dead[cc as usize]);
                stats.dp_calls += 1;
                let recomputed = fresh.max(level);
                if recomputed < kappa[oi] {
                    kappa[oi] = recomputed;
                    heap.push(Reverse((recomputed, other)));
                }
            }
        }
    }

    stats.peak_scratch_bytes = scratch.peak_bytes;
    (scores, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ApproxThresholds;
    use crate::decomp::generic_point;
    use ugraph::rs::TailTable;
    use ugraph::{GraphBuilder, Parallelism, UncertainGraph};

    fn complete(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, p).unwrap();
            }
        }
        b.build()
    }

    /// The exact-DP point every rank runs: initial κ off the support's
    /// tail table, then the generic deferred peel.
    fn exact_point(support: &SupportStructure, theta: f64) -> Point {
        let tails = TailTable::build(support, Parallelism::Sequential);
        generic_point(support, &tails, theta)
    }

    // The bucket-queue unit tests moved to `ugraph::rs` together with the
    // queue itself; what stays here exercises the (3,4) instantiation of
    // the exact-DP path, and the eager engine against it.

    #[test]
    fn methods_are_listed_in_discriminant_order() {
        for (i, &method) in METHODS.iter().enumerate() {
            assert_eq!(method as usize, i, "{method}");
        }
    }

    #[test]
    fn deferred_engine_skips_recomputes_via_the_cheap_bound() {
        // K5, every edge certain, θ small: every triangle has κ = 2 and
        // the whole graph peels at level 2.  Every pop of a dirty
        // triangle happens at level 2 with bound min(κ=2, alive) ≤ 2, so
        // the cheap bound resolves every single one — zero DP
        // recomputations against 5 · 3 = 15 (actually fewer after the
        // kappa ≤ level skip) in the eager engine.
        let g = complete(5, 1.0);
        let config = LocalConfig::exact(0.5);
        let support = SupportStructure::build(&g);
        let point = exact_point(&support, 0.5);
        assert!(point.initial_scores.iter().all(|&k| k == 2));
        assert!(point.scores.iter().all(|&s| s == 2));
        assert_eq!(point.stats.dp_calls, 0, "cheap bound must defeat every pop");
        assert!(point.stats.recompute_skips > 0);
        assert!(point.stats.buckets_touched >= 1);
        // No recompute ran, so the peel-phase scratch was never used: the
        // whole peak is the initial pass's, as the table scan counts it.
        let tails = TailTable::build(&support, Parallelism::Sequential);
        let (_, init_peak) = tails.initial_scores(&support, 0.5);
        assert!(init_peak > 0);
        assert_eq!(point.stats.peak_scratch_bytes, init_peak);

        let (eager_scores, eager_stats) = peel_eager(&support, &config, point.initial_scores);
        assert_eq!(point.scores, eager_scores);
        // The eager engine dodges these pops through its own kappa ≤
        // level check and counts them as skips too.
        assert_eq!(eager_stats.dp_calls, 0);
        assert!(eager_stats.recompute_skips > 0);
    }

    #[test]
    fn deferred_engine_recomputes_when_the_bound_is_inconclusive() {
        // K5 on {0,1,2,4,5} plus a pendant 4-clique {0,1,2,3}: the hub
        // triangle (0,1,2) starts at κ = 3, the pendant's side triangles
        // at κ = 1, the other K5 triangles at κ = 2.  Peeling the pendant
        // at level 1 kills one hub clique, requeueing the hub at level 1
        // where its bound min(κ=3, alive=2) = 2 > 1 is inconclusive: the
        // engine must run one batched DP to learn the hub now sits at 2.
        let mut b = GraphBuilder::new();
        for &u in &[0u32, 1, 2, 4, 5] {
            for &v in &[0u32, 1, 2, 4, 5] {
                if u < v {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
        }
        for &u in &[0u32, 1, 2] {
            b.add_edge(u, 3, 1.0).unwrap();
        }
        let g = b.build();
        let config = LocalConfig::exact(0.5);
        let support = SupportStructure::build(&g);
        let point = exact_point(&support, 0.5);
        // The table's initial κ is the per-triangle DP pass's.
        assert_eq!(
            initial_scores(&support, &config).kappa,
            point.initial_scores
        );
        let (eager, eager_stats) = peel_eager(&support, &config, point.initial_scores.clone());
        assert_eq!(point.scores, eager);
        assert!(
            point.stats.dp_calls > 0,
            "inconclusive bounds must recompute"
        );
        assert!(
            point.stats.dp_calls <= eager_stats.dp_calls,
            "deferral must never recompute more than the eager engine \
             ({} vs {})",
            point.stats.dp_calls,
            eager_stats.dp_calls
        );
        assert!(point.stats.peak_scratch_bytes > 0);
    }

    #[test]
    fn stats_are_deterministic_across_repeat_runs() {
        let g = complete(6, 0.7);
        let support = SupportStructure::build(&g);
        let a = exact_point(&support, 0.2);
        let b = exact_point(&support, 0.2);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn initial_pass_is_identical_for_every_parallelism() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let cfg = ugraph::generators::PlantedCliqueConfig {
            num_vertices: 40,
            background_edges: 80,
            num_communities: 4,
            community_size: (5, 8),
            overlap: 2,
        };
        let edges = ugraph::generators::planted_clique_edges(&cfg, &mut rng);
        let g = ugraph::generators::assign_probabilities(
            &edges,
            40,
            &ugraph::generators::ProbabilityModel::Uniform {
                low: 0.2,
                high: 1.0,
            },
            &mut rng,
        );
        let support = SupportStructure::build(&g);
        // Small A and B spread the triangles over several methods, so the
        // per-method tally is exercised beyond its DP slot.
        let thresholds = ApproxThresholds {
            a: 5,
            b: 3,
            ..ApproxThresholds::default()
        };
        let config = LocalConfig {
            theta: 0.15,
            method: ScoreMethod::Hybrid(thresholds),
            parallelism: Parallelism::Sequential,
        };
        let base = initial_scores(&support, &config);
        assert!(base.method_counts.len() >= 3, "{:?}", base.method_counts);
        assert!(base.method_counts.values().all(|&n| n > 0));
        assert_eq!(
            base.method_counts.values().sum::<usize>(),
            support.num_triangles()
        );
        let exact =
            TailTable::build(&support, Parallelism::Sequential).initial_scores(&support, 0.15);
        for threads in [2, 8] {
            let par = initial_scores(
                &support,
                &LocalConfig {
                    parallelism: Parallelism::fixed(threads),
                    ..config
                },
            );
            assert_eq!(par.kappa, base.kappa, "threads = {threads}");
            assert_eq!(par.method_counts, base.method_counts);
            assert_eq!(par.peak_scratch_bytes, base.peak_scratch_bytes);
            let tails = TailTable::build(&support, Parallelism::fixed(threads));
            assert_eq!(tails.initial_scores(&support, 0.15), exact);
        }
    }
}

/// Property suite: the production engine must be **bit-identical** to the
/// frozen [`reference`](super::reference) engine — scores, initial scores
/// and method counts — on random graphs, across θ, both scorers and every
/// parallelism setting.  This is the contract that lets the deferred
/// engine skip work: any observable divergence is a bug, not a tradeoff.
#[cfg(test)]
mod equivalence_proptests {
    use proptest::prelude::*;

    use super::super::reference;
    use super::super::LocalNucleusDecomposition;
    use crate::config::LocalConfig;
    use crate::support::SupportStructure;
    use ugraph::{GraphBuilder, Parallelism, UncertainGraph};

    /// A random probabilistic graph dense enough to grow 4-cliques.
    fn arb_graph(max_v: u32, density: f64) -> impl Strategy<Value = UncertainGraph> {
        (4..=max_v)
            .prop_flat_map(move |n| {
                let pairs: Vec<(u32, u32)> = (0..n)
                    .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                    .collect();
                let m = pairs.len();
                (
                    Just(pairs),
                    proptest::collection::vec(0.0f64..1.0, m),
                    proptest::collection::vec(0.01f64..=1.0, m),
                )
            })
            .prop_map(move |(pairs, coin, probs)| {
                let mut b = GraphBuilder::new();
                for (i, (u, v)) in pairs.into_iter().enumerate() {
                    if coin[i] < density {
                        b.add_edge(u, v, probs[i]).unwrap();
                    }
                }
                b.build()
            })
    }

    fn assert_engines_agree(g: &UncertainGraph, config_for: impl Fn(Parallelism) -> LocalConfig) {
        let support = SupportStructure::build(g);
        let oracle = reference::decompose(&support, &config_for(Parallelism::Sequential)).unwrap();
        for par in [
            Parallelism::Sequential,
            Parallelism::fixed(2),
            Parallelism::fixed(8),
        ] {
            let engine =
                LocalNucleusDecomposition::with_support(support.clone(), &config_for(par)).unwrap();
            prop_assert_eq!(engine.scores(), &oracle.scores[..], "parallelism = {}", par);
            prop_assert_eq!(engine.initial_scores(), &oracle.initial_scores[..]);
            prop_assert_eq!(engine.method_counts(), &oracle.method_counts);
        }
    }

    proptest! {
        // Default config: 64 cases, scaled up via PROPTEST_CASES in CI's
        // thorough job.
        #![proptest_config(ProptestConfig::default())]

        /// Exact-DP scorer: the deferred bucket-queue engine against the
        /// eager heap reference.
        #[test]
        fn dp_engine_bit_identical_to_reference(
            g in arb_graph(11, 0.75),
            theta in 0.02f64..0.95,
        ) {
            assert_engines_agree(&g, |par| LocalConfig::exact(theta).with_parallelism(par));
        }

        /// Hybrid scorer: the eager scratch-arena engine against the
        /// allocating reference (same evaluation schedule by design).
        #[test]
        fn hybrid_engine_bit_identical_to_reference(
            g in arb_graph(10, 0.8),
            theta in 0.02f64..0.95,
        ) {
            assert_engines_agree(&g, |par| {
                LocalConfig::approximate(theta).with_parallelism(par)
            });
        }
    }
}
