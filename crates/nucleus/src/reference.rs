//! The frozen eager ℓ-NuDecomp engine, kept as the Hybrid scorer's
//! oracle.
//!
//! [`decompose`] is the heap-based original the (3,4) rank shipped before
//! the generic [`ugraph::rs`] engines: a `BinaryHeap<Reverse<(κ, id)>>`
//! with lazy deletion, an **eager** full score recomputation for every
//! affected element, and a fresh allocation per gather and per DP table.
//! It runs both scorers.  The one deliberate edit since it was frozen is
//! `method_counts`, which counts the initial pass only (one entry per
//! triangle), matching
//! [`Decomposition::method_counts`](crate::Decomposition::method_counts)
//! so the engines report comparable values.
//!
//! It is the only frozen peel left.  Every peel of a monotone scorer (the
//! exact DP, at every rank) is checked against its definition instead,
//! [`crate::exact::definitional_scores`].  [`decompose`] stays for two
//! reasons:
//!
//! * **Hybrid's oracle**: the Hybrid scorer is not monotone under clique
//!   removal, so no filter defines its output, which depends on the
//!   evaluation schedule; [`ugraph::rs::peel_eager`] shares this engine's
//!   schedule.  The property suite `equivalence_proptests` below peels
//!   random graphs with the production and frozen engines, both scorers,
//!   and requires identical scores, initial scores and method counts;
//! * **perf-counter baseline**: `experiments parbench` runs [`decompose`]
//!   next to the production engine and records `reference_dp_calls`, the
//!   denominator of the deferred engine's advertised DP savings.
//!
//! It is not part of the supported API surface and makes no performance
//! claims.  Do not "improve" it — any edit here invalidates the
//! equivalence baseline and the recorded counter.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ugraph::rs::dp;
use ugraph::TriangleId;

use crate::approx::{self, ApproxMethod};
use crate::config::ScoreMethod;
use crate::decomp::DecompConfig;
use crate::error::Result;
use crate::support::SupportStructure;

/// Output of the reference engine.
#[derive(Debug, Clone)]
pub struct ReferenceDecomposition {
    /// κ(△) before peeling, indexed by triangle id.
    pub initial_scores: Vec<u32>,
    /// ℓ-nucleusness ν(△), indexed by triangle id.
    pub scores: Vec<u32>,
    /// Evaluation method of each triangle's initial κ computation (the
    /// same initial-pass semantics the production engine reports).
    pub method_counts: HashMap<ApproxMethod, usize>,
    /// Full score recomputations performed during peeling — the eager
    /// engine's equivalent of [`PeelStats::dp_calls`](crate::PeelStats::dp_calls).
    pub dp_calls: usize,
}

/// Runs the original eager ℓ-NuDecomp peeling over a prebuilt support
/// structure, at `config`'s threshold and scoring method.
pub fn decompose(
    support: &SupportStructure,
    config: &DecompConfig,
) -> Result<ReferenceDecomposition> {
    config.validate()?;
    let theta = config.threshold;
    let nt = support.num_triangles();
    let nc = support.num_cliques();
    let mut method_counts: HashMap<ApproxMethod, usize> = HashMap::new();
    let mut dp_calls = 0usize;

    let score_of = |probs: &[f64], tri_prob: f64| -> (u32, ApproxMethod) {
        match config.method {
            ScoreMethod::DynamicProgramming => (
                dp::max_k(tri_prob, probs, theta),
                ApproxMethod::DynamicProgramming,
            ),
            ScoreMethod::Hybrid(thresholds) => {
                approx::hybrid_max_k(tri_prob, probs, theta, &thresholds)
            }
        }
    };

    // Initial κ scores over all cliques (sequential, one allocation per
    // triangle — exactly the original code path).
    let mut kappa = vec![0u32; nt];
    for t in 0..nt as TriangleId {
        let probs = support.completion_probs(t);
        let (k, method) = score_of(&probs, support.triangle_prob(t));
        kappa[t as usize] = k;
        *method_counts.entry(method).or_insert(0) += 1;
    }
    let initial_scores = kappa.clone();

    // Peeling with eager recomputation.
    let mut processed = vec![false; nt];
    let mut clique_dead = vec![false; nc];
    let mut scores = vec![0u32; nt];
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
                if other == t || processed[oi] || kappa[oi] <= level {
                    continue;
                }
                let probs =
                    support.completion_probs_filtered(other, |cc| !clique_dead[cc as usize]);
                let (fresh, _) = score_of(&probs, support.triangle_prob(other));
                dp_calls += 1;
                let recomputed = fresh.max(level);
                if recomputed < kappa[oi] {
                    kappa[oi] = recomputed;
                    heap.push(Reverse((recomputed, other)));
                }
            }
        }
    }

    Ok(ReferenceDecomposition {
        initial_scores,
        scores,
        method_counts,
        dp_calls,
    })
}

/// Property suite: the production engines must be **bit-identical** to
/// the frozen [`decompose`] — scores, initial scores and method counts —
/// on random graphs, across θ, both scorers and every parallelism
/// setting.  This is the contract that lets the deferred engine skip
/// work: any observable divergence is a bug, not a tradeoff.
#[cfg(test)]
mod equivalence_proptests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::decompose;
    use crate::config::{ApproxThresholds, ScoreMethod};
    use crate::support::SupportStructure;
    use crate::{DecompConfig, DecompHandle, RankSupport};
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

    fn assert_engines_agree(g: &UncertainGraph, config_for: impl Fn(Parallelism) -> DecompConfig) {
        let support = SupportStructure::build(g);
        let oracle = decompose(&support, &config_for(Parallelism::Sequential)).unwrap();
        for par in [
            Parallelism::Sequential,
            Parallelism::fixed(2),
            Parallelism::fixed(8),
        ] {
            let handle =
                DecompHandle::from_support(Arc::new(RankSupport::Nucleus(support.clone())));
            let engine = handle.compute_at(&config_for(par)).unwrap();
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
            assert_engines_agree(&g, |par| DecompConfig::nucleus(theta).with_parallelism(par));
        }

        /// Hybrid scorer: the generic eager peel against the allocating
        /// reference (same evaluation schedule by design).
        #[test]
        fn hybrid_engine_bit_identical_to_reference(
            g in arb_graph(10, 0.8),
            theta in 0.02f64..0.95,
        ) {
            assert_engines_agree(&g, |par| {
                DecompConfig::nucleus(theta)
                    .with_method(ScoreMethod::Hybrid(ApproxThresholds::default()))
                    .with_parallelism(par)
            });
        }
    }
}
