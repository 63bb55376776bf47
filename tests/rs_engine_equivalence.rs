//! Differential tests of the generic (r,s) peeling engine against the
//! definition.
//!
//! Every decomposition — probabilistic (k,η)-core, local (k,γ)-truss and
//! ℓ-NuDecomp — runs on one generic engine (`ugraph::rs`), and
//! deterministic core, truss and nucleus numbers are that engine at
//! threshold 1.0 on the certain view of a graph (every edge at p = 1).
//! The peel is a fast way to a number the paper defines by a filter:
//! the largest k for which an element lies in a maximal set whose every
//! element scores ≥ k over the set's cells.  These proptests pin the
//! exact-DP engine **bit-identical** to that filter,
//! `nucleus::exact::definitional_scores`, at all three ranks and on the
//! certain view, on random graphs at 1, 2 and 8 worker threads (the
//! engine's counters and scores must not depend on the thread count).
//! The Hybrid scorer, which no filter defines, is pinned to its frozen
//! engine by the `equivalence_proptests` of `nucleus::reference`.  The
//! `*_frozen_reference*` tests keep the names they had when frozen peels
//! were their reference, so that the ids of the tests stay stable.
//!
//! Case count scales with `PROPTEST_CASES` (64 by default, 1024 in the
//! thorough CI job).

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::exact::definitional_scores;
use prob_nucleus_repro::nucleus::{DecompConfig, DecompSweep, Decomposition, Rank, SweepConfig};
use prob_nucleus_repro::ugraph::{GraphBuilder, Parallelism, PossibleWorld, UncertainGraph};

/// Strategy: a random probabilistic graph with a biased-dense edge set so
/// triangles and 4-cliques actually appear.
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

/// Runs the unified decomposition at 1/2/8 threads and asserts that the
/// scores (and deterministic counters) are thread-independent, returning
/// the sequential scores.
fn thread_independent_scores(g: &UncertainGraph, config: DecompConfig) -> Vec<u32> {
    let rank = config.rank;
    let base = Decomposition::compute(g, &config.with_parallelism(Parallelism::Sequential))
        .expect("valid config");
    for threads in [2usize, 8] {
        let par = Decomposition::compute(g, &config.with_parallelism(Parallelism::fixed(threads)))
            .expect("valid config");
        assert_eq!(par.scores(), base.scores(), "{rank} scores x{threads}");
        assert_eq!(
            par.initial_scores(),
            base.initial_scores(),
            "{rank} initial scores x{threads}"
        );
        assert_eq!(
            par.peel_stats(),
            base.peel_stats(),
            "{rank} counters x{threads}"
        );
    }
    base.scores().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Rank (1,2): the generic engine's (k,η)-core equals the
    /// definitional filter bit for bit at every thread count.
    #[test]
    fn core_matches_frozen_reference(g in arb_graph(14, 0.55), eta in 0.02f64..0.95) {
        let generic = thread_independent_scores(&g, DecompConfig::core(eta));
        prop_assert_eq!(generic, definitional_scores(&g, Rank::Core, eta));
    }

    /// Rank (2,3): the generic engine's (k,γ)-truss equals the
    /// definitional filter bit for bit at every thread count.
    #[test]
    fn truss_matches_frozen_reference(g in arb_graph(12, 0.6), gamma in 0.02f64..0.95) {
        let generic = thread_independent_scores(&g, DecompConfig::truss(gamma));
        prop_assert_eq!(generic, definitional_scores(&g, Rank::Truss, gamma));
    }

    /// Rank (3,4): the generic engine's exact-DP ℓ-NuDecomp equals the
    /// definitional filter bit for bit at every thread count.
    #[test]
    fn nucleus_matches_the_definition(g in arb_graph(11, 0.75), theta in 0.02f64..0.95) {
        let generic = thread_independent_scores(&g, DecompConfig::nucleus(theta));
        prop_assert_eq!(generic, definitional_scores(&g, Rank::Nucleus, theta));
    }

    /// The certain view at threshold 1.0 equals the definitional filter
    /// at every thread count: the deterministic core, truss and
    /// (3,4)-nucleus numbers.
    #[test]
    fn deterministic_peels_match_frozen_references(g in arb_graph(12, 0.6)) {
        let certain = PossibleWorld::full(&g).materialize(&g);
        prop_assert_eq!(
            thread_independent_scores(&certain, DecompConfig::core(1.0)),
            definitional_scores(&certain, Rank::Core, 1.0)
        );
        prop_assert_eq!(
            thread_independent_scores(&certain, DecompConfig::truss(1.0)),
            definitional_scores(&certain, Rank::Truss, 1.0)
        );
        prop_assert_eq!(
            thread_independent_scores(&certain, DecompConfig::nucleus(1.0)),
            definitional_scores(&certain, Rank::Nucleus, 1.0)
        );
    }

    /// A multi-threshold sweep at any rank equals the independent
    /// single-threshold runs point for point.
    #[test]
    fn sweeps_match_independent_runs(g in arb_graph(10, 0.6)) {
        let grid = vec![0.05, 0.2, 0.5, 0.8];
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let sweep = DecompSweep::compute(&g, &SweepConfig::exact(grid.clone()).with_rank(rank))
                .expect("valid sweep");
            for (point, &threshold) in sweep.points().iter().zip(&grid) {
                let config = match rank {
                    Rank::Core => DecompConfig::core(threshold),
                    Rank::Truss => DecompConfig::truss(threshold),
                    Rank::Nucleus => DecompConfig::nucleus(threshold),
                };
                let solo = Decomposition::compute(&g, &config).expect("valid config");
                prop_assert_eq!(
                    point.scores(),
                    solo.scores(),
                    "{} at threshold {}",
                    rank,
                    threshold
                );
            }
        }
    }
}
