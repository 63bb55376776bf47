//! Differential tests of the generic (r,s) peeling engine.
//!
//! The API redesign moved every decomposition — probabilistic (k,η)-core,
//! local (k,γ)-truss and ℓ-NuDecomp — onto one generic engine
//! (`ugraph::rs`), and deterministic core, truss and nucleus numbers are
//! that engine at threshold 1.0 on the certain view of a graph (every
//! edge at p = 1).  The pre-redesign peeling loops are frozen in
//! `nucleus::reference` and `detdecomp::reference`; these proptests pin
//! the generic engine **bit-identical** to the core, truss and
//! deterministic ones on random graphs, at 1, 2 and 8 worker threads
//! (the engine's counters and scores must not depend on the thread
//! count).  The nucleus rank, both scorers, is pinned to its frozen
//! engine by the `equivalence_proptests` of `nucleus::reference`.
//!
//! Case count scales with `PROPTEST_CASES` (64 by default, 1024 in the
//! thorough CI job).

use proptest::prelude::*;

use prob_nucleus_repro::detdecomp;
use prob_nucleus_repro::nucleus::{
    reference, DecompConfig, DecompSweep, Decomposition, Rank, SweepConfig,
};
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

    /// Rank (1,2): the generic engine reproduces the frozen eager
    /// (k,η)-core peel bit-identically at every thread count.
    #[test]
    fn core_matches_frozen_reference(g in arb_graph(14, 0.55), eta in 0.02f64..0.95) {
        let generic = thread_independent_scores(&g, DecompConfig::core(eta));
        let frozen = reference::eta_core_numbers(&g, eta);
        prop_assert_eq!(generic, frozen);
    }

    /// Rank (2,3): the generic engine reproduces the frozen eager
    /// (k,γ)-truss peel bit-identically at every thread count.
    #[test]
    fn truss_matches_frozen_reference(g in arb_graph(12, 0.6), gamma in 0.02f64..0.95) {
        let generic = thread_independent_scores(&g, DecompConfig::truss(gamma));
        let frozen = reference::gamma_truss_numbers(&g, gamma);
        prop_assert_eq!(generic, frozen);
    }

    /// The certain view at threshold 1.0 reproduces the frozen
    /// deterministic peels at every thread count: Batagelj–Zaveršnik
    /// core, eager heap truss and eager heap (3,4)-nucleus.
    #[test]
    fn deterministic_peels_match_frozen_references(g in arb_graph(12, 0.6)) {
        let certain = PossibleWorld::full(&g).materialize(&g);
        prop_assert_eq!(
            thread_independent_scores(&certain, DecompConfig::core(1.0)),
            detdecomp::reference::core_numbers(&g)
        );
        prop_assert_eq!(
            thread_independent_scores(&certain, DecompConfig::truss(1.0)),
            detdecomp::reference::truss_numbers(&g)
        );
        prop_assert_eq!(
            thread_independent_scores(&certain, DecompConfig::nucleus(1.0)),
            detdecomp::reference::nucleusness(&g)
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
