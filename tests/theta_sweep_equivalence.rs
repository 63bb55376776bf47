//! Differential + metamorphic test suite for nucleus-rank θ sweeps.
//!
//! Two contracts, enforced on random graphs:
//!
//! * **Differential**: every per-θ slice of a [`DecompSweep`] — scores,
//!   initial scores, method counts and perf counters — must be
//!   **bit-identical** to an independent [`Decomposition::compute`] at
//!   that θ, for the exact-DP and the hybrid scorer, at 1, 2 and 8
//!   worker threads.  The sweep may
//!   amortize the support build and reschedule work across grid points,
//!   but it must never change a single observable result.
//!
//! * **Metamorphic monotonicity**: Definition 5 gives
//!   `Pr[△ ∧ ζ ≥ k] ≥ θ` — a larger θ can only shrink the qualifying
//!   set, so κ_θ(△) (and, for the monotone DP scorer, ν_θ(△)) is
//!   non-increasing in θ.  Every score row of the sweep must therefore
//!   be sorted non-increasing across the grid.  For the hybrid scorer
//!   the *initial* scores share the guarantee (the approximation tail of
//!   a fixed alive set is a fixed function of k, so its max-k is
//!   monotone in θ); final hybrid scores have no such proof, so they are
//!   only checked differentially.
//!
//! Case counts scale with `PROPTEST_CASES` (64 locally, 1024 in the
//! thorough CI job).

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::SweepConfig;
use prob_nucleus_repro::ugraph::{GraphBuilder, Parallelism, UncertainGraph};
use prob_nucleus_repro::{DecompConfig, DecompSweep, Decomposition};

/// Thread counts every property is exercised at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

/// A valid θ grid: 1..=5 values in (0, 1], sorted strictly ascending.
fn arb_grid() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..=1.0, 1..=5).prop_map(|mut thetas| {
        thetas.sort_by(|a, b| a.partial_cmp(b).expect("grid values are finite"));
        thetas.dedup();
        thetas
    })
}

/// The differential check: one sweep vs one independent decomposition
/// per grid point, at every thread count.
fn assert_sweep_matches_independent_runs(
    g: &UncertainGraph,
    grid: &[f64],
    config_for: impl Fn(Vec<f64>) -> SweepConfig,
) {
    // The independent oracle runs sequentially; per-θ results are
    // thread-count-independent anyway (tests/parallel_equivalence.rs).
    let solo: Vec<Decomposition> = grid
        .iter()
        .map(|&theta| {
            let local = DecompConfig::nucleus(theta)
                .with_method(config_for(vec![theta]).method)
                .with_parallelism(Parallelism::Sequential);
            Decomposition::compute(g, &local).expect("valid config")
        })
        .collect();

    for threads in THREAD_COUNTS {
        let config = config_for(grid.to_vec()).with_parallelism(Parallelism::fixed(threads));
        let sweep = DecompSweep::compute(g, &config).expect("valid sweep config");
        prop_assert_eq!(sweep.support_builds(), 1, "support built exactly once");
        prop_assert_eq!(sweep.points().len(), grid.len());
        for (gi, (&theta, solo)) in grid.iter().zip(&solo).enumerate() {
            let point = sweep.at(theta).expect("theta is a grid point");
            prop_assert!(std::ptr::eq(point, &sweep.points()[gi]));
            prop_assert_eq!(
                point.scores(),
                solo.scores(),
                "scores at theta {} (grid point {}, threads {})",
                theta,
                gi,
                threads
            );
            prop_assert_eq!(point.initial_scores(), solo.initial_scores());
            prop_assert_eq!(point.method_counts(), solo.method_counts());
            prop_assert_eq!(point.peel_stats(), solo.peel_stats());
        }
    }
}

proptest! {
    // 64 cases by default, scaled up via PROPTEST_CASES in CI's thorough
    // job.
    #![proptest_config(ProptestConfig::default())]

    /// Exact-DP sweeps are bit-identical to independent per-θ
    /// decompositions at every thread count.
    #[test]
    fn dp_sweep_bit_identical_to_independent_runs(
        g in arb_graph(10, 0.75),
        grid in arb_grid(),
    ) {
        assert_sweep_matches_independent_runs(&g, &grid, SweepConfig::exact);
    }

    /// Hybrid-scorer sweeps are bit-identical to independent per-θ
    /// decompositions at every thread count.
    #[test]
    fn hybrid_sweep_bit_identical_to_independent_runs(
        g in arb_graph(9, 0.8),
        grid in arb_grid(),
    ) {
        assert_sweep_matches_independent_runs(&g, &grid, SweepConfig::approximate);
    }

    /// Metamorphic: exact-DP score rows (final and initial) are
    /// non-increasing in θ for every triangle.
    #[test]
    fn dp_sweep_rows_are_monotone_in_theta(
        g in arb_graph(10, 0.75),
        grid in arb_grid(),
    ) {
        let sweep = DecompSweep::compute(&g, &SweepConfig::exact(grid.clone()))
            .expect("valid sweep config");
        prop_assert!(sweep.is_monotone_in_threshold());
        let points = sweep.points();
        for t in 0..sweep.support().num_elements() {
            for w in 0..grid.len().saturating_sub(1) {
                prop_assert!(
                    points[w + 1].scores()[t] <= points[w].scores()[t],
                    "final score of triangle {} rose from theta {} to {}",
                    t, grid[w], grid[w + 1]
                );
                prop_assert!(
                    points[w + 1].initial_scores()[t] <= points[w].initial_scores()[t],
                    "initial score of triangle {} rose from theta {} to {}",
                    t, grid[w], grid[w + 1]
                );
            }
        }
    }

    /// Metamorphic: hybrid *initial* scores are non-increasing in θ (the
    /// per-triangle approximation tail is fixed, so its max-k is
    /// monotone in the threshold).
    #[test]
    fn hybrid_initial_rows_are_monotone_in_theta(
        g in arb_graph(9, 0.8),
        grid in arb_grid(),
    ) {
        let sweep = DecompSweep::compute(&g, &SweepConfig::approximate(grid.clone()))
            .expect("valid sweep config");
        let points = sweep.points();
        for t in 0..sweep.support().num_elements() {
            for w in 0..grid.len().saturating_sub(1) {
                prop_assert!(
                    points[w + 1].initial_scores()[t] <= points[w].initial_scores()[t],
                    "hybrid initial score of triangle {} rose from theta {} to {}",
                    t, grid[w], grid[w + 1]
                );
            }
        }
    }
}
