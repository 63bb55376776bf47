//! Property-based tests (proptest) of the core invariants across crates.

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::approx::{tail_probability, ApproxMethod};
use prob_nucleus_repro::nucleus::exact::definitional_scores;
use prob_nucleus_repro::ugraph::rs::dp;
use prob_nucleus_repro::ugraph::{GraphBuilder, PossibleWorld, UncertainGraph};
use prob_nucleus_repro::{DecompConfig, Decomposition, Rank};

/// Strategy: a random probabilistic graph with up to `max_v` vertices and
/// a biased-dense edge set so triangles and 4-cliques actually appear.
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

proptest! {
    // Default config: 64 cases, scaled up via PROPTEST_CASES in CI's
    // thorough job.
    #![proptest_config(ProptestConfig::default())]

    /// A decomposition computed on a zero-copy memory-mapped graph is
    /// bit-identical to one computed on the owned reload of the same
    /// snapshot — the scoring pipeline cannot tell where the arrays live.
    #[test]
    fn mapped_and_owned_graphs_decompose_identically(
        g in arb_graph(9, 0.75), theta in 0.05f64..0.9,
    ) {
        use prob_nucleus_repro::ugraph::io::{open_snapshot, read_snapshot_file, write_snapshot_file};
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "nd_property_mapped_decomp_{}_{}.ugsnap",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        write_snapshot_file(&g, &path).unwrap();
        let owned = read_snapshot_file(&path).unwrap();
        let mapped = open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(mapped.graph(), &owned);
        let cfg = DecompConfig::nucleus(theta);
        let on_owned = Decomposition::compute(&owned, &cfg).unwrap();
        let on_mapped = Decomposition::compute(mapped.graph(), &cfg).unwrap();
        prop_assert_eq!(on_owned.scores(), on_mapped.scores());
        prop_assert_eq!(on_owned.initial_scores(), on_mapped.initial_scores());
    }

    /// The DP support pmf is a probability distribution and its tail is
    /// monotone non-increasing.
    #[test]
    fn dp_pmf_is_a_distribution(probs in proptest::collection::vec(0.001f64..=1.0, 0..20)) {
        let pmf = dp::support_pmf(&probs);
        let total: f64 = pmf.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(pmf.iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
        let tail = dp::support_tail(&probs);
        for w in tail.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    /// Every approximation produces tails in [0,1] that start at 1, and the
    /// DP method is exact regardless of input.
    #[test]
    fn approximation_tails_are_valid(probs in proptest::collection::vec(0.001f64..=1.0, 1..40)) {
        for method in [
            ApproxMethod::Poisson,
            ApproxMethod::TranslatedPoisson,
            ApproxMethod::Binomial,
            ApproxMethod::Clt,
            ApproxMethod::DynamicProgramming,
        ] {
            prop_assert!((tail_probability(method, &probs, 0) - 1.0).abs() < 1e-9);
            for k in 0..=probs.len() {
                let t = tail_probability(method, &probs, k);
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&t), "{method} k={k} -> {t}");
            }
        }
    }

    /// ℓ-nucleusness never exceeds deterministic nucleusness, and the
    /// number of scores equals the number of triangles.
    #[test]
    fn local_scores_bounded_by_deterministic(g in arb_graph(9, 0.75), theta in 0.05f64..0.9) {
        let local = Decomposition::compute(&g, &DecompConfig::nucleus(theta)).unwrap();
        // Deterministic nucleusness (the definition at threshold 1.0 on
        // the certain view), indexed by the same triangle ids.
        let certain = PossibleWorld::full(&g).materialize(&g);
        let det = definitional_scores(&certain, Rank::Nucleus, 1.0);
        prop_assert_eq!(local.num_elements(), det.len());
        for (id, &d) in det.iter().enumerate() {
            prop_assert!(local.scores()[id] <= d);
        }
    }

    /// Monotonicity in θ: raising the threshold can only lower scores.
    #[test]
    fn local_scores_monotone_in_theta(g in arb_graph(8, 0.8)) {
        let low = Decomposition::compute(&g, &DecompConfig::nucleus(0.1)).unwrap();
        let high = Decomposition::compute(&g, &DecompConfig::nucleus(0.5)).unwrap();
        for t in 0..low.num_elements() {
            prop_assert!(high.scores()[t] <= low.scores()[t]);
        }
    }

    /// Extracted nuclei are unions of 4-cliques whose triangles all reach
    /// the requested score, and their edges all exist in the parent graph.
    #[test]
    fn extracted_nuclei_are_well_formed(g in arb_graph(9, 0.8)) {
        let theta = 0.2;
        let local = Decomposition::compute(&g, &DecompConfig::nucleus(theta)).unwrap();
        let index = local.nucleus_support().unwrap().triangle_index();
        for k in 1..=local.max_score() {
            for nucleus in local.k_nuclei(&g, k).unwrap() {
                prop_assert!(!nucleus.cliques.is_empty());
                for tri in &nucleus.triangles {
                    prop_assert!(local.score(index.id_of(tri).unwrap()) >= k);
                }
                for clique in &nucleus.cliques {
                    for (u, v) in clique.edges() {
                        prop_assert!(g.has_edge(u, v));
                    }
                }
            }
        }
    }

    /// Possible-world probabilities over a small graph sum to one, and the
    /// deterministic core numbers of any world are bounded by the ones of
    /// the full graph.
    #[test]
    fn world_probabilities_sum_to_one(g in arb_graph(6, 0.6)) {
        prop_assume!(g.num_edges() <= 12);
        let total: f64 = prob_nucleus_repro::ugraph::possible_world::enumerate_all_worlds(&g)
            .map(|w| w.probability(&g))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
