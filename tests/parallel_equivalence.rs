//! Property-based equivalence suite for the parallel substrate.
//!
//! The contract of `ugraph::par` is that every parallel result is
//! **bit-identical** to the sequential one — same element order, same
//! floating-point bit patterns — for every thread count.  These properties
//! check that contract end to end on random uncertain graphs for the
//! triangle enumerator, the 4-clique enumerator, the support structure and
//! the full local decomposition, at 1, 2 and 8 worker threads.

use proptest::prelude::*;

use prob_nucleus_repro::nucleus::{DecompConfig, Decomposition, SupportStructure};
use prob_nucleus_repro::ugraph::cliques::{count_four_cliques, count_four_cliques_with};
use prob_nucleus_repro::ugraph::par::{par_extend, par_map};
use prob_nucleus_repro::ugraph::triangles::{enumerate_triangles, enumerate_triangles_with};
use prob_nucleus_repro::ugraph::{
    FourCliqueEnumerator, GraphBuilder, Parallelism, TriangleIndex, UncertainGraph,
};

/// Thread counts every property is exercised at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Strategy: a random probabilistic graph dense enough that triangles and
/// 4-cliques actually appear.
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

    /// Parallel triangle enumeration returns the exact sequential output
    /// (order included) at every thread count.
    #[test]
    fn triangles_bit_identical(g in arb_graph(12, 0.7)) {
        let sequential = enumerate_triangles(&g);
        for threads in THREAD_COUNTS {
            let par = enumerate_triangles_with(&g, Parallelism::fixed(threads));
            prop_assert_eq!(&par, &sequential, "threads = {}", threads);
            let idx = TriangleIndex::build_with(&g, Parallelism::fixed(threads));
            prop_assert_eq!(idx.triangles(), TriangleIndex::build(&g).triangles());
        }
    }

    /// Parallel 4-clique enumeration (and counting) matches sequential
    /// exactly at every thread count.
    #[test]
    fn four_cliques_bit_identical(g in arb_graph(12, 0.7)) {
        let sequential = FourCliqueEnumerator::new(&g);
        for threads in THREAD_COUNTS {
            let par = FourCliqueEnumerator::with_parallelism(&g, Parallelism::fixed(threads));
            prop_assert_eq!(par.cliques(), sequential.cliques(), "threads = {}", threads);
            prop_assert_eq!(
                count_four_cliques_with(&g, Parallelism::fixed(threads)),
                count_four_cliques(&g)
            );
        }
    }

    /// The parallel support structure is bit-identical to the sequential
    /// one: triangles, clique records, reverse index and every probability
    /// down to the floating-point bit pattern.
    #[test]
    fn support_structure_bit_identical(g in arb_graph(10, 0.8)) {
        let sequential = SupportStructure::build(&g);
        for threads in THREAD_COUNTS {
            let par = SupportStructure::build_with(&g, Parallelism::fixed(threads));
            prop_assert_eq!(par.num_triangles(), sequential.num_triangles());
            prop_assert_eq!(par.num_cliques(), sequential.num_cliques());
            for t in 0..sequential.num_triangles() as u32 {
                prop_assert_eq!(par.triangle(t), sequential.triangle(t));
                prop_assert_eq!(
                    par.triangle_prob(t).to_bits(),
                    sequential.triangle_prob(t).to_bits()
                );
                prop_assert_eq!(par.cliques_of(t), sequential.cliques_of(t));
            }
            for c in 0..sequential.num_cliques() as u32 {
                let (a, b) = (par.clique(c), sequential.clique(c));
                prop_assert_eq!(a.clique, b.clique);
                prop_assert_eq!(a.triangles, b.triangles);
                for slot in 0..4 {
                    prop_assert_eq!(
                        a.completion_probs[slot].to_bits(),
                        b.completion_probs[slot].to_bits()
                    );
                }
            }
        }
    }

    /// End to end: the local decomposition computes identical nucleusness
    /// scores, method counts and peeling perf counters for every
    /// parallelism setting.
    #[test]
    fn local_decomposition_scores_identical(g in arb_graph(9, 0.8), theta in 0.05f64..0.9) {
        let config = DecompConfig::nucleus(theta);
        let sequential =
            Decomposition::compute(&g, &config.with_parallelism(Parallelism::Sequential)).unwrap();
        for threads in THREAD_COUNTS {
            let par =
                Decomposition::compute(&g, &config.with_parallelism(Parallelism::fixed(threads)))
                    .unwrap();
            prop_assert_eq!(par.scores(), sequential.scores(), "threads = {}", threads);
            prop_assert_eq!(par.initial_scores(), sequential.initial_scores());
            prop_assert_eq!(par.method_counts(), sequential.method_counts());
            // PeelStats are deterministic perf counters: dp_calls and
            // friends must not depend on the thread count either.
            prop_assert_eq!(par.peel_stats(), sequential.peel_stats());
        }
    }

    /// The primitive itself: ordered merge equals a sequential pass for
    /// variable-size per-index output.
    #[test]
    fn par_extend_matches_sequential(n in 0usize..500, modulus in 1usize..5) {
        let body = |range: std::ops::Range<usize>, out: &mut Vec<usize>| {
            for i in range {
                for j in 0..(i % modulus) {
                    out.push(i * 100 + j);
                }
            }
        };
        let mut expected = Vec::new();
        body(0..n, &mut expected);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(
                par_extend(Parallelism::fixed(threads), n, body),
                expected.clone(),
                "threads = {}",
                threads
            );
        }
        let mapped = par_map(Parallelism::fixed(8), n, |i| i * 3);
        prop_assert_eq!(mapped, (0..n).map(|i| i * 3).collect::<Vec<_>>());
    }
}
