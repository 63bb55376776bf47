//! Ablation studies beyond the paper's figures.
//!
//! * **Sample-count ablation** — how the Monte-Carlo estimate of
//!   `Pr(X_{H,△,g} ≥ k)` converges to the exact value as the number of
//!   sampled worlds grows, compared against the Hoeffding bound that
//!   Algorithms 2 and 3 rely on.
//! * **Scoring-method cost** — the cost of a single support-score query
//!   under each approximation as the clique count `c` grows, the design
//!   choice motivating Section 5.3 (DP is `O(c²)`, every approximation is
//!   `O(c)`).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use nucleus::approx::{max_k_with_method, ApproxMethod};
use nucleus::exact::{exact_global_tail, is_k_nucleus_lenient};
use nucleus::sampling;
use ugraph::{GraphBuilder, Triangle, UncertainGraph};

use crate::runner::{format_table, ExperimentContext, Timing};

/// One row of the sample-count ablation.
#[derive(Debug, Clone)]
pub struct SampleAblationRow {
    /// Number of sampled possible worlds.
    pub num_samples: usize,
    /// Absolute estimation error versus the exact oracle.
    pub abs_error: f64,
    /// The Hoeffding ε guaranteed (with δ = 0.1) at this sample count.
    pub hoeffding_epsilon: f64,
}

/// Result of the sample-count ablation.
#[derive(Debug, Clone)]
pub struct SampleAblation {
    /// The exact probability being estimated.
    pub exact: f64,
    /// One row per sample count.
    pub rows: Vec<SampleAblationRow>,
}

fn ablation_graph() -> (UncertainGraph, Triangle) {
    // K5 with mixed probabilities: small enough for the exact oracle,
    // rich enough that the global indicator is non-trivial.
    let mut b = GraphBuilder::new();
    let probs = [0.9, 0.8, 0.7, 0.9, 0.6, 0.8, 0.7, 0.9, 0.8, 0.7];
    let mut i = 0;
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            b.add_edge(u, v, probs[i]).unwrap();
            i += 1;
        }
    }
    (b.build(), Triangle::new(0, 1, 2))
}

/// Runs the sample-count ablation for `k = 1`.
pub fn run_sample_ablation(ctx: &ExperimentContext, sample_counts: &[usize]) -> SampleAblation {
    let (graph, triangle) = ablation_graph();
    let exact = exact_global_tail(&graph, &triangle, 1).expect("small graph");
    let [a, b, c] = triangle.vertices();
    let rows = sample_counts
        .iter()
        .map(|&n| {
            let estimate = sampling::estimate_probability(&graph, n, ctx.seed, |world| {
                world.contains_triangle(&graph, a, b, c)
                    && is_k_nucleus_lenient(&world.materialize(&graph), 1)
            });
            // Invert the Hoeffding bound n = ln(2/δ)/(2ε²) at δ = 0.1.
            let eps = ((2.0f64 / 0.1).ln() / (2.0 * n as f64)).sqrt();
            SampleAblationRow {
                num_samples: n,
                abs_error: (estimate - exact).abs(),
                hoeffding_epsilon: eps,
            }
        })
        .collect();
    SampleAblation { exact, rows }
}

impl SampleAblation {
    /// Formats the ablation as a table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.num_samples.to_string(),
                    format!("{:.4}", r.abs_error),
                    format!("{:.4}", r.hoeffding_epsilon),
                ]
            })
            .collect();
        format!(
            "Ablation: Monte-Carlo samples vs estimation error (exact = {:.4})\n{}",
            self.exact,
            format_table(&["samples", "abs error", "Hoeffding eps (d=0.1)"], &rows)
        )
    }
}

/// One row of the scoring-cost ablation.
#[derive(Debug, Clone)]
pub struct ScoringCostRow {
    /// Clique count `c` of the synthetic triangle.
    pub c: usize,
    /// Method measured.
    pub method: ApproxMethod,
    /// Nanoseconds per score query (averaged).
    pub nanos_per_query: f64,
}

/// Runs the scoring-cost ablation.
pub fn run_scoring_cost(
    ctx: &ExperimentContext,
    counts: &[usize],
    repeats: usize,
) -> Vec<ScoringCostRow> {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
    let mut rows = Vec::new();
    for &c in counts {
        let probs: Vec<f64> = (0..c).map(|_| rng.gen_range(0.05..0.95)).collect();
        for method in [
            ApproxMethod::DynamicProgramming,
            ApproxMethod::Poisson,
            ApproxMethod::TranslatedPoisson,
            ApproxMethod::Binomial,
            ApproxMethod::Clt,
        ] {
            let (_, t) = Timing::measure(|| {
                let mut acc = 0u32;
                for _ in 0..repeats {
                    acc = acc.wrapping_add(max_k_with_method(method, 0.9, &probs, 0.3));
                }
                acc
            });
            rows.push(ScoringCostRow {
                c,
                method,
                nanos_per_query: t.elapsed.as_nanos() as f64 / repeats as f64,
            });
        }
    }
    rows
}

/// Formats the scoring-cost ablation.
pub fn format_scoring_cost(rows: &[ScoringCostRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.c.to_string(),
                r.method.to_string(),
                format!("{:.0}", r.nanos_per_query),
            ]
        })
        .collect();
    format!(
        "Ablation: per-query scoring cost by method\n{}",
        format_table(&["c", "method", "ns/query"], &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_datasets::Scale;

    #[test]
    fn sample_ablation_error_shrinks_with_samples() {
        let ctx = ExperimentContext::new(Scale::Tiny, 21);
        let ab = run_sample_ablation(&ctx, &[20, 200, 2000]);
        assert_eq!(ab.rows.len(), 3);
        assert!(ab.exact > 0.0 && ab.exact < 1.0);
        // Errors must be within the Hoeffding bound at the largest count
        // (overwhelmingly likely) and the bound itself must shrink.
        assert!(ab.rows[2].abs_error <= ab.rows[2].hoeffding_epsilon + 0.05);
        assert!(ab.rows[2].hoeffding_epsilon < ab.rows[0].hoeffding_epsilon);
        assert!(ab.format().contains("Ablation"));
    }

    #[test]
    fn scoring_cost_covers_all_methods() {
        let ctx = ExperimentContext::new(Scale::Tiny, 22);
        let rows = run_scoring_cost(&ctx, &[32, 128], 50);
        assert_eq!(rows.len(), 2 * 5);
        assert!(rows.iter().all(|r| r.nanos_per_query >= 0.0));
        let text = format_scoring_cost(&rows);
        assert!(text.contains("ns/query"));
        assert!(text.contains("DP"));
    }
}
