//! Table 2 — accuracy of the hybrid approximation (AP): average difference
//! of the final nucleus scores from the exact DP scores, and the fraction
//! of triangles whose score differs, for θ ∈ {0.2, 0.4}.

use nd_datasets::PaperDataset;
use nucleus::{ApproxThresholds, DecompConfig, DecompHandle, Rank, ScoreMethod};
use ugraph::Parallelism;

use crate::runner::{format_table, ExperimentContext};

/// Thresholds reported by the table.
pub const THETAS: [f64; 2] = [0.2, 0.4];

/// Accuracy of AP on one dataset at one threshold.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Threshold θ.
    pub theta: f64,
    /// Average absolute score difference over all triangles.
    pub avg_error: f64,
    /// Percentage of triangles whose AP score differs from the DP score.
    pub pct_with_error: f64,
    /// Number of triangles compared.
    pub num_triangles: usize,
}

/// The full Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per dataset × θ.
    pub rows: Vec<Table2Row>,
}

/// Runs the experiment over the given datasets.
pub fn run(ctx: &ExperimentContext, datasets: &[PaperDataset]) -> Table2 {
    let mut rows = Vec::new();
    for &ds in datasets {
        let graph = ctx.dataset(ds);
        let handle = DecompHandle::build(&graph, Rank::Nucleus, Parallelism::Sequential);
        for &theta in &THETAS {
            let dp = handle
                .compute_at(&DecompConfig::nucleus(theta))
                .expect("valid config");
            let ap = handle
                .compute_at(
                    &DecompConfig::nucleus(theta)
                        .with_method(ScoreMethod::Hybrid(ApproxThresholds::default())),
                )
                .expect("valid config");
            let n = dp.num_elements();
            let mut total_error = 0.0f64;
            let mut with_error = 0usize;
            for t in 0..n {
                let diff = (dp.scores()[t] as i64 - ap.scores()[t] as i64).unsigned_abs();
                if diff > 0 {
                    with_error += 1;
                    total_error += diff as f64;
                }
            }
            rows.push(Table2Row {
                dataset: ctx.dataset_name(ds),
                theta,
                avg_error: if n == 0 { 0.0 } else { total_error / n as f64 },
                pct_with_error: if n == 0 {
                    0.0
                } else {
                    100.0 * with_error as f64 / n as f64
                },
                num_triangles: n,
            });
        }
    }
    Table2 { rows }
}

impl Table2 {
    /// Formats the table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    format!("{:.1}", r.theta),
                    format!("{:.4}", r.avg_error),
                    format!("{:.2}%", r.pct_with_error),
                    r.num_triangles.to_string(),
                ]
            })
            .collect();
        format!(
            "Table 2: accuracy of AP scores vs exact DP scores\n{}",
            format_table(
                &["Graph", "theta", "avg error", "% tri with error", "#tri"],
                &rows
            )
        )
    }

    /// The paper reports average errors below ~0.06 and error percentages
    /// below ~6% on all datasets; returns rows violating a generous bound.
    pub fn check_shape(&self) -> Vec<String> {
        self.rows
            .iter()
            .filter(|r| r.avg_error > 0.1 || r.pct_with_error > 10.0)
            .map(|r| {
                format!(
                    "{} theta={}: avg error {:.4}, {:.2}% triangles differ",
                    r.dataset, r.theta, r.avg_error, r.pct_with_error
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_datasets::Scale;

    #[test]
    fn ap_is_accurate_on_tiny_datasets() {
        let ctx = ExperimentContext::new(Scale::Tiny, 5);
        let t = run(&ctx, &[PaperDataset::Krogan, PaperDataset::Dblp]);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert!(
                row.avg_error <= 0.1,
                "{} theta={}: avg error {}",
                row.dataset,
                row.theta,
                row.avg_error
            );
            assert!(row.pct_with_error <= 10.0);
        }
        assert!(t.check_shape().is_empty());
        assert!(t.format().contains("Table 2"));
    }
}
