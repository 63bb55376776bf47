//! Figure 7 — properties of the ℓ-(k,θ)-nuclei of the flickr-like dataset
//! as `k` varies (θ = 0.3): average probabilistic density, average
//! probabilistic clustering coefficient, average number of edges per
//! nucleus, and the number of nuclei.

use nd_datasets::PaperDataset;
use nucleus::{ApproxThresholds, DecompConfig, Decomposition, ScoreMethod};
use ugraph::metrics::{probabilistic_clustering_coefficient, probabilistic_density};

use crate::runner::{format_table, ExperimentContext};

/// The threshold fixed by the figure.
pub const THETA: f64 = 0.3;

/// Statistics of the ℓ-(k,θ)-nuclei at one value of `k`.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// The nucleus parameter `k`.
    pub k: u32,
    /// Average PD over the nuclei.
    pub avg_pd: f64,
    /// Average PCC over the nuclei.
    pub avg_pcc: f64,
    /// Average number of edges per nucleus.
    pub avg_edges: f64,
    /// Number of ℓ-(k,θ)-nuclei.
    pub num_nuclei: usize,
}

/// The full Figure 7 series.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Dataset the series was computed on.
    pub dataset: String,
    /// One point per `k` from 1 to k_max.
    pub points: Vec<Fig7Point>,
}

/// Runs the sweep on the given dataset (flickr in the paper).
pub fn run(ctx: &ExperimentContext, dataset: PaperDataset) -> Fig7 {
    let graph = ctx.dataset(dataset);
    let local = Decomposition::compute(
        &graph,
        &DecompConfig::nucleus(THETA).with_method(ScoreMethod::Hybrid(ApproxThresholds::default())),
    )
    .expect("valid config");
    let mut points = Vec::new();
    for k in 1..=local.max_score() {
        let nuclei = local.k_nuclei(&graph, k).expect("nucleus rank");
        if nuclei.is_empty() {
            continue;
        }
        let n = nuclei.len() as f64;
        let avg_pd = nuclei
            .iter()
            .map(|nu| probabilistic_density(nu.subgraph.graph()))
            .sum::<f64>()
            / n;
        let avg_pcc = nuclei
            .iter()
            .map(|nu| probabilistic_clustering_coefficient(nu.subgraph.graph()))
            .sum::<f64>()
            / n;
        let avg_edges = nuclei.iter().map(|nu| nu.num_edges() as f64).sum::<f64>() / n;
        points.push(Fig7Point {
            k,
            avg_pd,
            avg_pcc,
            avg_edges,
            num_nuclei: nuclei.len(),
        });
    }
    Fig7 {
        dataset: ctx.dataset_name(dataset),
        points,
    }
}

impl Fig7 {
    /// Formats the series as a table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.k.to_string(),
                    format!("{:.3}", p.avg_pd),
                    format!("{:.3}", p.avg_pcc),
                    format!("{:.1}", p.avg_edges),
                    p.num_nuclei.to_string(),
                ]
            })
            .collect();
        format!(
            "Figure 7: ℓ-(k,{THETA})-nuclei of {} as k varies\n{}",
            self.dataset,
            format_table(&["k", "avg PD", "avg PCC", "avg |E|", "#nuclei"], &rows)
        )
    }

    /// Qualitative claims of the figure: PD and PCC are high (> 0.5 in the
    /// reproduction) and weakly increase with k, while the number of
    /// nuclei weakly decreases.  Returns violations.
    pub fn check_shape(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.points.is_empty() {
            violations.push("no nuclei found at any k".to_string());
            return violations;
        }
        let first = &self.points[0];
        let last = &self.points[self.points.len() - 1];
        if last.avg_pd + 0.05 < first.avg_pd {
            violations.push(format!(
                "avg PD decreases from {:.3} (k={}) to {:.3} (k={})",
                first.avg_pd, first.k, last.avg_pd, last.k
            ));
        }
        if last.num_nuclei > first.num_nuclei {
            violations.push(format!(
                "#nuclei increases from {} to {}",
                first.num_nuclei, last.num_nuclei
            ));
        }
        for p in &self.points {
            if p.avg_pd < 0.3 {
                violations.push(format!(
                    "k={}: avg PD {:.3} unexpectedly low",
                    p.k, p.avg_pd
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_datasets::Scale;

    #[test]
    fn flickr_series_has_expected_shape() {
        let ctx = ExperimentContext::new(Scale::Tiny, 11);
        let fig = run(&ctx, PaperDataset::Flickr);
        assert!(!fig.points.is_empty());
        let violations = fig.check_shape();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(fig.format().contains("Figure 7"));
    }
}
