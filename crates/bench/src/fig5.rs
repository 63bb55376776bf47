//! Figure 5 — running time of the (fully) global (FG) and weakly-global
//! (WG) decomposition algorithms at θ = 0.001.

use nd_datasets::PaperDataset;
use nucleus::{
    global::global_nuclei_with_local, weakly_global::weakly_global_nuclei_with_local,
    ApproxThresholds, DecompConfig, Decomposition, GlobalConfig, SamplingConfig, ScoreMethod,
};

use crate::runner::{format_table, ExperimentContext, Timing};

/// The threshold used by the paper for the global experiments.
pub const THETA: f64 = 0.001;

/// One measurement: a dataset and the two running times.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Dataset name.
    pub dataset: String,
    /// The `k` the decompositions were run for.
    pub k: u32,
    /// Seconds taken by the fully-global algorithm (Algorithm 2).
    pub fg_seconds: f64,
    /// Seconds taken by the weakly-global algorithm (Algorithm 3).
    pub wg_seconds: f64,
    /// Number of g-(k,θ)-nuclei found.
    pub fg_nuclei: usize,
    /// Number of w-(k,θ)-nuclei found.
    pub wg_nuclei: usize,
}

/// The full Figure 5 series.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One point per dataset.
    pub points: Vec<Fig5Point>,
}

/// Runs FG and WG on each dataset.  `k` defaults to 2 (a mid-range value
/// at the reproduction's scale); `num_samples` mirrors the paper's n = 200.
pub fn run(ctx: &ExperimentContext, datasets: &[PaperDataset], k: u32, num_samples: usize) -> Fig5 {
    let mut points = Vec::new();
    for &ds in datasets {
        let graph = ctx.dataset(ds);
        let local = Decomposition::compute(
            &graph,
            &DecompConfig::nucleus(THETA)
                .with_method(ScoreMethod::Hybrid(ApproxThresholds::default())),
        )
        .expect("valid config");
        let config = GlobalConfig::new(THETA).with_sampling(
            SamplingConfig::default()
                .with_num_samples(num_samples)
                .with_seed(ctx.seed),
        );
        let (fg, fg_time) = Timing::measure(|| {
            global_nuclei_with_local(&graph, k, &config, &local).expect("valid config")
        });
        let (wg, wg_time) = Timing::measure(|| {
            weakly_global_nuclei_with_local(&graph, k, &config, &local).expect("valid config")
        });
        points.push(Fig5Point {
            dataset: ctx.dataset_name(ds),
            k,
            fg_seconds: fg_time.seconds(),
            wg_seconds: wg_time.seconds(),
            fg_nuclei: fg.len(),
            wg_nuclei: wg.len(),
        });
    }
    Fig5 { points }
}

impl Fig5 {
    /// Formats the series as a table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.dataset.to_string(),
                    p.k.to_string(),
                    format!("{:.3}", p.fg_seconds),
                    format!("{:.3}", p.wg_seconds),
                    p.fg_nuclei.to_string(),
                    p.wg_nuclei.to_string(),
                ]
            })
            .collect();
        format!(
            "Figure 5: running time of fully-global (FG) vs weakly-global (WG), theta = {THETA}\n{}",
            format_table(&["Graph", "k", "FG(s)", "WG(s)", "#g-nuclei", "#w-nuclei"], &rows)
        )
    }

    /// The paper observes WG is generally faster than FG; returns the
    /// datasets where FG was faster by more than 25%.
    pub fn check_shape(&self) -> Vec<String> {
        self.points
            .iter()
            .filter(|p| p.fg_seconds * 1.25 < p.wg_seconds)
            .map(|p| {
                format!(
                    "{}: FG {:.3}s faster than WG {:.3}s",
                    p.dataset, p.fg_seconds, p.wg_seconds
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
    fn runs_on_one_tiny_dataset() {
        let ctx = ExperimentContext::new(Scale::Tiny, 3);
        let fig = run(&ctx, &[PaperDataset::Krogan], 2, 40);
        assert_eq!(fig.points.len(), 1);
        let p = &fig.points[0];
        assert!(p.fg_seconds >= 0.0 && p.wg_seconds >= 0.0);
        // At theta = 0.001 the dense planted complexes should survive in
        // at least the weakly-global decomposition.
        assert!(p.wg_nuclei >= 1);
        assert!(fig.format().contains("Figure 5"));
    }
}
