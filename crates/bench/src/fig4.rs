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

/// Timed runs per point; a point's time is their median, since a single
/// millisecond-scale run is at the mercy of the clock's noise.
pub const REPEATS: usize = 5;

/// One measurement: a dataset, a threshold, and the two running times.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Dataset name.
    pub dataset: String,
    /// Threshold θ.
    pub theta: f64,
    /// Median seconds of [`REPEATS`] runs of the exact DP algorithm.
    pub dp_seconds: f64,
    /// Median seconds of [`REPEATS`] runs of the hybrid approximation.
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
        let run = |config: DecompConfig| -> (Decomposition, f64) {
            let mut seconds = Vec::with_capacity(REPEATS);
            let mut last = None;
            for _ in 0..REPEATS {
                let (decomp, time) = Timing::measure(|| {
                    let support = RankSupport::Nucleus(support.clone());
                    let handle = DecompHandle::from_support(Arc::new(support));
                    handle.compute_at(&config).expect("valid config")
                });
                seconds.push(time.seconds());
                last = Some(decomp);
            }
            seconds.sort_by(f64::total_cmp);
            (last.expect("REPEATS > 0"), seconds[REPEATS / 2])
        };
        for &theta in &THETAS {
            let (dp, dp_seconds) = run(DecompConfig::nucleus(theta));
            let (ap, ap_seconds) = run(DecompConfig::nucleus(theta)
                .with_method(ScoreMethod::Hybrid(ApproxThresholds::default())));
            points.push(Fig4Point {
                dataset: ctx.dataset_name(ds),
                theta,
                dp_seconds,
                ap_seconds,
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

    /// Checks the figure's qualitative claim that AP is at least as fast
    /// as DP: a dataset whose AP times, summed over θ, exceed its summed
    /// DP times by more than 25% is a violation.  Datasets are reported
    /// in point order.  Returns human-readable violations (empty = all
    /// good).
    pub fn check_shape(&self) -> Vec<String> {
        let mut totals: Vec<(&str, f64, f64)> = Vec::new();
        for p in &self.points {
            match totals.iter_mut().find(|(ds, ..)| *ds == p.dataset) {
                Some((_, dp, ap)) => {
                    *dp += p.dp_seconds;
                    *ap += p.ap_seconds;
                }
                None => totals.push((&p.dataset, p.dp_seconds, p.ap_seconds)),
            }
        }
        totals
            .into_iter()
            .filter(|&(_, dp, ap)| ap > dp * 1.25)
            .map(|(ds, dp, ap)| format!("{ds}: AP total {ap:.3}s slower than DP total {dp:.3}s"))
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
