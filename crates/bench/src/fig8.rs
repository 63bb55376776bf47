//! Figure 8 — probabilistic density (PD) and probabilistic clustering
//! coefficient (PCC) of the g-(k,θ)-, w-(k,θ)- and ℓ-(k,θ)-nuclei at
//! θ = 0.001, averaged over all values of `k`.

use nd_datasets::PaperDataset;
use nucleus::{
    global::global_nuclei_with_local, weakly_global::weakly_global_nuclei_with_local,
    ApproxThresholds, DecompConfig, Decomposition, GlobalConfig, SamplingConfig, ScoreMethod,
};
use ugraph::metrics::{probabilistic_clustering_coefficient, probabilistic_density};
use ugraph::UncertainGraph;

use crate::runner::{format_table, ExperimentContext};

/// The threshold fixed by the figure.
pub const THETA: f64 = 0.001;

/// PD/PCC of one decomposition mode on one dataset, averaged over k.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Dataset name.
    pub dataset: String,
    /// Average PD of the g-, w- and ℓ-nuclei respectively.
    pub pd: [f64; 3],
    /// Average PCC of the g-, w- and ℓ-nuclei respectively.
    pub pcc: [f64; 3],
}

/// The full Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One row per dataset.
    pub rows: Vec<Fig8Row>,
}

fn average_metrics(graphs: &[&UncertainGraph]) -> (f64, f64) {
    if graphs.is_empty() {
        return (0.0, 0.0);
    }
    let n = graphs.len() as f64;
    let pd = graphs.iter().map(|g| probabilistic_density(g)).sum::<f64>() / n;
    let pcc = graphs
        .iter()
        .map(|g| probabilistic_clustering_coefficient(g))
        .sum::<f64>()
        / n;
    (pd, pcc)
}

/// Runs the comparison over the given datasets (krogan, flickr, dblp in
/// the paper), averaging over `k = 1..=k_cap` where `k_cap` bounds the
/// sweep for runtime control.
pub fn run(
    ctx: &ExperimentContext,
    datasets: &[PaperDataset],
    k_cap: u32,
    num_samples: usize,
) -> Fig8 {
    let mut rows = Vec::new();
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
        let k_max = local.max_score().min(k_cap);

        let mut g_graphs = Vec::new();
        let mut w_graphs = Vec::new();
        let mut l_graphs = Vec::new();
        for k in 1..=k_max {
            for n in global_nuclei_with_local(&graph, k, &config, &local).expect("valid config") {
                g_graphs.push(n.subgraph.into_graph());
            }
            for n in
                weakly_global_nuclei_with_local(&graph, k, &config, &local).expect("valid config")
            {
                w_graphs.push(n.subgraph.into_graph());
            }
            for n in local.k_nuclei(&graph, k).expect("nucleus rank") {
                l_graphs.push(n.subgraph.into_graph());
            }
        }
        let (g_pd, g_pcc) = average_metrics(&g_graphs.iter().collect::<Vec<_>>());
        let (w_pd, w_pcc) = average_metrics(&w_graphs.iter().collect::<Vec<_>>());
        let (l_pd, l_pcc) = average_metrics(&l_graphs.iter().collect::<Vec<_>>());
        rows.push(Fig8Row {
            dataset: ctx.dataset_name(ds),
            pd: [g_pd, w_pd, l_pd],
            pcc: [g_pcc, w_pcc, l_pcc],
        });
    }
    Fig8 { rows }
}

impl Fig8 {
    /// Formats the figure as a table.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    format!("{:.3}", r.pd[0]),
                    format!("{:.3}", r.pd[1]),
                    format!("{:.3}", r.pd[2]),
                    format!("{:.3}", r.pcc[0]),
                    format!("{:.3}", r.pcc[1]),
                    format!("{:.3}", r.pcc[2]),
                ]
            })
            .collect();
        format!(
            "Figure 8: PD and PCC of g-, w- and ℓ-nuclei (theta = {THETA})\n{}",
            format_table(
                &["Graph", "PD(g)", "PD(w)", "PD(l)", "PCC(g)", "PCC(w)", "PCC(l)"],
                &rows
            )
        )
    }

    /// The paper observes g-nuclei are at least as cohesive as w-nuclei,
    /// which are at least as cohesive as ℓ-nuclei.  Returns violations
    /// (rows with empty decompositions are skipped).
    pub fn check_shape(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            let [g, w, l] = r.pd;
            if g > 0.0 && w > 0.0 && g + 0.1 < w {
                violations.push(format!("{}: PD(g) {g:.3} below PD(w) {w:.3}", r.dataset));
            }
            if w > 0.0 && l > 0.0 && w + 0.1 < l {
                violations.push(format!("{}: PD(w) {w:.3} below PD(l) {l:.3}", r.dataset));
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
    fn modes_are_ordered_by_cohesiveness_on_krogan() {
        let ctx = ExperimentContext::new(Scale::Tiny, 13);
        let fig = run(&ctx, &[PaperDataset::Krogan], 2, 40);
        assert_eq!(fig.rows.len(), 1);
        let violations = fig.check_shape();
        assert!(violations.is_empty(), "{violations:?}");
        // The local decomposition always produces nuclei on this dataset.
        assert!(fig.rows[0].pd[2] > 0.0);
        assert!(fig.format().contains("Figure 8"));
    }
}
