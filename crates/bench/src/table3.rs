//! Table 3 — cohesiveness of the ℓ-(k,θ)-nucleus versus the probabilistic
//! (k,γ)-truss and (k,η)-core baselines, measured by vertex/edge counts,
//! maximum score, probabilistic density (PD) and probabilistic clustering
//! coefficient (PCC), at θ = γ = η ∈ {0.1, 0.3}.
//!
//! As in the paper, the statistics are reported for the *maximum* score of
//! each decomposition (k_max), averaged over its connected components.

use nd_datasets::PaperDataset;
use nucleus::{ApproxThresholds, DecompConfig, Decomposition, ScoreMethod};
use ugraph::metrics::{probabilistic_clustering_coefficient, probabilistic_density};
use ugraph::UncertainGraph;

use crate::runner::{format_table, ExperimentContext};

/// Thresholds reported by the table.
pub const THETAS: [f64; 2] = [0.1, 0.3];

/// Average statistics of one decomposition's maximum-score components.
#[derive(Debug, Clone, Default)]
pub struct CohesivenessStats {
    /// Average number of vertices over components.
    pub avg_vertices: f64,
    /// Average number of edges over components.
    pub avg_edges: f64,
    /// Maximum score (k_max) of the decomposition.
    pub k_max: u32,
    /// Average probabilistic density.
    pub pd: f64,
    /// Average probabilistic clustering coefficient.
    pub pcc: f64,
}

fn average_stats(subgraphs: &[&UncertainGraph]) -> (f64, f64, f64, f64) {
    if subgraphs.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let n = subgraphs.len() as f64;
    let v = subgraphs
        .iter()
        .map(|g| g.num_vertices() as f64)
        .sum::<f64>()
        / n;
    let e = subgraphs.iter().map(|g| g.num_edges() as f64).sum::<f64>() / n;
    let pd = subgraphs
        .iter()
        .map(|g| probabilistic_density(g))
        .sum::<f64>()
        / n;
    let pcc = subgraphs
        .iter()
        .map(|g| probabilistic_clustering_coefficient(g))
        .sum::<f64>()
        / n;
    (v, e, pd, pcc)
}

/// Decomposes `graph` under `config` and averages the statistics of its
/// maximum-score components.
fn cohesiveness(graph: &UncertainGraph, config: &DecompConfig) -> CohesivenessStats {
    let decomp = Decomposition::compute(graph, config).expect("valid config");
    let k_max = decomp.max_score();
    let subs = decomp.k_subgraphs(graph, k_max.max(1));
    let graphs: Vec<&UncertainGraph> = subs.iter().map(|s| s.graph()).collect();
    let (avg_vertices, avg_edges, pd, pcc) = average_stats(&graphs);
    CohesivenessStats {
        avg_vertices,
        avg_edges,
        k_max,
        pd,
        pcc,
    }
}

/// One row of Table 3: a dataset, a threshold, and the three decompositions.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// Threshold θ = γ = η.
    pub theta: f64,
    /// ℓ-(k,θ)-nucleus statistics.
    pub nucleus: CohesivenessStats,
    /// Local (k,γ)-truss statistics.
    pub truss: CohesivenessStats,
    /// (k,η)-core statistics.
    pub core: CohesivenessStats,
}

/// The full Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per dataset × θ.
    pub rows: Vec<Table3Row>,
}

/// Runs the comparison over the given datasets (the paper uses dblp,
/// pokec and biomine).
pub fn run(ctx: &ExperimentContext, datasets: &[PaperDataset]) -> Table3 {
    let mut rows = Vec::new();
    for &ds in datasets {
        let graph = ctx.dataset(ds);
        for &theta in &THETAS {
            let hybrid = ScoreMethod::Hybrid(ApproxThresholds::default());
            rows.push(Table3Row {
                dataset: ctx.dataset_name(ds),
                theta,
                nucleus: cohesiveness(&graph, &DecompConfig::nucleus(theta).with_method(hybrid)),
                truss: cohesiveness(&graph, &DecompConfig::truss(theta)),
                core: cohesiveness(&graph, &DecompConfig::core(theta)),
            });
        }
    }
    Table3 { rows }
}

impl Table3 {
    /// Formats the table in the layout of the paper (N/T/C columns).
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    format!("{:.1}", r.theta),
                    format!(
                        "{:.0}/{:.0}/{:.0}",
                        r.nucleus.avg_vertices, r.truss.avg_vertices, r.core.avg_vertices
                    ),
                    format!(
                        "{:.0}/{:.0}/{:.0}",
                        r.nucleus.avg_edges, r.truss.avg_edges, r.core.avg_edges
                    ),
                    format!("{}/{}/{}", r.nucleus.k_max, r.truss.k_max, r.core.k_max),
                    format!("{:.3}/{:.3}/{:.3}", r.nucleus.pd, r.truss.pd, r.core.pd),
                    format!("{:.3}/{:.3}/{:.3}", r.nucleus.pcc, r.truss.pcc, r.core.pcc),
                ]
            })
            .collect();
        format!(
            "Table 3: cohesiveness of nucleus (N) vs truss (T) vs core (C)\n{}",
            format_table(
                &[
                    "Graph",
                    "theta",
                    "|V| N/T/C",
                    "|E| N/T/C",
                    "kmax N/T/C",
                    "PD N/T/C",
                    "PCC N/T/C"
                ],
                &rows
            )
        )
    }

    /// The paper's headline claim: the nucleus achieves PD and PCC at
    /// least as high as truss and core.  Returns the rows violating it
    /// (with a small tolerance).
    pub fn check_shape(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            if r.nucleus.pd + 0.05 < r.truss.pd || r.nucleus.pd + 0.05 < r.core.pd {
                violations.push(format!(
                    "{} theta={}: nucleus PD {:.3} below truss {:.3} / core {:.3}",
                    r.dataset, r.theta, r.nucleus.pd, r.truss.pd, r.core.pd
                ));
            }
            if r.nucleus.pcc + 0.05 < r.truss.pcc || r.nucleus.pcc + 0.05 < r.core.pcc {
                violations.push(format!(
                    "{} theta={}: nucleus PCC {:.3} below truss {:.3} / core {:.3}",
                    r.dataset, r.theta, r.nucleus.pcc, r.truss.pcc, r.core.pcc
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
    fn nucleus_is_densest_on_a_tiny_dataset() {
        let ctx = ExperimentContext::new(Scale::Tiny, 7);
        let t = run(&ctx, &[PaperDataset::Dblp]);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert!(row.nucleus.k_max >= 1, "nucleus should find dense groups");
            assert!(row.nucleus.pd > 0.0);
        }
        let violations = t.check_shape();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(t.format().contains("Table 3"));
    }
}
