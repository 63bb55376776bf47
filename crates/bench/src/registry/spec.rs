//! The scenario types: one runnable scenario is a [`Spec`] value,
//! dataset × workload × knobs × expected counters.
//!
//! Specs are plain Rust values.  The builtins live in
//! [`crate::registry::scenarios`]; the `experiments` subcommands build
//! one from their flags.

use nd_datasets::Scale;
use nucleus::Rank;
use ugraph::io::EdgeProbabilityModel;
use ugraph::InputFormat;

/// The workload a scenario drives — one per `experiments` subcommand
/// (bench drivers) or paper experiment id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The parallel-substrate benchmark (`parbench`).
    Parbench,
    /// The θ-sweep amortization benchmark (`thetasweep`).
    Thetasweep,
    /// The incremental-update benchmark (`updates`).
    Updates,
    /// The query-service scripted self-test (`serve --oneshot`).
    Serve,
    /// The million-edge memory-scaling baseline (`million`).
    Million,
    /// Paper Table 1 (dataset statistics).
    Table1,
    /// Paper Table 2 (decomposition sizes).
    Table2,
    /// Paper Table 3 (runtime comparison).
    Table3,
    /// Paper Figure 4 (nucleusness distributions).
    Fig4,
    /// Paper Figure 5 (density of discovered nuclei).
    Fig5,
    /// Paper Figure 6 (sampling-accuracy trade-off).
    Fig6,
    /// Paper Figure 7 (threshold sensitivity).
    Fig7,
    /// Paper Figure 8 (case-study nuclei).
    Fig8,
    /// The sampling/scoring ablation.
    Ablation,
}

impl Workload {
    /// Every workload, in canonical (display) order.
    pub const ALL: [Workload; 14] = [
        Workload::Parbench,
        Workload::Thetasweep,
        Workload::Updates,
        Workload::Serve,
        Workload::Million,
        Workload::Table1,
        Workload::Table2,
        Workload::Table3,
        Workload::Fig4,
        Workload::Fig5,
        Workload::Fig6,
        Workload::Fig7,
        Workload::Fig8,
        Workload::Ablation,
    ];

    /// Whether this is a paper table/figure (runs through
    /// [`crate::runner::ExperimentContext`]) rather than a bench driver.
    pub fn is_paper(&self) -> bool {
        !matches!(
            self,
            Workload::Parbench
                | Workload::Thetasweep
                | Workload::Updates
                | Workload::Serve
                | Workload::Million
        )
    }

    /// The subcommand (or paper experiment id) that runs this workload.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Parbench => "parbench",
            Workload::Thetasweep => "thetasweep",
            Workload::Updates => "updates",
            Workload::Serve => "serve",
            Workload::Million => "million",
            Workload::Table1 => "table1",
            Workload::Table2 => "table2",
            Workload::Table3 => "table3",
            Workload::Fig4 => "fig4",
            Workload::Fig5 => "fig5",
            Workload::Fig6 => "fig6",
            Workload::Fig7 => "fig7",
            Workload::Fig8 => "fig8",
            Workload::Ablation => "ablation",
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .iter()
            .find(|w| w.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown workload '{s}'"))
    }
}

/// The graph a scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// A seeded uniform G(n, m) graph, the shape the bench drivers
    /// default to.
    Generated {
        /// Edge count.
        edges: usize,
        /// Vertex count; `None` derives `(edges / 25).max(4)`.
        vertices: Option<usize>,
        /// RNG seed.
        seed: u64,
    },
    /// A seeded Barabási–Albert graph, the million driver's generator.
    Ba {
        /// Vertex count.
        vertices: usize,
        /// Edges each new vertex attaches with.
        attach: usize,
        /// RNG seed.
        seed: u64,
    },
    /// The paper's six synthetic datasets at a scale.
    Paper {
        /// Dataset scale.
        scale: Scale,
        /// RNG seed.
        seed: u64,
    },
    /// An ingested graph file (bench drivers only), loaded through the
    /// snapshot cache.
    File {
        /// Path to the edge-list or snapshot file.
        path: String,
        /// On-disk format.
        format: InputFormat,
        /// Edge-probability model.
        prob_model: EdgeProbabilityModel,
    },
}

/// Optional per-workload knobs (each maps to one driver-config field;
/// `None` keeps the driver default).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params {
    /// The (r,s) rank (`thetasweep`, `updates`).
    pub rank: Option<Rank>,
    /// The threshold grid (`thetasweep`, `updates`, `serve`, `million`).
    pub thetas: Option<Vec<f64>>,
    /// Repetitions (`parbench`, `thetasweep`).
    pub repeats: Option<usize>,
    /// Thread counts to measure (`parbench`; 1 is the implicit baseline).
    pub threads: Option<Vec<usize>>,
    /// Updates per operation kind (`updates`).
    pub batch: Option<usize>,
    /// Result-cache capacity (`serve`).
    pub cache: Option<usize>,
    /// Worker-pool size (`serve`, `million`).
    pub pool: Option<usize>,
    /// Streaming-build chunk size in edges (`million`).
    pub chunk_edges: Option<usize>,
}

/// One runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Unique scenario name (`[a-z0-9._-]+`).
    pub name: &'static str,
    /// The workload it drives.
    pub workload: Workload,
    /// Free-form tags for `matrix --tag` filtering.
    pub tags: &'static [&'static str],
    /// The graph.
    pub dataset: DatasetSpec,
    /// Workload knobs.
    pub params: Params,
    /// Expected counters: after the run, the counter at each dotted path
    /// must equal its value exactly.
    pub expect: &'static [(&'static str, f64)],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{run, scenarios};

    /// Whether a workload's driver reads this kind of dataset: the bench
    /// drivers take a generated graph or a file, `million` its
    /// Barabási–Albert generator, the paper workloads a paper scale.
    fn runs_on(workload: Workload, dataset: &DatasetSpec) -> bool {
        match workload {
            Workload::Million => matches!(dataset, DatasetSpec::Ba { .. }),
            w if w.is_paper() => matches!(dataset, DatasetSpec::Paper { .. }),
            _ => matches!(
                dataset,
                DatasetSpec::Generated { .. } | DatasetSpec::File { .. }
            ),
        }
    }

    #[test]
    fn workload_dataset_compatibility_is_enforced() {
        for s in scenarios() {
            assert!(
                runs_on(s.workload, &s.dataset),
                "{}: workload {} cannot run on {:?}",
                s.name,
                s.workload,
                s.dataset
            );
        }
        // A paper workload on a bench dataset is refused before any work.
        let mut misplaced = scenarios()
            .into_iter()
            .find(|s| s.workload == Workload::Table1)
            .expect("a table1 scenario");
        misplaced.dataset = DatasetSpec::Generated {
            edges: 10,
            vertices: None,
            seed: 1,
        };
        assert!(!runs_on(misplaced.workload, &misplaced.dataset));
        let err = run::execute(&misplaced).unwrap_err();
        assert!(err.contains("paper workloads cannot run on"), "{err}");
    }
}
