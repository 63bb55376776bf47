//! The scenario types: one runnable scenario is a [`Spec`] value, a
//! named [`Job`] with tags and expected counters.
//!
//! Specs are plain Rust values.  The builtins live in
//! [`crate::registry::scenarios`]; the `experiments` bench subcommands
//! parse their flags into a [`Job`] ([`crate::cli::parse_job`]).

use nd_datasets::Scale;

use crate::million::MillionBenchConfig;
use crate::parbench::ParBenchConfig;
use crate::serve::ServeBenchConfig;
use crate::thetasweep::SweepBenchConfig;
use crate::updates::UpdateBenchConfig;

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

/// What a scenario runs: a bench driver with the config it runs, or a
/// paper table/figure on the paper's synthetic datasets.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// The parallel-substrate benchmark.
    Parbench(ParBenchConfig),
    /// The θ-sweep amortization benchmark.
    Thetasweep(SweepBenchConfig),
    /// The incremental-update benchmark.
    Updates(UpdateBenchConfig),
    /// The query-service scripted self-test.
    Serve(ServeBenchConfig),
    /// The million-edge memory-scaling baseline.
    Million(MillionBenchConfig),
    /// A paper table or figure.
    Paper {
        /// Which one: `Table1` to `Ablation`.
        workload: Workload,
        /// Dataset scale.
        scale: Scale,
        /// RNG seed of the datasets.
        seed: u64,
    },
}

impl Job {
    /// The workload the job runs.
    pub fn workload(&self) -> Workload {
        match self {
            Job::Parbench(_) => Workload::Parbench,
            Job::Thetasweep(_) => Workload::Thetasweep,
            Job::Updates(_) => Workload::Updates,
            Job::Serve(_) => Workload::Serve,
            Job::Million(_) => Workload::Million,
            Job::Paper { workload, .. } => *workload,
        }
    }

    /// The `# experiment:` line the job's subcommand prints.
    pub fn header(&self) -> String {
        match self {
            Job::Parbench(config) => config.header(),
            Job::Thetasweep(config) => config.header(),
            Job::Updates(config) => config.header(),
            Job::Serve(config) => config.header(),
            Job::Million(config) => config.header(),
            Job::Paper { workload, .. } => format!("# experiment: {workload}\n"),
        }
    }
}

/// One runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Unique scenario name (`[a-z0-9_-]+`): one segment of the matrix
    /// report's dotted paths.
    pub name: &'static str,
    /// Free-form tags for `matrix --tag` filtering.
    pub tags: &'static [&'static str],
    /// What it runs.
    pub job: Job,
    /// Expected counters: after the run, the counter at each dotted path
    /// must equal its value exactly.
    pub expect: &'static [(&'static str, f64)],
}
