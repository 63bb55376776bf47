//! Threshold-sweep amortization benchmark and experiment driver, at any
//! (r,s) rank.
//!
//! The paper's experiments sweep θ for every figure (fig4–fig8 all
//! re-run the decomposition per threshold), paying the θ-independent
//! support-structure build each time.  [`DecompSweep`] amortizes that
//! build across the grid at every rank — the (3,4) nucleus, the
//! (k,η)-core and the (k,γ)-truss; this module measures the claim and
//! makes it CI-gateable:
//!
//! * [`run_bench`] builds one [`DecompSweep`] over a grid at the
//!   configured [`Rank`], then runs an **independent**
//!   [`Decomposition::compute`] per threshold (support rebuilt each time,
//!   exactly what a caller without the sweep would do), asserts every
//!   per-threshold result is bit-identical, and emits a
//!   `bench-parallel/v7` JSON report: the shared `counts`/`source`
//!   objects of the parbench schema plus a top-level `rank` string and
//!   a `sweep` object with `support_builds` (gated
//!   `== 1` in CI), per-threshold peel counters, the summed
//!   `dp_calls_total` vs `independent_dp_calls_total`, and the measured
//!   wall-clock amortization (reported, never gated).  The `counts`
//!   object is rank-appropriate: triangles and 4-cliques at the nucleus
//!   rank, triangles only at the truss rank, empty at the core rank.
//! * [`run_table`] runs the nucleus-rank sweep over the synthetic paper
//!   datasets at a pinned context and formats a fully deterministic
//!   table (counters only, no wall times) — the golden-snapshot surface.
//!
//! ```json
//! "rank": "nucleus",
//! "sweep": { "grid": [0.02, 0.05, 0.1, 0.25, 0.5], "grid_size": 5,
//!            "support_builds": 1, "independent_support_builds": 5,
//!            "dp_calls_total": 40705, "independent_dp_calls_total": 40705,
//!            "sweep_s": 0.61, "independent_s": 2.05, "amortization": 3.4,
//!            "per_theta": [ { "theta": 0.02, "dp_calls": 9641, ... } ] }
//! ```
//!
//! The `per_theta` key names are shared by every rank for schema
//! stability; at the core and truss ranks the `theta` values are the η
//! and γ grids.

use std::time::Duration;

use nd_datasets::PaperDataset;
use ugraph::par::Parallelism;
use ugraph::rs::RsSupport;

use nucleus::{
    DecompConfig, DecompSweep, Decomposition, PeelStats, Rank, RankSupport, ScoreMethod,
    SweepConfig,
};

use crate::compare::Gate::{Exact, LowerIsBetter, ReportOnly};
use crate::json::Json;
use crate::report::{num, object, Report};
use crate::runner::{format_table, run_with_deadline, ExperimentContext, Timing};
use crate::source::{GraphSource, IngestError, IngestTimings};

/// The default θ grid of the benchmark: spans the range the paper's
/// figures sweep, anchored on the parbench θ (0.1).
pub const DEFAULT_GRID: [f64; 5] = [0.02, 0.05, 0.1, 0.25, 0.5];

/// Wall-clock budget per measured phase (sweep / independent loop).
const DEADLINE: Duration = Duration::from_secs(600);

/// Configuration of the threshold-sweep benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBenchConfig {
    /// The (r,s) rank to sweep: core, truss or nucleus.
    pub rank: Rank,
    /// The measured graph (a file's ingest is timed as in `parbench`).
    pub source: GraphSource,
    /// RNG seed of a generated graph.
    pub seed: u64,
    /// The threshold grid — θ, or η/γ at the other ranks (validated by
    /// the sweep engine).
    pub thetas: Vec<f64>,
    /// Repetitions; best (minimum) wall time is reported.
    pub repeats: usize,
}

impl Default for SweepBenchConfig {
    /// The parbench default graph, so the two reports describe the same
    /// workload.
    fn default() -> Self {
        SweepBenchConfig {
            rank: Rank::Nucleus,
            source: GraphSource::default(),
            seed: 42,
            thetas: DEFAULT_GRID.to_vec(),
            repeats: 3,
        }
    }
}

impl SweepBenchConfig {
    /// The `# experiment:` line the `thetasweep` subcommand prints.
    pub fn header(&self) -> String {
        let knobs = format!("grid: {:?}  repeats: {}", self.thetas, self.repeats);
        let experiment = format!("thetasweep  rank: {}", self.rank);
        self.source.header(&experiment, &knobs, self.seed)
    }
}

/// Deterministic counters of one grid point.
#[derive(Debug, Clone, Copy)]
pub struct PerThetaCounters {
    /// The threshold.
    pub theta: f64,
    /// Peel counters of the sweep at this θ (asserted identical to the
    /// independent run's).
    pub stats: PeelStats,
    /// The process's peak resident set size in bytes
    /// ([`ugraph::metrics::peak_rss_bytes`]), read right after the sweep
    /// that produced this point: an environment probe, not a counter
    /// (0 where the platform has no `VmHWM`).
    pub peak_rss_bytes: u64,
    /// Largest ℓ-nucleusness at this θ.
    pub max_score: u32,
    /// Peeling-time recomputations of the independent per-θ run
    /// (bit-identical to `stats.dp_calls` by the engine contract; both
    /// are recorded so the report states the ≤ relation explicitly).
    pub independent_dp_calls: usize,
}

/// Full report of a θ-sweep benchmark run.
#[derive(Debug, Clone)]
pub struct SweepBenchReport {
    /// The configuration the report was produced with.
    pub config: SweepBenchConfig,
    /// Actual vertex count of the measured graph.
    pub actual_vertices: usize,
    /// Actual edge count of the measured graph.
    pub actual_edges: usize,
    /// Ingestion timings when the graph came from `--input`.
    pub ingest: Option<IngestTimings>,
    /// Number of triangles (the nucleus rank's elements and the truss
    /// rank's cells; `None` at the core rank, whose element and cell
    /// counts are the top-level vertex and edge counts).
    pub num_triangles: Option<usize>,
    /// Number of 4-cliques (nucleus-rank cells; `None` elsewhere).
    pub num_four_cliques: Option<usize>,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub available_parallelism: usize,
    /// Support-structure builds of the sweep (the tentpole number: 1).
    pub support_builds: usize,
    /// Support-structure builds of the independent loop (grid size).
    pub independent_support_builds: usize,
    /// Per-θ counters, in grid order.
    pub per_theta: Vec<PerThetaCounters>,
    /// Best-of-repeats wall seconds of the whole sweep (one support
    /// build + every peel).
    pub sweep_s: f64,
    /// Best-of-repeats wall seconds of the independent per-θ loop.
    pub independent_s: f64,
    /// `true` when a measured phase blew its wall-clock budget.
    pub deadline_exceeded: bool,
}

impl SweepBenchReport {
    /// Sum of peeling-time recomputations across the grid (sweep side).
    pub fn dp_calls_total(&self) -> usize {
        self.per_theta.iter().map(|p| p.stats.dp_calls).sum()
    }

    /// Sum of the independent runs' recomputations.
    pub fn independent_dp_calls_total(&self) -> usize {
        self.per_theta.iter().map(|p| p.independent_dp_calls).sum()
    }

    /// Wall-clock amortization: independent-loop time over sweep time
    /// (> 1 means the shared support build paid off).
    pub fn amortization(&self) -> f64 {
        self.independent_s / self.sweep_s.max(1e-9)
    }

    /// Serializes the report to the `bench-parallel/v7` JSON schema.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut r = Report::new("bench-parallel/v7");
        r.set("rank", Json::str(c.rank.to_string()));
        r.source(&c.source, c.seed);
        r.ingest(self.ingest.as_ref());
        r.gate("vertices", self.actual_vertices, Exact);
        r.gate("edges", self.actual_edges, Exact);
        r.set("seed", num(c.seed));
        r.set("repeats", num(c.repeats));
        r.set("available_parallelism", num(self.available_parallelism));
        // Rank-appropriate, with the parbench keys where the quantities
        // exist at this rank.
        r.set("counts", Json::Obj(Vec::new()));
        if let Some(t) = self.num_triangles {
            r.gate("counts.triangles", t, Exact);
        }
        if let Some(cliques) = self.num_four_cliques {
            r.gate("counts.four_cliques", cliques, Exact);
        }
        let grid = self.per_theta.iter().map(|p| num(p.theta));
        r.set("sweep.grid", Json::Arr(grid.collect()));
        r.gate("sweep.grid_size", self.per_theta.len(), Exact);
        // The tentpole invariant: one support build answers the grid.
        r.gate("sweep.support_builds", self.support_builds, Exact);
        r.gate(
            "sweep.independent_support_builds",
            self.independent_support_builds,
            Exact,
        );
        r.gate("sweep.dp_calls_total", self.dp_calls_total(), LowerIsBetter);
        r.gate(
            "sweep.independent_dp_calls_total",
            self.independent_dp_calls_total(),
            Exact,
        );
        r.gate("sweep.sweep_s", self.sweep_s, ReportOnly);
        r.gate("sweep.independent_s", self.independent_s, ReportOnly);
        r.gate("sweep.amortization", self.amortization(), ReportOnly);
        r.set(
            "sweep.deadline_exceeded",
            Json::Bool(self.deadline_exceeded),
        );
        let rows = self.per_theta.iter().map(|p| {
            object([
                ("theta", num(p.theta)),
                ("dp_calls", num(p.stats.dp_calls)),
                ("recompute_skips", num(p.stats.recompute_skips)),
                ("buckets_touched", num(p.stats.buckets_touched)),
                ("peak_scratch_bytes", num(p.stats.peak_scratch_bytes)),
                ("peak_rss_bytes", num(p.peak_rss_bytes)),
                ("max_score", num(p.max_score)),
                ("independent_dp_calls", num(p.independent_dp_calls)),
            ])
        });
        r.set("sweep.per_theta", Json::Arr(rows.collect()));
        r.into_json()
    }

    /// Human-readable table of the same measurements.
    pub fn format(&self) -> String {
        let mut rows = Vec::new();
        for p in &self.per_theta {
            rows.push(vec![
                format!("{:.3}", p.theta),
                p.stats.dp_calls.to_string(),
                p.stats.recompute_skips.to_string(),
                p.stats.buckets_touched.to_string(),
                p.stats.peak_scratch_bytes.to_string(),
                p.max_score.to_string(),
            ]);
        }
        let counts = match (self.num_triangles, self.num_four_cliques) {
            (Some(t), Some(c)) => format!(", {t} triangles, {c} 4-cliques"),
            (Some(t), None) => format!(", {t} triangles"),
            _ => String::new(),
        };
        format!(
            "{} sweep bench — {} vertices, {} edges (seed {}){}, host parallelism {}\n\
             support builds: {} (sweep) vs {} (independent); dp_calls {} vs {}\n\
             wall: sweep {:.3}s vs independent {:.3}s ({:.2}x amortization){}\n{}",
            self.config.rank,
            self.actual_vertices,
            self.actual_edges,
            self.config.seed,
            counts,
            self.available_parallelism,
            self.support_builds,
            self.independent_support_builds,
            self.dp_calls_total(),
            self.independent_dp_calls_total(),
            self.sweep_s,
            self.independent_s,
            self.amortization(),
            if self.deadline_exceeded {
                " [DEADLINE EXCEEDED]"
            } else {
                ""
            },
            format_table(
                &[
                    self.config.rank.threshold_name(),
                    "dp_calls",
                    "skips",
                    "buckets",
                    "scratch_B",
                    "max_score"
                ],
                &rows,
            )
        )
    }
}

/// Runs the benchmark at the configured rank: best-of-`repeats`
/// [`DecompSweep`] builds, then best-of-`repeats` independent
/// per-threshold [`Decomposition::compute`] loops, verifying bit-identity
/// of every per-threshold result on the way.
///
/// Panics if the sweep and an independent decomposition disagree on a
/// single score, initial score, method count or perf counter — the
/// benchmark doubles as a CI-enforced differential check at real scale.
pub fn run_bench(config: &SweepBenchConfig) -> Result<SweepBenchReport, IngestError> {
    let (graph, ingest_timings) = config.source.ingest(config.seed, config.repeats)?;
    let rank = config.rank;
    let sweep_config = SweepConfig::exact(config.thetas.clone()).with_rank(rank);
    let repeats = config.repeats.max(1);

    let mut sweep_s = f64::INFINITY;
    let mut index = None;
    let mut peak_rss_bytes = 0;
    let (_, _, sweep_exceeded) = run_with_deadline(DEADLINE, || {
        for _ in 0..repeats {
            let (built, t) = Timing::measure(|| {
                DecompSweep::compute(&graph, &sweep_config).expect("valid sweep config")
            });
            peak_rss_bytes = ugraph::metrics::peak_rss_bytes();
            sweep_s = sweep_s.min(t.seconds());
            index = Some(built);
        }
    });
    let index = index.expect("at least one repeat ran");
    assert_eq!(index.support_builds(), 1, "sweep must build support once");

    let mut independent_s = f64::INFINITY;
    let mut independents = None;
    let (_, _, indep_exceeded) = run_with_deadline(DEADLINE, || {
        for _ in 0..repeats {
            let (solo, t) = Timing::measure(|| {
                config
                    .thetas
                    .iter()
                    .map(|&threshold| {
                        let point = DecompConfig {
                            rank,
                            threshold,
                            method: ScoreMethod::DynamicProgramming,
                            parallelism: Parallelism::Auto,
                        };
                        Decomposition::compute(&graph, &point).expect("valid config")
                    })
                    .collect::<Vec<_>>()
            });
            independent_s = independent_s.min(t.seconds());
            independents = Some(solo);
        }
    });
    let independents = independents.expect("at least one repeat ran");

    let per_theta: Vec<PerThetaCounters> = config
        .thetas
        .iter()
        .enumerate()
        .zip(&independents)
        .map(|((gi, &theta), solo)| {
            assert_eq!(
                index.scores_at_index(gi),
                solo.scores(),
                "{rank} sweep diverged from the independent decomposition at threshold {theta}"
            );
            assert_eq!(
                index.initial_scores_at_index(gi),
                solo.initial_scores(),
                "{rank} initial scores diverged at threshold {theta}"
            );
            assert_eq!(index.method_counts_at_index(gi), solo.method_counts());
            let stats = *index.peel_stats_at_index(gi);
            assert_eq!(&stats, solo.peel_stats(), "perf counters diverged");
            PerThetaCounters {
                theta,
                stats,
                peak_rss_bytes,
                max_score: index.max_score_at_index(gi),
                independent_dp_calls: solo.peel_stats().dp_calls,
            }
        })
        .collect();

    // The cell counts the `counts` object can carry at this rank: the
    // nucleus rank's elements and cells, the truss rank's cells
    // (triangles); the core rank's elements and cells (vertices, edges)
    // are already top-level report fields.
    let (num_triangles, num_four_cliques) = match &**index.support() {
        RankSupport::Nucleus(s) => (Some(s.num_triangles()), Some(s.num_cliques())),
        RankSupport::Truss(s) => (Some(s.num_cells()), None),
        RankSupport::Core(_) => (None, None),
    };

    Ok(SweepBenchReport {
        config: config.clone(),
        actual_vertices: graph.num_vertices(),
        actual_edges: graph.num_edges(),
        ingest: ingest_timings,
        num_triangles,
        num_four_cliques,
        available_parallelism: Parallelism::Auto.num_threads(),
        support_builds: index.support_builds(),
        independent_support_builds: config.thetas.len(),
        per_theta,
        sweep_s,
        independent_s,
        deadline_exceeded: sweep_exceeded || indep_exceeded,
    })
}

/// One row of the deterministic sweep table.
#[derive(Debug, Clone)]
pub struct SweepTableRow {
    /// Dataset label.
    pub dataset: String,
    /// The threshold.
    pub theta: f64,
    /// Largest ℓ-nucleusness at this θ.
    pub max_score: u32,
    /// Number of maximal ℓ-(1,θ)-nuclei.
    pub nuclei_at_1: usize,
    /// Peel counters at this θ.
    pub stats: PeelStats,
}

/// Deterministic sweep summary over the synthetic datasets — the golden
/// snapshot surface (no wall-clock fields).
#[derive(Debug, Clone)]
pub struct SweepTable {
    /// Per-dataset graph shape: label, triangles, 4-cliques.
    pub datasets: Vec<(String, usize, usize)>,
    /// Per-(dataset, θ) counters, grid-major within each dataset.
    pub rows: Vec<SweepTableRow>,
    /// The grid every dataset was swept over.
    pub thetas: Vec<f64>,
}

impl SweepTable {
    /// Renders the deterministic table.
    pub fn format(&self) -> String {
        let mut rows = Vec::new();
        for r in &self.rows {
            rows.push(vec![
                r.dataset.clone(),
                format!("{:.2}", r.theta),
                r.max_score.to_string(),
                r.nuclei_at_1.to_string(),
                r.stats.dp_calls.to_string(),
                r.stats.recompute_skips.to_string(),
                r.stats.buckets_touched.to_string(),
            ]);
        }
        let shapes: Vec<String> = self
            .datasets
            .iter()
            .map(|(name, tris, cliques)| format!("{name}: {tris} triangles, {cliques} 4-cliques"))
            .collect();
        format!(
            "theta sweep (one support build per dataset, {} grid points)\n{}\n{}",
            self.thetas.len(),
            shapes.join("\n"),
            format_table(
                &["dataset", "theta", "kmax", "nuclei@1", "dp_calls", "skips", "buckets"],
                &rows,
            )
        )
    }
}

/// Sweeps every dataset of `datasets` over `thetas` under the pinned
/// experiment context, verifying each grid point against an independent
/// decomposition (the sweep's differential contract, re-checked on the
/// synthetic data the goldens pin).
pub fn run_table(ctx: &ExperimentContext, datasets: &[PaperDataset], thetas: &[f64]) -> SweepTable {
    let config = SweepConfig::exact(thetas.to_vec());
    let mut shapes = Vec::new();
    let mut rows = Vec::new();
    for &dataset in datasets {
        let graph = ctx.dataset(dataset);
        let name = ctx.dataset_name(dataset);
        let sweep = DecompSweep::compute(&graph, &config).expect("valid sweep");
        assert_eq!(sweep.support_builds(), 1);
        assert!(
            sweep.is_monotone_in_threshold(),
            "{name}: sweep rows must be non-increasing in theta"
        );
        let support = sweep.nucleus_support().expect("nucleus-rank sweep");
        shapes.push((name.clone(), support.num_triangles(), support.num_cliques()));
        for (gi, &theta) in thetas.iter().enumerate() {
            let solo = Decomposition::compute(&graph, &DecompConfig::nucleus(theta))
                .expect("valid config");
            assert_eq!(
                sweep.scores_at_index(gi),
                solo.scores(),
                "{name}: sweep diverged at theta {theta}"
            );
            rows.push(SweepTableRow {
                dataset: name.clone(),
                theta,
                max_score: sweep.max_score_at_index(gi),
                nuclei_at_1: sweep
                    .k_nuclei_at(&graph, theta, 1)
                    .expect("grid point")
                    .len(),
                stats: *sweep.peel_stats_at_index(gi),
            });
        }
    }
    SweepTable {
        datasets: shapes,
        rows,
        thetas: thetas.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::generate_graph;
    use nd_datasets::{ExternalDataset, Scale};

    fn tiny_config() -> SweepBenchConfig {
        SweepBenchConfig {
            rank: Rank::Nucleus,
            source: GraphSource::Generated {
                vertices: 60,
                edges: 400,
            },
            seed: 7,
            thetas: vec![0.05, 0.1, 0.3],
            repeats: 1,
        }
    }

    #[test]
    fn report_is_consistent_and_support_built_once() {
        let report = run_bench(&tiny_config()).unwrap();
        assert_eq!(report.support_builds, 1);
        assert_eq!(report.independent_support_builds, 3);
        assert_eq!(report.per_theta.len(), 3);
        assert!(report.num_triangles.unwrap() > 0);
        assert!(!report.deadline_exceeded);
        // Same engine per θ on both sides: the sums are equal, so the ≤
        // gate holds with slack zero.
        assert_eq!(report.dp_calls_total(), report.independent_dp_calls_total());
        assert!(report.amortization() > 0.0);
        // Monotone max scores across the grid.
        for w in report.per_theta.windows(2) {
            assert!(w[1].max_score <= w[0].max_score);
        }
    }

    #[test]
    fn json_has_v6_schema_and_parses_shape() {
        let report = run_bench(&tiny_config()).unwrap();
        let json = report.to_json();
        assert!(json.contains(r#""schema":"bench-parallel/v7""#));
        assert!(json.contains(r#""rank":"nucleus""#));
        assert!(json.contains(r#""kind":"generated""#));
        let doc = crate::json::Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.path(&["sweep", "support_builds"])
                .and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.path(&["sweep", "grid_size"])
                .and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            doc.path(&["sweep", "dp_calls_total"])
                .and_then(crate::json::Json::as_f64),
            Some(report.dp_calls_total() as f64)
        );
        assert_eq!(
            doc.path(&["counts", "triangles"])
                .and_then(crate::json::Json::as_f64),
            Some(report.num_triangles.unwrap() as f64)
        );
        // Every per-theta row carries the RSS probe next to the
        // deterministic scratch peak, read by the bench itself.
        assert!(json.contains("\"peak_rss_bytes\""));
        if cfg!(target_os = "linux") {
            assert!(report.per_theta.iter().all(|p| p.peak_rss_bytes > 0));
        }
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = run_bench(&tiny_config()).unwrap();
        let b = run_bench(&tiny_config()).unwrap();
        assert_eq!(a.dp_calls_total(), b.dp_calls_total());
        for (x, y) in a.per_theta.iter().zip(&b.per_theta) {
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.max_score, y.max_score);
        }
    }

    #[test]
    fn table_mode_is_deterministic_and_formats() {
        let ctx = ExperimentContext::new(Scale::Tiny, 42);
        let datasets = [PaperDataset::Krogan, PaperDataset::Flickr];
        let a = run_table(&ctx, &datasets, &[0.1, 0.4]);
        let b = run_table(&ctx, &datasets, &[0.1, 0.4]);
        assert_eq!(a.format(), b.format());
        assert_eq!(a.rows.len(), 4);
        assert!(a.format().contains("dataset"));
        assert!(a.format().contains("krogan"));
    }

    #[test]
    fn input_mode_records_provenance() {
        use ugraph::io::EdgeProbabilityModel;
        use ugraph::InputFormat;

        let dir = std::env::temp_dir().join("thetasweep_input_mode_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.txt");
        ugraph::io::write_edge_list_file(&generate_graph(60, 400, 7), &path).unwrap();

        let mut config = tiny_config();
        config.source = GraphSource::File(ExternalDataset::new(
            &path,
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        ));
        let report = run_bench(&config).unwrap();
        assert!(report.ingest.is_some());
        assert_eq!(report.actual_edges, 400);
        let json = report.to_json();
        assert!(json.contains(r#""kind":"file""#));
        assert!(json.contains(r#""schema":"bench-parallel/v7""#));
        assert!(report.format().contains("amortization"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truss_rank_sweeps_with_one_support_build() {
        let mut config = tiny_config();
        config.rank = Rank::Truss;
        let report = run_bench(&config).unwrap();
        assert_eq!(report.support_builds, 1);
        assert_eq!(report.per_theta.len(), 3);
        // The truss rank peels edges; triangles are the cells.
        assert_eq!(report.per_theta.len(), config.thetas.len());
        assert!(report.num_triangles.unwrap() > 0);
        assert_eq!(report.num_four_cliques, None);
        assert_eq!(report.dp_calls_total(), report.independent_dp_calls_total());
        for w in report.per_theta.windows(2) {
            assert!(w[1].max_score <= w[0].max_score);
        }
        let json = report.to_json();
        assert!(json.contains(r#""schema":"bench-parallel/v7""#));
        assert!(json.contains(r#""rank":"truss""#));
        assert!(json.contains("\"triangles\""));
        assert!(!json.contains("four_cliques"));
        let doc = crate::json::Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.path(&["sweep", "support_builds"])
                .and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert!(report.format().starts_with("truss sweep bench"));
        assert!(report.format().contains("gamma"));
    }

    #[test]
    fn core_rank_sweeps_with_empty_counts() {
        let mut config = tiny_config();
        config.rank = Rank::Core;
        let report = run_bench(&config).unwrap();
        assert_eq!(report.support_builds, 1);
        assert_eq!(report.num_triangles, None);
        assert_eq!(report.num_four_cliques, None);
        let json = report.to_json();
        assert!(json.contains(r#""rank":"core""#));
        assert!(json.contains(r#""counts":{}"#));
        let doc = crate::json::Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.path(&["sweep", "grid_size"])
                .and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        assert!(report.format().contains("eta"));
    }

    #[test]
    fn report_tags_every_gated_number_at_every_rank() {
        for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
            let mut config = tiny_config();
            config.rank = rank;
            let mut expected = vec![
                ("vertices", Exact),
                ("edges", Exact),
                ("sweep.grid_size", Exact),
                ("sweep.support_builds", Exact),
                ("sweep.independent_support_builds", Exact),
                ("sweep.dp_calls_total", LowerIsBetter),
                ("sweep.independent_dp_calls_total", Exact),
                ("sweep.sweep_s", ReportOnly),
                ("sweep.independent_s", ReportOnly),
                ("sweep.amortization", ReportOnly),
            ];
            if rank != Rank::Core {
                expected.push(("counts.triangles", Exact));
            }
            if rank == Rank::Nucleus {
                expected.push(("counts.four_cliques", Exact));
            }
            let json = run_bench(&config).unwrap().to_json();
            crate::report::assert_tagged(&json, &expected);
        }
    }
}
