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
use crate::runner::{format_table, ExperimentContext, Timing};
use crate::source::{GraphSource, IngestError};

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

/// Runs the benchmark at the configured rank: best-of-`repeats`
/// [`DecompSweep`] builds, then best-of-`repeats` independent
/// per-threshold [`Decomposition::compute`] loops, verifying bit-identity
/// of every per-threshold result on the way.
///
/// Panics if the sweep and an independent decomposition disagree on a
/// single score, initial score, method count or perf counter — the
/// benchmark doubles as a CI-enforced differential check at real scale.
pub fn run_bench(config: &SweepBenchConfig) -> Result<Report, IngestError> {
    let (graph, ingest_timings) = config.source.ingest(config.seed, config.repeats)?;
    let rank = config.rank;
    let sweep_config = SweepConfig::exact(config.thetas.clone()).with_rank(rank);
    let repeats = config.repeats.max(1);

    let mut sweep_s = f64::INFINITY;
    let mut index = None;
    // The process's peak RSS right after the sweep: an environment
    // probe, not a counter (0 where the platform has no `VmHWM`).
    let mut peak_rss_bytes = 0;
    let ((), sweep_t) = Timing::measure(|| {
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
    let ((), independent_t) = Timing::measure(|| {
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

    // The per-threshold peel counters, the sweep's asserted identical to
    // the independent run's; `independent_dp_calls` is recorded beside
    // `dp_calls` so the report states the ≤ relation explicitly.
    let rows = index.points().iter().zip(&independents);
    let rows = rows.map(|(point, solo)| {
        let theta = point.config().threshold;
        assert_eq!(
            point.scores(),
            solo.scores(),
            "{rank} sweep diverged from the independent decomposition at threshold {theta}"
        );
        assert_eq!(
            point.initial_scores(),
            solo.initial_scores(),
            "{rank} initial scores diverged at threshold {theta}"
        );
        assert_eq!(point.method_counts(), solo.method_counts());
        let stats = point.peel_stats();
        assert_eq!(stats, solo.peel_stats(), "perf counters diverged");
        object([
            ("theta", num(theta)),
            ("dp_calls", num(stats.dp_calls)),
            ("recompute_skips", num(stats.recompute_skips)),
            ("buckets_touched", num(stats.buckets_touched)),
            ("peak_scratch_bytes", num(stats.peak_scratch_bytes)),
            ("peak_rss_bytes", num(peak_rss_bytes)),
            ("max_score", num(point.max_score())),
            ("independent_dp_calls", num(solo.peel_stats().dp_calls)),
        ])
    });
    let rows: Vec<Json> = rows.collect();

    let mut r = Report::new("bench-parallel/v7");
    r.set("rank", Json::str(rank.to_string()));
    r.source(&config.source, config.seed);
    r.ingest(ingest_timings.as_ref());
    r.gate("vertices", graph.num_vertices(), Exact);
    r.gate("edges", graph.num_edges(), Exact);
    r.set("seed", num(config.seed));
    r.set("repeats", num(config.repeats));
    let available = Parallelism::Auto.num_threads();
    r.set("available_parallelism", num(available));
    // Rank-appropriate, with the parbench keys where the quantities
    // exist at this rank: the nucleus rank's elements and cells, the
    // truss rank's cells (triangles); the core rank's elements and cells
    // (vertices, edges) are already top-level report fields.
    r.set("counts", Json::Obj(Vec::new()));
    match &**index.support() {
        RankSupport::Nucleus(s) => {
            r.gate("counts.triangles", s.num_triangles(), Exact);
            r.gate("counts.four_cliques", s.num_cliques(), Exact);
        }
        RankSupport::Truss(s) => r.gate("counts.triangles", s.num_cells(), Exact),
        RankSupport::Core(_) => {}
    }
    let grid = config.thetas.iter().map(|&theta| num(theta));
    r.set("sweep.grid", Json::Arr(grid.collect()));
    r.gate("sweep.grid_size", rows.len(), Exact);
    // The tentpole invariant: one support build answers the grid.
    r.gate("sweep.support_builds", index.support_builds(), Exact);
    r.gate(
        "sweep.independent_support_builds",
        config.thetas.len(),
        Exact,
    );
    r.gate(
        "sweep.dp_calls_total",
        index.total_dp_calls(),
        LowerIsBetter,
    );
    let independent_total: usize = independents.iter().map(|d| d.peel_stats().dp_calls).sum();
    r.gate("sweep.independent_dp_calls_total", independent_total, Exact);
    r.gate("sweep.sweep_s", sweep_s, ReportOnly);
    r.gate("sweep.independent_s", independent_s, ReportOnly);
    // Independent-loop time over sweep time: > 1 means the shared
    // support build paid off.
    let amortization = independent_s / sweep_s.max(1e-9);
    r.gate("sweep.amortization", amortization, ReportOnly);
    let exceeded = sweep_t.exceeded(DEADLINE) || independent_t.exceeded(DEADLINE);
    r.set("sweep.deadline_exceeded", Json::Bool(exceeded));
    r.set("sweep.per_theta", Json::Arr(rows));
    Ok(r)
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
        let support = sweep.support().as_nucleus().expect("nucleus-rank sweep");
        shapes.push((name.clone(), support.num_triangles(), support.num_cliques()));
        for point in sweep.points() {
            let theta = point.config().threshold;
            let solo = Decomposition::compute(&graph, &DecompConfig::nucleus(theta))
                .expect("valid config");
            assert_eq!(
                point.scores(),
                solo.scores(),
                "{name}: sweep diverged at theta {theta}"
            );
            rows.push(SweepTableRow {
                dataset: name.clone(),
                theta,
                max_score: point.max_score(),
                nuclei_at_1: point.k_nuclei(&graph, 1).expect("nucleus rank").len(),
                stats: *point.peel_stats(),
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
    use crate::report::{assert_tagged, at, counters, num_at, parsed, render};
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

    fn max_scores(doc: &Json) -> Vec<f64> {
        let rows = at(doc, "sweep.per_theta").and_then(Json::as_array);
        let rows = rows.expect("per_theta rows");
        rows.iter().map(|row| num_at(row, "max_score")).collect()
    }

    fn str_at<'a>(doc: &'a Json, path: &str) -> Option<&'a str> {
        at(doc, path).and_then(Json::as_str)
    }

    #[test]
    fn report_is_consistent_and_support_built_once() {
        let doc = parsed(run_bench(&tiny_config()).unwrap());
        assert_eq!(num_at(&doc, "sweep.support_builds"), 1.0);
        assert_eq!(num_at(&doc, "sweep.independent_support_builds"), 3.0);
        assert_eq!(num_at(&doc, "sweep.grid_size"), 3.0);
        assert!(num_at(&doc, "counts.triangles") > 0.0);
        let exceeded = at(&doc, "sweep.deadline_exceeded").and_then(Json::as_bool);
        assert_eq!(exceeded, Some(false));
        // Same engine per θ on both sides: the sums are equal, so the ≤
        // gate holds with slack zero.
        assert_eq!(
            num_at(&doc, "sweep.dp_calls_total"),
            num_at(&doc, "sweep.independent_dp_calls_total")
        );
        assert!(num_at(&doc, "sweep.amortization") > 0.0);
        // Monotone max scores across the grid.
        assert!(max_scores(&doc).windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn json_has_v6_schema_and_parses_shape() {
        let doc = parsed(run_bench(&tiny_config()).unwrap());
        assert_eq!(str_at(&doc, "schema"), Some("bench-parallel/v7"));
        assert_eq!(str_at(&doc, "rank"), Some("nucleus"));
        assert_eq!(str_at(&doc, "source.kind"), Some("generated"));
        let grid = at(&doc, "sweep.grid").and_then(Json::as_array).unwrap();
        assert_eq!(grid, [Json::num(0.05), Json::num(0.1), Json::num(0.3)]);
        // Every per-theta row carries the RSS probe next to the
        // deterministic scratch peak, read by the bench itself.
        let rows = at(&doc, "sweep.per_theta").and_then(Json::as_array);
        for row in rows.unwrap() {
            let rss = num_at(row, "peak_rss_bytes");
            assert!(!cfg!(target_os = "linux") || rss > 0.0, "{rss}");
        }
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = parsed(run_bench(&tiny_config()).unwrap());
        let b = parsed(run_bench(&tiny_config()).unwrap());
        assert_eq!(counters(&a).unwrap(), counters(&b).unwrap());
        assert_eq!(max_scores(&a), max_scores(&b));
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
        let doc = parsed(run_bench(&config).unwrap());
        assert!(at(&doc, "source.ingest").is_some());
        assert_eq!(num_at(&doc, "edges"), 400.0);
        assert_eq!(str_at(&doc, "source.kind"), Some("file"));
        assert!(render(&doc).contains("sweep.amortization: "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truss_rank_sweeps_with_one_support_build() {
        let mut config = tiny_config();
        config.rank = Rank::Truss;
        let doc = parsed(run_bench(&config).unwrap());
        assert_eq!(num_at(&doc, "sweep.support_builds"), 1.0);
        assert_eq!(num_at(&doc, "sweep.grid_size"), 3.0);
        // The truss rank peels edges; triangles are the cells.
        assert!(num_at(&doc, "counts.triangles") > 0.0);
        assert_eq!(at(&doc, "counts.four_cliques"), None);
        assert_eq!(
            num_at(&doc, "sweep.dp_calls_total"),
            num_at(&doc, "sweep.independent_dp_calls_total")
        );
        assert!(max_scores(&doc).windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(str_at(&doc, "rank"), Some("truss"));
    }

    #[test]
    fn core_rank_sweeps_with_empty_counts() {
        let mut config = tiny_config();
        config.rank = Rank::Core;
        let json = run_bench(&config).unwrap().into_json();
        assert!(json.contains(r#""rank":"core""#));
        assert!(json.contains(r#""counts":{}"#));
        let doc = Json::parse(&json).expect("report JSON parses");
        assert_eq!(num_at(&doc, "sweep.support_builds"), 1.0);
        assert_eq!(num_at(&doc, "sweep.grid_size"), 3.0);
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
            assert_tagged(&parsed(run_bench(&config).unwrap()), &expected);
        }
    }
}
