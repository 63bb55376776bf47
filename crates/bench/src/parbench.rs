//! Parallel-substrate benchmark with machine-readable JSON output.
//!
//! The paper's experiments (Section 7) are dominated by triangle and
//! 4-clique enumeration and support computation; `ugraph::par` makes those
//! hot paths multi-threaded.  This module measures them at a range of
//! thread counts against the sequential baseline on a seeded random graph
//! and emits a `BENCH_parallel.json` report, so the performance trajectory
//! of the substrate becomes a tracked, diffable artifact instead of a
//! number in a PR description.
//!
//! The JSON schema (`bench-parallel/v7` — the documented field-by-field
//! reference of every bench report family lives in
//! `docs/BENCH_SCHEMAS.md`), compact on one line, shown spread out:
//!
//! ```json
//! {
//!   "schema": "bench-parallel/v7",
//!   "source": { "kind": "generated", "generator": "gnm-uniform",
//!               "requested_vertices": 2000, "requested_edges": 50000,
//!               "seed": 42 },
//!   "vertices": 5000, "edges": 50000, "seed": 42, "repeats": 3,
//!   "available_parallelism": 8,
//!   "counts": { "triangles": 16500, "four_cliques": 120 },
//!   "peel": { "theta": 0.1, "dp_calls": 8, "recompute_skips": 120,
//!             "buckets_touched": 3, "peak_scratch_bytes": 1840,
//!             "peak_rss_bytes": 73400320,
//!             "reference_dp_calls": 150, "dp_calls_saved_pct": 94.7,
//!             "max_score": 2,
//!             "method_counts": [ { "method": "DP", "count": 16500 } ],
//!             "peel_s": 0.09, "reference_peel_s": 0.15 },
//!   "baseline": { "threads": 1, "triangles_s": 0.21, "four_cliques_s": 0.26,
//!                 "support_s": 0.34, "total_s": 0.34, "speedup": 1.0,
//!                 "deadline_exceeded": false },
//!   "runs": [ { "threads": 4, "triangles_s": 0.11, ... , "speedup": 3.6,
//!               "deadline_exceeded": false } ],
//!   "gates": { "vertices": "exact", ..., "peel.dp_calls": "lower-is-better",
//!              "peel.peak_rss_bytes": "within-factor:2", ... }
//! }
//! ```
//!
//! The `peel` object carries the deterministic perf counters of the
//! ℓ-NuDecomp peeling engine ([`nucleus::PeelStats`]) next to the frozen
//! reference engine's `reference_dp_calls`; `method_counts` is emitted as
//! an array **sorted by method name** so the JSON is byte-stable (a
//! `HashMap` iteration order must never leak into a tracked artifact).
//! Each number's `bench-compare` gate is tagged where [`crate::report`]
//! places it; the counters gate, the wall-clock fields (`*_s`,
//! `speedup`) never do.
//!
//! With `--input` the `source` object records the ingested file instead —
//! its path, format and probability model plus the ingestion timings
//! (text parse vs `.ugsnap` snapshot reload), so the dataset provenance
//! and the snapshot-cache speedup are part of the tracked artifact:
//!
//! ```json
//! "source": { "kind": "file", "path": "graphs/soc.txt", "format": "snap",
//!             "prob_model": "column",
//!             "ingest": { "parse_s": 1.21, "snapshot_write_s": 0.05,
//!                         "snapshot_reload_s": 0.07,
//!                         "reload_speedup": 17.3,
//!                         "snapshot_mmap_s": 0.004, "mmap_speedup": 17.5,
//!                         "mmap_used": true } }
//! ```
//!
//! Timings are best-of-`repeats` wall-clock seconds per phase, the four
//! ingest steps (parse, snapshot write, owned reload, mapped open)
//! included.
//! `triangles_s` and `four_cliques_s` are standalone enumeration probes;
//! the support build runs its own triangle pass and 4-clique extension,
//! so `total_s` is the support build alone (`support_s`) and `speedup`
//! is the sequential `total_s` divided by the run's.  A run's
//! `deadline_exceeded` flag records whether its repeats outlived a
//! wall-clock budget; the run itself is never interrupted.

use std::sync::Arc;
use std::time::Duration;

use ugraph::cliques::FourCliqueEnumerator;
use ugraph::par::Parallelism;
use ugraph::triangles::enumerate_triangles_with;
use ugraph::UncertainGraph;

use nucleus::reference;
use nucleus::{DecompConfig, DecompHandle, RankSupport, SupportStructure};

use crate::compare::Gate::{Exact, LowerIsBetter, ReportOnly, WithinFactor};
use crate::json::Json;
use crate::report::{num, object, Report};
use crate::runner::Timing;
use crate::source::{GraphSource, IngestError};

/// Wall-clock budget per measured configuration.
const DEADLINE: Duration = Duration::from_secs(600);

/// Configuration of the parallel-substrate benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ParBenchConfig {
    /// The measured graph.  A file's ingest is measured too (text parse
    /// vs snapshot reload) and recorded as the dataset provenance.
    pub source: GraphSource,
    /// RNG seed of a generated graph.
    pub seed: u64,
    /// Thread counts to measure (the sequential baseline always runs).
    pub threads: Vec<usize>,
    /// Repetitions per configuration; best (minimum) time is reported.
    pub repeats: usize,
}

impl Default for ParBenchConfig {
    /// The default 50k-edge graph: the scale the acceptance bar of the
    /// parallel substrate is measured at.
    fn default() -> Self {
        ParBenchConfig {
            source: GraphSource::default(),
            seed: 42,
            threads: vec![2, 4],
            repeats: 3,
        }
    }
}

impl ParBenchConfig {
    /// The `# experiment:` line the `parbench` subcommand prints.
    pub fn header(&self) -> String {
        let knobs = format!("threads: {:?}  repeats: {}", self.threads, self.repeats);
        self.source.header("parbench", &knobs, self.seed)
    }
}

/// Measures one configuration: the best-of-`repeats` seconds of the
/// triangle probe, the 4-clique probe and the support build, whether the
/// repeats outlived [`DEADLINE`], and the triangle and 4-clique counts.
fn measure_config(
    graph: &UncertainGraph,
    parallelism: Parallelism,
    repeats: usize,
) -> ([f64; 3], bool, usize, usize) {
    let mut best = [f64::INFINITY; 3];
    let mut num_triangles = 0usize;
    let mut num_cliques = 0usize;
    let ((), total) = Timing::measure(|| {
        for _ in 0..repeats.max(1) {
            let (tris, t1) = Timing::measure(|| enumerate_triangles_with(graph, parallelism));
            let (cliques, t2) =
                Timing::measure(|| FourCliqueEnumerator::with_parallelism(graph, parallelism));
            let (support, t3) =
                Timing::measure(|| SupportStructure::build_with(graph, parallelism));
            num_triangles = tris.len();
            num_cliques = cliques.len();
            assert_eq!(
                support.num_triangles(),
                num_triangles,
                "support structure disagrees with the triangle enumeration"
            );
            for (slot, t) in best.iter_mut().zip([t1, t2, t3]) {
                *slot = slot.min(t.seconds());
            }
        }
    });
    (best, total.exceeded(DEADLINE), num_triangles, num_cliques)
}

/// Runs the ℓ-NuDecomp peeling engine and the frozen reference engine on
/// the benchmark graph at θ = 0.1 (exact DP) and places their perf
/// counters under `peel`.  Wall times are best-of-`repeats` like every
/// other phase, so neither engine is billed for cold caches.
/// Panics if the engines disagree on a single score — the benchmark
/// doubles as a CI-enforced bit-identity check at real scale.
fn measure_peel(graph: &UncertainGraph, repeats: usize, r: &mut Report) {
    let config = DecompConfig::nucleus(0.1);
    let mut support = Some(SupportStructure::build_with(graph, Parallelism::Auto));
    let mut reference_s = f64::INFINITY;
    let mut engine_s = f64::INFINITY;
    let mut peak_rss_bytes = 0;
    let mut last = None;
    for rep in 0..repeats.max(1) {
        let borrowed = support
            .as_ref()
            .expect("support consumed only on the last repeat");
        let (oracle, reference_t) = Timing::measure(|| {
            reference::decompose(borrowed, &config).expect("default config is valid")
        });
        reference_s = reference_s.min(reference_t.seconds());
        // The last repeat moves the support into the engine; earlier
        // repeats clone it *outside* the measured closure.  Each repeat
        // gets a fresh handle, so each builds its own tail table.
        let engine_input = if rep + 1 == repeats.max(1) {
            support.take().expect("support still present")
        } else {
            borrowed.clone()
        };
        let (decomp, engine_t) = Timing::measure(|| {
            DecompHandle::from_support(Arc::new(RankSupport::Nucleus(engine_input)))
                .compute_at(&config)
                .expect("default config is valid")
        });
        // The process's peak RSS right after the production engine's
        // decomposition: an environment probe, not a counter (0 where
        // the platform has no `VmHWM`).
        peak_rss_bytes = ugraph::metrics::peak_rss_bytes();
        engine_s = engine_s.min(engine_t.seconds());
        last = Some((decomp, oracle));
    }
    let (decomp, oracle) = last.expect("at least one repeat ran");
    assert_eq!(
        decomp.scores(),
        &oracle.scores[..],
        "peeling engine diverged from the reference implementation"
    );
    assert_eq!(decomp.initial_scores(), &oracle.initial_scores[..]);
    assert_eq!(decomp.method_counts(), &oracle.method_counts);

    // Sorted by method name, so the JSON is byte-stable.
    let mut method_counts: Vec<(String, usize)> = decomp
        .method_counts()
        .iter()
        .map(|(m, &n)| (m.name().to_string(), n))
        .collect();
    method_counts.sort();

    let stats = decomp.peel_stats();
    r.set("peel.theta", num(config.threshold));
    r.gate("peel.dp_calls", stats.dp_calls, LowerIsBetter);
    r.gate("peel.recompute_skips", stats.recompute_skips, Exact);
    r.gate("peel.buckets_touched", stats.buckets_touched, Exact);
    r.gate(
        "peel.peak_scratch_bytes",
        stats.peak_scratch_bytes,
        LowerIsBetter,
    );
    // The kernel's VmHWM probe: noisy across allocators and hosts, so
    // only gross growth fails.
    r.gate("peel.peak_rss_bytes", peak_rss_bytes, WithinFactor(2));
    r.gate("peel.reference_dp_calls", oracle.dp_calls, Exact);
    // The share of the reference engine's recomputations the deferred
    // engine avoided (0 when the reference did none).
    let saved_pct = if oracle.dp_calls == 0 {
        0.0
    } else {
        100.0 * (1.0 - stats.dp_calls as f64 / oracle.dp_calls as f64)
    };
    r.set("peel.dp_calls_saved_pct", num(saved_pct));
    r.gate("peel.max_score", decomp.max_score(), Exact);
    let methods = method_counts
        .iter()
        .map(|(name, count)| object([("method", Json::str(name)), ("count", num(*count))]));
    r.set("peel.method_counts", Json::Arr(methods.collect()));
    r.gate("peel.peel_s", engine_s, ReportOnly);
    r.gate("peel.reference_peel_s", reference_s, ReportOnly);
}

/// Runs the benchmark: sequential baseline first, then every requested
/// thread count, verifying on the way that the parallel results agree with
/// the sequential ones, then the peeling engines.
pub fn run(config: &ParBenchConfig) -> Result<Report, IngestError> {
    let (graph, ingest_timings) = config.source.ingest(config.seed, config.repeats)?;
    let (baseline, baseline_exceeded, num_triangles, num_four_cliques) =
        measure_config(&graph, Parallelism::Sequential, config.repeats);
    let run = |threads: usize, [triangles_s, four_cliques_s, support_s]: [f64; 3], exceeded| {
        // The support build alone is the total: the two probes measure
        // work the build does itself.
        let speedup = if support_s > 0.0 {
            baseline[2] / support_s
        } else {
            1.0
        };
        object([
            ("threads", num(threads)),
            ("triangles_s", num(triangles_s)),
            ("four_cliques_s", num(four_cliques_s)),
            ("support_s", num(support_s)),
            ("total_s", num(support_s)),
            ("speedup", num(speedup)),
            ("deadline_exceeded", Json::Bool(exceeded)),
        ])
    };

    let mut runs = Vec::with_capacity(config.threads.len());
    for &threads in &config.threads {
        let (timings, exceeded, tris, cliques) =
            measure_config(&graph, Parallelism::fixed(threads), config.repeats);
        assert_eq!(tris, num_triangles, "parallel triangle count diverged");
        assert_eq!(
            cliques, num_four_cliques,
            "parallel 4-clique count diverged"
        );
        runs.push(run(threads, timings, exceeded));
    }

    let mut r = Report::new("bench-parallel/v7");
    r.source(&config.source, config.seed);
    r.ingest(ingest_timings.as_ref());
    r.gate("vertices", graph.num_vertices(), Exact);
    r.gate("edges", graph.num_edges(), Exact);
    r.set("seed", num(config.seed));
    r.set("repeats", num(config.repeats));
    // Needed to interpret speedups: a 1-core host cannot speed up.
    let available = Parallelism::Auto.num_threads();
    r.set("available_parallelism", num(available));
    r.gate("counts.triangles", num_triangles, Exact);
    r.gate("counts.four_cliques", num_four_cliques, Exact);
    measure_peel(&graph, config.repeats, &mut r);
    r.set("baseline", run(1, baseline, baseline_exceeded));
    r.gate("baseline.total_s", baseline[2], ReportOnly);
    r.set("runs", Json::Arr(runs));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::compare::Gate::HigherIsBetter;
    use crate::report::{assert_tagged, at, counters, num_at, parsed, render};
    use crate::source::generate_graph;

    fn tiny_config() -> ParBenchConfig {
        ParBenchConfig {
            source: GraphSource::Generated {
                vertices: 60,
                edges: 400,
            },
            seed: 7,
            threads: vec![2],
            repeats: 1,
        }
    }

    fn runs(doc: &Json) -> &[Json] {
        doc.get("runs")
            .and_then(Json::as_array)
            .expect("runs array")
    }

    #[test]
    fn report_is_consistent() {
        let doc = parsed(run(&tiny_config()).unwrap());
        assert!(num_at(&doc, "edges") > 0.0);
        assert!(num_at(&doc, "counts.triangles") > 0.0);
        assert_eq!(num_at(&doc, "baseline.threads"), 1.0);
        assert_eq!(num_at(&doc, "baseline.speedup"), 1.0);
        let runs = runs(&doc);
        assert_eq!(runs.len(), 1);
        assert_eq!(num_at(&runs[0], "threads"), 2.0);
        assert!(num_at(&runs[0], "speedup") > 0.0);
        let exceeded = at(&doc, "baseline.deadline_exceeded").and_then(Json::as_bool);
        assert_eq!(exceeded, Some(false));
    }

    #[test]
    fn json_has_schema_and_parses_shape() {
        let json = run(&tiny_config()).unwrap().into_json();
        assert!(json.contains(r#""schema":"bench-parallel/v7""#));
        assert!(json.contains(r#""kind":"generated""#));
        // The report must parse with the crate's own JSON reader — the
        // bench-compare gate depends on it.
        let doc = Json::parse(&json).expect("report JSON parses");
        for key in ["counts", "peel", "baseline", "runs"] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        if cfg!(target_os = "linux") {
            let rss = num_at(&doc, "peel.peak_rss_bytes");
            assert!(rss > 0.0, "parbench reads the probe");
        }
    }

    #[test]
    fn peel_counters_are_deterministic_and_method_counts_sorted() {
        let a = parsed(run(&tiny_config()).unwrap());
        let b = parsed(run(&tiny_config()).unwrap());
        assert_eq!(counters(&a).unwrap(), counters(&b).unwrap());
        assert_eq!(at(&a, "peel.method_counts"), at(&b, "peel.method_counts"));
        // Exact-DP default: every triangle counted once, as DP.
        let methods = at(&a, "peel.method_counts").and_then(Json::as_array);
        let triangles = num_at(&a, "counts.triangles");
        assert_eq!(
            methods,
            Some(
                &[object([
                    ("method", Json::str("DP")),
                    ("count", num(triangles))
                ])][..]
            )
        );
        // The deferred engine never does more work than the reference.
        assert!(num_at(&a, "peel.dp_calls") <= num_at(&a, "peel.reference_dp_calls"));
        assert!(num_at(&a, "peel.dp_calls_saved_pct") >= 0.0);
    }

    #[test]
    fn table_lists_every_run() {
        let text = render(&parsed(run(&tiny_config()).unwrap()));
        assert!(text.contains("peel.dp_calls: "), "{text}");
        let table = &text[text.find("\nruns:\n").expect("a runs table")..];
        assert!(
            table.contains("threads") && table.contains("speedup"),
            "{text}"
        );
        // Heading + header + separator + one run.
        assert_eq!(table.trim_start().lines().count(), 4, "{text}");
    }

    #[test]
    fn generated_graph_is_deterministic() {
        let a = generate_graph(50, 200, 3);
        let b = generate_graph(50, 200, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn input_mode_records_provenance_and_ingest_timings() {
        use ugraph::io::EdgeProbabilityModel;
        use ugraph::InputFormat;

        let dir = std::env::temp_dir().join("parbench_input_mode_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.txt");
        ugraph::io::write_edge_list_file(&generate_graph(60, 400, 7), &path).unwrap();

        let input = nd_datasets::ExternalDataset::new(
            &path,
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        );
        let mut config = tiny_config();
        config.source = GraphSource::File(input.clone());
        let doc = parsed(run(&config).unwrap());
        // The cache the ingest writes is the one the loader serves: it
        // carries the loader's tag and is reused as it stands.
        let (cache, tag) = input.snapshot_cache(&std::fs::read(&path).unwrap());
        let (_, written_tag) = ugraph::io::read_snapshot_file_tagged(&cache).unwrap();
        assert_ne!(written_tag, ugraph::io::UNTAGGED);
        assert_eq!(written_tag, tag);
        let written = std::fs::read(&cache).unwrap();
        input.load_cached().unwrap();
        assert_eq!(std::fs::read(&cache).unwrap(), written);
        for step in ["parse_s", "snapshot_reload_s", "snapshot_mmap_s"] {
            assert!(
                num_at(&doc, &format!("source.ingest.{step}")) > 0.0,
                "{step}"
            );
        }
        // Linux hosts must exercise the zero-copy path, not the fallback.
        if cfg!(target_os = "linux") {
            let mapped = at(&doc, "source.ingest.mmap_used").and_then(Json::as_bool);
            assert_eq!(mapped, Some(true), "mmap open fell back to the owned path");
        }
        // The measured graph is the file's, not the generator's.
        assert_eq!(num_at(&doc, "edges"), 400.0);
        let source = |key: &str| at(&doc, &format!("source.{key}")).and_then(Json::as_str);
        assert_eq!(source("kind"), Some("file"));
        assert_eq!(source("format"), Some("snap"));
        assert_eq!(source("prob_model"), Some("column"));
        assert_tagged(
            &doc,
            &[
                ("source.ingest.reload_speedup", HigherIsBetter),
                ("source.ingest.mmap_speedup", ReportOnly),
            ],
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_inputs_skip_the_cache_round_trip() {
        use ugraph::io::EdgeProbabilityModel;
        use ugraph::InputFormat;

        let dir = std::env::temp_dir().join("parbench_snapshot_input_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.ugsnap");
        ugraph::io::write_snapshot_file(&generate_graph(60, 400, 7), &path).unwrap();

        let mut config = tiny_config();
        config.source = GraphSource::File(nd_datasets::ExternalDataset::new(
            &path,
            InputFormat::Snapshot,
            EdgeProbabilityModel::Column,
        ));
        let doc = parsed(run(&config).unwrap());
        assert_eq!(
            at(&doc, "source.ingest"),
            None,
            "no snapshot-vs-snapshot timing"
        );
        assert_eq!(num_at(&doc, "edges"), 400.0);
        // No second snapshot appears beside the source.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "dataset directory must not be littered"
        );
        // Provenance still records the file.
        assert_eq!(at(&doc, "source.kind").and_then(Json::as_str), Some("file"));
        let format = at(&doc, "source.format").and_then(Json::as_str);
        assert_eq!(format, Some("ugsnap"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_tags_every_gated_number() {
        let doc = parsed(run(&tiny_config()).unwrap());
        assert_tagged(
            &doc,
            &[
                ("vertices", Exact),
                ("edges", Exact),
                ("counts.triangles", Exact),
                ("counts.four_cliques", Exact),
                ("peel.dp_calls", LowerIsBetter),
                ("peel.recompute_skips", Exact),
                ("peel.buckets_touched", Exact),
                ("peel.peak_scratch_bytes", LowerIsBetter),
                ("peel.peak_rss_bytes", WithinFactor(2)),
                ("peel.reference_dp_calls", Exact),
                ("peel.max_score", Exact),
                ("peel.peel_s", ReportOnly),
                ("peel.reference_peel_s", ReportOnly),
                ("baseline.total_s", ReportOnly),
            ],
        );
        // Ingest tags appear only on ingested runs; the input-mode test
        // checks them there.
        assert_eq!(at(&doc, "source.ingest"), None);
    }
}
