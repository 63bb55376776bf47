//! Query-service smoke benchmark (`experiments serve --oneshot`) with
//! machine-readable JSON output.
//!
//! Boots an [`nd_server::Server`] on a loopback port, drives the fixed
//! [`nd_server::oneshot`] script over real TCP, and emits a
//! `bench-serve/v3` report.  The script is deterministic, so every
//! [`nd_server::StatsSnapshot`] counter it produces is a pure function
//! of the script — `bench-compare` gates them all at tolerance 0 (the
//! interesting invariants: `support_builds == 1` no matter how many
//! sessions open, repeated-θ queries land as `cache_hits`,
//! `protocol_errors == 0` because the script never sends a malformed
//! frame, and the `apply_updates` counters: exactly one batch applied,
//! exactly one support repaired — never rebuilt — and the exact number
//! of cached points invalidated).
//!
//! ```json
//! {
//!   "schema": "bench-serve/v3",
//!   "source": { "kind": "generated", ... },
//!   "vertices": 2000, "edges": 50000, "seed": 42,
//!   "thetas": [ 0.1, 0.3 ],
//!   "oneshot": { "passed": true, "bit_identical": true, "failures": [ ] },
//!   "stats": { "requests": 28, "batches": 1, "protocol_errors": 0,
//!              "cache_hits": 9, "cache_misses": 4, "support_builds": 1,
//!              "updates_applied": 1, "supports_repaired": 1,
//!              "cache_invalidations": 2, ... },
//!   "gates": { "vertices": "exact", "edges": "exact",
//!              "stats.requests": "exact", ... }
//! }
//! ```
//!
//! Wall-clock timings are deliberately absent: the whole report is
//! deterministic, so the diff gate needs no tolerance carve-outs.

use nd_server::{run_oneshot, ClientError, OneshotOptions};
use ugraph::par::Parallelism;

use crate::compare::Gate::Exact;
use crate::json::Json;
use crate::report::{num, Report};
use crate::source::{GraphSource, IngestError};

/// Configuration of the serve smoke benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchConfig {
    /// The served graph, loaded through the snapshot cache when it is a
    /// file.
    pub source: GraphSource,
    /// RNG seed of a generated graph.
    pub seed: u64,
    /// The θ grid the scripted session pins (≥ 2 points).
    pub thetas: Vec<f64>,
    /// LRU capacity of the server under test.
    pub cache_capacity: usize,
    /// Worker-pool size and support-build parallelism of the server.
    pub parallelism: Parallelism,
}

impl Default for ServeBenchConfig {
    /// The parbench/thetasweep default graph, so the three reports
    /// describe the same workload.
    fn default() -> Self {
        let defaults = OneshotOptions::default();
        ServeBenchConfig {
            source: GraphSource::default(),
            seed: 42,
            thetas: defaults.thetas,
            cache_capacity: defaults.cache_capacity,
            parallelism: defaults.parallelism,
        }
    }
}

impl ServeBenchConfig {
    /// The `# experiment:` line the `serve --oneshot` subcommand prints.
    pub fn header(&self) -> String {
        let knobs = format!("grid: {:?}", self.thetas);
        self.source.header("serve --oneshot", &knobs, self.seed)
    }
}

/// Why the serve benchmark failed before producing a report.
#[derive(Debug)]
pub enum ServeBenchError {
    /// The `--input` graph could not be loaded.
    Ingest(IngestError),
    /// The scripted client lost its connection or got a malformed
    /// response — a transport failure, not a failed check (failed checks
    /// land in the report's `oneshot.failures`).
    Client(ClientError),
}

impl std::fmt::Display for ServeBenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeBenchError::Ingest(e) => write!(f, "{e}"),
            ServeBenchError::Client(e) => write!(f, "serve oneshot transport failed: {e}"),
        }
    }
}

impl std::error::Error for ServeBenchError {}

/// Runs the smoke benchmark: load the graph, boot a server, drive the
/// scripted session, collect the drained counters.  `oneshot.passed` is
/// the verdict: `true` when every scripted check (bit-identity, typed
/// errors, cache behaviour) passed.
pub fn run(config: &ServeBenchConfig) -> Result<Report, ServeBenchError> {
    let graph = config
        .source
        .load(config.seed)
        .map_err(ServeBenchError::Ingest)?;
    let options = OneshotOptions {
        thetas: config.thetas.clone(),
        cache_capacity: config.cache_capacity,
        parallelism: config.parallelism,
    };
    let o = run_oneshot(&graph, &options).map_err(ServeBenchError::Client)?;
    let mut r = Report::new("bench-serve/v3");
    r.source(&config.source, config.seed);
    r.gate("vertices", o.vertices, Exact);
    r.gate("edges", o.edges, Exact);
    r.set("seed", num(config.seed));
    let thetas = o.thetas.iter().map(|&t| num(t));
    r.set("thetas", Json::Arr(thetas.collect()));
    r.set("oneshot.passed", Json::Bool(o.passed()));
    r.set("oneshot.bit_identical", Json::Bool(o.bit_identical));
    let failures = o.failures.iter().map(Json::str);
    r.set("oneshot.failures", Json::Arr(failures.collect()));
    // The script is fixed, so every counter is a pure function of it.
    for (name, value) in o.stats.fields() {
        r.gate(&format!("stats.{name}"), value, Exact);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_tagged, at, counters, num_at, parsed};
    use crate::source::generate_graph;
    use nd_datasets::ExternalDataset;

    fn tiny_config() -> ServeBenchConfig {
        ServeBenchConfig {
            source: GraphSource::Generated {
                vertices: 60,
                edges: 400,
            },
            seed: 7,
            ..ServeBenchConfig::default()
        }
    }

    #[test]
    fn report_passes_and_has_v2_schema() {
        let doc = parsed(run(&tiny_config()).unwrap());
        let flag = |path| at(&doc, path).and_then(Json::as_bool);
        assert_eq!(
            flag("oneshot.passed"),
            Some(true),
            "{:?}",
            at(&doc, "oneshot.failures")
        );
        assert_eq!(flag("oneshot.bit_identical"), Some(true));
        assert_eq!(
            at(&doc, "schema").and_then(Json::as_str),
            Some("bench-serve/v3")
        );
        assert_eq!(
            at(&doc, "source.kind").and_then(Json::as_str),
            Some("generated")
        );
        assert_eq!(num_at(&doc, "stats.support_builds"), 1.0);
        assert_eq!(num_at(&doc, "stats.protocol_errors"), 0.0);
        // The v2 script queries both θ before and after its update batch:
        // 2 pre-update misses, 2 post-update misses on the repaired rank.
        assert_eq!(num_at(&doc, "stats.cache_misses"), 4.0);
        assert_eq!(num_at(&doc, "stats.updates_applied"), 1.0);
        assert_eq!(num_at(&doc, "stats.supports_repaired"), 1.0);
        assert_eq!(num_at(&doc, "stats.cache_invalidations"), 2.0);
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = run(&tiny_config()).unwrap().into_json();
        assert_eq!(a, run(&tiny_config()).unwrap().into_json());
    }

    #[test]
    fn input_mode_records_provenance() {
        use ugraph::io::EdgeProbabilityModel;
        use ugraph::InputFormat;

        let dir = std::env::temp_dir().join("serve_input_mode_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.txt");
        ugraph::io::write_edge_list_file(&generate_graph(60, 400, 7), &path).unwrap();

        let input = ExternalDataset::new(&path, InputFormat::Snap, EdgeProbabilityModel::Column);
        let mut config = tiny_config();
        config.source = GraphSource::File(input.clone());
        let doc = parsed(run(&config).unwrap());
        let passed = at(&doc, "oneshot.passed").and_then(Json::as_bool);
        assert_eq!(passed, Some(true), "{:?}", at(&doc, "oneshot.failures"));
        assert_eq!(num_at(&doc, "edges"), 400.0);
        // The script's counters do not depend on where the graph came from.
        let stats = |doc: &Json| {
            let counters = counters(doc).unwrap().into_iter();
            counters
                .filter(|(path, _)| path.starts_with("stats."))
                .collect::<Vec<_>>()
        };
        assert_eq!(stats(&doc), stats(&parsed(run(&tiny_config()).unwrap())));
        let source = |key| doc.path(&["source", key]).and_then(Json::as_str);
        assert_eq!(source("kind"), Some("file"));
        assert_eq!(source("path"), path.to_str());
        assert_eq!(source("format"), Some("snap"));
        assert_eq!(source("prob_model"), Some("column"));
        assert_eq!(doc.path(&["source", "ingest"]), None);
        // Loaded through the snapshot cache the other loaders serve.
        let (cache, tag) = input.snapshot_cache(&std::fs::read(&path).unwrap());
        let (_, written) = ugraph::io::read_snapshot_file_tagged(&cache).unwrap();
        assert_eq!(written, tag);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_input_surfaces_the_unified_error() {
        let mut config = tiny_config();
        config.source = GraphSource::File(ExternalDataset::new(
            "/nonexistent/serve_bench.txt",
            ugraph::InputFormat::Snap,
            ugraph::io::EdgeProbabilityModel::Column,
        ));
        let err = run(&config).unwrap_err();
        let message = err.to_string();
        assert!(
            message.starts_with("cannot load /nonexistent/serve_bench.txt:"),
            "{message}"
        );
    }

    #[test]
    fn report_tags_every_gated_number() {
        let doc = parsed(run(&tiny_config()).unwrap());
        let stats = doc.get("stats").expect("a stats object");
        let Json::Obj(fields) = stats else {
            panic!("stats is an object")
        };
        let stats: Vec<String> = fields.iter().map(|(n, _)| format!("stats.{n}")).collect();
        assert_eq!(stats.len(), 14, "every counter of the scripted session");
        let mut expected = vec![("vertices", Exact), ("edges", Exact)];
        expected.extend(stats.iter().map(|path| (path.as_str(), Exact)));
        assert_tagged(&doc, &expected);
    }
}
