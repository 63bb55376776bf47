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

use nd_datasets::ExternalDataset;
use nd_server::{run_oneshot, ClientError, OneshotOptions, OneshotReport};
use ugraph::par::Parallelism;

use crate::compare::Gate::Exact;
use crate::json::Json;
use crate::parbench::{generate_graph, generated, ingest, IngestError, IngestTimings};
use crate::report::{num, Report};

/// Configuration of the serve smoke benchmark.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Number of vertices of the generated G(n, m) graph.
    pub vertices: usize,
    /// Number of edges of the generated G(n, m) graph.
    pub edges: usize,
    /// RNG seed for structure and probability generation.
    pub seed: u64,
    /// The θ grid the scripted session pins (≥ 2 points).
    pub thetas: Vec<f64>,
    /// LRU capacity of the server under test.
    pub cache_capacity: usize,
    /// Worker-pool size; `None` means [`Parallelism::Auto`].
    pub threads: Option<usize>,
    /// Ingested input overriding the generator (same semantics as
    /// `parbench --input`).
    pub input: Option<ExternalDataset>,
}

impl Default for ServeBenchConfig {
    /// Same graph shape as the parbench/thetasweep defaults (average
    /// degree 50), so the three reports describe the same workload.
    fn default() -> Self {
        let defaults = OneshotOptions::default();
        ServeBenchConfig {
            vertices: 2_000,
            edges: 50_000,
            seed: 42,
            thetas: defaults.thetas,
            cache_capacity: defaults.cache_capacity,
            threads: None,
            input: None,
        }
    }
}

/// Why the serve benchmark failed before producing a report.
#[derive(Debug)]
pub enum ServeBenchError {
    /// The `--input` graph could not be ingested.
    Ingest(IngestError),
    /// The scripted client lost its connection or got a malformed
    /// response — a transport failure, not a failed check (failed checks
    /// land in [`OneshotReport::failures`]).
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

/// Full report of a serve smoke run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The configuration the report was produced with.
    pub config: ServeBenchConfig,
    /// Ingestion timings when the graph came from `--input`.
    pub ingest: Option<IngestTimings>,
    /// The scripted session's verdicts and final counters.
    pub oneshot: OneshotReport,
}

impl ServeBenchReport {
    /// `true` when every scripted check (bit-identity, typed errors,
    /// cache behaviour) passed.
    pub fn passed(&self) -> bool {
        self.oneshot.passed()
    }

    /// Serializes the report to the `bench-serve/v3` JSON schema.
    ///
    /// Ingest timings ([`ServeBenchReport::ingest`]) are deliberately
    /// not serialized: they are wall-clock measurements, and this
    /// report carries only counters that diff at tolerance 0 — the
    /// parbench report already gates ingest performance for the same
    /// inputs.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let o = &self.oneshot;
        let mut r = Report::new("bench-serve/v3");
        r.source(c.input.as_ref(), &generated(c.vertices, c.edges, c.seed));
        r.gate("vertices", o.vertices, Exact);
        r.gate("edges", o.edges, Exact);
        r.set("seed", num(c.seed));
        let thetas = o.thetas.iter().map(|&t| num(t));
        r.set("thetas", Json::Arr(thetas.collect()));
        r.set("oneshot.passed", Json::Bool(self.passed()));
        r.set("oneshot.bit_identical", Json::Bool(o.bit_identical));
        let failures = o.failures.iter().map(Json::str);
        r.set("oneshot.failures", Json::Arr(failures.collect()));
        // The script is fixed, so every counter is a pure function of it.
        for (name, value) in o.stats.fields() {
            r.gate(&format!("stats.{name}"), value, Exact);
        }
        r.into_json()
    }

    /// Human-readable summary of the same run.
    pub fn format(&self) -> String {
        let stats = &self.oneshot.stats;
        let verdict = if self.passed() {
            "PASSED".to_string()
        } else {
            format!("FAILED ({})", self.oneshot.failures.join("; "))
        };
        format!(
            "serve oneshot — {} vertices, {} edges, grid {:?}\n\
             verdict: {verdict} (bit-identical to library calls: {})\n\
             requests: {} ({} batch), typed request errors: {}, protocol errors: {}\n\
             cache: {} hits / {} misses / {} evictions; support builds: {}\n\
             sessions: {} opened / {} closed; deadline hits: {}\n\
             updates: {} applied; supports repaired: {}; cache invalidations: {}",
            self.oneshot.vertices,
            self.oneshot.edges,
            self.oneshot.thetas,
            self.oneshot.bit_identical,
            stats.requests,
            stats.batches,
            stats.request_errors,
            stats.protocol_errors,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.support_builds,
            stats.sessions_opened,
            stats.sessions_closed,
            stats.deadlines_exceeded,
            stats.updates_applied,
            stats.supports_repaired,
            stats.cache_invalidations,
        )
    }
}

/// Runs the smoke benchmark: ingest or generate the graph, boot a
/// server, drive the scripted session, collect the drained counters.
pub fn run(config: &ServeBenchConfig) -> Result<ServeBenchReport, ServeBenchError> {
    let (graph, ingest_timings) = match &config.input {
        Some(input) => ingest(input, 1).map_err(ServeBenchError::Ingest)?,
        None => (
            generate_graph(config.vertices, config.edges, config.seed),
            None,
        ),
    };
    let options = OneshotOptions {
        thetas: config.thetas.clone(),
        cache_capacity: config.cache_capacity,
        parallelism: match config.threads {
            Some(t) => Parallelism::fixed(t),
            None => Parallelism::Auto,
        },
    };
    let oneshot = run_oneshot(&graph, &options).map_err(ServeBenchError::Client)?;
    Ok(ServeBenchReport {
        config: config.clone(),
        ingest: ingest_timings,
        oneshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn tiny_config() -> ServeBenchConfig {
        ServeBenchConfig {
            vertices: 60,
            edges: 400,
            seed: 7,
            ..ServeBenchConfig::default()
        }
    }

    #[test]
    fn report_passes_and_has_v2_schema() {
        let report = run(&tiny_config()).unwrap();
        assert!(report.passed(), "failures: {:?}", report.oneshot.failures);
        assert!(report.oneshot.bit_identical);
        let json = report.to_json();
        assert!(json.contains(r#""schema":"bench-serve/v3""#));
        assert!(json.contains(r#""kind":"generated""#));
        let doc = Json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.path(&["oneshot", "passed"]).and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            doc.path(&["stats", "support_builds"])
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.path(&["stats", "protocol_errors"])
                .and_then(Json::as_f64),
            Some(0.0)
        );
        // The v2 script queries both θ before and after its update batch:
        // 2 pre-update misses, 2 post-update misses on the repaired rank.
        assert_eq!(
            doc.path(&["stats", "cache_misses"]).and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            doc.path(&["stats", "updates_applied"])
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.path(&["stats", "supports_repaired"])
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.path(&["stats", "cache_invalidations"])
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(report.format().contains("PASSED"));
        assert!(report.format().contains("supports repaired: 1"));
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = run(&tiny_config()).unwrap();
        let b = run(&tiny_config()).unwrap();
        assert_eq!(a.oneshot.stats, b.oneshot.stats);
        assert_eq!(a.to_json(), b.to_json());
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

        let mut config = tiny_config();
        config.input = Some(ExternalDataset::new(
            &path,
            InputFormat::Snap,
            EdgeProbabilityModel::Column,
        ));
        let report = run(&config).unwrap();
        assert!(report.passed(), "failures: {:?}", report.oneshot.failures);
        assert!(report.ingest.is_some());
        assert_eq!(report.oneshot.edges, 400);
        let json = report.to_json();
        assert!(json.contains(r#""kind":"file""#));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_input_surfaces_the_unified_error() {
        let mut config = tiny_config();
        config.input = Some(ExternalDataset::new(
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
        let report = run(&tiny_config()).unwrap();
        let fields = report.oneshot.stats.fields();
        let stats: Vec<String> = fields.iter().map(|(n, _)| format!("stats.{n}")).collect();
        assert_eq!(stats.len(), 14, "every counter of the scripted session");
        let mut expected = vec![("vertices", Exact), ("edges", Exact)];
        expected.extend(stats.iter().map(|path| (path.as_str(), Exact)));
        crate::report::assert_tagged(&report.to_json(), &expected);
    }
}
