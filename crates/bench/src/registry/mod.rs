//! The scenario registry behind `experiments matrix`.
//!
//! Every workload the `experiments` binary can run — the five bench
//! drivers and the nine paper tables/figures — is *declared* here as a
//! [`Spec`] value instead of hand-wired flag plumbing; [`scenarios`]
//! lists them all.  Adding a scenario means adding a value below.
//!
//! Execution ([`run`]) drives the existing driver entry points and
//! checks each declared counter expectation exactly; the matrix report
//! ([`matrix`]) is one tagged `bench-matrix/v2` report that
//! `bench-compare` gates at tolerance 0 in CI.

pub mod matrix;
pub mod run;
pub mod spec;

use nd_datasets::{ExternalDataset, Scale};
use nucleus::Rank;
use spec::{Job, Spec, Workload};
use ugraph::io::EdgeProbabilityModel;
use ugraph::InputFormat;

use crate::million::MillionBenchConfig;
use crate::parbench::ParBenchConfig;
use crate::serve::ServeBenchConfig;
use crate::source::GraphSource;
use crate::thetasweep::SweepBenchConfig;
use crate::updates::UpdateBenchConfig;

/// The generated graph every bench smoke scenario runs on, at each
/// config's default seed (42): 4000 edges over the vertex count the
/// CLI derives for them.
const SMOKE: GraphSource = GraphSource::Generated {
    vertices: 160,
    edges: 4000,
};

/// The committed 21-edge file (10 vertices, 20 triangles, 10 4-cliques,
/// counted by hand) that keeps the file → snapshot-cache → driver path
/// under the matrix.
fn tiny_file(prob_model: EdgeProbabilityModel) -> GraphSource {
    GraphSource::File(ExternalDataset::new(
        concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/data/tiny.txt"),
        InputFormat::Snap,
        prob_model,
    ))
}

/// A θ-sweep smoke at one rank.
fn sweep_smoke(name: &'static str, rank: Rank) -> Spec {
    Spec {
        name,
        tags: &["bench", "sweep"],
        job: Job::Thetasweep(SweepBenchConfig {
            rank,
            source: SMOKE,
            thetas: vec![0.05, 0.1, 0.3],
            repeats: 1,
            ..SweepBenchConfig::default()
        }),
        expect: &[("sweep.support_builds", 1.0)],
    }
}

/// A paper table/figure at tiny scale, seed 42.
fn paper_tiny(name: &'static str, workload: Workload, tags: &'static [&'static str]) -> Spec {
    Spec {
        name,
        tags,
        job: Job::Paper {
            workload,
            scale: Scale::Tiny,
            seed: 42,
        },
        expect: &[],
    }
}

/// Every registered scenario, sorted by name: each `experiments`
/// subcommand workload, smoke-sized so the whole matrix runs in CI
/// wall-clock.  Expectations carry the drivers' enforced invariants —
/// one shared support build per sweep, repair never out-working a
/// rebuild, a clean protocol run for the server — and the hand-counted
/// structure of the committed file; every other counter is pinned by
/// the committed `BENCH_matrix.json`.
pub fn scenarios() -> Vec<Spec> {
    let mut specs = vec![
        // -- bench drivers ---------------------------------------------
        Spec {
            name: "parbench-smoke",
            tags: &["bench", "parallel"],
            job: Job::Parbench(ParBenchConfig {
                source: SMOKE,
                repeats: 1,
                threads: vec![2],
                ..ParBenchConfig::default()
            }),
            expect: &[],
        },
        sweep_smoke("thetasweep-core-smoke", Rank::Core),
        sweep_smoke("thetasweep-truss-smoke", Rank::Truss),
        sweep_smoke("thetasweep-nucleus-smoke", Rank::Nucleus),
        Spec {
            name: "updates-truss-smoke",
            tags: &["bench", "updates"],
            job: Job::Updates(UpdateBenchConfig {
                rank: Rank::Truss,
                source: SMOKE,
                thetas: vec![0.05, 0.1, 0.3],
                batch: 16,
                ..UpdateBenchConfig::default()
            }),
            expect: &[("repair.dp_calls_excess", 0.0)],
        },
        Spec {
            name: "serve-smoke",
            tags: &["bench", "serve"],
            job: Job::Serve(ServeBenchConfig {
                source: SMOKE,
                thetas: vec![0.1, 0.3],
                cache_capacity: 32,
                ..ServeBenchConfig::default()
            }),
            // The oneshot script deliberately probes six request error
            // paths.
            expect: &[
                ("stats.protocol_errors", 0.0),
                ("stats.request_errors", 6.0),
            ],
        },
        Spec {
            name: "million-smoke",
            tags: &["bench", "million"],
            job: Job::Million(MillionBenchConfig {
                vertices: 2005,
                attach: 5,
                threads: 2,
                streaming_chunk_edges: 4096,
                ..MillionBenchConfig::default()
            }),
            expect: &[("sweep.support_builds", 1.0)],
        },
        // -- the committed file ----------------------------------------
        Spec {
            name: "file-parbench-tiny",
            tags: &["bench", "file"],
            job: Job::Parbench(ParBenchConfig {
                source: tiny_file(EdgeProbabilityModel::Constant(0.9)),
                repeats: 1,
                threads: vec![2],
                ..ParBenchConfig::default()
            }),
            expect: &[
                ("counts.four_cliques", 10.0),
                ("counts.triangles", 20.0),
                ("edges", 21.0),
                ("vertices", 10.0),
            ],
        },
        Spec {
            name: "file-thetasweep-tiny",
            tags: &["bench", "file", "sweep"],
            job: Job::Thetasweep(SweepBenchConfig {
                rank: Rank::Truss,
                source: tiny_file(EdgeProbabilityModel::UniformSeeded {
                    seed: 7,
                    low: 0.5,
                    high: 1.0,
                }),
                thetas: vec![0.1, 0.5],
                repeats: 1,
                ..SweepBenchConfig::default()
            }),
            expect: &[
                ("counts.triangles", 20.0),
                ("edges", 21.0),
                ("sweep.support_builds", 1.0),
            ],
        },
        // -- paper tables and figures ----------------------------------
        paper_tiny("table1-tiny", Workload::Table1, &["paper", "table"]),
        paper_tiny("table2-tiny", Workload::Table2, &["paper", "table"]),
        paper_tiny("table3-tiny", Workload::Table3, &["paper", "table"]),
        paper_tiny("fig4-tiny", Workload::Fig4, &["paper", "figure"]),
        paper_tiny("fig5-tiny", Workload::Fig5, &["paper", "figure"]),
        paper_tiny("fig6-tiny", Workload::Fig6, &["paper", "figure"]),
        paper_tiny("fig7-tiny", Workload::Fig7, &["paper", "figure"]),
        paper_tiny("fig8-tiny", Workload::Fig8, &["paper", "figure"]),
        paper_tiny("ablation-tiny", Workload::Ablation, &["paper", "ablation"]),
    ];
    specs.sort_by_key(|s| s.name);
    specs
}

/// The scenarios selected by `--only` names and `--tag` filters.
/// Both empty selects everything; an unknown `--only` name is an
/// error (a typo would otherwise silently skip the scenario).
pub fn select<'a>(
    scenarios: &'a [Spec],
    only: &[String],
    tag: Option<&str>,
) -> Result<Vec<&'a Spec>, String> {
    for name in only {
        if !scenarios.iter().any(|s| s.name == name) {
            return Err(format!("unknown scenario '{name}'"));
        }
    }
    Ok(scenarios
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|name| name == s.name))
        .filter(|s| tag.map_or(true, |t| s.tags.contains(&t)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_every_workload() {
        let scenarios = scenarios();
        for workload in Workload::ALL {
            assert!(
                scenarios.iter().any(|s| s.job.workload() == workload),
                "no builtin scenario for workload {workload}"
            );
        }
    }

    #[test]
    fn duplicate_names_across_sources_are_refused() {
        // The builtins are the one scenario source, and `--only` and the
        // report key scenarios by name: each must be unique and
        // `[a-z0-9_-]+`, because it is one segment of the matrix
        // report's dotted paths.
        let scenarios = scenarios();
        for (i, s) in scenarios.iter().enumerate() {
            assert!(
                !s.name.is_empty()
                    && s.name.bytes().all(|b| {
                        b.is_ascii_lowercase() || b.is_ascii_digit() || b"-_".contains(&b)
                    }),
                "scenario name '{}' is not [a-z0-9_-]+",
                s.name
            );
            assert!(
                scenarios[i + 1..].iter().all(|t| t.name != s.name),
                "duplicate scenario name '{}'",
                s.name
            );
        }
    }

    #[test]
    fn scenarios_come_out_sorted_by_name() {
        let names: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn select_filters_by_name_and_tag_and_rejects_typos() {
        let scenarios = scenarios();
        let all = select(&scenarios, &[], None).unwrap();
        assert_eq!(all.len(), scenarios.len());
        let only = select(&scenarios, &["parbench-smoke".to_string()], None).unwrap();
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].name, "parbench-smoke");
        let sweeps = select(&scenarios, &[], Some("sweep")).unwrap();
        assert_eq!(sweeps.len(), 4);
        let err = select(&scenarios, &["nope".to_string()], None).unwrap_err();
        assert!(err.contains("unknown scenario 'nope'"), "{err}");
    }
}
