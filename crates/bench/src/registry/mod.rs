//! The scenario registry behind `experiments matrix`.
//!
//! Every workload the `experiments` binary can run — the five bench
//! drivers and the nine paper tables/figures — is *declared* here as a
//! [`Spec`] value instead of hand-wired flag plumbing; [`scenarios`]
//! lists them all.  Adding a scenario means adding a value below.
//!
//! Execution ([`run`]) drives the existing driver entry points and
//! checks each declared counter expectation exactly; the matrix report
//! ([`matrix`]) is one `bench-matrix/v1` JSON document that
//! `bench-compare` gates at tolerance 0 in CI.

pub mod matrix;
pub mod run;
pub mod spec;

use nd_datasets::Scale;
use nucleus::Rank;
use spec::{DatasetSpec, Params, Spec, Workload};
use ugraph::io::EdgeProbabilityModel;
use ugraph::InputFormat;

/// The generated graph every bench smoke scenario runs on.
const SMOKE: DatasetSpec = DatasetSpec::Generated {
    edges: 4000,
    vertices: None,
    seed: 42,
};

/// The committed 21-edge file (10 vertices, 20 triangles, 10 4-cliques,
/// counted by hand) that keeps the file → snapshot-cache → driver path
/// under the matrix.
fn tiny_file(prob_model: EdgeProbabilityModel) -> DatasetSpec {
    DatasetSpec::File {
        path: concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/data/tiny.txt").to_string(),
        format: InputFormat::Snap,
        prob_model,
    }
}

/// A θ-sweep smoke at one rank.
fn sweep_smoke(name: &'static str, rank: Rank) -> Spec {
    Spec {
        name,
        workload: Workload::Thetasweep,
        tags: &["bench", "sweep"],
        dataset: SMOKE,
        params: Params {
            rank: Some(rank),
            thetas: Some(vec![0.05, 0.1, 0.3]),
            repeats: Some(1),
            ..Params::default()
        },
        expect: &[("sweep.support_builds", 1.0)],
    }
}

/// A paper table/figure at tiny scale, seed 42.
fn paper_tiny(name: &'static str, workload: Workload, tags: &'static [&'static str]) -> Spec {
    Spec {
        name,
        workload,
        tags,
        dataset: DatasetSpec::Paper {
            scale: Scale::Tiny,
            seed: 42,
        },
        params: Params::default(),
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
            workload: Workload::Parbench,
            tags: &["bench", "parallel"],
            dataset: SMOKE,
            params: Params {
                repeats: Some(1),
                threads: Some(vec![2]),
                ..Params::default()
            },
            expect: &[],
        },
        sweep_smoke("thetasweep-core-smoke", Rank::Core),
        sweep_smoke("thetasweep-truss-smoke", Rank::Truss),
        sweep_smoke("thetasweep-nucleus-smoke", Rank::Nucleus),
        Spec {
            name: "updates-truss-smoke",
            workload: Workload::Updates,
            tags: &["bench", "updates"],
            dataset: SMOKE,
            params: Params {
                rank: Some(Rank::Truss),
                thetas: Some(vec![0.05, 0.1, 0.3]),
                batch: Some(16),
                ..Params::default()
            },
            expect: &[("repair.dp_calls_excess", 0.0)],
        },
        Spec {
            name: "serve-smoke",
            workload: Workload::Serve,
            tags: &["bench", "serve"],
            dataset: SMOKE,
            params: Params {
                thetas: Some(vec![0.1, 0.3]),
                cache: Some(32),
                ..Params::default()
            },
            // The oneshot script deliberately probes six request error
            // paths.
            expect: &[
                ("stats.protocol_errors", 0.0),
                ("stats.request_errors", 6.0),
            ],
        },
        Spec {
            name: "million-smoke",
            workload: Workload::Million,
            tags: &["bench", "million"],
            dataset: DatasetSpec::Ba {
                vertices: 2005,
                attach: 5,
                seed: 42,
            },
            params: Params {
                thetas: Some(vec![0.1, 0.5]),
                pool: Some(2),
                chunk_edges: Some(4096),
                ..Params::default()
            },
            expect: &[("sweep.support_builds", 1.0)],
        },
        // -- the committed file ----------------------------------------
        Spec {
            name: "file-parbench-tiny",
            workload: Workload::Parbench,
            tags: &["bench", "file"],
            dataset: tiny_file(EdgeProbabilityModel::Constant(0.9)),
            params: Params {
                repeats: Some(1),
                threads: Some(vec![2]),
                ..Params::default()
            },
            expect: &[
                ("counts.four_cliques", 10.0),
                ("counts.triangles", 20.0),
                ("edges", 21.0),
                ("vertices", 10.0),
            ],
        },
        Spec {
            name: "file-thetasweep-tiny",
            workload: Workload::Thetasweep,
            tags: &["bench", "file", "sweep"],
            dataset: tiny_file(EdgeProbabilityModel::UniformSeeded {
                seed: 7,
                low: 0.5,
                high: 1.0,
            }),
            params: Params {
                rank: Some(Rank::Truss),
                thetas: Some(vec![0.1, 0.5]),
                repeats: Some(1),
                ..Params::default()
            },
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
                scenarios.iter().any(|s| s.workload == workload),
                "no builtin scenario for workload {workload}"
            );
        }
    }

    #[test]
    fn duplicate_names_across_sources_are_refused() {
        // The builtins are the one scenario source, and `--only` and the
        // report key scenarios by name: each must be unique and
        // `[a-z0-9._-]+`.
        let scenarios = scenarios();
        for (i, s) in scenarios.iter().enumerate() {
            assert!(
                !s.name.is_empty()
                    && s.name.bytes().all(|b| {
                        b.is_ascii_lowercase() || b.is_ascii_digit() || b".-_".contains(&b)
                    }),
                "scenario name '{}' is not [a-z0-9._-]+",
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
