//! Registry-driven runs are bit-identical to direct driver invocations.
//!
//! The `experiments` subcommands now route through
//! `nd_bench::registry::run`; these tests pin that the rewiring added
//! nothing.  For each workload a scenario `Spec` value is executed
//! through the registry, a config is built by hand exactly the
//! way the old flag plumbing did, and the two JSON reports must agree
//! on every deterministic field, their `gates` objects included — walls,
//! RSS probes and derived timing figures are the only keys excluded,
//! because two honest runs of the same work differ there.
//!
//! Covered: all five bench drivers — parbench, thetasweep at all three
//! ranks, updates, serve and million.

use nd_bench::json::Json;
use nd_bench::registry::run;
use nd_bench::registry::spec::{DatasetSpec, Params, Spec, Workload};
use nd_bench::{million, parbench, serve, thetasweep, updates};
use nucleus::Rank;

/// Keys whose values are measurements of the run rather than of the
/// input: wall clocks (`*_s`), RSS probes, and figures derived from
/// walls.  Everything else must match bit-for-bit.
fn nondeterministic(key: &str) -> bool {
    key.ends_with("_s")
        || key.contains("rss")
        || key.contains("speedup")
        || key == "dp_calls_saved_pct"
        || key == "amortization"
        || key == "deadline_exceeded"
}

/// Recursively asserts the two reports agree everywhere outside the
/// measurement keys.  Object key *sets* must match exactly — a field
/// added or dropped by the registry path is a failure even if it is a
/// wall clock.
fn assert_same_report(a: &Json, b: &Json, path: &str) {
    match (a, b) {
        (Json::Obj(xs), Json::Obj(ys)) => {
            let keys = |m: &[(String, Json)]| -> Vec<String> {
                m.iter().map(|(k, _)| k.clone()).collect()
            };
            assert_eq!(keys(xs), keys(ys), "object keys diverge at '{path}'");
            for ((k, x), (_, y)) in xs.iter().zip(ys) {
                if nondeterministic(k) {
                    continue;
                }
                assert_same_report(x, y, &format!("{path}.{k}"));
            }
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            assert_eq!(xs.len(), ys.len(), "array lengths diverge at '{path}'");
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_same_report(x, y, &format!("{path}[{i}]"));
            }
        }
        _ => assert_eq!(a, b, "values diverge at '{path}'"),
    }
}

fn registry_report(spec: &Spec) -> Json {
    let executed = run::execute(spec).expect("registry execution failed");
    assert!(
        executed.failures.is_empty(),
        "registry run failed its own expectations: {:?}",
        executed.failures
    );
    let raw = executed.raw_json.expect("bench workloads carry raw JSON");
    let report = Json::parse(&raw).expect("driver JSON must parse");
    // The top-level key sets must match, so the direct report carries
    // its gates too.
    assert!(report.get("gates").is_some(), "report carries no gates");
    report
}

/// A spec of `workload` on the differential graph: small enough for
/// debug-mode CI, big enough that every counter the reports carry is
/// nonzero — 1000 edges over 100 vertices.
fn diff_spec(workload: Workload, params: Params) -> Spec {
    Spec {
        name: "diff",
        workload,
        tags: &[],
        dataset: DatasetSpec::Generated {
            edges: 1000,
            vertices: Some(100),
            seed: 42,
        },
        params,
        expect: &[],
    }
}

#[test]
fn parbench_matches_direct_invocation() {
    let spec = diff_spec(
        Workload::Parbench,
        Params {
            repeats: Some(1),
            threads: Some(vec![2]),
            ..Params::default()
        },
    );
    let config = parbench::ParBenchConfig {
        vertices: 100,
        edges: 1000,
        seed: 42,
        threads: vec![2],
        repeats: 1,
        ..Default::default()
    };
    let direct = parbench::run(&config).expect("direct parbench run failed");
    let direct = Json::parse(&direct.to_json()).unwrap();
    assert_same_report(&registry_report(&spec), &direct, "parbench");
}

#[test]
fn thetasweep_matches_direct_invocation_at_every_rank() {
    for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
        let spec = diff_spec(
            Workload::Thetasweep,
            Params {
                rank: Some(rank),
                thetas: Some(vec![0.05, 0.1, 0.3]),
                repeats: Some(1),
                ..Params::default()
            },
        );
        let config = thetasweep::SweepBenchConfig {
            rank,
            vertices: 100,
            edges: 1000,
            seed: 42,
            thetas: vec![0.05, 0.1, 0.3],
            repeats: 1,
            ..Default::default()
        };
        let direct = thetasweep::run_bench(&config).expect("direct thetasweep run failed");
        let direct = Json::parse(&direct.to_json()).unwrap();
        assert_same_report(
            &registry_report(&spec),
            &direct,
            &format!("thetasweep/{rank}"),
        );
    }
}

#[test]
fn updates_matches_direct_invocation() {
    let spec = diff_spec(
        Workload::Updates,
        Params {
            rank: Some(Rank::Truss),
            thetas: Some(vec![0.05, 0.1, 0.3]),
            batch: Some(8),
            ..Params::default()
        },
    );
    let config = updates::UpdateBenchConfig {
        rank: Rank::Truss,
        vertices: 100,
        edges: 1000,
        seed: 42,
        thetas: vec![0.05, 0.1, 0.3],
        batch: 8,
        ..Default::default()
    };
    let direct = updates::run(&config).expect("direct updates run failed");
    let direct = Json::parse(&direct.to_json()).unwrap();
    assert_same_report(&registry_report(&spec), &direct, "updates");
}

#[test]
fn serve_matches_direct_invocation() {
    let spec = diff_spec(
        Workload::Serve,
        Params {
            thetas: Some(vec![0.1, 0.3]),
            cache: Some(32),
            ..Params::default()
        },
    );
    let config = serve::ServeBenchConfig {
        vertices: 100,
        edges: 1000,
        seed: 42,
        thetas: vec![0.1, 0.3],
        cache_capacity: 32,
        ..Default::default()
    };
    let direct = serve::run(&config).expect("direct serve run failed");
    assert!(direct.passed(), "failures: {:?}", direct.oneshot.failures);
    let direct = Json::parse(&direct.to_json()).unwrap();
    assert_same_report(&registry_report(&spec), &direct, "serve");
}

#[test]
fn million_matches_direct_invocation() {
    // The million-smoke scale: ~10k edges instead of 1M.
    let spec = Spec {
        dataset: DatasetSpec::Ba {
            vertices: 2005,
            attach: 5,
            seed: 42,
        },
        ..diff_spec(
            Workload::Million,
            Params {
                thetas: Some(vec![0.1, 0.5]),
                pool: Some(2),
                chunk_edges: Some(4096),
                ..Params::default()
            },
        )
    };
    let config = million::MillionBenchConfig {
        vertices: 2005,
        attach: 5,
        seed: 42,
        threads: 2,
        streaming_chunk_edges: 4096,
        thetas: vec![0.1, 0.5],
        ..Default::default()
    };
    let direct = Json::parse(&million::run(&config).to_json()).unwrap();
    assert_same_report(&registry_report(&spec), &direct, "million");
}
