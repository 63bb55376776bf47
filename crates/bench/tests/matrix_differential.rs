//! Registry-driven runs are bit-identical to direct driver invocations.
//!
//! The `experiments` subcommands now route through
//! `nd_bench::registry::run`; these tests pin that the rewiring added
//! nothing.  For each workload a scenario spec is parsed from TOML and
//! executed through the registry, a config is built by hand exactly the
//! way the old flag plumbing did, and the two JSON reports must agree
//! on every deterministic field, their `gates` objects included — walls,
//! RSS probes and derived timing figures are the only keys excluded,
//! because two honest runs of the same work differ there.
//!
//! Covered: all five bench drivers — parbench, thetasweep at all three
//! ranks, updates, serve and million.

use nd_bench::json::Json;
use nd_bench::registry::run;
use nd_bench::registry::spec;
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

fn registry_report(toml: &str) -> Json {
    let parsed = spec::parse(toml).expect("differential spec must parse");
    let executed = run::execute(&parsed.spec).expect("registry execution failed");
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

/// Small enough for debug-mode CI, big enough that every counter the
/// reports carry is nonzero: 1000 edges over 100 vertices.
const DIMS: &str = "kind = \"generated\"\nedges = 1000\nvertices = 100\nseed = 42\n";

#[test]
fn parbench_matches_direct_invocation() {
    let toml = format!(
        "name = \"diff-parbench\"\nworkload = \"parbench\"\n\n\
         [dataset]\n{DIMS}\n\
         [params]\nrepeats = 1\nthreads = [2]\n"
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
    assert_same_report(&registry_report(&toml), &direct, "parbench");
}

#[test]
fn thetasweep_matches_direct_invocation_at_every_rank() {
    for rank in [Rank::Core, Rank::Truss, Rank::Nucleus] {
        let toml = format!(
            "name = \"diff-thetasweep\"\nworkload = \"thetasweep\"\n\n\
             [dataset]\n{DIMS}\n\
             [params]\nrank = \"{rank}\"\nthetas = [0.05, 0.1, 0.3]\nrepeats = 1\n"
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
            &registry_report(&toml),
            &direct,
            &format!("thetasweep/{rank}"),
        );
    }
}

#[test]
fn updates_matches_direct_invocation() {
    let toml = format!(
        "name = \"diff-updates\"\nworkload = \"updates\"\n\n\
         [dataset]\n{DIMS}\n\
         [params]\nrank = \"truss\"\nthetas = [0.05, 0.1, 0.3]\nbatch = 8\n"
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
    assert_same_report(&registry_report(&toml), &direct, "updates");
}

#[test]
fn serve_matches_direct_invocation() {
    let toml = format!(
        "name = \"diff-serve\"\nworkload = \"serve\"\n\n\
         [dataset]\n{DIMS}\n\
         [params]\nthetas = [0.1, 0.3]\ncache = 32\n"
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
    assert_same_report(&registry_report(&toml), &direct, "serve");
}

#[test]
fn million_matches_direct_invocation() {
    // The million-smoke scale: ~10k edges instead of 1M.
    let toml = "name = \"diff-million\"\nworkload = \"million\"\n\n\
                [dataset]\nkind = \"ba\"\nvertices = 2005\nattach = 5\nseed = 42\n\n\
                [params]\nthetas = [0.1, 0.5]\npool = 2\nchunk_edges = 4096\n";
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
    assert_same_report(&registry_report(toml), &direct, "million");
}
