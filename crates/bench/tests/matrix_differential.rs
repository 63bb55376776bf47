//! Every bench builtin of the scenario matrix is what its subcommand's
//! flags parse to.
//!
//! A scenario holds the `Job` its driver runs, and a bench subcommand
//! parses its flags into a `Job` with `cli::parse_job`; both then run
//! through the same `registry::run::execute`.  A registered scenario and
//! a direct invocation are therefore the same run exactly when the two
//! jobs are equal, which these tests check for every bench builtin.  The
//! file scenarios are built through `ExternalDataset::new`, as `--input`
//! builds them.

use nd_bench::cli::parse_job;
use nd_bench::registry::scenarios;
use nd_bench::registry::spec::Job;
use nd_bench::source::GraphSource;

/// The committed file the two file scenarios read.
const TINY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/data/tiny.txt");

/// Parses a whitespace-separated argument list; the token `TINY` stands
/// for the committed file's path.
fn parse(args: &str) -> Result<Job, String> {
    let args = args
        .split_whitespace()
        .map(|a| if a == "TINY" { TINY } else { a });
    parse_job(&args.map(String::from).collect::<Vec<_>>())
}

/// Asserts that the builtin scenario `name` runs the job `args` parse to.
fn assert_builtin_is(name: &str, args: &str) {
    let builtin = scenarios().into_iter().find(|s| s.name == name);
    let builtin = builtin.unwrap_or_else(|| panic!("no builtin scenario '{name}'"));
    assert_eq!(parse(args), Ok(builtin.job), "{name} vs {args}");
}

#[test]
fn parbench_matches_direct_invocation() {
    assert_builtin_is(
        "parbench-smoke",
        "parbench --edges 4000 --repeats 1 --threads 2",
    );
    assert_builtin_is(
        "file-parbench-tiny",
        "parbench --input TINY --prob-model const:0.9 --repeats 1 --threads 1,2",
    );
}

#[test]
fn thetasweep_matches_direct_invocation_at_every_rank() {
    for rank in ["core", "truss", "nucleus"] {
        assert_builtin_is(
            &format!("thetasweep-{rank}-smoke"),
            &format!("thetasweep --rank {rank} --edges 4000 --thetas 0.05,0.1,0.3 --repeats 1"),
        );
    }
    assert_builtin_is(
        "file-thetasweep-tiny",
        "thetasweep --rank truss --input TINY --format snap --prob-model uniform:7:0.5:1 \
         --thetas 0.1,0.5 --repeats 1",
    );
}

#[test]
fn updates_matches_direct_invocation() {
    assert_builtin_is(
        "updates-truss-smoke",
        "updates --rank truss --edges 4000 --thetas 0.05,0.1,0.3 --batch 16",
    );
}

#[test]
fn serve_matches_direct_invocation() {
    assert_builtin_is(
        "serve-smoke",
        "serve --oneshot --edges 4000 --thetas 0.1,0.3 --cache 32",
    );
}

#[test]
fn million_matches_direct_invocation() {
    assert_builtin_is(
        "million-smoke",
        "million --vertices 2005 --attach 5 --threads 2 --chunk-edges 4096 --thetas 0.1,0.5",
    );
}

/// The graph `parbench` runs on with these flags.
fn source(args: &str) -> GraphSource {
    match parse(args) {
        Ok(Job::Parbench(config)) => config.source,
        other => panic!("{args} parsed to {other:?}"),
    }
}

#[test]
fn edges_alone_derive_the_vertex_count() {
    let generated = |vertices, edges| GraphSource::Generated { vertices, edges };
    assert_eq!(source("parbench --edges 5000"), generated(200, 5000));
    // --vertices overrides the derivation, and --input wins over both.
    let both = source("parbench --edges 5000 --vertices 70");
    assert_eq!(both, generated(70, 5000));
    let file = source("parbench --edges 5000 --input TINY");
    assert!(matches!(file, GraphSource::File(_)), "{file:?}");
}

#[test]
fn no_size_flags_give_the_50k_edge_default() {
    let default = GraphSource::Generated {
        vertices: 2000,
        edges: 50_000,
    };
    assert_eq!(source("parbench --seed 7"), default);
}
