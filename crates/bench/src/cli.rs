//! Command-line parsing for the `experiments` binary.
//!
//! The one home of the flag grammar: the flags each subcommand takes
//! ([`check_flags`]), the `--input/--format/--prob-model` ingestion
//! trio, the `--edges/--vertices` density rule, the `--scale` names, the
//! `--thetas` and `--threads` lists, and [`parse_job`], which turns a
//! bench subcommand's flags into the [`Job`] it runs.  Everything
//! returns `Result` rather than exiting, so it is unit-testable; the
//! binary maps errors to its uniform `fail()`.

use nd_datasets::{ExternalDataset, Scale};
use nucleus::Rank;
use ugraph::io::EdgeProbabilityModel;
use ugraph::par::Parallelism;
use ugraph::InputFormat;

use crate::million::MillionBenchConfig;
use crate::parbench::ParBenchConfig;
use crate::registry::spec::Job;
use crate::serve::ServeBenchConfig;
use crate::source::GraphSource;
use crate::thetasweep::SweepBenchConfig;
use crate::updates::UpdateBenchConfig;

/// The flags of a 50k-edge bench subcommand's graph: a file with its
/// format and probability model, or a generated graph's size and seed.
const GRAPH_FLAGS: [&str; 6] = [
    "--input",
    "--format",
    "--prob-model",
    "--edges",
    "--vertices",
    "--seed",
];

/// The flags that take no value.
const SWITCHES: [&str; 2] = ["--oneshot", "--dry-run"];

/// Checks the flags of a command line (`args[0]` is the subcommand or
/// paper experiment id) before any work: a flag the subcommand does not
/// take, a flag given twice, a flag missing its value, or a token that
/// is neither a flag nor a flag's value is an error naming it.  Only
/// `bench-compare` takes such tokens: its two files.
pub fn check_flags(args: &[String]) -> Result<(), String> {
    let subcommand = args.first().map_or("", String::as_str);
    let (own, graph): (&[&str], bool) = match subcommand {
        "parbench" => (&["--threads", "--repeats", "--out"], true),
        "thetasweep" => (&["--rank", "--thetas", "--repeats", "--out"], true),
        "updates" => (&["--rank", "--thetas", "--batch", "--out"], true),
        "serve" => (
            &[
                "--oneshot",
                "--port",
                "--cache",
                "--threads",
                "--thetas",
                "--out",
            ],
            true,
        ),
        "million" => (
            &[
                "--vertices",
                "--attach",
                "--seed",
                "--threads",
                "--chunk-edges",
                "--thetas",
                "--out",
            ],
            false,
        ),
        "gen" => (
            &[
                "--gen",
                "--edges",
                "--vertices",
                "--seed",
                "--attach",
                "--out",
                "--snapshot",
            ],
            false,
        ),
        "matrix" => (&["--only", "--tag", "--dry-run", "--out"], false),
        "bench-compare" => (&["--tolerance"], false),
        "serve-client" => (&["--addr", "--call", "--params", "--deadline-ms"], false),
        // The paper experiments: their datasets come from the registry
        // or from `--input`.
        _ => (
            &["--scale", "--seed", "--input", "--format", "--prob-model"],
            false,
        ),
    };
    let mut operands = if subcommand == "bench-compare" { 2 } else { 0 };
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if operands == 0 {
                return Err(format!("{subcommand}: unexpected argument {arg}"));
            }
            operands -= 1;
            continue;
        }
        let takes = own.contains(&arg) || (graph && GRAPH_FLAGS.contains(&arg));
        if !takes {
            return Err(format!("{subcommand}: unknown flag {arg}"));
        }
        if seen.contains(&arg) {
            return Err(format!("{subcommand}: {arg} given more than once"));
        }
        seen.push(arg);
        if !SWITCHES.contains(&arg) && rest.next().is_none() {
            return Err(format!("{arg} requires a value"));
        }
    }
    Ok(())
}

/// Looks up the value following `flag`.  `Ok(None)` when the flag is
/// absent; an error when the flag is present but dangling without a
/// value (silently ignoring it would run the wrong workload).
pub fn parse_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} requires a value")),
        },
    }
}

/// Parses a typed flag strictly: an absent flag yields `Ok(None)`, a
/// present-but-unparseable value is a loud error — never a silent fall
/// back to the default (which would benchmark the wrong graph and only
/// surface later as a confusing counts regression in `bench-compare`).
pub fn parse_num_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, String> {
    match parse_flag(args, flag)? {
        None => Ok(None),
        Some(spec) => spec
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("invalid {flag} value '{spec}'")),
    }
}

/// Parses the paper experiments' `--scale tiny|small|medium` flag; any
/// other value is an error.
pub fn parse_scale(args: &[String]) -> Result<Option<Scale>, String> {
    match parse_flag(args, "--scale")?.as_deref() {
        None => Ok(None),
        Some("tiny") => Ok(Some(Scale::Tiny)),
        Some("small") => Ok(Some(Scale::Small)),
        Some("medium") => Ok(Some(Scale::Medium)),
        Some(other) => Err(format!(
            "invalid --scale value '{other}' (expected tiny, small or medium)"
        )),
    }
}

/// Parses the shared `--thetas 0.05,0.1,0.5` grid flag.  Grid *shape*
/// validation (sortedness, range) stays with the sweep engine; this
/// only rejects tokens that are not numbers.
pub fn parse_thetas(args: &[String]) -> Result<Option<Vec<f64>>, String> {
    let Some(list) = parse_flag(args, "--thetas")? else {
        return Ok(None);
    };
    let mut thetas = Vec::new();
    for token in list.split(',') {
        match token.trim().parse::<f64>() {
            Ok(t) => thetas.push(t),
            Err(_) => {
                return Err(format!(
                    "invalid --thetas value '{token}' (expected e.g. 0.05,0.1,0.5)"
                ))
            }
        }
    }
    Ok(Some(thetas))
}

/// Parses the `--threads 1,2,4` matrix flag of `parbench`.  `1` is the
/// always-measured sequential baseline, so it is dropped from the list;
/// `0` and non-numbers are rejected.  `Ok(Some(vec![]))` is legitimate
/// (`--threads 1` means baseline only).
pub fn parse_threads(args: &[String]) -> Result<Option<Vec<usize>>, String> {
    let Some(list) = parse_flag(args, "--threads")? else {
        return Ok(None);
    };
    let mut threads = Vec::new();
    for token in list.split(',') {
        match token.trim().parse::<usize>() {
            Ok(0) | Err(_) => {
                return Err(format!(
                    "invalid --threads value '{token}' (expected e.g. 1,2,4)"
                ))
            }
            Ok(1) => {}
            Ok(t) => threads.push(t),
        }
    }
    Ok(Some(threads))
}

/// The derived vertex count of a generated G(n, m) benchmark graph when
/// only `--edges` is given: average degree 50 (the density every
/// committed baseline uses), floored at the smallest graph that can
/// hold a 4-clique.
pub fn derive_vertices(edges: usize) -> usize {
    (edges / 25).max(4)
}

/// Parses the `--input PATH [--format F] [--prob-model M]` ingestion
/// trio every subcommand that accepts a file shares (`--format`
/// defaults to `snap`, `--prob-model` to `column`).  `Ok(None)` when no
/// `--input` is present; `--format`/`--prob-model` without `--input`
/// are rejected (they would otherwise be dead flags whose typos go
/// unnoticed).
pub fn parse_input(args: &[String]) -> Result<Option<ExternalDataset>, String> {
    let path = parse_flag(args, "--input")?;
    let format = parse_flag(args, "--format")?;
    let prob_model = parse_flag(args, "--prob-model")?;
    let Some(path) = path else {
        if format.is_some() || prob_model.is_some() {
            return Err("--format/--prob-model require --input".to_string());
        }
        return Ok(None);
    };
    let format = match format {
        Some(spec) => spec.parse::<InputFormat>()?,
        None => InputFormat::Snap,
    };
    let prob_model = match prob_model {
        Some(spec) => spec.parse::<EdgeProbabilityModel>()?,
        None => EdgeProbabilityModel::Column,
    };
    Ok(Some(ExternalDataset::new(path, format, prob_model)))
}

/// The graph of a 50k-edge bench subcommand: `--input` wins; otherwise a
/// generated graph of `--edges` (default 50,000) over `--vertices`
/// (default: derived from the edge count).
fn parse_source(args: &[String]) -> Result<GraphSource, String> {
    if let Some(input) = parse_input(args)? {
        return Ok(GraphSource::File(input));
    }
    let edges = parse_num_flag(args, "--edges")?.unwrap_or(50_000);
    let vertices = parse_num_flag(args, "--vertices")?.unwrap_or_else(|| derive_vertices(edges));
    Ok(GraphSource::Generated { vertices, edges })
}

/// A count flag that must be at least 1 when given.
fn parse_positive(args: &[String], flag: &str, subcommand: &str) -> Result<Option<usize>, String> {
    match parse_num_flag(args, flag)? {
        Some(0) => Err(format!("{subcommand}: {flag} must be at least 1")),
        count => Ok(count),
    }
}

fn parse_rank(args: &[String], subcommand: &str) -> Result<Option<Rank>, String> {
    let rank = parse_flag(args, "--rank")?.map(|spec| spec.parse::<Rank>());
    rank.transpose().map_err(|e| format!("{subcommand}: {e}"))
}

/// Validates a θ-grid through the sweep engine, so a malformed grid
/// fails with the typed validation message before any work.
fn validate_grid(subcommand: &str, thetas: &[f64]) -> Result<(), String> {
    nucleus::SweepConfig::exact(thetas.to_vec())
        .validate()
        .map_err(|e| format!("{subcommand}: {e}"))
}

/// Parses a bench subcommand's arguments (`args[0]` is `parbench`,
/// `thetasweep`, `updates`, `serve` or `million`) into the job it runs.
/// Absent flags keep the driver defaults; `--seed` defaults to 42.
pub fn parse_job(args: &[String]) -> Result<Job, String> {
    let subcommand = args.first().map_or("", String::as_str);
    let seed = || Ok::<u64, String>(parse_num_flag(args, "--seed")?.unwrap_or(42));
    Ok(match subcommand {
        "parbench" => {
            let mut c = ParBenchConfig::default();
            c.repeats = parse_num_flag(args, "--repeats")?.unwrap_or(c.repeats);
            c.threads = parse_threads(args)?.unwrap_or(c.threads);
            c.seed = seed()?;
            c.source = parse_source(args)?;
            Job::Parbench(c)
        }
        "thetasweep" => {
            let mut c = SweepBenchConfig::default();
            c.rank = parse_rank(args, subcommand)?.unwrap_or(c.rank);
            c.thetas = parse_thetas(args)?.unwrap_or(c.thetas);
            c.repeats = parse_num_flag(args, "--repeats")?.unwrap_or(c.repeats);
            c.seed = seed()?;
            c.source = parse_source(args)?;
            validate_grid(subcommand, &c.thetas)?;
            Job::Thetasweep(c)
        }
        "updates" => {
            let mut c = UpdateBenchConfig::default();
            c.rank = parse_rank(args, subcommand)?.unwrap_or(c.rank);
            c.thetas = parse_thetas(args)?.unwrap_or(c.thetas);
            c.batch = parse_num_flag(args, "--batch")?.unwrap_or(c.batch);
            c.seed = seed()?;
            c.source = parse_source(args)?;
            validate_grid(subcommand, &c.thetas)?;
            Job::Updates(c)
        }
        "serve" => {
            let mut c = ServeBenchConfig::default();
            let thetas = parse_thetas(args)?;
            c.cache_capacity = parse_num_flag(args, "--cache")?.unwrap_or(c.cache_capacity);
            let threads = parse_positive(args, "--threads", subcommand)?;
            c.parallelism = threads.map_or(c.parallelism, Parallelism::fixed);
            c.seed = seed()?;
            c.source = parse_source(args)?;
            if let Some(thetas) = thetas {
                if thetas.len() < 2 {
                    return Err("serve: --thetas needs a grid of at least 2 points".to_string());
                }
                validate_grid(subcommand, &thetas)?;
                c.thetas = thetas;
            }
            Job::Serve(c)
        }
        "million" => {
            // million never took --input; its graph is always the seeded BA.
            let mut c = MillionBenchConfig::default();
            c.thetas = parse_thetas(args)?.unwrap_or(c.thetas);
            c.threads = parse_positive(args, "--threads", subcommand)?.unwrap_or(c.threads);
            let chunk = parse_positive(args, "--chunk-edges", subcommand)?;
            c.streaming_chunk_edges = chunk.unwrap_or(c.streaming_chunk_edges);
            c.seed = seed()?;
            c.attach = parse_positive(args, "--attach", subcommand)?.unwrap_or(c.attach);
            c.vertices = parse_num_flag(args, "--vertices")?.unwrap_or(c.vertices);
            validate_grid(subcommand, &c.thetas)?;
            Job::Million(c)
        }
        other => return Err(format!("'{other}' is not a bench subcommand")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flags_parse_to_none() {
        let a = args(&["parbench", "--seed", "7"]);
        assert_eq!(parse_flag(&a, "--edges").unwrap(), None);
        assert_eq!(parse_num_flag::<u64>(&a, "--edges").unwrap(), None);
        assert_eq!(parse_thetas(&a).unwrap(), None);
        assert_eq!(parse_threads(&a).unwrap(), None);
        assert_eq!(parse_input(&a).unwrap(), None);
    }

    #[test]
    fn every_subcommand_takes_its_own_flags_once() {
        for line in [
            "parbench --edges 50000 --vertices 1000 --threads 1,2,4 --repeats 3 --out B.json",
            "parbench --input g.txt --format snap --prob-model column --seed 7",
            "thetasweep --rank truss --edges 50000 --seed 42 --thetas 0.1,0.5 --repeats 3",
            "updates --rank truss --edges 50000 --vertices 2000 --seed 42 --batch 64 --out U",
            "serve --oneshot --input g.txt --cache 32 --threads 2 --thetas 0.1,0.3 --out S",
            "serve --port 7391 --edges 20000",
            "million --vertices 2005 --attach 5 --threads 2 --chunk-edges 4096 --out M",
            "gen --gen ba --edges 1000000 --seed 42 --out g.txt --snapshot g.ugsnap",
            "matrix --only a,b --tag bench --dry-run --out X.json",
            "bench-compare OLD.json NEW.json --tolerance 0",
            "bench-compare OLD.json --tolerance 0 NEW.json",
            "serve-client --addr 127.0.0.1:7391 --call info --params {} --deadline-ms 5",
            "table1 --scale tiny --seed 42 --input g.txt --format snap --prob-model column",
            "all --scale small",
        ] {
            let a: Vec<String> = line.split(' ').map(String::from).collect();
            assert_eq!(check_flags(&a), Ok(()), "{line}");
        }
    }

    #[test]
    fn unknown_and_repeated_flags_are_refused_by_name() {
        let refused = |list: &[&str]| check_flags(&args(list)).unwrap_err();
        assert_eq!(
            refused(&["parbench", "--edges", "400", "--edgse", "800"]),
            "parbench: unknown flag --edgse"
        );
        assert_eq!(
            refused(&["thetasweep", "--edges", "400", "--edges", "800"]),
            "thetasweep: --edges given more than once"
        );
        // A flag of another subcommand is unknown here.
        assert_eq!(
            refused(&["million", "--input", "g.txt"]),
            "million: unknown flag --input"
        );
        assert_eq!(
            refused(&["table1", "--edges", "400"]),
            "table1: unknown flag --edges"
        );
        assert_eq!(
            refused(&["matrix", "--dry-run", "--dry-run"]),
            "matrix: --dry-run given more than once"
        );
        assert_eq!(refused(&["gen", "--out"]), "--out requires a value");
        // A token that is neither a flag nor a flag's value is refused too.
        assert_eq!(
            refused(&["parbench", "800", "--edges", "400"]),
            "parbench: unexpected argument 800"
        );
        assert_eq!(
            refused(&["matrix", "--dry-run", "X.json"]),
            "matrix: unexpected argument X.json"
        );
        assert_eq!(
            refused(&["bench-compare", "A.json", "B.json", "C.json"]),
            "bench-compare: unexpected argument C.json"
        );
    }

    #[test]
    fn dangling_flag_is_an_error_not_a_silent_default() {
        let a = args(&["parbench", "--edges"]);
        assert!(parse_flag(&a, "--edges").unwrap_err().contains("--edges"));
    }

    #[test]
    fn num_flag_rejects_garbage_loudly() {
        let a = args(&["parbench", "--edges", "many"]);
        let err = parse_num_flag::<usize>(&a, "--edges").unwrap_err();
        assert!(err.contains("invalid --edges value 'many'"), "{err}");
    }

    #[test]
    fn scale_parses_the_three_scales_and_rejects_the_rest() {
        let a = args(&["table1", "--scale", "medium"]);
        assert_eq!(parse_scale(&a).unwrap(), Some(Scale::Medium));
        assert_eq!(parse_scale(&args(&["table1"])).unwrap(), None);
        let err = parse_scale(&args(&["table1", "--scale", "huge"])).unwrap_err();
        assert_eq!(
            err,
            "invalid --scale value 'huge' (expected tiny, small or medium)"
        );
    }

    #[test]
    fn thetas_parse_and_reject_bad_tokens() {
        let a = args(&["thetasweep", "--thetas", "0.1,0.5,0.9"]);
        assert_eq!(parse_thetas(&a).unwrap(), Some(vec![0.1, 0.5, 0.9]));
        let bad = args(&["thetasweep", "--thetas", "0.1,x"]);
        assert!(parse_thetas(&bad).unwrap_err().contains("'x'"));
    }

    #[test]
    fn threads_drop_the_baseline_and_reject_zero() {
        let a = args(&["parbench", "--threads", "1,2,4"]);
        assert_eq!(parse_threads(&a).unwrap(), Some(vec![2, 4]));
        let baseline_only = args(&["parbench", "--threads", "1"]);
        assert_eq!(parse_threads(&baseline_only).unwrap(), Some(vec![]));
        let zero = args(&["parbench", "--threads", "0"]);
        assert!(parse_threads(&zero).is_err());
    }

    #[test]
    fn derive_vertices_keeps_average_degree_50() {
        assert_eq!(derive_vertices(50_000), 2_000);
        assert_eq!(derive_vertices(10), 4);
    }

    #[test]
    fn ingest_args_parse_the_full_trio() {
        let a = args(&[
            "parbench",
            "--input",
            "graph.txt",
            "--format",
            "konect",
            "--prob-model",
            "const:0.5",
        ]);
        let dataset = parse_input(&a).unwrap().unwrap();
        assert_eq!(dataset.path, std::path::Path::new("graph.txt"));
        assert_eq!(dataset.format, InputFormat::Konect);
        assert_eq!(dataset.probability, EdgeProbabilityModel::Constant(0.5));
        assert_eq!(dataset.name, "graph");
    }

    #[test]
    fn ingest_args_default_format_and_model() {
        let a = args(&["parbench", "--input", "g.txt"]);
        let dataset = parse_input(&a).unwrap().unwrap();
        assert_eq!(dataset.format, InputFormat::Snap);
        assert_eq!(dataset.probability, EdgeProbabilityModel::Column);
    }

    #[test]
    fn ingest_args_reject_orphaned_modifiers_and_bad_values() {
        let orphan = args(&["parbench", "--format", "snap"]);
        assert!(parse_input(&orphan)
            .unwrap_err()
            .contains("require --input"));
        let bad_format = args(&["parbench", "--input", "g", "--format", "xml"]);
        assert!(parse_input(&bad_format).is_err());
        let bad_model = args(&["parbench", "--input", "g", "--prob-model", "magic"]);
        assert!(parse_input(&bad_model).is_err());
    }
}
