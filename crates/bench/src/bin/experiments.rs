//! Experiment runner reproducing every table and figure of the paper,
//! plus the parallel-substrate benchmark and dataset utilities.
//!
//! ```text
//! experiments <id> [--scale tiny|small|medium] [--seed N]
//!             [--input PATH [--format snap|konect|ugsnap]
//!                           [--prob-model column|const:P|uniform:SEED[:L:H]|exp[:S]]]
//!
//! ids: table1 fig4 fig5 table2 fig6 table3 fig7 fig8 ablation all
//!
//! experiments parbench [--edges M] [--vertices N] [--threads 1,2,4]
//!                      [--repeats R] [--seed N] [--out BENCH_parallel.json]
//!                      [--input PATH [--format F] [--prob-model M]]
//!
//! experiments thetasweep [--rank core|truss|nucleus] [--edges M] [--vertices N]
//!                        [--seed N] [--thetas GRID] [--repeats R] [--out PATH]
//!                        [--input PATH [--format F] [--prob-model M]]
//!
//! experiments updates [--rank core|truss|nucleus] [--edges M] [--vertices N]
//!                     [--seed N] [--thetas GRID] [--batch B] [--out PATH]
//!                     [--input PATH [--format F] [--prob-model M]]
//!
//! experiments gen [--gen gnm|ba] [--edges M] [--vertices N] [--seed N]
//!                 [--attach K] --out PATH [--snapshot PATH]
//!
//! experiments million [--vertices N] [--attach K] [--seed N] [--threads T]
//!                     [--chunk-edges C] [--thetas GRID] [--out PATH]
//!
//! experiments matrix [--only NAME[,NAME...]] [--tag TAG]
//!                    [--dry-run] [--out BENCH_matrix.json]
//!
//! experiments bench-compare OLD.json NEW.json [--tolerance F]
//!
//! experiments serve [--port P] [--cache N] [--threads N] [--thetas GRID]
//!                   [--edges M] [--vertices N] [--seed N]
//!                   [--input PATH [--format F] [--prob-model M]]
//!                   [--oneshot [--out BENCH_serve.json]]
//!
//! experiments serve-client --addr HOST:PORT [--call METHOD]
//!                          [--params JSON] [--deadline-ms N]
//! ```
//!
//! With `--input`, the named experiment runs on the ingested graph
//! instead of the six synthetic datasets (loading goes through the
//! `.ugsnap` snapshot cache), and `parbench` additionally records the
//! file plus its ingestion timings as the dataset provenance in the JSON
//! report.  `gen` writes a seeded benchmark graph as a text edge list
//! (and optionally a snapshot), so CI can exercise the full
//! generate → ingest → snapshot → benchmark loop.
//!
//! A bench subcommand's flags parse to the [`Job`] it runs
//! (`nd_bench::cli::parse_job`), which goes through the scenario
//! registry's single dispatch path (`nd_bench::registry::run`), as
//! every paper experiment does; it prints its report through
//! `nd_bench::report::render` and writes the JSON to `--out`.
//! `experiments matrix` runs every registered scenario (the `Spec`
//! values in `nd_bench::registry`) and emits the tagged
//! `bench-matrix/v2` report CI gates.
//!
//! A flag a subcommand does not take, a flag given twice, or an argument
//! that is neither a flag, a flag's value nor one of `bench-compare`'s
//! two files is refused before any work.  Output to a pipe its reader has closed is dropped
//! and the run goes on, so the `--out` file is still written.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use nd_bench::json::Json;
use nd_bench::registry::spec::{Job, Spec, Workload};
use nd_bench::registry::{self, matrix, run};
use nd_bench::runner::ExperimentContext;
use nd_bench::{cli, compare, million, source};
use nd_datasets::Scale;

/// Set once a write to stdout finds the pipe closed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `text` to stdout: every line the binary prints goes through
/// here.  Once the reader has closed the pipe, later output is dropped
/// and the run goes on, so a subcommand still writes its `--out` file and
/// exits with its usual status; any other write error ends the run.
fn emit(text: &str) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed)
        }
        Err(e) => fail(&format!("cannot write to stdout: {e}")),
    }
}

/// `println!` through [`emit`].
macro_rules! say {
    () => {
        emit("\n")
    };
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    cli::check_flags(&args).unwrap_or_else(|e| fail(&e));
    let id = args[0].clone();
    match id.as_str() {
        "parbench" | "thetasweep" | "updates" | "million" => return run_bench_arm(&args),
        "matrix" => return run_matrix_cmd(&args),
        "gen" => return run_gen(&args),
        "bench-compare" => return run_bench_compare(&args),
        "serve" => return run_serve(&args),
        "serve-client" => return run_serve_client(&args),
        _ => {}
    }

    // Paper experiments: one dispatch through the registry's paper
    // runner, on a context built from --scale/--seed/--input.
    let experiments: Vec<Workload> = if id == "all" {
        vec![
            Workload::Table1,
            Workload::Fig4,
            Workload::Fig5,
            Workload::Table2,
            Workload::Fig6,
            Workload::Table3,
            Workload::Fig7,
            Workload::Fig8,
            Workload::Ablation,
        ]
    } else {
        match id.parse::<Workload>() {
            // The bench workloads' subcommands were dispatched above.
            Ok(workload) => vec![workload],
            _ => {
                eprintln!("unknown experiment '{id}'");
                print_usage();
                std::process::exit(1);
            }
        }
    };
    let scale = cli::parse_scale(&args)
        .unwrap_or_else(|e| fail(&e))
        .unwrap_or(Scale::Small);
    let seed = parse_num_flag(&args, "--seed").unwrap_or(42u64);
    let mut ctx = ExperimentContext::new(scale, seed);
    if let Some(input) = cli::parse_input(&args).unwrap_or_else(|e| fail(&e)) {
        let start = std::time::Instant::now();
        let graph = input
            .load_cached()
            .unwrap_or_else(|e| fail(&format!("cannot load {}: {e}", input.path.display())));
        say!(
            "# input: {} ({} vertices, {} edges, loaded in {:.3}s via snapshot cache)",
            input.path.display(),
            graph.num_vertices(),
            graph.num_edges(),
            start.elapsed().as_secs_f64()
        );
        ctx = ctx.with_external_graph(input.name.clone(), graph);
    }

    say!("# experiment: {id}  scale: {scale:?}  seed: {seed}\n");
    let start = std::time::Instant::now();
    for workload in experiments {
        emit(&run::run_paper(&ctx, workload).text);
    }
    say!(
        "\n# total wall-clock: {:.1}s",
        start.elapsed().as_secs_f64()
    );
}

fn print_usage() {
    say!(
        "usage: experiments <id> [--scale tiny|small|medium] [--seed N]\n\
         \x20               [--input PATH [--format snap|konect|ugsnap] [--prob-model M]]\n\
         ids: table1 fig4 fig5 table2 fig6 table3 fig7 fig8 ablation all\n\
         \n\
         experiments parbench [--edges M] [--vertices N] [--threads 1,2,4]\n\
         \x20                 [--repeats R] [--seed N] [--out BENCH_parallel.json]\n\
         \x20                 [--input PATH [--format F] [--prob-model M]]\n\
         \n\
         experiments thetasweep [--rank core|truss|nucleus] [--edges M]\n\
         \x20                   [--vertices N] [--seed N]\n\
         \x20                   [--thetas 0.02,0.05,0.1,0.25,0.5] [--repeats R]\n\
         \x20                   [--out BENCH_thetasweep.json]\n\
         \x20                   [--input PATH [--format F] [--prob-model M]]\n\
         \x20   one sweep index build vs independent per-threshold runs at the\n\
         \x20   chosen (r,s) rank (default nucleus; the grid is the eta/gamma\n\
         \x20   grid at the core/truss ranks); emits bench-parallel/v7 JSON\n\
         \x20   with rank + support_builds + amortization\n\
         \n\
         experiments updates [--rank core|truss|nucleus] [--edges M]\n\
         \x20                [--vertices N] [--seed N]\n\
         \x20                [--thetas 0.02,0.05,0.1,0.25,0.5] [--batch B]\n\
         \x20                [--out BENCH_updates.json]\n\
         \x20                [--input PATH [--format F] [--prob-model M]]\n\
         \x20   apply a seeded edge-update batch through the incremental\n\
         \x20   repair path, verify bit-identity against a full rebuild and\n\
         \x20   emit bench-updates/v2 JSON with repair-vs-rebuild dp_calls\n\
         \n\
         experiments gen [--gen gnm|ba] [--edges M] [--vertices N] [--seed N]\n\
         \x20            [--attach K] --out PATH [--snapshot PATH]\n\
         \x20   --gen ba is the power-law Barabasi-Albert generator of the\n\
         \x20   million-edge baseline (reaches 1M+ edges from --edges 1000000)\n\
         \n\
         experiments million [--vertices N] [--attach K] [--seed N]\n\
         \x20                [--threads T] [--chunk-edges C] [--thetas 0.1,0.5]\n\
         \x20                [--out BENCH_million.json]\n\
         \x20   million-edge memory-scaling baseline: seeded BA graph, snapshot\n\
         \x20   mmap-vs-owned reload (bit-identity asserted), 1-vs-T-thread\n\
         \x20   triangle phase, streaming index build, truss sweep; emits\n\
         \x20   bench-million/v2 JSON with peak_rss_bytes\n\
         \n\
         experiments matrix [--only NAME[,NAME...]] [--tag TAG]\n\
         \x20               [--dry-run] [--out BENCH_matrix.json]\n\
         \x20   run every selected registered scenario through its driver,\n\
         \x20   check its expected counters exactly, and emit one tagged\n\
         \x20   bench-matrix/v2 report that bench-compare gates at\n\
         \x20   tolerance 0; --dry-run lists without running\n\
         \n\
         experiments bench-compare OLD.json NEW.json [--tolerance F]\n\
         \x20   diffs two bench-parallel/*, bench-serve/*, bench-updates/*,\n\
         \x20   bench-million/* or bench-matrix/* reports of one schema by the\n\
         \x20   gate tags they record; exits 1 when a number regresses beyond\n\
         \x20   the relative tolerance (default 0) and refuses reports of\n\
         \x20   differing schemas (regenerate the baseline). Walls never gate.\n\
         \n\
         experiments serve [--port P] [--cache N] [--threads N]\n\
         \x20              [--thetas 0.1,0.3] [--edges M] [--vertices N] [--seed N]\n\
         \x20              [--input PATH [--format F] [--prob-model M]]\n\
         \x20              [--oneshot [--out BENCH_serve.json]]\n\
         \x20   resident (r,s)-nucleus query service over TCP; with --oneshot,\n\
         \x20   runs the scripted self-test (every wire answer compared\n\
         \x20   bit-for-bit against the library, including across an\n\
         \x20   apply_updates batch) and emits bench-serve/v3 JSON\n\
         \n\
         experiments serve-client --addr HOST:PORT [--call METHOD]\n\
         \x20                     [--params JSON] [--deadline-ms N]\n\
         \x20   one call against a running server; prints the JSON result\n\
         \n\
         probability models: column | const:P | uniform:SEED[:LOW:HIGH] | exp[:SCALE]"
    );
}

/// Diffs two bench JSON files and gates on deterministic counters.
fn run_bench_compare(args: &[String]) {
    // Positional operands are whatever isn't a flag or a flag's value, so
    // `--tolerance 0.1` may appear before, between or after the files.
    let mut files: Vec<&str> = Vec::new();
    let mut tolerance = 0.0f64;
    let mut args_iter = args[1..].iter();
    while let Some(arg) = args_iter.next() {
        if arg == "--tolerance" {
            let spec = args_iter
                .next()
                .unwrap_or_else(|| fail("bench-compare: --tolerance requires a value"));
            tolerance = spec
                .parse::<f64>()
                .unwrap_or_else(|_| fail(&format!("invalid --tolerance '{spec}'")));
        } else if arg.starts_with("--") {
            fail(&format!("bench-compare: unknown flag '{arg}'"));
        } else {
            files.push(arg.as_str());
        }
    }
    if files.len() != 2 {
        fail("bench-compare requires exactly two files: OLD.json NEW.json");
    }
    let (old_path, new_path) = (files[0], files[1]);
    let read = |path: &str| -> Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    };
    let report =
        compare::compare(&read(old_path), &read(new_path), tolerance).unwrap_or_else(|e| fail(&e));
    say!("# bench-compare  old: {old_path}  new: {new_path}  tolerance: {tolerance}\n");
    say!("{}", report.format());
    if !report.regressions().is_empty() {
        std::process::exit(1);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// [`cli::parse_flag`] with the binary's uniform exit-on-error behaviour.
fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    cli::parse_flag(args, flag).unwrap_or_else(|e| fail(&e))
}

/// [`cli::parse_num_flag`] with the binary's uniform exit-on-error behaviour.
fn parse_num_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    cli::parse_num_flag(args, flag).unwrap_or_else(|e| fail(&e))
}

/// Runs one bench subcommand through the registry dispatch: header,
/// driver, report table, JSON file.
fn run_bench_arm(args: &[String]) {
    let job = cli::parse_job(args).unwrap_or_else(|e| fail(&e));
    let workload = job.workload();
    let out_default = match workload {
        Workload::Parbench => "BENCH_parallel.json",
        Workload::Thetasweep => "BENCH_thetasweep.json",
        Workload::Updates => "BENCH_updates.json",
        Workload::Serve => "BENCH_serve.json",
        Workload::Million => "BENCH_million.json",
        paper => unreachable!("{paper} is not a bench subcommand"),
    };
    let out_path = parse_flag(args, "--out").unwrap_or_else(|| out_default.to_string());
    say!("{}", job.header());
    let spec = Spec {
        name: workload.name(),
        tags: &[],
        job,
        expect: &[],
    };
    let executed = run::execute(&spec).unwrap_or_else(|e| fail(&e));
    emit(&executed.text);
    let json = executed
        .raw_json
        .as_deref()
        .expect("bench drivers emit JSON");
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    say!("wrote {out_path}");
    if workload == Workload::Serve && !executed.passed() {
        std::process::exit(1);
    }
}

/// Enumerates and runs the scenario registry.
fn run_matrix_cmd(args: &[String]) {
    let scenarios = registry::scenarios();
    let only: Vec<String> = parse_flag(args, "--only")
        .map(|list| {
            list.split(',')
                .map(|name| name.trim().to_string())
                .filter(|name| !name.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let tag = parse_flag(args, "--tag");
    let selected = registry::select(&scenarios, &only, tag.as_deref())
        .unwrap_or_else(|e| fail(&format!("matrix: {e}")));

    if args.iter().any(|a| a == "--dry-run") {
        emit(&matrix::format_listing(&selected));
        return;
    }

    let out_path = parse_flag(args, "--out").unwrap_or_else(|| "BENCH_matrix.json".to_string());
    say!("# experiment: matrix  {} scenario(s)\n", selected.len());
    let start = std::time::Instant::now();
    let report = matrix::run_matrix(&selected, &mut |line| say!("{line}"));
    say!();
    emit(&report.format());
    say!("# total wall-clock: {:.1}s", start.elapsed().as_secs_f64());
    std::fs::write(&out_path, report.report().into_json())
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    say!("wrote {out_path}");
    if !report.passed() {
        std::process::exit(1);
    }
}

/// Generates a seeded benchmark graph and writes it as a text edge list
/// (and optionally a `.ugsnap` snapshot).  `--gen gnm` (the default) is
/// the uniform G(n, m) of the 50k benches; `--gen ba` is the power-law
/// Barabási–Albert generator of the million-edge baseline, which reaches
/// 1M+ edges from `--edges 1000000` (or `--vertices`/`--attach`).
fn run_gen(args: &[String]) {
    let generator = parse_flag(args, "--gen").unwrap_or_else(|| "gnm".to_string());
    let seed: u64 = parse_num_flag(args, "--seed").unwrap_or(42);
    let Some(out) = parse_flag(args, "--out") else {
        fail("gen requires --out PATH");
    };
    let graph = match generator.as_str() {
        "gnm" => {
            let edges: usize = parse_num_flag(args, "--edges").unwrap_or(50_000);
            let vertices: usize =
                parse_num_flag(args, "--vertices").unwrap_or_else(|| cli::derive_vertices(edges));
            source::generate_graph(vertices, edges, seed)
        }
        "ba" => {
            let attach: usize = parse_num_flag(args, "--attach").unwrap_or(5);
            if attach == 0 {
                fail("gen: --attach must be at least 1");
            }
            // --vertices wins; otherwise derive the vertex count that
            // reaches the requested edge count (clique on attach+1 seed
            // vertices plus `attach` edges per later vertex).
            let vertices: usize = match parse_num_flag(args, "--vertices") {
                Some(n) => n,
                None => {
                    let edges: usize = parse_num_flag(args, "--edges").unwrap_or(1_000_000);
                    let clique = attach * (attach + 1) / 2;
                    edges.saturating_sub(clique).div_ceil(attach) + attach + 1
                }
            };
            let config = million::MillionBenchConfig {
                vertices,
                attach,
                seed,
                ..million::MillionBenchConfig::default()
            };
            million::generate_million_graph(&config)
        }
        other => fail(&format!(
            "gen: unknown --gen '{other}' (expected gnm or ba)"
        )),
    };
    ugraph::io::write_edge_list_file(&graph, &out)
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    say!(
        "wrote {out}: {} vertices, {} edges ({generator}, seed {seed})",
        graph.num_vertices(),
        graph.num_edges()
    );
    if let Some(snap) = parse_flag(args, "--snapshot") {
        ugraph::io::write_snapshot_file(&graph, &snap)
            .unwrap_or_else(|e| fail(&format!("cannot write {snap}: {e}")));
        say!("wrote {snap} (ugsnap v{})", ugraph::io::SNAPSHOT_VERSION);
    }
}

/// Boots the resident query service — or, with `--oneshot`, runs the
/// scripted self-test (through the registry dispatch, like the matrix)
/// and writes the `bench-serve/v3` report (the CI `serve-smoke`
/// surface).
fn run_serve(args: &[String]) {
    if args.iter().any(|a| a == "--oneshot") {
        run_bench_arm(args);
        return;
    }

    // Resident mode: load once (through the snapshot cache, like the
    // generic experiments), bind, and serve until a client asks for
    // shutdown.
    let Job::Serve(config) = cli::parse_job(args).unwrap_or_else(|e| fail(&e)) else {
        unreachable!("serve flags parse to a serve job");
    };
    let graph = config
        .source
        .load(config.seed)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let port: u16 = parse_num_flag(args, "--port").unwrap_or(0);
    let core = nd_server::ServerCore::new(
        graph,
        nd_server::ServerConfig {
            cache_capacity: config.cache_capacity,
            parallelism: config.parallelism,
            ..nd_server::ServerConfig::default()
        },
    );
    let server = nd_server::Server::bind(format!("127.0.0.1:{port}"), core)
        .unwrap_or_else(|e| fail(&format!("cannot bind 127.0.0.1:{port}: {e}")));
    match server.local_addr() {
        Ok(addr) => say!("serving on {addr} (send a 'shutdown' call to stop)"),
        Err(e) => fail(&format!("cannot read the bound address: {e}")),
    }
    let stats = server.run();
    say!("server drained; final counters:");
    for (name, value) in stats.fields() {
        say!("  {name}: {value}");
    }
}

/// One scripted call against a running server: connect, send, print the
/// JSON result (or the typed error) and exit accordingly.
fn run_serve_client(args: &[String]) {
    let Some(addr) = parse_flag(args, "--addr") else {
        fail("serve-client requires --addr HOST:PORT");
    };
    let method = parse_flag(args, "--call").unwrap_or_else(|| "ping".to_string());
    let params = match parse_flag(args, "--params") {
        Some(text) => {
            Json::parse(&text).unwrap_or_else(|e| fail(&format!("invalid --params: {e}")))
        }
        None => Json::Null,
    };
    let deadline_ms = parse_num_flag::<u64>(args, "--deadline-ms");
    let mut client = nd_server::Client::connect(addr.as_str())
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    match client.call_with_deadline(&method, params, deadline_ms) {
        Ok(result) => say!("{}", result.to_json_string()),
        Err(e) => fail(&e.to_string()),
    }
}
