//! Every `experiments` subcommand that takes `--input` must report a
//! missing or unreadable file the same way: one `cannot load <path>: …`
//! line on stderr and a non-zero exit — no panics, no backtraces, no
//! subcommand-specific wording.  One malformed invocation per
//! subcommand, driven through the real binary.  A bad selector value
//! (`matrix --only`, `--scale`), an unknown flag, a repeated flag and a
//! stray argument are refused the same clean way, naming the value, the
//! flag or the argument.  A reader that closes stdout early stops the
//! printing, not the run.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const MISSING: &str = "/nonexistent/cli_errors_test_graph.txt";

/// Runs the experiments binary with `args`, asserting exit code 1 and
/// the unified error line (and that no panic leaked to stderr).
fn assert_unified_input_error(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{args:?} must exit 1, got {:?}\nstderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains(&format!("cannot load {MISSING}:")),
        "{args:?} must report the unified message, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must fail cleanly, not panic: {stderr}"
    );
}

#[test]
fn generic_experiment_reports_missing_input_uniformly() {
    assert_unified_input_error(&["table1", "--scale", "tiny", "--input", MISSING]);
}

#[test]
fn parbench_reports_missing_input_uniformly() {
    assert_unified_input_error(&["parbench", "--repeats", "1", "--input", MISSING]);
}

#[test]
fn thetasweep_reports_missing_input_uniformly() {
    assert_unified_input_error(&["thetasweep", "--repeats", "1", "--input", MISSING]);
}

#[test]
fn serve_oneshot_reports_missing_input_uniformly() {
    let out = std::env::temp_dir().join("cli_errors_serve_out.json");
    assert_unified_input_error(&[
        "serve",
        "--oneshot",
        "--input",
        MISSING,
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(!out.exists(), "a failed run must not write a report");
}

#[test]
fn serve_resident_reports_missing_input_uniformly() {
    assert_unified_input_error(&["serve", "--input", MISSING]);
}

#[test]
fn matrix_reports_unknown_scenario_selection() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["matrix", "--only", "no-such-scenario", "--dry-run"])
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "unknown --only must exit 1, got {:?}\nstderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains("matrix: unknown scenario 'no-such-scenario'"),
        "must name the unknown scenario, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must fail cleanly, not panic: {stderr}"
    );
}

#[test]
fn unknown_scale_is_refused_not_replaced() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--scale", "huge"])
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "an unknown --scale must exit 1, got {:?}\nstderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains("invalid --scale value 'huge' (expected tiny, small or medium)"),
        "must name the bad value, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must fail cleanly, not panic: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "nothing may run on a refused scale, got: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn serve_oneshot_refuses_an_unsorted_theta_grid() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["serve", "--oneshot", "--thetas", "0.3,0.1"])
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "an unsorted --thetas grid must exit 1, got {:?}\nstderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains(
            "serve: invalid theta grid: theta grid entry 1 is smaller than its predecessor"
        ),
        "must name the grid problem, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must fail cleanly, not panic: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "nothing may run on a refused grid, got: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

/// Runs the experiments binary with `args`, asserting that it exits 1
/// before any work, with `message` on stderr and nothing on stdout.
fn assert_refused_before_any_work(args: &[&str], message: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{args:?} must exit 1, got {:?}\nstderr: {stderr}",
        output.status.code()
    );
    assert!(stderr.contains(message), "{args:?}: got {stderr}");
    assert!(
        output.stdout.is_empty(),
        "{args:?} must not run, got: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn a_repeated_flag_is_refused_not_resolved() {
    assert_refused_before_any_work(
        &[
            "thetasweep",
            "--edges",
            "400",
            "--edges",
            "800",
            "--repeats",
            "1",
        ],
        "thetasweep: --edges given more than once",
    );
}

#[test]
fn an_unknown_flag_is_refused_not_ignored() {
    assert_refused_before_any_work(
        &[
            "parbench",
            "--edges",
            "400",
            "--edgse",
            "800",
            "--repeats",
            "1",
            "--threads",
            "1",
        ],
        "parbench: unknown flag --edgse",
    );
}

#[test]
fn a_stray_argument_is_refused_not_ignored() {
    assert_refused_before_any_work(
        &["table1", "fig4", "--scale", "tiny"],
        "table1: unexpected argument fig4",
    );
}

#[test]
fn a_closed_stdout_stops_the_printing_not_the_run() {
    let out = std::env::temp_dir().join(format!("cli_errors_pipe_{}.json", std::process::id()));
    std::fs::remove_file(&out).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["thetasweep", "--edges", "20000", "--repeats", "1", "--out"])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments binary runs");
    // Read the header line, then close the pipe while the run goes on.
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut first).expect("a first line");
    assert!(first.starts_with("# experiment: thetasweep"), "{first}");
    drop(stdout);
    let output = child.wait_with_output().expect("the run finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.exists(), "the --out file is still written");
    std::fs::remove_file(&out).ok();
}
