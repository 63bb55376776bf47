//! Drift-calibrated benchmark of the probabilistic nucleus library.
//!
//! ```text
//! perfbench --workload batch|serve|global --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one fixed, seeded, single-threaded workload through the
//! library's public entry points, verifies every op, and prints each
//! metric by name with its unit.  The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`.  Every time is calibrated against a
//! reference kernel (see `calib`); raw values are printed beside them.

mod batch;
mod calib;
mod gen;
mod global;
mod run;
mod serve;
mod stats;
mod trace;
mod verify;

use std::fmt::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use calib::{Calibrator, Timed, NOMINAL_REF_MS};
use run::{Ctx, Outcome, LAYER_METRICS};
use stats::{median, tail};
use trace::Tracer;
use verify::{parse_digests, Verifier, DEFAULT_SEED};

/// Directory, relative to the checkout, for the files a run writes.
const WORK_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Batch,
    Serve,
    Global,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "batch" => Some(Workload::Batch),
            "serve" => Some(Workload::Serve),
            "global" => Some(Workload::Global),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Serve => "serve",
            Workload::Global => "global",
        }
    }

    fn ops_per_second(self) -> f64 {
        match self {
            Workload::Batch => batch::OPS_PER_SECOND,
            Workload::Serve => serve::OPS_PER_SECOND,
            Workload::Global => global::OPS_PER_SECOND,
        }
    }

    /// Digests of this workload's ops at [`DEFAULT_SEED`].
    fn committed_digests(self) -> &'static str {
        match self {
            Workload::Batch => include_str!("../digests/batch.txt"),
            Workload::Serve => include_str!("../digests/serve.txt"),
            Workload::Global => include_str!("../digests/global.txt"),
        }
    }

    fn run(self, ctx: &mut Ctx) -> Outcome {
        match self {
            Workload::Batch => batch::run(ctx),
            Workload::Serve => serve::run(ctx),
            Workload::Global => global::run(ctx),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload batch|serve|global --seed N --seconds S \
                     --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let expected = if args.seed == DEFAULT_SEED {
        match parse_digests(args.workload.committed_digests()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perfbench: committed digests: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    // At least 11 ops, so `op_tail_ms` has a percentile with 10 beyond it.
    let ops = (args.seconds as f64 * args.workload.ops_per_second())
        .round()
        .max(11.0) as usize;
    let pinned = expected.len();
    let mut ctx = Ctx {
        seed: args.seed,
        ops,
        cal: Calibrator::default(),
        // At most 8 spans per op; set-up and derived probes add a few
        // hundred.
        tracer: Tracer::new(args.trace, 8 * ops + 4096),
        verifier: Verifier::new(expected),
        work_dir,
    };
    println!(
        "perfbench {} seed={} ops={} trace={} committed digests={pinned}",
        args.workload.name(),
        args.seed,
        ctx.ops,
        u8::from(args.trace),
    );
    let mut outcome = args.workload.run(&mut ctx);

    // This run's digests, in the format of the committed files: copying
    // the file into `perfbench/digests/` re-records them.
    let path = ctx.work_dir.join(format!(
        "digests-{}-seed{}.txt",
        args.workload.name(),
        args.seed
    ));
    let header = format!(
        "{} digests, seed {}, {} ops",
        args.workload.name(),
        args.seed,
        ctx.ops
    );
    if let Err(e) = std::fs::write(&path, ctx.verifier.recorded_text(&header)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        let ref_ms = median(ctx.cal.samples_ms());
        finish_trace(&mut ctx, &mut outcome, args.workload, ref_ms)
    } else {
        end_to_end(&outcome, &ctx.verifier, ctx.cal.samples_ms())
    };
    for why in ctx.verifier.first_failures() {
        println!("FAILED {why}");
    }
    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ctx.verifier.failed() == 0 && ctx.verifier.attempted() > 0,
        ctx.verifier.attempted(),
        ctx.verifier.failed(),
    );
    ExitCode::SUCCESS
}

/// VmHWM of this process, in bytes; 0 where `/proc` is unavailable.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

type Metric = (&'static str, &'static str, f64);

/// The end-to-end metrics, printed with their raw counterparts.
fn end_to_end(outcome: &Outcome, verifier: &Verifier, refs_ms: &[f64]) -> Vec<Metric> {
    let ref_ms = median(refs_ms);
    let cal = |t: &[Timed]| t.iter().map(|t| t.cal_ms).collect::<Vec<f64>>();
    let raw = |t: &[Timed]| t.iter().map(|t| t.raw_ms).collect::<Vec<f64>>();
    let (ops_cal, ops_raw) = (cal(&outcome.ops), raw(&outcome.ops));
    let (tail_p, tail_cal) = tail(&ops_cal);
    let (_, tail_raw) = tail(&ops_raw);
    let setup_cal = median(&cal(&outcome.setup)) / 1e3;
    let setup_raw = median(&raw(&outcome.setup)) / 1e3;
    let rate_cal = calib::ops_per_second(&ops_cal);
    let rate_raw = calib::ops_per_second(&ops_raw);
    let rss = peak_rss_bytes() as f64;
    println!(
        "host.ref_ms {ref_ms:.4} ms (median of {} reference runs; nominal {NOMINAL_REF_MS} ms)",
        refs_ms.len()
    );
    println!("{:<16} {:>14} {:>14}  unit", "metric", "calibrated", "raw");
    let rows = [
        ("setup_s", setup_cal, setup_raw, "s"),
        ("op_p50_ms", median(&ops_cal), median(&ops_raw), "ms"),
        ("op_tail_ms", tail_cal, tail_raw, "ms"),
        ("ops_per_s", rate_cal, rate_raw, "1/s"),
    ];
    for (name, c, r, unit) in rows {
        println!("{name:<16} {c:>14.4} {r:>14.4}  {unit}");
    }
    println!(
        "op_tail_ms is p{tail_p} of {} ops; setup_s is the median of {} set-ups",
        ops_cal.len(),
        outcome.setup.len()
    );
    println!("{:<16} {:>14.0} {:>14}  bytes", "peak_rss_bytes", rss, "-");
    println!(
        "{:<16} {:>14.4} {:>14}  ratio",
        "success_rate",
        verifier.success_rate(),
        "-"
    );
    println!(
        "raw {{\"setup_s\": {setup_raw:?}, \"op_p50_ms\": {:?}, \"op_tail_ms\": {tail_raw:?}, \
         \"ops_per_s\": {rate_raw:?}, \"host.ref_ms\": {ref_ms:?}}}",
        median(&ops_raw)
    );
    vec![
        ("setup_s", "s", setup_cal),
        ("op_p50_ms", "ms", median(&ops_cal)),
        ("op_tail_ms", "ms", tail_cal),
        ("ops_per_s", "1/s", rate_cal),
        ("peak_rss_bytes", "bytes", rss),
        ("success_rate", "ratio", verifier.success_rate()),
    ]
}

/// Checks the traced run's spans, writes them out, and returns every
/// per-layer metric.
fn finish_trace(
    ctx: &mut Ctx,
    outcome: &mut Outcome,
    workload: Workload,
    ref_ms: f64,
) -> Vec<Metric> {
    for op in ctx.tracer.uncovered_ops(0.05) {
        ctx.verifier.fail(
            op,
            "leaf spans overlap or miss the op's wall time by more than 5%".to_string(),
        );
    }
    let op_spans = ctx.tracer.spans().iter().filter(|s| s.op.is_some()).count();
    let op_wall_ns: f64 = outcome.ops.iter().map(|t| t.raw_ms * 1e6).sum();
    let overhead_pct = Tracer::span_cost_ns(100_000) * op_spans as f64 / op_wall_ns * 100.0;
    outcome.layer("host.ref_ms", ref_ms);
    outcome.layer("trace.overhead_pct", overhead_pct);

    let path = ctx
        .work_dir
        .join(format!("trace-{}-seed{}.jsonl", workload.name(), ctx.seed));
    match std::fs::write(&path, ctx.tracer.to_json_lines()) {
        Ok(()) => println!(
            "spans: {} written to {}",
            ctx.tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit) in LAYER_METRICS {
        let value = outcome.layers.get(name).copied();
        let shown = value.map_or("0 (not exercised by this workload)".to_string(), |v| {
            format!("{v:.4}")
        });
        println!("{name:<28} {shown} {unit}");
        metrics.push((name, unit, value.unwrap_or(0.0)));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 7, 12, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "batch", "--seed"]).is_err());
    }

    #[test]
    fn committed_digests_parse() {
        for w in [Workload::Batch, Workload::Serve, Workload::Global] {
            parse_digests(w.committed_digests()).expect("well-formed digest file");
        }
    }
}
