//! Diffing of two bench reports with a deterministic regression gate
//! (`experiments bench-compare`).
//!
//! Wall-clock times are far too noisy to gate a CI job on, but the
//! benchmark reports also carry **deterministic** counters — clique
//! counts, the peeling engine's `dp_calls`, the server's cache hits —
//! that are pure functions of the graph, the configuration and the
//! script.  Every report tags each of its numbers with a [`Gate`] on the
//! line that emits it ([`crate::report`]), and `bench-compare OLD.json
//! NEW.json` gates by those tags: it prints every tagged value side by
//! side and exits nonzero when a gated one regresses beyond
//! `--tolerance`.
//!
//! The tolerance is relative, with one slack for every gate that takes
//! it: `slack = tolerance · max(|old|, 1)`.  `Exact` fails when
//! `|new − old| > slack`, `LowerIsBetter` when `new > old + slack`,
//! `HigherIsBetter` when `new < old − slack`; `WithinFactor` ignores the
//! tolerance and `ReportOnly` never fails.
//!
//! Structural rules, each refused with a message rather than a verdict:
//!
//! * the two reports must carry the same schema string — a baseline of
//!   another generation has to be regenerated, not reconciled;
//! * a report without a `gates` object, or with a malformed tag, is an
//!   error;
//! * reports of different families (a parallel bench against a serve
//!   smoke) or of different ranks describe different artifacts.
//!
//! For two reports of the same kind, a path tagged by only one of them
//! fails unless its tag is `report-only`, and a path whose tag differs
//! between the two fails, so neither a refactor that stops emitting a
//! counter nor a hand-edited baseline can loosen a gate.  The matrix
//! report is no exception: a scenario or counter on one side only
//! fails.  A parbench report against a sweep report (the one report
//! with no `rank`) is the one cross-kind case: the two describe the same
//! graph, so only the paths both tag are gated and the rest are noted.

use crate::json::Json;
use crate::report::{self, fmt_num};
use crate::runner::format_table;
use Gate::ReportOnly;

/// Whether and how a tracked value participates in the gate.
///
/// Reports tag their numbers with these modes ([`crate::report`]), and
/// the tags round-trip through the `gates` object by [`Gate`]'s
/// `FromStr`/`Display` pair (`exact`, `lower-is-better`,
/// `higher-is-better`, `within-factor:N`, `report-only`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Deterministic; any change beyond tolerance fails.
    Exact,
    /// Deterministic; an increase beyond tolerance fails.
    LowerIsBetter,
    /// An observed ratio; a decrease beyond tolerance fails.
    HigherIsBetter,
    /// An environment probe (peak RSS): only gross growth fails — the
    /// gate trips when `new > old * factor`.  `--tolerance` does not
    /// apply, and a zero baseline (recorded on a platform without the
    /// probe) skips the gate instead of failing every nonzero reading.
    WithinFactor(u32),
    /// Reported for context only (wall clock and derived figures).
    ReportOnly,
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Gate::Exact => write!(f, "exact"),
            Gate::LowerIsBetter => write!(f, "lower-is-better"),
            Gate::HigherIsBetter => write!(f, "higher-is-better"),
            Gate::WithinFactor(factor) => write!(f, "within-factor:{factor}"),
            Gate::ReportOnly => write!(f, "report-only"),
        }
    }
}

impl std::str::FromStr for Gate {
    type Err = String;

    fn from_str(s: &str) -> Result<Gate, String> {
        match s {
            "exact" => Ok(Gate::Exact),
            "lower-is-better" => Ok(Gate::LowerIsBetter),
            "higher-is-better" => Ok(Gate::HigherIsBetter),
            "report-only" => Ok(Gate::ReportOnly),
            other => match other.strip_prefix("within-factor:") {
                Some(spec) => match spec.parse::<u32>() {
                    Ok(factor) if factor >= 1 => Ok(Gate::WithinFactor(factor)),
                    _ => Err(format!(
                        "invalid within-factor gate '{other}' (expected within-factor:N, N >= 1)"
                    )),
                },
                None => Err(format!(
                    "unknown gate '{other}' (expected exact, lower-is-better, \
                     higher-is-better, within-factor:N or report-only)"
                )),
            },
        }
    }
}

/// One tracked value of the comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Dotted path of the value inside the report.
    pub name: String,
    /// Value in the old report, when present.
    pub old: Option<f64>,
    /// Value in the new report, when present.
    pub new: Option<f64>,
    /// `Some(reason)` when this row fails the gate.
    pub regression: Option<String>,
    /// Human-readable verdict column.
    pub verdict: String,
}

/// Result of comparing two reports.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// The schema both reports share.
    pub schema: String,
    /// Every tracked value.
    pub rows: Vec<DiffRow>,
    /// Context notes (the counters one kind of report lacks).
    pub notes: Vec<String>,
}

impl CompareReport {
    /// The gated rows that failed.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.regression.is_some())
            .collect()
    }

    /// Renders the comparison as a table plus notes.
    pub fn format(&self) -> String {
        let mut rows = Vec::new();
        for row in &self.rows {
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), fmt_num);
            rows.push(vec![
                row.name.clone(),
                fmt(row.old),
                fmt(row.new),
                row.verdict.clone(),
            ]);
        }
        let mut out = format!(
            "bench-compare: {}\n{}",
            self.schema,
            format_table(&["counter", "old", "new", "verdict"], &rows)
        );
        for note in &self.notes {
            out.push_str(&format!("\nnote: {note}"));
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            out.push_str("\nresult: OK — no deterministic counter regressed");
        } else {
            out.push_str(&format!("\nresult: {} regression(s):", regressions.len()));
            for r in regressions {
                out.push_str(&format!(
                    "\n  - {}: {}",
                    r.name,
                    r.regression.as_deref().unwrap_or("")
                ));
            }
        }
        out
    }
}

/// The schema families this tool understands.  Reports of different
/// families (a parallel bench vs a serve smoke) share no gated counters
/// and describe different artifacts, so comparing across them is
/// refused rather than silently reporting "everything skipped, OK".
const FAMILIES: &[&str] = &[
    "bench-parallel",
    "bench-serve",
    "bench-updates",
    "bench-million",
    "bench-matrix",
];

fn schema_of(doc: &Json, which: &str) -> Result<(String, String), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which} report has no \"schema\" field"))?;
    let family = schema.split('/').next().unwrap_or(schema);
    if !FAMILIES.contains(&family) {
        return Err(format!(
            "{which} report has schema \"{schema}\", expected one of: {}",
            FAMILIES
                .iter()
                .map(|f| format!("{f}/*"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok((family.to_string(), schema.to_string()))
}

/// Compares two parsed reports.  `tolerance` is a relative fraction
/// (e.g. `0.05` allows 5% drift on gated counters).
pub fn compare(old: &Json, new: &Json, tolerance: f64) -> Result<CompareReport, String> {
    if !(0.0..=1.0).contains(&tolerance) {
        return Err(format!("tolerance must be within [0, 1], got {tolerance}"));
    }
    let (old_family, old_schema) = schema_of(old, "old")?;
    let (new_family, new_schema) = schema_of(new, "new")?;
    if old_family != new_family {
        return Err(format!(
            "schema family mismatch: old report is {old_schema}, new report is {new_schema}; \
             the two families share no gated counters, so any verdict would be meaningless"
        ));
    }
    if old_schema != new_schema {
        return Err(format!(
            "schema mismatch: old report is {old_schema}, new report is {new_schema}; \
             regenerate the baseline with this build"
        ));
    }

    // Only sweeps carry a rank; a parbench report is a nucleus run.
    let rank_of = |doc: &Json| doc.get("rank").and_then(Json::as_str).map(str::to_string);
    let (old_rank, new_rank) = (rank_of(old), rank_of(new));
    let old_r = old_rank.as_deref().unwrap_or("nucleus");
    let new_r = new_rank.as_deref().unwrap_or("nucleus");
    if old_r != new_r {
        return Err(format!(
            "rank mismatch: old report is a {old_r} sweep, new report is a {new_r} sweep; \
             their counters describe different algorithms and cannot be gated against \
             each other"
        ));
    }

    let mut rows = Vec::new();
    let mut notes = Vec::new();
    // Exactly one report carrying `rank` means a parbench report against
    // a sweep report of the same graph.
    let cross_kind = old_rank.is_none() != new_rank.is_none();
    compare_tagged(old, new, tolerance, cross_kind, &mut rows, &mut notes)?;
    Ok(CompareReport {
        schema: old_schema,
        rows,
        notes,
    })
}

/// Gates every path either report tags, by the tags they record.
fn compare_tagged(
    old: &Json,
    new: &Json,
    tolerance: f64,
    cross_kind: bool,
    rows: &mut Vec<DiffRow>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let old_gates = report::gates(old)
        .map_err(|e| format!("old report: {e}; regenerate the baseline with this build"))?;
    let new_gates = report::gates(new).map_err(|e| format!("new report: {e}"))?;
    let mut paths: Vec<&String> = old_gates.iter().map(|(path, _, _)| path).collect();
    for (path, _, _) in &new_gates {
        if !paths.contains(&path) {
            paths.push(path);
        }
    }
    for name in paths {
        let find = |gates: &[(String, Gate, f64)]| {
            gates
                .iter()
                .find(|(p, _, _)| p == name)
                .map(|&(_, g, v)| (g, v))
        };
        let (old_entry, new_entry) = (find(&old_gates), find(&new_gates));
        let (regression, verdict) = match (old_entry, new_entry) {
            (Some((old_gate, _)), Some((new_gate, _))) if old_gate != new_gate => (
                Some(format!(
                    "gate differs: old {old_gate}, new {new_gate}; regenerate the baseline \
                     with this build"
                )),
                "REGRESSED".to_string(),
            ),
            (Some((gate, old_v)), Some((_, new_v))) => judge(gate, old_v, new_v, tolerance),
            (Some((gate, _)), _) | (_, Some((gate, _))) if cross_kind || gate == ReportOnly => {
                if cross_kind {
                    notes.push(format!(
                        "{name}: tagged by only one of a parbench and a sweep report; not gated"
                    ));
                }
                (None, "skipped".to_string())
            }
            // The report shape changed: failing keeps the gate from being
            // silently neutered by a refactor that stops emitting a
            // counter, or by a matrix run that drops a scenario.
            _ => (
                Some(
                    "gated counter present in only one report; if this is intentional, bump \
                     the schema version of a driver's report, or regenerate the baseline of \
                     the matrix"
                        .to_string(),
                ),
                "REGRESSED".to_string(),
            ),
        };
        rows.push(DiffRow {
            name: name.clone(),
            old: old_entry.map(|(_, v)| v),
            new: new_entry.map(|(_, v)| v),
            regression,
            verdict,
        });
    }
    Ok(())
}

/// Applies the gate to one value pair.
fn judge(gate: Gate, old_v: f64, new_v: f64, tolerance: f64) -> (Option<String>, String) {
    let slack = tolerance * old_v.abs().max(1.0);
    match gate {
        Gate::ReportOnly => (None, "info".to_string()),
        Gate::Exact => {
            if (new_v - old_v).abs() > slack {
                (
                    Some(format!(
                        "must match the baseline (old {old_v}, new {new_v}, tolerance {tolerance})"
                    )),
                    "REGRESSED".to_string(),
                )
            } else {
                (None, "ok".to_string())
            }
        }
        Gate::LowerIsBetter => {
            if new_v > old_v + slack {
                (
                    Some(format!(
                        "increased beyond tolerance (old {old_v}, new {new_v})"
                    )),
                    "REGRESSED".to_string(),
                )
            } else if new_v < old_v {
                (None, "improved".to_string())
            } else {
                (None, "ok".to_string())
            }
        }
        Gate::HigherIsBetter => {
            if new_v < old_v - slack {
                (
                    Some(format!(
                        "decreased beyond tolerance (old {old_v}, new {new_v})"
                    )),
                    "REGRESSED".to_string(),
                )
            } else if new_v > old_v {
                (None, "improved".to_string())
            } else {
                (None, "ok".to_string())
            }
        }
        Gate::WithinFactor(factor) => {
            if old_v == 0.0 {
                // The baseline host lacked the probe (e.g. no
                // /proc/self/status): nothing meaningful to gate against.
                (None, "skipped".to_string())
            } else if new_v > old_v * factor as f64 {
                (
                    Some(format!(
                        "grew past {factor}x the baseline (old {old_v}, new {new_v})"
                    )),
                    "REGRESSED".to_string(),
                )
            } else {
                (None, "ok".to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::matrix::{MatrixReport, ScenarioOutcome};
    use crate::registry::spec::Workload;
    use crate::report::Report;
    use Gate::{Exact, HigherIsBetter, LowerIsBetter, ReportOnly, WithinFactor};

    /// A parbench-shaped report: no `rank`, a `peel` object.
    fn parbench(dp_calls: u64, triangles: u64, reload: Option<f64>) -> Json {
        let mut r = Report::new("bench-parallel/v7");
        if let Some(speedup) = reload {
            r.gate("source.ingest.reload_speedup", speedup, HigherIsBetter);
        }
        r.gate("counts.triangles", triangles, Exact);
        r.gate("counts.four_cliques", 165u64, Exact);
        r.gate("peel.dp_calls", dp_calls, LowerIsBetter);
        r.gate("peel.reference_dp_calls", 400u64, Exact);
        r.gate("peel.peel_s", 0.01, ReportOnly);
        Json::parse(&r.into_json()).unwrap()
    }

    /// A sweep-shaped report of `rank`: the truss rank's counts carry no
    /// four_cliques, so cross-rank key presence is exercised too.
    fn sweep(rank: &str, support_builds: u64, dp_total: u64, triangles: u64) -> Json {
        let mut r = Report::new("bench-parallel/v7");
        r.set("rank", Json::str(rank));
        r.gate("counts.triangles", triangles, Exact);
        if rank == "nucleus" {
            r.gate("counts.four_cliques", 165u64, Exact);
        }
        r.gate("sweep.support_builds", support_builds, Exact);
        r.gate("sweep.dp_calls_total", dp_total, LowerIsBetter);
        r.gate("sweep.independent_dp_calls_total", dp_total, Exact);
        r.gate("sweep.sweep_s", 0.5, ReportOnly);
        Json::parse(&r.into_json()).unwrap()
    }

    /// The names of the rows that regressed.
    fn fails(old: &Json, new: &Json, tolerance: f64) -> Vec<String> {
        let report = compare(old, new, tolerance).unwrap();
        report
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect()
    }

    fn refused(old: &Json, new: &Json) -> String {
        compare(old, new, 0.0).unwrap_err()
    }

    /// `doc` with every `from` in its serialization replaced by `to`.
    fn edited(doc: &Json, from: &str, to: &str) -> Json {
        Json::parse(&doc.to_json_string().replace(from, to)).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let doc = parbench(100, 20821, Some(6.0));
        let report = compare(&doc, &doc, 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        assert!(report.format().contains("result: OK"));
    }

    #[test]
    fn dp_call_increase_fails_and_decrease_improves() {
        let base = parbench(100, 20821, None);
        let report = compare(&base, &parbench(101, 20821, None), 0.0).unwrap();
        assert_eq!(report.regressions()[0].name, "peel.dp_calls");
        assert!(report.format().contains("REGRESSED"));
        let improved = compare(&base, &parbench(60, 20821, None), 0.0).unwrap();
        assert!(improved.regressions().is_empty());
        assert!(improved.format().contains("improved"));
    }

    #[test]
    fn tolerance_allows_bounded_drift() {
        // 5% tolerance: 104 dp_calls on a 100 baseline passes, 106 fails.
        let base = parbench(100, 20821, None);
        assert!(fails(&base, &parbench(104, 20821, None), 0.05).is_empty());
        assert_eq!(fails(&base, &parbench(106, 20821, None), 0.05).len(), 1);
        assert!(compare(&base, &base, 2.0).is_err());
    }

    #[test]
    fn tolerance_slack_is_relative_to_the_baseline_for_every_gate() {
        let fails = |gate, old, new| judge(gate, old, new, 0.05).0.is_some();
        // Exact drifts by tolerance · max(|old|, 1) in both directions.
        assert!(!fails(Exact, 100.0, 96.0) && !fails(Exact, 100.0, 104.0));
        assert!(fails(Exact, 100.0, 94.0) && fails(Exact, 100.0, 106.0));
        // Below |old| = 1 the slack stays at the tolerance itself.
        assert!(!fails(LowerIsBetter, 0.0, 0.04) && fails(LowerIsBetter, 0.0, 0.06));
        assert!(!fails(HigherIsBetter, 0.5, 0.46) && fails(HigherIsBetter, 0.5, 0.44));
        // WithinFactor ignores the tolerance.
        assert!(!fails(WithinFactor(2), 100.0, 200.0) && fails(WithinFactor(2), 100.0, 201.0));
    }

    #[test]
    fn count_drift_fails_in_both_directions() {
        let base = parbench(100, 20821, None);
        for new_triangles in [20820, 20822] {
            let new = parbench(100, new_triangles, None);
            assert_eq!(fails(&base, &new, 0.0), vec!["counts.triangles"]);
        }
    }

    #[test]
    fn reload_speedup_gates_only_downward() {
        let base = parbench(100, 20821, Some(6.0));
        let slower = fails(&base, &parbench(100, 20821, Some(4.0)), 0.1);
        assert_eq!(slower, vec!["source.ingest.reload_speedup"]);
        assert!(fails(&base, &parbench(100, 20821, Some(9.0)), 0.0).is_empty());
    }

    #[test]
    fn same_schema_missing_gated_counter_fails() {
        // A report that stops emitting (and so stops tagging) a gated
        // counter must not slip through as "skipped" — in either
        // direction — while a one-sided report-only path is fine.
        let full = parbench(100, 20821, None);
        let mut r = Report::new("bench-parallel/v7");
        r.gate("counts.triangles", 20821u64, Exact);
        r.gate("counts.four_cliques", 165u64, Exact);
        r.gate("peel.dp_calls", 100u64, LowerIsBetter);
        let trimmed = Json::parse(&r.into_json()).unwrap();
        for (old, new) in [(&full, &trimmed), (&trimmed, &full)] {
            let report = compare(old, new, 0.0).unwrap();
            assert_eq!(report.regressions()[0].name, "peel.reference_dp_calls");
            assert_eq!(report.regressions().len(), 1);
            assert!(report.format().contains("bump the schema version"));
            let peel_s = report.rows.iter().find(|r| r.name == "peel.peel_s");
            assert_eq!(peel_s.unwrap().verdict, "skipped");
        }
    }

    #[test]
    fn a_differing_tag_fails() {
        // A hand-edited baseline that loosens a gate does not loosen it.
        let base = parbench(100, 20821, None);
        let loosened = edited(&base, "\"lower-is-better\"", "\"report-only\"");
        let report = compare(&loosened, &parbench(150, 20821, None), 0.0).unwrap();
        assert_eq!(report.regressions()[0].name, "peel.dp_calls");
        assert!(
            report.format().contains("gate differs"),
            "{}",
            report.format()
        );
    }

    #[test]
    fn differing_schemas_and_untagged_baselines_are_refused() {
        let v7 = parbench(100, 20821, None);
        let v6 = edited(&v7, "bench-parallel/v7", "bench-parallel/v6");
        for err in [refused(&v6, &v7), refused(&v7, &v6)] {
            assert!(
                err.contains("schema mismatch") && err.contains("regenerate"),
                "{err}"
            );
        }
        // A v6 baseline as committed carries no gates object at all;
        // the same document relabelled v7 is refused for that.
        let untagged = r#"{ "schema": "bench-parallel/v6", "peel": { "dp_calls": 100 } }"#;
        let untagged = Json::parse(untagged).unwrap();
        assert!(refused(&untagged, &v7).contains("regenerate"));
        let err = refused(&edited(&untagged, "/v6", "/v7"), &v7);
        assert!(
            err.contains("no \"gates\" object") && err.contains("regenerate"),
            "{err}"
        );
    }

    #[test]
    fn malformed_tags_are_errors_not_panics() {
        let good = parbench(100, 20821, None);
        let bad = edited(&good, "\"lower-is-better\"", "\"lower\"");
        assert!(refused(&bad, &good).contains("unknown gate 'lower'"));
        assert!(refused(&good, &bad).contains("new report"));
    }

    #[test]
    fn v4_support_builds_gate_is_exact() {
        // A second support build is the exact regression the sweep
        // exists to prevent.
        let base = sweep("nucleus", 1, 400, 20821);
        assert!(fails(&base, &base, 0.0).is_empty());
        let rebuilt = sweep("nucleus", 2, 400, 20821);
        assert_eq!(fails(&base, &rebuilt, 0.0), vec!["sweep.support_builds"]);
    }

    #[test]
    fn v4_sweep_dp_total_gates_only_upward() {
        // dp_calls_total may only fall; its independent twin is exact.
        let base = sweep("nucleus", 1, 400, 20821);
        assert_eq!(
            fails(&base, &sweep("nucleus", 1, 401, 20821), 0.0),
            vec!["sweep.dp_calls_total", "sweep.independent_dp_calls_total"]
        );
        let fewer = sweep("nucleus", 1, 300, 20821);
        assert_eq!(
            fails(&base, &fewer, 0.0),
            vec!["sweep.independent_dp_calls_total"]
        );
    }

    #[test]
    fn same_schema_parbench_vs_sweep_gates_only_shared_counts() {
        let parbench = parbench(100, 20821, None);
        let report = compare(&parbench, &sweep("nucleus", 1, 400, 20821), 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        let verdict = |name| &report.rows.iter().find(|r| r.name == name).unwrap().verdict;
        assert_eq!(verdict("counts.triangles"), "ok");
        assert_eq!(verdict("counts.four_cliques"), "ok");
        for one_sided in ["peel.dp_calls", "sweep.support_builds"] {
            assert_eq!(verdict(one_sided), "skipped");
            assert!(report.notes.iter().any(|n| n.starts_with(one_sided)));
        }
        // The shared counts still gate, in both directions of the pair.
        let drifted = sweep("nucleus", 1, 400, 99);
        assert_eq!(fails(&parbench, &drifted, 0.0), vec!["counts.triangles"]);
        assert_eq!(fails(&drifted, &parbench, 0.0), vec!["counts.triangles"]);
    }

    #[test]
    fn v5_gates_apply_per_rank() {
        let base = sweep("truss", 1, 300, 9000);
        assert!(fails(&base, &base, 0.0).is_empty());
        let rebuilt = sweep("truss", 2, 300, 9000);
        assert_eq!(fails(&base, &rebuilt, 0.0), vec!["sweep.support_builds"]);
        let more_dp = fails(&sweep("core", 1, 300, 0), &sweep("core", 1, 301, 0), 0.0);
        assert_eq!(more_dp[0], "sweep.dp_calls_total");
    }

    #[test]
    fn mismatched_ranks_are_refused() {
        // A truss baseline against a core report (or a parbench report,
        // a nucleus run, against a truss sweep) compares different
        // algorithms: refuse instead of emitting a meaningless verdict.
        let truss = sweep("truss", 1, 300, 9000);
        assert!(refused(&truss, &sweep("core", 1, 300, 9000)).contains("rank mismatch"));
        assert!(refused(&parbench(100, 9000, None), &truss).contains("rank mismatch"));
    }

    #[test]
    fn rejects_non_bench_schemas() {
        let bogus = Json::parse(r#"{ "schema": "something-else/v1" }"#).unwrap();
        let doc = parbench(100, 1, None);
        assert!(compare(&bogus, &doc, 0.0).is_err());
        let missing = Json::parse(r#"{ "counts": {} }"#).unwrap();
        assert!(compare(&doc, &missing, 0.0).is_err());
    }

    fn serve(hits: u64, builds: u64, protocol_errors: u64, repaired: u64) -> Json {
        let mut r = Report::new("bench-serve/v3");
        for (name, value) in [
            ("requests", 28),
            ("protocol_errors", protocol_errors),
            ("cache_hits", hits),
            ("support_builds", builds),
            ("supports_repaired", repaired),
            ("cache_invalidations", 2),
        ] {
            r.gate(&format!("stats.{name}"), value, Exact);
        }
        Json::parse(&r.into_json()).unwrap()
    }

    #[test]
    fn serve_reports_gate_every_counter_exactly() {
        let base = serve(9, 1, 0, 1);
        assert!(fails(&base, &base, 0.0).is_empty());
        // A second support build, a lost cache hit, any protocol error,
        // or a rebuild instead of a repair each trips its own exact gate.
        for (drifted, expect) in [
            (serve(9, 2, 0, 1), "stats.support_builds"),
            (serve(8, 1, 0, 1), "stats.cache_hits"),
            (serve(9, 1, 1, 1), "stats.protocol_errors"),
            (serve(9, 1, 0, 0), "stats.supports_repaired"),
        ] {
            assert_eq!(fails(&base, &drifted, 0.0), vec![expect]);
        }
    }

    fn updates(repair: u64, rebuild: u64, region: u64) -> Json {
        let mut r = Report::new("bench-updates/v2");
        r.set("rank", Json::str("truss"));
        r.gate("batch.inserts", 64u64, Exact);
        r.gate("repair.region_elements", region, Exact);
        r.gate("repair.repair_dp_calls", repair, LowerIsBetter);
        r.gate("repair.rebuild_dp_calls", rebuild, Exact);
        let excess = repair.saturating_sub(rebuild);
        r.gate("repair.dp_calls_excess", excess, Exact);
        Json::parse(&r.into_json()).unwrap()
    }

    #[test]
    fn updates_reports_gate_repair_never_exceeding_rebuild() {
        let base = updates(5_000, 60_000, 1_200);
        assert!(fails(&base, &base, 0.0).is_empty());
        // More repair work (still under rebuild) fails LowerIsBetter…
        let slower = fails(&base, &updates(6_000, 60_000, 1_200), 0.0);
        assert_eq!(slower, vec!["repair.repair_dp_calls"]);
        // …and a repair that exceeds the rebuild breaks the Exact
        // dp_calls_excess gate on top (baseline excess is 0).
        assert_eq!(
            fails(&base, &updates(61_000, 60_000, 1_200), 0.0),
            vec!["repair.repair_dp_calls", "repair.dp_calls_excess"]
        );
        // A grown damage region or rebuild cost is an algorithm change,
        // not noise.
        let wider = fails(&base, &updates(5_000, 60_000, 1_300), 0.0);
        assert_eq!(wider, vec!["repair.region_elements"]);
        let costlier = fails(&base, &updates(5_000, 60_001, 1_200), 0.0);
        assert_eq!(costlier, vec!["repair.rebuild_dp_calls"]);
    }

    #[test]
    fn updates_reports_refuse_cross_rank_and_cross_family() {
        let base = updates(5_000, 60_000, 1_200);
        let core = edited(&base, "\"truss\"", "\"core\"");
        assert!(refused(&base, &core).contains("rank mismatch"));
        assert!(refused(&base, &serve(9, 1, 0, 1)).contains("schema family mismatch"));
    }

    #[test]
    fn cross_family_compares_are_refused() {
        let serve = serve(9, 1, 0, 1);
        let err = refused(&parbench(100, 20821, None), &serve);
        assert!(err.contains("schema family mismatch"), "{err}");
        let err = refused(&serve, &sweep("nucleus", 1, 400, 20821));
        assert!(err.contains("schema family mismatch"), "{err}");
    }

    fn million(edges: u64, snapshot_bytes: u64, rss: u64) -> Json {
        let mut r = Report::new("bench-million/v2");
        r.set("rank", Json::str("truss"));
        r.gate("edges", edges, Exact);
        r.gate("million.snapshot_bytes", snapshot_bytes, Exact);
        r.gate("million.mmap_speedup", 40.0, ReportOnly);
        r.gate("million.peak_rss_bytes", rss, WithinFactor(2));
        Json::parse(&r.into_json()).unwrap()
    }

    #[test]
    fn million_reports_gate_shape_exactly_and_walls_not_at_all() {
        let base = million(1_000_025, 48_001_296, 3_000_000_000);
        assert!(fails(&base, &base, 0.0).is_empty());
        // A drifted edge count or snapshot size is an algorithm/format
        // change; a wildly different mmap_speedup is just another host.
        let drifted = million(1_000_026, 48_001_296, 3_000_000_000);
        assert_eq!(fails(&base, &drifted, 0.0), vec!["edges"]);
        let bigger = million(1_000_025, 48_999_999, 3_000_000_000);
        assert_eq!(fails(&base, &bigger, 0.0), vec!["million.snapshot_bytes"]);
        let slower = edited(&base, "\"mmap_speedup\":40", "\"mmap_speedup\":2");
        assert!(fails(&base, &slower, 0.0).is_empty());
    }

    #[test]
    fn rss_gate_fails_only_past_the_factor_and_skips_zero_baselines() {
        let base = million(1_000_025, 48_001_296, 3_000_000_000);
        // 1.9x growth passes, 2.1x fails, shrinking is fine.
        let rss = |bytes| million(1_000_025, 48_001_296, bytes);
        assert!(fails(&base, &rss(5_700_000_000), 0.0).is_empty());
        let report = compare(&base, &rss(6_300_000_000), 0.0).unwrap();
        assert_eq!(report.regressions()[0].name, "million.peak_rss_bytes");
        assert!(report.format().contains("grew past 2x"));
        assert!(fails(&base, &rss(1_000_000), 0.0).is_empty());
        // A baseline recorded without the probe (0) gates nothing.
        let report = compare(&rss(0), &base, 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        let rss_row = report
            .rows
            .iter()
            .find(|r| r.name == "million.peak_rss_bytes");
        assert_eq!(rss_row.unwrap().verdict, "skipped");
    }

    #[test]
    fn million_vs_parallel_compares_are_refused() {
        let err = refused(
            &million(1_000_025, 48_001_296, 0),
            &parbench(100, 20821, None),
        );
        assert!(err.contains("schema family mismatch"), "{err}");
    }

    #[test]
    fn gate_spellings_round_trip_and_reject_garbage() {
        for gate in [
            Gate::Exact,
            Gate::LowerIsBetter,
            Gate::HigherIsBetter,
            Gate::WithinFactor(2),
            Gate::ReportOnly,
        ] {
            assert_eq!(gate.to_string().parse::<Gate>().unwrap(), gate);
        }
        assert!("exactly".parse::<Gate>().is_err());
        assert!("within-factor:0".parse::<Gate>().is_err());
        assert!("within-factor:x".parse::<Gate>().is_err());
    }

    /// A matrix scenario: its name, whether it passed, its counters.
    type Scenario<'a> = (&'a str, bool, &'a [(&'a str, f64)]);

    /// A `bench-matrix/v2` report of `scenarios`.
    fn matrix(scenarios: &[Scenario]) -> Json {
        let outcomes = scenarios
            .iter()
            .map(|&(name, passed, counters)| ScenarioOutcome {
                name: name.to_string(),
                workload: Workload::Parbench,
                passed,
                failures: Vec::new(),
                counters: counters.iter().map(|&(p, v)| (p.to_string(), v)).collect(),
            });
        let report = MatrixReport {
            outcomes: outcomes.collect(),
        };
        Json::parse(&report.report().into_json()).unwrap()
    }

    const SMOKE: &[(&str, f64)] = &[("counts.triangles", 20821.0), ("peel.dp_calls", 400.0)];

    #[test]
    fn matrix_reports_gate_every_scenario_counter_exactly() {
        let base = matrix(&[("parbench-smoke", true, SMOKE)]);
        assert!(fails(&base, &base, 0.0).is_empty());
        // A drifted counter and a newly failing scenario each trip gates.
        let drifted = [("counts.triangles", 20822.0), ("peel.dp_calls", 400.0)];
        assert_eq!(
            fails(&base, &matrix(&[("parbench-smoke", true, &drifted)]), 0.0),
            vec!["scenarios.parbench-smoke.counters.counts.triangles"]
        );
        assert_eq!(
            fails(&base, &matrix(&[("parbench-smoke", false, SMOKE)]), 0.0),
            vec!["passed", "failed", "scenarios.parbench-smoke.passed"]
        );
    }

    #[test]
    fn matrix_dropped_or_new_scenarios_regress() {
        let one = matrix(&[("parbench-smoke", true, SMOKE)]);
        let extra = &[("counts.triangles", 7.0)][..];
        let two = matrix(&[("parbench-smoke", true, SMOKE), ("z-extra", true, extra)]);
        // Totals change, and the scenario on one side only fails on its
        // own, whichever side that is: a new scenario is gated once the
        // baseline is regenerated with it.
        let expect = vec![
            "total",
            "passed",
            "scenarios.z-extra.passed",
            "scenarios.z-extra.counters.counts.triangles",
        ];
        assert_eq!(fails(&two, &one, 0.0), expect);
        assert_eq!(fails(&one, &two, 0.0), expect);
    }

    #[test]
    fn matrix_vanished_counter_regresses() {
        let base = matrix(&[("parbench-smoke", true, SMOKE)]);
        let trimmed = matrix(&[("parbench-smoke", true, &SMOKE[..1])]);
        let report = compare(&base, &trimmed, 0.0).unwrap();
        let failing: Vec<_> = report
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(
            failing,
            vec!["scenarios.parbench-smoke.counters.peel.dp_calls"]
        );
        assert!(report.format().contains("regenerate the baseline"));
    }

    #[test]
    fn matrix_vs_other_families_is_refused() {
        let matrix = matrix(&[("parbench-smoke", true, SMOKE)]);
        let err = compare(&matrix, &parbench(100, 20821, None), 0.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
    }
}
