//! Diffing of two `bench-parallel/*` reports with a deterministic
//! regression gate (`experiments bench-compare`).
//!
//! Wall-clock times are far too noisy to gate a CI job on, but the
//! benchmark reports also carry **deterministic** counters — triangle and
//! 4-clique counts, the peeling engine's `dp_calls`, the snapshot-cache
//! `reload_speedup` — that are pure functions of the graph and the
//! algorithm.  `bench-compare OLD.json NEW.json` prints every tracked
//! value side by side and exits nonzero when a *gated* counter regresses
//! beyond `--tolerance` (a relative fraction, default 0):
//!
//! * `counts.triangles`, `counts.four_cliques` — must match within the
//!   tolerance, in *both* directions (drift either way means the
//!   algorithm changed behaviour; run at `--tolerance 0` — the default —
//!   to demand exact equality);
//! * `peel.dp_calls` — must not increase (the deferred engine's work);
//! * `source.ingest.reload_speedup` — must not decrease.
//!
//! Schema bumps are handled gracefully: comparing a `bench-parallel/v2`
//! baseline against a v3 report simply skips the counters the old file
//! does not carry, with a note.  Wall times are always printed, never
//! gated.
//!
//! Sweep reports carry a `rank` field since `bench-parallel/v5` (core,
//! truss or nucleus).  Reports that predate it are treated as nucleus
//! sweeps, with a note; comparing reports of *different* ranks is
//! refused outright — their counters describe different algorithms, so
//! any verdict would be meaningless.
//!
//! `bench-serve/*` reports (`experiments serve --oneshot`) gate the
//! query service's deterministic [`nd_server::StatsSnapshot`] counters —
//! all Exact, since the scripted session is fixed.  Comparing across
//! schema *families* (a parallel bench against a serve smoke) is
//! refused for the same reason as cross-rank compares.
//!
//! `bench-updates/*` reports (`experiments updates`) gate the
//! incremental-maintenance counters: batch composition and repair sizes
//! are Exact, `repair.repair_dp_calls` must not increase, and
//! `repair.dp_calls_excess` — score evaluations the repair spent *beyond*
//! what a full rebuild would have — is Exact with a committed baseline of
//! 0, so CI enforces repair ≤ rebuild at tolerance 0.
//!
//! `bench-million/*` reports (`experiments million`) gate the seeded
//! graph shape, triangle count and snapshot size exactly; the mmap and
//! thread-scaling wall figures are reported only, and the process-wide
//! `peak_rss_bytes` probe uses the bounded-factor gate (fails only past
//! 2x the baseline, and is skipped when the baseline host lacked the
//! probe entirely).
//!
//! Committed baselines are expected to share one schema *generation*
//! (all regenerated together when a schema bumps), otherwise one-sided
//! counters silently drop out of the gate.  [`CompareReport::generation_skew`]
//! detects the condition, and `experiments bench-compare
//! --deny-generation-skew` (used by CI) turns it into a hard failure.

use crate::json::Json;
use crate::runner::format_table;

/// Whether and how a tracked value participates in the gate.
///
/// Public because scenario specs ([`crate::registry`]) declare their
/// expected-counter gates in exactly these modes; the spec format's
/// `[gates]` section round-trips through [`Gate`]'s `FromStr`/`Display`
/// pair (`exact`, `lower-is-better`, `higher-is-better`,
/// `within-factor:N`, `report-only`).
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
    /// Schemas of the two files.
    pub old_schema: String,
    /// Schema of the new file.
    pub new_schema: String,
    /// Every tracked value.
    pub rows: Vec<DiffRow>,
    /// Context notes (schema bumps, skipped counters).
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

    /// `Some(description)` when the two reports belong to different
    /// schema generations.  Cross-generation compares degrade gracefully
    /// (one-sided counters are skipped with a note), which is right for
    /// a one-off local diff but wrong for committed baselines — those
    /// should all be regenerated at one generation so every gate is
    /// live.  `experiments bench-compare --deny-generation-skew` turns
    /// this condition into a hard failure.
    pub fn generation_skew(&self) -> Option<String> {
        if self.old_schema == self.new_schema {
            return None;
        }
        let describe = |s: &str| match generation_of(s) {
            Some(g) => format!("{s} (generation {g})"),
            None => s.to_string(),
        };
        Some(format!(
            "{} vs {}",
            describe(&self.old_schema),
            describe(&self.new_schema)
        ))
    }

    /// Renders the comparison as a table plus notes.
    pub fn format(&self) -> String {
        let mut rows = Vec::new();
        for row in &self.rows {
            let fmt = |v: Option<f64>| match v {
                // Counters are integers; ratios and seconds keep decimals.
                Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{}", x as i64),
                Some(x) => format!("{x:.4}"),
                None => "-".to_string(),
            };
            rows.push(vec![
                row.name.clone(),
                fmt(row.old),
                fmt(row.new),
                row.verdict.clone(),
            ]);
        }
        let mut out = format!(
            "bench-compare: {} (old) vs {} (new)\n{}",
            self.old_schema,
            self.new_schema,
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

/// The tracked values: dotted path, gate mode.
const TRACKED: &[(&[&str], Gate)] = &[
    (&["counts", "triangles"], Gate::Exact),
    (&["counts", "four_cliques"], Gate::Exact),
    (&["peel", "dp_calls"], Gate::LowerIsBetter),
    (&["peel", "reference_dp_calls"], Gate::ReportOnly),
    (&["peel", "recompute_skips"], Gate::ReportOnly),
    (&["peel", "buckets_touched"], Gate::ReportOnly),
    // Deterministic scratch accounting of the peeling engine: growth is
    // a real algorithmic change, so it gates (bench-parallel/v6 onward;
    // earlier baselines carry the counter and gate identically).
    (&["peel", "peak_scratch_bytes"], Gate::LowerIsBetter),
    // The kernel's VmHWM probe: noisy across allocators and hosts, so
    // only gross growth (2x) fails.
    (&["peel", "peak_rss_bytes"], Gate::WithinFactor(2)),
    (
        &["source", "ingest", "reload_speedup"],
        Gate::HigherIsBetter,
    ),
    // Wall-derived mmap figures: printed for context, gated by CI on a
    // fresh run rather than against baselines from other hardware.
    (&["source", "ingest", "mmap_speedup"], Gate::ReportOnly),
    (&["baseline", "total_s"], Gate::ReportOnly),
    (&["peel", "peel_s"], Gate::ReportOnly),
    (&["peel", "reference_peel_s"], Gate::ReportOnly),
    // θ-sweep counters (bench-parallel/v4, `experiments thetasweep`).
    // `support_builds` is the tentpole invariant: the sweep must build
    // the support structure exactly once, so any drift from the baseline
    // (whose value is 1) fails the gate.
    (&["sweep", "support_builds"], Gate::Exact),
    (&["sweep", "grid_size"], Gate::Exact),
    (&["sweep", "dp_calls_total"], Gate::LowerIsBetter),
    (&["sweep", "independent_dp_calls_total"], Gate::ReportOnly),
    (&["sweep", "sweep_s"], Gate::ReportOnly),
    (&["sweep", "independent_s"], Gate::ReportOnly),
    (&["sweep", "amortization"], Gate::ReportOnly),
    // Query-service counters (bench-serve/v1, `experiments serve
    // --oneshot`).  The scripted session is fixed, so every counter is a
    // deterministic function of the script: all Exact.  The load-bearing
    // three: `support_builds` must stay 1 however many sessions open,
    // repeated-θ queries must keep landing as `cache_hits`, and
    // `protocol_errors` must stay 0 (the script sends no malformed
    // frames).
    (&["stats", "requests"], Gate::Exact),
    (&["stats", "batches"], Gate::Exact),
    (&["stats", "protocol_errors"], Gate::Exact),
    (&["stats", "request_errors"], Gate::Exact),
    (&["stats", "cache_hits"], Gate::Exact),
    (&["stats", "cache_misses"], Gate::Exact),
    (&["stats", "cache_evictions"], Gate::Exact),
    (&["stats", "support_builds"], Gate::Exact),
    (&["stats", "sessions_opened"], Gate::Exact),
    (&["stats", "sessions_closed"], Gate::Exact),
    (&["stats", "deadlines_exceeded"], Gate::Exact),
    // Incremental-update counters, shared by bench-serve/v2 (the
    // scripted session applies one batch) and bench-updates/v1 reports.
    (&["stats", "updates_applied"], Gate::Exact),
    (&["stats", "supports_repaired"], Gate::Exact),
    (&["stats", "cache_invalidations"], Gate::Exact),
    // Repair-vs-rebuild counters (bench-updates/v1, `experiments
    // updates`).  The batch and the damage region are pure functions of
    // the seeded graph and batch: Exact.  `repair_dp_calls` is the work
    // the repair actually spent; `dp_calls_excess` is how far it exceeded
    // a full rebuild (0 in every committed baseline), so gating it Exact
    // at tolerance 0 *is* the "repair never does more work than rebuild"
    // guarantee.
    (&["batch", "inserts"], Gate::Exact),
    (&["batch", "deletes"], Gate::Exact),
    (&["batch", "reweights"], Gate::Exact),
    (&["repair", "affected_elements"], Gate::Exact),
    (&["repair", "region_elements"], Gate::Exact),
    (&["repair", "repair_dp_calls"], Gate::LowerIsBetter),
    (&["repair", "rebuild_dp_calls"], Gate::ReportOnly),
    (&["repair", "dp_calls_excess"], Gate::Exact),
    // Million-edge memory-scaling baseline (bench-million/v1,
    // `experiments million`).  The generator is seeded, so the graph
    // shape, triangle count (gated through the shared `counts` paths)
    // and snapshot size are Exact; the reload/mmap wall numbers are
    // reported only — CI gates those on a fresh run, never against a
    // baseline measured on other hardware — and the RSS probe gets the
    // bounded-factor gate.
    (&["million", "vertices"], Gate::Exact),
    (&["million", "edges"], Gate::Exact),
    (&["million", "snapshot_bytes"], Gate::Exact),
    (&["million", "streaming_chunk_edges"], Gate::Exact),
    (&["million", "snapshot_write_s"], Gate::ReportOnly),
    (&["million", "owned_reload_s"], Gate::ReportOnly),
    (&["million", "mmap_open_s"], Gate::ReportOnly),
    (&["million", "mmap_speedup"], Gate::ReportOnly),
    (&["million", "triangles_1t_s"], Gate::ReportOnly),
    (&["million", "triangles_nt_s"], Gate::ReportOnly),
    (&["million", "triangle_speedup"], Gate::ReportOnly),
    (&["million", "peak_rss_bytes"], Gate::WithinFactor(2)),
];

/// The explicit `rank` field of a report, when present (v5+).
fn rank_of(doc: &Json) -> Option<String> {
    doc.get("rank").and_then(Json::as_str).map(str::to_string)
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

/// The numeric generation of a `family/vN` schema string — `6` for
/// `bench-parallel/v6`, `None` when the suffix is not of that shape.
pub fn generation_of(schema: &str) -> Option<u64> {
    schema.rsplit('/').next()?.strip_prefix('v')?.parse().ok()
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

    // Pre-v5 reports carry no rank field; they all described the
    // nucleus-rank decomposition, so that is the implied default.
    let old_rank = rank_of(old);
    let new_rank = rank_of(new);
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
    if old_schema != new_schema {
        notes.push(format!(
            "schema bump {old_schema} -> {new_schema}: counters absent from either side are \
             reported as '-' and not gated"
        ));
    }
    // At one schema generation, exactly one report carrying `rank` means
    // a parbench report against a sweep report: the two share `counts`,
    // and each side's own gated counters are expected to be one-sided.
    let cross_kind = old_rank.is_none() != new_rank.is_none();
    if cross_kind {
        let which = if old_rank.is_none() { "old" } else { "new" };
        notes.push(if old_schema == new_schema {
            format!(
                "{which} report carries no \"rank\" field (a parbench report against a sweep \
                 report); treated as a nucleus run, and counters only one kind emits are not \
                 gated"
            )
        } else {
            format!(
                "{which} report predates the \"rank\" field (bench-parallel/v5); treated as a \
                 nucleus sweep"
            )
        });
    }

    // Matrix reports carry dynamic per-scenario counters instead of the
    // fixed TRACKED table: every counter the baseline recorded is gated
    // Exact against the new run.
    if old_family == "bench-matrix" {
        compare_matrix(old, new, tolerance, &mut rows, &mut notes);
        return Ok(CompareReport {
            old_schema,
            new_schema,
            rows,
            notes,
        });
    }

    for (path, gate) in TRACKED {
        let name = path.join(".");
        let old_v = old.path(path).and_then(Json::as_f64);
        let new_v = new.path(path).and_then(Json::as_f64);
        let (mut regression, mut verdict) = judge(*gate, old_v, new_v, tolerance);
        if old_v.is_none() && new_v.is_none() {
            // Absent on both sides (e.g. reload_speedup on generated
            // runs): not worth a row.
            continue;
        }
        if old_v.is_none() != new_v.is_none() && *gate != Gate::ReportOnly {
            if old_schema == new_schema && !cross_kind {
                // Same schema but a gated counter vanished (or appeared):
                // the report shape changed without a schema bump.  Failing
                // here keeps the gate from being silently neutered by a
                // refactor that stops emitting a counter.
                regression = Some(format!(
                    "gated counter present in only one {old_schema} report; \
                     bump the schema version if this is intentional"
                ));
                verdict = "REGRESSED".to_string();
            } else {
                notes.push(format!(
                    "{name}: present in only one report; compared as not gated"
                ));
            }
        }
        rows.push(DiffRow {
            name,
            old: old_v,
            new: new_v,
            regression,
            verdict,
        });
    }
    Ok(CompareReport {
        old_schema,
        new_schema,
        rows,
        notes,
    })
}

/// The `scenarios` array of a `bench-matrix/*` report, keyed by name.
fn matrix_scenarios(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("scenarios")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|item| item.get("name").and_then(Json::as_str).map(|n| (n, item)))
                .collect()
        })
        .unwrap_or_default()
}

/// The flat `counters` object of one matrix scenario entry.
fn matrix_counters(item: &Json) -> Vec<(&str, f64)> {
    match item.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k.as_str(), x)))
            .collect(),
        _ => Vec::new(),
    }
}

/// The `passed` flag of one matrix scenario entry, as a gateable number.
fn matrix_passed(item: &Json) -> Option<f64> {
    item.get("passed")
        .and_then(Json::as_bool)
        .map(|b| if b { 1.0 } else { 0.0 })
}

/// Diffs two `bench-matrix/*` reports.  Unlike the fixed-table families,
/// the gated surface here is *dynamic*: every scenario and every counter
/// the baseline recorded must still be present and Exact-equal (within
/// tolerance) in the new run.  New scenarios/counters are noted, not
/// gated — they become live on the next baseline regeneration.
fn compare_matrix(
    old: &Json,
    new: &Json,
    tolerance: f64,
    rows: &mut Vec<DiffRow>,
    notes: &mut Vec<String>,
) {
    for key in ["total", "passed", "failed"] {
        let old_v = old.get(key).and_then(Json::as_f64);
        let new_v = new.get(key).and_then(Json::as_f64);
        if old_v.is_none() && new_v.is_none() {
            continue;
        }
        let (regression, verdict) = judge(Gate::Exact, old_v, new_v, tolerance);
        rows.push(DiffRow {
            name: key.to_string(),
            old: old_v,
            new: new_v,
            regression,
            verdict,
        });
    }
    let old_items = matrix_scenarios(old);
    let new_items = matrix_scenarios(new);
    for (name, old_item) in &old_items {
        let Some((_, new_item)) = new_items.iter().find(|(n, _)| n == name) else {
            rows.push(DiffRow {
                name: format!("{name}.passed"),
                old: matrix_passed(old_item),
                new: None,
                regression: Some(
                    "scenario missing from the new report; regenerate the baseline if it \
                     was removed deliberately"
                        .to_string(),
                ),
                verdict: "REGRESSED".to_string(),
            });
            continue;
        };
        let old_p = matrix_passed(old_item);
        let new_p = matrix_passed(new_item);
        let (regression, verdict) = judge(Gate::Exact, old_p, new_p, tolerance);
        rows.push(DiffRow {
            name: format!("{name}.passed"),
            old: old_p,
            new: new_p,
            regression,
            verdict,
        });
        let new_counters = matrix_counters(new_item);
        for (counter, old_v) in matrix_counters(old_item) {
            let new_v = new_counters
                .iter()
                .find(|(k, _)| *k == counter)
                .map(|(_, v)| *v);
            let (mut regression, mut verdict) = judge(Gate::Exact, Some(old_v), new_v, tolerance);
            if new_v.is_none() {
                // A counter the baseline gates vanished: same failure
                // mode as a same-schema TRACKED counter disappearing.
                regression = Some(
                    "gated counter missing from the new report; regenerate the baseline \
                     if the scenario's counter set changed deliberately"
                        .to_string(),
                );
                verdict = "REGRESSED".to_string();
            }
            rows.push(DiffRow {
                name: format!("{name}.{counter}"),
                old: Some(old_v),
                new: new_v,
                regression,
                verdict,
            });
        }
        for (counter, _) in new_counters {
            if !matrix_counters(old_item).iter().any(|(k, _)| *k == counter) {
                notes.push(format!(
                    "{name}.{counter}: new counter, not gated until the baseline is \
                     regenerated"
                ));
            }
        }
    }
    for (name, _) in &new_items {
        if !old_items.iter().any(|(n, _)| n == name) {
            notes.push(format!(
                "scenario {name}: new in this run, not gated until the baseline is \
                 regenerated"
            ));
        }
    }
}

/// Applies the gate to one value pair.  Crate-visible so the scenario
/// registry can reuse the exact gate semantics for its declared
/// expected-counter checks.
pub(crate) fn judge(
    gate: Gate,
    old: Option<f64>,
    new: Option<f64>,
    tolerance: f64,
) -> (Option<String>, String) {
    let (old_v, new_v) = match (old, new) {
        (Some(o), Some(n)) => (o, n),
        // A counter only one side carries cannot be gated (schema bump).
        _ => return (None, "skipped".to_string()),
    };
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

    fn v3(dp_calls: u64, triangles: u64, reload: Option<f64>) -> Json {
        let ingest = match reload {
            Some(r) => format!(", \"ingest\": {{ \"reload_speedup\": {r} }}"),
            None => String::new(),
        };
        Json::parse(&format!(
            r#"{{ "schema": "bench-parallel/v3",
                  "source": {{ "kind": "generated"{ingest} }},
                  "counts": {{ "triangles": {triangles}, "four_cliques": 165 }},
                  "baseline": {{ "total_s": 0.2 }},
                  "peel": {{ "dp_calls": {dp_calls}, "reference_dp_calls": 400,
                             "recompute_skips": 10, "buckets_touched": 3,
                             "peak_scratch_bytes": 1024, "peel_s": 0.01,
                             "reference_peel_s": 0.02 }} }}"#
        ))
        .unwrap()
    }

    fn v2(triangles: u64) -> Json {
        Json::parse(&format!(
            r#"{{ "schema": "bench-parallel/v2",
                  "counts": {{ "triangles": {triangles}, "four_cliques": 165 }},
                  "baseline": {{ "total_s": 0.2 }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let report = compare(&v3(100, 20821, Some(6.0)), &v3(100, 20821, Some(6.0)), 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        assert!(report.format().contains("result: OK"));
    }

    #[test]
    fn dp_call_increase_fails_and_decrease_improves() {
        let report = compare(&v3(100, 20821, None), &v3(101, 20821, None), 0.0).unwrap();
        let failing: Vec<_> = report
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["peel.dp_calls"]);
        assert!(report.format().contains("REGRESSED"));

        let improved = compare(&v3(100, 20821, None), &v3(60, 20821, None), 0.0).unwrap();
        assert!(improved.regressions().is_empty());
        assert!(improved.format().contains("improved"));
    }

    #[test]
    fn tolerance_allows_bounded_drift() {
        // 5% tolerance: 104 dp_calls on a 100 baseline passes, 106 fails.
        assert!(compare(&v3(100, 20821, None), &v3(104, 20821, None), 0.05)
            .unwrap()
            .regressions()
            .is_empty());
        assert!(!compare(&v3(100, 20821, None), &v3(106, 20821, None), 0.05)
            .unwrap()
            .regressions()
            .is_empty());
        assert!(compare(&v3(100, 20821, None), &v3(100, 20821, None), 2.0).is_err());
    }

    #[test]
    fn count_drift_fails_in_both_directions() {
        for new_triangles in [20820, 20822] {
            let report =
                compare(&v3(100, 20821, None), &v3(100, new_triangles, None), 0.0).unwrap();
            let failing: Vec<_> = report
                .regressions()
                .iter()
                .map(|r| r.name.clone())
                .collect();
            assert_eq!(failing, vec!["counts.triangles"], "new = {new_triangles}");
        }
    }

    #[test]
    fn reload_speedup_gates_only_downward() {
        let slower = compare(&v3(100, 20821, Some(6.0)), &v3(100, 20821, Some(4.0)), 0.1).unwrap();
        assert_eq!(slower.regressions().len(), 1);
        let faster = compare(&v3(100, 20821, Some(6.0)), &v3(100, 20821, Some(9.0)), 0.0).unwrap();
        assert!(faster.regressions().is_empty());
    }

    #[test]
    fn v2_baseline_skips_peel_counters_with_a_note() {
        let report = compare(&v2(20821), &v3(100, 20821, None), 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("schema bump bench-parallel/v2 -> bench-parallel/v3")));
        let dp_row = report
            .rows
            .iter()
            .find(|r| r.name == "peel.dp_calls")
            .unwrap();
        assert_eq!(dp_row.old, None);
        assert_eq!(dp_row.verdict, "skipped");
    }

    #[test]
    fn same_schema_missing_gated_counter_fails() {
        // A v3 report that silently stops emitting a gated counter must
        // not slip through as "skipped" — that would neuter the gate.
        let mut doc = v3(100, 20821, None);
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "counts");
        }
        let report = compare(&v3(100, 20821, None), &doc, 0.0).unwrap();
        let failing: Vec<_> = report
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["counts.triangles", "counts.four_cliques"]);
        assert!(report.format().contains("bump the schema version"));
    }

    fn v4(support_builds: u64, dp_total: u64, triangles: u64) -> Json {
        Json::parse(&format!(
            r#"{{ "schema": "bench-parallel/v4",
                  "source": {{ "kind": "generated" }},
                  "counts": {{ "triangles": {triangles}, "four_cliques": 165 }},
                  "sweep": {{ "grid_size": 5, "support_builds": {support_builds},
                              "dp_calls_total": {dp_total},
                              "independent_dp_calls_total": {dp_total},
                              "sweep_s": 0.5, "independent_s": 1.6,
                              "amortization": 3.2 }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn v4_support_builds_gate_is_exact() {
        let ok = compare(&v4(1, 400, 20821), &v4(1, 400, 20821), 0.0).unwrap();
        assert!(ok.regressions().is_empty(), "{}", ok.format());
        // A second support build is the exact regression the sweep
        // exists to prevent; tolerance must not excuse it either way.
        let rebuilt = compare(&v4(1, 400, 20821), &v4(2, 400, 20821), 0.0).unwrap();
        let failing: Vec<_> = rebuilt
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["sweep.support_builds"]);
    }

    #[test]
    fn v4_sweep_dp_total_gates_only_upward() {
        let more = compare(&v4(1, 400, 20821), &v4(1, 401, 20821), 0.0).unwrap();
        assert_eq!(more.regressions().len(), 1);
        assert_eq!(more.regressions()[0].name, "sweep.dp_calls_total");
        let fewer = compare(&v4(1, 400, 20821), &v4(1, 300, 20821), 0.0).unwrap();
        assert!(fewer.regressions().is_empty());
    }

    #[test]
    fn v3_to_v4_schema_bump_degrades_gracefully() {
        // A v3 baseline (parbench) against a v4 report (thetasweep) on
        // the same graph: shared counters still gate (counts must
        // match), one-sided counters are skipped with a note.
        let report = compare(&v3(100, 20821, None), &v4(1, 400, 20821), 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("schema bump bench-parallel/v3 -> bench-parallel/v4")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("sweep.support_builds")));
        // Shared counters still diverge loudly.
        let drifted = compare(&v3(100, 20821, None), &v4(1, 400, 99), 0.0).unwrap();
        assert!(!drifted.regressions().is_empty());
    }

    fn v5(rank: &str, support_builds: u64, dp_total: u64, triangles: u64) -> Json {
        // The truss rank's counts carry no four_cliques; keep the fixture
        // honest about that so cross-rank key presence is exercised too.
        let counts = if rank == "nucleus" {
            format!(r#"{{ "triangles": {triangles}, "four_cliques": 165 }}"#)
        } else {
            format!(r#"{{ "triangles": {triangles} }}"#)
        };
        Json::parse(&format!(
            r#"{{ "schema": "bench-parallel/v5",
                  "rank": "{rank}",
                  "source": {{ "kind": "generated" }},
                  "counts": {counts},
                  "sweep": {{ "grid_size": 5, "support_builds": {support_builds},
                              "dp_calls_total": {dp_total},
                              "independent_dp_calls_total": {dp_total},
                              "sweep_s": 0.5, "independent_s": 1.6,
                              "amortization": 3.2 }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn v4_to_v5_schema_bump_degrades_gracefully() {
        // A v4 baseline has no "rank" key: treated as a nucleus sweep, so
        // gating against a v5 nucleus report works and the assumption is
        // spelled out in a note.
        let report = compare(&v4(1, 400, 20821), &v5("nucleus", 1, 400, 20821), 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("schema bump bench-parallel/v4 -> bench-parallel/v5")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("old report predates the \"rank\" field")));
        // The gated sweep counters still bite across the bump.
        let rebuilt = compare(&v4(1, 400, 20821), &v5("nucleus", 2, 400, 20821), 0.0).unwrap();
        assert_eq!(rebuilt.regressions()[0].name, "sweep.support_builds");
    }

    /// A v6 parbench report (no `rank`, a `peel` object) and a v6 sweep
    /// report (a `rank` and a `sweep` object) of the same graph.
    fn v6_pair(sweep_triangles: u64) -> (Json, Json) {
        // Both fixtures lead with their `schema` key.
        let v6 = |mut doc: Json| {
            if let Json::Obj(members) = &mut doc {
                members[0].1 = Json::Str("bench-parallel/v6".to_string());
            }
            doc
        };
        (
            v6(v3(100, 20821, None)),
            v6(v5("nucleus", 1, 400, sweep_triangles)),
        )
    }

    #[test]
    fn same_schema_parbench_vs_sweep_gates_only_shared_counts() {
        let (parbench, sweep) = v6_pair(20821);
        let report = compare(&parbench, &sweep, 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("a parbench report against a sweep report")));
        for shared in ["counts.triangles", "counts.four_cliques"] {
            let row = report.rows.iter().find(|r| r.name == shared).unwrap();
            assert_eq!(row.verdict, "ok", "{shared}");
        }
        // The shared counts still gate.
        let (parbench, drifted) = v6_pair(99);
        let failing: Vec<_> = compare(&parbench, &drifted, 0.0)
            .unwrap()
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["counts.triangles"]);
    }

    #[test]
    fn v5_gates_apply_per_rank() {
        // Same-rank v5 reports gate exactly like v4 ones did.
        let ok = compare(&v5("truss", 1, 300, 9000), &v5("truss", 1, 300, 9000), 0.0).unwrap();
        assert!(ok.regressions().is_empty(), "{}", ok.format());
        let rebuilt = compare(&v5("truss", 1, 300, 9000), &v5("truss", 2, 300, 9000), 0.0).unwrap();
        let failing: Vec<_> = rebuilt
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["sweep.support_builds"]);
        let more_dp = compare(&v5("core", 1, 300, 0), &v5("core", 1, 301, 0), 0.0).unwrap();
        assert_eq!(more_dp.regressions()[0].name, "sweep.dp_calls_total");
    }

    #[test]
    fn mismatched_ranks_are_refused() {
        // A truss baseline against a core report (or a v4 nucleus
        // baseline against a truss report) compares different
        // algorithms: refuse instead of emitting a meaningless verdict.
        let err = compare(&v5("truss", 1, 300, 9000), &v5("core", 1, 300, 9000), 0.0).unwrap_err();
        assert!(err.contains("rank mismatch"), "{err}");
        let err = compare(&v4(1, 400, 20821), &v5("truss", 1, 300, 20821), 0.0).unwrap_err();
        assert!(err.contains("rank mismatch"), "{err}");
    }

    #[test]
    fn rejects_non_bench_schemas() {
        let bogus = Json::parse(r#"{ "schema": "something-else/v1" }"#).unwrap();
        assert!(compare(&bogus, &v2(1), 0.0).is_err());
        let missing = Json::parse(r#"{ "counts": {} }"#).unwrap();
        assert!(compare(&v2(1), &missing, 0.0).is_err());
    }

    fn serve_v1(hits: u64, builds: u64, protocol_errors: u64) -> Json {
        Json::parse(&format!(
            r#"{{ "schema": "bench-serve/v1",
                  "source": {{ "kind": "generated" }},
                  "oneshot": {{ "passed": true, "bit_identical": true, "failures": [ ] }},
                  "stats": {{ "requests": 22, "batches": 1,
                              "protocol_errors": {protocol_errors},
                              "request_errors": 4, "cache_hits": {hits},
                              "cache_misses": 2, "cache_evictions": 0,
                              "support_builds": {builds}, "sessions_opened": 2,
                              "sessions_closed": 2, "deadlines_exceeded": 1 }} }}"#
        ))
        .unwrap()
    }

    fn serve(hits: u64, builds: u64, protocol_errors: u64) -> Json {
        serve_with_updates(hits, builds, protocol_errors, 1, 2)
    }

    fn serve_with_updates(
        hits: u64,
        builds: u64,
        protocol_errors: u64,
        repaired: u64,
        invalidations: u64,
    ) -> Json {
        Json::parse(&format!(
            r#"{{ "schema": "bench-serve/v2",
                  "source": {{ "kind": "generated" }},
                  "oneshot": {{ "passed": true, "bit_identical": true, "failures": [ ] }},
                  "stats": {{ "requests": 33, "batches": 1,
                              "protocol_errors": {protocol_errors},
                              "request_errors": 6, "cache_hits": {hits},
                              "cache_misses": 4, "cache_evictions": 0,
                              "support_builds": {builds}, "sessions_opened": 2,
                              "sessions_closed": 2, "deadlines_exceeded": 1,
                              "updates_applied": 1,
                              "supports_repaired": {repaired},
                              "cache_invalidations": {invalidations} }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn serve_reports_gate_every_counter_exactly() {
        let ok = compare(&serve(8, 1, 0), &serve(8, 1, 0), 0.0).unwrap();
        assert!(ok.regressions().is_empty(), "{}", ok.format());
        // A second support build, a lost cache hit, any protocol error,
        // a rebuild instead of a repair, or a drifted invalidation count
        // each trips its own exact gate.
        for (drifted, expect) in [
            (serve(8, 2, 0), "stats.support_builds"),
            (serve(7, 1, 0), "stats.cache_hits"),
            (serve(8, 1, 1), "stats.protocol_errors"),
            (serve_with_updates(8, 1, 0, 0, 2), "stats.supports_repaired"),
            (
                serve_with_updates(8, 1, 0, 1, 3),
                "stats.cache_invalidations",
            ),
        ] {
            let report = compare(&serve(8, 1, 0), &drifted, 0.0).unwrap();
            let failing: Vec<_> = report
                .regressions()
                .iter()
                .map(|r| r.name.clone())
                .collect();
            assert_eq!(failing, vec![expect]);
        }
    }

    #[test]
    fn serve_v1_baseline_skips_update_counters_with_a_note() {
        // A pre-update v1 baseline gates the shared counters it carries
        // and skips the v2 update counters (its cache_misses differ —
        // the v2 script queries after its update batch — so those rows
        // regress loudly rather than being silently reconciled).
        let report = compare(&serve_v1(8, 1, 0), &serve(8, 1, 0), 0.0).unwrap();
        let failing: Vec<_> = report
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(
            failing,
            vec![
                "stats.requests",
                "stats.request_errors",
                "stats.cache_misses"
            ]
        );
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("schema bump bench-serve/v1 -> bench-serve/v2")));
        let repaired = report
            .rows
            .iter()
            .find(|r| r.name == "stats.supports_repaired")
            .unwrap();
        assert_eq!(repaired.old, None);
        assert_eq!(repaired.verdict, "skipped");
    }

    fn updates(repair: u64, rebuild: u64, region: u64) -> Json {
        let excess = repair.saturating_sub(rebuild);
        Json::parse(&format!(
            r#"{{ "schema": "bench-updates/v1",
                  "rank": "truss",
                  "source": {{ "kind": "generated" }},
                  "batch": {{ "inserts": 64, "deletes": 64, "reweights": 64 }},
                  "repair": {{ "affected_elements": 900,
                               "region_elements": {region},
                               "repair_dp_calls": {repair},
                               "rebuild_dp_calls": {rebuild},
                               "dp_calls_excess": {excess} }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn updates_reports_gate_repair_never_exceeding_rebuild() {
        let ok = compare(
            &updates(5_000, 60_000, 1_200),
            &updates(5_000, 60_000, 1_200),
            0.0,
        )
        .unwrap();
        assert!(ok.regressions().is_empty(), "{}", ok.format());
        // More repair work (still under rebuild) fails LowerIsBetter…
        let slower = compare(
            &updates(5_000, 60_000, 1_200),
            &updates(6_000, 60_000, 1_200),
            0.0,
        )
        .unwrap();
        let failing: Vec<_> = slower
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["repair.repair_dp_calls"]);
        // …and a repair that exceeds the rebuild breaks the Exact
        // dp_calls_excess gate on top (baseline excess is 0).
        let exceeded = compare(
            &updates(5_000, 60_000, 1_200),
            &updates(61_000, 60_000, 1_200),
            0.0,
        )
        .unwrap();
        let failing: Vec<_> = exceeded
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(
            failing,
            vec!["repair.repair_dp_calls", "repair.dp_calls_excess"]
        );
        // A grown damage region is an algorithm change, not noise.
        let wider = compare(
            &updates(5_000, 60_000, 1_200),
            &updates(5_000, 60_000, 1_300),
            0.0,
        )
        .unwrap();
        assert_eq!(wider.regressions()[0].name, "repair.region_elements");
    }

    #[test]
    fn updates_reports_refuse_cross_rank_and_cross_family() {
        let mut core = updates(5_000, 60_000, 1_200);
        if let Json::Obj(members) = &mut core {
            for (k, v) in members.iter_mut() {
                if k == "rank" {
                    *v = Json::Str("core".to_string());
                }
            }
        }
        let err = compare(&updates(5_000, 60_000, 1_200), &core, 0.0).unwrap_err();
        assert!(err.contains("rank mismatch"), "{err}");
        let err = compare(&updates(5_000, 60_000, 1_200), &serve(8, 1, 0), 0.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
    }

    #[test]
    fn cross_family_compares_are_refused() {
        let err = compare(&v3(100, 20821, None), &serve(8, 1, 0), 0.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
        let err = compare(&serve(8, 1, 0), &v5("nucleus", 1, 400, 20821), 0.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
    }

    fn million(edges: u64, snapshot_bytes: u64, rss: u64) -> Json {
        Json::parse(&format!(
            r#"{{ "schema": "bench-million/v1",
                  "rank": "truss",
                  "source": {{ "kind": "generated" }},
                  "counts": {{ "triangles": 3100000 }},
                  "million": {{ "vertices": 200005, "edges": {edges},
                                "snapshot_bytes": {snapshot_bytes},
                                "streaming_chunk_edges": 65536,
                                "snapshot_write_s": 0.9, "owned_reload_s": 0.08,
                                "mmap_open_s": 0.002, "mmap_speedup": 40.0,
                                "triangles_1t_s": 2.0, "triangles_nt_s": 0.7,
                                "triangle_speedup": 2.8,
                                "peak_rss_bytes": {rss} }},
                  "sweep": {{ "grid_size": 2, "support_builds": 1,
                              "dp_calls_total": 5000000, "sweep_s": 30.0 }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn million_reports_gate_shape_exactly_and_walls_not_at_all() {
        let base = million(1_000_025, 48_001_296, 3_000_000_000);
        let ok = compare(&base, &million(1_000_025, 48_001_296, 3_000_000_000), 0.0).unwrap();
        assert!(ok.regressions().is_empty(), "{}", ok.format());
        // A drifted edge count or snapshot size is an algorithm/format
        // change; a wildly different mmap_speedup is just another host.
        let drifted = compare(&base, &million(1_000_026, 48_001_296, 3_000_000_000), 0.0).unwrap();
        assert_eq!(drifted.regressions()[0].name, "million.edges");
        let bigger = compare(&base, &million(1_000_025, 48_999_999, 3_000_000_000), 0.0).unwrap();
        assert_eq!(bigger.regressions()[0].name, "million.snapshot_bytes");
    }

    #[test]
    fn rss_gate_fails_only_past_the_factor_and_skips_zero_baselines() {
        let base = million(1_000_025, 48_001_296, 3_000_000_000);
        // 1.9x growth passes, 2.1x fails, shrinking is fine.
        assert!(
            compare(&base, &million(1_000_025, 48_001_296, 5_700_000_000), 0.0)
                .unwrap()
                .regressions()
                .is_empty()
        );
        let report = compare(&base, &million(1_000_025, 48_001_296, 6_300_000_000), 0.0).unwrap();
        assert_eq!(report.regressions()[0].name, "million.peak_rss_bytes");
        assert!(report.format().contains("grew past 2x"));
        assert!(
            compare(&base, &million(1_000_025, 48_001_296, 1_000_000), 0.0)
                .unwrap()
                .regressions()
                .is_empty()
        );
        // A baseline recorded without the probe (0) gates nothing.
        let blind = million(1_000_025, 48_001_296, 0);
        let report = compare(&blind, &base, 0.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.format());
        let rss_row = report
            .rows
            .iter()
            .find(|r| r.name == "million.peak_rss_bytes")
            .unwrap();
        assert_eq!(rss_row.verdict, "skipped");
    }

    #[test]
    fn million_vs_parallel_compares_are_refused() {
        let err = compare(
            &million(1_000_025, 48_001_296, 0),
            &v3(100, 20821, None),
            0.0,
        )
        .unwrap_err();
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

    fn matrix(triangles: u64, passed: bool, extra_scenario: bool) -> Json {
        let second = if extra_scenario {
            r#", { "name": "z-extra", "workload": "parbench", "tags": [],
                   "passed": true, "failures": [],
                   "counters": { "counts.triangles": 7 } }"#
        } else {
            ""
        };
        let (p, failed) = if passed { ("true", 0) } else { ("false", 1) };
        let total = if extra_scenario { 2 } else { 1 };
        Json::parse(&format!(
            r#"{{ "schema": "bench-matrix/v1",
                  "total": {total}, "passed": {}, "failed": {failed},
                  "scenarios": [
                    {{ "name": "parbench-smoke", "workload": "parbench",
                       "tags": ["bench"], "passed": {p}, "failures": [],
                       "counters": {{ "counts.triangles": {triangles},
                                      "peel.dp_calls": 400 }} }}{second}
                  ] }}"#,
            total - failed
        ))
        .unwrap()
    }

    #[test]
    fn matrix_reports_gate_every_scenario_counter_exactly() {
        let ok = compare(
            &matrix(20821, true, false),
            &matrix(20821, true, false),
            0.0,
        )
        .unwrap();
        assert!(ok.regressions().is_empty(), "{}", ok.format());
        // A drifted counter and a newly failing scenario each trip gates.
        let drifted = compare(
            &matrix(20821, true, false),
            &matrix(20822, true, false),
            0.0,
        )
        .unwrap();
        let failing: Vec<_> = drifted
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["parbench-smoke.counts.triangles"]);
        let failed = compare(
            &matrix(20821, true, false),
            &matrix(20821, false, false),
            0.0,
        )
        .unwrap();
        let failing: Vec<_> = failed
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["passed", "failed", "parbench-smoke.passed"]);
    }

    #[test]
    fn matrix_dropped_scenario_regresses_and_new_scenario_notes() {
        let dropped =
            compare(&matrix(20821, true, true), &matrix(20821, true, false), 0.0).unwrap();
        let failing: Vec<_> = dropped
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        // total changed AND the scenario itself is reported missing.
        assert!(failing.contains(&"total".to_string()), "{failing:?}");
        assert!(
            failing.contains(&"z-extra.passed".to_string()),
            "{failing:?}"
        );
        let added = compare(&matrix(20821, true, false), &matrix(20821, true, true), 0.0).unwrap();
        assert!(added
            .notes
            .iter()
            .any(|n| n.contains("scenario z-extra: new in this run")));
        // The new scenario itself is not gated, but totals still are.
        let failing: Vec<_> = added.regressions().iter().map(|r| r.name.clone()).collect();
        assert_eq!(failing, vec!["total", "passed"]);
    }

    #[test]
    fn matrix_vanished_counter_regresses() {
        let mut new = matrix(20821, true, false);
        if let Some(Json::Arr(items)) = {
            // Navigate mutably: strip one counter from the only scenario.
            if let Json::Obj(members) = &mut new {
                members
                    .iter_mut()
                    .find(|(k, _)| k == "scenarios")
                    .map(|(_, v)| v)
            } else {
                None
            }
        } {
            if let Json::Obj(sc) = &mut items[0] {
                for (k, v) in sc.iter_mut() {
                    if k == "counters" {
                        if let Json::Obj(counters) = v {
                            counters.retain(|(name, _)| name != "peel.dp_calls");
                        }
                    }
                }
            }
        }
        let report = compare(&matrix(20821, true, false), &new, 0.0).unwrap();
        let failing: Vec<_> = report
            .regressions()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(failing, vec!["parbench-smoke.peel.dp_calls"]);
        assert!(report.format().contains("regenerate the baseline"));
    }

    #[test]
    fn matrix_vs_other_families_is_refused() {
        let err = compare(&matrix(20821, true, false), &v3(100, 20821, None), 0.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
    }

    #[test]
    fn generation_skew_is_detected_and_parses_versions() {
        assert_eq!(generation_of("bench-parallel/v6"), Some(6));
        assert_eq!(generation_of("bench-serve/v2"), Some(2));
        assert_eq!(generation_of("bench-parallel"), None);
        assert_eq!(generation_of("bench-parallel/beta"), None);
        // Same schema: no skew.
        let same = compare(&v3(100, 20821, None), &v3(100, 20821, None), 0.0).unwrap();
        assert_eq!(same.generation_skew(), None);
        // Cross-generation: flagged with both versions spelled out.
        let skewed = compare(&v3(100, 20821, None), &v4(1, 400, 20821), 0.0).unwrap();
        let msg = skewed.generation_skew().expect("skew detected");
        assert!(msg.contains("bench-parallel/v3 (generation 3)"), "{msg}");
        assert!(msg.contains("bench-parallel/v4 (generation 4)"), "{msg}");
    }
}
