//! The one report model every bench driver emits through.
//!
//! A report is a JSON tree built leaf by leaf at dotted paths.
//! [`Report::gate`] places a number *and* records how `bench-compare`
//! gates it, in the same call; [`Report::set`] places everything else
//! (configuration echoes, strings, flags, arrays).  The serialized
//! report ends with a top-level `"gates"` object mapping each tagged
//! path to its [`Gate`] spelling:
//!
//! ```json
//! { "schema": "bench-parallel/v7", "counts": { "triangles": 20 },
//!   "peel": { "dp_calls": 8, "peel_s": 0.01 },
//!   "gates": { "counts.triangles": "exact", "peel.dp_calls": "lower-is-better",
//!              "peel.peel_s": "report-only" } }
//! ```
//!
//! `bench-compare` and the scenario matrix read those tags through
//! [`gates`] and [`counters`] instead of keeping tables of their own, so
//! adding a counter to a report is one `gate` call.  Every driver returns
//! the `Report` it fills, and [`render`] is the one text form of all of
//! them.

use crate::compare::Gate::{self, HigherIsBetter, ReportOnly};
use crate::json::Json;
use crate::runner::format_table;
use crate::source::{GraphSource, IngestTimings};

/// A bench report under construction.
#[derive(Debug)]
pub struct Report {
    root: Vec<(String, Json)>,
    gates: Vec<(String, Gate)>,
}

impl Report {
    /// An empty report of the given `family/vN` schema.
    pub fn new(schema: &str) -> Report {
        let root = vec![("schema".to_string(), Json::str(schema))];
        Report {
            root,
            gates: Vec::new(),
        }
    }

    /// Places `value` at the dotted `path`, creating the objects on the
    /// way; a leaf that is already there is replaced in place.
    pub fn set(&mut self, path: &str, value: Json) {
        let (parents, leaf) = path.rsplit_once('.').unwrap_or(("", path));
        let mut members = &mut self.root;
        for key in parents.split('.').filter(|key| !key.is_empty()) {
            let at = match members.iter().position(|(k, _)| k == key) {
                Some(at) => at,
                None => {
                    members.push((key.to_string(), Json::Obj(Vec::new())));
                    members.len() - 1
                }
            };
            members = match &mut members[at].1 {
                Json::Obj(children) => children,
                _ => panic!("report path {path}: {key} is not an object"),
            };
        }
        match members.iter_mut().find(|(k, _)| k == leaf) {
            Some((_, slot)) => *slot = value,
            None => members.push((leaf.to_string(), value)),
        }
    }

    /// Places the number `value` at `path` and tags it with `gate`.
    pub fn gate(&mut self, path: &str, value: impl Number, gate: Gate) {
        self.set(path, num(value));
        self.gates.push((path.to_string(), gate));
    }

    /// The `source` provenance object: the ingested file, or the
    /// generator and its inputs (`seed` is the generator's).
    pub fn source(&mut self, source: &GraphSource, seed: u64) {
        let provenance = match source {
            GraphSource::Generated { vertices, edges } => object([
                ("kind", Json::str("generated")),
                ("generator", Json::str("gnm-uniform")),
                ("requested_vertices", num(*vertices)),
                ("requested_edges", num(*edges)),
                ("seed", num(seed)),
            ]),
            GraphSource::File(input) => object([
                ("kind", Json::str("file")),
                ("path", Json::str(input.path.display().to_string())),
                ("format", Json::str(input.format.to_string())),
                ("prob_model", Json::str(input.probability.to_string())),
            ]),
        };
        self.set("source", provenance);
    }

    /// The `source.ingest` timings of an ingested file, when the
    /// snapshot-cache round trip ran.
    pub fn ingest(&mut self, timings: Option<&IngestTimings>) {
        let Some(t) = timings else { return };
        self.set("source.ingest.parse_s", num(t.parse_s));
        self.set("source.ingest.snapshot_write_s", num(t.snapshot_write_s));
        self.set("source.ingest.snapshot_reload_s", num(t.snapshot_reload_s));
        let reload = t.reload_speedup();
        self.gate("source.ingest.reload_speedup", reload, HigherIsBetter);
        self.set("source.ingest.snapshot_mmap_s", num(t.snapshot_mmap_s));
        // A wall ratio from other hardware is noise; CI checks the fresh
        // run's value instead.
        self.gate("source.ingest.mmap_speedup", t.mmap_speedup(), ReportOnly);
        self.set("source.ingest.mmap_used", Json::Bool(t.mmap_used));
    }

    /// The compact JSON text, `gates` last, newline-terminated.
    pub fn into_json(self) -> String {
        let gates = self
            .gates
            .into_iter()
            .map(|(path, gate)| (path, Json::str(gate.to_string())))
            .collect();
        let mut members = self.root;
        members.push(("gates".to_string(), Json::Obj(gates)));
        let mut text = Json::Obj(members).to_json_string();
        text.push('\n');
        text
    }
}

/// A number a report can carry.  Counters stay well inside `f64`'s
/// exact integer range.
pub trait Number {
    /// The value as an `f64`.
    fn to_f64(self) -> f64;
}

macro_rules! number {
    ($($t:ty),*) => {$(impl Number for $t { fn to_f64(self) -> f64 { self as f64 } })*};
}
number!(u32, u64, usize, f64);

/// `value` as a JSON number.
pub fn num(value: impl Number) -> Json {
    Json::Num(value.to_f64())
}

/// An object from `(key, value)` pairs, in order.
pub fn object<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// The value at the dotted `path` of a parsed report.
pub(crate) fn at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

/// Every tagged path of a parsed report, with its gate and its value, in
/// emission order.  A report without a `gates` object, a tag that does
/// not parse, or a tagged path that names no number is an error.
pub fn gates(doc: &Json) -> Result<Vec<(String, Gate, f64)>, String> {
    let Some(Json::Obj(members)) = doc.get("gates") else {
        return Err("report has no \"gates\" object".to_string());
    };
    members
        .iter()
        .map(|(path, tag)| {
            let gate = tag
                .as_str()
                .ok_or_else(|| format!("gate of {path} is not a string"))?
                .parse::<Gate>()
                .map_err(|e| format!("gate of {path}: {e}"))?;
            let value = at(doc, path)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("gated path {path} names no number in the report"))?;
            Ok((path.clone(), gate, value))
        })
        .collect()
}

/// The deterministic counters of a parsed report: every path tagged
/// `exact` or `lower-is-better`, in emission order.  The walls, ratios
/// and RSS probes tagged otherwise stay out.
pub fn counters(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    Ok(gates(doc)?
        .into_iter()
        .filter(|(_, gate, _)| matches!(gate, Gate::Exact | Gate::LowerIsBetter))
        .map(|(path, _, value)| (path, value))
        .collect())
}

/// A number as text: integers exactly, anything else to four decimals.
pub(crate) fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// A parsed report as text: one `path: value` line per leaf, in emission
/// order, with the gate tag of a tagged number after it.  An array of
/// objects (`runs`, `per_theta`, `method_counts`) prints as one table
/// under its path.
pub fn render(doc: &Json) -> String {
    let tags = match doc.get("gates") {
        Some(Json::Obj(members)) => members.as_slice(),
        _ => &[],
    };
    let mut out = String::new();
    if let Json::Obj(members) = doc {
        for (key, value) in members.iter().filter(|(key, _)| key != "gates") {
            render_at(key, value, tags, &mut out);
        }
    }
    out
}

fn render_at(path: &str, value: &Json, tags: &[(String, Json)], out: &mut String) {
    match value {
        Json::Obj(members) if !members.is_empty() => {
            for (key, child) in members {
                render_at(&format!("{path}.{key}"), child, tags, out);
            }
        }
        Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
            let Some(Json::Obj(first)) = items.first() else {
                return;
            };
            let header: Vec<&str> = first.iter().map(|(key, _)| key.as_str()).collect();
            let rows: Vec<Vec<String>> = items
                .iter()
                .map(|item| {
                    let cell = |key: &&str| item.get(key).map_or_else(String::new, text);
                    header.iter().map(cell).collect()
                })
                .collect();
            out.push_str(&format!("{path}:\n{}", format_table(&header, &rows)));
        }
        _ => {
            let tag = tags.iter().find(|(tagged, _)| tagged == path);
            let tag = tag.and_then(|(_, gate)| gate.as_str());
            let tag = tag.map_or_else(String::new, |gate| format!("  [{gate}]"));
            out.push_str(&format!("{path}: {}{tag}\n", text(value)));
        }
    }
}

/// One value as text: a string bare, a number by [`fmt_num`], an array
/// of values in brackets.
fn text(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        Json::Num(x) => fmt_num(*x),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(text).collect();
            format!("[{}]", items.join(", "))
        }
        other => other.to_json_string(),
    }
}

/// A driver's report, parsed back as a bench report is read.
#[cfg(test)]
pub(crate) fn parsed(report: Report) -> Json {
    Json::parse(&report.into_json()).expect("report JSON parses")
}

/// The number at `path` of a parsed report.
#[cfg(test)]
pub(crate) fn num_at(doc: &Json, path: &str) -> f64 {
    at(doc, path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{path} names no number"))
}

/// Asserts that every tag of a parsed report parses and names a number,
/// and that each `expected` path carries its gate.
#[cfg(test)]
pub(crate) fn assert_tagged(doc: &Json, expected: &[(&str, Gate)]) {
    let gates = gates(doc).expect("every tag parses and names a number");
    for &(path, gate) in expected {
        let found = gates.iter().find(|(p, _, _)| p == path).map(|g| g.1);
        assert_eq!(found, Some(gate), "gate of {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_nest_in_emission_order_and_gates_come_last() {
        let mut report = Report::new("bench-test/v1");
        report.gate("counts.triangles", 20.0, Gate::Exact);
        report.set("seed", Json::num(7));
        report.gate("counts.four_cliques", 3.0, Gate::LowerIsBetter);
        report.set("runs", Json::Arr(vec![object([("threads", Json::num(2))])]));
        // A leaf placed twice keeps its position and takes the new value.
        report.set("seed", Json::num(8));
        assert_eq!(
            report.into_json(),
            "{\"schema\":\"bench-test/v1\",\"counts\":{\"triangles\":20,\"four_cliques\":3},\
             \"seed\":8,\"runs\":[{\"threads\":2}],\"gates\":{\"counts.triangles\":\"exact\",\
             \"counts.four_cliques\":\"lower-is-better\"}}\n"
        );
    }

    #[test]
    fn render_prints_leaves_with_their_tags_and_object_arrays_as_tables() {
        let mut report = Report::new("bench-test/v1");
        report.set("source.kind", Json::str("generated"));
        report.gate("counts.triangles", 20.0, Gate::Exact);
        report.gate("peel.peel_s", 0.123456, Gate::ReportOnly);
        report.set("grid", Json::Arr(vec![num(0.5), num(1.0)]));
        report.set("counts.empty", Json::Obj(Vec::new()));
        let rows = [(1, 0.25), (4, 0.0625)]
            .map(|(threads, s)| object([("threads", num(threads as u32)), ("support_s", num(s))]));
        report.set("runs", Json::Arr(Vec::from(rows)));
        let doc = parsed(report);
        assert_eq!(
            render(&doc),
            "schema: bench-test/v1\n\
             source.kind: generated\n\
             counts.triangles: 20  [exact]\n\
             counts.empty: {}\n\
             peel.peel_s: 0.1235  [report-only]\n\
             grid: [0.5000, 1]\n\
             runs:\n\
             threads  support_s\n\
             ------------------\n\
             \x20     1     0.2500\n\
             \x20     4     0.0625\n"
        );
        assert_eq!(
            counters(&doc).unwrap(),
            [("counts.triangles".to_string(), 20.0)]
        );
    }

    #[test]
    fn malformed_gates_are_errors() {
        for (text, expect) in [
            (r#"{ "a": 1 }"#, "no \"gates\" object"),
            (
                r#"{ "a": 1, "gates": { "a": "exactly" } }"#,
                "unknown gate 'exactly'",
            ),
            (r#"{ "a": 1, "gates": { "a": 3 } }"#, "not a string"),
            (
                r#"{ "a": "x", "gates": { "a": "exact" } }"#,
                "names no number",
            ),
            (
                r#"{ "a": 1, "gates": { "b.c": "exact" } }"#,
                "names no number",
            ),
        ] {
            let err = gates(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(expect), "{text}: {err}");
        }
    }
}
