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
//! [`gates`] instead of keeping tables of their own, so adding a counter
//! to a report is one `gate` call.

use crate::compare::Gate::{self, HigherIsBetter, ReportOnly};
use crate::json::Json;
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
            let value = path
                .split('.')
                .try_fold(doc, |v, key| v.get(key))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("gated path {path} names no number in the report"))?;
            Ok((path.clone(), gate, value))
        })
        .collect()
}

/// Asserts that every tag of a driver's `json` report parses and names a
/// number, and that each `expected` path carries its gate.
#[cfg(test)]
pub(crate) fn assert_tagged(json: &str, expected: &[(&str, Gate)]) {
    let doc = Json::parse(json).expect("report JSON parses");
    let gates = gates(&doc).expect("every tag parses and names a number");
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
