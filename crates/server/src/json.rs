//! Minimal JSON reader/writer shared by the query server and the bench
//! harness.
//!
//! The workspace is offline-only (no serde); the bench harness builds
//! its reports as [`Json`] trees and reads them back for
//! `bench-compare`, and the nd-server wire protocol carries JSON bodies
//! in both directions.  This is a small recursive-descent parser
//! covering exactly the JSON those components emit plus the standard
//! grammar (escapes, exponents, nesting) so hand-edited baselines parse
//! too.  Objects preserve key order in a `Vec` — iteration is
//! deterministic, duplicate keys resolve to the first occurrence via
//! [`Json::get`].  [`Json::to_json_string`] is the matching compact
//! serializer (escaped strings, `null` for non-finite numbers).

use std::fmt;

/// Maximum container nesting depth the parser accepts.  The parser is
/// recursive descent, so unbounded nesting would translate attacker
/// -controlled input (a frame of `[[[[…`) into unbounded stack growth;
/// deeper documents fail with a regular [`JsonError`] instead.  Real
/// protocol bodies nest fewer than ten levels.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; benchmark counters stay well inside `f64`'s exact
    /// integer range.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first occurrence); `None` on missing
    /// keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested member lookup: `report.path(&["source", "ingest",
    /// "reload_speedup"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A string value (convenience constructor).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value (convenience constructor).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Compact serialization.  Non-finite numbers (which JSON cannot
    /// represent) become `null`; strings are escaped; object key order
    /// is preserved.  `Json::parse(v.to_json_string())` round-trips
    /// every finite value.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, bounded by
    /// [`MAX_NESTING_DEPTH`] to keep hostile input from overflowing the
    /// stack.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Bumps the nesting depth on entering a container; errors past
    /// [`MAX_NESTING_DEPTH`].  A parse error aborts the whole document,
    /// so the counter only needs rewinding on the success paths.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            Err(self.error(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in the harness's
                            // own output; map them to the replacement
                            // character instead of failing the parse.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse("\"hi\\n\\\"there\\\" \\u0041\"").unwrap(),
            Json::Str("hi\n\"there\" A".to_string())
        );
    }

    #[test]
    fn parses_nested_structures_and_paths() {
        let doc = Json::parse(
            r#"{ "schema": "bench-parallel/v3",
                 "counts": { "triangles": 20821, "four_cliques": 165 },
                 "runs": [ { "threads": 2, "speedup": 1.01 }, { "threads": 4 } ],
                 "flags": [true, false, null] }"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bench-parallel/v3")
        );
        assert_eq!(
            doc.path(&["counts", "triangles"]).and_then(Json::as_f64),
            Some(20821.0)
        );
        let runs = doc.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("speedup").and_then(Json::as_f64), Some(1.01));
        assert_eq!(runs[1].get("speedup"), None);
        assert_eq!(doc.path(&["counts", "missing"]), None);
        assert_eq!(
            doc.path(&["runs", "threads"]),
            None,
            "array is not an object"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, ]x",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1} garbage",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_stack_overflowing() {
        // At the limit: parses fine.
        let deep_ok = format!(
            "{}42{}",
            "[".repeat(MAX_NESTING_DEPTH),
            "]".repeat(MAX_NESTING_DEPTH)
        );
        assert!(Json::parse(&deep_ok).is_ok());
        // One past the limit: a regular parse error.
        let deep_bad = format!(
            "{}42{}",
            "[".repeat(MAX_NESTING_DEPTH + 1),
            "]".repeat(MAX_NESTING_DEPTH + 1)
        );
        let e = Json::parse(&deep_bad).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // The hostile case from the wire: ~50 KB of '[' must error, not
        // recurse 50 000 frames deep and abort the process.
        let bomb = "[".repeat(50_000);
        assert!(Json::parse(&bomb).is_err());
        // Mixed containers count toward the same bound.
        let mixed = "{\"a\":[".repeat(80) + "0" + &"]}".repeat(80);
        let e = Json::parse(&mixed).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // Depth is nesting, not sibling count: wide documents are fine.
        let wide = format!("[{}]", vec!["[0]"; 5_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn accepts_empty_containers_and_duplicate_keys() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        let dup = Json::parse("{\"k\": 1, \"k\": 2}").unwrap();
        assert_eq!(dup.get("k").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn serializer_round_trips_through_the_parser() {
        let doc = Json::Obj(vec![
            ("id".to_string(), Json::num(7u32)),
            ("ok".to_string(), Json::Bool(true)),
            (
                "text".to_string(),
                Json::str("quote \" slash \\ nl \n tab \t ctl \u{1} unicode ∅"),
            ),
            (
                "grid".to_string(),
                Json::Arr(vec![Json::num(0.1), Json::num(0.5), Json::Null]),
            ),
            ("nan".to_string(), Json::Num(f64::NAN)),
        ]);
        let text = doc.to_json_string();
        let back = Json::parse(&text).unwrap();
        // NaN serializes as null; everything else round-trips exactly.
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("id"), doc.get("id"));
        assert_eq!(back.get("ok"), doc.get("ok"));
        assert_eq!(back.get("text"), doc.get("text"));
        assert_eq!(back.get("grid"), doc.get("grid"));
    }

    #[test]
    fn serializer_preserves_f64_thresholds_exactly() {
        for theta in [0.05f64, 0.1, 1.0 / 3.0, 0.7000000000000001, 1.0] {
            let text = Json::num(theta).to_json_string();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(theta));
        }
    }

    #[test]
    fn round_trips_the_committed_baseline_shape() {
        // The exact shape `experiments parbench` writes must parse.
        let sample = r#"{
  "schema": "bench-parallel/v3",
  "source": { "kind": "generated", "generator": "gnm-uniform", "requested_vertices": 2000, "requested_edges": 50000, "seed": 42 },
  "baseline": { "threads": 1, "total_s": 0.136748, "speedup": 1.000, "deadline_exceeded": false },
  "runs": [
    { "threads": 2, "total_s": 0.135611, "deadline_exceeded": false }
  ]
}
"#;
        let doc = Json::parse(sample).unwrap();
        assert_eq!(
            doc.path(&["source", "seed"]).and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            doc.path(&["baseline", "deadline_exceeded"])
                .and_then(Json::as_bool),
            Some(false)
        );
    }
}
